import cmath
import math
import tracemalloc

import numpy as np
import pytest

from screwfn.paleywiener import (
    PWFrame,
    g_r_eval,
    g_r_laplace_check,
    g_r_tail_bound,
    pw_basis_gram,
    pw_basis_value,
    pw_fundamental,
    pw_kernel,
    pw_lattice,
    pw_measure,
    pw_ode_residual,
    pw_sampling_matrix,
    pw_truncated_norm_defect,
    pw_weyl_is_fourier,
    tan_partial_fraction,
)
from screwfn.screw import ScrewFunctionData, eval_screw
from screwfn.spectra import tau_from_mu


def test_kernel_diagonal_limit():
    z = 0.3 + 0.2j
    assert pw_kernel(1.5, z, np.conj(z)) == pytest.approx(1.5 / math.pi)


def test_kernel_zero_at_lattice_distance():
    assert abs(pw_kernel(1.0, 0.0, math.pi)) < 1e-12


def test_kernel_matches_cos_sin_form():
    rng = np.random.default_rng(0)
    r = 1.0
    for _ in range(15):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        ab = (np.conj(np.cos(r * z)) * np.sin(r * w) - np.cos(r * w) * np.conj(np.sin(r * z))) / (
            math.pi * (w - np.conj(z))
        )
        assert abs(pw_kernel(r, z, w) - ab) < 1e-12


def test_measure_smallest_truncation():
    m = pw_measure(PWFrame(1.0, 1))
    assert np.allclose(m.float_points(), [-math.pi / 2, math.pi / 2])
    assert np.allclose(m.float_masses(), [math.pi, math.pi])


def test_lattice_is_symmetric():
    pts = pw_lattice(PWFrame(2.0, 7))
    assert np.allclose(pts, -pts[::-1])


def test_sampling_identity():
    frame = PWFrame(1.0, 6)
    S = pw_sampling_matrix(frame)
    assert np.max(np.abs(S - math.sqrt(1 / math.pi) * np.eye(12))) < 1e-12


def test_basis_value_at_own_node():
    r = 1.3
    for n in (-2, 0, 1, 4):
        g = (math.pi / (2 * r)) * (2 * n - 1)
        assert abs(pw_basis_value(r, n, g)) == pytest.approx(math.sqrt(r / math.pi))


@pytest.mark.parametrize("r, N", [(1.0, 8), (1.3, 5)])
def test_basis_value_on_an_array_matches_scalar_calls(r, N):
    nodes = pw_lattice(PWFrame(r, N))
    off = np.concatenate([nodes + 0.37, np.linspace(-20.0, 20.0, 41) + 0.01, nodes + 0.5j])
    for n in (-N + 1, 0, 1, N):
        at_nodes = pw_basis_value(r, n, nodes)
        assert list(at_nodes) == [pw_basis_value(r, n, x) for x in nodes]
        vals = pw_basis_value(r, n, off)
        g = (math.pi / (2 * r)) * (2 * n - 1)
        formula = [1j * cmath.cos(r * z) / (math.sqrt(math.pi * r) * (z - g)) for z in off]
        for ref in ([pw_basis_value(r, n, x) for x in off], formula):
            ref = np.array(ref)
            assert np.all(np.abs(vals - ref) <= 1e-15 * np.abs(ref))


def test_basis_value_of_a_scalar_is_complex():
    for z in (0.3, np.float64(0.3), 2, 0.3 + 0.1j, math.pi / 2):
        assert type(pw_basis_value(1.0, 1, z)) is complex


def test_basis_gram_holds_two_sample_matrices():
    # n_max = 50 gives 101 rows of 32 769 complex samples; the weighted copy and the
    # conjugated matrix are the two alive at once
    tracemalloc.start()
    try:
        pw_basis_gram(PWFrame(1.0, 100), 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 16 * 101 * 32769


def test_truncated_gram_near_identity():
    G = pw_basis_gram(PWFrame(1.0, 50), 50)
    assert np.max(np.abs(G - np.eye(101))) < 0.02


def test_norm_defect_monotone_and_halving():
    frame = PWFrame(1.0, 10)
    d = [pw_truncated_norm_defect(frame, 0, T) for T in (60.0, 120.0, 240.0)]
    assert d[0] > d[1] > d[2] > 0
    assert 1.5 < d[0] / d[1] < 2.5
    assert 1.5 < d[1] / d[2] < 2.5


def test_fundamental_identity_at_zero():
    assert np.allclose(pw_fundamental(1.0, 0.0, 2.3 - 0.7j), np.eye(2))


def test_fundamental_rotation_det_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t, z = rng.uniform(0, 1), complex(rng.normal(), rng.normal())
        assert np.linalg.det(pw_fundamental(1.0, t, z)) == pytest.approx(1.0, abs=1e-12)


def test_fundamental_ode_residual():
    rng = np.random.default_rng(2)
    for _ in range(10):
        t, z = rng.uniform(0, 1), complex(rng.normal(), rng.normal())
        assert pw_ode_residual(1.0, t, z) < 1e-6


def test_tan_partial_fraction_halving():
    z = 0.3 + 0.4j
    e = [abs(tan_partial_fraction(1.0, z, N) - cmath.tan(z)) for N in (100, 200, 400)]
    assert 1.5 < e[0] / e[1] < 2.5
    assert 1.5 < e[1] / e[2] < 2.5


def test_g_r_at_zero_and_even():
    frame = PWFrame(1.0, 400)
    assert g_r_eval(frame, 0.0) == 0.0
    for t in (0.7, 2.1):
        assert g_r_eval(frame, t) == pytest.approx(g_r_eval(frame, -t), abs=1e-14)


def test_g_r_matches_spectral_representation():
    frame = PWFrame(1.0, 300)
    tau = tau_from_mu(pw_measure(frame))
    data = ScrewFunctionData(0.0, 0.0, tau)
    for t in (0.5, 1.5, 3.0):
        assert eval_screw(data, t).real == pytest.approx(g_r_eval(frame, t), abs=1e-12)
        assert abs(eval_screw(data, t).imag) < 1e-12


def test_g_r_truncation_within_tail_bound():
    small, big = PWFrame(1.0, 50), PWFrame(1.0, 5000)
    bound = g_r_tail_bound(small)
    worst = max(abs(g_r_eval(small, t) - g_r_eval(big, t)) for t in np.linspace(-4, 4, 17))
    assert worst < bound


def test_g_r_laplace_residual():
    assert g_r_laplace_check(PWFrame(1.0, 2000), 2j, T=100.0) < 1e-4


def test_g_r_laplace_requires_upper_half_plane():
    with pytest.raises(ValueError):
        g_r_laplace_check(PWFrame(1.0, 100), 1.0)


def test_weyl_is_fourier_constant_vector():
    rep = pw_weyl_is_fourier(PWFrame(1.0, 10), [1.0], [])
    assert rep.transform_residual < 1e-8
    # measured norm convention constant
    assert rep.norm_ratio == pytest.approx(math.pi, abs=1e-6)
    # closed form sin(z)/(pi z) at a sample point
    z = 1.7
    from screwfn.paleywiener import _poly_osc_integral

    weyl = (_poly_osc_integral([1.0], z, 1.0) + _poly_osc_integral([1.0], -z, 1.0)) / (2 * math.pi)
    assert weyl == pytest.approx(math.sin(z) / (math.pi * z))


def test_weyl_is_fourier_zero_vector():
    rep = pw_weyl_is_fourier(PWFrame(1.0, 10), [], [])
    assert rep.transform_residual == 0.0


def test_weyl_is_fourier_random_cubics():
    rng = np.random.default_rng(3)
    for _ in range(3):
        f = list(rng.normal(size=4))
        g = list(rng.normal(size=4))
        rep = pw_weyl_is_fourier(PWFrame(1.0, 10), f, g)
        assert rep.transform_residual < 1e-8


def test_frame_validation():
    with pytest.raises(ValueError):
        PWFrame(-1.0, 5)
    with pytest.raises(ValueError):
        PWFrame(1.0, 0)
