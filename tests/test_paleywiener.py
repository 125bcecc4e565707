import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sici

from screwfn.paleywiener import (
    _SICI_SWITCH,
    PWFrame,
    _sici,
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


def test_basis_gram_needs_no_sample_grid():
    # the closed form holds a few (2 n_max + 1)^2 arrays, 82 kB each at n_max = 50;
    # two 101 x 32 769 complex sample matrices would be 106 MB
    tracemalloc.start()
    try:
        pw_basis_gram(PWFrame(1.0, 100), 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _assert_sici_close(x, si, ci, ref_si, ref_ci):
    """Each of Si and Ci within 4e-15 max(1, |reference|) at every x."""
    for got, ref in ((si, ref_si), (ci, ref_ci)):
        bad = np.abs(got - ref) > 4e-15 * np.maximum(1.0, np.abs(ref))
        assert not bad.any(), x[bad]


def test_sici_matches_mpmath():
    # a log grid over both branches, 1 ulp either side of the switch from the power series to
    # the continued fraction, and points around Ci's first zero, where only the absolute error is small
    s, ci_zero = _SICI_SWITCH, 0.6165054856207162
    x = np.concatenate([np.geomspace(1e-8, 1e5, 1001), [np.nextafter(s, 0.0), s, np.nextafter(s, np.inf)],
                        ci_zero + np.arange(-4, 5) * 1e-10])
    with mpmath.workdps(30):
        ref_si = np.array([float(mpmath.si(v)) for v in x])
        ref_ci = np.array([float(mpmath.ci(v)) for v in x])
    si, ci = _sici(x.reshape(-1, 1))
    assert si.shape == ci.shape == (len(x), 1) and si.dtype == ci.dtype == np.float64
    _assert_sici_close(x, si.ravel(), ci.ravel(), ref_si, ref_ci)


@settings(max_examples=200)
@given(st.lists(st.floats(1e-8, 1e5), min_size=1, max_size=20))
def test_sici_matches_scipy(xs):
    x = np.array(xs)
    _assert_sici_close(x, *_sici(x), *sici(x))


def _mp_gram_entry(r: float, m: int, n: int, T: float) -> float:
    """integral_{-T}^{T} F_m conj(F_n) by mpmath at 30 digits, split at the zeros of cos(rx)."""
    with mpmath.workdps(30):
        r, T = mpmath.mpf(r), mpmath.mpf(T)
        h = mpmath.pi / (2 * r)
        gm, gn = h * (2 * m - 1), h * (2 * n - 1)
        k = int(T / (2 * h)) + 2
        zeros = [h * (2 * j - 1) for j in range(-k, k + 2)]
        cuts = [-T] + [x for x in zeros if -T < x < T] + [T]
        return float(mpmath.quad(
            lambda x: mpmath.cos(r * x) ** 2 / (mpmath.pi * r * (x - gm) * (x - gn)), cuts))


# each T leaves the node g_{-2} = -(pi/2r) 5 outside [-T, T]
@pytest.mark.parametrize("r, T", [(0.5, 12.0), (1.0, 6.0), (2.5, 2.5)])
def test_basis_gram_matches_mpmath(r, T):
    G = pw_basis_gram(PWFrame(r, 10), 2, T)
    assert (math.pi / (2 * r)) * 5 > T  # |g_{-2}|
    for i, m in enumerate(range(-2, 3)):
        for j, n in enumerate(range(m, 3), start=i):
            assert G[i, j] == pytest.approx(_mp_gram_entry(r, m, n, T), rel=1e-13)


def test_norm_defect_matches_mpmath():
    for r, n, T in [(1.0, 0, 60.0), (2.5, -3, 7.0)]:
        ref = 1.0 - _mp_gram_entry(r, n, n, T)
        assert pw_truncated_norm_defect(PWFrame(r, 10), n, T) == pytest.approx(ref, rel=1e-13)


def test_basis_gram_with_T_on_a_lattice_node():
    # T = g_2 = -g_{-1}: u = 0 at an end, where ln|u| and Ci(2r|u|) are each -inf;
    # the RuntimeWarning a naive form emits there is an error under pytest's filters
    frame, T = PWFrame(1.0, 10), (math.pi / 2) * 3
    G = pw_basis_gram(frame, 3, T)
    defect = pw_truncated_norm_defect(frame, 2, T)
    assert np.all(np.isfinite(G)) and math.isfinite(defect)
    for i, m in enumerate(range(-3, 4)):
        for j, n in enumerate(range(m, 4), start=i):
            assert G[i, j] == pytest.approx(_mp_gram_entry(1.0, m, n, T), rel=1e-13)
    assert defect == pytest.approx(1.0 - _mp_gram_entry(1.0, 2, 2, T), rel=1e-13)


@settings(max_examples=25)
@given(r=st.floats(0.2, 3.0), n_max=st.integers(0, 6), T=st.floats(0.5, 50.0),
       dT=st.floats(0.5, 50.0), data=st.data())
def test_basis_gram_properties(r, n_max, T, dT, data):
    frame = PWFrame(r, n_max + 1)
    G = pw_basis_gram(frame, n_max, T)
    assert G.dtype == np.float64 and np.array_equal(G, G.T)
    assert np.all((0 < np.diag(G)) & (np.diag(G) < 1))
    n = data.draw(st.integers(-n_max, n_max))
    near, far = (pw_truncated_norm_defect(frame, n, t) for t in (T, T + dT))
    assert near > far > 0


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
    assert g_r_laplace_check(PWFrame(1.0, 2000), 2j) < 1e-4


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
    with pytest.raises(ValueError, match="finite"):
        PWFrame(math.inf, 5)
