import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from screwfn import screw
from screwfn.algebra import Polynomial, RationalFunction
from screwfn.screw import (
    ScrewFunctionData,
    TestFunction,
    aligned_test_function,
    chord_length,
    eval_screw,
    g0_data,
    inner_product_Hg,
    kernel_g,
    laplace_check,
    pd_check,
    phi1,
    random_test_function,
)
from screwfn.spectra import DiscreteMeasure, NevanlinnaData, q_from_measure

G0 = g0_data()
Q0 = RationalFunction(Polynomial([1, 0, -2]), Polynomial([0, -1, 0, 1]))


def g0_closed_form(t):
    return -t * t / 2 + np.cos(t) - 1


def test_eval_matches_closed_form_at_spot_points():
    for t in (0.5, 1.0, 2.0):
        assert abs(eval_screw(G0, t) - g0_closed_form(t)) < 1e-12


def test_eval_matches_closed_form_on_grid():
    ts = np.linspace(-10, 10, 1000)
    assert np.max(np.abs(eval_screw(G0, ts) - g0_closed_form(ts))) < 1e-12


def test_eval_at_zero_returns_g0():
    data = ScrewFunctionData(Fraction(3, 7), Fraction(0), DiscreteMeasure([], []))
    assert eval_screw(data, 0.0) == pytest.approx(3 / 7)


def test_eval_pure_drift():
    data = ScrewFunctionData(Fraction(0), Fraction(1), DiscreteMeasure([], []))
    assert eval_screw(data, 2.0) == pytest.approx(2j)


def test_hermitian_symmetry():
    rng = np.random.default_rng(0)
    data = ScrewFunctionData(
        Fraction(0), Fraction(2, 3),
        DiscreteMeasure([Fraction(-2), Fraction(1, 2)], [Fraction(1, 3), Fraction(5, 4)]),
    )
    for _ in range(50):
        t = rng.uniform(-8, 8)
        assert abs(eval_screw(data, -t) - np.conj(eval_screw(data, t))) < 1e-12


def test_kernel_vanishes_on_axes():
    for t in (0.3, 1.0, -2.5):
        assert abs(kernel_g(G0, t, 0.0)) < 1e-14
        assert abs(kernel_g(G0, 0.0, t)) < 1e-14


def test_kernel_at_pi_pi():
    assert kernel_g(G0, math.pi, math.pi) == pytest.approx(4 + math.pi**2, abs=1e-12)


def test_kernel_hermitian():
    rng = np.random.default_rng(1)
    data = ScrewFunctionData(
        Fraction(0), Fraction(1, 5),
        DiscreteMeasure([Fraction(-1), Fraction(3)], [Fraction(1), Fraction(2)]),
    )
    for _ in range(20):
        t, s = rng.uniform(-5, 5, 2)
        assert abs(kernel_g(data, t, s) - np.conj(kernel_g(data, s, t))) < 1e-12


def test_chord_length_closed_form():
    for t in (0.25, 1.5, 4.0):
        assert chord_length(G0, t) == pytest.approx(math.sqrt(t * t + 2 - 2 * math.cos(t)))
    assert chord_length(G0, 0.0) == 0.0


def test_chord_length_linear_asymptote():
    for t in (50.0, 200.0):
        assert chord_length(G0, t) / t == pytest.approx(1.0, abs=1e-3)


def test_pd_check_g0_grid():
    rep = pd_check(G0, np.linspace(-6, 6, 50))
    assert rep.passed and rep.min_eigenvalue >= -1e-9


def test_pd_check_single_point():
    rep = pd_check(G0, [1.3])
    assert rep.passed and rep.min_eigenvalue == pytest.approx(kernel_g(G0, 1.3, 1.3).real)


def test_pd_check_detects_non_screw_data():
    # g(t) = +t^2 is not a screw function; build its kernel by hand on {1, 2}
    def bad_kernel(t, s):
        return (t - s) ** 2 - t * t - s * s

    G = np.array([[bad_kernel(t, s) for s in (1.0, 2.0)] for t in (1.0, 2.0)])
    lam = np.linalg.eigvalsh((G + G.T) / 2).min()
    assert lam < -1e-9
    # 2x2 determinant oracle: eigenvalue signs follow det and trace
    assert np.linalg.det(G) < 0 or np.trace(G) < 0


def test_pd_check_random_valid_measures():
    rng = np.random.default_rng(2)
    for _ in range(3):
        pts = sorted(rng.choice(np.arange(-5, 6), size=3, replace=False))
        data = ScrewFunctionData(
            Fraction(0), Fraction(0),
            DiscreteMeasure([Fraction(int(p)) for p in pts],
                            [Fraction(int(rng.integers(1, 5)), 2) for _ in pts]),
        )
        assert pd_check(data, np.linspace(-4, 4, 30)).passed


def test_phi1_zero_function():
    phi = TestFunction(np.zeros(513), (-1.0, 1.0))
    for z in (0.0, 1.0, 2j):
        assert phi1(phi, z) == 0


def test_phi1_is_fourier_over_z_for_zero_mean():
    rng = np.random.default_rng(3)
    phi = random_test_function(rng)
    assert abs(phi.integral()) < 1e-14
    for z in (0.7, -1.3, 2.1):
        assert abs(phi1(phi, z) - phi.fourier(z) / z) < 1e-10


def test_phi1_at_zero_matches_finite_difference():
    rng = np.random.default_rng(4)
    phi = random_test_function(rng)
    h = 1e-5
    fd = (phi.fourier(h) - phi.fourier(-h)) / (2 * h)
    assert abs(phi1(phi, 0.0) - fd) < 1e-8


def test_inner_product_two_ways_agree():
    rng = np.random.default_rng(5)
    for _ in range(3):
        phi_a = random_test_function(rng, n=1025)
        phi_b = random_test_function(rng, n=1025)
        cmp1 = inner_product_Hg(G0, phi_a, phi_b)
        assert cmp1.difference < 1e-6


def test_inner_product_zero():
    phi0 = TestFunction(np.zeros(513), (-3.0, 3.0))
    out = inner_product_Hg(G0, phi0, phi0)
    assert out.via_kernel == 0 and out.via_measure == 0


def test_inner_product_aligned_unit():
    phi = aligned_test_function([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    out = inner_product_Hg(G0, phi, phi)
    assert abs(out.via_measure - 1.0) < 1e-10
    assert abs(out.via_kernel - 1.0) < 1e-6


def _dense_kernel_side(g, phi_1, phi_2):
    """The kernel double sum with the whole matrix [G(t_i, s_j)] built."""
    K = kernel_g(g, phi_2.grid[:, None], phi_1.grid[None, :])
    inner_s = K @ (phi_1._weights * phi_1.samples)
    return complex(np.sum(phi_2._weights * np.conj(phi_2.samples) * inner_s))


@pytest.mark.parametrize("tau", [
    DiscreteMeasure([Fraction(-3, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(3, 2)],
                    [Fraction(1, 2), Fraction(3), Fraction(1), Fraction(3), Fraction(1, 2)]),
    DiscreteMeasure([Fraction(-2), Fraction(1, 2), Fraction(3, 2)],
                    [Fraction(1, 4), Fraction(1), Fraction(1, 2)]),
], ids=["symmetric", "asymmetric"])
def test_inner_product_kernel_side_matches_dense_double_sum(tau):
    g = ScrewFunctionData(Fraction(1, 3), Fraction(1, 2), tau)
    rng = np.random.default_rng(11)
    phi_1, phi_2 = random_test_function(rng, n=1025), random_test_function(rng, n=1025)
    for a, b in ((phi_1, phi_2), (phi_2, phi_1), (phi_1, phi_1)):
        dense = _dense_kernel_side(g, a, b)
        assert abs(inner_product_Hg(g, a, b).via_kernel - dense) <= 1e-13 * abs(dense)


def test_inner_product_requires_one_grid():
    rng = np.random.default_rng(12)
    phi = random_test_function(rng, n=513)
    with pytest.raises(ValueError, match="one grid"):
        inner_product_Hg(G0, phi, random_test_function(rng, support=(-2.0, 3.0), n=513))
    with pytest.raises(ValueError, match="one grid"):
        inner_product_Hg(G0, phi, random_test_function(rng, n=1025))


def _eval_screw_per_atom(g, t):
    """eval_screw as it was written first: each atom converted inside the loop."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, complex(float(g.g0)), dtype=complex)
    out += 1j * float(g.c) * t
    for p, m in g.tau:
        gamma, mass = float(p), float(m)
        if gamma == 0.0:
            out -= mass * t * t / 2.0
        else:
            out += mass * (
                (np.exp(1j * t * gamma) - 1.0) / gamma**2
                - 1j * t / (gamma * (1.0 + gamma**2))
            )
    return out if out.shape else complex(out)


def test_eval_screw_is_bit_identical_to_per_atom_conversion():
    pts = [Fraction(k, 7) for k in range(-12, 13) if k != 5]
    ms = [Fraction(k % 5 + 1, 3) for k in range(len(pts))]
    atoms24 = ScrewFunctionData(Fraction(2, 3), Fraction(-1, 5), DiscreteMeasure(pts, ms))
    # more mirror pairs than exponentials kept at once: the innermost pairs take no conjugate
    pairs = screw._MAX_KEPT + 11
    wide = DiscreteMeasure([Fraction(k, 8) for k in range(-pairs, pairs + 1)], [Fraction(1, 2)] * (2 * pairs + 1))
    atoms151 = ScrewFunctionData(Fraction(0), Fraction(1, 3), wide)
    assert len(atoms151.mirror_pairs) == screw._MAX_KEPT
    ts = np.linspace(-6.0, 6.0, 301)
    for g in (G0, atoms24, atoms151):
        for t in (ts, ts[:, None] - ts[None, ::7], 1.7):
            got = eval_screw(g, t)
            assert np.array_equal(got, _eval_screw_per_atom(g, t))
        assert type(eval_screw(g, 1.7)) is complex


def _bits(x):
    """The float64 words of a complex scalar or array: equal bits, zero signs included."""
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.float64)


_FRACTIONS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def _screw_data(draw):
    """Random rational screw data: symmetric, asymmetric or mixed, maybe with an atom at 0."""
    sides = draw(st.sampled_from([["both"], ["plus", "minus"], ["both", "plus", "minus"]]))
    gammas = draw(st.lists(st.builds(Fraction, st.integers(1, 64), st.integers(1, 16)),
                           max_size=6, unique=True))
    pts = set()
    for gamma in gammas:
        side = draw(st.sampled_from(sides))
        if side != "minus":
            pts.add(gamma)
        if side != "plus":
            pts.add(-gamma)
    if draw(st.booleans()):
        pts.add(Fraction(0))
    pts = sorted(pts)
    masses = [draw(st.builds(Fraction, st.integers(1, 20), st.integers(1, 8))) for _ in pts]
    return ScrewFunctionData(draw(_FRACTIONS), draw(_FRACTIONS), DiscreteMeasure(pts, masses))


@settings(max_examples=40)
@given(g=_screw_data(), seed=st.integers(0, 2**32 - 1),
       extra=st.integers(1, screw._BLOCK - 1), scale=st.sampled_from([1e-9, 1.0, 40.0]))
def test_eval_screw_paths_are_bit_identical_to_the_per_atom_reference(g, seed, extra, scale):
    rng = np.random.default_rng(seed)
    line = rng.uniform(-scale, scale, screw._BLOCK + extra)  # a ragged last block
    line[:3] = (0.0, -0.0, scale)
    ts, ss = line[:40], rng.uniform(-scale, scale, 30)
    for t in (line, ts[:, None] - ss[None, :]):
        assert np.array_equal(_bits(eval_screw(g, t)), _bits(_eval_screw_per_atom(g, t)))
    for x in line[:5]:
        for t in (float(x), np.float64(x), np.array(x)):
            got = eval_screw(g, t)
            assert type(got) is complex
            assert np.array_equal(_bits(got), _bits(_eval_screw_per_atom(g, t)))
    K = kernel_g(g, ts[:, None], ss[None, :])
    for i, j in ((0, 0), (1, 2), (2, 29), (39, 7)):
        got = kernel_g(g, float(ts[i]), float(ss[j]))
        assert type(got) is complex
        assert np.array_equal(_bits(got), _bits(K[i, j]))


def _laplace_unmemoized(g, Q, z, T=80.0):
    """laplace_check's two quad passes, each evaluating g afresh at every node."""
    def integrand_re(t):
        return (_eval_screw_per_atom(g, t) * np.exp(1j * z * t)).real

    def integrand_im(t):
        return (_eval_screw_per_atom(g, t) * np.exp(1j * z * t)).imag

    re, _ = integrate.quad(integrand_re, 0.0, T, limit=400, epsabs=1e-12, epsrel=1e-12)
    im, _ = integrate.quad(integrand_im, 0.0, T, limit=400, epsabs=1e-12, epsrel=1e-12)
    rhs = -(1j / z**2) * complex(Q(z))
    return abs(complex(re, im) - rhs)


@pytest.mark.parametrize("tau", [
    G0.tau,
    DiscreteMeasure([Fraction(-2), Fraction(1, 2), Fraction(3, 2)],
                    [Fraction(1, 4), Fraction(1), Fraction(1, 2)]),
], ids=["g0", "asymmetric"])
def test_laplace_check_is_bit_identical_to_unmemoized_quadrature(tau):
    g = ScrewFunctionData(Fraction(0), Fraction(0), tau)
    Q = q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), tau))
    for z in (2j, 1 + 1j):
        assert np.array_equal(_bits(laplace_check(g, Q, z)), _bits(_laplace_unmemoized(g, Q, z)))


def test_dense_kernel_makes_no_other_matrix_sized_temporaries():
    # numpy reports its buffers to tracemalloc: the result and t - s are all of size n^2
    n = 1025
    pts = [Fraction(k, 4) for k in range(-6, 7)]
    g = ScrewFunctionData(Fraction(1, 3), Fraction(1, 2), DiscreteMeasure(pts, [Fraction(1)] * len(pts)))
    ts = np.linspace(-3.0, 3.0, n)
    tracemalloc.start()
    try:
        K = kernel_g(g, ts[:, None], ts[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.shape == (n, n)
    assert peak < 2.5 * 16 * n * n


def test_pd_check_forms_the_hermitian_part_in_place():
    # G, its conjugate transpose and eigvalsh's copy of it; (G + G^H) / 2 adds a third n^2 array
    n = 1025
    ts = np.linspace(-6.0, 6.0, n)
    g = g0_data()
    G = kernel_g(g, ts[:, None], ts[None, :])
    expect = float(np.linalg.eigvalsh((G + G.conj().T) / 2.0).min())
    del G
    tracemalloc.start()
    try:
        rep = pd_check(g, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.min_eigenvalue == expect
    assert peak < 2.5 * 16 * n * n


def test_warm_screw_data_keeps_equality_and_hash():
    warm, fresh = g0_data(), g0_data()
    eval_screw(warm, 0.5)
    assert "float_atoms" in vars(warm) and "float_atoms" not in vars(fresh)
    assert warm == fresh and hash(warm) == hash(fresh)
    assert warm.float_atoms == ((-1.0, 0.5), (0.0, 1.0), (1.0, 0.5))


def test_isometry_on_many_random_functions():
    # one shared grid lets the weighted kernel matrix be assembled once
    rng = np.random.default_rng(6)
    probe = random_test_function(rng, n=1025)
    ts = probe.grid
    kw = probe._weights[:, None] * kernel_g(G0, ts[:, None], ts[None, :]) * probe._weights[None, :]
    for k in range(20):
        phi = probe if k == 0 else random_test_function(rng, n=1025)
        via_kernel = complex(np.conj(phi.samples) @ (kw @ phi.samples))
        via_measure = sum(
            abs(phi1(phi, float(p))) ** 2 * float(m) for p, m in G0.tau
        )
        assert abs(via_kernel - via_measure) < 1e-6


def test_laplace_identity():
    for z in (2j, 1 + 1j):
        assert laplace_check(G0, Q0, z, T=80.0) < 1e-8


def test_laplace_zero_data():
    zero = ScrewFunctionData(Fraction(0), Fraction(0), DiscreteMeasure([], []))
    assert laplace_check(zero, RationalFunction(Polynomial([0])), 2j, T=10.0) < 1e-14


def test_laplace_requires_upper_half_plane():
    with pytest.raises(ValueError):
        laplace_check(G0, Q0, 1.0 - 1j)


def test_test_function_validation():
    with pytest.raises(ValueError, match="odd number"):
        TestFunction(np.zeros(100), (-1, 1))
    bad = np.ones(513)
    with pytest.raises(ValueError, match="vanish"):
        TestFunction(bad, (-1, 1))


def test_zero_mean_projection():
    ts = np.linspace(-2, 2, 1025)
    vals = np.exp(-(ts**2))
    vals[0] = vals[-1] = 0
    phi = TestFunction(vals, (-2.0, 2.0)).zero_mean()
    assert abs(phi.integral()) < 1e-14
