import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwfn import screw
from screwfn.algebra import Polynomial, RationalFunction
from screwfn.screw import (
    MIN_GRID,
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


def test_pd_check_detects_non_screw_data(monkeypatch):
    # g(t) = +t^2 is not a screw function: its kernel (t - s)^2 - t^2 - s^2 = -2ts has the
    # one nonzero eigenvalue -2 sum t^2; the first grid takes the real path, the second not
    monkeypatch.setattr(screw, "kernel_g", lambda g, t, s: -2.0 * t * s + 0j)
    for grid in ([-2.0, -1.0, 1.0, 2.0], [1.0, 2.0]):
        rep = pd_check(G0, grid)
        assert not rep.passed
        assert rep.min_eigenvalue == pytest.approx(-2.0 * sum(t * t for t in grid), rel=1e-12)


@pytest.mark.parametrize("grid, message", [([], "at least one point"), ([0.0, math.nan], "finite"),
                                           ([-1.0, math.inf], "finite")],
                         ids=["empty", "nan", "inf"])
def test_pd_check_rejects_bad_grids(grid, message):
    with pytest.raises(ValueError, match=message):
        pd_check(G0, grid)


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


def _pointwise_phi1(phi, z):
    """Phi1 by its own exponential, the samples multiplied before the division by z: the reference."""
    if z == 0:
        return phi.quad(phi.samples * 1j * phi.grid)
    return phi.quad(phi.samples * (np.exp(1j * z * phi.grid) - 1.0) / z)


def test_screw_line_columns_equal_the_pointwise_formulas():
    # the one evaluator divides by z before the samples multiply, and the measure side sums
    # its atoms by np.sum: each value within 16 rounding units of the sum of its moduli
    eps = np.finfo(float).eps
    rng = np.random.default_rng(8)
    phi_a, phi_b = random_test_function(rng, n=1025), random_test_function(rng, n=1025)
    for z in (0.0, 0.25, -1.3, 2.0, 0.5 + 0.5j):
        column = screw._screw_line(phi_a.grid, [z])[:, 0]
        assert abs(phi1(phi_a, z) - _pointwise_phi1(phi_a, z)) <= 16 * eps * phi_a.quad(
            np.abs(phi_a.samples * column)).real
    tau = DiscreteMeasure([Fraction(k, 4) for k in (-5, -1, 0, 1, 5)],
                          [Fraction(1, 8), Fraction(3, 8), 1, Fraction(3, 8), Fraction(1, 8)])
    g = ScrewFunctionData(Fraction(0), Fraction(0), tau)
    terms = [_pointwise_phi1(phi_a, x) * np.conj(_pointwise_phi1(phi_b, x)) * m for x, m in g.float_atoms]
    got = inner_product_Hg(g, phi_a, phi_b).via_measure
    assert abs(got - sum(terms)) <= 16 * eps * sum(abs(t) for t in terms)


def test_inner_product_zero():
    phi0 = TestFunction(np.zeros(513), (-3.0, 3.0))
    out = inner_product_Hg(G0, phi0, phi0)
    assert out.via_kernel == 0 and out.via_measure == 0


def test_inner_product_aligned_unit():
    phi = aligned_test_function([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    out = inner_product_Hg(G0, phi, phi)
    assert abs(out.via_measure - 1.0) < 1e-10
    assert abs(out.via_kernel - 1.0) < 1e-6


def _dense_kernel_side(g, phi_1, phi_2, K=None):
    """The kernel double sum with the whole matrix [G(t_i, s_j)] built, or given as K."""
    if K is None:
        K = kernel_g(g, phi_2.grid[:, None], phi_1.grid[None, :])
    inner_s = K @ (phi_1._weights * phi_1.samples)
    return complex(np.sum(phi_2._weights * np.conj(phi_2.samples) * inner_s))


@pytest.mark.parametrize("tau", [
    DiscreteMeasure([Fraction(-3, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(3, 2)],
                    [Fraction(1, 2), Fraction(3), Fraction(1), Fraction(3), Fraction(1, 2)]),
    DiscreteMeasure([Fraction(-2), Fraction(1, 2), Fraction(3, 2)],
                    [Fraction(1, 4), Fraction(1), Fraction(1, 2)]),
], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n", [MIN_GRID, 1025, 2049])
def test_inner_product_kernel_side_matches_dense_double_sum(tau, n):
    # 2n - 1 lies just above a power of two at each n; the FFT lengths are 1080, 2160 and 4320
    g = ScrewFunctionData(Fraction(1, 3), Fraction(1, 2), tau)
    rng = np.random.default_rng(11)
    phi_1, phi_2 = random_test_function(rng, n=n), random_test_function(rng, n=n)
    K = kernel_g(g, phi_1.grid[:, None], phi_1.grid[None, :])
    for a, b in ((phi_1, phi_2), (phi_2, phi_1), (phi_1, phi_1)):
        dense = _dense_kernel_side(g, a, b, K)
        assert abs(inner_product_Hg(g, a, b).via_kernel - dense) <= 1e-13 * abs(dense)
    # the quadratic form diagram_check takes, against the same double sum
    _, quadratic = screw._kernel_form(g, phi_1.support, n)
    for a in (phi_1, phi_2):
        dense = _dense_kernel_side(g, a, a, K).real
        assert abs(quadratic(a._weights * a.samples) - dense) <= 1e-13 * abs(dense)


def test_fft_length_is_the_least_5_smooth_length():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    lengths = [screw._fft_length(m) for m in range(1, 5000)]
    assert all(smooth(L) and L >= m for m, L in enumerate(lengths, 1))
    assert all(not smooth(x) for m, L in enumerate(lengths, 1) for x in range(m, L))
    assert [screw._fft_length(2 * n - 1) for n in (MIN_GRID, 1025, 2049)] == [1080, 2160, 4320]


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


def _mp_laplace_integral(g, z, T):
    """integral_0^T g(t) e^{izt} dt by 30-digit mpmath.quad, split at laplace_check's panel ends.

    g is summed as A + B t + C t^2 + sum_{gamma != 0} (m/gamma^2) exp(i gamma t)
    over g.float_atoms, the atoms laplace_check reads, with one exp for each
    pair +-gamma.
    """
    with mpmath.workdps(30):
        A, B, C = mpmath.mpf(float(g.g0)), 1j * mpmath.mpf(float(g.c)), mpmath.mpf(0)
        waves = {}  # |gamma| -> [weight of exp(i |gamma| t), weight of exp(-i |gamma| t)]
        for gamma, mass in g.float_atoms:
            gamma, mass = mpmath.mpf(gamma), mpmath.mpf(mass)
            if gamma == 0:
                C -= mass / 2
                continue
            A -= mass / gamma**2
            B -= 1j * mass / (gamma * (1 + gamma**2))
            waves.setdefault(abs(gamma), [0, 0])[int(gamma < 0)] += mass / gamma**2
        iz = 1j * mpmath.mpc(z)

        def f(t):
            val = A + B * t + C * t * t
            for k, (plus, minus) in waves.items():
                e = mpmath.expj(k * t)
                val += plus * e + minus * mpmath.conj(e)
            return val * mpmath.exp(iz * t)

        omega = max((abs(gamma) for gamma, _ in g.float_atoms), default=0.0) + abs(z)
        ends = mpmath.linspace(0, T, max(1, math.ceil(T * omega / screw._GL_PHASE)) + 1)
        return complex(mpmath.quad(f, ends, method="gauss-legendre"))


def _panel_rule_error(g, z, T, ref):
    """|laplace_check's integral - ref|: with Q = i z^2 ref, -(i/z^2) Q(z) is ref."""
    return laplace_check(g, RationalFunction(Polynomial([1j * z * z * ref])), z, T=T)


_ASYMMETRIC = DiscreteMeasure([Fraction(-2), Fraction(1, 2), Fraction(3, 2)],
                              [Fraction(1, 4), Fraction(1), Fraction(1, 2)])
# a spectral-kernels measure: 12 mirror pairs +-k/16, k odd, with masses j/8, j odd
_KS = (1, 5, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63)
_ATOMS24 = DiscreteMeasure(
    [Fraction(sign * k, 16) for k in _KS for sign in (-1, 1)],
    [Fraction(2 * (i % 4) + 1, 8) for i in range(len(_KS)) for _ in (-1, 1)],
)


@pytest.mark.parametrize("tau, T", [(G0.tau, 80.0), (_ASYMMETRIC, 80.0), (_ATOMS24, 40.0)],
                         ids=["g0", "asymmetric", "24-atoms"])
@pytest.mark.parametrize("z", [0.3 + 0.5j, -1.2 + 1j, 1.7 + 2j])
def test_laplace_panel_rule_matches_mpmath(tau, T, z):
    g = ScrewFunctionData(Fraction(1, 3), Fraction(-1, 2), tau)
    ref = _mp_laplace_integral(g, z, T)
    assert _panel_rule_error(g, z, T, ref) <= 1e-13 * abs(ref)


def test_laplace_check_still_sees_fault_3():
    # tau = delta_1 is not symmetric, so its g is not the screw function of Q: the identity fails
    tau = DiscreteMeasure([Fraction(1)], [Fraction(1)])
    g = ScrewFunctionData(Fraction(0), Fraction(0), tau)
    Q = q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), tau))
    for z in (2j, 1 + 1j, -1 + 2j):
        assert laplace_check(g, Q, z) > 0.1


def test_dense_kernel_makes_no_other_matrix_sized_temporaries():
    # numpy reports its buffers to tracemalloc: the complex result and the float t - s
    # are all of size n^2 (1.5 x 16 n^2 bytes); np.unique's sorted copy of t - s is freed
    # before the result is made, and the lag indices are taken one block at a time
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
    assert peak < 1.75 * 16 * n * n


def _kernel_per_atom(g, t, s):
    """kernel_g's sum, in its order, with the per-atom reference evaluating g."""
    val = _eval_screw_per_atom(g, t - s)
    val -= _eval_screw_per_atom(g, t)
    val -= _eval_screw_per_atom(g, -s)
    val += complex(float(g.g0))
    return val


def test_kernel_g_evaluates_g_once_per_distinct_lag(monkeypatch):
    points = []

    def counting(g, t):
        points.append(np.size(t))
        return eval_screw(g, t)

    monkeypatch.setattr(screw, "eval_screw", counting)
    n = 300
    ts = np.linspace(-6.0, 6.0, n)
    kernel_g(G0, ts[:, None], ts[None, :])
    distinct = len(np.unique(ts[:, None] - ts[None, :]))
    assert distinct < n * n // 40
    assert sum(points) <= distinct + 2 * n


@pytest.mark.parametrize("tau", [_ATOMS24, _ASYMMETRIC], ids=["24-atoms", "asymmetric"])
def test_kernel_g_is_bit_identical_to_the_per_atom_reference(tau):
    g = ScrewFunctionData(Fraction(1, 3), Fraction(-1, 2), tau)
    rng = np.random.default_rng(13)
    for ts in (np.linspace(-6.0, 6.0, 300), np.sort(rng.uniform(-6.0, 6.0, 200))):
        for t, s in ((ts[:, None], ts[None, :]), (ts[:, None], ts[None, ::3])):
            assert np.array_equal(_bits(kernel_g(g, t, s)), _bits(_kernel_per_atom(g, t, s)))


def _hermitian_part_eigenvalues(g, ts):
    """The complex reference: eigvalsh of (G + G^H) / 2."""
    G = kernel_g(g, ts[:, None], ts[None, :])
    return np.linalg.eigvalsh((G + G.conj().T) / 2.0)


def test_pd_check_forms_the_hermitian_part_in_place():
    # G and the real A - BJ while it is formed, then that matrix and eigvalsh's copy of it
    n = 1025
    ts = np.linspace(-6.0, 6.0, n)
    g = g0_data()
    tracemalloc.start()
    try:
        pd_check(g, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 16 * n * n


def test_pd_check_on_an_asymmetric_grid_is_the_complex_eigvalsh():
    g = ScrewFunctionData(Fraction(1, 3), Fraction(-1, 2), _ASYMMETRIC)
    for ts in (np.linspace(0.0, 6.0, 200), np.linspace(-6.0, 5.0, 150), np.array([1.3])):
        assert pd_check(g, ts).min_eigenvalue == float(_hermitian_part_eigenvalues(g, ts).min())


_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)


@st.composite
def _screw_data(draw):
    """Nonzero g(0) and c, and a measure that is symmetric or not, on rational atoms."""
    g0 = draw(_small_rationals.filter(bool))
    c = draw(_small_rationals.filter(bool))
    points = draw(st.lists(_small_rationals.filter(bool), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        points = sorted({p for q in points for p in (q, -q)})
    if draw(st.booleans()):
        points = sorted({Fraction(0), *points})
    masses = [draw(st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8))
              for _ in points]
    return ScrewFunctionData(g0, c, DiscreteMeasure(points, masses))


@settings(max_examples=40)
@given(g=_screw_data(), n=st.integers(2, 300), half_width=st.sampled_from([1.0, 4.0, 6.0, 7.3]))
def test_pd_check_on_a_symmetric_grid_matches_the_complex_spectrum(g, n, half_width):
    ts = np.linspace(-half_width, half_width, n)
    expect = _hermitian_part_eigenvalues(g, ts)
    scale = np.abs(expect).max()
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def keeping(a):
        solved.append(a.copy())
        return eigvalsh(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screw.np.linalg, "eigvalsh", keeping)
        lam = pd_check(g, ts).min_eigenvalue
    assert abs(lam - expect.min()) <= 1e-13 * scale
    (S,) = solved
    assert S.dtype == np.float64
    assert np.abs(np.linalg.eigvalsh(S) - expect).max() <= 1e-14 * scale


def test_pd_check_solves_a_real_problem_on_a_symmetric_grid(monkeypatch):
    dtypes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(screw.np.linalg, "eigvalsh", recording)
    pd_check(G0, np.linspace(-6.0, 6.0, 300))
    pd_check(G0, [1.3])
    assert dtypes == [np.dtype(np.float64), np.dtype(np.complex128)]


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


def _reference_random_test_function(rng, support=(-3.0, 3.0), n=2049):
    """The windowed random trig polynomial, tables formed per draw, made zero-mean by zero_mean."""
    lo, hi = support
    ts = np.linspace(lo, hi, n)
    window = screw._bump(ts, lo, hi)
    vals = np.zeros(n, dtype=complex)
    for k in range(1, 4):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        vals += a * np.cos(k * ts) + b * np.sin(k * ts)
    vals += rng.normal() + 1j * rng.normal()
    return TestFunction(vals * window, support).zero_mean()


@pytest.mark.parametrize("support, n", [((-3.0, 3.0), 2049), ((-2.0, 3.0), 513), ((-1, 4), 1025)])
def test_random_draws_are_bit_identical_to_per_draw_tables(support, n):
    # the tables are taken once per generator; each draw reads rng as one call did
    rng, ref_rng, one_rng = (np.random.default_rng(11) for _ in range(3))
    draws = screw._random_draws(rng, support, n)
    for _ in range(4):
        want = _reference_random_test_function(ref_rng, support, n)
        for got in (next(draws), random_test_function(one_rng, support=support, n=n)):
            assert got.support == want.support
            assert _bits(got.samples).tobytes() == _bits(want.samples).tobytes()
