import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwfn.algebra import MatrixPolynomial, Polynomial, RationalFunction, ab_split
from screwfn import classical
from screwfn.canonical import bezout_complete, factorize
from screwfn.classical import (
    KreinString,
    LevyTriplet,
    _kernel_and_convolution,
    idd_charfn_check,
    idd_density,
    levy_triplet,
    mean_periodic_checks,
    q_substitute,
    screw_from_triplet,
    stieltjes_string,
    string_solve,
    titchmarsh_weyl,
)
from screwfn.exact import ExactComplex
from screwfn.screw import ScrewFunctionData, eval_screw, g0_data, laplace_check
from screwfn.spectra import (
    DiscreteMeasure,
    NevanlinnaData,
    cayley_q_to_theta,
    q_from_measure,
    theta_to_e,
)

Q0 = RationalFunction(Polynomial([1, 0, -2]), Polynomial([0, -1, 0, 1]))
G0 = g0_data()


def q0_substituted() -> RationalFunction:
    return RationalFunction(Polynomial([1, -2]), Polynomial([0, -1, 1]))


def test_q_substitute_q0():
    assert q_substitute(Q0) == q0_substituted()


def test_q_substitute_linear():
    assert q_substitute(RationalFunction(Polynomial([0, 1]))) == RationalFunction(Polynomial([1]))


def test_q_substitute_rejects_non_odd():
    with pytest.raises(ValueError, match="odd"):
        q_substitute(RationalFunction(Polynomial([1, 1])))


def test_q_substitute_residues_match_measure():
    # odd one-term Herglotz: m (1/(g-z) + 1/(-g-z)) = 2mz/(z^2... substituted poles at g^2
    from screwfn.spectra import measure_from_q

    m, g = Fraction(3, 2), Fraction(2)
    Q = RationalFunction(Polynomial([m]), Polynomial([g, -1])) + RationalFunction(
        Polynomial([m]), Polynomial([-g, -1])
    )
    q = q_substitute(Q)
    d = measure_from_q(q)
    assert d.measure.points == (g * g,)
    # residue bookkeeping: Q(sqrt w)/sqrt w has residue -2 m g / (2 g) * ... check by value
    assert q(complex(9.0)) == pytest.approx(complex(Q(3.0)) / 3.0)


def test_stieltjes_string_q0():
    s = stieltjes_string(q0_substituted())
    assert s.L == math.inf
    assert s.masses == ((Fraction(0), Fraction(1, 2)), (Fraction(4), Fraction(1, 2)))


def test_stieltjes_string_constant():
    s = stieltjes_string(RationalFunction(Polynomial([Fraction(5, 2)])))
    assert s.masses == () and s.L == Fraction(5, 2)


def test_stieltjes_string_single_term():
    # sigma/(lam - z): mass 1/sigma at 0, then length sigma/lam = L
    s = stieltjes_string(RationalFunction(Polynomial([2]), Polynomial([3, -1])))
    assert s.masses == ((Fraction(0), Fraction(1, 2)),)
    assert s.L == Fraction(2, 3)


def test_stieltjes_string_rejects_non_herglotz():
    # -1/(1-z) has a negative residue sign pattern for strings
    with pytest.raises(ValueError, match="not a string function"):
        stieltjes_string(RationalFunction(Polynomial([-1]), Polynomial([1, -1])))


def test_stieltjes_string_of_zero():
    # Q = z q(z^2) is the zero polynomial: one zero quotient, no mass, L = 0
    assert stieltjes_string(RationalFunction(Polynomial([0]))) == KreinString((), 0)


EIGHTHS = st.fractions(Fraction(1, 8), 4, max_denominator=8)


@st.composite
def symmetric_measures(draw, sides=EIGHTHS, max_sides=4):
    """Exact measures with an atom at 0 and equal masses at +-x, x drawn from sides.

    By default 3-9 atoms at EIGHTHS; the masses are always drawn from EIGHTHS.
    """
    xs = draw(st.lists(sides, min_size=1, max_size=max_sides, unique=True))
    ms = [draw(EIGHTHS) for _ in xs]
    points = [Fraction(0), *xs, *(-x for x in xs)]
    return DiscreteMeasure(points, [draw(EIGHTHS), *ms, *ms])


@settings(max_examples=60)
@given(symmetric_measures())
def test_string_is_the_peel_read_backwards(tau):
    # Kac-Krein: the peel of W alternates between the axes; its segments, last first, are the
    # string's masses (on (0, 0, 1)) and the gaps between them (on (1, 0, 0))
    Q = q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), tau))
    E = theta_to_e(cayley_q_to_theta(Q))
    A, B = ab_split(E / ab_split(E)[1](0))
    H = factorize(MatrixPolynomial([bezout_complete(A, B), (A, B)]))
    q = q_substitute(Q)
    s = stieltjes_string(q)
    assert s.L == math.inf and titchmarsh_weyl(s) == q and s.masses[0][0] == 0
    lengths = [seg.length for seg in reversed(H.segments)]
    assert lengths[0::2] == [m for _, m in s.masses]
    assert lengths[1::2] == [b - a for (a, _), (b, _) in zip(s.masses, s.masses[1:])]
    axes = [(0, 0, 1), (1, 0, 0)] * (len(s.masses) - 1) + [(0, 0, 1)]
    assert [seg.proj for seg in H.segments] == axes


def test_string_solve_reference_values():
    s = stieltjes_string(q0_substituted())
    phi4, psi4 = string_solve(s, None, 4)
    assert phi4 == Polynomial([1, -2])
    assert psi4 == Polynomial([4])


def test_string_solve_piecewise():
    s = stieltjes_string(q0_substituted())
    phi, psi = string_solve(s, None, Fraction(3))
    assert phi == Polynomial([1, Fraction(-3, 2)])  # 1 - (lam/2) x at x=3
    assert psi == Polynomial([3])
    phi6, psi6 = string_solve(s, None, 6)
    # lam(lam-1)x - 4lam^2 + 2lam + 1 at x=6 and (1-2lam)x + 8lam at x=6
    assert phi6 == Polynomial([1, -4, 2])
    assert psi6 == Polynomial([6, -4])


def test_string_solve_at_lambda_zero():
    s = stieltjes_string(q0_substituted())
    for x in (0.5, 2.0, 7.0):
        phi, psi = string_solve(s, 0.0, x)
        assert phi == pytest.approx(1.0)
        assert psi == pytest.approx(x)


def test_string_wronskian_identity():
    s = stieltjes_string(q0_substituted())
    for x in (Fraction(1), Fraction(7, 2), Fraction(11, 2)):
        pv, ps, qv, qs = string_solve(s, None, x, with_slopes=True)
        assert pv * qs - ps * qv == Polynomial.one()


def test_titchmarsh_weyl_roundtrip():
    q0 = q0_substituted()
    assert titchmarsh_weyl(stieltjes_string(q0)) == q0


def test_titchmarsh_weyl_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        titchmarsh_weyl(KreinString((), math.inf))


def test_levy_triplet_g0():
    t = levy_triplet(G0)
    assert t.a == 1 and t.b == 0
    assert t.nu == DiscreteMeasure([Fraction(-1), Fraction(1)], [Fraction(1, 2), Fraction(1, 2)])


def test_levy_triplet_pure_gaussian():
    data = ScrewFunctionData(
        Fraction(0), Fraction(2), DiscreteMeasure([Fraction(0)], [Fraction(9, 4)])
    )
    t = levy_triplet(data)
    assert t.a == Fraction(9, 4) and t.b == 2 and len(t.nu) == 0


def test_levy_centering_term_vanishes_for_g0():
    t = levy_triplet(G0)
    drift = sum(float(m) * float(p) / (1 + float(p) ** 2) for p, m in t.nu)
    assert drift == 0.0


def test_levy_roundtrip_pointwise():
    t = levy_triplet(G0)
    back = screw_from_triplet(t)
    ts = np.linspace(-4, 4, 41)
    assert np.max(np.abs(eval_screw(back, ts) - eval_screw(G0, ts))) < 1e-12


def test_density_series_converges():
    t = levy_triplet(G0)
    assert abs(idd_density(t, 0.0, K=20) - idd_density(t, 0.0, K=40)) < 1e-12


def test_density_rejects_a_float_jump_point_before_building_an_array(monkeypatch):
    # Fraction(0.1) has denominator 2^55: the lattice would need 1.44e17 entries
    def refuse(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(classical.np, "zeros", refuse)
    t = LevyTriplet(1.0, 0.0, DiscreteMeasure([0.1], [1.0]))
    with pytest.raises(TypeError, match="rational jump points"):
        idd_density(t, 0.0)


def test_density_normalization_and_symmetry():
    t = levy_triplet(G0)
    xs = np.linspace(-12, 12, 4097)
    dens = idd_density(t, xs)
    w = np.ones(len(xs))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (xs[1] - xs[0]) / 3
    assert abs(float(np.sum(w * dens)) - 1.0) < 1e-8
    assert (dens >= 0).all()
    assert np.max(np.abs(dens - dens[::-1])) < 1e-15


def test_charfn_matches_exp_of_screw():
    res = idd_charfn_check(G0, [0.0, 1.0, 2.0])
    assert res[0] < 1e-8  # charfn(0) = 1
    assert all(r < 1e-6 for r in res)


@pytest.mark.parametrize("nu", [
    {-1: Fraction(1, 2), 1: Fraction(1, 2)},
    {-1: Fraction(1, 3), 1: Fraction(3, 4)},
])
def test_density_equals_the_double_poisson_series(nu):
    # jumps at +-1 with rates l+, l-: a Gaussian at c + k - l with weight Poisson(k) Poisson(l)
    t = LevyTriplet(Fraction(1), Fraction(0), DiscreteMeasure(list(nu), list(nu.values())))
    lp, lm = float(nu[1]), float(nu[-1])
    c = -(lp - lm) / 2  # b - sum nu(g) g/(1 + g^2)
    xs = np.linspace(-12, 12, 4097)
    ref = sum(
        lp**k * lm**l / (math.factorial(k) * math.factorial(l)) * np.exp(-((xs - c - k + l) ** 2) / 2)
        for k in range(41) for l in range(41)
    ) * math.exp(-lp - lm) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(idd_density(t, xs) - ref)) < 1e-15


def test_density_of_an_asymmetric_jump_measure():
    # nu = {2: 1/4}: Poisson(1/4) jumps of size 2, which put 2.5e-7 of the
    # mass past x = 12, so the quadrature runs to 30
    data = ScrewFunctionData(
        Fraction(0), Fraction(0),
        DiscreteMeasure([Fraction(0), Fraction(2)], [Fraction(1), Fraction(1)]),
    )
    xs = np.linspace(-30, 30, 8193)
    dens = idd_density(levy_triplet(data), xs)
    w = np.ones(len(xs))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (xs[1] - xs[0]) / 3
    assert abs(float(np.sum(w * dens)) - 1.0) < 1e-12
    assert max(idd_charfn_check(data, [0.0, 1.0, 2.0], x_range=30.0, n=8193)) < 1e-12


def test_density_keeps_the_whole_poisson_law_of_a_large_jump_rate():
    # nu(+-1/4) = 3 * 16 = 48: Poisson(48) holds 13% of its mass at k <= 40
    data = ScrewFunctionData(Fraction(0), Fraction(0), DiscreteMeasure(
        [Fraction(-1, 4), 0, Fraction(1, 4)], [3, Fraction(7, 8), 3]))
    assert max(idd_charfn_check(data, [0.0, 1.0, 2.0])) < 1e-10


@pytest.mark.parametrize("points, masses", [
    ([-3, -1, 0, 1, 3], [1, Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), 1]),  # 7e-6 past 12
    ([0, 2], [1, 1]),  # Poisson(1/4) jumps of 2: 2.5e-7 past 12
    ([-20, 0, 20], [1, 1, 1]),  # rare jumps of 20, which 12 standard deviations (20.8) miss
], ids=["jumps-3", "jumps-2", "jumps-20"])
def test_charfn_check_integrates_over_the_whole_law(points, masses):
    data = ScrewFunctionData(Fraction(0), Fraction(0), DiscreteMeasure(points, masses))
    assert max(idd_charfn_check(data, [0.0, 1.0, 2.0])) < 1e-10
    assert max(idd_charfn_check(data, [0.0, 1.0, 2.0], x_range=12.0)) > 1e-7


def test_mean_periodic_checks():
    rep = mean_periodic_checks()
    assert rep.convolution_residual < 1e-8
    assert rep.one_sided_residual < 1e-8
    assert rep.fourier_carleman_residual < 1e-8


@pytest.mark.parametrize("points, masses", [
    ([-2, Fraction(-1, 2), 0, Fraction(1, 2), 2], [Fraction(1, 4), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 4)]),
    ([Fraction(-3, 2), 0, Fraction(3, 2)], [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]),
])
def test_mean_periodic_checks_on_other_symmetric_measures(points, masses):
    g = ScrewFunctionData(Fraction(0), Fraction(0), DiscreteMeasure(points, masses))
    assert mean_periodic_checks(g).max_residual() < 1e-8


@settings(max_examples=60, deadline=None)
@given(symmetric_measures(st.integers(1, 16).map(lambda k: Fraction(k, 4)), max_sides=7))
def test_mean_periodicity_is_exact_on_symmetric_measures(tau):
    # 3-15 atoms at multiples of 1/4 (every k/d, k <= 16, d in {1, 2, 4}, with |k/d| <= 4)
    rep = mean_periodic_checks(ScrewFunctionData(Fraction(0), Fraction(0), tau))
    assert rep.convolution_residual == 0.0 and rep.fourier_carleman_residual == 0.0
    assert rep.max_residual() < 1e-8


@pytest.mark.parametrize("pairs", [10, 16], ids=["21-atoms", "33-atoms"])
def test_mean_periodicity_window_grows_with_the_degree(pairs):
    # the odd-quarter family {0: 1} and {+-(2k - 1)/4: (2 (k mod 3) + 1)/8}; deg P = 2 pairs + 3,
    # whose kernel reaches past the fixed window [-7, t]: 9.2e-8 at 21 atoms, 3.4e-4 at 33
    xs = [Fraction(2 * k - 1, 4) for k in range(1, pairs + 1)]
    ms = [Fraction(2 * (k % 3) + 1, 8) for k in range(1, pairs + 1)]
    tau = DiscreteMeasure([Fraction(0), *xs, *(-x for x in xs)], [Fraction(1), *ms, *ms])
    assert mean_periodic_checks(ScrewFunctionData(Fraction(0), Fraction(0), tau)).max_residual() < 1e-8


def test_mean_periodic_checks_require_an_exact_measure():
    tau = DiscreteMeasure([-1.0, 0.0, 1.0], [0.5, 1.0, 0.5])
    with pytest.raises(TypeError, match="exact"):
        mean_periodic_checks(ScrewFunctionData(0.0, 0.0, tau))


@pytest.mark.parametrize("points, masses", [
    ([-1, 0, 1], [Fraction(1, 2), 1, Fraction(1, 2)]),
    ([Fraction(-3, 2), Fraction(3, 2)], [Fraction(1, 3), Fraction(1, 3)]),
    ([1], [1]),
    ([-2, Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 4), 1, Fraction(1, 2)]),
    ([0, 2], [1, Fraction(1, 3)]),
], ids=["g0", "pair", "delta1", "three-asymmetric", "two-asymmetric"])
def test_fourier_carleman_verdict_matches_the_laplace_check(points, masses):
    # the exact quotient identity and the Laplace identity state the same -(i/z^2) Q(z)
    tau = DiscreteMeasure(points, masses)
    g = ScrewFunctionData(Fraction(0), Fraction(0), tau)
    Q = q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), tau))
    laplace = max(laplace_check(g, Q, z) for z in (2j, 1 + 1j, -1 + 2j))
    assert (mean_periodic_checks(g).fourier_carleman_residual == 0) == (laplace < 1e-8)


def test_closed_forms_of_the_three_point_example():
    c, h, phi, one_sided = _kernel_and_convolution(G0)
    i = ExactComplex(0, 1)
    assert [ck * i**k for k, ck in enumerate(c)] == [0, 0, 0, -1, 0, 1]  # K = P = z^3 (z^2 - 1)
    assert h == [-i, 0, -2 * i, 0, 0]
    ts = np.linspace(-8, 8, 4097)
    assert (one_sided(ts) == -1j * (8 * ts**2 - 3) * np.exp(-(ts**2))).all()
    literal = -4j * ts * (8 * ts**4 - 38 * ts**2 + 27) * np.exp(-(ts**2))
    assert np.max(np.abs(phi(ts) - literal)) < 1e-13


def test_annihilator_fourier_vanishes_at_zero():
    # the transform sqrt(pi) e^{-z^2/4} z^3 (z^2-1) has a triple zero at z = 0
    us = np.linspace(-7, 7, 8193)
    w = np.ones(len(us))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (us[1] - us[0]) / 3
    phi = -4j * us * (8 * us**4 - 38 * us**2 + 27) * np.exp(-(us**2))
    assert abs(np.sum(w * phi)) < 1e-12
