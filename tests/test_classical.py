import math
from fractions import Fraction

import numpy as np
import pytest

from screwfn.algebra import Polynomial, RationalFunction
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
from screwfn.screw import ScrewFunctionData, eval_screw, g0_data
from screwfn.spectra import DiscreteMeasure

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
    assert Q.is_odd()
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


def test_mean_periodic_checks():
    rep = mean_periodic_checks()
    assert rep.convolution_residual < 1e-8
    assert rep.fourier_kernel_residual < 1e-8
    assert rep.one_sided_residual < 1e-8
    assert rep.fourier_carleman_residual < 1e-8


@pytest.mark.parametrize("points, masses", [
    ([-2, Fraction(-1, 2), 0, Fraction(1, 2), 2], [Fraction(1, 4), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 4)]),
    ([Fraction(-3, 2), 0, Fraction(3, 2)], [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]),
])
def test_mean_periodic_checks_on_other_symmetric_measures(points, masses):
    g = ScrewFunctionData(Fraction(0), Fraction(0), DiscreteMeasure(points, masses))
    assert mean_periodic_checks(g).max_residual() < 1e-8


def test_closed_forms_of_the_three_point_example():
    p, phi, one_sided = _kernel_and_convolution(G0)
    assert list(p) == [0, 0, 0, -1, 0, 1]  # P(z) = z^3 (z^2 - 1)
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
