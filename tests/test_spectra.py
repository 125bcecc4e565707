import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screwfn.algebra import Polynomial, RationalFunction, sharp
from screwfn.exact import PI, ExactComplex, PiScalar
from screwfn.spectra import (
    DiscreteMeasure,
    NevanlinnaData,
    cayley_q_to_theta,
    cayley_theta_to_q,
    level_set_masses,
    measure_from_q,
    q_from_measure,
    tau_from_mu,
    theta_to_e,
)

I = ExactComplex(0, 1)
E0 = Polynomial([-I, -1, 2 * I, 1])
Q0 = RationalFunction(Polynomial([1, 0, -2]), Polynomial([0, -1, 0, 1]))
TAU0 = DiscreteMeasure([Fraction(-1), Fraction(0), Fraction(1)],
                       [Fraction(1, 2), Fraction(1), Fraction(1, 2)])


def random_hb_cubic(rng) -> Polynomial:
    """Exact cubic with all roots in the open lower half-plane."""
    E = Polynomial.one()
    for _ in range(3):
        re = Fraction(int(rng.integers(-8, 9)), 8)
        im = Fraction(int(rng.integers(1, 9)), 8)
        E = E * Polynomial([ExactComplex(-re, im), ExactComplex(1)])
    return E


def test_q_from_measure_reproduces_q0():
    assert q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), TAU0)) == Q0


def test_q_from_measure_constant_and_single_point():
    empty = DiscreteMeasure([], [])
    assert q_from_measure(NevanlinnaData(Fraction(0), Fraction(5), empty)) == RationalFunction(
        Polynomial([5])
    )
    one = DiscreteMeasure([Fraction(2)], [Fraction(3)])
    got = q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), one))
    # 3/(2-z) - 6/5
    expect = RationalFunction(Polynomial([3]), Polynomial([2, -1])) - RationalFunction(
        Polynomial([Fraction(6, 5)])
    )
    assert got == expect


def _q_per_atom(d: NevanlinnaData) -> RationalFunction:
    """The reference: one gcd-reduced RationalFunction added per atom."""
    q = RationalFunction(Polynomial([d.b, d.a]))
    for g, m in d.measure:
        mf = m.as_fraction()
        q = q + RationalFunction(Polynomial([mf]), Polynomial([g, -1]))
        q = q - RationalFunction(Polynomial([mf * g / (1 + g * g)]))
    return q


@st.composite
def nevanlinna_data(draw):
    points = draw(st.lists(st.fractions(-4, 4, max_denominator=6), max_size=10, unique=True))
    masses = draw(st.lists(st.fractions(Fraction(1, 8), 4, max_denominator=8),
                           min_size=len(points), max_size=len(points)))
    a = draw(st.fractions(0, 3, max_denominator=4))
    b = draw(st.fractions(-3, 3, max_denominator=4))
    return NevanlinnaData(a, b, DiscreteMeasure(points, masses))


@settings(max_examples=40)
@given(nevanlinna_data())
@example(NevanlinnaData(Fraction(0), Fraction(0), DiscreteMeasure([], [])))
@example(NevanlinnaData(Fraction(1, 2), Fraction(-2), DiscreteMeasure([Fraction(0), Fraction(1, 3)],
                                                                      [Fraction(2), Fraction(1, 5)])))
def test_q_from_measure_matches_per_atom_sum(d):
    got, ref = q_from_measure(d), _q_per_atom(d)
    assert got.num.coeffs == ref.num.coeffs
    assert got.den.coeffs == ref.den.coeffs


def _q_fraction_synthetic(d: NevanlinnaData) -> tuple[Polynomial, Polynomial]:
    """The reference: N and D in Fractions, by one running product and one synthetic division per atom."""
    pts = d.measure.points
    ms = [m.as_fraction() for m in d.measure.masses]
    a = Fraction(d.a)
    b = Fraction(d.b) - sum(m * g / (1 + g * g) for g, m in zip(pts, ms))
    den = [Fraction(1)]
    for r in pts:
        den = [-r * den[0]] + [lo - r * hi for lo, hi in zip(den, den[1:])] + [den[-1]]
    num = [b * lo + a * hi for lo, hi in zip(den + [0], [0] + den)]
    for g, m in zip(pts, ms):
        quot = den[1:]  # D/(z - g), from the top degree down
        for k in range(len(quot) - 2, -1, -1):
            quot[k] += g * quot[k + 1]
        for k, c in enumerate(quot):
            num[k] -= m * c
    return Polynomial(num), Polynomial(den)


@st.composite
def mixed_denominator_data(draw):
    """1 to 40 atoms, one at 0, points with denominators up to 12; a >= 0 and b != 0."""
    points = draw(st.lists(st.fractions(-6, 6, max_denominator=12).filter(bool), max_size=39, unique=True))
    points.append(Fraction(0))
    masses = [draw(st.fractions(Fraction(1, 9), 5, max_denominator=9)) for _ in points]
    a = draw(st.fractions(0, 3, max_denominator=7))
    b = draw(st.fractions(-3, 3, max_denominator=5).filter(bool))
    return NevanlinnaData(a, b, DiscreteMeasure(points, masses))


_FORTY_ATOMS = DiscreteMeasure([Fraction(0)] + [Fraction(k * (-1) ** k, 1 + k % 12) for k in range(1, 40)],
                               [Fraction(1 + k % 5, 1 + k % 7) for k in range(40)])


@settings(max_examples=30)
@given(mixed_denominator_data())
@example(NevanlinnaData(Fraction(2, 7), Fraction(-3, 5), _FORTY_ATOMS))
def test_q_from_measure_in_integers_equals_the_fraction_assembly(d):
    got, (num, den) = q_from_measure(d), _q_fraction_synthetic(d)
    assert got.num.coeffs == num.coeffs
    assert got.den.coeffs == den.coeffs
    assert all(type(c) is Fraction for c in (*got.num.coeffs, *got.den.coeffs))


def test_measure_from_q_inverts_q0_exactly():
    d = measure_from_q(Q0)
    assert d.a == 0 and d.b == 0
    assert d.measure == TAU0


def test_measure_from_q_linear():
    d = measure_from_q(RationalFunction(Polynomial([0, 1])))
    assert d.a == 1 and d.b == 0 and len(d.measure) == 0


def test_measure_from_q_tan_like_truncation():
    # truncated lattice sum (1/r) sum 1/(g_n - z) with float poles
    r, N = 1.0, 3
    gs = [(math.pi / (2 * r)) * (2 * n - 1) for n in range(-N + 1, N + 1)]
    num = Polynomial([0.0])
    den = Polynomial([1.0])
    for g in gs:
        den = den * Polynomial([-g, 1.0])
    for g in gs:
        term = Polynomial([-1.0 / r])
        for h in gs:
            if h != g:
                term = term * Polynomial([-h, 1.0])
        num = num + term
    d = measure_from_q(RationalFunction(num, den, reduce=False))
    assert np.allclose(sorted(d.measure.float_points()), sorted(gs), atol=1e-9)
    assert np.allclose(d.measure.float_masses(), [1.0 / r] * len(gs), atol=1e-9)


def test_measure_from_q_rejects_complex_poles():
    with pytest.raises(ValueError, match="Herglotz"):
        measure_from_q(RationalFunction(Polynomial([1.0]), Polynomial([1.0, 0.0, 1.0]), reduce=False))


def test_measure_from_q_rejects_a_nonreal_q():
    # z - 0.5i + 1/(0.3 - z): one real pole with a positive mass, but Q is not real
    Q = RationalFunction(Polynomial([-0.5j, 1.0])) + RationalFunction(
        Polynomial([1.0]), Polynomial([0.3, -1.0]))
    with pytest.raises(ValueError, match="not Herglotz"):
        measure_from_q(Q)


def test_measure_from_q_rejects_negative_mass():
    # -1/(0 - z) = 1/z has residue +1 at 0, so the extracted mass is negative
    with pytest.raises(ValueError, match="not Herglotz"):
        measure_from_q(RationalFunction(Polynomial([1]), Polynomial([0, 1])))


def test_roundtrip_measure_q_measure_exact():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pts = sorted(rng.choice(np.arange(-6, 7), size=3, replace=False))
        measure = DiscreteMeasure(
            [Fraction(int(p)) for p in pts],
            [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in pts],
        )
        data = NevanlinnaData(Fraction(int(rng.integers(0, 3))), Fraction(int(rng.integers(-3, 4))), measure)
        back = measure_from_q(q_from_measure(data))
        assert back.a == data.a and back.b == data.b and back.measure == data.measure


def test_herglotz_sampling_property():
    rng = np.random.default_rng(6)
    Q = q_from_measure(NevanlinnaData(Fraction(1, 3), Fraction(-2), TAU0))
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        assert complex(Q(z)).imag >= -1e-12


def test_cayley_q0_gives_theta0():
    theta = cayley_q_to_theta(Q0)
    assert theta == RationalFunction(sharp(E0), E0)


def test_cayley_trivial_and_inverse_pair():
    assert cayley_q_to_theta(RationalFunction(Polynomial([0]))) == RationalFunction(Polynomial([1]))
    assert cayley_theta_to_q(cayley_q_to_theta(Q0)) == Q0
    theta = cayley_q_to_theta(Q0)
    assert cayley_q_to_theta(cayley_theta_to_q(theta)) == theta


def test_theta_to_e_recovers_e0():
    assert theta_to_e(cayley_q_to_theta(Q0)) == E0


def test_theta_to_e_degenerate_and_errors():
    assert theta_to_e(RationalFunction(Polynomial([1]))) == Polynomial.one()
    with pytest.raises(ValueError, match="Hermite-Biehler"):
        theta_to_e(RationalFunction(Polynomial([I, 1]), Polynomial([-I, 1])))
    with pytest.raises(ValueError, match="not inner"):
        theta_to_e(RationalFunction(Polynomial([1, 1]), E0))


def test_theta_to_e_roundtrip_random_hb():
    rng = np.random.default_rng(7)
    for _ in range(5):
        E = random_hb_cubic(rng)
        theta = RationalFunction(sharp(E), E)
        back = theta_to_e(theta)
        ratio = back.leading() / E.leading()
        assert back == E * ratio
        assert ratio * ratio.conjugate() == ExactComplex(1)
        assert RationalFunction(sharp(back), back) == theta


def test_theta_modulus_properties():
    rng = np.random.default_rng(8)
    theta = cayley_q_to_theta(Q0)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.02, 3))
        assert abs(complex(theta.num(z)) / complex(theta.den(z))) < 1
        x = rng.uniform(-4, 4)
        assert abs(abs(complex(theta.num(x)) / complex(theta.den(x))) - 1) < 1e-10


def test_level_set_masses_e0():
    mu = level_set_masses(E0)
    assert mu.mass_at(0) == PI
    assert mu.mass_at(1) == PI / 2
    assert mu.mass_at(-1) == PI / 2
    assert len(mu) == 3 and mu.is_exact


def test_level_set_masses_degree_one():
    # E = z + i has A = z, B = -1: single level point 0 with mass pi*|B(0)|/|A'(0)|
    E = Polynomial([I, 1])
    mu = level_set_masses(E)
    assert len(mu) == 1 and mu.mass_at(0) == PI


def test_level_set_masses_match_numeric_theta_derivative():
    rng = np.random.default_rng(9)
    for _ in range(4):
        E = random_hb_cubic(rng)
        mu = level_set_masses(E)
        Es = sharp(E)
        h = 1e-6
        for p, m in mu:
            x = float(p)
            dtheta = (complex(Es(x + h)) / complex(E(x + h)) - complex(Es(x - h)) / complex(E(x - h))) / (2 * h)
            assert abs(float(m) - 2 * math.pi / abs(dtheta)) < 1e-6


def test_level_set_masses_float_coefficients_match_exact():
    exact = level_set_masses(E0)
    mu = level_set_masses(Polynomial([complex(c) for c in E0.coeffs]))
    assert all(type(p) is float and type(m) is float for p, m in mu)
    assert mu.float_points() == pytest.approx(exact.float_points(), abs=1e-12)
    assert mu.float_masses() == pytest.approx(exact.float_masses(), abs=1e-12)


def test_measure_from_q_scalar_type_follows_each_pole():
    # 1/(1 - z) - 2z/(z^2 - 2): unit masses at 1 and at +-sqrt(2)
    Q = RationalFunction(Polynomial([1]), Polynomial([1, -1])) - RationalFunction(
        Polynomial([0, 2]), Polynomial([-2, 0, 1])
    )
    d = measure_from_q(Q)
    assert d.measure.mass_at(Fraction(1)) == PiScalar(1)
    (lo, lo_m), (one, _), (hi, hi_m) = d.measure
    assert one == Fraction(1) and type(lo) is float and type(hi) is float
    assert lo == pytest.approx(-math.sqrt(2), abs=1e-12) and hi == pytest.approx(math.sqrt(2), abs=1e-12)
    assert lo_m == pytest.approx(1.0, abs=1e-12) and hi_m == pytest.approx(1.0, abs=1e-12)
    assert not d.measure.is_exact


def test_tau_from_mu():
    mu = level_set_masses(E0)
    assert tau_from_mu(mu) == TAU0
    assert tau_from_mu(DiscreteMeasure([], [])) == DiscreteMeasure([], [])
    back = tau_from_mu(mu).scale(PI)
    assert back == mu


def test_total_mass_matches_zeroth_moment_for_e0():
    # |E0| = 1 on its level set, so the raw masses integrate like the weights
    from screwfn.debranges import e0_frame, moments

    mu = level_set_masses(E0)
    assert mu.total_mass() == PI * 2
    assert moments(e0_frame()).moments[0] == PI * 2


def test_equal_measures_hash_equal():
    exact = DiscreteMeasure([Fraction(1, 2), Fraction(-1)], [Fraction(1), Fraction(3, 4)])
    same = DiscreteMeasure([Fraction(-1), Fraction(1, 2)], [Fraction(3, 4), Fraction(1)])
    floats = DiscreteMeasure([0.5, -1.0], [1.0, 0.75])
    assert exact == same and hash(exact) == hash(same)
    assert exact == floats and hash(exact) == hash(floats)
    assert len({exact, same, floats}) == 1
    # a pi-graded mass equal to a float mass: masses would hash apart
    graded = DiscreteMeasure([Fraction(0)], [PI])
    assert graded == DiscreteMeasure([0.0], [math.pi])
    assert hash(graded) == hash(DiscreteMeasure([0.0], [math.pi]))


def test_measure_validation():
    with pytest.raises(ValueError, match="distinct"):
        DiscreteMeasure([Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)])
    with pytest.raises(ValueError, match="positive"):
        DiscreteMeasure([Fraction(0)], [Fraction(-1)])


def test_measure_orders_and_separates_points_by_exact_value():
    # the two Fractions share one float, 1.0; the parent sorted and compared floats
    near = 1 + Fraction(1, 10**30)
    mu = DiscreteMeasure([near, Fraction(1), 0.5], [1, 2, 3.0])
    assert mu.points == (0.5, Fraction(1), near)
    assert mu.mass_at(near) == PiScalar(1) and mu.mass_at(Fraction(1)) == PiScalar(2)
    # a pair with a float point keeps the float-equality rule
    for pts in ([Fraction(1), 1.0], [near, 1.0], [Fraction(1, 3), 1 / 3]):
        with pytest.raises(ValueError, match="support points must be distinct"):
            DiscreteMeasure(pts, [1.0, 1.0])


@pytest.mark.parametrize("points", [[math.inf], [-math.inf, 0.0], [math.nan, 1.0]],
                         ids=["inf", "minus-inf", "nan"])
def test_measure_rejects_a_non_finite_point(points):
    with pytest.raises(ValueError, match=r"^support point (-?inf|nan) is not finite$"):
        DiscreteMeasure(points, [1.0] * len(points))


@pytest.mark.parametrize("points", [[Fraction(10**400)], [-Fraction(10**400), 1.0]],
                         ids=["huge", "minus-huge-with-float"])
def test_measure_rejects_a_fraction_point_beyond_float_range(points):
    # every float view converts the points; the parent took the first and raised OverflowError
    with pytest.raises(ValueError, match=r"^support point -?10{400} is beyond float range$"):
        DiscreteMeasure(points, [1] * len(points))
    # a point that rounds to the largest float still converts
    big = Fraction(2**1024 - 2**970 - 1)
    assert DiscreteMeasure([big], [1]).float_points() == [float(big)]


@pytest.mark.parametrize("masses", [[Fraction(10**400)], [1.0, PiScalar(Fraction(10**308), 1, 2)],
                                    [math.inf]], ids=["huge", "huge-times-pi", "inf"])
def test_measure_rejects_a_mass_beyond_float_range(masses):
    # float_masses converts every mass: unchecked, these raise OverflowError there or give inf
    points = list(range(len(masses)))
    with pytest.raises(ValueError, match=r"^mass (10{400}|10{308}\*pi|inf) is beyond float range$"):
        DiscreteMeasure(points, masses)
    # a mass that rounds to the largest float still converts
    big = Fraction(2**1024 - 2**970 - 1)
    assert DiscreteMeasure([0], [big]).float_masses() == [float(big)]
