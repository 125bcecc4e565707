"""Independent exact oracles from sympy: the extended Euclid and rational cancellation.

The pipeline builds H from E's bottom row (A, B) alone, by factorize_row.
Run forward, H's fundamental solution completes that row to a transfer
matrix, and its top row is then the minimal Bezout completion of (A, B):
the (s, -t) of sympy's gcdex(B, A), s B + t A = 1.  q_from_measure's N/D
is sympy's cancel of the Herglotz sum, with the denominator made monic.
sympy is used in tests only; screwfn itself depends on numpy alone.
"""
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from screwfn.algebra import Polynomial, ab_split
from screwfn.canonical import factorize_row, fundamental_solution
from screwfn.spectra import DiscreteMeasure, NevanlinnaData, cayley_q_to_theta, q_from_measure, theta_to_e

z = sympy.Symbol("z")
EIGHTHS = st.fractions(Fraction(1, 8), 4, max_denominator=8)


@st.composite
def symmetric_measures(draw):
    """{0: m_0} and {+-x: m_x}: 1 to 4 point pairs and every mass in EIGHTHS."""
    xs = draw(st.lists(EIGHTHS, min_size=1, max_size=4, unique=True))
    ms = [draw(EIGHTHS) for _ in xs]
    return DiscreteMeasure([Fraction(0), *xs, *(-x for x in xs)], [draw(EIGHTHS), *ms, *ms])


def _to_sympy(p: Polynomial) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], z,
                      domain="QQ")


def _from_sympy(p: sympy.Poly) -> Polynomial:
    return Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def _rational(x: Fraction) -> sympy.Rational:
    return sympy.Rational(x.numerator, x.denominator)


@st.composite
def nevanlinna_data(draw):
    """Up to 8 atoms of mixed denominators, a >= 0 and any b."""
    points = draw(st.lists(st.fractions(-4, 4, max_denominator=9), max_size=8, unique=True))
    masses = [draw(EIGHTHS) for _ in points]
    a = draw(st.fractions(0, 2, max_denominator=5))
    b = draw(st.fractions(-2, 2, max_denominator=7))
    return NevanlinnaData(a, b, DiscreteMeasure(points, masses))


@settings(max_examples=20)
@given(symmetric_measures())
def test_row_peel_completion_is_sympys_bezout_completion(tau):
    E = theta_to_e(cayley_q_to_theta(q_from_measure(NevanlinnaData(0, 0, tau))))
    A, B = ab_split(E / ab_split(E)[1](0))
    H = factorize_row(A, B)
    top = fundamental_solution(H, H.total_length).entries[0]
    s, t, h = _to_sympy(B).gcdex(_to_sympy(A))
    assert _from_sympy(h) == Polynomial.one()
    assert top == (_from_sympy(s), -_from_sympy(t))


@settings(max_examples=20)
@given(nevanlinna_data())
def test_q_from_measure_is_sympys_cancelled_sum(d):
    gammas = [_rational(g) for g in d.measure.points]
    masses = [_rational(m.as_fraction()) for m in d.measure.masses]
    Q = _rational(d.a) * z + _rational(d.b) + sum(
        (m * (1 / (g - z) - g / (1 + g * g)) for g, m in zip(gammas, masses)), sympy.Integer(0))
    num, den = (sympy.Poly(p, z, domain="QQ") for p in sympy.fraction(sympy.cancel(Q)))
    lead = den.LC()
    got = q_from_measure(d)
    assert got.num == _from_sympy(num.quo_ground(lead))
    assert got.den == _from_sympy(den.quo_ground(lead))
