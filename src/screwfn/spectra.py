"""Discrete measures, Nevanlinna functions and meromorphic inner functions.

The correspondence chain implemented here, for rational data:

    measure tau  <-->  Q(z) = a z + b + sum m*(1/(g-z) - g/(1+g^2))
    Q  <-->  Theta = (i-Q)/(i+Q)          (Cayley pair)
    Theta = E#/E with E Hermite-Biehler   (when Theta is rational inner)
    level set {A=0} with masses 2*pi/|Theta'|, and tau = mu/pi.

The scalar type follows each point, in measure_from_q as in
level_set_masses: a rational pole or zero (of exact input) is a Fraction
with an exact pi-rational mass, an irrational one is a float with a float
mass, and one measure may hold both.  Both find their points with
algebra.real_zeros.  Nothing is sampled: algebra.hb_test certifies E
exactly, and measure_from_q certifies Q as Herglotz term by term in its own
representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Polynomial,
    RationalFunction,
    _cleared,
    _hb_test_split,
    _integer_from_roots,
    ab_split,
    hb_test,
    real_zeros,
    sharp,
)
from .exact import PI, I, ExactComplex, PiScalar, is_real

__all__ = [
    "DiscreteMeasure",
    "NevanlinnaData",
    "q_from_measure",
    "measure_from_q",
    "cayley_q_to_theta",
    "cayley_theta_to_q",
    "theta_to_e",
    "level_set_masses",
    "tau_from_mu",
]


class DiscreteMeasure:
    """Finitely many support points with positive masses.

    Points are Fractions within float range (exact) or finite floats, and
    masses are PiScalars (exact, possibly pi-graded) or floats with a
    finite float value, so that every float view converts them.  Points are
    stored in increasing exact value.  Two Fraction points are distinct when
    unequal; a pair with a float point, when their floats differ.
    """

    __slots__ = ("points", "masses", "is_exact")

    def __init__(self, points, masses):
        pts = list(points)
        ms = list(masses)
        if len(pts) != len(ms):
            raise ValueError("points and masses must have equal length")
        pairs = []
        for p, m in zip(pts, ms):
            if isinstance(p, int):
                p = Fraction(p)
            if not isinstance(p, (Fraction, float)):
                raise TypeError(f"unsupported point type {type(p).__name__}")
            if isinstance(p, float) and not math.isfinite(p):
                raise ValueError(f"support point {p} is not finite")
            if isinstance(p, Fraction):
                try:
                    float(p)  # every float view converts the point
                except OverflowError:
                    raise ValueError(f"support point {p} is beyond float range") from None
            if isinstance(m, (int, Fraction, ExactComplex)):
                m = PiScalar.coerce(m)
            if not isinstance(m, (PiScalar, float)):
                raise TypeError(f"unsupported mass type {type(m).__name__}")
            if isinstance(m, PiScalar) and not m.is_real() or not m > 0:
                raise ValueError("masses must be positive")
            try:
                finite = math.isfinite(float(m))  # every float view converts the mass
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"mass {m} is beyond float range")
            pairs.append((p, m))
        pairs.sort(key=lambda pm: pm[0])  # Fraction and float compare exactly
        for (p1, _), (p2, _) in zip(pairs, pairs[1:]):
            both_exact = isinstance(p1, Fraction) and isinstance(p2, Fraction)
            if p1 == p2 or (not both_exact and float(p1) == float(p2)):
                raise ValueError("support points must be distinct")
        object.__setattr__(self, "points", tuple(p for p, _ in pairs))
        object.__setattr__(self, "masses", tuple(m for _, m in pairs))
        object.__setattr__(self, "is_exact", all(
            isinstance(p, Fraction) and isinstance(m, PiScalar) for p, m in pairs))

    def __setattr__(self, *a):
        raise AttributeError("DiscreteMeasure is immutable")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.masses))

    def float_points(self) -> list[float]:
        return [float(p) for p in self.points]

    def float_masses(self) -> list[float]:
        return [float(m) for m in self.masses]

    def mass_at(self, point):
        """The mass at point, which must be the stored point's scalar type.

        The lookup is ``==``, so a float key finds a dyadic Fraction point
        but not Fraction(1, 3).
        """
        for p, m in self:
            if p == point:
                return m
        raise KeyError(f"no mass at {point}")

    def scale(self, factor) -> "DiscreteMeasure":
        return DiscreteMeasure(self.points, [m * factor for m in self.masses])

    def total_mass(self):
        if not self.masses:
            return PiScalar(0)
        acc = self.masses[0]
        for m in self.masses[1:]:
            acc = acc + m
        return acc

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.points == other.points and self.masses == other.masses

    def __hash__(self):
        # Points only: equal measures have equal points, and a Fraction and
        # a float point hash alike when equal.  The masses are left out
        # because a pi-graded PiScalar can equal a float without hashing
        # like it.
        return hash(self.points)

    def __repr__(self):
        body = ", ".join(f"{p}: {m}" for p, m in self)
        return f"DiscreteMeasure({{{body}}})"


@dataclass(frozen=True)
class NevanlinnaData:
    """Herglotz representation data: Q(z) = a z + b + integral term over the measure."""

    a: Fraction | float
    b: Fraction | float
    measure: DiscreteMeasure

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("linear coefficient a must be nonnegative")


def q_from_measure(d: NevanlinnaData) -> RationalFunction:
    """Assemble Q(z) = a z + b + sum m*(1/(g-z) - g/(1+g^2)) exactly, as N/D.

    The shifts fold into one constant b' = b - sum m g/(1+g^2), and with
    D = prod (z - g_k) the sum is N/D where

        N = (a z + b') D - sum m_k D/(z - g_k).

    It runs in integers.  With g_k = p_k/q_k in lowest terms,
    D~ = prod (q_k z - p_k) = D prod q_k is one running product, and each
    S_k = D~/(q_k z - p_k) = (D/(z - g_k)) prod q_k / q_k one synthetic
    division from the top down, exact since the divisor divides D~.  Over
    the common denominator M of a, b' and the m_k q_k (a = A/M, b' = B/M,
    m_k q_k = W_k/M), N M prod q_k = (A z + B) D~ - sum W_k S_k, and one
    Fraction is formed per coefficient.  N/D needs no gcd: at each pole
    N(g_k) = -m_k D'(g_k), which is nonzero because the points are distinct
    (D' has no zero among them) and the masses positive.  So N and D share
    no zero, and with D monic, N/D is already the canonical form
    RationalFunction reduces to.
    """
    if not d.measure.is_exact:
        raise TypeError("q_from_measure requires an exact measure")
    pts = d.measure.points
    ms = [m.as_fraction() for m in d.measure.masses]
    a = Fraction(d.a)
    b = Fraction(d.b) - sum(m * g / (1 + g * g) for g, m in zip(pts, ms))
    den, scale = _integer_from_roots(pts)  # ascending D~, and prod q_k
    ints, common = _cleared([a, b, *(m * g.denominator for g, m in zip(pts, ms))])
    num = [ints[1] * lo + ints[0] * hi for lo, hi in zip(den + [0], [0] + den)]
    for g, w in zip(pts, ints[2:]):
        p, q = g.numerator, g.denominator
        quot = den[1:]  # S = D~/(q z - p), from the top degree down
        quot[-1] //= q
        for k in range(len(quot) - 2, -1, -1):
            quot[k] = (quot[k] + p * quot[k + 1]) // q
        for k, c in enumerate(quot):
            num[k] -= w * c
    total = common * scale
    return RationalFunction(Polynomial([Fraction(c, total) for c in num]),
                            Polynomial([Fraction(c, scale) for c in den]), reduce=False)


def measure_from_q(Q: RationalFunction) -> NevanlinnaData:
    """Invert the Herglotz representation of a real rational Q with simple real poles.

    Masses are minus the residues; a is the degree-excess slope; b = Re Q(i).
    Each pole and its mass are exact when the pole is rational and Q exact,
    floating point otherwise.  The checks are the Herglotz certificate: a
    real Q of at most linear growth with real simple poles, positive masses
    and a >= 0 is a z + b + sum m/(g - z), Herglotz term by term.
    """
    num, den = Q.num, Q.den
    if not Q.is_real():
        raise ValueError("not Herglotz: Q is not real")
    if num.degree > den.degree + 1:
        raise ValueError("not Herglotz: growth exceeds a linear term")
    try:
        poles = real_zeros(den)
    except ValueError as exc:
        raise ValueError(f"not Herglotz: {exc}") from exc
    dden = den.derivative()
    ms = []
    for g in poles:
        mass = -num(g) / dden(g)
        if not is_real(mass) or not mass.real > 0:
            raise ValueError(f"not Herglotz: extracted mass {mass} at {g} not positive")
        ms.append(mass.real)
    a = num.coeff(den.degree + 1) / den.leading()
    if not is_real(a) or a.real < 0:
        raise ValueError("not Herglotz: leading behavior not a nonnegative real slope")
    data = NevanlinnaData(a.real, Q(I).real, DiscreteMeasure(poles, ms))
    if data.measure.is_exact and q_from_measure(data) != Q:
        raise ValueError("not Herglotz: representation does not reconstruct Q")
    return data


def cayley_q_to_theta(Q: RationalFunction) -> RationalFunction:
    """Theta = (i - Q)/(i + Q)."""
    num = Q.den * I - Q.num
    den = Q.den * I + Q.num
    if den.is_zero():
        raise ZeroDivisionError("degenerate Cayley transform: i + Q vanishes identically")
    return RationalFunction(num, den)


def cayley_theta_to_q(theta: RationalFunction) -> RationalFunction:
    """Q = i (1 - Theta)/(1 + Theta)."""
    num = (theta.den - theta.num) * I
    den = theta.den + theta.num
    if den.is_zero():
        raise ZeroDivisionError("degenerate Cayley transform: 1 + Theta vanishes identically")
    return RationalFunction(num, den)


def theta_to_e(theta: RationalFunction) -> Polynomial:
    """Recover E with Theta = E#/E exactly, E in the Hermite-Biehler class.

    The stored denominator is monic, so the numerator equals sharp(den) only
    up to a unimodular constant c; the returned E is a unimodular multiple of
    the denominator chosen so the identity holds with no constant at all.
    """
    if theta.mode != "exact":
        raise TypeError("theta_to_e requires exact coefficients")
    num, den = theta.num, theta.den
    if den.degree == 0:
        if num.degree != 0:
            raise ValueError("not inner of HB form: degree mismatch")
        c = num.leading() / den.leading()
        if c * c.conjugate() != 1:
            raise ValueError("not inner of HB form: constant not unimodular")
        return Polynomial.one()
    if num.degree != den.degree:
        raise ValueError("not inner of HB form: degree mismatch")
    if not hb_test(den):
        raise ValueError("denominator not Hermite-Biehler")
    ds = sharp(den)
    c = num.leading() / ds.leading()
    if num != ds * c:
        raise ValueError("not inner of HB form: numerator is not unimodular * sharp(denominator)")
    if c * c.conjugate() != 1:
        raise ValueError("not inner of HB form: constant not unimodular")
    if c == -1:
        return den * I
    return den * (1 + c.conjugate()) / (1 + c.real)


def level_set_masses(E: Polynomial) -> DiscreteMeasure:
    """Masses 2*pi/|Theta'(g)| = pi*|B(g)/A'(g)| on the level set {A = 0}.

    Rational zeros of A get exact pi-rational masses; the rest are floats.
    """
    return _level_set(*ab_split(E))


def _level_set(A: Polynomial, B: Polynomial) -> DiscreteMeasure:
    """level_set_masses from the split E = A - iB, which certifies E as Hermite-Biehler."""
    if max(A.degree, B.degree) < 1:
        raise ValueError("level_set_masses requires degree >= 1")
    if not _hb_test_split(A, B):
        raise ValueError("E is not in the Hermite-Biehler class")
    pts = real_zeros(A)
    ratios = zip(B.values(pts), A.derivative().values(pts))
    return DiscreteMeasure(pts, [PI * abs((b / da).real) for b, da in ratios])


def tau_from_mu(mu: DiscreteMeasure) -> DiscreteMeasure:
    """tau = mu / pi."""
    return DiscreteMeasure(mu.points, [m / PI for m in mu.masses])
