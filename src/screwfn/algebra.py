"""Polynomial, rational-function and 2x2 matrix-polynomial arithmetic.

Coefficients are exact rationals (exact mode), PiScalar (pi-graded exact
mode) or plain complex (float mode); the mode is inferred on construction
and mixed inputs degrade exactly once, never silently per-operation.  The
scalar type of exact mode is chosen per polynomial, not per coefficient:
every coefficient is a Fraction when all of them are real, and every one is
an ExactComplex when one is not.  So ``is_real`` reads the stored type, and
code may read ``re`` and ``im`` off each coefficient of a nonreal exact
polynomial (perfbench's frames workload does, on E).  Zero padding past the
top coefficient is the integer 0, which every scalar type absorbs.  Floats
are used only to locate zeros: companion-matrix eigenvalues polished by
Newton iteration, on coefficients converted to complex once per call.
``real_zeros`` is the one routine for real, simple zeros:
it returns exact Fractions where ``rational_roots`` finds them and floats for
the rest, and it is where float input skips the exact extraction.  Two
degradations of ``rational_roots`` are not flagged at run time, so they are
stated here: real float or pi-graded input raises an AttributeError naming
``'re'`` rather than returning no roots, and a polynomial whose integer end
coefficient exceeds 10^12 gets no search, so its rational zeros reach
``real_zeros`` callers as floats.
``ab_split`` reads A and B off the real and imaginary parts of each
coefficient, with no division.  ``hb_test`` locates no zero: it reads a
Cauchy index off the primitive remainder sequence of A and B in integers
(Brown & Traub, J. ACM 18, 1971), whose degrees and leading signs are those
of the signed remainder sequence over the field.  ``_divmod_lists`` is the
one long division, for any field scalar and, dividing exactly, integers.
``_signed_remainders`` is the one field Euclid: ``Polynomial.gcd`` reads
its last term, canonical.bezout_complete and classical.stieltjes_string its
quotients.  ``solve_exact`` is fraction-free: it clears each row to
integers, eliminates in integers with one gcd per updated row, and forms
one Fraction per unknown at the end.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .exact import ExactComplex, PiScalar, is_real

__all__ = [
    "Polynomial",
    "RationalFunction",
    "MatrixPolynomial",
    "effective_degree",
    "sharp",
    "ab_split",
    "roots",
    "rational_roots",
    "real_zeros",
    "hb_test",
    "solve_exact",
]


# The mode of a coefficient list all of one of these types, which is stored unconverted.
_MODE_OF = {Fraction: "exact", complex: "float", PiScalar: "pi"}


def _promote(coeffs):
    """Normalize a coefficient list to a single scalar mode and, in exact mode, type."""
    cs = list(coeffs)
    kinds = set(map(type, cs))
    if len(kinds) == 1 and (mode := _MODE_OF.get(*kinds)):
        return cs, mode
    if any(isinstance(c, (float, complex)) for c in cs):
        return [complex(c) for c in cs], "float"
    if any(isinstance(c, PiScalar) for c in cs):
        return [PiScalar.coerce(c) for c in cs], "pi"
    if any(isinstance(c, ExactComplex) and not c.is_real() for c in cs):
        return [ExactComplex.coerce(c) for c in cs], "exact"
    return [c if isinstance(c, Fraction) else c.real if isinstance(c, ExactComplex) else Fraction(c)
            for c in cs], "exact"


class Polynomial:
    """Polynomial stored by ascending-degree coefficients, trailing zeros stripped."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs=()):
        cs, mode = _promote(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def monomial(k: int, coeff=1) -> "Polynomial":
        return Polynomial((0,) * k + (coeff,))

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, _as_poly(other).coeffs
        a, b = a + (0,) * (len(b) - len(a)), b + (0,) * (len(a) - len(b))
        return Polynomial([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return Polynomial([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        return Polynomial([c / scalar for c in self.coeffs])

    def __pow__(self, n: int):
        out, base = Polynomial.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation; exact when coefficients and z are exact."""
        if isinstance(z, (float, complex)) or self.mode == "float":
            zc = complex(z)
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * zc + complex(c)
            return acc
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        return Polynomial([0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def integrate(self, a, b):
        """Definite integral over [a, b]; exact for exact bounds."""
        F = self.antiderivative()
        return F(b) - F(a)

    # -- transforms ----------------------------------------------------------------

    def reflect(self) -> "Polynomial":
        """p(-z)."""
        return Polynomial([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    def is_even(self) -> bool:
        return self.reflect() == self

    def is_odd(self) -> bool:
        return self.reflect() == -self

    def is_real(self) -> bool:
        if self.mode == "exact":
            return not self.coeffs or not isinstance(self.coeffs[0], ExactComplex)
        if self.mode == "float":
            return all(c.imag == 0 for c in self.coeffs)
        return all(c.is_real() for c in self.coeffs)

    def even_part_coeffs(self) -> "Polynomial":
        """q with p(z) = q(z^2) + z*r(z^2); returns q."""
        return Polynomial(self.coeffs[0::2])

    def odd_part_coeffs(self) -> "Polynomial":
        """r with p(z) = q(z^2) + z*r(z^2); returns r."""
        return Polynomial(self.coeffs[1::2])

    # -- division (field coefficients) ------------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.mode == "pi" or other.mode == "pi":
            raise TypeError("division not supported for pi-graded coefficients")
        quot, rem = _divmod_lists(self.coeffs, other.coeffs)
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self / self.leading()

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd over the exact complex rationals: the last signed remainder."""
        return Polynomial(_signed_remainders(self.coeffs, other.coeffs)[0][-1]).monic()

    # -- display -------------------------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append(f"({cs})*z")
            else:
                terms.append(f"({cs})*z^{k}")
        return " + ".join(terms)


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    return Polynomial([x])


def _divmod_lists(f, g, div=operator.truediv) -> tuple[list, list]:
    """Quotient and remainder of ascending coefficient lists, g nonzero.

    Any field scalar will do with the default ``div``; integer lists whose
    quotient is known to be integral divide by ``operator.floordiv``.  The
    lists carry no trailing zeros, and the empty list is the zero polynomial.
    """
    rem, dg = list(f), len(g) - 1
    quot = [0] * max(len(rem) - dg, 0)
    while len(rem) > dg:
        c, k = div(rem[-1], g[-1]), len(rem) - 1 - dg
        quot[k] = c
        for j in range(dg):
            rem[k + j] -= c * g[j]
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    return quot, rem


def _signed_remainders(f: list, g: list) -> tuple[list, list]:
    """The one field Euclid: the signed remainder sequence of f by g and its quotients.

    Returns (terms, quots): the terms t_0 = f, t_1 = g, t_2 = -(f mod g), ...
    down to the last nonzero term t_m, and the quotients q_1, ..., q_m with
    t_(k-1) = q_k t_k - t_(k+1), t_(m+1) = 0.  Lists as in _divmod_lists.
    """
    terms, quots = [f], []
    while g:
        q, r = _divmod_lists(terms[-1], g)
        terms.append(g)
        quots.append(q)
        g = [-c for c in r]
    return terms, quots


def _primitive_remainders(f: list[int], g: list[int]):
    """_signed_remainders' terms for integer lists, deg f >= deg g, each a positive multiple.

    The primitive polynomial remainder sequence (Brown & Traub, J. ACM 18,
    1971): |lc g|^(d+1) f, d = deg f - deg g, divides by g exactly in
    integers, and the negated remainder is divided by its positive content.
    Both factors are positive, so every term has the degree and the leading
    sign of the field sequence's term.
    """
    yield f
    while g:
        yield g
        scale = abs(g[-1]) ** (len(f) - len(g) + 1)
        r = _divmod_lists([c * scale for c in f], g, operator.floordiv)[1]
        content = math.gcd(*r)
        f, g = g, [-c // content for c in r]


def effective_degree(p: Polynomial, rel: float) -> int:
    """Degree of p; for float coefficients, ignoring leading ones below rel * max|c|."""
    if p.mode != "float":
        return p.degree
    if p.is_zero():
        return -1
    scale = max(abs(complex(c)) for c in p.coeffs)
    deg = p.degree
    while deg >= 0 and abs(complex(p.coeffs[deg])) <= rel * scale:
        deg -= 1
    return deg


def sharp(p: Polynomial) -> Polynomial:
    """p#(z) = conj(p(conj z)): coefficient-wise conjugation."""
    return Polynomial([c.conjugate() for c in p.coeffs])


def ab_split(E: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Split E = A - iB into the real polynomials A = (E+E#)/2 and B = i(E-E#)/2.

    Read off each coefficient c rather than divided out: A_k = Re c and
    B_k = -Im c = (c - Re c) i, in the numeric protocol of ``exact``, so one
    path serves exact, pi-graded and float coefficients.  A float c gives a
    B_k with imaginary part +0.0.
    """
    i = ExactComplex(0, 1)
    return (Polynomial([c.real for c in E.coeffs]),
            Polynomial([(c - c.real) * i for c in E.coeffs]))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

# Newton polish stops, and roots() accepts a zero, once |p(a)| <= this * max|c|.
_POLISH_TOL = 1e-12


def roots(p: Polynomial) -> list[complex]:
    """All roots with multiplicity: companion-matrix eigenvalues + Newton polish.

    p and its exact derivative are converted to complex once, and both
    ``np.roots`` and the Newton steps read those floats; raises RuntimeError
    where a polished zero leaves |p| >= _POLISH_TOL * max|c|.
    """
    if p.degree < 1:
        raise ValueError("no roots: polynomial must have degree >= 1")
    dp = Polynomial([complex(c) for c in p.derivative().coeffs])
    p = Polynomial([complex(c) for c in p.coeffs])
    raw = np.roots(np.array(p.coeffs[::-1]))
    scale = max(abs(c) for c in p.coeffs)
    polished = []
    for a in raw:
        a = complex(a)
        for _ in range(60):
            fa = p(a)
            if abs(fa) <= 0.5 * _POLISH_TOL * scale:
                break
            da = dp(a)
            if da == 0:
                break
            step = fa / da
            a -= step
            if abs(step) < 1e-17 * max(1.0, abs(a)):
                break
        polished.append(a)
    bad = [a for a in polished if abs(p(a)) >= _POLISH_TOL * scale]
    if bad:
        raise RuntimeError(f"root polishing failed to reach residual {_POLISH_TOL}: {bad}")
    return polished


def rational_roots(p: Polynomial) -> tuple[list[Fraction], Polynomial]:
    """Exact rational roots (with multiplicity) of a real-rational polynomial.

    Returns (roots, remainder) with p = remainder * prod(z - r).  Nonreal
    input comes back whole: ([], p).  Real float (or pi-graded) input raises
    AttributeError ("... has no attribute 're'") unless it is c*z^k, since
    its coefficients have no rational part; ``real_zeros`` skips this call
    for float input.

    After z^k, each step tries the reduced p/q with p | a_0 and q | a_n of
    the integer-scaled remainder, in the order of increasing p, then q, then
    +p before -p, by the integer sum of a_k p^k q^(n-k) (the rational root
    test), and deflates the integer polynomial by (qz - p), exactly by
    Gauss's lemma.  The search stops once |a_0| or |a_n| of the remainder,
    scaled by the lcm of its denominators, exceeds 10^12: rational zeros
    beyond that cap stay in the remainder, with no notice, and ``real_zeros``
    returns them as floats.
    """
    if p.is_zero() or not p.is_real():
        return [], p
    found: list[Fraction] = []
    cur = p
    # factor out z^k
    while not cur.is_zero() and not cur.coeffs[0]:
        found.append(Fraction(0))
        cur = Polynomial(cur.coeffs[1:])
    if cur.degree < 1:
        return found, cur
    if cur.mode != "exact":
        raise AttributeError(f"'{type(cur.coeffs[0]).__name__}' object has no attribute 're'")
    lead = cur.coeffs[-1]
    ints = _integer_row(cur.coeffs)  # primitive, and so is each quotient (Gauss's lemma)
    while len(ints) > 1:
        # the remainder is ints * (lead / ints[-1]); clearing its denominators gives mult * ints
        mult = abs((lead / ints[-1]).numerator)
        if mult * max(abs(ints[0]), abs(ints[-1])) > 10**12:
            break
        hit = _first_rational_root(ints)
        if hit is None:
            break
        found.append(hit)
        ints = _deflate(ints, hit.numerator, hit.denominator)
    return found, Polynomial([c * (lead / ints[-1]) for c in ints])


def _first_rational_root(a: list[int]) -> Fraction | None:
    """The first reduced p/q in rational_roots' order with a(p/q) = 0, or None."""
    dens = _divisors(abs(a[-1]))
    for num in _divisors(abs(a[0])):
        for den in dens:
            if math.gcd(num, den) == 1:
                for sgn in (num, -num):
                    if not _homogeneous_value(a, sgn, den):
                        return Fraction(sgn, den)
    return None


def _homogeneous_value(a: list[int], num: int, den: int) -> int:
    """sum a_k num^k den^(n-k): den^n a(num/den), in integers."""
    acc, dpow = 0, 1
    for c in reversed(a):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


def _deflate(a: list[int], num: int, den: int) -> list[int]:
    """The integer quotient a / (den z - num), for a zero num/den of a with gcd(num, den) = 1."""
    out = [0] * (len(a) - 1)
    carry = 0
    for k in range(len(a) - 1, 0, -1):
        carry = (a[k] + num * carry) // den
        out[k - 1] = carry
    return out


def real_zeros(p: Polynomial) -> list:
    """The zeros of p sorted by value, all real and simple.

    Zeros that rational_roots finds are exact Fractions, the rest are floats
    from roots(); float input skips the exact extraction.  Raises ValueError
    on a nonreal zero (not exact.is_real) or a repeated one (equal values, or
    floats closer than 1e-8).
    """
    rats, rest = ([], p) if p.mode == "float" else rational_roots(p)
    zs: list = list(rats)
    if rest.degree >= 1:
        for r in roots(rest):
            if not is_real(r):
                raise ValueError(f"nonreal zero at {r}")
            zs.append(r.real)
    zs.sort()
    for a, b in zip(zs, zs[1:]):
        exact = isinstance(a, Fraction) and isinstance(b, Fraction)
        if a == b or (not exact and b - a < 1e-8):
            raise ValueError(f"repeated zero at {a}")
    return zs


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def hb_test(E: Polynomial) -> bool:
    """True iff every zero of E lies in the open lower half-plane; exact, no root finding.

    With E = A - iB, let f0 be whichever of A, B has the higher degree (A on a
    tie).  By the Hermite-Biehler theorem E is HB exactly when the Cauchy index
    of the other over f0 is -deg E for f0 = A and +deg E for f0 = B.  The index
    V(-inf) - V(+inf) of the signed remainder sequence sums, over each pair of
    neighbours whose degrees differ by an odd number, +1 where their leading
    coefficients agree in sign and -1 where they do not (Gantmacher, The Theory
    of Matrices vol. 2, ch. XV).  Only those degrees and signs are read, so the
    sequence runs as the primitive remainder sequence of A and B cleared to
    primitive integer lists (Brown & Traub, J. ACM 18, 1971): no field
    division, exact for exact and for float coefficients alike.
    """
    if E.degree < 1:
        raise ValueError("hb_test requires degree >= 1")
    return _hb_test_split(*ab_split(E))


def _hb_test_split(A: Polynomial, B: Polynomial) -> bool:
    """hb_test on the split A, B of E, whose degree is max(deg A, deg B)."""
    a, b = (_integer_row([c.real for c in P.coeffs]) for P in (A, B))
    if not a or not b:
        return False
    f0, f1, target = (a, b, 1 - len(a)) if len(a) >= len(b) else (b, a, len(b) - 1)
    seq = list(_primitive_remainders(f0, f1))
    index = sum(1 if (f[-1] > 0) == (g[-1] > 0) else -1
                for f, g in zip(seq, seq[1:]) if (len(f) - len(g)) % 2)
    return index == target


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Reduced num/den.  Exact mode keeps den monic after gcd reduction."""

    __slots__ = ("num", "den", "mode")

    def __init__(self, num, den=Polynomial((1,)), reduce: bool = True):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        mode = "float" if "float" in (num.mode, den.mode) else "exact"
        if mode == "exact" and reduce:
            g = num.gcd(den)
            if not g.is_zero() and g.degree >= 1:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            num, den = num / lead, den / lead
        elif mode == "float":
            lead = den.leading()
            num, den = num / lead, den / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _binop(self, other, f):
        other = other if isinstance(other, RationalFunction) else RationalFunction(_as_poly(other))
        return f(other)

    def __add__(self, other):
        return self._binop(
            other,
            lambda o: RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self._binop(other, lambda o: self + (-o))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._binop(other, lambda o: RationalFunction(self.num * o.num, self.den * o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, RationalFunction) else RationalFunction(_as_poly(other))
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_real(self) -> bool:
        return self.num.is_real() and self.den.is_real()

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({self.num}) / ({self.den})"


# ---------------------------------------------------------------------------
# 2x2 matrix polynomials
# ---------------------------------------------------------------------------

class MatrixPolynomial:
    """2x2 matrix with Polynomial entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(_as_poly(e) for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 entry array")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("MatrixPolynomial is immutable")

    @staticmethod
    def identity() -> "MatrixPolynomial":
        return MatrixPolynomial([[Polynomial.one(), Polynomial.zero()],
                                 [Polynomial.zero(), Polynomial.one()]])

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    @property
    def degree(self) -> int:
        return max(e.degree for row in self.entries for e in row)

    def __mul__(self, other):
        if isinstance(other, MatrixPolynomial):
            a, b = self.entries, other.entries
            return MatrixPolynomial(
                [
                    [
                        a[i][0] * b[0][j] + a[i][1] * b[1][j]
                        for j in range(2)
                    ]
                    for i in range(2)
                ]
            )
        return MatrixPolynomial([[e * other for e in row] for row in self.entries])

    __rmul__ = __mul__

    def __add__(self, other):
        return MatrixPolynomial(
            [[self.entries[i][j] + other.entries[i][j] for j in range(2)] for i in range(2)]
        )

    def __sub__(self, other):
        return MatrixPolynomial(
            [[self.entries[i][j] - other.entries[i][j] for j in range(2)] for i in range(2)]
        )

    def det(self) -> Polynomial:
        a, b = self.entries[0]
        c, d = self.entries[1]
        return a * d - b * c

    def __call__(self, z):
        return [[e(z) for e in row] for row in self.entries]

    def coeff_matrix(self, k: int):
        """2x2 scalar matrix of the z^k coefficients."""
        return [[self.entries[i][j].coeff(k) for j in range(2)] for i in range(2)]

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"MatrixPolynomial({[[str(e) for e in row] for row in self.entries]})"


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _integer_row(row) -> list[int]:
    """A rational row times the lcm of its denominators, divided by its content."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    scale = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve an (possibly overdetermined) rational linear system exactly.

    Returns (solution, status) with status one of "unique", "inconsistent",
    "underdetermined"; solution is None unless status == "unique".

    Fraction-free Gauss-Jordan: each row of [A | b] is cleared to integers.
    The pivot row, with entry p in column col, clears col from every other
    row as p*row - a*pivot_row, and that row is divided by its content, one
    gcd per row.  A unique solution leaves row i with its pivot p_i as its
    only nonzero entry in A, so x = b_i / p_i is the one Fraction formed per
    unknown.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    aug = [_integer_row([*row, rhs[i]]) for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        prow, p = aug[r], aug[r][col]
        for i in range(m):
            a = aug[i][col]
            if i != r and a:
                new = [p * x - a * y for x, y in zip(aug[i], prow)]
                g = math.gcd(*new)
                aug[i] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return None, "inconsistent"
    if len(pivots) < n:
        return None, "underdetermined"
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = Fraction(aug[i][n], aug[i][col])
    return sol, "unique"
