"""Transfer matrices, their rank-one factorization and canonical systems.

A J-inner transfer matrix W(z) = [[A,B],[C,D]] of real polynomials with
W(0) = I, det W = 1 factors as a product of elementary factors I - z M_k J
with M_k real symmetric PSD of rank one (Potapov; de Branges, Hilbert Spaces
of Entire Functions).  Peeling the factors off the right (using (MJ)^2 = 0,
so (I - zMJ)^{-1} is I + zMJ) yields the step Hamiltonian whose fundamental
solution restores W exactly: segment k has length alpha_k + gamma_k and
direction given by the normalized projector M_k/(alpha_k + gamma_k).

The peel is also the J-inner certificate: a product of PSD elementary
factors is J-inner and the factorization is unique, so W is J-inner exactly
when the peel reaches I with every factor PSD.  All of it is exact rational
arithmetic; nothing is sampled.  bezout_complete builds the top row of W
from the quotients of algebra's one field Euclid.

The chain is carried as integer rows: a row (p, q) of W is two lists of
integer coefficients over one positive common denominator den, shared by the
rows carried together.  One segment step advances the rows by I + zX for a
rational 2x2 X (for a segment I - z*delta*P*J, X = -delta*P*J; for a peel
I + zMJ, X = MJ): with X = Y/e in integers, the new coefficients are
e*p[k] + Y00*p[k-1] + Y10*q[k-1] and e*q[k] + Y01*p[k-1] + Y11*q[k-1] over
den*e, and all of them and den*e are divided by their gcd once per step.
fundamental_solution, subspace_chain, solution_rows_affine and the peel all
take this step, carrying only the rows they return.  The Weyl layer reads
the integer rows of solution_rows_affine too, through _affine_rows, and
builds a segment's row Polynomials only where it integrates against them.
A Fraction(c, den) is in lowest terms whatever den is, so the Polynomials
built from the rows hold, coefficient for coefficient, the Fractions that
the products of the segment factors in Fraction arithmetic would.  The peel
converts W once, and checks det W = 1 as the integer identity
a*d - b*c = den^2.  Its linear system for the factor goes to solve_exact,
which eliminates in integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .algebra import MatrixPolynomial, Polynomial, _signed_remainders, solve_exact
from .exact import ExactComplex

__all__ = [
    "TransferMatrix",
    "ElementaryFactor",
    "Segment",
    "Hamiltonian",
    "ValidationReport",
    "validate_transfer",
    "bezout_complete",
    "peel_factor",
    "factorize",
    "fundamental_solution",
    "solution_rows_affine",
    "regular_points",
    "subspace_chain",
    "ChainEntry",
    "w0_matrix",
]


def w0_matrix() -> MatrixPolynomial:
    """The worked-example transfer matrix [[1-2z^2, 4z], [z^3-z, 1-2z^2]]."""
    return MatrixPolynomial(
        [
            [Polynomial([1, 0, -2]), Polynomial([0, 4])],
            [Polynomial([0, -1, 0, 1]), Polynomial([1, 0, -2])],
        ]
    )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]


def _int_rows(W: MatrixPolynomial):
    """W's rows as integer coefficient lists over one positive denominator.

    ValueError unless every coefficient is a real rational.
    """
    polys = [e for row in W.entries for e in row]
    if any(p.mode != "exact" for p in polys):
        raise ValueError("not factorable: coefficients are not exact rationals")
    if not all(p.is_real() for p in polys):
        raise ValueError("not factorable: matrix is not real")
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    rows = [
        tuple([c.numerator * (den // c.denominator) for c in e.coeffs] for e in row)
        for row in W.entries
    ]
    return rows, den


def _polys(row, den) -> tuple[Polynomial, ...]:
    return tuple(Polynomial([Fraction(c, den) for c in u]) for u in row)


def _coeff(u: list[int], k: int) -> int:
    return u[k] if k < len(u) else 0


def _degree(rows) -> int:
    return max(len(u) for row in rows for u in row) - 1


def _cleared(X):
    """(Y, e) with X = Y/e, Y an integer 2x2 matrix and e > 0, for a rational X."""
    e = math.lcm(*(x.denominator for r in X for x in r))
    return [[x.numerator * (e // x.denominator) for x in r] for r in X], e


def _z_times(row, Y):
    """z * (p, q) Y for an integer row (p, q) and an integer 2x2 Y."""
    (y00, y01), (y10, y11) = Y
    pairs = list(zip_longest(*row, fillvalue=0))
    return ([0] + [y00 * a + y10 * b for a, b in pairs],
            [0] + [y01 * a + y11 * b for a, b in pairs])


def _lin(s: int, row, t: int, zrow):
    """s * row + t * zrow, component by component."""
    return tuple(
        [s * a + t * b for a, b in zip_longest(u, v, fillvalue=0)] for u, v in zip(row, zrow)
    )


def _reduced(rows, den: int):
    """The rows and den divided by their common gcd, trailing zeros dropped."""
    g = math.gcd(den, *(c for row in rows for u in row for c in u))
    out = []
    for row in rows:
        new = []
        for u in row:
            if g > 1:
                u = [c // g for c in u]
            while u and not u[-1]:
                u.pop()
            new.append(u)
        out.append(tuple(new))
    return out, den // g


def _step(rows, den: int, X):
    """One segment step: integer rows (p, q) over den times I + zX, X a rational 2x2."""
    Y, e = _cleared(X)
    return _reduced([_lin(e, row, 1, _z_times(row, Y)) for row in rows], den * e)


def _segment_x(proj, delta):
    """X with I + zX = I - z*delta*P*J for the projector P = [[pa, pb], [pb, pc]]."""
    pa, pb, pc = proj
    return [[-delta * pb, delta * pa], [-delta * pc, delta * pb]]


def _det(rows) -> list[int]:
    """a*d - b*c of integer rows [(a, b), (c, d)], trailing zeros dropped."""
    (a, b), (c, d) = rows
    out = [0] * max(len(a) + len(d), len(b) + len(c))
    for u, v, sign in ((a, d, 1), (b, c, -1)):
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] += sign * x * y
    while out and not out[-1]:
        out.pop()
    return out


def _peel(rows, den: int):
    """Strip the rightmost elementary factor off integer rows.

    Returns (rows of V, its denominator, M) with W = V (I - zMJ), deg V = deg W - 1.
    """
    r = _degree(rows)
    if r < 1:
        raise ValueError("nothing to peel: degree must be >= 1")
    # both coefficient matrices carry the factor den, which the equations cancel
    Wr = [[_coeff(u, r) for u in row] for row in rows]
    Wr1 = [[_coeff(u, r - 1) for u in row] for row in rows]
    # unknowns (alpha, beta, gamma) through X = MJ = [[beta,-alpha],[gamma,-beta]]
    eqs, rhs = [], []
    for i in range(2):
        # (Wk * X)[i][0] = Wk[i][0]*beta + Wk[i][1]*gamma
        # (Wk * X)[i][1] = -Wk[i][0]*alpha - Wk[i][1]*beta
        eqs.append([0, Wr1[i][0], Wr1[i][1]])
        rhs.append(-Wr[i][0])
        eqs.append([-Wr1[i][0], -Wr1[i][1], 0])
        rhs.append(-Wr[i][1])
        eqs.append([0, Wr[i][0], Wr[i][1]])
        rhs.append(0)
        eqs.append([-Wr[i][0], -Wr[i][1], 0])
        rhs.append(0)
    sol, status = solve_exact(eqs, rhs)
    if status == "inconsistent":
        raise ValueError("not factorable: matrix is not of canonical-product form")
    if status == "underdetermined":
        raise ValueError("not factorable: ambiguous elementary factor")
    try:
        M = ElementaryFactor(*sol)
    except ValueError as exc:
        raise ValueError(f"not factorable: {exc}") from exc
    rows, den = _step(rows, den, M.matrix_j())  # V = W (I + zMJ)
    if _degree(rows) != r - 1:
        raise ValueError("not factorable: degree did not drop after peeling")
    return rows, den, M


def _peel_all(W: MatrixPolynomial) -> list[ElementaryFactor]:
    """W's PSD elementary factors, left to right; ValueError where W is not J-inner.

    W is converted to integer rows once.  Each peel keeps the value at
    z = 0, so for W(0) = I the constant left is I.
    """
    rows, den = _int_rows(W)
    failures = []
    if [_coeff(u, 0) for row in rows for u in row] != [den, 0, 0, den]:
        failures.append("W(0) != I")
    if _det(rows) != [den * den]:
        failures.append("det W != 1")
    if failures:
        raise ValueError("; ".join(failures))
    factors = []
    while _degree(rows) >= 1:
        rows, den, M = _peel(rows, den)
        factors.append(M)
    return factors[::-1]


def validate_transfer(W: MatrixPolynomial) -> ValidationReport:
    """Exact certificate: W(0) = I, det W = 1, and the rank-one peel down to I with PSD factors."""
    try:
        _peel_all(W)
    except ValueError as exc:
        return ValidationReport(False, (str(exc),))
    return ValidationReport(True, ())


@dataclass(frozen=True)
class TransferMatrix:
    """A validated J-inner matrix polynomial."""

    W: MatrixPolynomial

    @staticmethod
    def from_matrix(W: MatrixPolynomial) -> "TransferMatrix":
        report = validate_transfer(W)
        if not report.ok:
            raise ValueError("not a transfer matrix: " + "; ".join(report.failures))
        return TransferMatrix(W)


def bezout_complete(
    C: Polynomial, D: Polynomial, validate: bool = True
) -> tuple[Polynomial, Polynomial]:
    """Minimal-degree real (A, B) with A*D - B*C = 1 completing a transfer matrix.

    Requires C odd, D even (both real) and gcd(C, D) constant; the completed
    matrix [[A,B],[C,D]] must pass validate_transfer's exact J-inner check unless
    validate=False, which returns the bare extended-Euclid solution.  Pairs
    whose ratio D/C is not Herglotz have no J-inner completion at all, so the
    error is surfaced rather than searching the solution family.
    """
    if not (C.is_real() and C.is_odd()):
        raise ValueError("C must be a real odd polynomial")
    if not (D.is_real() and D.is_even()):
        raise ValueError("D must be a real even polynomial")
    # the Euclid's terms t_k = u_k D + v_k C: (u_k, v_k) by s_(k+1) = q_k s_k - s_(k-1)
    terms, quots = _signed_remainders(D.coeffs, C.coeffs)
    if len(terms[-1]) != 1:
        raise ValueError("C, D not coprime")
    prev, cur = (Polynomial.one(), Polynomial.zero()), (Polynomial.zero(), Polynomial.one())
    for q in map(Polynomial, quots[:-1]):
        prev, cur = cur, (q * cur[0] - prev[0], q * cur[1] - prev[1])
    u, v = cur if quots else prev  # already of minimal degree
    A, B = u / terms[-1][0], v / -terms[-1][0]
    check = A * D - B * C
    if check != Polynomial.one():
        raise ValueError("Bezout completion failed to satisfy A*D - B*C = 1")
    if C.degree >= 1 and not (A.degree < C.degree and B.degree < D.degree):
        raise ValueError("no minimal-degree completion exists")
    if validate:
        W = MatrixPolynomial([[A, B], [C, D]])
        report = validate_transfer(W)
        if not report.ok:
            raise ValueError("completion not J-inner: " + "; ".join(report.failures))
    return A, B


@dataclass(frozen=True)
class ElementaryFactor:
    """Real symmetric PSD rank-one matrix [[alpha, beta], [beta, gamma]]."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        if self.alpha < 0 or self.gamma < 0 or self.alpha * self.gamma != self.beta**2:
            raise ValueError("elementary factor must be PSD with zero determinant")
        if self.alpha == 0 and self.gamma == 0:
            raise ValueError("elementary factor must be nonzero")

    @property
    def trace(self) -> Fraction:
        return self.alpha + self.gamma

    def matrix_j(self):
        """M J as a rational 2x2 matrix, J = [[0,-1],[1,0]]."""
        return [[self.beta, -self.alpha], [self.gamma, -self.beta]]


def peel_factor(W: MatrixPolynomial) -> tuple[MatrixPolynomial, ElementaryFactor]:
    """Strip the rightmost elementary factor: W = V * (I - z M J), deg V = deg W - 1.

    Every coefficient of W must be a real rational.
    """
    rows, den, M = _peel(*_int_rows(W))
    return MatrixPolynomial([_polys(row, den) for row in rows]), M


@dataclass(frozen=True)
class Segment:
    """Indivisible interval: exact length and normalized rank-one direction."""

    length: Fraction
    proj: tuple[Fraction, Fraction, Fraction]  # (cos^2, cos*sin, sin^2)

    def __post_init__(self):
        pa, pb, pc = self.proj
        if self.length <= 0:
            raise ValueError("segment length must be positive")
        if pa + pc != 1 or pa < 0 or pc < 0 or pa * pc != pb**2:
            raise ValueError("segment direction must be a rank-one projector")

    @property
    def theta(self) -> float:
        pa, pb, pc = self.proj
        if pc == 0:
            return 0.0
        if pa == 0:
            return math.pi / 2
        t = math.atan2(math.sqrt(float(pc)), math.sqrt(float(pa)))
        return t if pb > 0 else math.pi - t

    def matrix(self):
        pa, pb, pc = self.proj
        return [[pa, pb], [pb, pc]]


class Hamiltonian:
    """Ordered list of indivisible segments with exact breakpoints."""

    __slots__ = ("segments", "breakpoints")

    def __init__(self, segments):
        segs = tuple(segments)
        for s1, s2 in zip(segs, segs[1:]):
            if s1.proj == s2.proj:
                raise ValueError("adjacent segments must have distinct types")
        bps = [Fraction(0)]
        for s in segs:
            bps.append(bps[-1] + s.length)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "breakpoints", tuple(bps))

    def __setattr__(self, *a):
        raise AttributeError("Hamiltonian is immutable")

    def __len__(self):
        return len(self.segments)

    @property
    def total_length(self) -> Fraction:
        return self.breakpoints[-1]

    def trace_integral(self) -> Fraction:
        """Integral of tr H; finite means limit circle at both endpoints."""
        return sum((s.length * (s.proj[0] + s.proj[2]) for s in self.segments), Fraction(0))

    def segment_at(self, t: Fraction) -> int:
        if not 0 <= t <= self.total_length:
            raise ValueError(f"t={t} outside [0, {self.total_length}]")
        for k in range(len(self.segments)):
            if t <= self.breakpoints[k + 1]:
                return k
        return len(self.segments) - 1

    def __eq__(self, other):
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def __repr__(self):
        body = ", ".join(f"({s.length}, theta={s.theta:.6g})" for s in self.segments)
        return f"Hamiltonian([{body}])"


def factorize(W: MatrixPolynomial) -> Hamiltonian:
    """Full rank-one factorization of a transfer matrix into its step Hamiltonian.

    The peel is the J-inner certificate, so W is checked once, as it is factored.
    """
    try:
        factors = _peel_all(W)
    except ValueError as exc:
        raise ValueError(f"not a transfer matrix: {exc}") from exc
    segments = []
    for M in factors:
        tr = M.trace
        segments.append(Segment(tr, (M.alpha / tr, M.beta / tr, M.gamma / tr)))
    return Hamiltonian(segments)


def _as_time(t) -> Fraction:
    if isinstance(t, Fraction):
        return t
    if isinstance(t, int):
        return Fraction(t)
    if isinstance(t, float):
        return Fraction(t)
    raise TypeError(f"unsupported time value {t!r}")


def fundamental_solution(H: Hamiltonian, t, z=None):
    """W(t, z) with W(0, z) = I; symbolic in z when z is None.

    Piecewise product of the segment factors, one segment step each on both
    integer rows; exact matrix polynomial for exact t, coefficient-wise.
    """
    tf = _as_time(t)
    if not 0 <= tf <= H.total_length:
        raise ValueError(f"t={t} outside [0, {H.total_length}]")
    rows, den = [([1], []), ([], [1])], 1
    for k, seg in enumerate(H.segments):
        lo, hi = H.breakpoints[k], H.breakpoints[k + 1]
        if tf <= lo:
            break
        rows, den = _step(rows, den, _segment_x(seg.proj, min(tf, hi) - lo))
    W = MatrixPolynomial([_polys(row, den) for row in rows])
    return W if z is None else W(z)


def _affine_rows(H: Hamiltonian, row: str = "bottom"):
    """Yield, per segment, (R0, den0, R1, den1): the affine row as integer rows.

    On segment k the row is R0/den0 + (t - t_{k-1}) * R1/den1, component by
    component, as in solution_rows_affine; den1 is den0 * e for the X = Y/e
    of the segment.  No integer list carries a trailing zero.
    """
    r, den = (([1], []) if row == "top" else ([], [1])), 1
    for seg in H.segments:
        Y, e = _cleared(_segment_x(seg.proj, 1))
        zr = _z_times(r, Y)
        for u in zr:
            while u and not u[-1]:
                u.pop()
        yield r, den, zr, den * e
        n, d = seg.length.numerator, seg.length.denominator
        (r,), den = _reduced([_lin(d * e, r, n, zr)], den * e * d)  # R0 + L_k * R1


def solution_rows_affine(H: Hamiltonian, row: str = "bottom"):
    """Per-segment affine representation of a solution row.

    Returns a list of ((R0_first, R0_second), (R1_first, R1_second)) with

        row(t, z) = R0(z) + (t - t_{k-1}) * R1(z)   on segment k,

    R0 the row of W(t_{k-1}, z) and R1 = -z * R0 * P_k J.  The bottom row is
    the (C, D) pair used by the worked example's Weyl transform; "top" gives
    (A, B), and any other row is a ValueError.  Only that row is carried, and
    the next R0 is R0 + L_k * R1.  These are the Polynomials of _affine_rows,
    which the Weyl layer reads as integers.
    """
    if row not in ("top", "bottom"):
        raise ValueError(f"row must be 'top' or 'bottom', not {row!r}")
    return [(_polys(r0, den0), _polys(r1, den1)) for r0, den0, r1, den1 in _affine_rows(H, row)]


def regular_points(H: Hamiltonian) -> list[Fraction]:
    """Segment breakpoints: the points not interior to an indivisible interval."""
    return list(H.breakpoints)


@dataclass(frozen=True)
class ChainEntry:
    t: Fraction
    E: Polynomial
    dim: int


def subspace_chain(H: Hamiltonian) -> list[ChainEntry]:
    """The de Branges subspace chain E(t, z) = C(t, z) - i D(t, z) at regular points.

    The bottom row (C, D) of W(t, z) is carried from one breakpoint to the
    next by one segment step, the product fundamental_solution forms at each t.
    """
    out = []
    r, den = ([], [1]), 1
    for k, t in enumerate(H.breakpoints):
        if k:
            seg = H.segments[k - 1]
            (r,), den = _step([r], den, _segment_x(seg.proj, seg.length))
        E = Polynomial([
            ExactComplex(Fraction(c, den), Fraction(-d, den))
            for c, d in zip_longest(*r, fillvalue=0)
        ])
        out.append(ChainEntry(t, E, max(E.degree, 0)))
    return out
