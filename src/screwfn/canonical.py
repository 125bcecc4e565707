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
arithmetic; nothing is sampled.  The peel reads each factor off one row, so
factorize_row runs it on W's bottom row (C, D) alone, from (0, 1) at z = 0:
E = C - iD with E(0) = -i fixes H (de Branges 1968, ch. 2), except for a
leading (1, 0, 0) segment, which leaves the row at (0, 1).

The chain is carried as integer rows: a row (p, q) of W is two lists of
integer coefficients over one positive common denominator den, shared by the
rows carried together.  One segment step advances the rows by I + zX for a
rational 2x2 X (for a segment I - z*delta*P*J, X = -delta*P*J; for a peel
I + zMJ, X = MJ): with X = Y/e in integers, the new coefficients are
e*p[k] + Y00*p[k-1] + Y10*q[k-1] and e*q[k] + Y01*p[k-1] + Y11*q[k-1] over
den*e, and all of them and den*e are divided by their gcd once per step.
fundamental_solution, the peels and _breakpoint_rows take this step,
carrying only the rows they return.  _breakpoint_rows carries the bottom
(C, D) row alone, from breakpoint to breakpoint; subspace_chain,
solution_rows_affine and both directions of the Weyl transform read it.
A Fraction(c, den) is in lowest terms whatever den is, so the Polynomials
built from the rows hold, coefficient for coefficient, the Fractions that
the products of the segment factors in Fraction arithmetic would.  The peel
converts W once, checks det W = 1 as the integer identity a*d - b*c = den^2,
and reads each factor in closed form off the top two coefficients of one row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .algebra import MatrixPolynomial, Polynomial, _cleared
from .exact import ExactComplex

__all__ = [
    "ElementaryFactor",
    "Segment",
    "Hamiltonian",
    "ValidationReport",
    "validate_transfer",
    "peel_factor",
    "factorize",
    "factorize_row",
    "fundamental_solution",
    "solution_rows_affine",
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


def _int_rows(entries):
    """Rows of Polynomials as integer coefficient lists over one positive denominator.

    ValueError unless every coefficient is a real rational.
    """
    polys = [e for row in entries for e in row]
    if any(p.mode != "exact" for p in polys):
        raise ValueError("not factorable: coefficients are not exact rationals")
    if not all(p.is_real() for p in polys):
        raise ValueError("not factorable: matrix is not real")
    ints, den = _cleared([c for p in polys for c in p.coeffs])
    it = iter(ints)
    return [tuple([next(it) for _ in e.coeffs] for e in row) for row in entries], den


def _polys(row, den) -> tuple[Polynomial, ...]:
    return tuple(Polynomial([Fraction(c, den) for c in u]) for u in row)


def _coeff(u: list[int], k: int) -> int:
    return u[k] if k < len(u) else 0


def _degree(rows) -> int:
    return max(len(u) for row in rows for u in row) - 1


def _z_times(row, Y):
    """z * (p, q) Y for an integer row (p, q) and an integer 2x2 Y, flat (y00, y01, y10, y11)."""
    y00, y01, y10, y11 = Y
    pairs = list(zip_longest(*row, fillvalue=0))
    return ([0] + [y00 * a + y10 * b for a, b in pairs],
            [0] + [y01 * a + y11 * b for a, b in pairs])


def _lin(s: int, row, zrow):
    """s * row + zrow, component by component."""
    return tuple([s * a + b for a, b in zip_longest(u, v, fillvalue=0)] for u, v in zip(row, zrow))


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
    Y, e = _cleared([x for r in X for x in r])  # X = Y/e
    return _reduced([_lin(e, row, _z_times(row, Y)) for row in rows], den * e)


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
    """Strip the rightmost elementary factor off integer rows: both rows of W, or one.

    Returns (rows of V, its denominator, M) with W = V (I - zMJ), deg V = deg W - 1.
    For W of degree r, (a, b) and (c, d) are the z^r and z^(r-1) coefficients of
    its first row with (a, b) != 0, and M = (b^2, -ab, a^2)/s, s = bc - ad (Potapov;
    de Branges 1968).  V = W (I + zMJ) has z^(r+1) coefficient W_r MJ and z^r
    coefficient W_r + W_(r-1) MJ.  On that row the first vanishes only for
    M = t u u^T, u = (b, -a), and then the second only for t = 1/s, so s = 0
    leaves no factor.  The check deg V = r - 1 certifies the other row; a row
    alone drops by exactly one, since it is V's row times I - zMJ.
    """
    r = _degree(rows)
    if r < 1:
        raise ValueError("nothing to peel: degree must be >= 1")
    # the coefficients carry the factor den, which the ratio M = (b^2, -ab, a^2)/s cancels
    p, q = next(row for row in rows if _coeff(row[0], r) or _coeff(row[1], r))
    a, b, c, d = _coeff(p, r), _coeff(q, r), _coeff(p, r - 1), _coeff(q, r - 1)
    s = b * c - a * d
    if s == 0:
        raise ValueError("not factorable: matrix is not of canonical-product form")
    try:
        M = ElementaryFactor(Fraction(b * b, s), Fraction(-a * b, s), Fraction(a * a, s))
    except ValueError as exc:
        raise ValueError(f"not factorable: {exc}") from exc
    rows, den = _step(rows, den, M.matrix_j())  # V = W (I + zMJ)
    if _degree(rows) != r - 1:
        raise ValueError("not factorable: degree did not drop after peeling")
    return rows, den, M


def _peel_all(rows, den: int) -> list[ElementaryFactor]:
    """The rows' PSD elementary factors, left to right; each peel keeps the value at z = 0."""
    factors = []
    while _degree(rows) >= 1:
        rows, den, M = _peel(rows, den)
        factors.append(M)
    return factors[::-1]


def _transfer_factors(W: MatrixPolynomial) -> list[ElementaryFactor]:
    """W's PSD factors, after W(0) = I and det W = 1; ValueError where W is not J-inner."""
    rows, den = _int_rows(W.entries)
    failures = []
    if [_coeff(u, 0) for row in rows for u in row] != [den, 0, 0, den]:
        failures.append("W(0) != I")
    if _det(rows) != [den * den]:
        failures.append("det W != 1")
    if failures:
        raise ValueError("; ".join(failures))
    return _peel_all(rows, den)


def validate_transfer(W: MatrixPolynomial) -> ValidationReport:
    """Exact certificate: W(0) = I, det W = 1, and the rank-one peel down to I with PSD factors."""
    try:
        _transfer_factors(W)
    except ValueError as exc:
        return ValidationReport(False, (str(exc),))
    return ValidationReport(True, ())


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
    rows, den, M = _peel(*_int_rows(W.entries))
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


def _hamiltonian(factors) -> Hamiltonian:
    """The step Hamiltonian of PSD elementary factors, left to right: segment k is M_k/tr M_k."""
    return Hamiltonian(Segment(M.trace, (M.alpha / M.trace, M.beta / M.trace, M.gamma / M.trace))
                       for M in factors)


def factorize(W: MatrixPolynomial) -> Hamiltonian:
    """Full rank-one factorization of a transfer matrix into its step Hamiltonian.

    The peel is the J-inner certificate, so W is checked once, as it is factored.
    """
    try:
        factors = _transfer_factors(W)
    except ValueError as exc:
        raise ValueError(f"not a transfer matrix: {exc}") from exc
    return _hamiltonian(factors)


def factorize_row(C: Polynomial, D: Polynomial) -> Hamiltonian:
    """The step Hamiltonian, with no leading (1, 0, 0) segment, whose W has bottom row (C, D).

    factorize's peel on the one row, (0, 1) at z = 0: a PSD factor at every
    step certifies (C, D) as the bottom row of a J-inner W.
    """
    try:
        rows, den = _int_rows([(C, D)])
        if [_coeff(u, 0) for u in rows[0]] != [0, den]:
            raise ValueError("(C, D)(0) != (0, 1)")
        factors = _peel_all(rows, den)
    except ValueError as exc:
        raise ValueError(f"not a transfer row: {exc}") from exc
    return _hamiltonian(factors)


def fundamental_solution(H: Hamiltonian, t) -> MatrixPolynomial:
    """W(t, z) with W(0, z) = I, symbolic in z.

    Piecewise product of the segment factors, one segment step each on both
    integer rows; exact matrix polynomial for exact t, coefficient-wise.
    """
    if not isinstance(t, (Fraction, int, float)):
        raise TypeError(f"unsupported time value {t!r}")
    tf = Fraction(t)
    if not 0 <= tf <= H.total_length:
        raise ValueError(f"t={t} outside [0, {H.total_length}]")
    rows, den = [([1], []), ([], [1])], 1
    for k, seg in enumerate(H.segments):
        lo, hi = H.breakpoints[k], H.breakpoints[k + 1]
        if tf <= lo:
            break
        rows, den = _step(rows, den, _segment_x(seg.proj, min(tf, hi) - lo))
    return MatrixPolynomial([_polys(row, den) for row in rows])


def _breakpoint_rows(H: Hamiltonian):
    """Yield (row, den), the bottom (C, D) row of W(t_k, z), at t_0, ..., t_n.

    One segment step per breakpoint, computed as far as the rows are read.
    """
    r, den = ([], [1]), 1
    yield r, den
    for seg in H.segments:
        (r,), den = _step([r], den, _segment_x(seg.proj, seg.length))
        yield r, den


def solution_rows_affine(H: Hamiltonian):
    """Per-segment affine representation of the bottom solution row.

    Returns a list of ((R0_first, R0_second), (R1_first, R1_second)) with

        row(t, z) = R0(z) + (t - t_{k-1}) * R1(z)   on segment k,

    R0 the bottom (C, D) row of W(t_{k-1}, z) and R1 = -z * R0 * P_k J,
    read as (R0(t_k) - R0(t_{k-1}))/L_k off _breakpoint_rows: the public
    reference for the affine form, which the Weyl layer reads there itself.
    """
    rows = [_polys(r, den) for r, den in _breakpoint_rows(H)]
    return [
        (R0, tuple((b - a) / seg.length for a, b in zip(R0, R1)))
        for seg, R0, R1 in zip(H.segments, rows, rows[1:])
    ]


@dataclass(frozen=True)
class ChainEntry:
    t: Fraction
    E: Polynomial
    dim: int


def subspace_chain(H: Hamiltonian) -> list[ChainEntry]:
    """The de Branges subspace chain E(t, z) = C(t, z) - i D(t, z) at regular points.

    The bottom row (C, D) of W(t, z) at each breakpoint is read from
    _breakpoint_rows.
    """
    out = []
    for t, (r, den) in zip(H.breakpoints, _breakpoint_rows(H)):
        E = Polynomial([
            ExactComplex(Fraction(c, den), Fraction(-d, den))
            for c, d in zip_longest(*r, fillvalue=0)
        ])
        out.append(ChainEntry(t, E, max(E.degree, 0)))
    return out
