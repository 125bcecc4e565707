"""De Branges spaces of polynomials.

For a Hermite-Biehler polynomial E of degree n the space is the set of
polynomials of degree < n with inner product

    <p, q> = sum over the level set {A = 0} of p(g) conj(q(g)) w(g),
    w(g) = mu(g) / |E(g)|^2,

the sampling form of the embedding into L^2(mu) via p -> p/E.  For the
worked cubic every |E(g)| equals 1 so w coincides with the raw level-set
masses; in general the |E|^2 weight is what makes the reproducing-kernel
identities below hold, and the moment table is built from w for the same
reason.

Inner products, moments, the orthogonal polynomials and the eigenbases of
the self-adjoint extensions of multiplication by z each have one code path,
written against the numeric protocol of ``exact``.  The scalar type follows
``HermiteBiehlerFrame.weights``, point by point as in ``level_set_masses``:
exact (pi-graded surds) at a rational level point, floating point at an
irrational one.  The moment table runs the discretized Stieltjes procedure
(Gautschi, *Orthogonal Polynomials: Computation and Approximation*, 2004)
on the weights.  Its monic p_k and h_k = <p_k, p_k> give
hankel[k] = h_0 ... h_k, the orthonormal basis p_k / sqrt(h_k) and the
Christoffel-Darboux kernel (Szego, *Orthogonal Polynomials*)
sum_k p_k(w) conj(p_k(z)) / h_k, exact at exact z and w.

inner_product evaluates p and q once at each level point and adds
p(g) conj(q(g)) w(g) in level-set order in _sampled_inner; a check that
forms many inner products, such as the CLI's polynomial-space tables,
takes each polynomial's values once and calls _sampled_inner per pair,
with the same sums in the same order.

A frame builds its sampling weights, its moment table and its pi/2
eigenbasis once, on first use, and keeps them; every reader gets the same
instance.  This is sound only because every part of a frame, and every
object built from it, is immutable.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import Polynomial, ab_split, effective_degree, rational_roots, roots, sharp
from .exact import PI, I, is_real, sqrt
from .spectra import DiscreteMeasure, _level_set

__all__ = [
    "HermiteBiehlerFrame",
    "MomentTable",
    "Eigenbasis",
    "inner_product",
    "moments",
    "kernel_ab",
    "kernel_moment",
    "gram_schmidt_basis",
    "s_theta",
    "s_theta_in_space",
    "extension_eigenbasis",
    "sl2_transform",
    "boundary_value",
    "e0_frame",
]


@dataclass(frozen=True)
class HermiteBiehlerFrame:
    """A certified Hermite-Biehler polynomial with its split and level-set measure.

    ``weights``, ``moment_table`` and ``pi_half_eigenbasis`` are derived from
    the four fields, built once on first use and kept on the instance.
    Equality and hashing see the fields only.  Sharing the cached objects is
    safe because the fields and the cached objects are all immutable.
    """

    E: Polynomial
    A: Polynomial
    B: Polynomial
    mu: DiscreteMeasure

    @staticmethod
    def from_e(E: Polynomial) -> "HermiteBiehlerFrame":
        A, B = ab_split(E)
        return HermiteBiehlerFrame(E, A, B, _level_set(A, B))  # certifies E as Hermite-Biehler

    @property
    def dim(self) -> int:
        return self.E.degree

    @cached_property
    def weights(self) -> tuple:
        """(point, mu(g)/|E(g)|^2) pairs, de Branges' sampling weights.

        A(g) = 0 on the level set, so |E(g)|^2 = B(g)^2 there, and each
        weight takes the scalar type of its point and mass: a PiScalar at a
        Fraction point, a float at a float point.
        """
        return tuple((g, m / abs(self.B(g)) ** 2) for g, m in self.mu)

    @cached_property
    def moment_table(self) -> "MomentTable":
        """Moments of the sampling weights and one Stieltjes recurrence on them.

        p_{k+1} = (z - a_k) p_k - b_k p_{k-1}, a_k = <z p_k, p_k> / h_k and
        b_k = h_k / h_{k-1}, run on values at the n level points: on exact data
        a_k and b_k are rational and only h_k carries pi.  An h_k <= 0, which
        positive weights at n distinct points never give, raises ValueError.
        """
        n = self.dim
        ms = [sum(w * g**k for g, w in self.weights) for k in range(2 * n - 1)]
        gs, ws = zip(*self.weights)
        polys, norms = [], []
        p, p_prev, b = Polynomial.one(), Polynomial.zero(), 0
        v, v_prev = [1] * n, [0] * n  # p and p_prev at the level points
        for _ in range(n):
            h = sum(w * x * x for w, x in zip(ws, v))
            if h <= 0:
                raise ValueError("Gram matrix is not positive definite")
            if norms:
                b = h / norms[-1]
            polys.append(p)
            norms.append(h)
            a = sum(w * g * x * x for g, w, x in zip(gs, ws, v)) / h
            v, v_prev = [(g - a) * x - b * y for g, x, y in zip(gs, v, v_prev)], v
            p, p_prev = Polynomial([0, *p.coeffs]) - p * a - p_prev * b, p
        hankel = tuple(itertools.accumulate(norms, operator.mul))
        return MomentTable(tuple(ms), hankel, tuple(polys), tuple(norms))

    @cached_property
    def pi_half_eigenbasis(self) -> "Eigenbasis":
        """Eigenbasis of the self-adjoint extension at angle pi/2."""
        return _eigenbasis(self, math.pi / 2)


def e0_frame() -> HermiteBiehlerFrame:
    """The worked example E(z) = z^3 + 2iz^2 - z - i."""
    E = Polynomial([-I, -1, I * 2, 1])
    return HermiteBiehlerFrame.from_e(E)


def inner_product(frame: HermiteBiehlerFrame, p: Polynomial, q: Polynomial):
    """<p, q> over the level set; exact PiScalar when all data is exact."""
    n = frame.dim
    if p.degree >= n or q.degree >= n:
        raise ValueError(f"not a member of H(E): degree must be < {n}")
    points = [g for g, _ in frame.weights]
    return _sampled_inner(frame, [p(g) for g in points], [q(g).conjugate() for g in points])


def _sampled_inner(frame: HermiteBiehlerFrame, p_values, q_conj_values):
    """sum p(g) conj(q(g)) w(g) over the level set, from p's values and q's conjugated values there."""
    return sum(a * b * w for a, b, (_, w) in zip(p_values, q_conj_values, frame.weights))


@dataclass(frozen=True)
class MomentTable:
    """Moments m_0..m_{2n-2}, monic orthogonal polys p_k with norms h_k = <p_k, p_k>,
    and the leading Hankel determinants hankel[k] = h_0 ... h_k."""

    moments: tuple
    hankel: tuple
    polys: tuple
    norms: tuple


def moments(frame: HermiteBiehlerFrame) -> MomentTable:
    """The frame's moment table, built once per frame."""
    return frame.moment_table


def kernel_ab(frame: HermiteBiehlerFrame, z, w):
    """K(z,w) = (conj(A(z)) B(w) - A(w) conj(B(z))) / (pi (w - conj z)), its limit at w = conj z.

    Exact when the frame and z, w are exact, complex when z or w is a float.
    """
    A, B, d = frame.A, frame.B, w - z.conjugate()
    az, bz = A(z).conjugate(), B(z).conjugate()
    if d == 0:
        return (az * B.derivative()(w) - A.derivative()(w) * bz) / PI
    return (az * B(w) - A(w) * bz) / (PI * d)


def kernel_moment(frame: HermiteBiehlerFrame, z, w):
    """Christoffel-Darboux form of the reproducing kernel, sum_k p_k(w) conj(p_k(z)) / h_k.

    Exact when the frame and z, w are exact, complex when z or w is a float.
    """
    table = moments(frame)
    return sum(p(w) * p(z).conjugate() / h for p, h in zip(table.polys, table.norms))


def gram_schmidt_basis(frame: HermiteBiehlerFrame) -> list[Polynomial]:
    """Orthonormal basis p_k / sqrt(h_k) of H(E), read off the moment table."""
    table = frame.moment_table
    return [p / sqrt(h) for p, h in zip(table.polys, table.norms)]


def _snap_trig(x: float):
    for target in (0, 1, -1):
        if abs(x - target) < 1e-15:
            return Fraction(target)
    return x


def _cos_sin(theta: float):
    return _snap_trig(math.cos(theta)), _snap_trig(math.sin(theta))


def s_theta(frame: HermiteBiehlerFrame, theta: float) -> Polynomial:
    """S_theta = e^{i theta} E - e^{-i theta} E#; exact at the axis angles."""
    c, s = _cos_sin(theta)
    u = c + s * I
    return frame.E * u - sharp(frame.E) * u.conjugate()


def _s_theta_real(frame: HermiteBiehlerFrame, theta: float) -> Polynomial:
    """S_theta / (2i) = A sin(theta) - B cos(theta), a real polynomial."""
    c, s = _cos_sin(theta)
    return frame.A * s - frame.B * c


def s_theta_in_space(frame: HermiteBiehlerFrame, theta: float) -> bool:
    """S_theta lies in H(E) iff its degree drops below deg E; at most one theta."""
    return effective_degree(_s_theta_real(frame, theta), 1e-12) < frame.dim


@dataclass(frozen=True)
class Eigenbasis:
    eigenvalues: tuple
    eigenfunctions: tuple
    normalized: tuple


def extension_eigenbasis(frame: HermiteBiehlerFrame, theta: float) -> Eigenbasis:
    """Eigenbasis of the self-adjoint extension at angle theta.

    Eigenfunctions are (A sin - B cos)/(z - g) over the real zeros g; when
    S_theta itself lies in H(E) it is appended (eigenvalue None) so the
    output always spans the space.  At pi/2 this is the frame's own
    eigenbasis, built once per frame, and its eigenvalues are the points of
    ``frame.mu``: the zeros of A that ``level_set_masses`` already found.
    """
    if _cos_sin(theta) == (0, 1):
        return frame.pi_half_eigenbasis
    return _eigenbasis(frame, theta)


def _eigenbasis(frame: HermiteBiehlerFrame, theta: float) -> Eigenbasis:
    P = _s_theta_real(frame, theta)
    in_space = effective_degree(P, 1e-12) < frame.dim
    if _cos_sin(theta) == (0, 1):
        evs: list = list(frame.mu.points)  # P = A, and the level set is its zeros
    else:
        rats, rest = rational_roots(P)
        if len(set(rats)) != len(rats):
            raise ValueError("zeros of S_theta must be simple")
        evs = list(rats)
        if rest.degree >= 1:
            for r in roots(rest):
                if not is_real(r):
                    raise ValueError(f"nonreal zero {r} of S_theta")
                evs.append(r.real)
        evs.sort(key=float)
    funcs = [P.divmod(Polynomial([-g, 1]))[0] for g in evs]
    if in_space and not P.is_zero():
        evs.append(None)
        funcs.append(P)
    normalized = [f / sqrt(inner_product(frame, f, f).real) for f in funcs]
    return Eigenbasis(tuple(evs), tuple(funcs), tuple(normalized))


def boundary_value(frame: HermiteBiehlerFrame, f: Polynomial, x):
    """f(x)/E(x) on the real line; exact for rational x and exact f."""
    return f(x) / frame.E(x)


def sl2_transform(frame: HermiteBiehlerFrame, M) -> HermiteBiehlerFrame:
    """Apply M in SL2(Q) to (A, B); the reproducing kernel is unchanged."""
    rows = [[Fraction(M[i][j]) for j in range(2)] for i in range(2)]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det != 1:
        raise ValueError(f"matrix must have determinant 1 exactly, got {det}")
    A2 = frame.A * rows[0][0] + frame.B * rows[0][1]
    B2 = frame.A * rows[1][0] + frame.B * rows[1][1]
    E2 = A2 - B2 * I
    return HermiteBiehlerFrame.from_e(E2)
