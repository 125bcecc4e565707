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

Inner products, moments, Hankel determinants, Gram-Schmidt bases and the
eigenbases of the self-adjoint extensions of multiplication by z each have
one code path, written against the numeric protocol of ``exact``.  The
scalar type follows ``HermiteBiehlerFrame.weights``: exact (pi-graded
surds) when the level-set measure is exact, floating point otherwise.  The
two reproducing kernel forms are evaluated in floating point.

A frame builds its sampling weights, its moment table and its pi/2
eigenbasis once, on first use, and keeps them; every reader gets the same
instance.  This is sound only because every part of a frame, and every
object built from it, is immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import Polynomial, ab_split, effective_degree, rational_roots, roots, sharp
from .exact import ExactComplex, is_real, sqrt
from .spectra import DiscreteMeasure, level_set_masses

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
        mu = level_set_masses(E)  # certifies E as Hermite-Biehler
        return HermiteBiehlerFrame(E, *ab_split(E), mu)

    @property
    def dim(self) -> int:
        return self.E.degree

    @cached_property
    def weights(self) -> tuple:
        """(point, mu(g)/|E(g)|^2) pairs; the only place that picks the scalar type.

        Exact (ExactComplex point, PiScalar weight) when the level-set measure
        is exact, floats otherwise.
        """
        if self.mu.is_exact:
            pts = [ExactComplex(g) for g in self.mu.points]
            return tuple((g, m / self.E(g).abs2()) for g, m in zip(pts, self.mu.masses))
        return tuple(
            (g, m / abs(self.E(g)) ** 2)
            for g, m in zip(self.mu.float_points(), self.mu.float_masses())
        )

    @cached_property
    def moment_table(self) -> "MomentTable":
        """Moments of the sampling weights and the leading Hankel determinants."""
        n = self.dim
        ms = [sum(w * g**k for g, w in self.weights) for k in range(2 * n - 1)]
        hankels = [_det([ms[i : i + k + 1] for i in range(k + 1)]) for k in range(n)]
        return MomentTable(tuple(ms), tuple(hankels))

    @cached_property
    def pi_half_eigenbasis(self) -> "Eigenbasis":
        """Eigenbasis of the self-adjoint extension at angle pi/2."""
        return _eigenbasis(self, math.pi / 2)


def e0_frame() -> HermiteBiehlerFrame:
    """The worked example E(z) = z^3 + 2iz^2 - z - i."""
    i = ExactComplex(0, 1)
    E = Polynomial([-i, ExactComplex(-1), i * 2, ExactComplex(1)])
    return HermiteBiehlerFrame.from_e(E)


def inner_product(frame: HermiteBiehlerFrame, p: Polynomial, q: Polynomial):
    """<p, q> over the level set; exact PiScalar when all data is exact."""
    n = frame.dim
    if p.degree >= n or q.degree >= n:
        raise ValueError(f"not a member of H(E): degree must be < {n}")
    return sum(p(g) * q(g).conjugate() * w for g, w in frame.weights)


@dataclass(frozen=True)
class MomentTable:
    """Moments m_0..m_{2n-2} of the sampling weights and leading Hankel determinants."""

    moments: tuple
    hankel: tuple


def _det(M: list[list]):
    """Determinant by elimination with largest-|x| pivots, over any field of scalars."""
    n = len(M)
    M = [row[:] for row in M]
    det = 1
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(complex(M[r][c])))
        if not M[piv][c]:
            return M[piv][c]
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


def moments(frame: HermiteBiehlerFrame) -> MomentTable:
    """The frame's moment table, built once per frame."""
    return frame.moment_table


def kernel_ab(frame: HermiteBiehlerFrame, z: complex, w: complex) -> complex:
    """K(z,w) = (conj(A(z)) B(w) - A(w) conj(B(z))) / (pi (w - conj z))."""
    z, w = complex(z), complex(w)
    A, B = frame.A, frame.B
    az, bz = complex(A(z)), complex(B(z))
    denom = w - z.conjugate()
    if abs(denom) < 1e-13:
        dA, dB = A.derivative(), B.derivative()
        return (np.conj(az) * complex(dB(w)) - complex(dA(w)) * np.conj(bz)) / math.pi
    return (np.conj(az) * complex(B(w)) - complex(A(w)) * np.conj(bz)) / (math.pi * denom)


def kernel_moment(frame: HermiteBiehlerFrame, z: complex, w: complex) -> complex:
    """Bordered-determinant form of the reproducing kernel from the moment table."""
    n = frame.dim
    table = moments(frame)
    ms = [float(m) for m in table.moments]
    hn1 = float(table.hankel[n - 1])
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[0, 1:] = [complex(w) ** j for j in range(n)]
    for i in range(1, n + 1):
        M[i, 0] = np.conj(complex(z)) ** (i - 1)
        M[i, 1:] = ms[i - 1 : i - 1 + n]
    return complex(-np.linalg.det(M) / hn1)


def gram_schmidt_basis(frame: HermiteBiehlerFrame) -> list[Polynomial]:
    """Orthonormal basis of H(E) by the determinant form of Gram-Schmidt."""
    n = frame.dim
    monos = [Polynomial.monomial(k) for k in range(n)]
    C = [[inner_product(frame, monos[i], monos[j]).real for j in range(n)] for i in range(n)]
    dets = [1] + [_det([row[:k] for row in C[:k]]) for k in range(1, n + 1)]
    if any(d <= 0 for d in dets):
        raise ValueError("Gram matrix is not positive definite")
    basis = []
    for k in range(n):
        coeffs = [
            (-1) ** (k + j) * _det([[C[r][c] for c in range(k + 1) if c != j] for r in range(k)])
            for j in range(k + 1)
        ]
        norm = sqrt(dets[k] * dets[k + 1])
        basis.append(Polynomial([c / norm for c in coeffs]))
    return basis


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
    u = c + s * ExactComplex(0, 1)
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
    A2 = frame.A * ExactComplex(rows[0][0]) + frame.B * ExactComplex(rows[0][1])
    B2 = frame.A * ExactComplex(rows[1][0]) + frame.B * ExactComplex(rows[1][1])
    E2 = A2 - B2 * ExactComplex(0, 1)
    return HermiteBiehlerFrame.from_e(E2)
