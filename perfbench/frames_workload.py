"""`hb-frames` workload: float-path de Branges frames of random Hermite-Biehler E.

E is a product of (z - zeta_k) with exact rational zeta_k in the open lower
half-plane, so E is Hermite-Biehler by construction; the zeros of A are
irrational, so `debranges` takes its float path.  Outputs are checked
against an independent scipy.integrate.quad of the space's inner product
<p, q> = integral p(x) conj(q(x)) / |E(x)|^2 dx over the real line.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from screwfn import debranges
from screwfn.algebra import Polynomial
from screwfn.exact import ExactComplex

# Degree 8 is left out: there `algebra.roots` fails its polish on some
# seeds only (zeros of A beyond about |x| = 5), which no fixed count can hold.
DEGREES = (3, 4, 5, 6, 7)
PER_DEGREE = 8
SMALLEST = ((3,), 1)
ZERO_RANGE = 3          # zeta = (a + b i) / c with |a| <= 3, 1 <= -b <= 3
ZERO_DENOMS = (2, 3)
# `rational_roots` tries every p/q with p | A(0) and q | lead(A) for the
# integer-scaled A = Re E, and that search is most of a pass.  Its size is
# heavy-tailed, so each E is drawn again until the count of (p, q) pairs is
# within a factor 1.1 of the median for its degree: every seed then asks
# for about the same search.
CANDIDATE_MEDIAN = {3: 12, 4: 24, 5: 36, 6: 64, 7: 120}
CANDIDATE_SPREAD = 1.1
GENERIC_ANGLE = 0.3
KERNEL_POINTS = 3
TOL = 1e-9


def random_e(rng: random.Random, degree: int) -> Polynomial:
    E = Polynomial([ExactComplex(1)])
    for _ in range(degree):
        c = rng.choice(ZERO_DENOMS)
        zeta = ExactComplex(Fraction(rng.randint(-ZERO_RANGE, ZERO_RANGE), c),
                            Fraction(-rng.randint(1, ZERO_RANGE), c))
        E = E * Polynomial([-zeta, ExactComplex(1)])
    return E


def _divisor_count(n: int) -> int:
    count, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        count *= e + 1
        p += 1
    return count * (2 if n > 1 else 1)


def candidate_pairs(E: Polynomial) -> int:
    """(p, q) pairs with p | A(0) and q | lead(A), A = Re E scaled to integers; 0 if A(0) = 0."""
    A = [c.re for c in E.coeffs]
    scale = math.lcm(*(c.denominator for c in A))
    a0, an = abs(int(A[0] * scale)), abs(int(A[-1] * scale))
    return _divisor_count(a0) * _divisor_count(an) if a0 else 0


def banded_e(rng: random.Random, degree: int) -> Polynomial:
    lo = CANDIDATE_MEDIAN[degree] / CANDIDATE_SPREAD
    hi = CANDIDATE_MEDIAN[degree] * CANDIDATE_SPREAD
    while True:
        E = random_e(rng, degree)
        if lo <= candidate_pairs(E) <= hi:
            return E


@dataclass
class Inputs:
    es: list
    points: list  # per E: KERNEL_POINTS pairs (z, w) with Im > 0


def make_inputs(seed: int, workdir=None, smallest: bool = False) -> Inputs:
    rng = random.Random(seed)
    degrees, per = SMALLEST if smallest else (DEGREES, PER_DEGREE)
    es, points = [], []
    for d in degrees:
        for _ in range(per):
            es.append(banded_e(rng, d))
            points.append([(complex(rng.uniform(-2, 2), rng.uniform(0.1, 2)),
                            complex(rng.uniform(-2, 2), rng.uniform(0.1, 2)))
                           for _ in range(KERNEL_POINTS)])
    return Inputs(es, points)


def named_fault_ops(inp: Inputs) -> int:
    """Operations per pass that fault 2 fails: the generic-angle eigenbasis of each E."""
    return len(inp.es)


def run_pass(inp: Inputs) -> list:
    out = []
    for E, pts in zip(inp.es, inp.points):
        frame = debranges.HermiteBiehlerFrame.from_e(E)
        table = debranges.moments(frame)
        basis = debranges.gram_schmidt_basis(frame)
        kernels = [(debranges.kernel_ab(frame, z, w), debranges.kernel_moment(frame, z, w))
                   for z, w in pts]
        eig = debranges.extension_eigenbasis(frame, math.pi / 2)
        try:
            generic = debranges.extension_eigenbasis(frame, GENERIC_ANGLE)
        except AttributeError as exc:
            generic = exc
        out.append((frame, table, basis, kernels, eig, generic))
    return out


def reference_moments(E: Polynomial) -> np.ndarray:
    """m_k = integral x^k / |E(x)|^2 dx over the real line, k < 2 deg E - 1, by quadrature."""
    desc = np.array([complex(c) for c in reversed(E.coeffs)])

    def moment(k):
        f = lambda x: x**k / abs(np.polyval(desc, x)) ** 2  # noqa: E731
        val, _ = integrate.quad(f, -np.inf, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
        return val

    return np.array([moment(k) for k in range(2 * E.degree - 1)])


def _coeffs(p: Polynomial, n: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    for k, c in enumerate(p.coeffs):
        v[k] = complex(c)
    return v


def _orthonormal(G: np.ndarray, polys) -> bool:
    V = np.array([_coeffs(p, len(G)) for p in polys])
    gram = V.conj() @ G @ V.T
    return bool(np.max(np.abs(gram - np.eye(len(polys)))) < TOL)


class Checker:
    def __init__(self, inp: Inputs):
        self.inp = inp
        self.moments = [reference_moments(E) for E in inp.es]

    def check(self, out: list):
        attempted = failed = 0
        problems = []
        for k, (E, pts, ref, res) in enumerate(zip(self.inp.es, self.inp.points, self.moments, out)):
            frame, table, basis, kernels, eig, generic = res
            n = E.degree
            G = np.array([[ref[i + j] for j in range(n)] for i in range(n)])
            tag = f"E #{k} (degree {n})"
            attempted += 6
            if frame.E != E or frame.dim != n or len(frame.mu) != n:
                problems.append(f"{tag}: frame does not hold E and n level points")
            ms = np.array([float(m) for m in table.moments])
            # |m_j| <= sqrt(m_2a m_2b) for a + b = j
            scale = np.sqrt([ref[2 * (j // 2)] * ref[2 * ((j + 1) // 2)] for j in range(2 * n - 1)])
            if not (np.all(np.abs(ms - ref) <= TOL * scale) and all(float(h) > 0 for h in table.hankel)):
                problems.append(f"{tag}: moments disagree with quadrature")
            if len(basis) != n or not _orthonormal(G, basis):
                problems.append(f"{tag}: Gram-Schmidt basis not orthonormal")
            Ginv = np.linalg.inv(G)
            for (z, w), (kab, kmom) in zip(pts, kernels):
                vz = np.array([z**j for j in range(n)])
                vw = np.array([w**j for j in range(n)])
                kref = complex(vw @ Ginv @ vz.conj())
                if abs(kab - kref) > TOL * abs(kref) or abs(kmom - kref) > TOL * abs(kref):
                    problems.append(f"{tag}: kernel at {z}, {w}: {kab}, {kmom} vs {kref}")
                    break
            # eigenvalues at pi/2: the zeros of A = Re E, which are real
            zeros = np.sort(np.roots([complex(c).real for c in reversed(E.coeffs)]).real)
            evs = np.array([float(e) for e in eig.eigenvalues])
            if (len(evs) != n or np.max(np.abs(evs - zeros)) > 1e-6 * max(1.0, np.max(np.abs(zeros)))
                    or not _orthonormal(G, eig.normalized)):
                problems.append(f"{tag}: eigenbasis at pi/2 wrong")
            if isinstance(generic, AttributeError) and "'re'" in str(generic):
                failed += 1
            elif isinstance(generic, Exception) or not _orthonormal(G, generic.normalized):
                problems.append(f"{tag}: eigenbasis at {GENERIC_ANGLE}: {generic!r}")
        return attempted, failed, problems
