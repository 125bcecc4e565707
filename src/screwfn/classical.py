"""Krein strings, infinitely divisible laws and mean-periodicity checks.

Three classical faces of the same discrete spectral data:

* for q(z) = b + sum s_k/(l_k - z), l_k >= 0, the quotients c_k z of the
  one field Euclid, algebra._signed_remainders, run on Q(z) = z q(z^2) are a
  string's gaps and masses, and solving the string equation recovers q as
  the ratio of terminal slopes;
* the integral representation of a screw function g with g(0) = 0 is, after
  exponentiation, a Levy-Khintchine formula, so g yields a triplet
  (gaussian variance, drift, jump measure) and an explicit density: a
  Gaussian smoothing of the compound Poisson law of the jumps;
* a screw function with finite discrete spectrum is annihilated by a
  convolution kernel (Kahane, Lectures on Mean Periodic Functions, 1959),
  and the ratio of one-sided transforms (the Fourier-Carleman quotient)
  reproduces -i Q(z)/z^2.

The kernel phi = sum p_k (-i)^k H_k(u) exp(-u^2), H_k the physicists'
Hermite polynomials, has transform sqrt(pi) exp(-z^2/4) P(z) with
P(z) = z^3 prod (z + gamma) = sum p_k z^k over the nonzero atoms: z^3 kills
the polynomial part of g, and z + gamma its exp(+i t gamma) term, the sign
eval_screw uses (P = z^3 prod (z - gamma) for a symmetric spectrum).  As
H_k exp(-u^2) = -(H_{k-1} exp(-u^2))', k integrations by parts, with the
remainder P(i d/dt) g = 0, give the one-sided convolution in closed form:

    integral_{u < t} g(t - u) phi(u) du
        = -exp(-t^2) sum_k p_k (-i)^k sum_{j < k} (-1)^j g^(j)(0) H_{k-1-j}(t),

g'(0) = i (c + sum m gamma/(1 + gamma^2)), g''(0) = -tau(R) and
g^(j)(0) = i^j sum m gamma^(j-2) for j >= 3; -i (8t^2 - 3) exp(-t^2) for g0.

The Euclid, P, the kernel's coefficients c_k = p_k (-i)^k and h are exact.
As H_k(t) exp(-t^2) has transform sqrt(pi) (iz)^k exp(-z^2/4), the kernel
and the convolution transform to sqrt(pi) exp(-z^2/4) times K = sum c_k
(iz)^k and N = sum h_k (iz)^k.  Annihilation is K(-gamma) = 0 at the nonzero
atoms with z^3 | K, and the Fourier-Carleman quotient is z^2 N D = -i Num K
for Q = Num/D: both hold exactly or not at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import hermite

from .algebra import Polynomial, RationalFunction, _largest, _monic_from_roots, _signed_remainders
from .exact import I, ExactComplex, PiScalar
from .screw import ScrewFunctionData, _simpson_weights, eval_screw, g0_data
from .spectra import DiscreteMeasure, NevanlinnaData, q_from_measure

__all__ = [
    "KreinString",
    "LevyTriplet",
    "q_substitute",
    "stieltjes_string",
    "string_solve",
    "titchmarsh_weyl",
    "levy_triplet",
    "screw_from_triplet",
    "idd_density",
    "idd_charfn_check",
    "mean_periodic_checks",
    "MeanPeriodicReport",
]


# ---------------------------------------------------------------------------
# Krein strings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KreinString:
    """Point masses (position, mass) with strictly increasing positions < L."""

    masses: tuple  # of (Fraction position, Fraction mass)
    L: Fraction | float  # math.inf for the half-line string

    def __post_init__(self):
        prev = None
        for pos, m in self.masses:
            if pos < 0 or m <= 0:
                raise ValueError("positions must be >= 0 and masses positive")
            if prev is not None and pos <= prev:
                raise ValueError("positions must be strictly increasing")
            if self.L != math.inf and pos >= self.L:
                raise ValueError("positions must lie below L")
            prev = pos


def q_substitute(Q: RationalFunction) -> RationalFunction:
    """q(z) = Q(sqrt z)/sqrt z, rational exactly when Q is odd."""
    if Q.mode != "exact":
        raise TypeError("q_substitute requires exact coefficients")
    num, den = Q.num, Q.den
    num_even, num_odd = num.even_part_coeffs(), num.odd_part_coeffs()
    den_even, den_odd = den.even_part_coeffs(), den.odd_part_coeffs()
    if num_odd.is_zero() and den_even.is_zero():
        # Q = n(z^2) / (z d(z^2)) -> q(w) = n(w)/(w d(w))
        return RationalFunction(num_even, Polynomial.x() * den_odd)
    if num_even.is_zero() and den_odd.is_zero():
        # Q = z n(z^2) / d(z^2) -> q(w) = n(w)/d(w)
        return RationalFunction(num_odd, den_even)
    # a reduced Q is odd exactly when one of num, den is even and the other odd
    raise ValueError("substitution not rational: Q must be odd")


def stieltjes_string(q: RationalFunction) -> KreinString:
    """Expand q as the alternating continued fraction of a string.

    With q = n/d, the signed Euclid of z n(z^2) by d(z^2) writes Q(z) =
    z q(z^2) as q_1 - 1/(q_2 - 1/(q_3 - ...)).  q is a string function
    exactly when every quotient q_k is c_k z with c_k > 0, where q_1 may be
    0: odd k gives the gaps (the first from 0 to the first mass) and even k
    the masses.  An odd count of quotients pins L to the sum of the gaps, an
    even count leaves L infinite.
    """
    if q.mode != "exact":
        raise TypeError("stieltjes_string requires exact coefficients")
    num = [x for c in q.num.coeffs for x in (0, c)]  # z n(z^2), [] for n = 0
    den = [x for c in q.den.coeffs for x in (c, 0)][:-1]  # d(z^2)
    quots = _signed_remainders(num, den)[1]
    pos, masses = Fraction(0), []
    for k, quot in enumerate(quots, 1):
        gap = k % 2
        if gap and not quot:  # only the first quotient can vanish: no gap before mass 1
            continue
        if len(quot) != 2:
            fault = "unbounded at -infinity" if gap else "reciprocal does not grow linearly"
            raise ValueError(f"not a string function: {fault}")
        c = quot[1]
        if c.imag or c.real < 0:
            fault = (("complex limit" if c.imag else "negative length") if gap
                     else "negative extracted mass")
            raise ValueError(f"not a string function: {fault}")
        if gap:
            pos += c.real
        else:
            masses.append((pos, c.real))
    return KreinString(tuple(masses), pos if len(quots) % 2 else math.inf)


def string_solve(s: KreinString, lam, x, with_slopes: bool = False):
    """Solutions (phi, psi) of the string equation at position x.

    phi(0) = 1, phi'(0-) = 0; psi(0) = 0, psi'(0-) = 1; each point mass m at
    position p kicks the slope by -lam * m * y(p).  The values and slopes
    are built as exact polynomials in the spectral variable, returned as
    they are for lam=None and evaluated at lam otherwise.
    """
    x = Fraction(x) if not isinstance(x, Fraction) else x
    lam_poly, one, zero = Polynomial.x(), Polynomial.one(), Polynomial.zero()
    vals = [zero] * 4
    if x >= 0:
        states = {"phi": [one, zero], "psi": [zero, one]}
        cur = Fraction(0)
        for pos, m in s.masses:
            if pos > x:
                break
            for st in states.values():
                st[0] = st[0] + st[1] * (pos - cur)
                st[1] = st[1] - lam_poly * st[0] * m
            cur = pos
        vals = [v for st in states.values() for v in (st[0] + st[1] * (x - cur), st[1])]
    if lam is not None:
        vals = [v(lam) for v in vals]
    phi_v, phi_s, psi_v, psi_s = vals
    if with_slopes:
        return phi_v, phi_s, psi_v, psi_s
    return phi_v, psi_v


def titchmarsh_weyl(s: KreinString) -> RationalFunction:
    """q(z) = lim_{x -> L} psi/phi as an exact rational function of the spectral variable."""
    if s.L != math.inf:
        raise ValueError("titchmarsh_weyl implemented for L = infinity only")
    if not s.masses:
        raise ValueError("degenerate string: psi/phi = x diverges, L = q(0-) inconsistent")
    last = s.masses[-1][0]
    _, phi_s, _, psi_s = string_solve(s, None, last, with_slopes=True)
    if phi_s.is_zero():
        raise ValueError("degenerate string: terminal phi slope vanishes")
    return RationalFunction(psi_s, phi_s)


# ---------------------------------------------------------------------------
# infinitely divisible distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyTriplet:
    """Gaussian variance a >= 0, drift b, and jump measure (no mass at 0).

    a is tau({0}) in the measure's own scalar type: a PiScalar, a float, or
    Fraction(0) when tau does not charge 0.
    """

    a: PiScalar | float | Fraction
    b: Fraction | float
    nu: DiscreteMeasure

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("gaussian variance must be nonnegative")
        if any(float(p) == 0.0 for p in self.nu.points):
            raise ValueError("jump measure must not charge 0")


def levy_triplet(g: ScrewFunctionData) -> LevyTriplet:
    """Read the triplet off the spectral data: a = tau({0}), b = c, nu = tau/g^2 off 0."""
    if float(g.g0) != 0.0:
        raise ValueError("levy_triplet requires g(0) = 0")
    a = Fraction(0)
    pts, ms = [], []
    for p, m in g.tau:
        if p == 0:
            a = m
        else:
            pts.append(p)
            ms.append(m / (p * p))
    return LevyTriplet(a, g.c, DiscreteMeasure(pts, ms))


def screw_from_triplet(t: LevyTriplet) -> ScrewFunctionData:
    """Inverse of levy_triplet: tau = a*delta_0 + g^2 * nu."""
    pts: list = []
    ms: list = []
    if t.a != 0:
        pts.append(Fraction(0))
        ms.append(t.a)
    for p, m in t.nu:
        pts.append(p)
        ms.append(m * (p * p))
    return ScrewFunctionData(Fraction(0), t.b, DiscreteMeasure(pts, ms))


def idd_density(t: LevyTriplet, x, K: int = 40):
    """Density of the law with characteristic function exp of the triplet exponent.

    The law is N(b - sum nu(g) g/(1 + g^2), a) plus sum g N_g, N_g ~ Poisson(nu(g)),
    on the lattice (1/d)Z of the rational points' common denominator d: np.convolve
    combines the pmfs, and one Gaussian sum over the lattice follows.  Each
    pmf runs to K (a tail below 1e-15 for K >= 40 at nu(g) <= 1) and on, past
    2 nu(g) where each term is under half the last, until they fall below 1e-17.
    """
    a = float(t.a)
    if a <= 0:
        raise ValueError("density requires positive gaussian variance")
    if not all(isinstance(p, Fraction) for p in t.nu.points):
        raise TypeError("density requires rational jump points")
    d = math.lcm(*(p.denominator for p in t.nu.points))
    pmf, lo = np.ones(1), 0  # pmf[j] is the mass at (lo + j)/d
    for p, m in t.nu:
        lam, step = float(m), int(p * d)
        pois = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(K + 1)]
        while len(pois) <= 2 * lam or pois[-1] > 1e-17:
            pois.append(pois[-1] * lam / len(pois))
        top = len(pois) - 1
        jumps = np.zeros(top * abs(step) + 1)
        jumps[:: abs(step)] = pois
        if step < 0:
            jumps, lo = jumps[::-1], lo + top * step
        pmf = np.convolve(pmf, jumps)
    center = float(t.b) - sum(float(m) * float(p) / (1 + float(p) ** 2) for p, m in t.nu)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in np.flatnonzero(pmf):
        out += pmf[j] * np.exp(-((x - center - (lo + j) / d) ** 2) / (2 * a))
    out /= math.sqrt(2 * math.pi * a)
    return out if out.shape else float(out)


def _law_range(g: ScrewFunctionData) -> float:
    """|mean| + x, x >= 12, with Bennett's bound on P(|X - mean| >= x) below 1e-13.

    X is the law with characteristic function exp g: a Gaussian of variance
    a plus jumps of size at most M = max|gamma|, with mean c + sum m gamma/(1
    + gamma^2) and variance v = a + sum nu(gamma) gamma^2 = tau(R).  Bennett's
    inequality bounds the tail by 2 exp(-(v/M^2) h(M x/v)), h(u) = (1 + u)
    log(1 + u) - u, the Gaussian 2 exp(-x^2/(2v)) in the limit M -> 0.  A
    multiple of the standard deviation alone misses a rare large jump.
    """
    atoms = g.float_atoms
    mean = float(g.c) + sum(m * gam / (1 + gam * gam) for gam, m in atoms)
    v = sum(m for _, m in atoms)
    M = max((abs(gam) for gam, _ in atoms), default=0.0)

    def log_tail(x):
        if M == 0.0:
            return -x * x / (2.0 * v)
        u = M * x / v
        return -(v / M**2) * ((1.0 + u) * math.log1p(u) - u)

    x = 12.0
    while v > 0 and math.log(2.0) + log_tail(x) > math.log(1e-13):
        x *= 1.25
    return abs(mean) + x


def idd_charfn_check(g: ScrewFunctionData, t_points, x_range: float | None = None,
                     n: int = 4097) -> list[float]:
    """|charfn of the density - exp(g(t))| at each requested t.

    The density is integrated by Simpson over [-x_range, x_range], by
    default the law's range from _law_range.
    """
    trip = levy_triplet(g)
    if x_range is None:
        x_range = _law_range(g)
    xs = np.linspace(-x_range, x_range, n)
    dens = idd_density(trip, xs)
    w = _simpson_weights(n, xs[1] - xs[0])
    out = []
    for t in t_points:
        charfn = np.sum(w * dens * np.exp(1j * float(t) * xs))
        out.append(abs(charfn - np.exp(complex(eval_screw(g, float(t))))))
    return out


# ---------------------------------------------------------------------------
# mean periodicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanPeriodicReport:
    convolution_residual: float
    one_sided_residual: float
    fourier_carleman_residual: float

    def max_residual(self) -> float:
        return max(self.convolution_residual, self.one_sided_residual,
                   self.fourier_carleman_residual)


def _kernel_and_convolution(g: ScrewFunctionData):
    """The closed forms of the module docstring: (c, h, phi, one_sided).

    c and h are the exact Hermite coefficients of the kernel and of the
    one-sided convolution, in ascending order; phi(u) and one_sided(t)
    evaluate them on float arrays.
    """
    if not g.tau.is_exact:
        raise TypeError("mean periodicity requires an exact measure")
    atoms = [(gam, m.as_fraction()) for gam, m in g.tau]
    p = [Fraction(0)] * 3 + _monic_from_roots([-gam for gam, _ in atoms if gam])  # z^3 prod (z + gamma)
    c = [pk * (-I) ** k for k, pk in enumerate(p)]
    derivs = [  # g(0), g'(0), ..., g^(deg P - 1)(0)
        Fraction(g.g0),
        ExactComplex(0, Fraction(g.c) + sum(m * gam / (1 + gam * gam) for gam, m in atoms)),
        -sum(m for _, m in atoms),
    ] + [I**j * sum(m * gam ** (j - 2) for gam, m in atoms) for j in range(3, len(p) - 1)]
    h = [0] * (len(p) - 1)
    for k in range(1, len(p)):
        for j in range(k):
            h[k - 1 - j] -= c[k] * (-1) ** j * derivs[j]
    cf, hf = np.array([complex(x) for x in c]), np.array([complex(x) for x in h])
    return (c, h, lambda u: hermite.hermval(u, cf) * np.exp(-(u**2)),
            lambda t: hermite.hermval(t, hf) * np.exp(-(t**2)))


def mean_periodic_checks(g: ScrewFunctionData | None = None) -> MeanPeriodicReport:
    """Annihilation, the one-sided convolution and the Fourier-Carleman quotient
    of g, the three-point screw function by default, on an exact measure.

    Annihilation and the quotient are the exact identities of the module docstring,
    each residual the largest |coefficient| of what must vanish (K mod z^3 and mod
    each z + gamma; z^2 N D + i Num K): 0.0 exactly when the identity holds.  The one
    float check compares the closed one-sided convolution with Simpson on [-a, t] at
    25 points t of [-3, 3], in units of max(1, max |one_sided| there); a grows with
    deg P and is never below 7.
    """
    g = g if g is not None else g0_data()
    ts = np.linspace(-3.0, 3.0, 25)
    c, h, phi, one_sided = _kernel_and_convolution(g)
    K = Polynomial([ck * I**k for k, ck in enumerate(c)])
    N = Polynomial([hk * I**k for k, hk in enumerate(h)])

    # annihilation: the convolution with phi kills 1, t, t^2 and each exp(i t gamma)
    r_conv = _largest(K.coeffs[:3] + tuple(K(-gam) for gam in g.tau.points if gam))

    # the one-sided convolution, integral over u < t, against its closed form, on
    # [-a, t]: phi is exp(-u^2) times a Hermite series of degree deg P, whose zeros lie
    # inside sqrt(2 deg P + 1), and it is negligible a margin of 1.5 past them
    m, a = 4097, max(7.0, math.sqrt(2 * len(c) - 1) + 1.5)
    closed = one_sided(ts)
    r_one = 0.0
    for t, val in zip(ts, closed):
        conv_plus, hi = 0j, min(t, a)
        if hi > -a:
            uu = np.linspace(-a, hi, m)
            conv_plus = np.sum(_simpson_weights(m, uu[1] - uu[0]) * eval_screw(g, t - uu) * phi(uu))
        r_one = max(r_one, abs(conv_plus - val))
    r_one /= max(1.0, float(np.max(np.abs(closed))))

    # the Fourier-Carleman quotient N/K is -(i/z^2) Q(z), Q of (-g(0), c, tau)
    Q = q_from_measure(NevanlinnaData(-g.g0, g.c, g.tau))
    r_fc = _largest((Polynomial.monomial(2) * N * Q.den + I * Q.num * K).coeffs)

    return MeanPeriodicReport(r_conv, float(r_one), r_fc)
