"""Krein strings, infinitely divisible laws and mean-periodicity checks.

Three classical faces of the same discrete spectral data:

* a Stieltjes continued fraction turns a rational Herglotz function of the
  subclass q(z) = b + sum s_k/(l_k - z), l_k >= 0, into a string of point
  masses (positions and weights), and solving the string equation recovers
  q as the ratio of terminal slopes;
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

Continued fractions run in exact rational arithmetic; convolution and
Fourier checks use composite Simpson on super-exponentially decaying
integrands, so 1e-8 tolerances are comfortable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import hermite, polynomial

from .algebra import Polynomial, RationalFunction
from .exact import ExactComplex, PiScalar
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
    if not Q.is_odd():
        raise ValueError("substitution not rational: Q must be odd")
    num, den = Q.num, Q.den
    num_even, num_odd = num.even_part_coeffs(), num.odd_part_coeffs()
    den_even, den_odd = den.even_part_coeffs(), den.odd_part_coeffs()
    if num_odd.is_zero() and den_even.is_zero():
        # Q = n(z^2) / (z d(z^2)) -> q(w) = n(w)/(w d(w))
        return RationalFunction(num_even, Polynomial.x() * den_odd)
    if num_even.is_zero() and den_odd.is_zero():
        # Q = z n(z^2) / d(z^2) -> q(w) = n(w)/d(w)
        return RationalFunction(num_odd, den_even)
    raise ValueError("substitution not rational: mixed parity after reduction")


def _limit_at_minus_infinity(r: RationalFunction) -> Fraction:
    """lim_{z -> -inf} r(z) for deg num <= deg den, as an exact rational."""
    if r.num.degree > r.den.degree:
        raise ValueError("not a string function: unbounded at -infinity")
    if r.num.degree < r.den.degree:
        return Fraction(0)
    val = r.num.leading() / r.den.leading()
    if not val.is_real():
        raise ValueError("not a string function: complex limit")
    return val.re


def stieltjes_string(q: RationalFunction) -> KreinString:
    """Expand q as the alternating continued fraction of a string.

    Lengths are the finite limits at -infinity, masses come from the linear
    growth of the reciprocals; any negative extracted value means q is not
    a string function.  Termination at a mass step leaves L infinite,
    termination at a length step pins L to the accumulated length.
    """
    if q.mode != "exact":
        raise TypeError("stieltjes_string requires exact coefficients")
    pos = Fraction(0)
    masses: list[tuple[Fraction, Fraction]] = []
    cur = q
    while True:
        b = _limit_at_minus_infinity(cur)
        if b < 0:
            raise ValueError("not a string function: negative length")
        pos += b
        cur = cur - RationalFunction(Polynomial([ExactComplex(b)]))
        if cur.is_zero():
            return KreinString(tuple(masses), pos)
        u = RationalFunction(cur.den, cur.num)
        if u.num.degree != u.den.degree + 1:
            raise ValueError("not a string function: reciprocal does not grow linearly")
        lead = u.num.leading() / u.den.leading()
        if not lead.is_real() or lead.re >= 0:
            raise ValueError("not a string function: negative extracted mass")
        m = -lead.re
        masses.append((pos, m))
        cur = u - RationalFunction(Polynomial([ExactComplex(0), ExactComplex(-m)]))
        if cur.is_zero():
            return KreinString(tuple(masses), math.inf)
        cur = RationalFunction(cur.den, cur.num)


def string_solve(s: KreinString, lam, x, with_slopes: bool = False):
    """Solutions (phi, psi) of the string equation at position x.

    phi(0) = 1, phi'(0-) = 0; psi(0) = 0, psi'(0-) = 1; each point mass m at
    position p kicks the slope by -lam * m * y(p).  With lam=None the values
    are returned as exact polynomials in the spectral variable.
    """
    symbolic = lam is None
    x = Fraction(x) if not isinstance(x, Fraction) else x
    if x < 0:
        zero = Polynomial.zero() if symbolic else 0.0
        return (zero, zero, zero, zero) if with_slopes else (zero, zero)

    if symbolic:
        lam_poly = Polynomial.x()
        one, zero = Polynomial.one(), Polynomial.zero()
    else:
        lam_poly = complex(lam)
        one, zero = 1.0 + 0j, 0j
    states = {"phi": [one, zero], "psi": [zero, one]}
    cur = Fraction(0)
    for pos, m in s.masses:
        if pos > x:
            break
        for st in states.values():
            st[0] = st[0] + st[1] * (pos - cur)
            st[1] = st[1] - lam_poly * st[0] * m
        cur = pos
    vals = []
    for st in states.values():
        vals.append(st[0] + st[1] * (x - cur))
        vals.append(st[1])
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
    on the lattice (1/d)Z of the points' common denominator d: np.convolve
    combines the pmfs, truncated at K (a tail below 1e-15 for K >= 40 at
    nu(g) <= 1), and one Gaussian sum over the lattice follows.
    """
    a = float(t.a)
    if a <= 0:
        raise ValueError("density requires positive gaussian variance")
    d = math.lcm(*(Fraction(p).denominator for p in t.nu.points))
    pmf, lo = np.ones(1), 0  # pmf[j] is the mass at (lo + j)/d
    for p, m in t.nu:
        lam, step = float(m), int(p * d)
        jumps = np.zeros(K * abs(step) + 1)
        jumps[:: abs(step)] = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(K + 1)]
        if step < 0:
            jumps, lo = jumps[::-1], lo + K * step
        pmf = np.convolve(pmf, jumps)
    center = float(t.b) - sum(float(m) * float(p) / (1 + float(p) ** 2) for p, m in t.nu)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in np.flatnonzero(pmf):
        out += pmf[j] * np.exp(-((x - center - (lo + j) / d) ** 2) / (2 * a))
    out /= math.sqrt(2 * math.pi * a)
    return out if out.shape else float(out)


def idd_charfn_check(g: ScrewFunctionData, t_points, K: int = 40,
                     x_range: float = 12.0, n: int = 4097) -> list[float]:
    """|charfn of the density - exp(g(t))| at each requested t."""
    trip = levy_triplet(g)
    xs = np.linspace(-x_range, x_range, n)
    dens = idd_density(trip, xs, K=K)
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
    fourier_kernel_residual: float
    one_sided_residual: float
    fourier_carleman_residual: float

    def max_residual(self) -> float:
        return max(
            self.convolution_residual,
            self.fourier_kernel_residual,
            self.one_sided_residual,
            self.fourier_carleman_residual,
        )


def _kernel_and_convolution(g: ScrewFunctionData):
    """The closed forms of the module docstring: (p, phi, one_sided).

    p holds P's coefficients in ascending powers; phi(u) and one_sided(t)
    evaluate the kernel and the one-sided convolution on float arrays.
    """
    atoms = [(gam, m) for gam, m in g.float_atoms if gam]
    p = np.concatenate([[0.0] * 3, polynomial.polyfromroots([-gam for gam, _ in atoms])])
    c = p * np.array([(-1j) ** k for k in range(len(p))])
    derivs = [  # g(0), g'(0), ..., g^(deg P - 1)(0)
        complex(float(g.g0)),
        1j * (float(g.c) + sum(m * gam / (1 + gam * gam) for gam, m in atoms)),
        complex(-sum(m for _, m in g.float_atoms)),
    ] + [1j**j * sum(m * gam ** (j - 2) for gam, m in atoms) for j in range(3, len(p) - 1)]
    h = np.zeros(len(p) - 1, dtype=complex)
    for k in range(1, len(p)):
        for j in range(k):
            h[k - 1 - j] -= c[k] * (-1) ** j * derivs[j]
    return (p, lambda u: hermite.hermval(u, c) * np.exp(-(u**2)),
            lambda t: hermite.hermval(t, h) * np.exp(-(t**2)))


def mean_periodic_checks(g: ScrewFunctionData | None = None, grid=None) -> MeanPeriodicReport:
    """Annihilation, kernel transform, one-sided convolution and the
    Fourier-Carleman quotient of g (the three-point screw function by default).

    The kernel and the one-sided convolution are the closed forms of the
    module docstring.  Quadratures are composite Simpson on [-7, 7] against
    the exp(-t^2) factor ([-8, 8] for the quotient's numerator); tails are
    below 1e-10 so the 1e-8 tolerances in the report are honest.
    """
    g = g if g is not None else g0_data()
    ts = np.asarray(grid if grid is not None else np.linspace(-3.0, 3.0, 25), dtype=float)
    n = 16385
    us = np.linspace(-7.0, 7.0, n)
    w = _simpson_weights(n, us[1] - us[0])
    p, phi, one_sided = _kernel_and_convolution(g)
    phi_u = phi(us)

    # (i) full convolution vanishes
    conv_vals = (eval_screw(g, ts[:, None] - us[None, :]) * (w * phi_u)[None, :]).sum(axis=1)
    r_conv = float(np.max(np.abs(conv_vals)))

    # (ii) Fourier transform of the kernel
    r_four = 0.0
    for z in (0.0, 0.7, -1.3, 2j, 1 + 0.5j):
        z = complex(z)
        lhs = np.sum(w * phi_u * np.exp(1j * z * us))
        rhs = math.sqrt(math.pi) * np.exp(-(z**2) / 4) * polynomial.polyval(z, p)
        r_four = max(r_four, abs(lhs - rhs))

    # (iii) the one-sided convolution, integral over u < t, against its closed form
    m = 4097
    r_one = 0.0
    for t in ts:
        conv_plus, hi = 0j, min(t, 7.0)
        if hi > -7.0:
            uu = np.linspace(-7.0, hi, m)
            conv_plus = np.sum(_simpson_weights(m, uu[1] - uu[0]) * eval_screw(g, t - uu) * phi(uu))
        r_one = max(r_one, abs(conv_plus - one_sided(t)))

    # (iv) Fourier-Carleman quotient at z = 2i against -(i/z^2) Q(z), Q of (-g(0), c, tau)
    z = 2j
    tt = np.linspace(-8.0, 8.0, m)
    num_fc = np.sum(_simpson_weights(m, tt[1] - tt[0]) * one_sided(tt) * np.exp(1j * z * tt))
    den_fc = np.sum(w * phi_u * np.exp(1j * z * us))
    Q = q_from_measure(NevanlinnaData(-g.g0, g.c, g.tau))
    r_fc = abs(num_fc / den_fc - (-1j / z**2) * complex(Q(z)))

    return MeanPeriodicReport(r_conv, float(r_four), float(r_one), float(r_fc))
