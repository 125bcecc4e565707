"""Screw functions from spectral data and the Hilbert space they generate.

A screw function with discrete spectral data (g(0), drift c, measure tau)
evaluates as

    g(t) = g(0) + i c t - tau({0}) t^2/2
           + sum_{g != 0} m * [ (exp(i t g) - 1)/g^2 - i t / (g (1 + g^2)) ]

and induces the kernel G(t,s) = g(t-s) - g(t) - g(-s) + g(0), nonnegative
definite exactly when the data is admissible.  Compactly supported test
functions with vanishing integral embed isometrically into L^2(tau) via

    Phi1(phi, z) = integral phi(t) (exp(izt) - 1)/z dt,

which is the identity every quadrature check below exercises.

On a uniform grid t_i = lo + i h the kernel matrix is a Toeplitz matrix
[g((i-j) h)] plus the rank-two terms -g(t_i) - g(-t_j) and the constant
g(0), so inner_product_Hg applies it to a vector as one convolution with
the 2n - 1 values g(k h), |k| < n, and needs g at O(n) points, not n^2.
This is why both of its test functions must share one grid (same support
and sample count).  weyl.diagram_check takes its isometry legs from it;
only pd_check builds the dense matrix, which it needs whole for its
eigenvalues.

eval_screw has two evaluation paths, and both return, bit for bit, what
the plain numpy expression of the sum above returns: the per-atom loop that
tests/test_screw.py keeps as its reference.  Each term is formed by the same
IEEE operations in the same order, and the terms are added in atom order.

- A scalar t takes a Python complex path with cmath.exp, which costs a
  microsecond or so per atom instead of a numpy call per operation.  numpy
  divides a complex by a real c as a product with 1/c (Smith's algorithm
  with a zero imaginary part), while Python's complex division divides.
  The path therefore writes its two divisions as products with 1.0/gamma^2
  and 1.0/(gamma (1 + gamma^2)).  A complex product with a real factor
  rounds the same in both, since the cross products are exact zeros.
- An array t is flattened and evaluated _BLOCK = 8192 points at a time
  into one preallocated output, so each complex temporary (128 KB) stays
  in cache.  The temporaries of one block are reused for every atom.

Where -gamma and +gamma are both atoms, the later one takes the conjugate
of the earlier one's exp(i gamma t) instead of a second complex exp, the
dominant cost: about 50 ns per point against about 1 ns for each
arithmetic pass, measured on one core of a shared 2-vCPU x86-64 host.  The arguments i t gamma and -i t gamma are exact
negatives, and the complex exp of a purely imaginary argument is
(cos y, sin y), whose parts are even and odd bit for bit.  Signed zeros
may differ inside a term, but they vanish in the running sum, which never
holds -0.0 unless g(0) is the float -0.0: it starts at +0.0 or a nonzero
value, and an exact cancellation rounds to +0.0.  All of this is for
finite t.

Test functions are uniform-grid sampled; all their integrals use composite
Simpson rule, so quadrature-limited identities hold to ~1e-8 on smooth data
while measure-side sums are exact up to the same sampling error.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from .algebra import Polynomial, RationalFunction
from .spectra import DiscreteMeasure

__all__ = [
    "ScrewFunctionData",
    "TestFunction",
    "eval_screw",
    "kernel_g",
    "chord_length",
    "pd_check",
    "PdReport",
    "phi1",
    "inner_product_Hg",
    "InnerProductComparison",
    "laplace_check",
    "g0_data",
    "q0_function",
    "random_test_function",
    "aligned_test_function",
]

MIN_GRID = 513  # composite Simpson needs an odd point count; >= 512 samples
_BLOCK = 8192  # points per block of eval_screw's array path: 128 KB per complex temporary
_MAX_KEPT = 64  # exponentials held at once for mirror atoms: 8 MB at full blocks


@dataclass(frozen=True)
class ScrewFunctionData:
    """A screw function given by g(0), a real drift and a discrete spectral measure."""

    g0: float | Fraction
    c: float | Fraction
    tau: DiscreteMeasure

    @functools.cached_property
    def float_atoms(self) -> tuple[tuple[float, float], ...]:
        """The atoms (gamma, mass) of tau as floats, converted once per g.

        cached_property stores them in the instance __dict__, outside the
        dataclass fields, so == and hash still see only (g0, c, tau).  The
        cache is safe only because tau is immutable: it can never disagree
        with the measure it was read from.
        """
        return tuple((float(p), float(m)) for p, m in self.tau)

    @functools.cached_property
    def mirror_pairs(self) -> dict[int, int]:
        """{k: j} for atoms k at -gamma_j, j < k: atom k reuses atom j's exponential.

        Each j serves one k.  An atom waits for its mirror only while fewer
        than _MAX_KEPT atoms wait, so an evaluation holds at most _MAX_KEPT
        exponentials at once.  Cached like float_atoms.
        """
        waiting: dict[float, int] = {}
        pairs = {}
        for k, (gamma, _) in enumerate(self.float_atoms):
            if gamma == 0.0:
                continue
            j = waiting.pop(-gamma, None)
            if j is not None:
                pairs[k] = j
            elif len(waiting) < _MAX_KEPT:
                waiting[gamma] = k
        return pairs


def g0_data() -> ScrewFunctionData:
    """The data of g(t) = -t^2/2 + cos(t) - 1: unit mass at 0, half masses at +-1."""
    tau = DiscreteMeasure(
        [Fraction(-1), Fraction(0), Fraction(1)],
        [Fraction(1, 2), Fraction(1), Fraction(1, 2)],
    )
    return ScrewFunctionData(Fraction(0), Fraction(0), tau)


def q0_function() -> RationalFunction:
    """Q0(z) = (1 - 2z^2)/(z^3 - z), the Herglotz function of g0_data's measure."""
    return RationalFunction(Polynomial([1, 0, -2]), Polynomial([0, -1, 0, 1]))


def eval_screw(g: ScrewFunctionData, t):
    """Evaluate g at t (scalar or ndarray); complex valued.

    A scalar t (Python float, numpy scalar or 0-d array) gives a Python
    complex from the scalar path; anything else gives an array of t's shape
    from the blocked array path.  Both are described in the module docstring.
    """
    if np.ndim(t) == 0:
        return _eval_scalar(g, float(t))
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    _eval_blocks(g, t.reshape(-1), out.reshape(-1))
    return out


def _eval_scalar(g: ScrewFunctionData, t: float) -> complex:
    """g(t) in Python complex arithmetic, with numpy's rounding (module docstring)."""
    out = complex(float(g.g0)) + 1j * float(g.c) * t
    it, mirrors, kept = 1j * t, g.mirror_pairs, {}
    for k, (gamma, mass) in enumerate(g.float_atoms):
        if gamma == 0.0:
            out -= mass * t * t / 2.0
            continue
        if k in mirrors:
            e = kept.pop(mirrors[k]).conjugate()
        else:
            e = kept[k] = cmath.exp(it * gamma)
        out += mass * (
            (e - 1.0) * (1.0 / gamma**2) - it * (1.0 / (gamma * (1.0 + gamma**2)))
        )
    return out


def _eval_blocks(g: ScrewFunctionData, t: np.ndarray, out: np.ndarray) -> None:
    """Write g at the 1-D points t into out, _BLOCK points at a time (module docstring)."""
    g0, drift = complex(float(g.g0)), 1j * float(g.c)
    mirrors = g.mirror_pairs
    reused = set(mirrors.values())
    it, term, tmp = (np.empty(min(len(t), _BLOCK), dtype=complex) for _ in range(3))
    for lo in range(0, len(t), _BLOCK):
        tb, ob = t[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
        n = len(tb)
        itb, termb, tmpb = it[:n], term[:n], tmp[:n]
        np.multiply(1j, tb, out=itb)
        ob[...] = g0
        ob += np.multiply(drift, tb, out=tmpb)
        kept = {}
        for k, (gamma, mass) in enumerate(g.float_atoms):
            if gamma == 0.0:
                ob -= mass * tb * tb / 2.0
                continue
            if k in mirrors:
                np.conj(kept.pop(mirrors[k]), out=termb)
            else:
                np.exp(np.multiply(itb, gamma, out=termb), out=termb)
                if k in reused:
                    kept[k] = termb.copy()
            termb -= 1.0
            termb *= 1.0 / gamma**2
            termb -= np.multiply(itb, 1.0 / (gamma * (1.0 + gamma**2)), out=tmpb)
            termb *= mass
            ob += termb


def kernel_g(g: ScrewFunctionData, t, s):
    """G(t,s) = g(t-s) - g(t) - g(-s) + g(0); supports broadcasting.

    The n x n kernel allocates its result and t - s, and nothing else of
    that size: g(t) and g(-s) are subtracted and g(0) added in place.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    val = eval_screw(g, t - s)
    if not np.ndim(val):
        return val - eval_screw(g, t) - eval_screw(g, -s) + complex(float(g.g0))
    val -= eval_screw(g, t)
    val -= eval_screw(g, -s)
    val += complex(float(g.g0))
    return val


def chord_length(g: ScrewFunctionData, t: float) -> float:
    """sqrt(G(t,t)), the chordal length of the associated screw line."""
    d = kernel_g(g, t, t)
    if d.real < -1e-10:
        raise ValueError(f"kernel not nonnegative at t={t}: G(t,t)={d.real}")
    return math.sqrt(max(d.real, 0.0))


@dataclass(frozen=True)
class PdReport:
    min_eigenvalue: float
    passed: bool


def pd_check(g: ScrewFunctionData, grid, tol: float = 1e-9) -> PdReport:
    """Minimum eigenvalue of the Hermitian part of [G(t_i, t_j)] on the grid."""
    ts = np.asarray(list(grid), dtype=float)
    if len(np.unique(ts)) != len(ts):
        raise ValueError("grid points must be distinct")
    G = kernel_g(g, ts[:, None], ts[None, :])
    H = G.conj().T  # the Hermitian part, formed in place: bit-identical to (G + G^H) / 2
    H += G
    H *= 0.5
    lam = float(np.linalg.eigvalsh(H).min())
    return PdReport(lam, lam >= -tol)


# ---------------------------------------------------------------------------
# sampled test functions
# ---------------------------------------------------------------------------

def _simpson_weights(n: int, h: float) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


class TestFunction:
    """Complex samples on a uniform grid over a compact support, zero at the ends."""

    __slots__ = ("grid", "samples", "support", "_weights")

    def __init__(self, samples, support):
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise ValueError("empty support")
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1 or len(samples) < MIN_GRID or len(samples) % 2 == 0:
            raise ValueError(f"need an odd number >= {MIN_GRID} of samples")
        if samples[0] != 0 or samples[-1] != 0:
            raise ValueError("test function must vanish at the support endpoints")
        grid = np.linspace(lo, hi, len(samples))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "support", (lo, hi))
        object.__setattr__(self, "_weights", _simpson_weights(len(samples), grid[1] - grid[0]))

    def __setattr__(self, *a):
        raise AttributeError("TestFunction is immutable")

    @staticmethod
    def from_callable(f, support, n: int = 2049) -> "TestFunction":
        lo, hi = float(support[0]), float(support[1])
        ts = np.linspace(lo, hi, n)
        vals = np.asarray([f(t) for t in ts], dtype=complex)
        vals[0] = vals[-1] = 0.0
        return TestFunction(vals, support)

    def quad(self, values: np.ndarray) -> complex:
        return complex(np.sum(self._weights * values))

    def integral(self) -> complex:
        return self.quad(self.samples)

    def fourier(self, z: complex) -> complex:
        """phi-hat(z) = integral phi(t) exp(izt) dt."""
        return self.quad(self.samples * np.exp(1j * complex(z) * self.grid))

    def zero_mean(self) -> "TestFunction":
        """Project onto vanishing integral by subtracting a fixed bump multiple."""
        total = self.integral()
        if total == 0:
            return self
        bump = _bump(self.grid, *self.support)
        scale = total / self.quad(bump)
        return TestFunction(self.samples - scale * bump, self.support)

    def _check_same_grid(self, other: "TestFunction") -> None:
        """Raise ValueError unless other is sampled on this grid (support and count)."""
        if self.support != other.support or len(self.samples) != len(other.samples):
            raise ValueError("incompatible test functions: not sampled on one grid")

    def __add__(self, other: "TestFunction") -> "TestFunction":
        self._check_same_grid(other)
        return TestFunction(self.samples + other.samples, self.support)

    def __mul__(self, scalar) -> "TestFunction":
        return TestFunction(self.samples * complex(scalar), self.support)

    __rmul__ = __mul__


def _bump(ts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The window (1 - u^2)^2 with u = (2t - (lo + hi))/(hi - lo), zero at both ends."""
    u = (2.0 * ts - (lo + hi)) / (hi - lo)
    return (1.0 - u * u) ** 2


def phi1(phi: TestFunction, z: complex) -> complex:
    """Phi1(phi, z) = integral phi(t) (exp(izt) - 1)/z dt; the z=0 limit is i t."""
    z = complex(z)
    if z == 0:
        return phi.quad(phi.samples * 1j * phi.grid)
    return phi.quad(phi.samples * (np.exp(1j * z * phi.grid) - 1.0) / z)


def random_test_function(rng: np.random.Generator, support=(-3.0, 3.0), n: int = 2049) -> TestFunction:
    """Smooth random zero-mean test function: windowed random trig polynomial."""
    lo, hi = support
    ts = np.linspace(lo, hi, n)
    window = _bump(ts, lo, hi)
    vals = np.zeros(n, dtype=complex)
    for k in range(1, 4):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        vals += a * np.cos(k * ts) + b * np.sin(k * ts)
    vals += rng.normal() + 1j * rng.normal()
    return TestFunction(vals * window, support).zero_mean()


def aligned_test_function(points, targets, support=(-3.0, 3.0), n: int = 4097) -> TestFunction:
    """Zero-mean test function with Phi1(phi, points[k]) = targets[k] for each k.

    Solves the square linear system of the functionals integral(phi) and
    Phi1(phi, gamma) over the windowed monomials w(t) t^j, j <= len(points).
    """
    lo, hi = support
    ts = np.linspace(lo, hi, n)
    window = _bump(ts, lo, hi)
    basis = [TestFunction(window * ts**j, support) for j in range(len(points) + 1)]
    M = np.array([[f.integral(), *(phi1(f, p) for p in points)] for f in basis]).T
    coef = np.linalg.solve(M, np.array([0, *targets], dtype=complex))
    return TestFunction(sum(c * f.samples for c, f in zip(coef, basis)), support)


@dataclass(frozen=True)
class InnerProductComparison:
    via_kernel: complex
    via_measure: complex

    @property
    def difference(self) -> float:
        return abs(self.via_kernel - self.via_measure)


def inner_product_Hg(
    g: ScrewFunctionData, phi_1: TestFunction, phi_2: TestFunction
) -> InnerProductComparison:
    """<phi_1, phi_2> two ways: kernel double integral and measure-side sum.

    The agreement of the two is the isometry of the embedding into L^2(tau);
    it is quadrature-limited, not exact.  Both test functions must be
    sampled on one grid (ValueError otherwise): the kernel side applies
    [G(t_i, t_j)] as the Toeplitz convolution described in the module
    docstring.
    """
    phi_1._check_same_grid(phi_2)
    (lo, hi), n, ts = phi_1.support, len(phi_1.samples), phi_1.grid
    v = phi_1._weights * phi_1.samples
    lags = np.arange(1 - n, n) * ((hi - lo) / (n - 1))
    total = np.sum(v)
    inner_s = (
        np.convolve(eval_screw(g, lags), v)[n - 1 : 2 * n - 1]
        - eval_screw(g, ts) * total
        - np.sum(eval_screw(g, -ts) * v)
        + complex(float(g.g0)) * total
    )
    via_kernel = complex(np.sum(phi_2._weights * np.conj(phi_2.samples) * inner_s))

    via_measure = 0j
    for gamma, mass in g.float_atoms:
        via_measure += phi1(phi_1, gamma) * np.conj(phi1(phi_2, gamma)) * mass
    return InnerProductComparison(via_kernel, complex(via_measure))


def laplace_check(
    g: ScrewFunctionData, Q: RationalFunction, z: complex, T: float = 80.0
) -> float:
    """| integral_0^T g(t) e^{izt} dt + (i/z^2) Q(z) |, valid for Im z > 0.

    T must be large enough that the tail (polynomial growth of g against
    e^{-Im z * t}) is below the target tolerance; T = 80 covers Im z >= 1/2
    at 1e-8 for the data used here.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("laplace_check requires Im z > 0")

    values = {}  # the two passes share most of their nodes

    def integrand(t):
        if t not in values:
            values[t] = eval_screw(g, t) * np.exp(1j * z * t)
        return values[t]

    def integrand_re(t):
        return integrand(t).real

    def integrand_im(t):
        return integrand(t).imag

    re, _ = integrate.quad(integrand_re, 0.0, T, limit=400, epsabs=1e-12, epsrel=1e-12)
    im, _ = integrate.quad(integrand_im, 0.0, T, limit=400, epsabs=1e-12, epsrel=1e-12)
    lhs = complex(re, im)
    rhs = -(1j / z**2) * complex(Q(z))
    return abs(lhs - rhs)
