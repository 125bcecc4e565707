"""Screw functions from spectral data and the Hilbert space they generate.

A screw function with discrete spectral data (g(0), drift c, measure tau)
evaluates as

    g(t) = g(0) + i c t - tau({0}) t^2/2
           + sum_{g != 0} m * [ (exp(i t g) - 1)/g^2 - i t / (g (1 + g^2)) ]

and induces the kernel G(t,s) = g(t-s) - g(t) - g(-s) + g(0), nonnegative
definite exactly when the data is admissible.  Compactly supported test
functions with vanishing integral embed isometrically into L^2(tau) via

    Phi1(phi, z) = integral phi(t) (exp(izt) - 1)/z dt,

which is the identity every quadrature check below exercises.  Its
integrand is the screw line (exp(izt) - 1)/z, whose Gram over L^2(tau) is
G(t, s) (von Neumann & Schoenberg, 1941).  _screw_line, its one evaluator,
forms one exp per point; phi1, inner_product_Hg, _aligned_test_functions
and weyl's phat, screw_line_S and diagram_check read its columns.

On a uniform grid t_i = lo + i h the kernel matrix is a Toeplitz matrix
[g((i-j) h)] plus the rank-two terms -g(t_i) - g(-t_j) and the constant
g(0), so _kernel_form needs g only at the 2n - 1 lags k h, |k| < n, not at
n^2 points.  Real data make g(-x) = conj g(x), so _uniform_kernel_samples
evaluates g at 2n points, the lags k h for 0 <= k < n and the t_i, and
takes the negative lags and g(-t_i) as their conjugates.  The Toeplitz
part is the top-left n x n block of a circulant of length L >= 2n - 1
whose first column holds g(m h) at index m and g(-m h) at L - m, for
0 <= m < n; as L - m >= n, no two lags share an index (Golub & Van Loan,
Matrix Computations, section 4.7).  The FFT of that column, the
circulant's eigenvalues, is taken once.  A product with a vector is then
one fft/ifft pair, and the quadratic form v^H T v one FFT,
sum_k lambda_k |V_k|^2 / L by Parseval.  L is the least
2^a 3^b 5^c >= 2n - 1 (4 320 at n = 2049), which pocketfft transforms in
about half the time of the next power of two (8 192).  Against the dense
double sum the product is within 1.2e-15 relative and the quadratic form
within 7.7e-15 at n = 513, 1025 and 2049.  At n = 2049 one product costs
0.14-0.26 ms, where numpy's direct convolution took 2.1-2.6 ms, on one
core of a shared 2-vCPU x86-64 host.  Both test functions of
inner_product_Hg must share one grid (same support and sample count).
weyl.diagram_check builds the form once and takes the quadratic form of
every sample.  pd_check, which needs the dense matrix whole for its
eigenvalues, reads the same samples (_uniform_kernel_samples) and views
the Toeplitz part in the lag vector without a copy; so it takes only
uniform grids.  kernel_g, for any t and s, evaluates g at every t - s.

pd_check solves a real symmetric eigenproblem when the grid is symmetric
about 0 (t_{n-1-i} = -t_i).  Real data make g(-x) = conj g(x), so
G(-t, -s) = conj G(t, s), and the Hermitian part H = A + iB satisfies
J H J = conj H for the reversal matrix J: H is centro-Hermitian.  With
the unitary U = (I + iJ)/sqrt 2, U^H H U = A - BJ, a real symmetric
matrix (A. Lee, "Centrohermitian and skew-centrohermitian matrices",
Linear Algebra Appl. 29, 1980).  So H and A - B[:, ::-1] have one
spectrum, and the real eigvalsh costs about a third of the complex one.
Any other grid keeps the complex eigvalsh of H.

An even measure, tau({-gamma}) = tau({gamma}) for every atom (tested
exactly on tau), makes g(t) - i c t real and even; the drift and g(0)
cancel in G, so on a symmetric grid B = Im H is 0 in exact arithmetic,
and pd_check takes H = A, a real symmetric matrix with J A J = A
(centrosymmetric).  With m = floor(n/2), P = A[:m, :m] and
R = A[:m, n-m:][:, ::-1], the spectrum of A is the union of those of
P + R and P - R; for odd n, P + R is bordered by the middle column of A
scaled by sqrt 2 and the middle entry (A. Cantoni and P. Butler,
"Eigenvalues and eigenvectors of symmetric centrosymmetric matrices",
Linear Algebra Appl. 13, 1976).  At n = 300 the two half-size solves
took 2.4 ms against 5.6 ms for the one real solve, on one core of a
shared 2-vCPU x86-64 host.  The dropped B is rounding alone: over 200
random even measures at n = 2-300 the union of the two spectra agreed
with the complex eigvalsh of kernel_g's matrix to 1.2e-14 of max|lambda|,
within the 1.3e-14 by which that spectrum and the one of the matrix read
at the lags differ.

laplace_check integrates g(t) e^{izt} over [0, T] by one composite
Gauss-Legendre rule: 16 nodes on each of P equal panels, with P the least
count for which omega h <= 6, where omega = max|gamma| + |z| and h = T/P.
g is evaluated once, on all the nodes.  Its docstring gives the error
bound: below 2e-18 of the integrand's size near a panel.

eval_screw has one evaluation path, and it returns, bit for bit, what the
plain numpy expression of the sum above returns: the per-atom loop that
tests/test_screw.py keeps as its reference.  Each term is formed by the same
IEEE operations in the same order, and the terms are added in atom order.
t is flattened and evaluated _BLOCK = 8192 points at a time into one
preallocated output, so each complex temporary (128 KB) stays in cache.
The temporaries of one block are reused for every atom.  A scalar t is a
one-point block, and its value comes back as a Python complex.

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
random_test_function is one draw of _random_draws, a generator that forms
cos(kt), sin(kt), the window and the window's Simpson integral once and
then yields draw after draw from one rng; each draw reads rng in the same
order and takes the same IEEE operations as a single call, so
weyl.diagram_check's samples are bit for bit those of successive calls.
aligned_test_function is one row of _aligned_test_functions, which samples
the windowed monomials and builds their functional matrix once and solves
it per row of targets.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import legendre

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
_GL_POINTS = 16  # Gauss-Legendre nodes per panel of laplace_check's rule
_GL_PHASE = 6.0  # the bound on omega h for each panel of that rule (laplace_check)
_GL_NODES, _GL_WEIGHTS = legendre.leggauss(_GL_POINTS)


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
    complex, anything else an array of t's shape, both from the blocked
    path of the module docstring.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    _eval_blocks(g, t.reshape(-1), out.reshape(-1))
    return out if out.ndim else complex(out)


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
    """G(t,s) = g(t-s) - g(t) - g(-s) + g(0); supports broadcasting, scalars give a Python complex.

    g is evaluated at every t - s; g(t) and g(-s) are subtracted and g(0)
    added in place, so an n x n kernel holds its result and t - s alone.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    val = eval_screw(g, t - s)
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
    """Minimum eigenvalue of the Hermitian part H of [G(t_i, t_j)] on a uniform grid.

    The grid must lie within 4 ulps of max|t| of linspace(t_0, t_{n-1}, n);
    G is a Toeplitz view of g at the 2n - 1 lags plus rank-one terms.  With
    A = Re H and B = Im H, a grid symmetric about 0 (to 4 ulps) takes the
    real eigvalsh of A's two half-size blocks (_even_odd_blocks) for an even
    tau, where B is 0, and of A - B[:, ::-1], formed in place of H, for any
    other tau; any other grid the complex eigvalsh of H (module docstring).
    At most two n x n arrays are held at once.  ValueError for an empty
    grid, for points that are not finite, distinct and uniform, and where g
    overflows.
    """
    ts = np.asarray(list(grid), dtype=float)
    n = len(ts)
    if not n:
        raise ValueError("grid must hold at least one point")
    if not np.isfinite(ts).all():
        raise ValueError("grid points must be finite")
    if len(np.unique(ts)) != n:
        raise ValueError("grid points must be distinct")
    with np.errstate(all="ignore"):  # an overflow is named below, before any n x n work
        at_lags, g_t, g_minus_t, g0 = _uniform_kernel_samples(g, ts[0], ts[-1], n)
    if not all(np.isfinite(v).all() for v in (at_lags, g_t, g_minus_t)):
        raise ValueError("grid reaches where g overflows: g(t_i - t_j) or g(+-t_i) is not finite")
    if np.abs(ts - np.linspace(ts[0], ts[-1], n)).max() > 4 * np.spacing(np.abs(ts).max()):
        raise ValueError("grid must be uniform")
    G = sliding_window_view(at_lags[::-1], n)[::-1] - g_t[:, None]  # g((i - j) h) - g(t_i)
    G -= g_minus_t
    G += g0
    symmetric = np.abs(ts + ts[::-1]).max() <= 4 * np.spacing(np.abs(ts).max())
    masses = dict(g.tau)
    even = symmetric and all(masses.get(-gamma) == m for gamma, m in g.tau)
    if symmetric:
        H = G.real + G.real.T  # 2 A
        if not even:  # 2 (A - B J), with 2 B J = (Im G - Im G^T)[:, ::-1]
            H -= G.imag[:, ::-1]
            H += G.imag.T[:, ::-1]
    else:
        H = G.conj().T  # formed in place: bit-identical to (G + G^H) / 2
        H += G
    del G
    H *= 0.5
    lam = min(float(np.linalg.eigvalsh(S).min()) for S in (_even_odd_blocks(H) if even else [H]))
    return PdReport(lam, lam >= -tol)


def _even_odd_blocks(H: np.ndarray) -> list[np.ndarray]:
    """The nonempty blocks P + R and P - R whose spectra make up that of H (module docstring).

    H is real, symmetric and centrosymmetric; m = n // 2, P = H[:m, :m] and
    R = H[:m, n - m:][:, ::-1].  For odd n, P + R gains the middle row and
    column of H scaled by sqrt 2, and the middle entry.
    """
    n = len(H)
    m = n // 2
    P, R = H[:m, :m], H[:m, n - m :][:, ::-1]
    even, odd = P + R, P - R
    if n % 2:
        mid = H[:m, m : m + 1] * math.sqrt(2.0)
        even = np.block([[even, mid], [mid.T, H[m : m + 1, m : m + 1]]])
    return [S for S in (even, odd) if len(S)]


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


def _screw_line(ts, points) -> np.ndarray:
    """The screw line [(exp(i g t) - 1)/g] over rows t and columns g, i t at g = 0: Phi1's integrand."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty((len(ts), len(points)), dtype=complex)
    for j, gam in enumerate(points):
        out[:, j] = 1j * ts if gam == 0 else (np.exp(1j * gam * ts) - 1.0) / gam
    return out


def _phi1_columns(phi: TestFunction, line: np.ndarray) -> np.ndarray:
    """[Phi1(phi, g)] over the columns of line = _screw_line(phi.grid, points), by phi.quad each."""
    return np.array([phi.quad(phi.samples * column) for column in line.T], dtype=complex)


def phi1(phi: TestFunction, z: complex) -> complex:
    """Phi1(phi, z) = integral phi(t) (exp(izt) - 1)/z dt; the z=0 limit is i t."""
    return complex(_phi1_columns(phi, _screw_line(phi.grid, [complex(z)]))[0])


def random_test_function(rng: np.random.Generator, support=(-3.0, 3.0), n: int = 2049) -> TestFunction:
    """Smooth random zero-mean test function: windowed random trig polynomial."""
    return next(_random_draws(rng, support, n))


def _random_draws(rng: np.random.Generator, support, n: int):
    """Successive random_test_function(rng, support, n) draws, with the grid's tables taken once.

    cos(kt), sin(kt), the window and its Simpson integral (on TestFunction's
    weights for the grid) do not depend on the draw.  Each draw reads rng in
    the same order and forms its samples by the same IEEE operations as a
    windowed trig polynomial made zero-mean by TestFunction.zero_mean.
    """
    lo, hi = support
    ts = np.linspace(lo, hi, n)
    window = _bump(ts, lo, hi)
    waves = [(np.cos(k * ts), np.sin(k * ts)) for k in range(1, 4)]
    weights = TestFunction(window, support)._weights  # rejects a bad support or n
    window_integral = complex(np.sum(weights * window))
    while True:
        vals = np.zeros(n, dtype=complex)
        for cos_k, sin_k in waves:
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            vals += a * cos_k + b * sin_k
        vals += rng.normal() + 1j * rng.normal()
        samples = vals * window
        total = complex(np.sum(weights * samples))
        if total != 0:
            samples = samples - total / window_integral * window
        yield TestFunction(samples, support)


def aligned_test_function(points, targets) -> TestFunction:
    """Zero-mean test function with Phi1(phi, points[k]) = targets[k] for each k.

    Sampled at 4097 points of [-3, 3].  Solves the square linear system of
    the functionals integral(phi) and Phi1(phi, gamma) over the windowed
    monomials w(t) t^j, j <= len(points).
    """
    return _aligned_test_functions(points, [targets])[0]


def _aligned_test_functions(points, target_rows) -> list[TestFunction]:
    """aligned_test_function(points, targets) for each row of targets.

    The windowed monomials, one screw-line column per point and their
    functional matrix M are built once; each row is one solve of M.
    """
    support = (-3.0, 3.0)
    ts = np.linspace(*support, 4097)
    window = _bump(ts, *support)
    basis = [TestFunction(window * ts**j, support) for j in range(len(points) + 1)]
    line = _screw_line(ts, points)
    M = np.array([[f.integral(), *_phi1_columns(f, line)] for f in basis]).T
    out = []
    for targets in target_rows:
        coef = np.linalg.solve(M, np.array([0, *targets], dtype=complex))
        out.append(TestFunction(sum(c * f.samples for c, f in zip(coef, basis)), support))
    return out


def _uniform_kernel_samples(g: ScrewFunctionData, lo: float, hi: float, n: int):
    """g at the lags k h, |k| < n (h = 0 if n = 1), at t_i and -t_i of linspace(lo, hi, n), and g(0).

    g is read at 2n points, the lags k h for 0 <= k < n and the t_i; real
    data make g(-x) = conj g(x), so the negative lags and g(-t_i) are
    conjugates, equal to g read there up to the sign of a zero imaginary part.
    """
    ts = np.linspace(lo, hi, n)
    at_lags = eval_screw(g, np.arange(n) * ((hi - lo) / (n - 1) if n > 1 else 0.0))
    g_t = eval_screw(g, ts)
    return np.concatenate((at_lags[:0:-1].conj(), at_lags)), g_t, g_t.conj(), complex(float(g.g0))


def _fft_length(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: a length that pocketfft transforms fast."""
    while True:
        x = m
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        if x == 1:
            return m
        m += 1


def _kernel_form(g: ScrewFunctionData, support, n: int):
    """(apply, quadratic) for the kernel [G(t_i, t_j)] on the n-point grid of support.

    apply(v) = G v costs one fft/ifft pair and quadratic(v) = Re v^H G v one
    FFT, through the circulant of the module docstring at length
    _fft_length(2n - 1), whose eigenvalues are taken once.  The rank-two
    terms -g(t_i) - g(-t_j) and g(0) are added apart.
    """
    at_lags, g_t, g_minus_t, g0 = _uniform_kernel_samples(g, *support, n)
    size = _fft_length(2 * n - 1)  # the circulant's first column: g(m h) at m, g(-m h) at size - m
    eigenvalues = np.fft.fft(np.roll(np.append(at_lags, np.zeros(size + 1 - 2 * n)), 1 - n))

    def apply(v: np.ndarray) -> np.ndarray:
        total = np.sum(v)
        toeplitz = np.fft.ifft(eigenvalues * np.fft.fft(v, size))[:n]
        return toeplitz - g_t * total - np.sum(g_minus_t * v) + g0 * total

    def quadratic(v: np.ndarray) -> float:
        total = np.sum(v)
        toeplitz = np.dot(eigenvalues, np.abs(np.fft.fft(v, size)) ** 2) / size
        rank_two = np.vdot(v, g_t) * total + np.conj(total) * np.dot(g_minus_t, v)
        return float((toeplitz - rank_two + g0 * abs(total) ** 2).real)

    return apply, quadratic


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
    [G(t_i, t_j)] by _kernel_form, the FFT Toeplitz form of the module
    docstring; the measure side reads one screw-line column per atom.
    """
    phi_1._check_same_grid(phi_2)
    apply, _ = _kernel_form(g, phi_1.support, len(phi_1.samples))
    inner_s = apply(phi_1._weights * phi_1.samples)
    via_kernel = complex(np.sum(phi_2._weights * np.conj(phi_2.samples) * inner_s))

    atoms = np.array(g.float_atoms, dtype=float).reshape(-1, 2)
    line = _screw_line(phi_1.grid, atoms[:, 0])
    at_1, at_2 = (_phi1_columns(phi, line) for phi in (phi_1, phi_2))
    via_measure = complex(np.sum(at_1 * np.conj(at_2) * atoms[:, 1]))
    return InnerProductComparison(via_kernel, via_measure)


def laplace_check(
    g: ScrewFunctionData, Q: RationalFunction, z: complex, T: float = 80.0
) -> float:
    """| integral_0^T g(t) e^{izt} dt + (i/z^2) Q(z) |, valid for Im z > 0.

    The integral is the composite Gauss-Legendre rule of the module
    docstring: _GL_POINTS nodes on each of P panels of width h = T/P, with
    omega h <= _GL_PHASE = 6 for omega = max|gamma| + |z|.  The integrand
    is entire.  Map a panel to [-1, 1]; on the Bernstein ellipse E_rho,
    whose points lie within rho of the real segment, each exponential
    exp(i (gamma + z) t) exceeds its size on the panel by at most
    e^{omega h rho/2} <= e^{3 rho}.  Gauss's error on [-1, 1] is at most
    64 M/(15 (1 - rho^-2) rho^(2 _GL_POINTS)) for M the integrand's bound
    on E_rho (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
    SIAM Review 2008, Thm 4.5).  At rho = 8 that is
    64 e^24/(15 (1 - 8^-2) 8^32) < 2e-18 times the integrand's size near
    the panel, so the rule is exact to rounding.

    T must be large enough that the tail (polynomial growth of g against
    e^{-Im z * t}) is below the target tolerance; T = 80 covers Im z >= 1/2
    at 1e-8 for the data used here.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("laplace_check requires Im z > 0")
    omega = max((abs(gamma) for gamma, _ in g.float_atoms), default=0.0) + abs(z)
    panels = max(1, math.ceil(T * omega / _GL_PHASE))
    h = T / panels
    mid = (np.arange(panels) + 0.5) * h
    ts = (mid[:, None] + (h / 2.0) * _GL_NODES[None, :]).reshape(-1)
    ws = np.tile((h / 2.0) * _GL_WEIGHTS, panels)
    lhs = complex(np.sum(ws * eval_screw(g, ts) * np.exp(1j * z * ts)))
    rhs = -(1j / z**2) * complex(Q(z))
    return abs(lhs - rhs)
