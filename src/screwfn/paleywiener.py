"""The constant-Hamiltonian family: sinc kernels and truncated lattices.

Exp(-i r z) generates the Paley-Wiener space of bandwidth r: the kernel is
sin(r(w - conj z))/(pi (w - conj z)), the level set is the odd half-integer
lattice (pi/2r)(2n-1) with constant masses pi/r, the Nevanlinna function is
tan(rz), and the structure Hamiltonian is the identity matrix on [0, r]
with the rotation fundamental solution.

Everything infinite is truncated at a configurable order N with recorded
O(1/N) tails; the truncation-halving behavior (error ratio ~2 from N to 2N)
is itself part of the checks, standing in for the infinite-dimensional
statements that cannot be verified at desk scale.

One helper computes the lattice nodes g_n and one evaluator the basis F_n
on an array of points; the sampling matrix, the Gram and the norm defects
all call it.  The Gram fills its sample matrix row by row and keeps two
copies alive: the weighted one and, conjugated in place, the original.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .screw import _simpson_weights
from .spectra import DiscreteMeasure

__all__ = [
    "PWFrame",
    "pw_kernel",
    "pw_measure",
    "pw_lattice",
    "pw_basis_value",
    "pw_sampling_matrix",
    "pw_basis_gram",
    "pw_truncated_norm_defect",
    "pw_fundamental",
    "pw_ode_residual",
    "tan_partial_fraction",
    "g_r_eval",
    "g_r_tail_bound",
    "g_r_laplace_check",
    "pw_weyl_is_fourier",
    "WeylFourierReport",
]


@dataclass(frozen=True)
class PWFrame:
    """Bandwidth r > 0 and lattice truncation order N >= 1."""

    r: float
    N: int

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("bandwidth r must be positive")
        if self.N < 1:
            raise ValueError("truncation order must be >= 1")


def pw_kernel(r: float, z: complex, w: complex) -> complex:
    """sin(r(w - conj z)) / (pi (w - conj z)); r/pi on the diagonal."""
    d = complex(w) - complex(z).conjugate()
    if abs(d) < 1e-12:
        return r / math.pi
    return cmath.sin(r * d) / (math.pi * d)


def _lattice(r: float, n):
    """The level-set node g_n = (pi/2r)(2n - 1); n an integer or an integer array."""
    return (math.pi / (2 * r)) * (2 * n - 1)


def pw_lattice(frame: PWFrame) -> np.ndarray:
    """Symmetric truncated level set g_n, n = -N+1..N, i.e. +-(pi/2r)(2k-1), k = 1..N."""
    return _lattice(frame.r, np.arange(-frame.N + 1, frame.N + 1))


def pw_measure(frame: PWFrame) -> DiscreteMeasure:
    """The truncated lattice with constant masses pi/r."""
    pts = pw_lattice(frame)
    return DiscreteMeasure(list(pts), [math.pi / frame.r] * len(pts))


def pw_basis_value(r: float, n: int, z):
    """F_n(z) = i cos(rz) / (sqrt(pi r)(z - g_n)), g_n = (pi/2r)(2n-1).

    z may be an array; a scalar z gives a complex.
    """
    g, s = _lattice(r, n), math.sqrt(math.pi * r)
    z = np.asarray(z)
    d = z - g
    with np.errstate(divide="ignore", invalid="ignore"):
        v = 1j * (np.cos(r * z) / (s * d))
    v = np.where(np.abs(d) < 1e-9, -1j * r * math.sin(r * g) / s, v)
    return v if v.ndim else complex(v)


def pw_sampling_matrix(frame: PWFrame) -> np.ndarray:
    """|F_n(g_m)/E_r(g_m)| over the truncated basis; sqrt(r/pi) times identity."""
    pts = pw_lattice(frame)
    phase = np.exp(1j * frame.r * pts)
    ns = range(-frame.N + 1, frame.N + 1)
    return np.array([np.abs(pw_basis_value(frame.r, n, pts) * phase) for n in ns])


_OSC_POINTS = 32769  # fewest Simpson nodes on [-T, T]; odd, as Simpson's rule needs


def _osc_grid(T: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    n = max(_OSC_POINTS, int(40 * (2 * T) / (math.pi / r)) | 1)
    xs = np.linspace(-T, T, n)
    return xs, _simpson_weights(n, xs[1] - xs[0])


def pw_basis_gram(frame: PWFrame, n_max: int, T: float | None = None) -> np.ndarray:
    """Quadrature Gram of {F_n : |n| <= n_max} over [-T, T].

    The lattice-sampled Gram is the identity exactly (each F_n interpolates
    the lattice), so the meaningful truncation check is the finite-range
    integral Gram, whose defect decays like 1/T.
    """
    if T is None:
        T = 2 * _lattice(frame.r, n_max + 1) + 20
    xs, w = _osc_grid(T, frame.r)
    vals = np.empty((2 * n_max + 1, len(xs)), dtype=complex)
    for i, n in enumerate(range(-n_max, n_max + 1)):
        vals[i] = pw_basis_value(frame.r, n, xs)
    weighted = vals * w
    np.conjugate(vals, out=vals)
    return weighted @ vals.T


def pw_truncated_norm_defect(frame: PWFrame, n: int, T: float) -> float:
    """1 - integral_{-T}^{T} |F_n|^2, positive and O(1/T)."""
    xs, w = _osc_grid(T, frame.r)
    v = pw_basis_value(frame.r, n, xs)
    return float(1.0 - np.sum(w * np.abs(v) ** 2))


def pw_fundamental(r: float, t: float, z: complex) -> np.ndarray:
    """Rotation fundamental solution [[cos(tz), sin(tz)], [-sin(tz), cos(tz)]]."""
    if not 0 <= t <= r:
        raise ValueError(f"t={t} outside [0, {r}]")
    c, s = cmath.cos(t * z), cmath.sin(t * z)
    return np.array([[c, s], [-s, c]])


def pw_ode_residual(r: float, t: float, z: complex, h: float = 1e-5) -> float:
    """Finite-difference residual of dW/dt J = z W for the rotation solution."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    t = min(max(t, h), r - h)
    dW = (pw_fundamental(r, t + h, z) - pw_fundamental(r, t - h, z)) / (2 * h)
    res = dW @ J - z * pw_fundamental(r, t, z)
    return float(np.max(np.abs(res)))


def tan_partial_fraction(r: float, z: complex, N: int) -> complex:
    """(1/r) sum over the truncated lattice of 1/(g - z); converges to tan(rz) at O(1/N)."""
    frame = PWFrame(r, N)
    pts = pw_lattice(frame)
    return complex(np.sum(1.0 / (pts - complex(z)))) / r


def g_r_eval(frame: PWFrame, t) -> float:
    """Truncated series (2/r) sum (cos(t g_n) - 1)/g_n^2 over the positive lattice."""
    t = np.asarray(t, dtype=float)
    g = _lattice(frame.r, np.arange(1, frame.N + 1))
    terms = (np.cos(np.multiply.outer(t, g)) - 1.0) / g**2
    val = (2.0 / frame.r) * terms.sum(axis=-1)
    return val if val.shape else float(val)


def g_r_tail_bound(frame: PWFrame) -> float:
    """Bound on the absolute truncation error of g_r_eval, uniform in t."""
    # |cos - 1| <= 2 and sum_{k>N} g_k^{-2} <= (r/pi) / g_N
    return 4 / (math.pi * _lattice(frame.r, frame.N))


def g_r_laplace_check(frame: PWFrame, z: complex, T: float = 100.0) -> float:
    """| integral_0^T g_r e^{izt} dt + i tan(rz)/z^2 |, Im z > 0.

    The truncated series is integrated termwise in closed form, so the
    residual reflects only the lattice truncation and the T-tail.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("g_r_laplace_check requires Im z > 0")
    g = _lattice(frame.r, np.arange(1, frame.N + 1))

    def eint(a: np.ndarray) -> np.ndarray:
        # integral_0^T e^{iat} dt for complex a (vectorized)
        return (np.exp(1j * a * T) - 1.0) / (1j * a)

    total = (2.0 / frame.r) * np.sum(
        (0.5 * (eint(z + g) + eint(z - g)) - eint(z + 0 * g)) / g**2
    )
    rhs = -(1j / z**2) * cmath.tan(frame.r * z)
    return abs(total - rhs)


def _poly_osc_integral(coeffs, z: complex, hi: float) -> complex:
    """integral_0^hi p(t) e^{izt} dt for p given by ascending coefficients."""
    z = complex(z)
    if z == 0:
        return sum(complex(c) * hi ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
    total = 0j
    # I_k = [t^k e^{izt}/(iz)]_0^hi - (k/(iz)) I_{k-1}
    Ik = (cmath.exp(1j * z * hi) - 1.0) / (1j * z)
    vals = [Ik]
    for k in range(1, len(coeffs)):
        Ik = (hi**k * cmath.exp(1j * z * hi)) / (1j * z) - (k / (1j * z)) * vals[k - 1]
        vals.append(Ik)
    for k, c in enumerate(coeffs):
        total += complex(c) * vals[k]
    return total


@dataclass(frozen=True)
class WeylFourierReport:
    transform_residual: float
    norm_ratio: float  # (half |Psi|^2) / |F|^2_{L2(H)}; the measured constant


def pw_weyl_is_fourier(frame: PWFrame, f_coeffs, g_coeffs,
                       z_samples=(0.0, 1.0, -2.0, 0.5 + 0.7j, 2j)) -> WeylFourierReport:
    """Compare the Weyl transform on [0, r] with the Fourier transform of the
    parity extension Psi = f - i g (f even, g odd).

    The Weyl side is integrated in closed form; the Fourier side by Simpson
    quadrature on [-r, r].  The norm identity constant is measured, not
    asserted: with the 1/pi norm convention the ratio is pi.
    """
    r = frame.r
    f = [complex(c) for c in f_coeffs]
    g = [complex(c) for c in g_coeffs]

    n = 8193
    ts = np.linspace(-r, r, n)
    w = _simpson_weights(n, ts[1] - ts[0])
    fe = np.polyval(list(reversed(f)) or [0], np.abs(ts))
    go = np.sign(ts) * np.polyval(list(reversed(g)) or [0], np.abs(ts))
    psi = fe - 1j * go

    resid = 0.0
    for z in z_samples:
        z = complex(z)
        # (1/pi) integral_0^r f cos(tz) + g sin(tz) dt via e^{+-izt}
        fplus = _poly_osc_integral(f, z, r)
        fminus = _poly_osc_integral(f, -z, r)
        gplus = _poly_osc_integral(g, z, r)
        gminus = _poly_osc_integral(g, -z, r)
        weyl = ((fplus + fminus) / 2 + (gplus - gminus) / (2j)) / math.pi
        fourier = np.sum(w * psi * np.exp(1j * z * ts)) / (2 * math.pi)
        resid = max(resid, abs(weyl - fourier))

    norm_h = (
        _poly_osc_integral(np.convolve(f, np.conj(f)) if f else [], 0.0, r)
        + _poly_osc_integral(np.convolve(g, np.conj(g)) if g else [], 0.0, r)
    ).real / math.pi
    half_psi = 0.5 * float(np.sum(w * np.abs(psi) ** 2))
    ratio = half_psi / norm_h if norm_h else float("nan")
    return WeylFourierReport(float(resid), float(ratio))
