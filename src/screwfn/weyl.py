"""The Hilbert space of constrained step vectors and the Weyl transform.

Elements of the space attached to a step Hamiltonian are per-segment pairs
(f, g) of polynomials in the local coordinate, with the projection onto the
segment direction constant on each indivisible interval.  The Weyl transform
integrates a step vector against the bottom (C, D) row of the solution of
the canonical system,

    (W F)(z) = (1/pi) * integral [C(t, z) D(t, z)] H(t) F(t) dt,

and is evaluated exactly: on each segment the row is affine in t with
matrix-polynomial coefficients, so the integral is a finite moment sum.
The kernel identity of that row makes W unitary onto the de Branges space.
The sum adds the row Polynomials of each segment where F is not zero, from
the integer rows of canonical's chain.  The row values at a level point
that L0_map, inverse_weyl and StepVector.from_row_values take are read off
those integer rows by Horner: Fractions at a rational point, and at a float
point the values of the Polynomial rows to the bit, signed zeros included.
inverse_weyl reads the rows only at the level points where F is not zero,
so the pi/2 eigenvector F_x is read at x alone.

inverse_weyl and L0_map weight each level point g by de Branges' sampling
weight mu({g})/|E(g)|^2 (Hilbert Spaces of Entire Functions, 1968).

The model-space screw line has coefficients c_g(t) = sqrt(mu({g})) *
(exp(itg) - 1)/g, with mu = pi tau, over the orthonormal eigenbasis at angle
pi/2 (limit i*t at g = 0); its Gram matrix reproduces pi * G(t, s) exactly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Polynomial, sharp
from .canonical import Hamiltonian, _affine_rows, _polys
from .debranges import HermiteBiehlerFrame, extension_eigenbasis
from .exact import PiScalar, PI
from .screw import (
    ScrewFunctionData,
    TestFunction,
    _kernel_form,
    aligned_test_function,
    phi1,
    random_test_function,
)

__all__ = [
    "StepVector",
    "ModelVector",
    "l2h_inner",
    "l2h_norm",
    "weyl_transform",
    "inverse_weyl",
    "screw_line_S",
    "phat",
    "E_times",
    "L0_map",
    "diagram_check",
    "DiagramReport",
]

_DIAGRAM_GRID = 2049  # samples per random test function of diagram_check


class StepVector:
    """Per-segment (f, g) polynomial pairs in the local segment coordinate.

    On a segment with normalized projector (pa, pb, pc) the component along
    the segment direction must be constant; this is checked exactly for
    exact coefficients and, for floats, to 1e-9 of the largest coefficient
    of f and g, the scale of the rounding the component carries.
    """

    __slots__ = ("H", "components")

    def __init__(self, H: Hamiltonian, components):
        comps = []
        if len(components) != len(H.segments):
            raise ValueError("need one (f, g) pair per segment")
        for seg, (f, g) in zip(H.segments, components):
            f = f if isinstance(f, Polynomial) else Polynomial([f])
            g = g if isinstance(g, Polynomial) else Polynomial([g])
            pa, pb, pc = seg.proj
            row = (pa, pb) if pa else (pb, pc)
            constrained = f * row[0] + g * row[1]
            varies = constrained.degree > 0
            if varies and constrained.mode == "float":
                scale = max(abs(complex(c)) for c in f.coeffs + g.coeffs)
                varies = any(abs(c) > 1e-9 * scale for c in constrained.coeffs[1:])
            if varies:
                raise ValueError("not in L-hat: constrained component varies on an indivisible interval")
            comps.append((f, g))
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "components", tuple(comps))

    def __setattr__(self, *a):
        raise AttributeError("StepVector is immutable")

    @staticmethod
    def zero(H: Hamiltonian) -> "StepVector":
        z = Polynomial.zero()
        return StepVector(H, [(z, z)] * len(H.segments))

    @staticmethod
    def basis_vector(H: Hamiltonian, k: int) -> "StepVector":
        """Constrained component 1 on segment k, zero elsewhere, free parts zero."""
        comps = []
        for j, seg in enumerate(H.segments):
            if j != k:
                comps.append((Polynomial.zero(), Polynomial.zero()))
                continue
            pa, pb, pc = seg.proj
            if pc == 0:
                comps.append((Polynomial.one(), Polynomial.zero()))
            elif pa == 0:
                comps.append((Polynomial.zero(), Polynomial.one()))
            else:
                c, s = math.sqrt(float(pa)), math.copysign(math.sqrt(float(pc)), float(pb))
                comps.append((Polynomial([complex(c)]), Polynomial([complex(s)])))
        return StepVector(H, comps)

    @staticmethod
    def from_row_values(H: Hamiltonian, gamma, scale=1) -> "StepVector":
        """scale * [C(t, gamma); D(t, gamma)] as a step vector."""
        return _step_from_rows(H, _affine_rows(H), gamma, scale)

    def value(self, t):
        """(f, g) at global time t."""
        tf = Fraction(t) if not isinstance(t, Fraction) else t
        k = self.H.segment_at(tf)
        tau = tf - self.H.breakpoints[k]
        f, g = self.components[k]
        return f(tau), g(tau)

    def __add__(self, other: "StepVector") -> "StepVector":
        _check_on(self.H, other)
        return StepVector(
            self.H,
            [(f1 + f2, g1 + g2) for (f1, g1), (f2, g2) in zip(self.components, other.components)],
        )

    def __mul__(self, scalar) -> "StepVector":
        return StepVector(self.H, [(f * scalar, g * scalar) for f, g in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1)


def _check_on(H: Hamiltonian, F: StepVector) -> None:
    """ValueError unless F is a step vector on H or on a Hamiltonian equal to it."""
    if F.H is not H and F.H != H:
        raise ValueError("step vectors live on different Hamiltonians")


def _row_value(ints: list[int], den: int, z):
    """Polynomial([Fraction(c, den) for c in ints])(z), read off the integers.

    A rational z gives a Fraction.  At a float z, Horner adds complex(c / den),
    the correctly rounded value that complex(Fraction(c, den)) also gives, so
    the two agree to the bit.
    """
    if isinstance(z, (float, complex)):
        zc, acc = complex(z), 0j
        for c in reversed(ints):
            acc = acc * zc + complex(c / den)
        return acc
    acc = 0
    for c in reversed(ints):
        acc = acc * z + c
    return Fraction(acc, den) if isinstance(acc, int) else acc / den


def _step_from_rows(H: Hamiltonian, rows, gamma, scale) -> StepVector:
    """scale * rows(t, gamma) as a step vector, for rows from canonical._affine_rows(H)."""
    def at(ints, den):
        return _row_value(ints, den, gamma) * scale

    comps = []
    for r0, den0, r1, den1 in rows:
        comps.append(tuple(Polynomial([at(r0[k], den0), at(r1[k], den1)]) for k in (0, 1)))
    return StepVector(H, comps)


def l2h_inner(H: Hamiltonian, F1: StepVector, F2: StepVector):
    """(1/pi) sum_k integral (F1 . P_k conj(F2)) over the segment; exact for exact data."""
    _check_on(H, F1)
    _check_on(H, F2)
    total = 0
    for seg, (f1, g1), (f2, g2) in zip(H.segments, F1.components, F2.components):
        pa, pb, pc = seg.proj
        f2c, g2c = sharp(f2), sharp(g2)
        integrand = (f1 * f2c) * pa + (f1 * g2c + g1 * f2c) * pb + (g1 * g2c) * pc
        total = total + integrand.integrate(Fraction(0), seg.length)
    return total / PI


def l2h_norm(H: Hamiltonian, F: StepVector):
    """Squared norm (1/pi) integral [f g] H [conj f; conj g] dt."""
    return l2h_inner(H, F, F)


def weyl_transform(H: Hamiltonian, F: StepVector) -> Polynomial:
    """(W F)(z) = (1/pi) integral [C(t,z) D(t,z)] H(t) F(t) dt, exact in z.

    Each moment term, a row Polynomial times uc * I_j, is added in segment,
    j, u/v, R0/R1 order.  The rows stop at the last segment where F is not
    zero, and a segment's row Polynomials are built only where F is not zero.
    """
    _check_on(H, F)
    comps = list(F.components)
    while comps and comps[-1][0].is_zero() and comps[-1][1].is_zero():
        comps.pop()
    acc = Polynomial.zero()
    for (f, g), seg, (r0, den0, r1, den1) in zip(comps, H.segments, _affine_rows(H)):
        if f.is_zero() and g.is_zero():
            continue
        pa, pb, pc = seg.proj
        u = f * pa + g * pb  # first component of P F
        v = f * pb + g * pc
        L = seg.length
        R0, R1 = _polys(r0, den0), _polys(r1, den1)
        for j in range(max(u.degree, v.degree) + 1):
            Ij, Ij1 = Fraction(L ** (j + 1), j + 1), Fraction(L ** (j + 2), j + 2)
            for k, c in enumerate((u.coeff(j), v.coeff(j))):
                if c:
                    acc = acc + R0[k] * (c * Ij) + R1[k] * (c * Ij1)
    return acc * PiScalar(1, 1, -2)


def inverse_weyl(frame: HermiteBiehlerFrame, H: Hamiltonian, F: Polynomial) -> StepVector:
    """(W^{-1} F)(t) = sum_g F(g) [C(t,g); D(t,g)] w(g), w = mu/|E|^2 from frame.weights."""
    if F.degree >= frame.dim:
        raise ValueError("not a member of H(E)")
    rows = list(_affine_rows(H))
    total = StepVector.zero(H)
    for g, w in frame.weights:
        Fg = F(g)
        if Fg:  # a zero sample adds nothing
            total = total + _step_from_rows(H, rows, g, Fg * w)
    return total


@dataclass(frozen=True)
class ModelVector:
    """Coefficients over the orthonormal eigenbasis of the angle-pi/2 extension."""

    frame: HermiteBiehlerFrame
    eigenvalues: tuple
    coeffs: tuple

    def inner(self, other: "ModelVector") -> complex:
        return complex(sum(a * np.conj(b) for a, b in zip(self.coeffs, other.coeffs)))

    def norm2(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.coeffs))


def _model_basis(frame: HermiteBiehlerFrame) -> list:
    """(g, mu({g}), F_g) over the orthonormal eigenbasis at angle pi/2, as floats."""
    basis = extension_eigenbasis(frame, math.pi / 2)
    return [
        (float(ev), float(frame.mu.mass_at(ev)), F)
        for ev, F in zip(basis.eigenvalues, basis.normalized)
    ]


def screw_line_S(frame: HermiteBiehlerFrame, t: float) -> ModelVector:
    """The model-space screw line at time t.

    Coefficient at level point g is sqrt(mu({g})) (e^{itg} - 1)/g, with the
    limit value i t at g = 0; the Gram of these vectors is pi*G(t,s).
    """
    model = _model_basis(frame)
    coeffs = []
    for g, m, _ in model:
        root = math.sqrt(m)
        if g == 0.0:
            coeffs.append(root * 1j * t)
        else:
            coeffs.append(root * (cmath.exp(1j * t * g) - 1.0) / g)
    return ModelVector(frame, tuple(g for g, _, _ in model), tuple(coeffs))


def phat(frame: HermiteBiehlerFrame, phi: TestFunction) -> ModelVector:
    """Integrate the test function against the screw line: coefficients
    sqrt(mu({g})) * Phi1(phi, g) over the eigenbasis."""
    model = _model_basis(frame)
    coeffs = tuple(math.sqrt(m) * phi1(phi, g) for g, m, _ in model)
    return ModelVector(frame, tuple(g for g, _, _ in model), coeffs)


def E_times(frame: HermiteBiehlerFrame, v: ModelVector) -> Polynomial:
    """Map a model vector to H(E): multiply by E, i.e. expand over the eigenbasis."""
    acc = Polynomial.zero()
    for c, (_, _, F) in zip(v.coeffs, _model_basis(frame)):
        acc = acc + Polynomial([complex(x) for x in F.coeffs]) * complex(c)
    return acc


def L0_map(frame: HermiteBiehlerFrame, H: Hamiltonian, phi: TestFunction) -> StepVector:
    """Map a test function to a step vector through the level-set kernel.

    (L0 phi)(t) = sum_g w(g) sqrt(mu({g})) F_g(g) Phi1(phi, g) [C(t,g); D(t,g)],

    with w = mu/|E|^2 the sampling weight: inverse_weyl of E * phat(phi).
    """
    rows = list(_affine_rows(H))
    total = StepVector.zero(H)
    for (g, m, F), (_, w) in zip(_model_basis(frame), frame.weights):
        Fg = complex(F(complex(g)))
        coef = float(w) * math.sqrt(m) * Fg * phi1(phi, g)
        total = total + _step_from_rows(H, rows, g, coef)
    return total


@dataclass(frozen=True)
class DiagramReport:
    """Residuals of the isometry square and the transform triangle.

    The restriction of the model image to the level set equals Phi1 times a
    fixed unimodular diagonal determined by the eigenbasis phases; that
    constant is reported (square_phase_constant), and the square residual is
    measured against it.
    """

    isometry_kernel_vs_measure: float
    isometry_measure_vs_model: float
    isometry_model_vs_restriction: float
    square_phi1_vs_restriction: float
    triangle_weyl_l0_vs_model: float
    square_phase_constant: complex
    basis_gram_constant: float
    basis_gram_offdiag: float
    passed: bool


def diagram_check(
    g: ScrewFunctionData,
    frame: HermiteBiehlerFrame,
    H: Hamiltonian,
    n_samples: int = 20,
    seed: int = 0,
    tol: float = 1e-6,
    support=(-3.0, 3.0),
) -> DiagramReport:
    """Verify the isometry chain and both commutative triangles on random data.

    Every leg is linear in a sample's Phi1 at the level points, or, for the
    kernel leg, quadratic in the sample, so the maps that do not depend on
    the sample are built once, before the loop:

    - g's kernel as _kernel_form, the FFT Toeplitz form of inner_product_Hg,
      whose quadratic form costs one FFT per sample;
    - the (grid x points) integrand matrix of phi1 at the level points and
      at g's atoms;
    - the k x k restriction matrix F_j(gamma_l)/E(gamma_l): E_times, then
      restriction to the level set, over E;
    - the k x D triangle matrix: the Weyl transform of L0_map's row vector
      at each level point minus that point's term of E_times.

    The loop draws the n_samples random test functions in order from one
    seeded rng, one at a time, and keeps only each one's Phi1 values and
    kernel norm; the five residuals are then array expressions over all
    samples.  phat, E_times, L0_map and inner_product_Hg are the same maps
    for one sample.  All comparisons are quadrature-limited.  The Gram
    matrix of the aligned basis functions is measured and its diagonal
    constant reported rather than asserted.
    """
    model = _model_basis(frame)
    k = len(model)
    mass = np.array([m for _, m, _ in model])
    root = np.sqrt(mass)

    # predicted unimodular diagonal sqrt(mu) F_g(g)/E(g) of the square
    phases = np.array([
        math.sqrt(m) * complex(F(complex(gam))) / complex(frame.E(complex(gam)))
        for gam, m, F in model
    ])
    restrict = np.array([[complex(F(complex(gam))) for gam, _, _ in model] for _, _, F in model])
    restrict /= [complex(frame.E(complex(gam))) for gam, _, _ in model]
    triangle = _triangle_matrix(frame, H, model)

    atoms = np.array(g.float_atoms, dtype=float).reshape(-1, 2)
    points = np.concatenate([[gam for gam, _, _ in model], atoms[:, 0]])
    integrand = _phi1_matrix(np.linspace(*support, _DIAGRAM_GRID), points)
    _, quadratic = _kernel_form(g, support, _DIAGRAM_GRID)

    rng = np.random.default_rng(seed)
    at_points = np.empty((n_samples, len(points)), dtype=complex)
    norm_kernel = np.empty(n_samples)
    for s in range(n_samples):
        phi = random_test_function(rng, support=support, n=_DIAGRAM_GRID)
        v = phi._weights * phi.samples
        at_points[s] = v @ integrand
        norm_kernel[s] = quadratic(v)

    at_level, at_atoms = at_points[:, :k], at_points[:, k:]
    norm_measure = np.abs(at_atoms) ** 2 @ atoms[:, 1]
    scale = np.maximum(1.0, np.abs(norm_measure))
    coeffs = at_level * root  # phat
    norm_model = np.sum(np.abs(coeffs) ** 2, axis=1) / math.pi
    restricted = coeffs @ restrict  # E * phat at the level set, over E
    norm_restr = np.abs(restricted) ** 2 @ mass / math.pi
    r1, r2, r3, r4, r5 = (
        float(np.max(r, initial=0.0))
        for r in (
            np.abs(norm_kernel - norm_measure) / scale,
            np.abs(norm_measure - norm_model) / scale,
            np.abs(norm_model - norm_restr) / scale,
            np.abs(restricted - phases * at_level),
            np.abs(at_level @ triangle),
        )
    )

    diag, off = _aligned_basis_gram(g, frame, model, support)
    passed = max(r1, r2, r3, r4, r5) < tol
    return DiagramReport(
        r1, r2, r3, r4, r5, complex(np.mean(phases)), diag, off, passed
    )


def _phi1_matrix(ts: np.ndarray, points) -> np.ndarray:
    """[(exp(i g t) - 1)/g] over grid rows and point columns, i t at g = 0: phi1's integrand."""
    out = np.empty((len(ts), len(points)), dtype=complex)
    for j, gam in enumerate(points):
        out[:, j] = 1j * ts if gam == 0 else (np.exp(1j * gam * ts) - 1.0) / gam
    return out


def _triangle_matrix(frame: HermiteBiehlerFrame, H: Hamiltonian, model) -> np.ndarray:
    """Row k: W(L0 phi) - E_times(phat phi) per unit Phi1(phi, g_k), over z's coefficients.

    L0_map's term at g_k is w sqrt(mu) F_k(g_k) Phi1 times the row vector
    [C(t, g_k); D(t, g_k)], and E_times' is sqrt(mu) Phi1 F_k.
    """
    rows = []
    for (gam, m, F), (_, w) in zip(model, frame.weights):
        l0_term = StepVector.from_row_values(H, gam, float(w) * math.sqrt(m) * complex(F(complex(gam))))
        rows.append(weyl_transform(H, l0_term) - Polynomial([complex(c) for c in F.coeffs]) * math.sqrt(m))
    out = np.zeros((len(rows), max((len(p.coeffs) for p in rows), default=0)), dtype=complex)
    for k, p in enumerate(rows):
        out[k, : len(p.coeffs)] = [complex(c) for c in p.coeffs]
    return out


def _aligned_basis_gram(g, frame, model, support):
    """Measured Gram of the aligned basis functions; constant reported, not asserted."""
    points = [gam for gam, _, _ in model]
    aligned = []
    for k, (gam, _, F) in enumerate(model):
        targets = [0j] * len(model)
        targets[k] = math.sqrt(math.pi) * complex(F(complex(gam))) / complex(frame.E(complex(gam)))
        aligned.append(aligned_test_function(points, targets, support=support))
    profiles = np.array([[phi1(phi, p) for p, _ in g.float_atoms] for phi in aligned])
    gram = (profiles * [m for _, m in g.float_atoms]) @ profiles.conj().T
    diag = float(np.mean(np.abs(np.diag(gram))))
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    return diag, off
