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

from .algebra import Polynomial, effective_degree, sharp
from .canonical import Hamiltonian, solution_rows_affine
from .debranges import HermiteBiehlerFrame, extension_eigenbasis
from .exact import PiScalar, PI
from .screw import (
    ScrewFunctionData,
    TestFunction,
    aligned_test_function,
    inner_product_Hg,
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


class StepVector:
    """Per-segment (f, g) polynomial pairs in the local segment coordinate.

    On a segment with normalized projector (pa, pb, pc) the component along
    the segment direction must be constant; this is checked exactly for
    exact coefficients and to 1e-9 relative tolerance for floats.
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
            if effective_degree(constrained, 1e-9) > 0:
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
        return _step_from_rows(H, solution_rows_affine(H), gamma, scale)

    def value(self, t):
        """(f, g) at global time t."""
        tf = Fraction(t) if not isinstance(t, Fraction) else t
        k = self.H.segment_at(tf)
        tau = tf - self.H.breakpoints[k]
        f, g = self.components[k]
        return f(tau), g(tau)

    def __add__(self, other: "StepVector") -> "StepVector":
        if self.H is not other.H and self.H != other.H:
            raise ValueError("step vectors live on different Hamiltonians")
        return StepVector(
            self.H,
            [(f1 + f2, g1 + g2) for (f1, g1), (f2, g2) in zip(self.components, other.components)],
        )

    def __mul__(self, scalar) -> "StepVector":
        return StepVector(self.H, [(f * scalar, g * scalar) for f, g in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1)


def _step_from_rows(H: Hamiltonian, rows, gamma, scale) -> StepVector:
    """scale * rows(t, gamma) as a step vector, for rows from solution_rows_affine(H)."""
    comps = []
    for (r0, r1) in rows:
        f = Polynomial([r0[0](gamma) * scale, r1[0](gamma) * scale])
        g = Polynomial([r0[1](gamma) * scale, r1[1](gamma) * scale])
        comps.append((f, g))
    return StepVector(H, comps)


def l2h_inner(H: Hamiltonian, F1: StepVector, F2: StepVector):
    """(1/pi) sum_k integral (F1 . P_k conj(F2)) over the segment; exact for exact data."""
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
    """(W F)(z) = (1/pi) integral [C(t,z) D(t,z)] H(t) F(t) dt, exact in z."""
    rows = solution_rows_affine(H)
    acc = Polynomial.zero()
    for seg, ((r0c, r0d), (r1c, r1d)), (f, g) in zip(H.segments, rows, F.components):
        pa, pb, pc = seg.proj
        u = f * pa + g * pb  # first component of P F
        v = f * pb + g * pc
        L = seg.length
        deg = max(u.degree, v.degree)
        for j in range(deg + 2):
            Ij = Fraction(L ** (j + 1), j + 1)
            uc, vc = u.coeff(j), v.coeff(j)
            if uc:
                acc = acc + r0c * (uc * Ij) + r1c * (uc * Fraction(L ** (j + 2), j + 2))
            if vc:
                acc = acc + r0d * (vc * Ij) + r1d * (vc * Fraction(L ** (j + 2), j + 2))
    return acc * PiScalar(1, 1, -2)


def inverse_weyl(frame: HermiteBiehlerFrame, H: Hamiltonian, F: Polynomial) -> StepVector:
    """(W^{-1} F)(t) = sum_g F(g) [C(t,g); D(t,g)] mu(g), the measure form of the inverse."""
    if F.degree >= frame.dim:
        raise ValueError("not a member of H(E)")
    rows = solution_rows_affine(H)
    total = StepVector.zero(H)
    for g, m in frame.mu:
        total = total + _step_from_rows(H, rows, g, F(g) * m)
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

    (L0 phi)(t) = sum_g mu({g}) sqrt(mu({g})) F_g(g) Phi1(phi, g) [C(t,g); D(t,g)],

    which for the worked example reduces to the familiar three-term display
    with coefficients (-phihat'(0), phihat(1)/2, -phihat(-1)/2).
    """
    rows = solution_rows_affine(H)
    total = StepVector.zero(H)
    for g, m, F in _model_basis(frame):
        Fg = complex(F(complex(g)))
        coef = m * math.sqrt(m) * Fg * phi1(phi, g)
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

    The kernel and measure legs of the isometry are the two sides of
    inner_product_Hg(g, phi, phi): the kernel double integral, applied as a
    Toeplitz convolution, and the measure-side sum.  All comparisons are
    quadrature-limited.  The Gram matrix of the aligned basis functions is
    measured and its diagonal constant reported rather than asserted.
    """
    model = _model_basis(frame)
    rng = np.random.default_rng(seed)
    r1 = r2 = r3 = r4 = r5 = 0.0

    # predicted unimodular diagonal sqrt(mu) F_g(g)/E(g) of the square
    phases = [
        math.sqrt(m) * complex(F(complex(gam))) / complex(frame.E(complex(gam)))
        for gam, m, F in model
    ]

    for _ in range(n_samples):
        phi = random_test_function(rng, support=support)
        iso = inner_product_Hg(g, phi, phi)
        norm_kernel, norm_measure = iso.via_kernel.real, iso.via_measure.real
        scale = max(1.0, abs(norm_measure))

        v = phat(frame, phi)
        norm_model = v.norm2() / math.pi

        # restriction leg: E*phat as a polynomial, restricted to the level set
        P = E_times(frame, v)
        norm_restr = 0.0
        restr_resid = 0.0
        for (gam, mass, _), d in zip(model, phases):
            val = complex(P(complex(gam))) / complex(frame.E(complex(gam)))
            norm_restr += abs(val) ** 2 * mass
            restr_resid = max(restr_resid, abs(val - d * phi1(phi, gam)))
        norm_restr /= math.pi

        r1 = max(r1, abs(norm_kernel - norm_measure) / scale)
        r2 = max(r2, abs(norm_measure - norm_model) / scale)
        r3 = max(r3, abs(norm_model - norm_restr) / scale)
        r4 = max(r4, restr_resid)

        diff = weyl_transform(H, L0_map(frame, H, phi)) - P
        r5 = max(
            r5,
            max((abs(complex(c)) for c in diff.coeffs), default=0.0),
        )

    diag, off = _aligned_basis_gram(g, frame, model, support)
    passed = max(r1, r2, r3, r4, r5) < tol
    return DiagramReport(
        r1, r2, r3, r4, r5, complex(np.mean(phases)), diag, off, passed
    )


def _aligned_basis_gram(g, frame, model, support):
    """Measured Gram of the aligned basis functions; constant reported, not asserted."""
    if sorted(e for e, _, _ in model) != [-1.0, 0.0, 1.0]:
        return float("nan"), float("nan")
    aligned = []
    for gam, _, F in model:
        target = math.sqrt(math.pi) * complex(F(complex(gam))) / complex(frame.E(complex(gam)))
        targets = {e: 0j for e, _, _ in model}
        targets[gam] = target
        # Phi1 profile -> functionals (phihat'(0), phihat(1), phihat(-1))
        aligned.append(
            aligned_test_function(
                targets[0.0], targets[1.0], -targets[-1.0], support=support
            )
        )
    pts = [float(p) for p in g.tau.points]
    ms = [float(m) for m in g.tau.masses]
    profiles = np.array([[phi1(phi, p) for p in pts] for phi in aligned])
    gram = (profiles * ms) @ profiles.conj().T
    diag = float(np.mean(np.abs(np.diag(gram))))
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    return diag, off
