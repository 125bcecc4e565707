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
The sum, and the row values at a level point that L0_map, inverse_weyl
and StepVector.from_row_values take, run over the integer rows of
canonical's chain and build no row Polynomial; the results equal those of
the Polynomial rows to the bit, signed zeros included.

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

from .algebra import Polynomial, _is_zero_scalar, sharp
from .canonical import Hamiltonian, _affine_rows
from .debranges import HermiteBiehlerFrame, extension_eigenbasis
from .exact import ExactComplex, PiScalar, PI
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
    """Polynomial([Fraction(c, den) for c in ints])(z), to the bit, from the integers.

    At a float z, Horner adds complex(c / den), the correctly rounded value
    that complex(Fraction(c, den)) also gives.
    """
    if isinstance(z, (float, complex)):
        zc, acc = complex(z), 0j
        for c in reversed(ints):
            acc = acc * zc + complex(c / den)
        return acc
    acc = 0
    for c in reversed(ints):
        acc = acc * z + c
    acc = Fraction(acc, den) if isinstance(acc, int) else acc / den
    return ExactComplex(acc) if isinstance(acc, Fraction) else acc


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


def _pad_zero(cs: list):
    """The zero Polynomial(cs).coeff supplies past the end of cs, whose scalars share one type."""
    if cs and isinstance(cs[0], complex):
        return 0j
    if cs and isinstance(cs[0], PiScalar):
        return PiScalar(0)
    return ExactComplex(0)


def _add_scaled(acc: list, ints: list[int], den: int, s) -> list:
    """The coefficients of Polynomial(acc) + Polynomial(ints / den) * s, to the bit.

    Fraction(c, den) * s is ExactComplex(Fraction(c, den)) * s; for a complex
    s both are complex(c / den) * s.  Each side is padded with its own zero
    and the sum loses its trailing zeros, as in Polynomial.__add__.
    """
    if isinstance(s, complex):
        term = [complex(c / den) * s for c in ints]
    else:
        term = [Fraction(c, den) * s for c in ints]
    while term and _is_zero_scalar(term[-1]):
        term.pop()
    n = max(len(acc), len(term))
    acc = acc + [_pad_zero(acc)] * (n - len(acc))
    term += [_pad_zero(term)] * (n - len(term))
    out = [a + b for a, b in zip(acc, term)]
    while out and _is_zero_scalar(out[-1]):
        out.pop()
    return out


def weyl_transform(H: Hamiltonian, F: StepVector) -> Polynomial:
    """(W F)(z) = (1/pi) integral [C(t,z) D(t,z)] H(t) F(t) dt, exact in z.

    Each moment term, a row coefficient times uc * I_j, goes into one
    coefficient list in segment, j, u/v, R0/R1 order.  The rows stop at the
    last segment where F is not zero.
    """
    _check_on(H, F)
    comps = list(F.components)
    while comps and comps[-1][0].is_zero() and comps[-1][1].is_zero():
        comps.pop()
    acc = []
    for (f, g), seg, (r0, den0, r1, den1) in zip(comps, H.segments, _affine_rows(H)):
        if f.is_zero() and g.is_zero():
            continue
        pa, pb, pc = seg.proj
        u = f * pa + g * pb  # first component of P F
        v = f * pb + g * pc
        L = seg.length
        for j in range(max(u.degree, v.degree) + 1):
            Ij, Ij1 = Fraction(L ** (j + 1), j + 1), Fraction(L ** (j + 2), j + 2)
            for k, c in enumerate((u.coeff(j), v.coeff(j))):
                if c:
                    acc = _add_scaled(acc, r0[k], den0, c * Ij)
                    acc = _add_scaled(acc, r1[k], den1, c * Ij1)
    return Polynomial(acc) * PiScalar(1, 1, -2)


def inverse_weyl(frame: HermiteBiehlerFrame, H: Hamiltonian, F: Polynomial) -> StepVector:
    """(W^{-1} F)(t) = sum_g F(g) [C(t,g); D(t,g)] w(g), w = mu/|E|^2 from frame.weights."""
    if F.degree >= frame.dim:
        raise ValueError("not a member of H(E)")
    rows = list(_affine_rows(H))
    total = StepVector.zero(H)
    for g, w in frame.weights:
        total = total + _step_from_rows(H, rows, g, F(g) * w)
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
