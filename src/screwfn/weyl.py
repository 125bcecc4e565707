"""The Hilbert space of constrained step vectors and the Weyl transform.

Elements of the space attached to a step Hamiltonian are per-segment pairs
(f, g) of polynomials in the local coordinate, with the projection onto the
segment direction constant on each indivisible interval.  The Weyl transform
integrates a step vector against the bottom (C, D) row of the solution of
the canonical system,

    (W F)(z) = (1/pi) * integral [C(t, z) D(t, z)] H(t) F(t) dt,

and is evaluated exactly.  On segment s, H = e e^T kills the free part of
F: P F is c_s (1, pb/pa), or (0, c_s) when pa = 0, for F's constant c_s =
StepVector.constrained.  It is parallel to e, and the row R0 + t R1 has
R1 = -z R0 P J with e^T J e = 0, so W F = sum_s c_s rho_s with rho_s =
(L_s/pi) (C_s + (pb/pa) D_s), or (L_s/pi) D_s, for (C_s, D_s) the bottom
row at t_{s-1} (de Branges 1968, ch. 2).  The kernel identity of that row
makes W unitary onto the de Branges space.

inverse_weyl weights each level point g by de Branges' sampling weight
mu({g})/|E(g)|^2 and samples the row only where F(g) is not zero, so the
pi/2 eigenvector F_x is read at x alone.  Both directions read
canonical._breakpoint_rows.  _weyl_images and _inverse_images are the
batched forms: each rho_s, and the row table of _row_vectors, the one
builder of row samples, are built once per batch.

Each check computes what does not change within one call once.  l2h_inner
multiplies segment constants; on exact data it and weyl_transform equal the
Polynomial-product form and the full moment sum.  diagram_check keeps float
arithmetic only where an integral is taken.  Before its loop it reads each
pi/2 eigenvector F_k once, at its own level point x_k (it vanishes at the
others): F_k(x_k) is the restriction's diagonal entry and gives the row
(x_k, w_k F_k(x_k)) of inverse_weyl F_k, so the triangle is read exactly.
Its random samples come from one screw._random_draws generator and its
aligned functions from one screw._aligned_test_functions call, which form
the grid's tables and the windowed monomials once; its floats are bit for
bit those of building each sample and aligned function alone.

The model-space screw line has coefficients c_g(t) = sqrt(mu({g})) *
(exp(itg) - 1)/g, with mu = pi tau, over the orthonormal eigenbasis at angle
pi/2 (limit i*t at g = 0); its Gram matrix reproduces pi * G(t, s) exactly.
weyl forms no exponential: it reads the line from screw._screw_line.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Polynomial, _largest
from .canonical import Hamiltonian, _breakpoint_rows, _polys
from .debranges import HermiteBiehlerFrame
from .exact import PI, PiScalar, sqrt
from .screw import (
    ScrewFunctionData,
    TestFunction,
    _aligned_test_functions,
    _kernel_form,
    _phi1_columns,
    _random_draws,
    _screw_line,
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

    On a segment with projector (pa, pb, pc) = (c^2, cs, s^2), e = (c, s),
    the component pa f + pb g, or g when pa = 0, is c (e . F), or e . F, and
    must be constant: exactly for exact coefficients, for floats to 1e-9 of
    the largest coefficient of f and g, or of the least normal float, below
    which rounding is absolute.  ``constrained`` holds its constant term per
    segment; H = e e^T kills the rest.
    """

    __slots__ = ("H", "components", "constrained")

    def __init__(self, H: Hamiltonian, components):
        comps, consts = [], []
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
                scale = max(_largest(f.coeffs + g.coeffs), sys.float_info.min)
                varies = any(abs(c) > 1e-9 * scale for c in constrained.coeffs[1:])
            if varies:
                raise ValueError("not in L-hat: constrained component varies on an indivisible interval")
            comps.append((f, g))
            consts.append(constrained.coeff(0))
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "constrained", tuple(consts))

    def __setattr__(self, *a):
        raise AttributeError("StepVector is immutable")

    @staticmethod
    def zero(H: Hamiltonian) -> "StepVector":
        z = Polynomial.zero()
        return StepVector(H, [(z, z)] * len(H.segments))

    @staticmethod
    def basis_vector(H: Hamiltonian, k: int) -> "StepVector":
        """The unit direction e on segment k, zero elsewhere: e . F = 1 there.

        e = (sqrt(pa), sign(pb) sqrt(pc)) exactly, in Fractions for rational squares
        and PiScalar surds otherwise.  Its constrained constant is c, or 1 when pa = 0."""
        if k not in range(len(H)):
            raise ValueError(f"segment k={k} outside range({len(H)})")
        comps = [(Polynomial.zero(), Polynomial.zero())] * len(H)
        pa, pb, pc = H.segments[k].proj
        c, s = (r.as_fraction() if r.is_rational() else r for r in map(sqrt, map(PiScalar, (pa, pc))))
        comps[k] = (Polynomial([c]), Polynomial([s if pb >= 0 else -s]))
        return StepVector(H, comps)

    @staticmethod
    def from_row_values(H: Hamiltonian, gamma, scale=1) -> "StepVector":
        """scale * [C(t, gamma); D(t, gamma)], one _row_vectors sample: a -0.0 part is +0.0."""
        return _row_vectors(H, [[(gamma, scale)]])[0]

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


def _row_vectors(H: Hamiltonian, batch) -> list:
    """[sum of s [C(t, g); D(t, g)] over the (g, s) in samples, for samples in batch].

    The row table is the breakpoint rows b_k, each evaluated once per sample
    point.  On segment k the row is b_{k-1} + (t - t_{k-1}) (b_k - b_{k-1})/L_k,
    so a sample adds s b_{k-1} and ((b_k - b_{k-1})/L_k) s, summed from 0: at
    an exact g, R0(g) s and R1(g) s of the affine row R0 + (t - t_{k-1}) R1.
    """
    table = [_polys(r, den) for r, den in _breakpoint_rows(H)]
    vectors = []
    for samples in batch:
        values = [(s, [(C(g), D(g)) for C, D in table]) for g, s in samples]
        vectors.append(StepVector(H, [
            tuple(Polynomial([sum(b[j - 1][k] * s for s, b in values),
                              sum((b[j][k] - b[j - 1][k]) / seg.length * s for s, b in values)])
                  for k in (0, 1))
            for j, seg in enumerate(H.segments, 1)
        ]))
    return vectors


def l2h_inner(H: Hamiltonian, F1: StepVector, F2: StepVector):
    """(1/pi) sum_s L_s c_s(F1) conj(c_s(F2)) / p_s, c_s = StepVector.constrained.

    H = e e^T on segment s, so the integrand is (e . F1) conj(e . F2), and
    c_s = cos(theta) (e . F) with p_s = pa, or c_s = e . F with p_s = pc = 1
    when pa = 0.  Exact for exact data; a float vector's constrained
    coefficients above degree 0 (below 1e-9 of its scale) are ignored.
    """
    _check_on(H, F1)
    _check_on(H, F2)
    total = 0
    for seg, c1, c2 in zip(H.segments, F1.constrained, F2.constrained):
        if c1 and c2:
            pa, _, pc = seg.proj
            total = total + seg.length / (pa or pc) * c1 * c2.conjugate()
    return total / PI


def l2h_norm(H: Hamiltonian, F: StepVector):
    """Squared norm (1/pi) integral [f g] H [conj f; conj g] dt."""
    return l2h_inner(H, F, F)


def weyl_transform(H: Hamiltonian, F: StepVector) -> Polynomial:
    """(W F)(z) = (1/pi) integral [C(t,z) D(t,z)] H(t) F(t) dt = sum_s c_s rho_s, exact in z.

    rho_s reads the bottom row at t_{s-1} alone (module docstring).  As in
    l2h_inner, a float vector's constrained coefficients above degree 0 are
    ignored.
    """
    return _weyl_images(H, [F])[0]


def _weyl_images(H: Hamiltonian, vectors) -> list:
    """[weyl_transform(H, F) for F in vectors], rho_s built once where some c_s is not 0."""
    for F in vectors:
        _check_on(H, F)
    used = {s for F in vectors for s, c in enumerate(F.constrained) if c}
    rhos = {}  # pi rho_s; the 1/pi is taken once per image
    for s, seg, (r, den) in zip(range(max(used, default=-1) + 1), H.segments, _breakpoint_rows(H)):
        if s in used:
            pa, pb, _ = seg.proj
            C, D = _polys(r, den)
            rhos[s] = (C + D * (pb / pa) if pa else D) * seg.length
    return [
        sum((rhos[s] * c for s, c in enumerate(F.constrained) if c), Polynomial.zero())
        * PiScalar(1, 1, -2)
        for F in vectors
    ]


def inverse_weyl(frame: HermiteBiehlerFrame, H: Hamiltonian, F: Polynomial) -> StepVector:
    """(W^{-1} F)(t) = sum_g F(g) [C(t,g); D(t,g)] w(g), w = mu/|E|^2 from frame.weights.

    Level points where F vanishes add nothing and are not read.
    """
    return _inverse_images(frame, H, [F])[0]


def _inverse_images(frame: HermiteBiehlerFrame, H: Hamiltonian, polys) -> list:
    """[inverse_weyl(frame, H, F) for F in polys], one _row_vectors batch."""
    if any(F.degree >= frame.dim for F in polys):
        raise ValueError("not a member of H(E)")
    return _row_vectors(H, [[(g, Fg * w) for g, w in frame.weights if (Fg := F(g))] for F in polys])


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
    """(g, mu({g}), F_g) as floats over the orthonormal pi/2 eigenbasis, whose eigenvalues are mu's points."""
    return [
        (float(g), float(m), F)
        for g, m, F in zip(frame.mu.points, frame.mu.masses, frame.pi_half_eigenbasis.normalized)
    ]


def screw_line_S(frame: HermiteBiehlerFrame, t: float) -> ModelVector:
    """The model-space screw line at time t.

    Coefficient at level point g is sqrt(mu({g})) (e^{itg} - 1)/g, with the
    limit value i t at g = 0; the Gram of these vectors is pi*G(t,s).
    """
    model = _model_basis(frame)
    points = tuple(g for g, _, _ in model)
    line = _screw_line([t], points)[0]
    return ModelVector(frame, points, tuple(math.sqrt(m) * S for (_, m, _), S in zip(model, line)))


def phat(frame: HermiteBiehlerFrame, phi: TestFunction) -> ModelVector:
    """Integrate the test function against the screw line: coefficients
    sqrt(mu({g})) * Phi1(phi, g) over the eigenbasis, one screw-line column per g."""
    model = _model_basis(frame)
    points = tuple(g for g, _, _ in model)
    at_points = _phi1_columns(phi, _screw_line(phi.grid, points))
    return ModelVector(frame, points, tuple(math.sqrt(m) * v for (_, m, _), v in zip(model, at_points)))


def E_times(frame: HermiteBiehlerFrame, v: ModelVector) -> Polynomial:
    """Map a model vector to H(E): multiply by E, i.e. expand over the eigenbasis."""
    return sum((Polynomial([complex(x) for x in F.coeffs]) * complex(c)
                for c, (_, _, F) in zip(v.coeffs, _model_basis(frame))), Polynomial.zero())


def L0_map(frame: HermiteBiehlerFrame, H: Hamiltonian, phi: TestFunction) -> StepVector:
    """Map a test function to a step vector through the level-set kernel.

    (L0 phi)(t) = sum_g w(g) sqrt(mu({g})) F_g(g) Phi1(phi, g) [C(t,g); D(t,g)],

    with w = mu/|E|^2 the sampling weight: inverse_weyl of E * phat(phi),
    since F_g vanishes at every level point but g.
    """
    return inverse_weyl(frame, H, E_times(frame, phat(frame, phi)))


@dataclass(frozen=True)
class DiagramReport:
    """Residuals of the isometry square and the transform triangle.

    isometry_kernel_vs_measure and isometry_measure_vs_model integrate
    random test functions on a grid and are quadrature-limited.  The other
    legs are algebraic: isometry_model_vs_restriction and
    square_phi1_vs_restriction read values taken at the exact level points,
    so they hold up to rounding, and on exact data triangle_weyl_l0_vs_model,
    read from batched inverse images and transforms, is exact, 0.0 when the
    triangle commutes.

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
) -> DiagramReport:
    """Verify the isometry chain and both commutative triangles on random data.

    Float arithmetic is left where an integral is taken, in the kernel vs
    measure and measure vs model legs.  The maps that do not depend on the
    sample are built once, before the loop:

    - F_k(x_k) at the exact level points, k evaluations: F_k = c_k A/(z - x_k)
      and A(x_l) = 0, so the restriction matrix F_j(x_l)/E(x_l), E_times on
      the level set over E, is the diagonal F_k(x_k)/E(x_k), converted once;
      sqrt(mu) times it is the square's phase;
    - the triangle residual max_k sqrt(mu_k) |W(inverse_weyl F_k) - F_k|
      over z's coefficients, exact and converted once: F_k vanishes at
      every level point but x_k, so W(L0 phi) - E phat(phi) is
      sum_k sqrt(mu_k) Phi1(phi, x_k) (W(inverse_weyl F_k) - F_k), with
      inverse_weyl F_k the row (x_k, w_k F_k(x_k)), one batch for all k;
    - g's kernel as _kernel_form, the FFT Toeplitz form of inner_product_Hg,
      whose quadratic form costs one FFT per sample, and the (grid x
      points) _screw_line matrix at the level points and at g's atoms.

    The loop draws the n_samples random test functions, each sampled at
    2049 points of [-3, 3], in order from one seeded rng, one at a time
    from one _random_draws generator (the grid's tables formed once),
    and keeps only each one's Phi1 values and kernel norm; the other four
    residuals are then array expressions over all samples.  phat, E_times
    and inner_product_Hg are the same maps for one sample.  The Gram matrix
    of the aligned basis functions is measured and its diagonal constant
    reported rather than asserted.
    """
    support = (-3.0, 3.0)
    model = _model_basis(frame)
    k = len(model)
    mass = np.array([m for _, m, _ in model])
    root = np.sqrt(mass)

    own = [(x, w, F(x)) for (x, w), F in zip(frame.weights, frame.pi_half_eigenbasis.normalized)]
    boundary = np.array([complex(Fx / frame.E(x)) for x, _, Fx in own])  # the restriction's diagonal
    phases = root * boundary  # the predicted unimodular diagonal of the square
    images = _weyl_images(H, _row_vectors(H, [[(x, Fx * w)] for x, w, Fx in own]))
    triangle = max(
        (math.sqrt(m) * _largest((W - F).coeffs) for (_, m, F), W in zip(model, images)),
        default=0.0,
    )

    level_points = [gam for gam, _, _ in model]
    atoms = np.array(g.float_atoms, dtype=float).reshape(-1, 2)
    points = np.concatenate([level_points, atoms[:, 0]])
    integrand = _screw_line(np.linspace(*support, _DIAGRAM_GRID), points)
    _, quadratic = _kernel_form(g, support, _DIAGRAM_GRID)

    draws = _random_draws(np.random.default_rng(seed), support, _DIAGRAM_GRID)
    at_points = np.empty((n_samples, len(points)), dtype=complex)
    norm_kernel = np.empty(n_samples)
    for s, phi in zip(range(n_samples), draws):
        v = phi._weights * phi.samples
        at_points[s] = v @ integrand
        norm_kernel[s] = quadratic(v)

    at_level, at_atoms = at_points[:, :k], at_points[:, k:]
    norm_measure = np.abs(at_atoms) ** 2 @ atoms[:, 1]
    scale = np.maximum(1.0, np.abs(norm_measure))
    coeffs = at_level * root  # phat
    norm_model = np.sum(np.abs(coeffs) ** 2, axis=1) / math.pi
    restricted = coeffs * boundary  # E * phat at the level set, over E
    norm_restr = np.abs(restricted) ** 2 @ mass / math.pi
    r1, r2, r3, r4 = (
        float(np.max(r, initial=0.0))
        for r in (
            np.abs(norm_kernel - norm_measure) / scale,
            np.abs(norm_measure - norm_model) / scale,
            np.abs(norm_model - norm_restr) / scale,
            np.abs(restricted - phases * at_level),
        )
    )

    diag, off = _aligned_basis_gram(atoms, level_points, boundary)
    passed = max(r1, r2, r3, r4, triangle) < tol
    return DiagramReport(
        r1, r2, r3, r4, triangle, complex(np.mean(phases)), diag, off, passed
    )


def _aligned_basis_gram(atoms, points, boundary):
    """Measured Gram of the aligned basis functions; constant reported, not asserted.

    Function k is aligned to sqrt(pi) F_k(x_k)/E(x_k), boundary[k], at level
    point k and to 0 at the others.  The aligned functions share one
    windowed-monomial basis and one solve matrix, built once; their
    profiles are Phi1 at the (point, mass) rows of atoms, one screw-line column each.
    """
    target_rows = np.diag(boundary) * math.sqrt(math.pi)
    aligned = _aligned_test_functions(points, target_rows)
    line = _screw_line(aligned[0].grid, atoms[:, 0])
    profiles = np.array([_phi1_columns(phi, line) for phi in aligned])
    gram = (profiles * atoms[:, 1]) @ profiles.conj().T
    diag = float(np.mean(np.abs(np.diag(gram))))
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    return diag, off
