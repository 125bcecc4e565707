import functools
import math
import tracemalloc
from fractions import Fraction
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_canonical import _segment_product, _thirty_two_segments, pythagorean_hamiltonian
from test_screw import _dense_kernel_side

from screwfn import canonical, screw, weyl
from screwfn.algebra import MatrixPolynomial, Polynomial, ab_split, sharp
from screwfn.canonical import (
    Hamiltonian,
    Segment,
    bezout_complete,
    factorize,
    fundamental_solution,
    w0_matrix,
)
from screwfn.debranges import HermiteBiehlerFrame, e0_frame, extension_eigenbasis
from screwfn.exact import PI, ExactComplex, PiScalar
from screwfn.screw import (
    ScrewFunctionData,
    aligned_test_function,
    eval_screw,
    g0_data,
    kernel_g,
    phi1,
    random_test_function,
)
from screwfn.spectra import (
    DiscreteMeasure,
    NevanlinnaData,
    cayley_q_to_theta,
    q_from_measure,
    theta_to_e,
)
from screwfn.weyl import (
    E_times,
    L0_map,
    StepVector,
    diagram_check,
    inverse_weyl,
    l2h_inner,
    l2h_norm,
    phat,
    screw_line_S,
    weyl_transform,
)

FR = e0_frame()
H0 = factorize(w0_matrix())
G0 = g0_data()
HALF_OVER_PI = PiScalar(Fraction(1, 2), 1, -2)


def eigenbasis():
    return extension_eigenbasis(FR, math.pi / 2)


def test_step_vector_constraint_enforced():
    # segment 1 has type pi/2: the second component must be constant
    bad = [(Polynomial.zero(), Polynomial([0, 1]))] + [(Polynomial.zero(), Polynomial.zero())] * 2
    with pytest.raises(ValueError, match="L-hat"):
        StepVector(H0, bad)


@pytest.mark.parametrize("k", [3, -1, 7])
def test_basis_vector_rejects_a_segment_outside_the_hamiltonian(k):
    # the parent gave the zero vector, of norm 0, for a unit vector
    with pytest.raises(ValueError, match=rf"segment k={k} outside range\(3\)"):
        StepVector.basis_vector(H0, k)


def test_basis_vector_image_is_exact():
    # a Pythagorean direction (3/5, -4/5) and 45 degrees, whose pa = 1/2 is no rational square
    H = Hamiltonian([Segment(Fraction(1), (1, 0, 0)),
                     Segment(Fraction(1, 2), (Fraction(9, 25), Fraction(-12, 25), Fraction(16, 25))),
                     Segment(Fraction(2), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))])
    root_half = PiScalar(Fraction(1, 2), 2)
    for k, (c, s) in ((1, (Fraction(3, 5), Fraction(-4, 5))), (2, (root_half, root_half))):
        F = StepVector.basis_vector(H, k)
        assert F.components[k] == (Polynomial([c]), Polynomial([s]))
        assert l2h_norm(H, F) == H.segments[k].length / PI
        C, D = fundamental_solution(H, H.breakpoints[k]).entries[1]
        want = (C * c + D * s) * H.segments[k].length * PiScalar(1, 1, -2)
        got = weyl_transform(H, F)
        assert got == want
        assert all(isinstance(x, (Fraction, PiScalar)) for x in got.coeffs)
    assert type(StepVector.basis_vector(H, 1).constrained[1]) is Fraction


def test_step_vector_accepts_a_subnormal_scale():
    # rounding below the least normal float is absolute, so a test relative to the scale alone
    # rejects this row sample, whose constrained slope rounds to 5e-324
    H = Hamiltonian([Segment(Fraction(2), (Fraction(16, 25), Fraction(-12, 25), Fraction(9, 25)))])
    for scale in (5e-324j, 1e-320j, 1e-300j, 1j):
        assert isinstance(StepVector.from_row_values(H, 3.0, scale).constrained[0], complex)
    # a float component that varies is still rejected, at a normal and a tiny normal scale
    for size in (1.0, 1e-300):
        with pytest.raises(ValueError, match="L-hat"):
            StepVector(H, [(Polynomial([0j, complex(size)]), Polynomial([0j]))])


def test_step_vector_free_component_allowed():
    comps = [(Polynomial([0, 1]), Polynomial([2]))] + [(Polynomial.zero(), Polynomial.zero())] * 2
    v = StepVector(H0, comps)
    f, g = v.value(Fraction(1, 4))
    assert f == ExactComplex(Fraction(1, 4)) and g == ExactComplex(2)


def test_l2h_norm_of_inverse_basis_images():
    eb = eigenbasis()
    for F in eb.normalized:
        assert l2h_norm(H0, inverse_weyl(FR, H0, F)) == PiScalar(1)


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (1, 3), (4, 1)])
def test_step_vector_measures_float_rounding_against_the_pair(m, n):
    # (f, g) = q(t) (-s, c) has constrained component zero, up to rounding
    r = m * m + n * n
    c, s = Fraction(m * m - n * n, r), Fraction(2 * m * n, r)
    H = Hamiltonian([Segment(Fraction(1), (c * c, c * s, s * s))])
    cf, sf = math.sqrt(float(c * c)), math.copysign(math.sqrt(float(s * s)), float(c * s))
    rng = np.random.default_rng(10 * m + n)
    for _ in range(200):
        q = rng.normal(size=3) + 1j * rng.normal(size=3)
        StepVector(H, [(Polynomial(list(-sf * q)), Polynomial(list(cf * q)))])
        # a constrained component that varies, even by 1e-6 of the scale, is rejected
        with pytest.raises(ValueError, match="L-hat"):
            StepVector(H, [(Polynomial(list(-sf * q + [0, 1e-6 * cf, 0])),
                            Polynomial(list(cf * q + [0, 1e-6 * sf, 0])))])


def test_l2h_norm_zero_vector():
    assert l2h_norm(H0, StepVector.zero(H0)) == PiScalar(0)


def test_f0_image_is_constant_vector_with_unit_norm():
    eb = eigenbasis()
    F0 = eb.normalized[1]  # eigenvalue 0
    v = inverse_weyl(FR, H0, F0)
    for f, g in v.components:
        assert f.is_zero()
        assert g == Polynomial([PiScalar(-1, 1, 1)])  # -sqrt(pi)
    assert l2h_norm(H0, v) == PiScalar(1)


def test_f1_image_matches_solution_rows():
    eb = eigenbasis()
    F1 = eb.normalized[2]  # eigenvalue 1
    v = inverse_weyl(FR, H0, F1)
    scale = PiScalar(Fraction(1, 2), 2, 1)  # sqrt(pi/2)
    w = StepVector.from_row_values(H0, Fraction(1), scale=scale)
    for (f1, g1), (f2, g2) in zip(v.components, w.components):
        assert f1 == f2 and g1 == g2


def test_weyl_images_of_basis_vectors():
    imgs = [weyl_transform(H0, StepVector.basis_vector(H0, k)) for k in range(3)]
    assert imgs[0] == Polynomial([HALF_OVER_PI])
    assert imgs[1] == Polynomial([PiScalar(0), PiScalar(-2, 1, -2)])
    assert imgs[2] == Polynomial([HALF_OVER_PI, PiScalar(0), PiScalar(-1, 1, -2)])


def test_weyl_zero_vector():
    assert weyl_transform(H0, StepVector.zero(H0)).is_zero()


def test_weyl_inverse_weyl_identity_on_basis():
    eb = eigenbasis()
    for F in eb.normalized:
        back = weyl_transform(H0, inverse_weyl(FR, H0, F))
        assert back == Polynomial(list(F.coeffs))


def test_inverse_weyl_zero():
    v = inverse_weyl(FR, H0, Polynomial.zero())
    assert l2h_norm(H0, v) == PiScalar(0)


def test_inverse_images_orthonormal():
    eb = eigenbasis()
    invs = [inverse_weyl(FR, H0, F) for F in eb.normalized]
    for i in range(3):
        for j in range(3):
            expect = PiScalar(1) if i == j else PiScalar(0)
            assert l2h_inner(H0, invs[i], invs[j]) == expect


def test_inverse_weyl_respects_constraints():
    eb = eigenbasis()
    for F in eb.normalized:
        v = inverse_weyl(FR, H0, F)
        for seg, (f, g) in zip(H0.segments, v.components):
            pa, pb, pc = seg.proj
            row = (pa, pb) if pa else (pb, pc)
            constrained = f * row[0] + g * row[1]
            assert constrained.degree <= 0


def test_screw_line_gram_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t, s = rng.uniform(-5, 5, 2)
        lhs = screw_line_S(FR, t).inner(screw_line_S(FR, s))
        assert abs(lhs - math.pi * kernel_g(G0, t, s)) < 1e-12


def test_screw_line_norm_identity():
    for t in (0.3, 1.1, 2.9):
        assert abs(screw_line_S(FR, t).norm2() + 2 * math.pi * eval_screw(G0, t).real) < 1e-12


def test_screw_line_at_zero():
    assert screw_line_S(FR, 0.0).norm2() == 0.0


def test_phat_basis_aligned():
    phi = aligned_test_function([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    v = phat(FR, phi)
    # eigenvalue order is (-1, 0, 1): expect (0, sqrt(pi), 0)
    assert abs(v.coeffs[0]) < 1e-10
    assert v.coeffs[1] == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    assert abs(v.coeffs[2]) < 1e-10


def test_phat_zero():
    from screwfn.screw import TestFunction

    phi0 = TestFunction(np.zeros(513), (-3.0, 3.0))
    assert phat(FR, phi0).norm2() == 0.0


def test_e_times_expands_eigenbasis():
    phi = aligned_test_function([-1.0, 0.0, 1.0], [0.0, -1 / math.sqrt(math.pi), 0.0])
    P = E_times(FR, phat(FR, phi))
    # expect -F0 = (1 - z^2)/sqrt(pi)
    expect = [1 / math.sqrt(math.pi), 0.0, -1 / math.sqrt(math.pi)]
    for k, c in enumerate(expect):
        assert complex(P.coeff(k)) == pytest.approx(c, abs=1e-9)


def test_l0_map_on_aligned_basis():
    # Phi1 = -1/sqrt(pi) at 0 and 0 at +-1 maps to sqrt(pi) [C(t,0); D(t,0)]
    phi = aligned_test_function([-1.0, 0.0, 1.0], [0.0, -1 / math.sqrt(math.pi), 0.0])
    v = L0_map(FR, H0, phi)
    for f, g in v.components:
        assert max(abs(complex(c)) for c in g.coeffs) == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        assert all(abs(complex(c)) < 1e-9 for c in f.coeffs)


def test_weyl_l0_equals_e_phat():
    rng = np.random.default_rng(1)
    from screwfn.screw import random_test_function

    for _ in range(5):
        phi = random_test_function(rng, n=1025)
        lhs = weyl_transform(H0, L0_map(FR, H0, phi))
        rhs = E_times(FR, phat(FR, phi))
        diff = lhs - rhs
        assert all(abs(complex(c)) < 1e-9 for c in diff.coeffs)


def test_diagram_check_passes():
    rep = diagram_check(G0, FR, H0, n_samples=20, seed=0)
    assert rep.passed
    assert rep.isometry_kernel_vs_measure < 1e-6
    assert rep.triangle_weyl_l0_vs_model < 1e-6
    assert rep.square_phase_constant == pytest.approx(-1j, abs=1e-12)
    # the measured Gram constant of the aligned basis is 1, not 1/pi
    assert rep.basis_gram_constant == pytest.approx(1.0, abs=1e-9)
    assert rep.basis_gram_offdiag < 1e-9


def _frame_and_hamiltonian(tau):
    """The pipeline's frame, with B(0) = 1, and its Hamiltonian, for a symmetric tau with an atom at 0."""
    E = theta_to_e(cayley_q_to_theta(q_from_measure(NevanlinnaData(0, 0, tau))))
    fr = HermiteBiehlerFrame.from_e(E / ab_split(E)[1](0))
    return fr, factorize(MatrixPolynomial([bezout_complete(fr.A, fr.B), (fr.A, fr.B)]))


@functools.cache
def _five_atoms():
    """(g, frame, H) of tau = {+-2: 1/4, +-1/2: 1/2, 0: 1}, where |E(+-2)|^2 = 225/4, not 1."""
    tau = DiscreteMeasure([-2, Fraction(-1, 2), 0, Fraction(1, 2), 2],
                          [Fraction(1, 4), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 4)])
    return ScrewFunctionData(Fraction(0), Fraction(0), tau), *_frame_and_hamiltonian(tau)


def test_inverse_weyl_weights_by_mu_over_abs_e_squared():
    g, fr, H = _five_atoms()
    assert fr.E(ExactComplex(2)).abs2() == Fraction(225, 4)
    basis = extension_eigenbasis(fr, math.pi / 2).normalized
    invs = [inverse_weyl(fr, H, F) for F in basis]
    for i, u in enumerate(invs):
        assert weyl_transform(H, u) == basis[i]
        for j, v in enumerate(invs):
            assert l2h_inner(H, u, v) == (1 if i == j else 0)
    rep = diagram_check(g, fr, H, n_samples=3, seed=0)
    assert rep.triangle_weyl_l0_vs_model < 1e-12 and rep.passed


def test_inverse_weyl_reads_each_pi_half_eigenvector_at_its_point_alone(monkeypatch):
    # {0: 1} and {+-(2k-1)/4: (2(k mod 3)+1)/8}, k = 1..3: F_x vanishes at every level point but x
    points, masses = [0], [Fraction(1)]
    for k in range(1, 4):
        x, m = Fraction(2 * k - 1, 4), Fraction(2 * (k % 3) + 1, 8)
        points += [-x, x]
        masses += [m, m]
    fr, H = _frame_and_hamiltonian(DiscreteMeasure(points, masses))
    basis = extension_eigenbasis(fr, math.pi / 2)
    calls, build = [], weyl._row_vectors

    def counted(H, batch):
        calls.append([[gamma for gamma, _ in samples] for samples in batch])
        return build(H, batch)

    monkeypatch.setattr(weyl, "_row_vectors", counted)
    for x, F in zip(basis.eigenvalues, basis.normalized):
        calls.clear()
        assert weyl_transform(H, inverse_weyl(fr, H, F)) == F
        assert calls == [[[x]]]
    # the batch of all seven is one row table, with one sample per eigenvector
    calls.clear()
    weyl._inverse_images(fr, H, basis.normalized)
    assert calls == [[[x] for x in basis.eigenvalues]]


def _reference_diagram(g, frame, H, K, n_samples, seed, support=(-3.0, 3.0)):
    """diagram_check's first four residuals, one sample at a time, from the single-sample maps.

    The kernel leg is the dense double sum over K = [G(t_i, t_j)] on the sample grid.
    """
    model = weyl._model_basis(frame)
    rng = np.random.default_rng(seed)
    worst = [0.0] * 4
    for _ in range(n_samples):
        phi = random_test_function(rng, support=support)
        norm_kernel = _dense_kernel_side(g, phi, phi, K).real
        norm_measure = sum(abs(phi1(phi, gam)) ** 2 * m for gam, m in g.float_atoms)
        scale = max(1.0, abs(norm_measure))
        v = phat(frame, phi)
        norm_model = v.norm2() / math.pi
        P = E_times(frame, v)
        norm_restr = restr = 0.0
        for gam, m, F in model:
            E = complex(frame.E(complex(gam)))
            val = complex(P(complex(gam))) / E
            norm_restr += abs(val) ** 2 * m / math.pi
            restr = max(restr, abs(val - math.sqrt(m) * complex(F(complex(gam))) / E * phi1(phi, gam)))
        legs = (
            abs(norm_kernel - norm_measure) / scale,
            abs(norm_measure - norm_model) / scale,
            abs(norm_model - norm_restr) / scale,
            restr,
        )
        worst = [max(a, b) for a, b in zip(worst, legs)]
    return worst


def _triangle_terms(frame, H):
    """[(sqrt(mu_k), W(inverse_weyl F_k) - F_k)] over the exact pi/2 eigenbasis, computed exactly."""
    basis = extension_eigenbasis(frame, math.pi / 2)
    return [
        (math.sqrt(float(frame.mu.mass_at(x))), weyl_transform(H, inverse_weyl(frame, H, F)) - F)
        for x, F in zip(basis.eigenvalues, basis.normalized)
    ]


def _diagram_case(case):
    """(g, frame, H) of g0, of the five-atom tau, or "crossed": g0 with the five-atom frame and H0.

    On "crossed" the measure-model and triangle legs are far from 0, so a
    batched leg that lost its sample would show.
    """
    if case == "g0":
        return G0, FR, H0
    if case == "five-atoms":
        return _five_atoms()
    return G0, _five_atoms()[1], H0


@pytest.mark.parametrize("case, seeds", [
    ("g0", (0, 1, 2)), ("five-atoms", (0,)), ("crossed", (0,)),
], ids=["g0", "five-atoms", "crossed"])
def test_diagram_legs_match_the_single_sample_maps(case, seeds):
    g, fr, H = _diagram_case(case)
    ts = np.linspace(-3.0, 3.0, 2049)
    K = kernel_g(g, ts[:, None], ts[None, :])
    terms = _triangle_terms(fr, H)
    triangle = max(r * max((abs(complex(c)) for c in d.coeffs), default=0.0) for r, d in terms)
    for seed in seeds:
        rep = diagram_check(g, fr, H, n_samples=20, seed=seed)
        fields = (
            rep.isometry_kernel_vs_measure,
            rep.isometry_measure_vs_model,
            rep.isometry_model_vs_restriction,
            rep.square_phi1_vs_restriction,
        )
        for got, want in zip(fields, _reference_diagram(g, fr, H, K, 20, seed)):
            assert abs(got - want) <= 1e-13
        # the triangle leg is exact and sample-free: 0.0 exactly when the triangle commutes
        assert rep.triangle_weyl_l0_vs_model == triangle
        if case == "crossed":
            assert triangle > 1e-6 and not rep.passed
        else:
            assert triangle == 0.0


@pytest.mark.parametrize("case", ["g0", "five-atoms", "crossed"])
def test_diagram_check_reads_each_pi_half_eigenvector_at_its_own_point(case, monkeypatch):
    # F_k = c_k A/(z - x_k) vanishes at every level point but x_k, so F_k(x_k) alone gives the
    # restriction's diagonal and the one-sample row of inverse_weyl F_k: k evaluations, where
    # the k x k restriction matrix and the generic _inverse_images scan took 2 k^2
    g, fr, H = _diagram_case(case)
    basis = fr.pi_half_eigenbasis
    generic = weyl._weyl_images(H, weyl._inverse_images(fr, H, basis.normalized))
    want = max(math.sqrt(m) * max((abs(complex(c)) for c in (W - F).coeffs), default=0.0)
               for (_, m, F), W in zip(weyl._model_basis(fr), generic))
    owner = {id(F): k for k, F in enumerate(basis.normalized)}
    reads, call = [], Polynomial.__call__

    def counted(self, x):
        if id(self) in owner:
            reads.append((owner[id(self)], x))
        return call(self, x)

    def refused(*args):
        raise AssertionError("diagram_check scanned the level set through _inverse_images")

    monkeypatch.setattr(Polynomial, "__call__", counted)
    monkeypatch.setattr(weyl, "_inverse_images", refused)
    rep = diagram_check(g, fr, H, n_samples=2, seed=0)
    assert reads == list(enumerate(basis.eigenvalues))
    assert rep.triangle_weyl_l0_vs_model == want
    assert (want > 1e-6) if case == "crossed" else (want == 0.0)


def test_diagram_triangle_terms_are_the_single_sample_difference():
    # W(L0 phi) - E phat(phi) = sum_k sqrt(mu_k) Phi1(phi, g_k) (W(inverse_weyl F_k) - F_k),
    # since F_k vanishes at every level point but g_k; on the crossed data it is far from 0
    g, fr, H = G0, _five_atoms()[1], H0
    terms = _triangle_terms(fr, H)
    rng = np.random.default_rng(0)
    for _ in range(3):
        phi = random_test_function(rng, support=(-3.0, 3.0))
        got = weyl_transform(H, L0_map(fr, H, phi)) - E_times(fr, phat(fr, phi))
        want = Polynomial.zero()
        for (r, d), (gam, _, _) in zip(terms, weyl._model_basis(fr)):
            want = want + Polynomial([complex(c) for c in d.coeffs]) * (r * phi1(phi, gam))
        assert max(abs(complex(c)) for c in got.coeffs) > 1.0
        assert all(abs(complex(c)) < 1e-12 for c in (got - want).coeffs)


def test_diagram_zero_function_residuals():
    rep = diagram_check(G0, FR, H0, n_samples=1, seed=3)
    assert rep.passed


def test_diagram_check_builds_no_dense_kernel():
    # the isometry legs come from the FFT Toeplitz form, built once with the level-point
    # maps, so the peak stays below a sixteenth of one dense complex kernel (16 n^2 bytes)
    # at the sample grid n = 2049
    n = 2049
    tracemalloc.start()
    try:
        rep = diagram_check(G0, FR, H0, n_samples=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 16 * n * n / 16


def test_diagram_detects_perturbed_mass():
    tau_bad = DiscreteMeasure(
        [Fraction(-1), Fraction(0), Fraction(1)],
        [Fraction(1, 2), Fraction(101, 100), Fraction(1, 2)],
    )
    g_bad = ScrewFunctionData(Fraction(0), Fraction(0), tau_bad)
    rep = diagram_check(g_bad, FR, H0, n_samples=6, seed=0)
    assert not rep.passed
    # the mismatch is confined to the leg where the measure meets the model
    assert rep.isometry_measure_vs_model > 1e-4
    assert rep.isometry_kernel_vs_measure < 1e-8
    assert rep.isometry_model_vs_restriction < 1e-8
    assert rep.triangle_weyl_l0_vs_model < 1e-8


def test_weyl_transform_and_l2h_inner_reject_a_vector_on_another_hamiltonian():
    head = Hamiltonian(H0.segments[:2])
    F = StepVector.basis_vector(H0, 1)
    with pytest.raises(ValueError, match="different Hamiltonians"):
        weyl_transform(head, F)
    with pytest.raises(ValueError, match="different Hamiltonians"):
        l2h_inner(head, F, F)
    with pytest.raises(ValueError, match="different Hamiltonians"):
        l2h_inner(H0, F, StepVector.zero(head))
    # an equal Hamiltonian built apart carries the same vectors
    again = factorize(w0_matrix())
    assert weyl_transform(again, F) == weyl_transform(H0, F)
    assert l2h_inner(again, F, F) == l2h_inner(H0, F, F)


# -- the Polynomial-row formulas that the integer rows replace -------------------------------


def _poly_weyl(H, F):
    """The breakpoint-row formula over the Polynomial rows of solution_rows_affine.

    P F is the constant (c, c pb/pa), or (0, c) when pa = 0, on each segment,
    for c = F.constrained; it is parallel to e, so R1 P F = 0 and the row
    R0 = (C, D) integrates to c L (C + (pb/pa) D), or c L D.
    """
    acc = Polynomial.zero()
    rows = canonical.solution_rows_affine(H)
    for seg, ((C, D), _), c in zip(H.segments, rows, F.constrained):
        pa, pb, _ = seg.proj
        if c:
            acc = acc + ((C + D * (pb / pa) if pa else D) * seg.length) * c
    return acc * PiScalar(1, 1, -2)


def _moment_weyl(H, F):
    """The full moment sum over every coefficient of P F and the Polynomial rows."""
    acc = Polynomial.zero()
    rows = canonical.solution_rows_affine(H)
    for seg, ((r0c, r0d), (r1c, r1d)), (f, g) in zip(H.segments, rows, F.components):
        pa, pb, pc = seg.proj
        u, v = f * pa + g * pb, f * pb + g * pc
        L = seg.length
        for j in range(max(u.degree, v.degree) + 2):
            Ij = Fraction(L ** (j + 1), j + 1)
            uc, vc = u.coeff(j), v.coeff(j)
            if uc:
                acc = acc + r0c * (uc * Ij) + r1c * (uc * Fraction(L ** (j + 2), j + 2))
            if vc:
                acc = acc + r0d * (vc * Ij) + r1d * (vc * Fraction(L ** (j + 2), j + 2))
    return acc * PiScalar(1, 1, -2)


def _poly_row_vector(H, gamma, scale):
    """scale * [C(t, gamma); D(t, gamma)], evaluating the Polynomial rows by Horner."""
    return StepVector(H, [
        (Polynomial([r0[0](gamma) * scale, r1[0](gamma) * scale]),
         Polynomial([r0[1](gamma) * scale, r1[1](gamma) * scale]))
        for r0, r1 in canonical.solution_rows_affine(H)
    ])


def _poly_inverse_weyl(frame, H, F):
    total = StepVector.zero(H)
    for g, w in frame.weights:
        total = total + _poly_row_vector(H, g, F(g) * w)
    return total


def _breakpoint_row_vector(H, samples):
    """sum of s [C(t, g); D(t, g)] over samples, from the rows of W at the breakpoints.

    On segment k a sample adds s b_{k-1} and ((b_k - b_{k-1})/L_k) s, b_k the
    bottom row of fundamental_solution at t_k evaluated at g; each part is
    summed from 0.
    """
    rows = [fundamental_solution(H, t).entries[1] for t in H.breakpoints]
    return StepVector(H, [
        tuple(Polynomial([sum(lo[k](g) * s for g, s in samples),
                          sum((hi[k](g) - lo[k](g)) / seg.length * s for g, s in samples)])
              for k in (0, 1))
        for seg, lo, hi in zip(H.segments, rows, rows[1:])
    ])


def _unsigned_zeros(V):
    """repr of V's components with the sign of every float zero part dropped."""
    def part(c):
        return complex(c.real + 0.0, c.imag + 0.0) if isinstance(c, complex) else c
    return repr([tuple(Polynomial([part(c) for c in p.coeffs]) for p in pair) for pair in V.components])


def _assert_exactly(got, want):
    """== and hash-equal components, and repr-equal up to the sign of zero."""
    assert got.components == want.components
    assert hash(got.components) == hash(want.components)
    assert _unsigned_zeros(got) == _unsigned_zeros(want)


def _assert_close(got, want, rel):
    """Every coefficient within rel of the largest coefficient of got."""
    pairs = [(a, b) for u, v in zip(got.components, want.components) for p, q in zip(u, v)
             for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0)]
    scale = max((abs(a) for a, _ in pairs), default=0.0)
    assert all(abs(a - b) <= rel * scale for a, b in pairs)


def _direction(seg):
    """(c, s) with P = [[c^2, cs], [cs, s^2]]; exact for a Pythagorean direction."""
    pa, pb, pc = seg.proj
    c = Fraction(math.isqrt(pa.numerator), math.isqrt(pa.denominator))
    s = Fraction(math.isqrt(pc.numerator), math.isqrt(pc.denominator))
    assert (c * c, c * s, s * s) == (pa, abs(pb), pc)
    return c, (s if pb >= 0 else -s)


# step_vectors draws many independent numbers per segment, and shrinking a failure of a
# property over them took minutes; such a failure is reported as first drawn
UNSHRUNK = settings(phases=[p for p in Phase if p is not Phase.shrink])

FLOATS = st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-2, 2))  # signed zeros often


@st.composite
def step_vectors(draw, H, kinds=("exact", "pi", "float", "mixed"), max_degree=2):
    """A step vector on H, zero on a random set of segments, of one of kinds.

    On each segment (f, g) = a (c, s) + q(t) (-s, c) for the direction (c, s):
    exact rationals, the same times a pi-graded scalar, complex floats with
    the direction rounded to floats (|a| >= 1/2 there, so the rounding left
    in the constrained component stays below the 1e-9 check), or exact and
    float segments mixed.  Components have degree <= max_degree.
    """
    kind = draw(st.sampled_from(list(kinds)))
    comps = []
    for seg in H.segments:
        if draw(st.booleans()):
            comps.append((Polynomial.zero(), Polynomial.zero()))
            continue
        n_free = draw(st.integers(0, max_degree + 1))
        if kind == "float" or kind == "mixed" and draw(st.booleans()):
            pa, pb, pc = seg.proj
            c, s = math.sqrt(float(pa)), math.copysign(math.sqrt(float(pc)), float(pb))
            a = complex(draw(st.floats(0.5, 2)) * draw(st.sampled_from([1, -1])), draw(FLOATS))
            q = [complex(draw(FLOATS), draw(FLOATS)) for _ in range(n_free)]
            zero = 0j
        else:
            c, s = _direction(seg)
            a = draw(st.fractions(-3, 3, max_denominator=5))
            q = [draw(st.fractions(-3, 3, max_denominator=5)) for _ in range(n_free)]
            zero = Fraction(0)
        q += [zero] * (1 - len(q))
        f = Polynomial([a * c - q[0] * s] + [-x * s for x in q[1:]])
        g = Polynomial([a * s + q[0] * c] + [x * c for x in q[1:]])
        comps.append((f, g))
    F = StepVector(H, comps)
    if kind == "pi":
        F = F * PiScalar(draw(st.fractions(-3, 3, max_denominator=5)), draw(st.sampled_from([1, 2, 3])),
                         draw(st.integers(-2, 2)))
    if kind in ("float", "mixed") and draw(st.booleans()):
        F = F + -StepVector.basis_vector(H, draw(st.integers(0, len(H) - 1)))
    return F


@st.composite
def level_set_frames(draw):
    """A stand-in for a frame: inverse_weyl reads only dim and the sampling weights.

    Exact points with pi-graded weights, the scalar types of an exact frame's
    weights, with rational or complex weights, or float points with float
    weights.
    """
    points = draw(st.lists(st.fractions(-3, 3, max_denominator=5), min_size=1, max_size=4,
                           unique=True))
    weights = [draw(st.fractions(Fraction(1, 8), 2, max_denominator=8)) for _ in points]
    kind = draw(st.sampled_from(["pi", "fraction", "complex", "float"]))
    if kind == "float":
        pairs = [(float(p), float(w)) for p, w in zip(points, weights)]
    else:
        as_weight = {"pi": lambda w: PiScalar(w, 1, 2), "fraction": lambda w: w,
                     "complex": lambda w: complex(w, -w / 3)}[kind]
        pairs = [(ExactComplex(p), as_weight(w)) for p, w in zip(points, weights)]
    return SimpleNamespace(dim=len(points), weights=tuple(pairs))


@settings(UNSHRUNK, max_examples=40)
@given(pythagorean_hamiltonian(), st.data())
def test_weyl_layer_equals_the_polynomial_row_formulas(H, data):
    F = data.draw(step_vectors(H))
    assert repr(weyl_transform(H, F)) == repr(_poly_weyl(H, F))
    # at exact points the row samples are the Polynomial rows', for exact, pi-graded and
    # complex scales
    gamma = data.draw(st.fractions(-3, 3, max_denominator=7))
    for scale in (data.draw(st.fractions(-3, 3, max_denominator=5)), PiScalar(Fraction(1, 2), 2, 1),
                  complex(data.draw(FLOATS), data.draw(FLOATS))):
        _assert_exactly(StepVector.from_row_values(H, gamma, scale), _poly_row_vector(H, gamma, scale))
    frame = data.draw(level_set_frames())
    P = Polynomial([data.draw(st.fractions(-3, 3, max_denominator=5)) for _ in range(frame.dim)])
    V = inverse_weyl(frame, H, P)
    old = _poly_inverse_weyl(frame, H, P)
    if isinstance(frame.weights[0][0], float):
        # the slope (b_k - b_{k-1})/L_k of the breakpoint rows is rounded where the Polynomial
        # rows' R1 is exact, so the breakpoint-row formula is the reference and theirs is close:
        # over 9000 random draws they moved by at most 1.3e-12 of the largest coefficient
        samples = [(g, P(g) * w) for g, w in frame.weights if P(g)]
        assert repr(V.components) == repr(_breakpoint_row_vector(H, samples).components)
        _assert_close(V, old, 1e-10)
    else:
        for got in (V, weyl._inverse_images(frame, H, [P, P])[1]):
            _assert_exactly(got, old)
            assert repr(got.components) == repr(old.components)
    assert repr(weyl_transform(H, V)) == repr(_poly_weyl(H, V))
    # so at a float point with a complex scale
    gamma = data.draw(st.floats(-3, 3))
    scale = complex(data.draw(FLOATS), data.draw(FLOATS))
    got = StepVector.from_row_values(H, gamma, scale)
    assert repr(got.components) == repr(_breakpoint_row_vector(H, [(gamma, scale)]).components)
    _assert_close(got, _poly_row_vector(H, gamma, scale), 1e-10)


def test_weyl_transform_reads_the_integer_rows(monkeypatch):
    pairs = ((1, 0), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))
    segments = []
    for k in range(32):
        m, n = pairs[(3 * k) % len(pairs)]
        r = m * m + n * n
        c, s = Fraction(m * m - n * n, r), Fraction(2 * m * n, r)
        segments.append(Segment(Fraction(k % 7 + 1, 4), (c * c, c * s, s * s)))
    H = Hamiltonian(segments)
    vectors = [StepVector.basis_vector(H, k) for k in (0, 1, 17, 31)]
    vectors.append(sum(vectors[1:], vectors[0]))
    calls = []
    rows, poly_mul = canonical.solution_rows_affine, Polynomial.__mul__

    def counted_rows(*args, **kwargs):
        calls.append("solution_rows_affine")
        return rows(*args, **kwargs)

    def counted_poly(self, other):
        if isinstance(other, Polynomial):
            calls.append("Polynomial")
        return poly_mul(self, other)

    monkeypatch.setattr(canonical, "solution_rows_affine", counted_rows)
    monkeypatch.setattr(Polynomial, "__mul__", counted_poly)
    images = [weyl_transform(H, F) for F in vectors]
    assert calls == []
    # the counters see the rows and the products of the Polynomial formulas
    assert [repr(_poly_weyl(H, F)) for F in vectors] == [repr(img) for img in images]
    _segment_product(H, Fraction(1))
    assert "solution_rows_affine" in calls and "Polynomial" in calls


def test_float_basis_image_reads_the_breakpoint_row_alone():
    # P F is parallel to e, so the t R1 half of the row adds e^T J e = 0; summed in floats it
    # left this image a z-coefficient of -2.2e-18.  basis_vector is exact; its complex copy
    # takes the float path
    H = _thirty_two_segments()
    F = StepVector.basis_vector(H, 1) * complex(1)
    assert isinstance(F.constrained[1], complex)
    seg = H.segments[1]
    pa, pb, _ = seg.proj
    C, D = fundamental_solution(H, H.breakpoints[1]).entries[1]
    want = ((C + D * (pb / pa)) * seg.length) * F.constrained[1] * PiScalar(1, 1, -2)
    got = weyl_transform(H, F)
    assert repr(got) == repr(want) and got.degree == 0


@settings(UNSHRUNK, max_examples=30)
@given(pythagorean_hamiltonian(), st.data())
def test_batched_weyl_maps_equal_their_one_element_calls(H, data):
    vectors = data.draw(st.lists(step_vectors(H, kinds=("exact", "pi")), max_size=4))
    got, want = weyl._weyl_images(H, vectors), [weyl_transform(H, F) for F in vectors]
    assert got == want and [hash(p) for p in got] == [hash(p) for p in want]
    frame = data.draw(level_set_frames())
    polys = [Polynomial([data.draw(st.fractions(-3, 3, max_denominator=5)) for _ in range(frame.dim)])
             for _ in range(data.draw(st.integers(0, 4)))]
    got = weyl._inverse_images(frame, H, polys)
    want = [inverse_weyl(frame, H, P) for P in polys]
    assert [repr(V.components) for V in got] == [repr(V.components) for V in want]
    assert [V.constrained for V in got] == [V.constrained for V in want]


def _product_l2h_inner(H, F1, F2):
    """l2h_inner by Polynomial products and an antiderivative on each segment: the reference."""
    total = 0
    for seg, (f1, g1), (f2, g2) in zip(H.segments, F1.components, F2.components):
        pa, pb, pc = seg.proj
        f2c, g2c = sharp(f2), sharp(g2)
        integrand = (f1 * f2c) * pa + (f1 * g2c + g1 * f2c) * pb + (g1 * g2c) * pc
        total = total + integrand.integrate(Fraction(0), seg.length)
    return total / PI


@settings(UNSHRUNK, max_examples=60)
@given(pythagorean_hamiltonian(), st.data())
def test_l2h_inner_equals_the_polynomial_product_formula(H, data):
    F1, F2 = (data.draw(step_vectors(H, kinds=("exact", "pi"), max_degree=3)) for _ in range(2))
    # a nonreal factor, so that a missing conjugation would show
    re, im = (data.draw(st.fractions(-2, 2, max_denominator=3)) for _ in range(2))
    F2 = F2 * ExactComplex(re, im)
    for u, v in ((F1, F2), (F2, F1), (F1, F1)):
        got, want = l2h_inner(H, u, v), _product_l2h_inner(H, u, v)
        assert got == want and hash(got) == hash(want)
    # Hermitian exactly, which lets the weyl-transform-images check read each pair once
    assert l2h_inner(H, F2, F1) == l2h_inner(H, F1, F2).conjugate()


@settings(UNSHRUNK, max_examples=40)
@given(pythagorean_hamiltonian(), st.data())
def test_weyl_transform_equals_the_full_moment_sum(H, data):
    F = data.draw(step_vectors(H, kinds=("exact", "pi"), max_degree=3))
    got, want = weyl_transform(H, F), _moment_weyl(H, F)
    assert got == want and hash(got) == hash(want)


@settings(UNSHRUNK, max_examples=40)
@given(pythagorean_hamiltonian(), st.data())
def test_a_free_part_changes_no_segment_constant(H, data):
    # H = e e^T kills q(t) (-s, c): the constants, inner products and images stay exactly
    F, G = (data.draw(step_vectors(H, kinds=("exact",), max_degree=3)) for _ in range(2))
    free = []
    for seg in H.segments:
        c, s = _direction(seg)
        q = Polynomial([data.draw(st.fractions(-3, 3, max_denominator=5))
                        for _ in range(data.draw(st.integers(0, 4)))])
        free.append((q * -s, q * c))
    free = StepVector(H, free)
    assert all(not c for c in free.constrained)
    scale = data.draw(st.sampled_from([1, PiScalar(Fraction(-3, 2), 2, 1), PiScalar(Fraction(1, 3), 3, -2)]))
    F, moved = F * scale, (F + free) * scale
    assert moved.constrained == F.constrained
    for got, want in ((l2h_inner(H, moved, G), l2h_inner(H, F, G)),
                      (l2h_inner(H, G, moved), l2h_inner(H, G, F)),
                      (l2h_norm(H, moved), l2h_norm(H, F)),
                      (weyl_transform(H, moved), weyl_transform(H, F))):
        assert got == want and hash(got) == hash(want)


def test_aligned_basis_gram_samples_the_windowed_monomials_once(monkeypatch):
    # k aligned functions over k + 1 windowed monomials: one screw-line column per level point
    # for the solve matrix and one per atom for the profiles, 6 on g0, where 21 phi1 calls each
    # formed a column of their own and one matrix per target made 45
    basis = FR.pi_half_eigenbasis
    points = [float(x) for x in basis.eigenvalues]
    boundary = [complex(F(x) / FR.E(x)) for x, F in zip(basis.eigenvalues, basis.normalized)]
    aligned = []
    for k, value in enumerate(boundary):
        targets = [0j] * len(points)
        targets[k] = math.sqrt(math.pi) * value
        aligned.append(aligned_test_function(points, targets))
    profiles = np.array([[phi1(phi, p) for p, _ in G0.float_atoms] for phi in aligned])
    gram = (profiles * [m for _, m in G0.float_atoms]) @ profiles.conj().T
    want = (float(np.mean(np.abs(np.diag(gram)))), float(np.max(np.abs(gram - np.diag(np.diag(gram))))))
    columns, line = [], screw._screw_line

    def counted(ts, at):
        columns.append(len(at))
        return line(ts, at)

    monkeypatch.setattr(screw, "_screw_line", counted)
    monkeypatch.setattr(weyl, "_screw_line", counted)
    assert weyl._aligned_basis_gram(np.array(G0.float_atoms), points, boundary) == want  # one aligned sample per target
    k, atoms = len(points), len(G0.float_atoms)
    assert columns == [k, atoms] and sum(columns) == 6


def test_diagram_check_draws_the_successive_random_test_functions(monkeypatch):
    drawn, draws = [], screw._random_draws

    def recorded(rng, support, n):
        for phi in draws(rng, support, n):
            drawn.append(phi)
            yield phi

    monkeypatch.setattr(weyl, "_random_draws", recorded)
    rep = diagram_check(G0, FR, H0, n_samples=5, seed=4)
    assert rep.passed and len(drawn) == 5
    rng = np.random.default_rng(4)
    for phi in drawn:
        want = random_test_function(rng, support=(-3.0, 3.0), n=2049)
        assert phi.support == want.support
        assert phi.samples.tobytes() == want.samples.tobytes()
