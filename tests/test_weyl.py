import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from screwfn.algebra import Polynomial
from screwfn.canonical import factorize, w0_matrix
from screwfn.debranges import e0_frame, extension_eigenbasis
from screwfn.exact import ExactComplex, PiScalar
from screwfn.screw import (
    ScrewFunctionData,
    aligned_test_function,
    eval_screw,
    g0_data,
    kernel_g,
)
from screwfn.spectra import DiscreteMeasure
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


def test_step_vector_free_component_allowed():
    comps = [(Polynomial([0, 1]), Polynomial([2]))] + [(Polynomial.zero(), Polynomial.zero())] * 2
    v = StepVector(H0, comps)
    f, g = v.value(Fraction(1, 4))
    assert f == ExactComplex(Fraction(1, 4)) and g == ExactComplex(2)


def test_l2h_norm_of_inverse_basis_images():
    eb = eigenbasis()
    for F in eb.normalized:
        assert l2h_norm(H0, inverse_weyl(FR, H0, F)) == PiScalar(1)


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
    phi = aligned_test_function(1.0, 0.0, 0.0)
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
    phi = aligned_test_function(-1 / math.sqrt(math.pi), 0.0, 0.0)
    P = E_times(FR, phat(FR, phi))
    # expect -F0 = (1 - z^2)/sqrt(pi)
    expect = [1 / math.sqrt(math.pi), 0.0, -1 / math.sqrt(math.pi)]
    for k, c in enumerate(expect):
        assert complex(P.coeff(k)) == pytest.approx(c, abs=1e-9)


def test_l0_map_on_aligned_basis():
    # phihat'(0) = -1/sqrt(pi), phihat(+-1) = 0 maps to sqrt(pi) [C(t,0); D(t,0)]
    phi = aligned_test_function(-1 / math.sqrt(math.pi), 0.0, 0.0)
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


def test_diagram_zero_function_residuals():
    rep = diagram_check(G0, FR, H0, n_samples=1, seed=3)
    assert rep.passed


def test_diagram_check_builds_no_dense_kernel():
    # the isometry legs come from inner_product_Hg's Toeplitz form, so the peak stays
    # below a sixteenth of one dense complex kernel (16 n^2 bytes) at the default n = 2049
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
