import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from screwfn import algebra, cli, debranges
from screwfn.algebra import Polynomial
from screwfn.debranges import (
    HermiteBiehlerFrame,
    boundary_value,
    e0_frame,
    extension_eigenbasis,
    gram_schmidt_basis,
    inner_product,
    kernel_ab,
    kernel_moment,
    moments,
    s_theta,
    s_theta_in_space,
    sl2_transform,
)
from screwfn.exact import PI, ExactComplex, PiScalar
from screwfn.spectra import DiscreteMeasure

from test_spectra import random_hb_cubic

I = ExactComplex(0, 1)
FR = e0_frame()
ONE, Z, Z2 = (Polynomial.monomial(k) for k in range(3))


def test_inner_product_table():
    expect = [[2, 0, 1], [0, 1, 0], [1, 0, 1]]
    monos = [ONE, Z, Z2]
    for i in range(3):
        for j in range(3):
            assert inner_product(FR, monos[i], monos[j]) == PI * expect[i][j]


def test_inner_product_zero_and_degree_guard():
    assert inner_product(FR, Polynomial.zero(), Z) == PiScalar(0)
    with pytest.raises(ValueError, match="member"):
        inner_product(FR, Polynomial.monomial(3), ONE)


def test_inner_product_agrees_with_line_integral():
    # <z^2-1, z^2-1> = pi, cross-checked against the compactified line integral
    p = Polynomial([-1, 0, 1])

    def integrand(theta):
        x = math.tan(theta)
        val = abs(complex(p(x)) / complex(FR.E(complex(x)))) ** 2
        return val / math.cos(theta) ** 2

    quad, _ = integrate.quad(integrand, -math.pi / 2, math.pi / 2, limit=200)
    exact = inner_product(FR, p, p)
    assert exact == PI
    assert abs(quad - float(exact)) < 1e-6


def test_moments_table():
    mt = moments(FR)
    assert mt.moments[0] == PI * 2
    for k in range(1, 5):
        assert mt.moments[k] == PiScalar(Fraction(1 + (-1) ** k, 2), 1, 2)
    assert mt.hankel[2] == PiScalar(1, 1, 6)  # pi^3


def test_moments_degree_one_total_mass():
    E = Polynomial([I, 1])  # level point 0, mass pi, |E(0)| = 1
    frame = HermiteBiehlerFrame.from_e(E)
    assert moments(frame).moments[0] == PI


def test_hankel_positive_on_random_frames():
    rng = np.random.default_rng(10)
    for _ in range(4):
        frame = HermiteBiehlerFrame.from_e(random_hb_cubic(rng))
        for h in moments(frame).hankel:
            assert float(h) > 0


def test_kernel_ab_at_zero():
    w = 0.37 - 0.8j
    assert kernel_ab(FR, 0, w) == pytest.approx((1 - w * w) / math.pi)


def test_kernel_forms_agree_e0():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        assert abs(kernel_ab(FR, z, w) - kernel_moment(FR, z, w)) < 1e-10


def test_kernel_forms_agree_random_frames():
    rng = np.random.default_rng(12)
    for _ in range(3):
        frame = HermiteBiehlerFrame.from_e(random_hb_cubic(rng))
        for _ in range(7):
            z = complex(rng.normal(), rng.normal())
            w = complex(rng.normal(), rng.normal())
            assert abs(kernel_ab(frame, z, w) - kernel_moment(frame, z, w)) < 1e-10


def test_kernel_forms_agree_exactly_at_gaussian_rationals():
    five = HermiteBiehlerFrame.from_e(_level_set_e(
        [-2, Fraction(-1, 2), 0, Fraction(1, 2), 2],
        [Fraction(1, 4), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 4)]))
    zs = [ExactComplex(Fraction(1, 2), Fraction(-3, 4)), ExactComplex(2, 1), ExactComplex(Fraction(-1, 3)), I]
    for frame in (FR, five):
        for z in zs:
            for w in zs + [z.conjugate()]:  # the last is the diagonal w = conj z
                assert kernel_ab(frame, z, w) == kernel_moment(frame, z, w)


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        assert kernel_ab(FR, z, w) == pytest.approx(np.conj(kernel_ab(FR, w, z)))


def test_kernel_diagonal_limit():
    z = 0.4 + 0.9j
    lim = kernel_ab(FR, z, np.conj(z))
    near = kernel_ab(FR, z, np.conj(z) + 1e-9)
    assert abs(lim - near) < 1e-6


def test_reproducing_property():
    rng = np.random.default_rng(14)
    for _ in range(10):
        f = Polynomial([complex(a, b) for a, b in rng.normal(size=(3, 2))])
        w = rng.uniform(2, 5)  # real, away from the level set
        ip = 0j
        for g, m in FR.mu:
            gf = float(g)
            weight = float(m) / abs(complex(FR.E(complex(gf)))) ** 2
            ip += complex(f(complex(gf))) * np.conj(kernel_ab(FR, w, gf)) * weight
        assert abs(ip - complex(f(complex(w)))) < 1e-10


def test_gram_schmidt_basis_e0():
    q0, q1, q2 = gram_schmidt_basis(FR)
    assert q0 == Polynomial([PiScalar(Fraction(1, 2), 2, -1)])
    assert q1 == Polynomial([PiScalar(0), PiScalar(1, 1, -1)])
    assert q2 == Polynomial([PiScalar(Fraction(-1, 2), 2, -1), PiScalar(0), PiScalar(1, 2, -1)])
    for i, qi in enumerate((q0, q1, q2)):
        for j, qj in enumerate((q0, q1, q2)):
            assert inner_product(FR, qi, qj) == (PiScalar(1) if i == j else PiScalar(0))


def test_gram_schmidt_degree_one():
    frame = HermiteBiehlerFrame.from_e(Polynomial([I, 1]))
    (q0,) = gram_schmidt_basis(frame)
    assert q0 == Polynomial([PiScalar(1, 1, -1)])  # 1/sqrt(m0) with m0 = pi


def test_gram_schmidt_random_frames_orthonormal():
    rng = np.random.default_rng(15)
    for _ in range(3):
        frame = HermiteBiehlerFrame.from_e(random_hb_cubic(rng))
        basis = gram_schmidt_basis(frame)
        for i, qi in enumerate(basis):
            for j, qj in enumerate(basis):
                target = 1.0 if i == j else 0.0
                assert abs(complex(inner_product(frame, qi, qj)) - target) < 1e-10


def test_s_theta_values():
    assert s_theta(FR, 0.0) == Polynomial([ExactComplex(0, -2), 0, ExactComplex(0, 4)])
    assert s_theta(FR, math.pi / 2) == Polynomial([0, ExactComplex(0, -2), 0, ExactComplex(0, 2)])


def test_s_theta_membership():
    assert s_theta_in_space(FR, 0.0)
    assert not s_theta_in_space(FR, math.pi / 2)
    hits = [th for th in np.linspace(0, math.pi, 360, endpoint=False) if s_theta_in_space(FR, th)]
    assert hits == [0.0]


def test_s_theta_membership_unique_on_random_frames():
    rng = np.random.default_rng(16)
    for _ in range(3):
        frame = HermiteBiehlerFrame.from_e(random_hb_cubic(rng))
        # the leading coefficients of A and B decide the unique cancellation angle
        a_n = frame.A.coeff(frame.dim)
        b_n = frame.B.coeff(frame.dim)
        theta_star = math.atan2(float(b_n), float(a_n)) % math.pi
        hits = [
            th
            for th in np.linspace(0, math.pi, 181, endpoint=False)
            if s_theta_in_space(frame, th)
        ]
        assert len(hits) <= 1
        for th in hits:
            assert abs((th - theta_star + math.pi / 2) % math.pi - math.pi / 2) < 0.02


def test_extension_eigenbasis_pi_half():
    eb = extension_eigenbasis(FR, math.pi / 2)
    assert list(eb.eigenvalues) == [Fraction(-1), Fraction(0), Fraction(1)]
    Fm1, F0, F1 = eb.normalized
    assert F0 == Polynomial([PiScalar(-1, 1, -1), PiScalar(0), PiScalar(1, 1, -1)])
    assert F1 == Polynomial([PiScalar(0), PiScalar(Fraction(1, 2), 2, -1), PiScalar(Fraction(1, 2), 2, -1)])
    assert Fm1 == Polynomial([PiScalar(0), PiScalar(Fraction(-1, 2), 2, -1), PiScalar(Fraction(1, 2), 2, -1)])
    for F in eb.normalized:
        assert inner_product(FR, F, F) == PiScalar(1)


def test_extension_eigenbasis_boundary_values():
    eb = extension_eigenbasis(FR, math.pi / 2)
    Fm1, F0, F1 = eb.normalized
    assert boundary_value(FR, F0, 0) == PiScalar(ExactComplex(0, -1), 1, -1)
    assert boundary_value(FR, F1, 1) == PiScalar(ExactComplex(0, -1), 2, -1)
    assert boundary_value(FR, Fm1, -1) == PiScalar(ExactComplex(0, -1), 2, -1)


def test_extension_eigenbasis_includes_s_theta_when_in_space():
    eb = extension_eigenbasis(FR, 0.0)
    # S_0/(2i) = 2z^2 - 1 has irrational zeros and itself belongs to the space
    assert eb.eigenvalues[-1] is None
    assert eb.eigenfunctions[-1] == Polynomial([-1, 0, 2])
    gram = np.array(
        [
            [complex(inner_product(FR, a, b)) for b in eb.normalized]
            for a in eb.normalized
        ]
    )
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_extension_eigenbasis_degree_one():
    frame = HermiteBiehlerFrame.from_e(Polynomial([I, 1]))
    eb = extension_eigenbasis(frame, math.pi / 2)
    assert list(eb.eigenvalues) == [Fraction(0)]
    assert eb.normalized[0].degree == 0


def test_domain_closure_codimension_one():
    # S_0 spans the orthogonal complement of the multiplication domain (deg <= 1)
    s0_real = FR.A * Fraction(0) - FR.B  # A sin(0) - B cos(0)
    assert inner_product(FR, s0_real, ONE) == PiScalar(0)
    assert inner_product(FR, s0_real, Z) == PiScalar(0)
    assert inner_product(FR, s0_real, s0_real) != PiScalar(0)


def test_sl2_identity():
    M = [[1, 0], [0, 1]]
    fr2 = sl2_transform(FR, M)
    assert fr2.E == FR.E and fr2.A == FR.A and fr2.B == FR.B


def test_sl2_rational_rotation_scales_e():
    M = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    fr2 = sl2_transform(FR, M)
    assert fr2.E == FR.E * ExactComplex(Fraction(3, 5), Fraction(4, 5))


def test_sl2_preserves_kernel():
    rng = np.random.default_rng(17)
    mats = [
        [[Fraction(1), Fraction(0)], [Fraction(2, 3), Fraction(1)]],
        [[Fraction(2), Fraction(1, 2)], [Fraction(2), Fraction(1)]],
        [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]],
    ]
    for M in mats:
        fr2 = sl2_transform(FR, M)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal())
            w = complex(rng.normal(), rng.normal())
            assert abs(kernel_ab(FR, z, w) - kernel_ab(fr2, z, w)) < 1e-10


def test_sl2_rejects_wrong_determinant():
    with pytest.raises(ValueError, match="determinant"):
        sl2_transform(FR, [[2, 0], [0, 1]])


def test_frame_derived_data_built_once():
    fr = e0_frame()
    assert fr.weights is fr.weights
    assert moments(fr) is moments(fr)
    assert extension_eigenbasis(fr, math.pi / 2) is extension_eigenbasis(fr, math.pi / 2)
    assert extension_eigenbasis(fr, math.pi / 2) is fr.pi_half_eigenbasis


def test_warm_frame_keeps_equality_hash_and_immutability():
    warm = e0_frame()
    kernel_moment(warm, 0.5j, 1.0)
    extension_eigenbasis(warm, math.pi / 2)
    fresh = e0_frame()
    assert warm == fresh
    # a frame hashes its fields only, so its cached derived data leaves the hash alone
    assert hash(warm) == hash(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        warm.E = fresh.E


def test_transformed_frame_gets_its_own_derived_data():
    fr = e0_frame()
    moments(fr)
    fr2 = sl2_transform(fr, [[1, 1], [0, 1]])  # A2 = A + B: another level set
    assert [float(g.real) for g, _ in fr2.weights] != [float(g.real) for g, _ in fr.weights]
    assert moments(fr2) is not moments(fr)
    assert moments(fr2).moments != moments(fr).moments


def test_g0_pipeline_builds_the_pi_half_eigenbasis_once(monkeypatch):
    calls = []
    original = debranges.rational_roots

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(debranges, "rational_roots", counting)
    assert cli.run_g0_pipeline(seed=1).passed
    assert len(calls) <= 2


def test_gram_schmidt_reads_the_moment_table(monkeypatch):
    # the basis is p_k / sqrt(h_k), both kept by the moment table's recurrence
    calls = []
    original = debranges.inner_product

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(debranges, "inner_product", counting)
    basis = gram_schmidt_basis(e0_frame())
    assert len(basis) == 3
    assert calls == []


def test_pi_half_eigenbasis_reuses_the_level_set_search(monkeypatch):
    # degree 5 with zeros in the lower half-plane, as in the hb-frames benchmark
    E = Polynomial.one()
    for zeta in (ExactComplex(Fraction(1, 2), -1), ExactComplex(-2, Fraction(-2, 3)),
                 ExactComplex(0, Fraction(-3, 2)), ExactComplex(Fraction(3, 2), -3),
                 ExactComplex(Fraction(-1, 3), -1)):
        E = E * Polynomial([-zeta, ExactComplex(1)])
    calls = []
    original = algebra.rational_roots

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(algebra, "rational_roots", counting)  # the binding real_zeros reads
    monkeypatch.setattr(debranges, "rational_roots", counting)
    frame = HermiteBiehlerFrame.from_e(E)
    assert any(isinstance(g, float) for g in frame.mu.points)  # an irrational level set
    eb = extension_eigenbasis(frame, math.pi / 2)
    assert len(calls) == 1
    assert len(eb.eigenvalues) == len(frame.mu.points) == 5
    for g, h in zip(eb.eigenvalues, frame.mu.points, strict=True):
        assert type(g) is type(h) and g == h


@st.composite
def rational_level_set_e(draw):
    """E = A - iB with A = prod (z - g_k) and B/A = sum -m_k/(z - g_k), m_k > 0.

    B/A is then a Herglotz function, so E is Hermite-Biehler, and its level
    set {A = 0} is the rational g_k with masses pi * m_k.
    """
    n = draw(st.integers(1, 4))
    points = draw(st.lists(st.fractions(-3, 3, max_denominator=2), min_size=n, max_size=n, unique=True))
    masses = draw(st.lists(st.fractions(Fraction(1, 3), 3, max_denominator=3), min_size=n, max_size=n))
    return _level_set_e(points, masses)


def _level_set_e(points, masses):
    A = Polynomial.one()
    for g in points:
        A = A * Polynomial([-g, 1])
    B = Polynomial.zero()
    for k, m in enumerate(masses):
        term = Polynomial([-m])
        for j, g in enumerate(points):
            if j != k:
                term = term * Polynomial([-g, 1])
        B = B + term
    return A - B * I


def _close(exact, approx, rel=1e-9) -> bool:
    a, b = [complex(x) for x in exact], [complex(x) for x in approx]
    scale = max(abs(x) for x in a)
    return len(a) == len(b) and all(abs(x - y) <= rel * scale for x, y in zip(a, b))


def _coeffs(p: Polynomial, n: int) -> list:
    return [p.coeff(k) for k in range(n)]


@settings(max_examples=30)
@given(rational_level_set_e())
def test_one_path_serves_exact_and_float_frames(E):
    exact = HermiteBiehlerFrame.from_e(E)
    assert exact.mu.is_exact
    mu = DiscreteMeasure(exact.mu.float_points(), exact.mu.float_masses())
    floating = HermiteBiehlerFrame(exact.E, exact.A, exact.B, mu)
    n = exact.dim

    mt, mt_f = moments(exact), moments(floating)
    assert _close(mt.moments, mt_f.moments)
    for h, h_f in zip(mt.hankel, mt_f.hankel, strict=True):
        assert _close([h], [h_f])

    basis, basis_f = gram_schmidt_basis(exact), gram_schmidt_basis(floating)
    for q, q_f in zip(basis, basis_f, strict=True):
        assert _close(_coeffs(q, n), _coeffs(q_f, n))
    for i, qi in enumerate(basis):
        for j, qj in enumerate(basis):
            assert inner_product(exact, qi, qj) == (PiScalar(1) if i == j else PiScalar(0))

    eb, eb_f = extension_eigenbasis(exact, math.pi / 2), extension_eigenbasis(floating, math.pi / 2)
    assert eb.eigenvalues == eb_f.eigenvalues
    for F, F_f in zip(eb.normalized, eb_f.normalized, strict=True):
        assert _close(_coeffs(F, n), _coeffs(F_f, n))


def test_weights_take_the_scalar_type_of_each_level_point():
    # A = z^3 - 2z vanishes at 0 and +-sqrt 2, where B = 1 - z^2 is 1 and -1: E is Hermite-Biehler
    mixed = HermiteBiehlerFrame.from_e(Polynomial([0, -2, 0, 1]) - Polynomial([1, 0, -1]) * I)
    assert [type(w) for _, w in mixed.weights] == [float, PiScalar, float]
    assert mixed.weights[1] == (0, PI / 2)
    mu = DiscreteMeasure(mixed.mu.float_points(), mixed.mu.float_masses())
    floating = HermiteBiehlerFrame(mixed.E, mixed.A, mixed.B, mu)
    assert all(type(w) is float for _, w in floating.weights)
    mt, mt_f = moments(mixed), moments(floating)
    assert _close(mt.moments, mt_f.moments)
    for h, h_f in zip(mt.hankel, mt_f.hankel, strict=True):
        assert _close([h], [h_f])


def _bareiss_det(M: list[list[Fraction]]) -> Fraction:
    """Fraction-free (Bareiss) determinant, without pivoting: every leading minor is nonzero."""
    M = [row[:] for row in M]
    prev = Fraction(1)
    for k in range(len(M) - 1):
        for i in range(k + 1, len(M)):
            for j in range(k + 1, len(M)):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
        prev = M[k][k]
    return M[-1][-1]


_DYADIC = st.builds(lambda n: Fraction(n, 8), st.integers(-24, 24))


@settings(max_examples=30)
@given(rational_level_set_e(), _DYADIC, _DYADIC, _DYADIC, _DYADIC)
def test_stieltjes_recurrence_is_exact(E, x, y, u, v):
    frame = HermiteBiehlerFrame.from_e(E)
    table = moments(frame)
    n = frame.dim
    assert len(table.polys) == len(table.norms) == n
    for i, (p, h) in enumerate(zip(table.polys, table.norms)):
        assert p.degree == i and p.leading() == 1
        for j, q in enumerate(table.polys):
            assert inner_product(frame, p, q) == (h if i == j else 0)
    # every moment is a rational multiple of pi, so the k+1 minor is pi^(k+1) times a rational
    ms = [(m / PI).as_fraction() for m in table.moments]
    for k in range(n):
        minor = [[ms[i + j] for j in range(k + 1)] for i in range(k + 1)]
        assert table.hankel[k] == PiScalar(_bareiss_det(minor), 1, 2 * (k + 1))
    z, w = ExactComplex(x, y), ExactComplex(u, v)
    if w != z.conjugate():
        A, B = frame.A, frame.B
        closed = (A(z).conjugate() * B(w) - A(w) * B(z).conjugate()) / (PI * (w - z.conjugate()))
        assert kernel_moment(frame, z, w) == closed
