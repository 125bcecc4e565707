import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwfn import algebra, canonical
from screwfn.algebra import MatrixPolynomial, Polynomial, ab_split, solve_exact
from screwfn.canonical import (
    ElementaryFactor,
    Hamiltonian,
    Segment,
    bezout_complete,
    factorize,
    fundamental_solution,
    peel_factor,
    solution_rows_affine,
    subspace_chain,
    validate_transfer,
    w0_matrix,
)
from screwfn.exact import ExactComplex
from screwfn.spectra import (
    DiscreteMeasure,
    NevanlinnaData,
    cayley_q_to_theta,
    q_from_measure,
    theta_to_e,
)

I = ExactComplex(0, 1)
C0 = Polynomial([0, -1, 0, 1])
D0 = Polynomial([1, 0, -2])


def test_validate_w0():
    assert validate_transfer(w0_matrix()).ok


def test_validate_identity():
    assert validate_transfer(MatrixPolynomial.identity()).ok


def test_validate_detects_sign_flip():
    W = w0_matrix()
    bad = MatrixPolynomial([[W.entries[0][0], -W.entries[0][1]], list(W.entries[1])])
    rep = validate_transfer(bad)
    assert not rep.ok and any("det" in f for f in rep.failures)


def test_transfer_matrix_wrapper():
    # factorize is the validating wrapper: it accepts w0 and rejects W(0) != I
    factorize(w0_matrix())
    with pytest.raises(ValueError, match="not a transfer matrix"):
        bad = MatrixPolynomial([[Polynomial([2]), Polynomial.zero()],
                                [Polynomial.zero(), Polynomial([Fraction(1, 2)])]])
        factorize(bad)


def test_bezout_reproduces_reference_completion():
    A, B = bezout_complete(C0, D0)
    assert A == Polynomial([1, 0, -2])
    assert B == Polynomial([0, 4])


def test_bezout_unit_case():
    # the bare Euclid solution is (1, 0); the pair (z, 1) admits no J-inner
    # completion because the bottom-row quotient is identically negative
    C, D = Polynomial([0, 1]), Polynomial([1])
    A, B = bezout_complete(C, D)
    assert A == Polynomial.one() and B.is_zero()
    report = validate_transfer(MatrixPolynomial([[A, B], [C, D]]))
    assert not report.ok and report.failures[0].startswith("not factorable")


def test_bezout_identity_on_generated_pairs():
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = Polynomial([0, Fraction(int(rng.integers(-4, 5)) or 1), 0, Fraction(int(rng.integers(1, 4)))])
        d = Polynomial([Fraction(1), 0, Fraction(int(rng.integers(-4, 5)))])
        if not c.gcd(d).degree == 0:
            continue
        A, B = bezout_complete(c, d)
        assert A * d - B * c == Polynomial.one()
        assert A.degree < c.degree and B.degree < d.degree
        assert A.is_even() and B.is_odd()


def test_bezout_parity_guards():
    with pytest.raises(ValueError, match="odd"):
        bezout_complete(D0, D0)
    with pytest.raises(ValueError, match="even"):
        bezout_complete(C0, C0)
    with pytest.raises(ValueError, match="coprime"):
        bezout_complete(C0 * 2, Polynomial([1, 0, -1]) * 2)


def test_peel_factor_sequence():
    W0 = w0_matrix()
    V1, M1 = peel_factor(W0)
    assert (M1.alpha, M1.beta, M1.gamma) == (0, 0, Fraction(1, 2))
    assert V1 == MatrixPolynomial(
        [[Polynomial([1]), Polynomial([0, 4])], [Polynomial([0, Fraction(-1, 2)]), D0]]
    )
    V2, M2 = peel_factor(V1)
    assert (M2.alpha, M2.beta, M2.gamma) == (4, 0, 0)
    assert V2 == MatrixPolynomial(
        [[Polynomial([1]), Polynomial.zero()], [Polynomial([0, Fraction(-1, 2)]), Polynomial([1])]]
    )
    V3, M3 = peel_factor(V2)
    assert (M3.alpha, M3.beta, M3.gamma) == (0, 0, Fraction(1, 2))
    assert V3 == MatrixPolynomial.identity()


def test_peel_single_factor():
    rng = np.random.default_rng(1)
    for _ in range(8):
        p = Fraction(int(rng.integers(-3, 4)))
        q = Fraction(int(rng.integers(-3, 4)))
        if p == 0 and q == 0:
            p = Fraction(1)
        alpha, beta, gamma = p * p, p * q, q * q
        W = MatrixPolynomial(
            [
                [Polynomial([1, -beta]), Polynomial([0, alpha])],
                [Polynomial([0, -gamma]), Polynomial([1, beta])],
            ]
        )
        V, Mf = peel_factor(W)
        assert V == MatrixPolynomial.identity()
        assert (Mf.alpha, Mf.beta, Mf.gamma) == (alpha, beta, gamma)


def test_elementary_factor_validation():
    with pytest.raises(ValueError):
        ElementaryFactor(Fraction(1), Fraction(1), Fraction(2))  # det != 0
    with pytest.raises(ValueError):
        ElementaryFactor(Fraction(-1), Fraction(0), Fraction(0))


def test_factorize_w0():
    H = factorize(w0_matrix())
    assert [(s.length, s.theta) for s in H.segments] == [
        (Fraction(1, 2), math.pi / 2),
        (Fraction(4), 0.0),
        (Fraction(1, 2), math.pi / 2),
    ]
    assert list(H.breakpoints) == [0, Fraction(1, 2), Fraction(9, 2), Fraction(5)]


def test_factorize_single_factor():
    W = MatrixPolynomial(
        [[Polynomial([1]), Polynomial([0, 4])], [Polynomial.zero(), Polynomial([1])]]
    )
    H = factorize(W)
    assert len(H) == 1
    assert H.segments[0].length == 4 and H.segments[0].theta == 0.0


def test_factor_count_equals_degree():
    W0 = w0_matrix()
    assert len(factorize(W0)) == W0.degree


def test_segments_are_normalized_projectors():
    for seg in factorize(w0_matrix()).segments:
        pa, pb, pc = seg.proj
        assert pa + pc == 1 and pa * pc == pb * pb


def test_adjacent_types_differ():
    with pytest.raises(ValueError, match="distinct"):
        Hamiltonian([Segment(Fraction(1), (Fraction(1), Fraction(0), Fraction(0))),
                     Segment(Fraction(2), (Fraction(1), Fraction(0), Fraction(0)))])


def test_limit_circle_trace_integral():
    H = factorize(w0_matrix())
    assert H.trace_integral() == Fraction(5)


def test_fundamental_solution_roundtrip_exact():
    W0 = w0_matrix()
    H = factorize(W0)
    assert fundamental_solution(H, 5) == W0
    assert fundamental_solution(H, Fraction(5)) == W0


def test_fundamental_solution_at_zero_is_identity():
    H = factorize(w0_matrix())
    assert fundamental_solution(H, 0) == MatrixPolynomial.identity()


def test_fundamental_solution_interior_values():
    H = factorize(w0_matrix())
    Wq = fundamental_solution(H, Fraction(1, 4))
    assert Wq.entries[1][0] == Polynomial([0, Fraction(-1, 4)])  # C = -t z
    assert Wq.entries[1][1] == Polynomial.one()
    W2 = fundamental_solution(H, 2)
    assert W2.entries[1][0] == Polynomial([0, Fraction(-1, 2)])
    assert W2.entries[1][1] == Polynomial([1, 0, Fraction(-3, 4)])  # 1 + (1-2t)z^2/4
    W475 = fundamental_solution(H, 4.75)
    assert W475.entries[1][0] == Polynomial([0, Fraction(-3, 4), 0, Fraction(1, 2)])
    assert W475.entries[1][1] == Polynomial([1, 0, -2])
    assert W475.entries[0][0] == Polynomial([1, 0, -1])  # A = 1 + (18-4t)z^2
    assert W475.entries[0][1] == Polynomial([0, 4])


def test_fundamental_solution_det_one_everywhere():
    H = factorize(w0_matrix())
    for t in list(H.breakpoints) + [Fraction(1, 3), Fraction(3), Fraction(19, 4)]:
        assert fundamental_solution(H, t).det() == Polynomial.one()


def test_fundamental_solution_range_check():
    H = factorize(w0_matrix())
    with pytest.raises(ValueError):
        fundamental_solution(H, 6)


def test_fundamental_solution_numeric_eval():
    H = factorize(w0_matrix())
    vals = fundamental_solution(H, 5)(0.5 + 0.25j)
    W0 = w0_matrix()
    for i in range(2):
        for j in range(2):
            assert vals[i][j] == pytest.approx(complex(W0.entries[i][j](0.5 + 0.25j)))


def test_regular_points():
    H = factorize(w0_matrix())
    assert list(H.breakpoints) == [0, Fraction(1, 2), Fraction(9, 2), 5]


def test_subspace_chain():
    H = factorize(w0_matrix())
    chain = subspace_chain(H)
    assert [e.dim for e in chain] == [0, 1, 2, 3]
    assert chain[0].E == Polynomial([-I])
    assert chain[1].E == Polynomial([-I, Fraction(-1, 2)])       # -z/2 - i, HB
    assert chain[2].E == Polynomial([-I, Fraction(-1, 2), 2 * I])  # -z/2 + i(2z^2-1)
    assert chain[3].E == Polynomial([-I, -1, 2 * I, 1])
    from screwfn.algebra import hb_test

    for entry in chain[1:]:
        assert hb_test(entry.E)


@st.composite
def step_hamiltonian(draw):
    """An exact step Hamiltonian of 1 to 12 segments with rational directions."""
    n = draw(st.integers(1, 12))
    segments = []
    for _ in range(n):
        length = draw(st.fractions(Fraction(1, 4), 3, max_denominator=4))
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)))
        r = a * a + b * b
        proj = (Fraction(a * a, r), Fraction(a * b, r), Fraction(b * b, r))
        if not segments or segments[-1].proj != proj:
            segments.append(Segment(length, proj))
    return Hamiltonian(segments)


@settings(max_examples=25)
@given(step_hamiltonian())
def test_subspace_chain_matches_fundamental_solution(H):
    chain = subspace_chain(H)
    assert [e.t for e in chain] == list(H.breakpoints)
    for entry in chain:
        C, D = fundamental_solution(H, entry.t).entries[1]
        assert entry.E == C - D * I
        assert entry.dim == max(entry.E.degree, 0)


def test_chain_kernel_vanishes_at_origin_time():
    H = factorize(w0_matrix())
    E = subspace_chain(H)[0].E  # constant: the space is {0} and the kernel is 0
    from screwfn.algebra import ab_split

    A, B = ab_split(E)
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = complex(rng.normal(), abs(rng.normal()) + 0.1)
        w = complex(rng.normal(), rng.normal())
        num = np.conj(complex(A(z))) * complex(B(w)) - complex(A(w)) * np.conj(complex(B(z)))
        assert abs(num) < 1e-14


def test_solution_rows_affine_reconstruct():
    H = factorize(w0_matrix())
    rows = solution_rows_affine(H)
    # at any interior t the affine form matches the fundamental solution row
    for t in (Fraction(1, 4), Fraction(2), Fraction(19, 4)):
        k = H.segment_at(t)
        tau = t - H.breakpoints[k]
        (r0, r1) = rows[k]
        W = fundamental_solution(H, t)
        assert r0[0] + r1[0] * tau == W.entries[1][0]
        assert r0[1] + r1[1] * tau == W.entries[1][1]


def _factor_product(factors) -> MatrixPolynomial:
    """prod (I - z M J) for M = [[alpha, beta], [beta, gamma]], left to right."""
    W = MatrixPolynomial.identity()
    for alpha, beta, gamma in factors:
        W = W * MatrixPolynomial([[Polynomial([1, -beta]), Polynomial([0, alpha])],
                                  [Polynomial([0, -gamma]), Polynomial([1, beta])]])
    return W


@st.composite
def psd_rank_one_segments(draw):
    """1 to 8 (length, projector) pairs with rational directions, neighbours not parallel."""
    n = draw(st.integers(1, 8))
    segments = []
    while len(segments) < n:
        length = draw(st.fractions(Fraction(1, 4), 3, max_denominator=4))
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)))
        r = a * a + b * b
        proj = (Fraction(a * a, r), Fraction(a * b, r), Fraction(b * b, r))
        if not segments or segments[-1][1] != proj:
            segments.append((length, proj))
    return segments


@settings(max_examples=30)
@given(psd_rank_one_segments(), st.integers(0, 7))
def test_psd_factor_products_certify_and_negated_factors_do_not(segments, k):
    # factor M = length * projector, PSD of rank one and trace = length
    factors = [tuple(length * p for p in proj) for length, proj in segments]
    W = _factor_product(factors)
    assert validate_transfer(W).ok
    assert [(s.length, s.proj) for s in factorize(W).segments] == segments
    k %= len(factors)
    flipped = list(factors)
    flipped[k] = tuple(-x for x in factors[k])
    bad = _factor_product(flipped)
    assert not validate_transfer(bad).ok
    with pytest.raises(ValueError, match="not a transfer matrix"):
        factorize(bad)


def _reference_factor(W: MatrixPolynomial):
    """The rightmost factor as the unique solution of eight linear equations, else None.

    With X = MJ = [[beta, -alpha], [gamma, -beta]], W = V (I - zMJ) and deg V =
    deg W - 1 need W_r X = 0 and W_(r-1) X = -W_r of W's top two coefficient
    matrices; a solution counts only if it is a PSD rank-one M.
    """
    eqs, rhs = [], []
    for (a, b), (c, d) in zip(W.coeff_matrix(W.degree), W.coeff_matrix(W.degree - 1)):
        eqs += [[0, c, d], [-c, -d, 0], [0, a, b], [-a, -b, 0]]
        rhs += [-a, -b, 0, 0]
    sol, status = solve_exact(eqs, rhs)
    if status != "unique":
        return None
    try:
        return ElementaryFactor(*sol)
    except ValueError:
        return None


@settings(max_examples=40, deadline=None)
@given(psd_rank_one_segments(), st.integers(0, 7), st.booleans())
def test_peel_reads_the_unique_solution_of_the_factor_equations(segments, k, negate):
    # every peel of a PSD product, or of one with factor k negated, until it stops
    factors = [tuple(length * p for p in proj) for length, proj in segments]
    if negate:
        k %= len(factors)
        factors[k] = tuple(-x for x in factors[k])
    W = _factor_product(factors)
    while W.degree >= 1:
        expected = _reference_factor(W)
        if expected is None:
            with pytest.raises(ValueError, match="^not factorable: "):
                peel_factor(W)
            assert negate
            return
        W, M = peel_factor(W)
        assert M == expected
    assert not negate


def test_factorize_calls_no_linear_solver(monkeypatch):
    def refuse(*args):
        raise AssertionError("the peel reads each factor in closed form")

    # a module that imports the solver by name holds a binding of its own
    monkeypatch.setattr(algebra, "solve_exact", refuse)
    monkeypatch.setattr(canonical, "solve_exact", refuse, raising=False)
    assert len(factorize(w0_matrix())) == 3
    H = _thirty_two_segments()
    assert factorize(fundamental_solution(H, H.total_length)) == H


def test_factorize_rejects_invalid_matrix():
    one, zero = Polynomial([1]), Polynomial.zero()
    for entries, reason in [
        ([[Polynomial([1, 1]), zero], [zero, one]], "det W != 1"),
        ([[Polynomial([2]), zero], [zero, Polynomial([Fraction(1, 2)])]], "W(0) != I"),
        # W_2 = [[0, 1], [0, 0]] and W_1 = 0: s = 0, so no factor I - zMJ matches the top row
        ([[one, Polynomial([0, 0, 1])], [zero, one]],
         "not factorable: matrix is not of canonical-product form"),
    ]:
        W = MatrixPolynomial(entries)
        assert validate_transfer(W).failures == (reason,)
        with pytest.raises(ValueError, match=f"^not a transfer matrix: {re.escape(reason)}$"):
            factorize(W)


def test_float_coefficients_fail_validation_without_crashing():
    W0 = w0_matrix()
    Wf = MatrixPolynomial([[Polynomial([complex(c) for c in e.coeffs]) for e in row]
                           for row in W0.entries])
    rep = validate_transfer(Wf)
    assert not rep.ok and rep.failures == ("not factorable: coefficients are not exact rationals",)
    with pytest.raises(ValueError, match="not factorable: coefficients are not exact rationals"):
        peel_factor(Wf)
    with pytest.raises(ValueError, match="not a transfer matrix: not factorable"):
        factorize(Wf)


def test_peel_rejects_a_nonreal_coefficient_below_the_top_two():
    # 1 + iz - 2z^2: the z^3 and z^2 coefficient matrices are real, the z coefficient is not
    W = MatrixPolynomial([[Polynomial([1, I, -2]), Polynomial([0, 4])], [C0, D0]])
    with pytest.raises(ValueError, match="^not factorable: matrix is not real$"):
        peel_factor(W)
    rep = validate_transfer(W)
    assert not rep.ok and rep.failures == ("not factorable: matrix is not real",)
    with pytest.raises(ValueError, match="not a transfer matrix: not factorable: matrix is not real"):
        factorize(W)


@st.composite
def pythagorean_hamiltonian(draw):
    """1 to 12 segments: positive rational lengths, axis and Pythagorean directions.

    The direction of (m, n) is (m^2 - n^2, 2mn) / (m^2 + n^2); (1, 0) and (1, 1)
    give the two axes.  Equal neighbours are redrawn.
    """
    n = draw(st.integers(1, 12))
    segments = []
    while len(segments) < n:
        length = draw(st.fractions(Fraction(1, 16), 5, max_denominator=16))
        m, k = draw(st.tuples(st.integers(0, 4), st.integers(-4, 4)).filter(lambda d: d != (0, 0)))
        r = m * m + k * k
        c, s = Fraction(m * m - k * k, r), Fraction(2 * m * k, r)
        proj = (c * c, c * s, s * s)
        if not segments or segments[-1].proj != proj:
            segments.append(Segment(length, proj))
    return Hamiltonian(segments)


def _segment_product(H: Hamiltonian, t: Fraction) -> MatrixPolynomial:
    """W(t, z) as the MatrixPolynomial product of I - z delta_k P_k J over the segments before t."""
    factors = []
    for seg, lo in zip(H.segments, H.breakpoints):
        if t <= lo:
            break
        delta = min(t, lo + seg.length) - lo
        factors.append(tuple(delta * p for p in seg.proj))
    return _factor_product(factors)


def _exact_rational(polys, real=True) -> bool:
    """Fraction coefficients, or for a polynomial that is not real ExactComplex with Fraction parts."""
    if real:
        return all(type(c) is Fraction for p in polys for c in p.coeffs)
    return all(type(c) is ExactComplex and type(c.real) is Fraction and type(c.imag) is Fraction
               for p in polys for c in p.coeffs)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.fractions(Fraction(1, 4), 3, max_denominator=4), min_size=1, max_size=3, unique=True),
       st.lists(st.fractions(Fraction(1, 8), 2, max_denominator=8), min_size=4, max_size=4))
def test_real_chain_data_hold_fractions(xs, ms):
    # a symmetric tau with an atom at 0, through the pipeline: only E is not real
    tau = DiscreteMeasure([0, *xs, *(-x for x in xs)], [ms[0], *ms[1:len(xs) + 1] * 2])
    Q = q_from_measure(NevanlinnaData(0, 0, tau))
    E = theta_to_e(cayley_q_to_theta(Q))
    A, B = ab_split(E / ab_split(E)[1](0))
    top = bezout_complete(A, B)
    H = factorize(MatrixPolynomial([top, (A, B)]))
    rows = [p for r0, r1 in solution_rows_affine(H) for p in r0 + r1]
    assert _exact_rational([Q.num, Q.den, A, B, *top, *rows])
    assert _exact_rational([E], real=False)


@settings(max_examples=30)
@given(pythagorean_hamiltonian(), st.data())
def test_integer_chain_equals_the_segment_product(H, data):
    k = data.draw(st.integers(0, len(H) - 1))
    lo, hi = H.breakpoints[k], H.breakpoints[k + 1]
    u = data.draw(st.fractions(0, 1, max_denominator=7).filter(lambda x: 0 < x < 1))
    z = Polynomial.x()
    products = {}
    for t in list(H.breakpoints) + [lo + u * (hi - lo)]:
        W, ref = fundamental_solution(H, t), _segment_product(H, t)
        products[t] = ref
        assert W == ref
        assert _exact_rational(e for row in W.entries for e in row)
    chain = subspace_chain(H)
    assert [e.t for e in chain] == list(H.breakpoints)
    for entry in chain:
        C, D = products[entry.t].entries[1]
        assert entry.E == C - D * I and entry.dim == max(entry.E.degree, 0)
        assert _exact_rational([entry.E], real=False)
    rows = solution_rows_affine(H)
    assert len(rows) == len(H)
    for seg, t, (r0, r1) in zip(H.segments, H.breakpoints, rows):
        pa, pb, pc = seg.proj
        R0 = products[t].entries[1]
        assert r0 == R0
        assert r1 == (-(R0[0] * pb + R0[1] * pc) * z, (R0[0] * pa + R0[1] * pb) * z)
        assert _exact_rational(r0 + r1)
    assert factorize(fundamental_solution(H, H.total_length)) == H


def _thirty_two_segments() -> Hamiltonian:
    """32 segments of Pythagorean directions and lengths k/4, k <= 7."""
    pairs = ((1, 0), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))
    segments = []
    for k in range(32):
        m, n = pairs[(3 * k) % len(pairs)]
        r = m * m + n * n
        c, s = Fraction(m * m - n * n, r), Fraction(2 * m * n, r)
        segments.append(Segment(Fraction(k % 7 + 1, 4), (c * c, c * s, s * s)))
    return Hamiltonian(segments)


def test_chain_and_peel_form_no_polynomial_products(monkeypatch):
    H = _thirty_two_segments()
    calls = []
    mat_mul, poly_mul = MatrixPolynomial.__mul__, Polynomial.__mul__

    def counted_mat(self, other):
        calls.append("MatrixPolynomial")
        return mat_mul(self, other)

    def counted_poly(self, other):
        if isinstance(other, Polynomial):
            calls.append("Polynomial")
        return poly_mul(self, other)

    monkeypatch.setattr(MatrixPolynomial, "__mul__", counted_mat)
    monkeypatch.setattr(MatrixPolynomial, "__rmul__", counted_mat)
    monkeypatch.setattr(Polynomial, "__mul__", counted_poly)
    W = fundamental_solution(H, H.total_length)
    chain = subspace_chain(H)
    rows = solution_rows_affine(H)
    H2 = factorize(W)
    assert calls == []
    assert W.degree == 32 and len(chain) == 33 and len(rows) == 32 and H2 == H
    # the counters see the products the reference forms
    _segment_product(H, Fraction(1))
    assert calls and set(calls) == {"MatrixPolynomial", "Polynomial"}


def test_equal_hamiltonians_hash_equal():
    H1, H2 = factorize(w0_matrix()), factorize(w0_matrix())
    assert H1 is not H2 and H1 == H2 and hash(H1) == hash(H2)
    head = Hamiltonian(H1.segments[:2])
    assert head != H1
    assert len({H1, H2, head}) == 2 and {H1: "W0"}[H2] == "W0"
