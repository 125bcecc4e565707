import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screwfn.algebra import (
    MatrixPolynomial,
    Polynomial,
    RationalFunction,
    _cleared,
    _integer_row,
    _monic_from_roots,
    _primitive_remainders,
    _signed_remainders,
    ab_split,
    hb_test,
    rational_roots,
    real_zeros,
    roots,
    sharp,
    solve_exact,
)
from screwfn.canonical import subspace_chain
from screwfn.exact import ExactComplex, PiScalar

I = ExactComplex(0, 1)
E0 = Polynomial([-I, ExactComplex(-1), I * 2, ExactComplex(1)])  # z^3 + 2iz^2 - z - i
A0 = Polynomial([0, -1, 0, 1])
B0 = Polynomial([1, 0, -2])


def horner_oracle(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


def test_poly_eval_constant_term():
    assert E0(0) == -I


def test_poly_eval_at_i_matches_independent_horner():
    # frozen from the independent Horner loop: i^3 + 2i*i^2 - i - i = -5i
    assert horner_oracle(E0.coeffs, 1j) == pytest.approx(-5j)
    assert E0(I) == ExactComplex(0, -5)


def test_poly_eval_zero_polynomial():
    z = Polynomial.zero()
    for val in (0, 3, 1 + 2j):
        assert complex(z(complex(val))) == 0


def test_sharp_of_e0():
    assert sharp(E0) == Polynomial([I, ExactComplex(-1), -2 * I, ExactComplex(1)])


def test_sharp_fixes_real_and_is_involution():
    p = Polynomial([1, Fraction(-2, 3), 5])
    assert sharp(p) == p
    assert sharp(sharp(E0)) == E0


def test_sharp_is_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = Polynomial([ExactComplex(int(a), int(b)) for a, b in rng.integers(-4, 5, (3, 2))])
        q = Polynomial([ExactComplex(int(a), int(b)) for a, b in rng.integers(-4, 5, (4, 2))])
        assert sharp(p * q) == sharp(p) * sharp(q)


def test_ab_split_of_e0():
    A, B = ab_split(E0)
    assert A == A0 and B == B0


def test_ab_split_constant_and_roundtrip():
    assert ab_split(Polynomial.one()) == (Polynomial.one(), Polynomial.zero())
    for p in (E0, Polynomial([I, 2, ExactComplex(3, -1)])):
        A, B = ab_split(p)
        assert A.is_real() and B.is_real()
        assert A - B * I == p


def _ab_reference(E):
    """(E + E#)/2 and i(E - E#)/2, formed here from sharp and one division each."""
    Es = sharp(E)
    return (E + Es) / 2, (E - Es) * I / 2


_GAUSSIAN = st.builds(ExactComplex, st.fractions(-9, 9, max_denominator=7),
                      st.fractions(-9, 9, max_denominator=7))


@settings(max_examples=40)
@given(st.lists(_GAUSSIAN, min_size=1, max_size=8), st.integers(1, 6), st.integers(-3, 3))
def test_ab_split_in_every_scalar_mode(cs, root, pihalf):
    exact = Polynomial(cs)
    pi = Polynomial([PiScalar(c, root + k % 2, pihalf + k) for k, c in enumerate(cs)])
    flt = Polynomial([complex(c) for c in cs])
    for E in (exact, pi, flt):
        A, B = ab_split(E)
        assert all(P.is_zero() or P.mode == E.mode for P in (A, B))
        assert A.is_real() and B.is_real()
        assert A - B * I == E
        assert (A, B) == _ab_reference(E)
    # a float coefficient gives +0.0 imaginary parts, and B_k = +0.0 where Im c is 0
    A, B = ab_split(flt)
    assert all(math.copysign(1, c.imag) == 1 for c in A.coeffs + B.coeffs)
    assert all(math.copysign(1, b.real) == 1
               for b, c in zip(B.coeffs, flt.coeffs) if c.imag == 0)


_RATIONAL = st.fractions(-9, 9, max_denominator=7)
_EXACT_SCALARS = st.one_of(st.integers(-5, 5), _RATIONAL, st.builds(ExactComplex, _RATIONAL),
                           st.builds(ExactComplex, _RATIONAL, _RATIONAL))


@settings(max_examples=100)
@given(st.lists(_EXACT_SCALARS, max_size=7),
       st.one_of(st.floats(-3, 3), st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))))
def test_exact_coefficients_are_fractions_exactly_when_all_are_real(cs, z):
    p = Polynomial(cs)
    real = all(not isinstance(c, ExactComplex) or c.is_real() for c in cs)
    assert p.is_real() == real
    assert all(type(c) is (Fraction if real else ExactComplex) for c in p.coeffs)
    # the values held as ExactComplex compare and hash alike, both ways round
    held = tuple(ExactComplex(c.real, c.imag) for c in p.coeffs)
    assert p.coeffs == held and held == p.coeffs and hash(p) == hash(held)
    # float evaluation is Horner over complex(ExactComplex(c)), to the bit
    acc = 0j
    for c in reversed(held):
        acc = acc * complex(z) + complex(c)
    assert repr(p(z)) == repr(acc)


def test_ab_split_and_hb_test_divide_no_exact_scalar(monkeypatch):
    calls = []

    def counted(truediv):
        def div(self, other):
            calls.append(other)
            return truediv(self, other)
        return div

    # A and B of the reference are real, so it divides Fractions
    for scalar in (ExactComplex, Fraction):
        monkeypatch.setattr(scalar, "__truediv__", counted(scalar.__truediv__))
    cw = _chain_workload()
    E = cw.top_entry(cw.random_hamiltonian(random.Random(cw.FAULT_SEEDS[0]), cw.FAULT_SIZE))
    assert ab_split(E) == _ab_reference(E) and hb_test(E) and hb_test(E0)
    assert len(calls) == 2 * len(E.coeffs)  # the reference's two divisions per coefficient
    calls.clear()
    ab_split(E)
    hb_test(E)
    assert calls == []


def test_roots_converts_each_coefficient_once(monkeypatch):
    calls = []
    to_complex = ExactComplex.__complex__

    def counted(self):
        calls.append(self)
        return to_complex(self)

    monkeypatch.setattr(ExactComplex, "__complex__", counted)
    # zeros of A at Fraction(k, 3) + 1/7: np.roots starts near them, Newton runs
    p = Polynomial([1])
    for k in range(-4, 5):
        p = p * Polynomial([-Fraction(k, 3) - Fraction(1, 7), 1])
    rs = roots(p)
    assert len(rs) == p.degree == 9
    assert len(calls) <= 2 * p.degree + 1


def test_roots_of_e0_match_reference_values():
    rs = sorted(roots(E0), key=lambda r: r.real)
    assert rs[0] == pytest.approx(-0.744862 - 0.122561j, abs=5e-6)
    assert rs[1] == pytest.approx(-1.75488j, abs=5e-6)
    assert rs[2] == pytest.approx(0.744862 - 0.122561j, abs=5e-6)


def test_roots_simple_cases():
    rs = sorted(roots(Polynomial([1, 0, 1])), key=lambda r: r.imag)
    assert rs == [pytest.approx(-1j), pytest.approx(1j)]
    rs = sorted(r.real for r in roots(A0))
    assert rs == [pytest.approx(-1), pytest.approx(0, abs=1e-12), pytest.approx(1)]
    with pytest.raises(ValueError):
        roots(Polynomial([3]))
    with pytest.raises(ValueError):
        roots(Polynomial.zero())


def test_roots_reconstruction_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        coeffs = [complex(a, b) for a, b in rng.normal(size=(5, 2))]
        p = Polynomial(coeffs)
        rs = roots(p)
        rebuilt = np.poly(rs) * complex(p.leading())
        orig = np.array([complex(c) for c in reversed(p.coeffs)])
        assert np.max(np.abs(rebuilt - orig)) < 1e-10 * max(1, np.max(np.abs(orig)))


def test_rational_roots_extracts_and_deflates():
    rts, rest = rational_roots(A0)
    assert sorted(rts) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert rest.degree == 0
    p = Polynomial([Fraction(1), Fraction(2), Fraction(1)]) * Polynomial([1, 0, 1])
    rts, rest = rational_roots(p)
    assert sorted(rts) == [Fraction(-1), Fraction(-1)]
    assert rest == Polynomial([1, 0, 1])


def _divisors_of(n: int) -> list[int]:
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})


def _divisor_enumeration(p: Polynomial):
    """The plain rational root search: every +-d/e with d | a_0, e | a_n, by exact evaluation."""
    found, cur = [], p
    while not cur.is_zero() and not cur.coeffs[0]:
        found.append(Fraction(0))
        cur = Polynomial(cur.coeffs[1:])
    while cur.degree >= 1:
        scale = math.lcm(*(c.denominator for c in cur.coeffs))
        ints = [int(c * scale) for c in cur.coeffs]
        a0, an = abs(ints[0]), abs(ints[-1])
        if a0 > 10**12 or an > 10**12:
            break
        hit = next((Fraction(sgn * d, e) for d in _divisors_of(a0) for e in _divisors_of(an)
                    for sgn in (1, -1) if not cur(Fraction(sgn * d, e))), None)
        if hit is None:
            break
        found.append(hit)
        cur = cur.divmod(Polynomial([-hit, 1]))[0]
    return found, cur


_small_fraction = st.fractions(-4, 4, max_denominator=4)
_no_rational_zero = [[1], [-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [3, 1, 1]]


@st.composite
def planted_rational_zeros(draw):
    """c * f * prod (z - r): planted r (repeats, 0 and negatives allowed), f without rational zeros."""
    planted = draw(st.lists(_small_fraction, max_size=4))
    free = draw(st.lists(_small_fraction, max_size=3))  # a random cofactor, usually irreducible
    p = Polynomial(free + [draw(st.fractions(1, 6, max_denominator=5))])
    p = p * Polynomial(draw(st.sampled_from(_no_rational_zero)))
    for r in planted:
        p = p * Polynomial([-r, 1])
    return p * draw(st.sampled_from([Fraction(1), Fraction(-3, 2), Fraction(7, 5)]))


_above_cap = Polynomial([-1, 1]) * Polynomial([-1, 10**13])  # a_n = 10^13: no search at all
# (2z - 1)(z - 3) * 3 * 10^11: 1/2 is found, then the remainder 6 * 10^11 * (z - 3) has a_0 above 10^12
_cap_after_one_step = Polynomial([Fraction(1, 2), -1]) * Polynomial([-3, 1]) * (-6 * 10**11)


@settings(max_examples=80)
@given(planted_rational_zeros())
@example(_above_cap)
@example(_cap_after_one_step)
@example(Polynomial([0, 0, -2, 0, 1]))
def test_rational_roots_matches_divisor_enumeration(p):
    rts, rest = rational_roots(p)
    assert (rts, rest) == _divisor_enumeration(p)
    product = rest
    for r in rts:
        product = product * Polynomial([-r, 1])
    assert product == p


def test_rational_roots_cap_and_float_input():
    assert rational_roots(_above_cap) == ([], _above_cap)
    rts, rest = rational_roots(_cap_after_one_step)
    assert rts == [Fraction(1, 2)] and rest.degree == 1
    with pytest.raises(AttributeError, match="'re'"):
        rational_roots(Polynomial([-1.0, 0.0, 1.0]))
    assert rational_roots(Polynomial([0.0, 0.0, 2.0])) == ([0, 0], Polynomial([2.0]))


def test_real_zeros_mixes_exact_and_float_zeros_in_order():
    zs = real_zeros(Polynomial([-1, 1]) * Polynomial([-2, 0, 1]))  # (z - 1)(z^2 - 2)
    assert [type(z) for z in zs] == [float, Fraction, float]
    assert zs[1] == Fraction(1)
    assert zs[0] == pytest.approx(-math.sqrt(2), abs=1e-12)
    assert zs[2] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert real_zeros(A0) == [Fraction(-1), Fraction(0), Fraction(1)]


def test_real_zeros_float_input_gives_floats():
    zs = real_zeros(Polynomial([complex(c) for c in A0.coeffs]))
    assert all(type(z) is float for z in zs)
    assert zs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_real_zeros_rejects_repeated_and_nonreal_zeros():
    with pytest.raises(ValueError, match="repeated"):
        real_zeros(Polynomial([1, 2, 1]))  # (z + 1)^2
    with pytest.raises(ValueError, match="nonreal"):
        real_zeros(Polynomial([1, 0, 1]))  # z^2 + 1


def test_hb_test():
    assert hb_test(E0)
    assert not hb_test(Polynomial([-I, 1]))  # root at +i
    assert not hb_test(Polynomial([0, 1]))  # real root


def _chain_workload():
    """perfbench/chain_workload.py, loaded by path for its fixed Hamiltonians."""
    if "chain_workload" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "chain_workload.py"
        spec = importlib.util.spec_from_file_location("chain_workload", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["chain_workload"] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["chain_workload"]


def _from_zeros(zeros) -> Polynomial:
    E = Polynomial.one()
    for zeta in zeros:
        E = E * Polynomial([-zeta, ExactComplex(1)])
    return E


def _mpmath_all_lower(E: Polynomial) -> bool:
    """Independent verdict: every zero below -1e-40 at 60 digits."""
    with mpmath.workdps(60):
        coeffs = [mpmath.mpc(mpmath.mpf(c.real.numerator) / c.real.denominator,
                             mpmath.mpf(c.imag.numerator) / c.imag.denominator)
                  for c in reversed(E.coeffs)]
        zs = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        return all(mpmath.im(z) < mpmath.mpf("-1e-40") for z in zs)


_quarter = st.fractions(-3, 3, max_denominator=4)
_depth = st.fractions(Fraction(1, 4), 3, max_denominator=4)


@settings(max_examples=60)
@given(st.lists(st.tuples(_quarter, _depth), min_size=1, max_size=10, unique=True),
       st.integers(0, 9), st.booleans())
def test_hb_test_property_on_rational_zeros(zeros, k, onto_axis):
    lower = [ExactComplex(x, -y) for x, y in zeros]
    E = _from_zeros(lower)
    assert hb_test(E) and _mpmath_all_lower(E)
    k %= len(lower)
    moved = list(lower)
    moved[k] = ExactComplex(lower[k].re) if onto_axis else lower[k].conjugate()
    F = _from_zeros(moved)
    assert not hb_test(F) and not _mpmath_all_lower(F)


def test_hb_test_certifies_degree_16_fault_entries():
    # the top entries E(L, z) on which the float root polish used to raise
    cw = _chain_workload()
    for seed in cw.FAULT_SEEDS:
        E = cw.top_entry(cw.random_hamiltonian(random.Random(seed), cw.FAULT_SIZE))
        assert E.degree == 16 and hb_test(E)


def test_hb_test_certifies_every_entry_of_a_32_segment_chain():
    cw = _chain_workload()
    chain = subspace_chain(cw.random_hamiltonian(random.Random(7), 32))
    entries = [e.E for e in chain if e.E.degree >= 1]
    assert len(entries) == 32 and all(hb_test(E) for E in entries)


_HUGE = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6))


def _mul_lists(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def remainder_pairs(draw):
    """Rational lists f, g with deg f >= deg g, degrees 0-16, numerators up to 10^30.

    Equal degrees and zero constant terms are drawn often, and a planted
    common factor h of degree 0-3 makes the sequence end in a gcd of degree
    at least deg h.  Returns (f, g, deg h).
    """
    dh = draw(st.integers(0, 3))
    df = draw(st.integers(0, 16 - dh))
    dg = df if draw(st.booleans()) else draw(st.integers(0, df))
    f = [draw(_HUGE) for _ in range(df + 1)]
    g = [draw(_HUGE) for _ in range(dg + 1)]
    f[-1], g[-1] = f[-1] or 1, g[-1] or 1
    if dg >= 1 and draw(st.booleans()):
        f[0] = g[0] = 0
    h = [draw(st.integers(-5, 5)) for _ in range(dh)] + [draw(st.sampled_from((-2, -1, 1, 3)))]
    return _mul_lists(f, h), _mul_lists(g, h), dh


@settings(max_examples=150)
@given(remainder_pairs())
@example(([Fraction(1), 0, 1], [Fraction(-2), 0, 3], 0))
@example(([0, Fraction(1, 3), 0, -1], [0, Fraction(5, 2)], 1))
def test_primitive_remainders_match_the_signed_remainders(pair):
    f, g, dh = pair
    field, quots = _signed_remainders([Fraction(c) for c in f], [Fraction(c) for c in g])
    P = [Polynomial(t) for t in field] + [Polynomial.zero()]
    assert all(P[k] == Polynomial(q) * P[k + 1] - P[k + 2]  # t_(k-1) = q_k t_k - t_(k+1)
               for k, q in enumerate(quots))
    ints = list(_primitive_remainders(_integer_row(f), _integer_row(g)))
    assert len(ints) == len(field) and len(field[-1]) - 1 >= dh
    for t, u in zip(ints, field):
        assert all(type(c) is int for c in t)
        assert len(t) == len(u) and (t[-1] > 0) == (u[-1] > 0)
        ratio = t[-1] / u[-1]  # a positive multiple, term by term
        assert all(x == ratio * y for x, y in zip(t, u))


_FLOAT_ZERO = st.tuples(st.floats(-3, 3, width=32), st.floats(-3, 3, width=32))


@settings(max_examples=60)
@given(st.lists(_FLOAT_ZERO, min_size=1, max_size=8))
def test_hb_test_on_float_e_matches_its_exact_copy(zeros):
    E = Polynomial([1.0])
    for x, y in zeros:
        E = E * Polynomial([-complex(x, y), 1.0])
    exact = Polynomial([ExactComplex(Fraction(c.real), Fraction(c.imag)) for c in E.coeffs])
    assert E.mode == "float" and exact.mode == "exact"
    assert hb_test(E) == hb_test(exact)


def test_hb_implies_contractive_quotient():
    rng = np.random.default_rng(2)
    Es = sharp(E0)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
        assert abs(complex(Es(z)) / complex(E0(z))) < 1.0


def w0():
    return MatrixPolynomial([[B0, Polynomial([0, 4])], [A0, B0]])


def test_matpoly_det_w0_is_one():
    assert w0().det() == Polynomial.one()


def test_matpoly_identity_and_eval():
    W = w0()
    assert W * MatrixPolynomial.identity() == W
    vals = W(ExactComplex(2))
    assert vals[1][0] == ExactComplex(6)  # 8 - 2
    assert vals[0][1] == ExactComplex(8)


def test_matpoly_det_multiplicative():
    rng = np.random.default_rng(4)
    for _ in range(5):
        def rand():
            return MatrixPolynomial(
                [
                    [Polynomial([int(x) for x in rng.integers(-3, 4, 3)]) for _ in range(2)]
                    for _ in range(2)
                ]
            )

        a, b = rand(), rand()
        assert (a * b).det() == a.det() * b.det()


def test_polynomial_divmod_and_gcd():
    q, r = (E0 * A0 + B0).divmod(A0)
    assert q == E0 and r == B0
    g = (A0 * B0).gcd(A0 * Polynomial([1, 1]))
    assert g == A0.monic()


def _rel_close(a: Polynomial, b: Polynomial, rel: float) -> bool:
    n = max(a.degree, b.degree) + 1
    ca, cb = [complex(a.coeff(k)) for k in range(n)], [complex(b.coeff(k)) for k in range(n)]
    scale = max(abs(c) for c in ca)
    return all(abs(x - y) <= rel * scale for x, y in zip(ca, cb))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dividend", ["float", "exact"])
def test_float_divmod_by_a_linear_factor(seed, dividend):
    # float p by a float (z - g), and exact p by a float (z - g) as in the eigenbasis of
    # a frame with a float level set; both checked against exact division of the same data
    rng = random.Random(seed)
    deg = rng.randint(1, 8)
    coeffs = [ExactComplex(Fraction(rng.randint(-40, 40), rng.randint(1, 8)),
                           Fraction(rng.randint(-5, 5), 4) if seed % 2 else 0)
              for _ in range(deg)] + [ExactComplex(Fraction(rng.randint(1, 9), 2))]
    g = Fraction(rng.randint(-30, 30), 8)
    p_exact, d_exact = Polynomial(coeffs), Polynomial([-g, 1])
    p = Polynomial([complex(c) for c in coeffs]) if dividend == "float" else p_exact
    d = Polynomial([-float(g), 1])
    q, r = p.divmod(d)
    assert q.mode == r.mode == "float"
    assert r.degree < d.degree
    assert _rel_close(p, q * d + r, 1e-12)
    q_exact, _ = p_exact.divmod(d_exact)
    assert _rel_close(q_exact, q, 1e-12)


def test_solve_exact_statuses():
    sol, status = solve_exact([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],
                              [Fraction(3), Fraction(4)])
    assert status == "unique" and sol == [Fraction(3), Fraction(2)]
    _, status = solve_exact([[Fraction(1), Fraction(1)]], [Fraction(0)])
    assert status == "underdetermined"
    _, status = solve_exact([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]],
                            [Fraction(0), Fraction(1)])
    assert status == "inconsistent"


def _fraction_gauss_jordan(rows, rhs):
    """solve_exact's contract by Gauss-Jordan elimination in Fractions: (solution, status)."""
    m, n = len(rows), len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots, r = [], 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                aug[i] = [x - aug[i][col] * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if any(aug[i][n] for i in range(r, m)):
        return None, "inconsistent"
    if len(pivots) < n:
        return None, "underdetermined"
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol, "unique"


SMALL_RATIONALS = st.one_of(st.just(Fraction(0)), st.integers(-3, 3),
                            st.fractions(-4, 4, max_denominator=6))


@st.composite
def rational_systems(draw):
    """1-8 equations in 1-4 unknowns with small entries, zeros and integers among them.

    The right-hand side is either A x for a rational x (consistent) or drawn
    freely; rank deficiency comes from the zeros and from repeated rows.
    """
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rows = [[draw(SMALL_RATIONALS) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        if draw(st.integers(0, 3)) == 0:
            k, q = draw(st.integers(0, i - 1)), draw(SMALL_RATIONALS)
            rows[i] = [q * x for x in rows[k]]
    if draw(st.booleans()):
        x = [draw(SMALL_RATIONALS) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = [draw(SMALL_RATIONALS) for _ in range(m)]
    return rows, rhs


@settings(max_examples=300)
@given(rational_systems())
@example(([[Fraction(1, 2), 3], [0, Fraction(-2, 3)], [1, 1]], [Fraction(13, 2), Fraction(-4, 3), 3]))
@example(([[1, 2, 0], [2, 4, 0]], [Fraction(1, 3), Fraction(2, 3)]))
@example(([[1, 2], [2, 4], [0, 1]], [1, 3, 0]))
def test_fraction_free_solve_equals_fraction_gauss_jordan(system):
    rows, rhs = system
    sol, status = solve_exact(rows, rhs)
    assert (sol, status) == _fraction_gauss_jordan(rows, rhs)
    assert sol is None or all(type(x) is Fraction for x in sol)


@settings(max_examples=40)
@given(st.lists(st.fractions(-3, 3, max_denominator=7), max_size=6))
def test_exact_helpers_equal_their_polynomial_forms(xs):
    # the running product of linear factors, and the rationals cleared over one denominator
    want = Polynomial.one()
    for r in xs:
        want = want * Polynomial([-r, 1])
    assert Polynomial(_monic_from_roots(xs)) == want
    ints, den = _cleared(xs)
    assert den > 0 and all(type(k) is int for k in ints)
    assert [Fraction(k, den) for k in ints] == xs
    assert den == math.lcm(*(x.denominator for x in xs))
