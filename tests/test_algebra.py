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
    ab_split,
    hb_test,
    partial_fractions,
    rational_roots,
    real_zeros,
    roots,
    sharp,
    solve_exact,
)
from screwfn.canonical import subspace_chain
from screwfn.exact import ExactComplex

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
    while not cur.is_zero() and cur.coeffs[0].is_zero():
        found.append(Fraction(0))
        cur = Polynomial(cur.coeffs[1:])
    while cur.degree >= 1:
        scale = math.lcm(*(c.re.denominator for c in cur.coeffs))
        ints = [int(c.re * scale) for c in cur.coeffs]
        a0, an = abs(ints[0]), abs(ints[-1])
        if a0 > 10**12 or an > 10**12:
            break
        hit = next((Fraction(sgn * d, e) for d in _divisors_of(a0) for e in _divisors_of(an)
                    for sgn in (1, -1) if cur(ExactComplex(Fraction(sgn * d, e))).is_zero()), None)
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
        coeffs = [mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                             mpmath.mpf(c.im.numerator) / c.im.denominator)
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


def test_hb_implies_contractive_quotient():
    rng = np.random.default_rng(2)
    Es = sharp(E0)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
        assert abs(complex(Es(z)) / complex(E0(z))) < 1.0


def test_partial_fractions_q0():
    Q0 = RationalFunction(B0, A0)
    pf = partial_fractions(Q0)
    assert pf.polynomial_part.is_zero()
    got = sorted(zip([p.real for p in pf.poles], pf.residues))
    assert got[0][0] == pytest.approx(-1) and got[0][1] == pytest.approx(-0.5)
    assert got[1][0] == pytest.approx(0, abs=1e-12) and got[1][1] == pytest.approx(-1)
    assert got[2][0] == pytest.approx(1) and got[2][1] == pytest.approx(-0.5)


def test_partial_fractions_residue_sum_from_degree_gap():
    r = RationalFunction(Polynomial([-1, 0, 1]), E0)
    pf = partial_fractions(r)
    # leading behavior z^2/z^3 = 1/z forces the residues to sum to 1
    assert sum(pf.residues) == pytest.approx(1.0, abs=1e-10)


def test_partial_fractions_polynomial_input():
    p = Polynomial([2, 0, 5])
    pf = partial_fractions(RationalFunction(p, Polynomial.one()))
    assert pf.poles == [] and pf.polynomial_part == p


def test_partial_fractions_rejects_multiple_poles():
    with pytest.raises(ValueError, match="multiplicity"):
        partial_fractions(RationalFunction(Polynomial.one(), Polynomial([1, 2, 1]), reduce=False))


def test_partial_fractions_reconstruction():
    rng = np.random.default_rng(3)
    Q0 = RationalFunction(B0, A0)
    pf = partial_fractions(Q0)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal() + 2)
        rebuilt = complex(pf.polynomial_part(z)) + sum(
            res / (z - pole) for pole, res in zip(pf.poles, pf.residues)
        )
        assert abs(rebuilt - complex(Q0(z))) < 1e-10


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


def test_solve_exact_statuses():
    sol, status = solve_exact([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],
                              [Fraction(3), Fraction(4)])
    assert status == "unique" and sol == [Fraction(3), Fraction(2)]
    _, status = solve_exact([[Fraction(1), Fraction(1)]], [Fraction(0)])
    assert status == "underdetermined"
    _, status = solve_exact([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]],
                            [Fraction(0), Fraction(1)])
    assert status == "inconsistent"
