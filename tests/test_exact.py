import cmath
import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwfn.exact import PI, ExactComplex, PiScalar, sqrt


def test_exact_complex_field_ops():
    a = ExactComplex(Fraction(1, 2), Fraction(-3, 4))
    b = ExactComplex(2, 1)
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(1, 4))
    assert a * b == ExactComplex(Fraction(1, 2) * 2 + Fraction(3, 4), Fraction(1, 2) - Fraction(3, 2))
    assert (a / b) * b == a
    assert a - a == ExactComplex(0)
    assert a.conjugate().conjugate() == a
    assert a.abs2() == Fraction(1, 4) + Fraction(9, 16)


def _four_product(op, a, b, c, d):
    """(a + bi) op (c + di) by the general formulas, as (re, im)."""
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


_part = st.fractions(-10, 10, max_denominator=12)


@settings(max_examples=60)
@given(_part, _part, _part, _part, st.integers(-6, 6))
def test_real_operands_give_the_general_result(a, b, c, d, k):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        # real * real, real * complex, complex * real, complex * complex
        for bi, di in ((0, 0), (b, 0), (0, d), (b, d)):
            pairs = [(ExactComplex(c, di), c, di)]
            if not di:
                pairs += [(c, c, 0), (k, k, 0)]  # Fraction and int right operands
            for other, cr, ci in pairs:
                if op is operator.truediv and not (cr or ci):
                    continue
                got = op(ExactComplex(a, bi), other)
                general = ExactComplex(*_four_product(op, a, Fraction(bi), Fraction(cr), Fraction(ci)))
                assert type(got) is ExactComplex
                assert type(got.re) is Fraction and type(got.im) is Fraction
                assert (got.re, got.im) == (general.re, general.im)
                assert got == general and hash(got) == hash(general)


def test_exact_complex_degrades_to_float():
    a = ExactComplex(1, 2)
    assert a * 0.5 == complex(0.5, 1.0)
    assert a + 1j == complex(1, 3)


def test_exact_complex_pow_and_zero_division():
    i = ExactComplex(0, 1)
    assert i**2 == ExactComplex(-1)
    assert i**5 == i
    with pytest.raises(ZeroDivisionError):
        _ = i / ExactComplex(0)


def test_pi_scalar_equality_is_by_value():
    # sqrt(8) = 2 sqrt(2), whichever radicand holds it
    assert PiScalar(1, 8) == PiScalar(2, 2) and hash(PiScalar(1, 8)) == hash(PiScalar(2, 2))
    assert PiScalar(1, 8) != PiScalar(2, 3) and PiScalar(1, 8) != PiScalar(-2, 2)
    # a square radicand folds into the coefficient: a rational grade
    assert PiScalar(3, 4) == 6 and hash(PiScalar(3, 4)) == hash(6)
    assert PiScalar(0, 50, 6).root == 1 and PiScalar(0, 50, 6).pihalf == 0


def test_pi_scalar_ring_ops():
    two_pi = PI * 2
    assert two_pi + PI == PI * 3
    assert PI * PI == PiScalar(1, 1, 4)
    assert (PI / PI) == PiScalar(1)
    half = PiScalar(Fraction(1, 2))
    assert two_pi * half == PI
    # 1/sqrt(2 pi) * sqrt(2 pi) = 1
    inv = PiScalar(1) / (PI * 2).sqrt()
    assert inv * (PI * 2).sqrt() == PiScalar(1)


def test_pi_scalar_grade_mismatch_raises():
    with pytest.raises(ValueError):
        _ = PI + PiScalar(1)
    with pytest.raises(ValueError):
        _ = PiScalar(1, 2, 0) + PiScalar(1, 3, 0)
    # zero is compatible with everything
    assert PI + PiScalar(0) == PI


def test_pi_scalar_sqrt():
    assert (PI * PI).sqrt() == PI
    assert (PI * 2).sqrt() == PiScalar(1, 2, 1)
    # sqrt(4 pi^3) = 2 pi^(3/2)
    assert PiScalar(4, 1, 6).sqrt() == PiScalar(2, 1, 3)
    with pytest.raises(ValueError):
        PiScalar(-1).sqrt()
    with pytest.raises(ValueError):
        PiScalar(1, 2, 0).sqrt()


def test_pi_scalar_float_value():
    assert math.isclose(float(PI), math.pi)
    assert math.isclose(float(PiScalar(Fraction(1, 2), 2, -1)), 1 / math.sqrt(2 * math.pi))
    assert complex(PiScalar(ExactComplex(0, -1), 1, -1)) == pytest.approx(-1j / math.sqrt(math.pi))


def test_pi_scalar_division_keeps_surds_exact():
    q = PiScalar(Fraction(3, 4), 2, 3) / PiScalar(Fraction(1, 2), 2, 1)
    assert q == PiScalar(Fraction(3, 2), 1, 2)


def test_pi_scalar_numeric_protocol():
    x = PiScalar(ExactComplex(Fraction(1, 2), 3), 2, 2)
    assert x.conjugate() == PiScalar(ExactComplex(Fraction(1, 2), -3), 2, 2)
    assert x.real == PiScalar(Fraction(1, 2), 2, 2)
    assert x.imag == PiScalar(3, 2, 2) and PI.imag == 0
    assert PI / 2 < PI and PI >= PI and -PI <= 0 < PI
    with pytest.raises(ValueError):
        PI < PiScalar(1)  # different grades have no exact order here
    with pytest.raises(ValueError):
        x < PI * 2  # not real
    assert sqrt(PI * PI / 4) == PI / 2
    assert sqrt(2.25) == 1.5
    # a real PiScalar against a float gives a float, the way Fraction does
    assert type(PI * 0.5) is float and PI * 0.5 == math.pi * 0.5
    assert type(0.5 / PI) is float and 0.5 / PI == 0.5 / math.pi
    assert type(PiScalar(ExactComplex(0, 1)) * 0.5) is complex
    assert type(PI * 0.5j) is complex


# radicands s^2 r with r squarefree, or a product of primes too large to factor by trial
_radicand = st.builds(
    operator.mul,
    st.sampled_from([1, 4, 9, 25, 36]),
    st.sampled_from([1, 2, 3, 6, 15, 30, (10**9 + 7) * (10**9 + 9), 2**61 - 1]),
)
_coef = st.builds(ExactComplex, _part, _part)
_pi_scalar = st.builds(PiScalar, _coef, _radicand, st.integers(-3, 3))


@settings(max_examples=80)
@given(_pi_scalar, _pi_scalar, st.integers(2, 6))
def test_pi_scalar_arithmetic_by_value(x, y, t):
    if y:
        assert x * y / y == x
    # the same value with its radicand scaled by t^2
    same = PiScalar(x.coef / t, x.root * t * t, x.pihalf)
    assert same == x and hash(same) == hash(x)
    assert x + same == 2 * x
    norm = x * x.conjugate()
    assert norm.sqrt() * norm.sqrt() == norm
    assert cmath.isclose(complex(x * y), complex(x) * complex(y), rel_tol=1e-12)
    # the scalar rule: a real value holds a Fraction, a nonreal one an ExactComplex
    for v in (x, y, x * y, x + same, x.conjugate(), norm):
        assert (type(v.coef) is Fraction) == v.is_real()
    # a real coefficient given as an ExactComplex is the same value as its Fraction
    a = x.coef.real
    wrapped, plain = PiScalar(ExactComplex(a), x.root, x.pihalf), PiScalar(a, x.root, x.pihalf)
    assert wrapped == plain and hash(wrapped) == hash(plain)
    assert float(wrapped) == float(plain) and complex(wrapped) == complex(plain)


def test_pi_scalar_surds_of_twenty_digit_primes():
    # no radicand is factored: the square test is all sqrt, + and == need
    p, q = 10000000000000000051, 99999999999999999989
    start = time.process_time()
    x = PI * Fraction(p, q)
    r = x.sqrt()
    assert r * r == x and r + r == 2 * r
    assert r == PiScalar(Fraction(1, 3 * q), p * q * 9, 1)
    assert r + PiScalar(1, p * q * 4, 1) == PiScalar(Fraction(1, q) + 2, p * q, 1)
    assert time.process_time() - start < 1.0
