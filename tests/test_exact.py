import math
from fractions import Fraction

import pytest

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


def test_pi_scalar_canonical_form():
    # sqrt(8) = 2 sqrt(2)
    x = PiScalar(1, 8, 0)
    assert x.coef == ExactComplex(2) and x.root == 2
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
