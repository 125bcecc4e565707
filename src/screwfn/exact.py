"""Exact scalars: complex rationals and pi-graded surd multiples.

Two scalar types carry all bit-exact identities in this package:

* ``ExactComplex`` -- a complex number with rational real and imaginary
  parts, a field.  It is the nonreal exact scalar.  The scalar rule: real
  exact data stay ``Fraction``, and an ExactComplex is built only for a
  value that is not real.  A polynomial holds ExactComplex coefficients
  only when one of them is not real (``algebra``); a PiScalar's ``coef``
  is an ExactComplex only when the PiScalar is not real.  ``I`` is the
  imaginary unit.
* ``PiScalar`` -- a value of the form ``coef * sqrt(root) * pi**(pihalf/2)``
  with ``coef`` a Fraction or, for a nonreal value, an ExactComplex,
  ``root`` a positive integer left unfactored (a square folds into
  ``coef``: root 1 is the rational grade) and ``pihalf`` an integer.  Two
  values of equal pihalf share a grade, and so add, compare and order, when
  the product of their roots is a square; products are always defined.
  This is exactly what is needed for quantities like 2*pi, pi/2, pi**3,
  1/sqrt(2*pi).

Arithmetic against ``float``/``complex`` degrades to floating point, so the
exact types can be dropped into numeric code without ceremony.  A real
``PiScalar`` against a ``float`` gives a ``float``, the way ``Fraction``
does, so ``PI * 0.5`` is ``math.pi * 0.5`` to the bit; a nonreal value or a
``complex`` operand gives a ``complex``.  ``ExactComplex`` always degrades to
``complex``.  Both types provide the numeric-protocol names that
``complex``, ``Fraction`` and numpy scalars share: ``+ - * /`` against each
other and against Python numbers, ``real``, ``imag``, ``conjugate()``,
``__complex__`` and ``__float__``, so code that reads the parts of an exact
scalar runs on a ``Fraction`` too.  ``PiScalar`` adds
the order ``< <= > >=`` of real values of one grade.  Code written against
that protocol runs unchanged on exact and float scalars.  Two operations
have no protocol name and are defined here: ``sqrt``, and the realness test
``is_real``, exact for exact scalars and to ``_REAL_TOL`` for floats.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = ["ExactComplex", "PiScalar", "PI", "I", "sqrt", "is_real"]

# Largest |Im x| of a float that is_real still counts as real.
_REAL_TOL = 1e-9


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


def _root_ratio(r1: int, r2: int):
    """The rational k with sqrt(r2) = k*sqrt(r1), or None when r1*r2 is not a square."""
    if r1 == r2:
        return 1
    s = math.isqrt(r1 * r2)
    return Fraction(s, r1) if s * s == r1 * r2 else None


class ExactComplex:
    """Complex number with rational parts; supports exact field arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _fraction(re))
        object.__setattr__(self, "im", _fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("ExactComplex is immutable")

    # -- predicates --------------------------------------------------------

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    # -- ring/field ops ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if isinstance(other, ExactComplex):
            return ExactComplex(self.re + other.re, self.im + other.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re - other, self.im)
        if isinstance(other, ExactComplex):
            return ExactComplex(self.re - other.re, self.im - other.im)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactComplex(other) - self
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re * other, self.im * other)
        if isinstance(other, ExactComplex):
            return ExactComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return ExactComplex(self.re / other, self.im / other)
        if isinstance(other, ExactComplex):
            d = other.abs2()
            if not d:
                raise ZeroDivisionError("division by zero")
            return (self * other.conjugate()) / d
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactComplex(other) / self
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out, base = ExactComplex(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- conversions ---------------------------------------------------------

    # numerator / denominator is the correctly rounded int true division that
    # Fraction's float() runs too, without its numbers.Rational dispatch.
    def __complex__(self) -> complex:
        re, im = self.re, self.im
        return complex(re.numerator / re.denominator, im.numerator / im.denominator)

    def __float__(self) -> float:
        if self.im:
            raise ValueError("not a real value")
        return self.re.numerator / self.re.denominator

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


@functools.total_ordering
class PiScalar:
    """``coef * sqrt(root) * pi**(pihalf/2)`` with ``root`` kept unfactored.

    ``coef`` is a Fraction when the value is real and an ExactComplex
    otherwise, by the scalar rule above; methods read it only through the
    numeric protocol.  Two values of equal pihalf share a grade when the
    product of their roots is a square; then they add, compare and order.
    Multiplication and division are total.  ``sqrt`` is defined for
    nonnegative real values with root 1 and even pihalf, which covers every
    norm arising here.
    """

    __slots__ = ("coef", "root", "pihalf")

    def __init__(self, coef=0, root: int = 1, pihalf: int = 0):
        if isinstance(coef, ExactComplex):
            if not coef.im:
                coef = coef.re
        else:
            coef = _fraction(coef)
        if not isinstance(root, int) or root <= 0:
            raise ValueError("root must be a positive integer")
        if not coef:
            root, pihalf = 1, 0
        elif root != 1 and (s := math.isqrt(root)) * s == root:
            coef, root = coef * s, 1
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "pihalf", pihalf)

    def __setattr__(self, *a):
        raise AttributeError("PiScalar is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def coerce(x) -> "PiScalar":
        if isinstance(x, PiScalar):
            return x
        if isinstance(x, (int, Fraction, ExactComplex)):
            return PiScalar(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to PiScalar")

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coef

    def is_real(self) -> bool:
        return not self.coef.imag

    def is_rational(self) -> bool:
        """True if the value lies in Q (grade zero and real)."""
        return self.root == 1 and self.pihalf == 0 and not self.coef.imag

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coef

    def __bool__(self):
        return bool(self.coef)

    def _mix(self, other):
        """This value as a float against a float when real, as a complex otherwise."""
        if isinstance(other, float) and self.is_real():
            return float(self)
        return complex(self)

    # -- ring ops -----------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = PiScalar.coerce(other)
        if isinstance(other, PiScalar):
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            k = _root_ratio(self.root, other.root) if self.pihalf == other.pihalf else None
            if k is None:
                raise ValueError(f"cannot add pi-scalars of different grade: {self} vs {other}")
            return PiScalar(self.coef + other.coef * k, self.root, self.pihalf)
        if isinstance(other, (float, complex)):
            return self._mix(other) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PiScalar(-self.coef, self.root, self.pihalf)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex, PiScalar)):
            return self + (-PiScalar.coerce(other))
        if isinstance(other, (float, complex)):
            return self._mix(other) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            return PiScalar.coerce(other) - self
        if isinstance(other, (float, complex)):
            return other - self._mix(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            return PiScalar(self.coef * other, self.root, self.pihalf)
        if isinstance(other, PiScalar):
            # sqrt(r1) sqrt(r2) = g sqrt((r1/g)(r2/g)) with g = gcd(r1, r2)
            g = math.gcd(self.root, other.root)
            return PiScalar(self.coef * other.coef * g, (self.root // g) * (other.root // g),
                            self.pihalf + other.pihalf)
        if isinstance(other, (float, complex)):
            return self._mix(other) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            return PiScalar(self.coef / other, self.root, self.pihalf)
        if isinstance(other, PiScalar):
            if other.is_zero():
                raise ZeroDivisionError("division by zero")
            # 1/sqrt(r) = sqrt(r)/r
            return self * PiScalar(1 / (other.coef * other.root), other.root, -other.pihalf)
        if isinstance(other, (float, complex)):
            return self._mix(other) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            return PiScalar.coerce(other) / self
        if isinstance(other, (float, complex)):
            return other / self._mix(other)
        return NotImplemented

    def conjugate(self) -> "PiScalar":
        return PiScalar(self.coef.conjugate(), self.root, self.pihalf)

    @property
    def real(self) -> "PiScalar":
        return PiScalar(self.coef.real, self.root, self.pihalf)

    @property
    def imag(self) -> "PiScalar":
        return PiScalar(self.coef.imag, self.root, self.pihalf)

    def abs2(self) -> "PiScalar":
        c = self.coef
        return PiScalar((c * c.conjugate()).real * self.root, 1, 2 * self.pihalf)

    def sqrt(self) -> "PiScalar":
        """Exact square root of a nonnegative rational multiple of pi**m."""
        if self.is_zero():
            return PiScalar(0)
        if not self.is_real() or self.coef < 0:
            raise ValueError("sqrt requires a nonnegative real pi-scalar")
        if self.root != 1 or self.pihalf % 2:
            raise ValueError(f"sqrt of {self} is outside the pi-surd carrier")
        q = self.coef
        return PiScalar(Fraction(1, q.denominator), q.numerator * q.denominator, self.pihalf // 2)

    # -- order of real values ------------------------------------------------------

    def __lt__(self, other):
        """Exact order of real values of one grade; zero compares with every grade."""
        d = self - PiScalar.coerce(other)
        if not d.is_real():
            raise ValueError(f"{self} and {other} are not both real")
        return d.coef < 0

    # -- conversions ---------------------------------------------------------------

    def __float__(self) -> float:
        if not self.is_real():
            raise ValueError("not a real value")
        return float(self.coef) * math.sqrt(self.root) * math.pi ** (self.pihalf / 2)

    def __complex__(self) -> complex:
        scale = math.sqrt(self.root) * math.pi ** (self.pihalf / 2)
        return complex(self.coef) * scale

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = PiScalar.coerce(other)
        if isinstance(other, PiScalar):
            if self.is_zero() or other.is_zero():
                return self.is_zero() and other.is_zero()
            k = _root_ratio(self.root, other.root) if self.pihalf == other.pihalf else None
            return k is not None and self.coef == other.coef * k
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        # c1 sqrt(r1) = c2 sqrt(r2) gives c1^2 r1 = c2^2 r2, so equal values hash alike
        if self.root == 1 and not self.pihalf:
            return hash(self.coef)
        return hash((self.coef * self.coef * self.root, self.pihalf))

    def __repr__(self):
        return f"PiScalar({self.coef!r}, root={self.root}, pihalf={self.pihalf})"

    def __str__(self):
        parts = [str(self.coef) if self.coef != 1 or (self.root == 1 and not self.pihalf) else ""]
        if self.root != 1:
            parts.append(f"sqrt({self.root})")
        if self.pihalf:
            parts.append("pi" if self.pihalf == 2 else f"pi^({self.pihalf}/2)")
        return "*".join(p for p in parts if p) or "1"


def sqrt(x):
    """Square root of a nonnegative real: exact for a PiScalar, math.sqrt otherwise."""
    return x.sqrt() if isinstance(x, PiScalar) else math.sqrt(x)


def is_real(x) -> bool:
    """True if x has no imaginary part: exactly for exact scalars, within _REAL_TOL for floats."""
    if isinstance(x, (ExactComplex, PiScalar)):
        return x.is_real()
    return abs(x.imag) <= _REAL_TOL


PI = PiScalar(1, 1, 2)
I = ExactComplex(0, 1)
