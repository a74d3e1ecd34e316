"""Rational functions of the disk parameter s.

``RatFunc`` is a normalized rational function over ``Scalar``, built on the
dense-polynomial layer of ``scalars`` (``ptrim``, ``padd``, ``pneg``,
``pmul``, ``pdivmod``, ``pgcd``); it models functions of s that stay exact
under every operation.  It is the coefficient field K(s) of Langton's disk
families: their entries and certificates on the wire are rank-1
``laurent.LaurentPoly`` in z over ``RatFunc``, and their generic splitting
type is a column reduction over K(s).  Bundles on P^1 are over ``Scalar``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .scalars import Scalar, padd, pdivmod, pgcd, pmul, pneg, power, ptrim


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1.  A field element.

    A constant denominator needs no gcd, and sums, products and negatives
    of polynomials (den == (1,)) are already in this form, so only the
    other cases pay for ``pgcd``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """num/den from coefficient lists in ascending order; ``den=None``
        means 1, and an empty ``den`` is the zero polynomial."""
        num = ptrim([c if isinstance(c, Scalar) else Scalar.rational(c) for c in num])
        den = ptrim([c if isinstance(c, Scalar) else Scalar.rational(c)
                     for c in ([1] if den is None else den)])
        if not den:
            raise PreconditionError("rational function with zero denominator")
        if not num:
            self.num, self.den = (), (Scalar.one(),)
            return
        if len(den) == 1:  # a constant denominator shares no factor with num
            lead = den[0].inv()
            self.num = tuple(c * lead for c in num)
            self.den = (den[0] * lead,)
            return
        g = pgcd(num, den)
        if len(g) > 1:
            num, _ = pdivmod(num, g)
            den, _ = pdivmod(den, g)
        lead = den[-1].inv()
        self.num = tuple(c * lead for c in num)
        self.den = tuple(c * lead for c in den)

    @staticmethod
    def _trusted(num, den):
        """Wrap a pair already in canonical form, skipping normalisation."""
        out = object.__new__(RatFunc)
        out.num, out.den = tuple(num), den
        return out

    @staticmethod
    def const(c):
        return RatFunc([c])

    @staticmethod
    def var():
        return RatFunc([0, 1])

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def is_one(self):
        return len(self.num) == len(self.den) == 1 and self.num[0].is_one

    def __add__(self, other):
        other = _rf(other)
        if len(self.den) == 1 and len(other.den) == 1:
            return RatFunc._trusted(padd(self.num, other.num), self.den)
        return RatFunc(padd(pmul(list(self.num), list(other.den)),
                            pmul(list(other.num), list(self.den))),
                       pmul(list(self.den), list(other.den)))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._trusted(pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-_rf(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _rf(other)
        if len(self.den) == 1 and len(other.den) == 1:
            return RatFunc._trusted(pmul(self.num, other.num), self.den)
        return RatFunc(pmul(list(self.num), list(other.num)),
                       pmul(list(self.den), list(other.den)))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero:
            raise PreconditionError("division by zero rational function")
        return RatFunc(list(self.den), list(self.num))

    def __truediv__(self, other):
        return self * _rf(other).inv()

    def __rtruediv__(self, other):
        return _rf(other) * self.inv()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return power(self.inv(), -k, RatFunc.const(1))
        return power(self, k, RatFunc.const(1))

    def __eq__(self, other):
        try:
            other = _rf(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes like the Scalar it equals
        if len(self.den) == 1 and len(self.num) <= 1:
            return hash(self.num[0] if self.num else Scalar.zero())
        return hash((self.num, self.den))

    def regular_at_zero(self):
        return not self.den[0].is_zero

    def eval(self, s0):
        """Value at s = s0; a pole there raises PreconditionError."""
        s0 = s0 if isinstance(s0, Scalar) else Scalar.rational(s0)
        den = _horner(self.den, s0)
        if den.is_zero:
            raise PreconditionError(f"rational function has a pole at {s0}")
        return _horner(self.num, s0) / den

    def __str__(self):
        num = _fmt_poly(self.num)
        if len(self.den) == 1 and self.den[0] == Scalar.one():
            return num
        return f"({num})/({_fmt_poly(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


def _rf(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (Scalar, int, Fraction)):
        return RatFunc([x])
    raise TypeError(f"cannot coerce {type(x)} to RatFunc")


def _horner(c, x):
    if x.is_zero:
        return c[0] if c else Scalar.zero()
    acc = Scalar.zero()
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _fmt_poly(c):
    if not c:
        return "0"
    return " + ".join(f"({x})*s^{k}" if k else f"({x})"
                      for k, x in enumerate(c) if not x.is_zero)

