"""Exact scalars: Gaussian rationals Q(i) and fixed-order cyclotomics Q(zeta_n).

A ``Scalar`` is either

* gaussian -- an integer triple (a, b, d) standing for (a + b*i)/d, kept
  reduced (d > 0 and gcd(a, b, d) = 1), or
* cyclotomic -- an order ``n`` together with rational coordinates in the
  power basis 1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th
  cyclotomic polynomial.

The reduced triple is canonical: equality compares three ints, and each
gaussian operation is integer arithmetic plus one gcd.  ``re`` and ``im``
still return the parts as ``Fraction``s.

Arithmetic is a field in both branches.  Conjugation negates the imaginary
part on gaussian values and sends zeta to zeta^(n-1) on cyclotomic values;
it is an involutive field automorphism either way.

Mixing rules: rationals coerce everywhere; gaussian values embed into a
cyclotomic field only when 4 divides its order (i maps to zeta^(n/4));
two cyclotomic values of different orders are rejected outright so that
conjugation never becomes ambiguous.

This bottom module also holds hodgekit's one polynomial layer: dense
polynomials as ascending coefficient lists over any exact field (``ptrim``,
``padd``, ``pneg``, ``pmul``, ``pdivmod``, ``pgcd``), used here for the
cyclotomic reduction over ``Fraction`` and by ``univariate.RatFunc`` over
``Scalar``, and ``power``, the one square-and-multiply loop behind the
``**`` of ``Scalar``, ``RatFunc`` and ``LaurentPoly``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InternalInvariantError, PreconditionError, check_budget

_MAX_CYCLOTOMIC_ORDER = 120


def _check_order(n):
    """Refuse a cyclotomic order before anything of that order is built."""
    if n < 1:
        raise PreconditionError(f"cyclotomic order {n} is below 1")
    check_budget(n, "distinct powers of zeta_n", _MAX_CYCLOTOMIC_ORDER,
                 "scalars._MAX_CYCLOTOMIC_ORDER")


def totient(n):
    if n < 1:
        raise PreconditionError(f"totient of {n} is undefined")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# -- dense polynomials (ascending coefficient lists) over any exact field.
#    They use only a coefficient's truth value, + - * and 1 / x, so the
#    same code serves the Fraction coordinates of the cyclotomic reduction
#    and the Scalar coefficients of ``univariate.RatFunc``.


def ptrim(c):
    """Copy of ``c`` without trailing zeros."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] = out[k] + y
    return ptrim(out)


def pneg(a):
    return [-x for x in a]


def pmul(a, b):
    if not a or not b:
        return []
    zero = a[-1] - a[-1]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return ptrim(out)


def pdivmod(a, b):
    """(q, r) with a = q*b + r and len(r) < len(b)."""
    b = ptrim(b)
    if not b:
        raise PreconditionError("polynomial division by zero")
    r = ptrim(a)
    n = len(b) - 1
    if len(r) <= n:
        return [], r
    inv = 1 / b[-1]
    q = [inv - inv] * (len(r) - n)
    while len(r) > n:
        k = len(r) - 1 - n
        f = r.pop() * inv          # cancels the leading term exactly
        q[k] = f
        for j in range(n):
            r[k + j] = r[k + j] - f * b[j]
        while r and not r[-1]:
            r.pop()
    return q, r


def pgcd(a, b):
    """Monic gcd of ``a`` and ``b``; ``[]`` when both are zero."""
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    if a:
        inv = 1 / a[-1]
        a = [x * inv for x in a]
    return a


def power(x, k, one):
    """``x**k`` for an int ``k >= 0`` by square-and-multiply; the base is
    not squared past the last bit of k."""
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, ascending, as a tuple of Fractions."""
    xn = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    rest = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            rest = pmul(rest, cyclotomic_polynomial(d))
    q, r = pdivmod(xn, rest)
    if r:
        raise InternalInvariantError("cyclotomic division must be exact")
    return tuple(q)


def _reduce(n, c):
    """Power-basis coordinates of the polynomial ``c`` modulo Phi_n."""
    r = pdivmod(c, cyclotomic_polynomial(n))[1]
    return r + [Fraction(0)] * (totient(n) - len(r))


@lru_cache(maxsize=None)
def _power_basis(n, k):
    """zeta^k reduced mod Phi_n, as a tuple of phi(n) Fractions."""
    return tuple(_reduce(n, [Fraction(0)] * (k % n) + [Fraction(1)]))


def _cyclo_inverse(n, c):
    """Coordinates of 1/c in Q(zeta_n), for nonzero coordinates ``c``.

    Extended Euclid on (Phi_n, c), keeping only the cofactor s of c, with
    s*c = r modulo Phi_n at every step.  Phi_n is irreducible, so the last
    nonzero remainder is a constant.
    """
    r0, r1 = list(cyclotomic_polynomial(n)), ptrim(c)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, padd(s0, pneg(pmul(q, s1)))
    if len(r0) != 1:
        raise InternalInvariantError(
            "Phi_n must be coprime to a nonzero element")
    return _reduce(n, pmul(s0, [1 / r0[0]]))


class Scalar:
    """One exact number, gaussian or cyclotomic.  Immutable.

    Gaussian: ints ``_a, _b, _d`` for ``(_a + _b*i)/_d`` with ``_d > 0`` and
    ``gcd(_a, _b, _d) = 1``, so equal values have equal triples.
    Cyclotomic: ``_order`` and the power-basis Fractions ``_coeffs``.
    """

    __slots__ = ("_a", "_b", "_d", "_order", "_coeffs")

    def __init__(self, re=None, im=None, order=None, coeffs=None):
        if order is None:
            self._order = None
            self._coeffs = None
            self._a, self._b, self._d = _triple(
                Fraction(re if re is not None else 0),
                Fraction(im if im is not None else 0))
        else:
            _check_order(order)
            phi = totient(order)
            cs = [Fraction(c) for c in coeffs]
            if len(cs) != phi:
                raise PreconditionError(
                    f"order-{order} value needs {phi} coordinates, got {len(cs)}")
            self._order = order
            self._coeffs = tuple(cs)
            self._a = self._b = self._d = None

    # ---- constructors

    @staticmethod
    def rational(x):
        if type(x) is int:
            return _raw(x, 0, 1)
        f = Fraction(x)
        return _raw(f.numerator, 0, f.denominator)

    @staticmethod
    def gaussian(re, im):
        return _raw(*_triple(Fraction(re), Fraction(im)))

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def i():
        return _raw(0, 1, 1)

    @staticmethod
    def cyclotomic(order, coeffs):
        return Scalar(order=order, coeffs=coeffs)

    @staticmethod
    def zeta(order, power=1):
        _check_order(order)
        phi = totient(order)
        base = _power_basis(order, power)
        return Scalar(order=order, coeffs=list(base[:phi]))

    # ---- inspection

    @property
    def is_gaussian(self):
        return self._order is None

    @property
    def order(self):
        return self._order

    @property
    def re(self):
        if not self.is_gaussian:
            raise PreconditionError("re only defined on gaussian values")
        return Fraction(self._a, self._d)

    @property
    def im(self):
        if not self.is_gaussian:
            raise PreconditionError("im only defined on gaussian values")
        return Fraction(self._b, self._d)

    @property
    def coeffs(self):
        if self.is_gaussian:
            raise PreconditionError("coeffs only defined on cyclotomic values")
        return self._coeffs

    @property
    def is_zero(self):
        if self._order is None:
            return not self._a and not self._b
        return all(c == 0 for c in self._coeffs)

    def __bool__(self):
        if self._order is None:
            return bool(self._a or self._b)
        return any(self._coeffs)

    @property
    def is_one(self):
        if self._order is None:
            return self._a == self._d == 1 and not self._b
        return self._coeffs[0] == 1 and not any(self._coeffs[1:])

    def is_rational(self):
        if self.is_gaussian:
            return not self._b
        return all(c == 0 for c in self._coeffs[1:])

    def key(self):
        """Canonical hashable form, stable across equal values: a value of
        Q(i), in whatever field it is written, keys as its gaussian triple."""
        if self.is_gaussian:
            return ("g", self._a, self._b, self._d)
        if self.is_rational():
            return ("g",) + _triple(self._coeffs[0], Fraction(0))
        if self._order % 4 == 0:
            # the only candidate re + im*i, with i = zeta^(n/4)
            i_coeffs = _power_basis(self._order, self._order // 4)
            k = next(k for k, c in enumerate(i_coeffs) if k and c)
            im = self._coeffs[k] / i_coeffs[k]
            g = Scalar.gaussian(self._coeffs[0] - im * i_coeffs[0], im)
            if g._to_order(self._order)._coeffs == self._coeffs:
                return g.key()
        return ("c", self._order, self._coeffs)

    def __hash__(self):
        # a rational hashes like its Fraction (and an integer like its int),
        # since it compares equal to both
        key = self.key()
        if key[0] == "g" and not key[2]:
            return hash(key[1]) if key[3] == 1 else hash(Fraction(key[1], key[3]))
        return hash(key)

    # ---- coercion

    def _to_order(self, n):
        """Embed into Q(zeta_n); only rationals embed unless 4 | n."""
        if not self.is_gaussian:
            if self._order == n:
                return self
            raise PreconditionError(
                f"mixed cyclotomic orders {self._order} and {n}")
        phi = totient(n)
        out = [Fraction(0)] * phi
        out[0] = self.re
        if self._b:
            if n % 4 != 0:
                raise PreconditionError(
                    f"cannot embed i into Q(zeta_{n}) (order not divisible by 4)")
            im = self.im
            for idx, c in enumerate(_power_basis(n, n // 4)):
                out[idx] += im * c
        return Scalar(order=n, coeffs=out)

    @staticmethod
    def _coerce(a, b):
        if not isinstance(b, Scalar):
            if not isinstance(b, (int, Fraction)):
                return NotImplemented, NotImplemented
            b = Scalar.rational(b)
        if a.is_gaussian and b.is_gaussian:
            return a, b
        if a.is_gaussian:
            return a._to_order(b._order), b
        if b.is_gaussian:
            return a, b._to_order(a._order)
        if a._order != b._order:
            raise PreconditionError(
                f"mixed cyclotomic orders {a._order} and {b._order}")
        return a, b

    # ---- arithmetic
    #
    # Gaussian operands take the first branch of each operator: integer
    # arithmetic on the triples and one gcd (in ``_gauss``) per result.

    def __add__(self, other):
        if isinstance(other, Scalar) and self._order is None and other._order is None:
            d, e = self._d, other._d
            if d == e:
                return _gauss(self._a + other._a, self._b + other._b, d)
            return _gauss(self._a * e + other._a * d,
                          self._b * e + other._b * d, d * e)
        a, b = Scalar._coerce(self, other)
        if a is NotImplemented:
            return NotImplemented
        if a.is_gaussian:
            return a + b
        return Scalar(order=a._order,
                      coeffs=[x + y for x, y in zip(a._coeffs, b._coeffs)])

    __radd__ = __add__

    def __neg__(self):
        if self._order is None:
            return _raw(-self._a, -self._b, self._d)
        return Scalar(order=self._order, coeffs=[-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, Scalar) and self._order is None and other._order is None:
            d, e = self._d, other._d
            if d == e:
                return _gauss(self._a - other._a, self._b - other._b, d)
            return _gauss(self._a * e - other._a * d,
                          self._b * e - other._b * d, d * e)
        a, b = Scalar._coerce(self, other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar) and self._order is None and other._order is None:
            a, b, c, e = self._a, self._b, other._a, other._b
            return _gauss(a * c - b * e, a * e + b * c, self._d * other._d)
        a, b = Scalar._coerce(self, other)
        if a is NotImplemented:
            return NotImplemented
        if a.is_gaussian:
            return a * b
        n = a._order
        return Scalar(order=n, coeffs=_reduce(n, pmul(a._coeffs, b._coeffs)))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero:
            raise PreconditionError("division by zero scalar")
        if self.is_gaussian:
            a, b, d = self._a, self._b, self._d
            return _gauss(d * a, -d * b, a * a + b * b)
        n = self._order
        return Scalar(order=n, coeffs=_cyclo_inverse(n, self._coeffs))

    def __truediv__(self, other):
        if isinstance(other, Scalar) and self._order is None and other._order is None:
            c, e = other._a, other._b
            nrm = c * c + e * e
            if not nrm:
                raise PreconditionError("division by zero scalar")
            a, b, f = self._a, self._b, other._d
            return _gauss(f * (a * c + b * e), f * (b * c - a * e), self._d * nrm)
        a, b = Scalar._coerce(self, other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inv() if other == 1 else Scalar.rational(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return power(self.inv(), -k, _ONE)
        return power(self, k, _ONE)

    def conj(self):
        if self._order is None:
            return _raw(self._a, -self._b, self._d)
        n = self._order
        phi = totient(n)
        out = [Fraction(0)] * phi
        for k, c in enumerate(self._coeffs):
            if c:
                for idx, p in enumerate(_power_basis(n, (k * (n - 1)) % n)):
                    out[idx] += c * p
        return Scalar(order=n, coeffs=out)

    # ---- comparison and display

    def __eq__(self, other):
        if isinstance(other, Scalar):
            if self._order is None and other._order is None:
                return (self._a == other._a and self._b == other._b
                        and self._d == other._d)
        elif isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        else:
            return NotImplemented
        try:
            a, b = Scalar._coerce(self, other)
        except PreconditionError:
            # Different cyclotomic fields: the canonical keys compare the
            # rationals, and the values of Q(i) when 4 divides both orders.
            return self.key() == other.key()
        if a.is_gaussian:
            return a == b
        return a._coeffs == b._coeffs

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


def _raw(a, b, d):
    """Gaussian (a + b*i)/d from a triple that is already reduced."""
    s = object.__new__(Scalar)
    s._order = None
    s._coeffs = None
    s._a = a
    s._b = b
    s._d = d
    return s


def _gauss(a, b, d):
    """Gaussian (a + b*i)/d from ints with d > 0, reduced here."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


def _triple(re, im):
    """The reduced triple of re + im*i, for Fractions re and im."""
    dr, di = re.denominator, im.denominator
    d = dr * di // gcd(dr, di)
    # reduced: a prime power dividing d divides dr or di fully, and that
    # fraction's numerator is prime to it
    return re.numerator * (d // dr), im.numerator * (d // di), d


_ZERO = _raw(0, 0, 1)
_ONE = _raw(1, 0, 1)


def conj(s: Scalar) -> Scalar:
    """Exact complex conjugation; involutive ring homomorphism."""
    return s.conj()


# -- text form: gaussian as "a/b+c/d*i" with zero parts omitted.  When both
#    parts are present the sign between them is mandatory, otherwise pure
#    imaginary values like "11/2*i" would be ambiguous.

_FULL_RX = _re.compile(
    r"^\s*(?P<rs>[+-]?)(?P<rn>\d+)(?:/(?P<rd>\d+))?\s*"
    r"(?:(?P<is>[+-])\s*(?:(?P<in>\d+)(?:/(?P<id>\d+))?\s*\*\s*)?i)?\s*$")
_IMAG_RX = _re.compile(
    r"^\s*(?P<is>[+-]?)\s*(?:(?P<in>\d+)(?:/(?P<id>\d+))?\s*\*\s*)?i\s*$")


def _ratio_text(n, d):
    """n/d in lowest terms as ``str(Fraction(n, d))`` writes it, d > 0."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def format_scalar(s: Scalar) -> str:
    if s.is_gaussian:
        a, b, d = s._a, s._b, s._d
        if not a and not b:
            return "0"
        parts = []
        if a:
            parts.append(_ratio_text(a, d))
        if b:
            imtxt = _ratio_text(b, d) + "*i"
            parts.append("+" + imtxt if parts and b > 0 else imtxt)
        return "".join(parts)
    return "cyclotomic(%d;%s)" % (s.order, ",".join(str(c) for c in s.coeffs))


def _signed_ratio(m, sign, num, den):
    """(n, d) for the ratio in the named groups of match ``m``; a missing
    numerator or denominator reads 1 (the coefficient of a bare i)."""
    n, d = int(m.group(num) or 1), int(m.group(den) or 1)
    return (-n if m.group(sign) == "-" else n), d


def parse_scalar(text: str) -> Scalar:
    """Parse the gaussian string form "a/b+c/d*i" (either part omittable)."""
    m = _IMAG_RX.match(text)
    if m:
        (a, ad), (b, bd) = (0, 1), _signed_ratio(m, "is", "in", "id")
    else:
        m = _FULL_RX.match(text)
        if not m:
            raise PreconditionError(f"cannot parse scalar {text!r}")
        a, ad = _signed_ratio(m, "rs", "rn", "rd")
        b, bd = _signed_ratio(m, "is", "in", "id") if m.group("is") else (0, 1)
    if not ad or not bd:
        raise PreconditionError(f"zero denominator in scalar {text!r}")
    return _gauss(a * bd, b * ad, ad * bd)
