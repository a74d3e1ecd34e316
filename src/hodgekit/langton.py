"""Semistable reduction for bundle families on P^1 over a formal disk.

The family is a transition matrix T(z, s): Laurent in the chart coordinate
z, with coefficients rational in the disk parameter s and regular at
s = 0.  The generic fiber lives over the fraction field, the special fiber
is T at s = 0.  When the generic fiber is semistable (balanced splitting)
but the special one is not, one elementary modification

    T' = diag(s^-delta) * A0^(-1) * T * C0^(-1) * diag(s^delta)

with T|_(s=0) = A0 D C0 the Birkhoff factorization from one column
reduction of the special fiber (C0^(-1) is the reduction's own transform,
and A0^(-1) comes from a second column reduction, of A0 in w = 1/z)
and delta_i = 1 exactly on the summands of below-average degree (the
destabilizing quotient) strictly improves the special fiber; iterating
terminates with a balanced special fiber and never moves the generic one.
Every step carries the pair (L, R) of fraction-field-invertible chart
matrices with L T R = T', checkable by exact re-multiplication.

A step multiplies only by chart matrices constant in s and by powers of
s, so the family keeps one common denominator (Langton 1975): T = N / q
with N a matrix of (z, s) ``LaurentPoly`` entries over Q(i), polynomial
in s, and q(s) the monic lcm of the input denominators, q(0) != 0.  The
step works on N alone: A0^(-1) and C0^(-1) are bivariate products,
diag(s^(+-v)) shifts term exponents, and the new family is handed
det N' = det N / det A0, where det A0, the special fiber's constant
determinant, is the z^det_exp s^0 coefficient of det N over q(0)^n, so
no determinant is expanded and no gcd is taken.  L and R lie in
Q(i)[s^+-][z^+-] and need no denominator.  ``RatFunc`` appears only where
a family enters (``DiskFamily(entries)``), in the normal-form ``entries``
view and certificates written on output (``to_ks``, rank-1 ``LaurentPoly``
in z over K(s)), and in the K(s) fallback below, which runs the column
reduction of ``birkhoff`` on N over K(s) without building a bundle: every
``P1Bundle`` is over Q(i).

The precondition that the generic fiber is balanced is certified by
specialisation: h0 is upper semicontinuous in s, so a balanced splitting
type of the fiber at one regular point s0 forces the generic splitting
O(k)^n.  The fiber at s0 = 1 usually settles it; the splitting type over
the fraction field K(s) is the fallback, and is what
``generic_splitting`` reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, InternalInvariantError
from .scalars import Scalar, pdivmod, pgcd, pmul
from . import linalg
from .birkhoff import (P1Bundle, _column_reduce, _inverse_frame,
                       _reduced_frame, splitting_type)
from .laurent import LaurentPoly
from .univariate import RatFunc

# the polynomial 1 in s, dense
_ONE = (Scalar.one(),)


def _lcm(a, b):
    """Monic lcm of two monic polynomials."""
    return tuple(pmul(a, pdivmod(b, pgcd(a, b))[0]))


def _s_poly(p):
    """The dense polynomial p(s) as a (z, s) ``LaurentPoly``."""
    return LaurentPoly._trusted(2, {(0, j): c for j, c in enumerate(p)
                                    if not c.is_zero})


def _numerator(e, q):
    """q * e for an entry e in z over K(s) whose denominators divide q,
    as a (z, s) ``LaurentPoly``."""
    terms = {}
    for (k,), c in e.terms.items():
        num = c.num
        if c.den != q:
            num = pmul(num, q if c.den == _ONE else pdivmod(q, c.den)[0])
        terms.update(((k, j), x) for j, x in enumerate(num) if not x.is_zero)
    return LaurentPoly._trusted(2, terms)


def to_ks(x, den=_ONE):
    """x / den(s) as a rank-1 ``LaurentPoly`` in z over K(s), x a (z, s)
    ``LaurentPoly`` and ``den`` a monic dense polynomial with den(0) != 0.

    The coefficient of z^k is p(s) / (den(s) s^m) with p(0) != 0; over
    den = 1 that is already the normal form of ``RatFunc``, so only a
    non-constant ``den`` pays for a gcd.
    """
    by_z = {}
    for (k, j), c in x.terms.items():
        by_z.setdefault(k, {})[j] = c
    zero, out = Scalar.zero(), {}
    for k, coeffs in by_z.items():
        base = min(min(coeffs), 0)
        num = [coeffs.get(j, zero) for j in range(base, max(coeffs) + 1)]
        sden = (zero,) * -base + _ONE
        if den == _ONE:
            out[(k,)] = RatFunc._trusted(num, sden)
        else:
            out[(k,)] = RatFunc(num, pmul(den, sden))
    return LaurentPoly._trusted(1, out)


class DiskFamily:
    """n x n transition matrix T = N / q over the s-regular rational
    functions: N has (z, s) ``LaurentPoly`` entries, polynomial in s, and
    q(s) is one monic polynomial with q(0) != 0.  ``det`` is det N, a unit
    in z."""

    def __init__(self, entries):
        n = len(entries)
        if n == 0:
            raise PreconditionError("family matrix must have rank >= 1")
        if any(len(row) != n for row in entries):
            raise PreconditionError("family matrix must be square")
        coeffs = [c for row in entries for e in row for c in e.terms.values()]
        if not all(c.regular_at_zero() for c in coeffs):
            raise PreconditionError("family coefficients must be regular at s = 0")
        q = _ONE
        for c in coeffs:
            if c.den != _ONE and c.den != q:
                q = _lcm(q, c.den)
        num = [[_numerator(e, q) for e in row] for row in entries]
        det = linalg.det_ring(num, LaurentPoly.one(2))
        if det.is_zero or len({k for k, _ in det.terms}) != 1:
            raise PreconditionError("family determinant is not a unit in z")
        if not any(j == 0 for _, j in det.terms):
            raise PreconditionError("family determinant degenerates at s = 0")
        self._set(num, q, det)

    @staticmethod
    def _trusted(num, q, det):
        """The family num / q whose numerator determinant is ``det``."""
        out = object.__new__(DiskFamily)
        out._set(num, q, det)
        return out

    def _set(self, num, q, det):
        self.n, self.num, self.q, self.det = len(num), num, q, det
        self.det_exp = next(iter(det.terms))[0]

    @functools.cached_property
    def entries(self):
        """T as a matrix of rank-1 ``LaurentPoly`` in z over K(s), in
        normal form."""
        return [[to_ks(x, self.q) for x in row] for row in self.num]

    def fiber_at(self, s0) -> P1Bundle:
        """The fiber over s = s0: N(z, s0) / q(s0), with determinant
        (det N)(z, s0) / q(s0)^n.

        Raises PreconditionError where q has a root or the determinant
        vanishes; neither happens at s = 0.
        """
        if not isinstance(s0, Scalar):
            s0 = Scalar.rational(s0)
        top = max(j for x in (self.det, *(x for row in self.num for x in row))
                  for _, j in x.terms)
        powers = [Scalar.one()]
        for _ in range(max(top, len(self.q) - 1)):
            powers.append(powers[-1] * s0)

        def value(x):
            """x(z, s0) as {(z-exponent,): value}, zeros included."""
            acc = {}
            for (k, j), c in x.terms.items():
                if not powers[j].is_zero:
                    term, k = c * powers[j], (k,)
                    acc[k] = acc[k] + term if k in acc else term
            return acc

        qv = sum((c * p for c, p in zip(self.q, powers)), Scalar.zero())
        if qv.is_zero:
            raise PreconditionError(f"family has a pole at s = {s0}")
        if value(self.det).get((self.det_exp,), Scalar.zero()).is_zero:
            raise PreconditionError("transition determinant is not a unit")
        fiber = [[{k: c for k, c in value(x).items() if not c.is_zero}
                  for x in row] for row in self.num]
        if not qv.is_one:
            scale = qv.inv()
            fiber = [[{k: c * scale for k, c in x.items()} for x in row]
                     for row in fiber]
        # det = (det N)(z, s0) / q(s0)^n, nonzero at z^det_exp as just checked
        return P1Bundle._trusted(
            [[LaurentPoly._trusted(1, x) for x in row] for row in fiber],
            self.det_exp)

    @functools.cached_property
    def special(self) -> P1Bundle:
        """The special fiber, kept so that it is column-reduced once."""
        return self.fiber_at(0)


@dataclass(frozen=True)
class HNRecord:
    step: int
    special_type: tuple


@dataclass(frozen=True)
class StepCertificate:
    """T' = L T R with L invertible over K[1/z] and R over K[z]; the
    entries of L and R are (z, s) ``LaurentPoly``, Laurent in s."""

    left: tuple
    right: tuple

    def verify(self, before: DiskFamily, after: DiskFamily) -> bool:
        """L N R q' == N' q, products and comparison term by term."""
        lhs = linalg.mat_mul(linalg.mat_mul([list(r) for r in self.left],
                                            before.num),
                             [list(r) for r in self.right])
        rhs = after.num
        if before.q != after.q:
            qa, qb = _s_poly(after.q), _s_poly(before.q)
            lhs = [[x * qa for x in row] for row in lhs]
            rhs = [[x * qb for x in row] for row in rhs]
        return linalg.mat_eq(lhs, rhs)


def generic_splitting(family: DiskFamily):
    """The splitting type over K(s), by ``birkhoff._column_reduce`` over
    K(s).  The scalar 1/q does not change it, so the columns of N are
    reduced directly, at the family's det_exp: det N = c(s) z^det_exp with
    c != 0 is a unit over K(s), so no determinant is expanded."""
    _, deg, _ = _column_reduce(
        [[to_ks(x) for x in col] for col in zip(*family.num)],
        family.det_exp, RatFunc([1]), RatFunc([]))
    return sorted((-d for d in deg), reverse=True)


def special_splitting(family: DiskFamily):
    _, deg, _ = family.special.reduction
    return sorted((-d for d in deg), reverse=True)


def _is_balanced(exps):
    return all(e == exps[0] for e in exps)


# regular points tried, in order, before falling back to the K(s) path
_PROBE_POINTS = (1, 2, 3)


def _generic_balanced(family: DiskFamily) -> bool:
    """Whether the generic fiber splits as O(k)^n, usually from one fiber.

    The exponents sum to n*k = -det_exp, so the fiber is balanced exactly
    when h0(B(-k-1)) = 0.  h0 is upper semicontinuous in s (Hartshorne
    III.12.8), so a balanced fiber at one regular point s0 certifies the
    generic fiber.  Points where a coefficient has a pole or the determinant
    vanishes are skipped; if no fiber certifies, the generic splitting type
    over K(s) decides.
    """
    n = family.n
    if family.det_exp % n:
        return False
    for s0 in _PROBE_POINTS:
        try:
            fiber = family.fiber_at(s0)
        except PreconditionError:
            continue
        if _is_balanced(splitting_type(fiber)):
            return True
    return _is_balanced(generic_splitting(family))


def _lift(mat):
    """A matrix of entries in z over Q(i) as constant-in-s (z, s) entries."""
    return [[LaurentPoly._trusted(2, {(k, 0): c for (k,), c in x.terms.items()})
             for x in row] for row in mat]


def _s_scaled(entries, row_exps, col_exps):
    """diag(s^row_exps) * entries * diag(s^col_exps): a shift of the
    s-exponent of every term."""
    return [[LaurentPoly._trusted(2, {(k, j + r + c): x
                                      for (k, j), x in e.terms.items()})
             if r + c else e
             for e, c in zip(row, col_exps)]
            for row, r in zip(entries, row_exps)]


def _block_valuation(entries, delta):
    """Least s-exponent over the (destabilizing, complement) block, None
    when the block is zero.  It is the s-valuation of the block of N / q,
    since q(0) != 0."""
    return min((j for i, di in enumerate(delta) if di
                for k, dk in enumerate(delta) if not dk
                for _, j in entries[i][k].terms), default=None)


# modification passes allowed per step before giving up
_MAX_PASSES = 200


def langton_step(family: DiskFamily):
    """One elementary modification; returns (new family, certificate, record).

    Internally this repeats {factor the special fiber, absorb the constant
    chart matrices, divide the destabilizing block by its s-valuation}
    until the special splitting type strictly drops: one pass alone may
    leave the type unchanged when the destabilizing quotient persists to
    a thicker neighbourhood of s = 0, and the repetition is exactly the
    passage to the maximal such quotient.  Non-termination would hand the
    generic fiber a destabilizing quotient, which the precondition forbids.
    The step is deterministic.
    """
    special_type = tuple(special_splitting(family))
    if _is_balanced(special_type):
        raise PreconditionError("special fiber is already semistable")
    if not _generic_balanced(family):
        raise PreconditionError("generic fiber is not semistable")
    current, certificate = _step(family)
    return current, certificate, HNRecord(step=0, special_type=special_type)


def _step(family):
    """``langton_step`` after its precondition checks; returns (new
    family, certificate)."""
    n = family.n
    special_type = tuple(special_splitting(family))
    left_total = right_total = None
    current = family

    for _ in range(_MAX_PASSES):
        # T|_(s=0) = A0 D U^(-1) with D_jj = z^(d_j) = z^(-a_j)
        a0, deg, u = _reduced_frame(current.special.reduction, inverse=False)
        exps = [-d for d in deg]
        avg = Fraction(sum(exps), n)
        delta = [1 if a < avg else 0 for a in exps]
        if not any(delta) or all(delta):
            raise InternalInvariantError("destabilizing index set must be proper")

        a0_inv = _lift(_inverse_frame(a0))
        c0_inv = _lift(u)
        t1 = linalg.mat_mul(linalg.mat_mul(a0_inv, current.num), c0_inv)
        v = _block_valuation(t1, delta)
        if v is None or v < 1:
            raise InternalInvariantError(
                "destabilizing block must vanish to positive order at s = 0")
        vdelta = [v * d for d in delta]
        down, flat = [-x for x in vdelta], [0] * n
        t2 = _s_scaled(t1, down, vdelta)
        left = _s_scaled(a0_inv, down, flat)
        right = _s_scaled(c0_inv, flat, vdelta)
        left_total = left if left_total is None else linalg.mat_mul(left, left_total)
        right_total = right if right_total is None else linalg.mat_mul(right_total, right)
        # det T' = det T / det A0, and det A0 is the special fiber's
        # constant determinant (det D = z^det_exp, det U = 1): the
        # z^det_exp s^0 coefficient of det N over q(0)^n
        a0_det = current.det.terms[(current.det_exp, 0)] / current.q[0] ** n
        current = DiskFamily._trusted(t2, current.q,
                                      current.det.scale(a0_det.inv()))

        new_type = tuple(special_splitting(current))
        if new_type == special_type:
            continue
        if not new_type < special_type:
            raise InternalInvariantError(
                f"special type must drop: {special_type} -> {new_type}")
        certificate = StepCertificate(
            left=tuple(tuple(r) for r in left_total),
            right=tuple(tuple(r) for r in right_total))
        if not certificate.verify(family, current):
            raise InternalInvariantError("step certificate failed to re-multiply")
        return current, certificate

    raise InternalInvariantError("modification pass bound exceeded")


# elementary modifications allowed per reduction
_MAX_STEPS = 200


def langton_reduce(family: DiskFamily):
    """Iterate elementary modifications until the special fiber balances.

    Requires a semistable generic fiber (the rank must divide the total
    degree).  The trail of special splitting types decreases strictly in
    lexicographic order, which both enforces and certifies termination.
    Each special fiber is column-reduced once.  The reduction is
    deterministic.
    """
    if not _generic_balanced(family):
        raise PreconditionError(
            "generic fiber not semistable: "
            f"splitting {tuple(generic_splitting(family))}")
    trail, certificates, current = [], [], family
    while True:
        sp = tuple(special_splitting(current))
        if trail:
            prev = trail[-1].special_type
            if not sp < prev:
                raise InternalInvariantError(
                    f"trail must decrease strictly: {prev} -> {sp}")
            if sp[0] - sp[-1] > prev[0] - prev[-1]:
                raise InternalInvariantError("splitting gap increased")
        trail.append(HNRecord(step=len(certificates), special_type=sp))
        if _is_balanced(sp):
            break
        if len(certificates) >= _MAX_STEPS:
            raise InternalInvariantError(
                "step bound exceeded; this signals an implementation bug")
        current, cert = _step(current)
        certificates.append(cert)
    return current, trail, certificates
