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
from .scalars import Scalar
from . import linalg
from .birkhoff import (P1Bundle, _inverse_frame, _reduced_frame,
                       splitting_type)
from .univariate import LaurentZ, RatFunc, RATFUNC_S, SCALARS


class DiskFamily:
    """n x n transition matrix over the s-regular rational functions."""

    def __init__(self, entries):
        n = len(entries)
        if n == 0:
            raise PreconditionError("family matrix must have rank >= 1")
        if any(len(row) != n for row in entries):
            raise PreconditionError("family matrix must be square")
        self.n = n
        self.entries = [list(r) for r in entries]
        if not all(c.regular_at_zero() for row in self.entries for e in row
                   for c in e.terms.values()):
            raise PreconditionError("family coefficients must be regular at s = 0")
        det = linalg.det_ring(self.entries,
                              LaurentZ.one(RATFUNC_S), LaurentZ.zero(RATFUNC_S))
        if det.is_zero or not det.is_monomial():
            raise PreconditionError("family determinant is not a unit in z")
        (self.det_exp, self.det_coeff), = det.terms.items()
        if not self.det_coeff.regular_at_zero() or \
                self.det_coeff.eval(0).is_zero:
            raise PreconditionError("family determinant degenerates at s = 0")

    def fiber_at(self, s0) -> P1Bundle:
        """The fiber over s = s0.

        Raises PreconditionError where a coefficient has a pole or the
        determinant vanishes; neither happens at s = 0.
        """
        if not isinstance(s0, Scalar):
            s0 = Scalar.rational(s0)
        fiber = [[e.map_coeffs(lambda c: c.eval(s0), SCALARS) for e in row]
                 for row in self.entries]
        return P1Bundle(SCALARS, fiber)

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
    """T' = L T R with L invertible over K[1/z] and R over K[z]."""

    left: tuple
    right: tuple

    def verify(self, before: DiskFamily, after: DiskFamily) -> bool:
        lhs = linalg.mat_mul(linalg.mat_mul([list(r) for r in self.left],
                                            before.entries),
                             [list(r) for r in self.right])
        return linalg.mat_eq(lhs, after.entries)


def generic_splitting(family: DiskFamily):
    return splitting_type(P1Bundle(RATFUNC_S, family.entries))


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


def _embed_scalar_matrix(mat):
    return [[e.map_coeffs(lambda c: RatFunc([c]), RATFUNC_S) for e in row]
            for row in mat]


def _s_scaled(entries, row_exps, col_exps):
    """diag(s^row_exps) * entries * diag(s^col_exps), with one power of s
    per distinct exponent; entries scaled by s^0 are kept as they are."""
    svar = RatFunc.var()
    power = {k: svar ** k for k in {r + c for r in row_exps for c in col_exps}}
    return [[e.map_coeffs(lambda x, f=power[r + c]: x * f, RATFUNC_S)
             if r + c and not e.is_zero else e
             for e, c in zip(row, col_exps)]
            for row, r in zip(entries, row_exps)]


def _s_valuation(rf: RatFunc):
    """Order of vanishing at s = 0 of a function regular there."""
    for k, c in enumerate(rf.num):
        if not c.is_zero:
            return k
    return None  # the zero function


def _block_valuation(entries, delta):
    """Least s-valuation over the (destabilizing, complement) block, None
    when the block is zero (stored coefficients are never zero)."""
    return min((_s_valuation(c) for i, di in enumerate(delta) if di
                for j, dj in enumerate(delta) if not dj
                for c in entries[i][j].terms.values()), default=None)


# modification passes allowed per step before giving up
_MAX_PASSES = 200


def langton_step(family: DiskFamily, seed=0):
    """One elementary modification; returns (new family, certificate, record).

    Internally this repeats {factor the special fiber, absorb the constant
    chart matrices, divide the destabilizing block by its s-valuation}
    until the special splitting type strictly drops: one pass alone may
    leave the type unchanged when the destabilizing quotient persists to
    a thicker neighbourhood of s = 0, and the repetition is exactly the
    passage to the maximal such quotient.  Non-termination would hand the
    generic fiber a destabilizing quotient, which the precondition forbids.
    ``seed`` is accepted and ignored: the step is deterministic.
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

        a0_inv = _embed_scalar_matrix(_inverse_frame(a0))
        c0_inv = _embed_scalar_matrix(u)
        t1 = linalg.mat_mul(linalg.mat_mul(a0_inv, current.entries), c0_inv)
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
        current = DiskFamily(t2)  # regularity at s = 0 re-validated here

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


def langton_reduce(family: DiskFamily, seed=0):
    """Iterate elementary modifications until the special fiber balances.

    Requires a semistable generic fiber (the rank must divide the total
    degree).  The trail of special splitting types decreases strictly in
    lexicographic order, which both enforces and certifies termination.
    Each special fiber is column-reduced once.  ``seed`` is accepted and
    ignored: the reduction is deterministic.
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
