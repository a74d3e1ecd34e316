"""Filtrations as equivariant modules over the affine line.

A complete decreasing filtration F of a finite-dimensional space V turns
into a free module over the polynomial ring in z spanned by z^(-p_i) v_i
for an adapted basis (v_i) with integer weights (p_i); the torus scales
generator i with weight p_i.  The inverse reads the filtration back off
the weights.  Gluing two filtrations across the two charts of P^1 gives a
vector bundle whose splitting type detects purity: everything splits as
O(w) exactly when the pair of filtrations is pure of weight w.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from . import linalg
from .scalars import Scalar
from .laurent import LaurentPoly
from .birkhoff import P1Bundle, splitting_type


def _as_scalar_rows(rows, n):
    out = []
    for row in rows:
        if len(row) != n:
            raise PreconditionError(f"vector length {len(row)} != dim {n}")
        out.append([x if isinstance(x, Scalar) else Scalar.rational(x) for x in row])
    return out


def _in_span(basis, row):
    return linalg._reduce(dict(row), basis) is None


@dataclass(frozen=True)
class ReesModule:
    """Adapted basis with weights; generator i is z^(-weight_i) basis_i."""

    basis: tuple      # n row vectors of Scalar
    weights: tuple    # matching integer weights, non-increasing

    @property
    def n(self):
        return len(self.weights)


class FilteredSpace:
    """Complete decreasing filtration of Scalar^n by explicit bases.

    ``steps`` maps every integer p in p_min..p_max to a spanning set of
    F^p; F^p = V for p < p_min and 0 for p > p_max are implied.  The
    constructor verifies completeness (F^(p_min) is everything) and
    nesting by exact rank computations, and keeps the Rees module of the
    filtration as ``rees``.
    """

    def __init__(self, n, steps):
        self.n = n
        if not steps:
            raise PreconditionError("a filtration needs at least one step")
        ps = sorted(steps)
        if ps != list(range(ps[0], ps[-1] + 1)):
            raise PreconditionError("filtration steps must use consecutive indices")
        self.p_min, self.p_max = ps[0], ps[-1]
        # each step's span as its reduced echelon basis {pivot: row}
        self._span = {}
        for p in ps:
            rows = _as_scalar_rows(steps[p], n)
            self._span[p] = linalg.rref(linalg.echelon(map(linalg._sparse_row, rows)))
        if len(self._span[self.p_min]) != n:
            raise PreconditionError("filtration is not complete: first step must be V")
        # One pass from the top step down.  The running echelon basis spans
        # F^(p+1) when step p starts; each row of F^p it does not span yet
        # joins the adapted basis with weight p, and F^(p+1) lies in F^p
        # exactly when the running basis then has dim F^p rows.  After each
        # step it restarts from a copy of F^p's reduced basis, so a failure
        # at p cannot hide or fake one below; the lowest failing p is named.
        zero = Scalar.zero()
        running, chosen, weights, failed = {}, [], [], None
        for p in reversed(ps):
            span = self._span[p]
            for c in sorted(span):
                size = len(running)
                if len(linalg.echelon([span[c]], running)) > size:
                    chosen.append(tuple(span[c].get(j, zero) for j in range(n)))
                    weights.append(p)
            if len(running) != len(span):
                failed = p
            running = dict(span)
        if failed is not None:
            raise PreconditionError(f"F^{failed + 1} is not contained in F^{failed}")
        self.rees = ReesModule(basis=tuple(chosen), weights=tuple(weights))

    def dim(self, p):
        if p < self.p_min:
            return self.n
        if p > self.p_max:
            return 0
        return len(self._span[p])

    def basis(self, p):
        if p < self.p_min:
            p = self.p_min
        if p > self.p_max:
            return []
        zero = Scalar.zero()
        span = self._span[p]
        return [[span[c].get(j, zero) for j in range(self.n)] for c in sorted(span)]

    def contains(self, p, v):
        if p > self.p_max:
            return all(x.is_zero for x in v)
        return _in_span(self._span[max(p, self.p_min)], linalg._sparse_row(v))

    def steps_range(self):
        return range(self.p_min, self.p_max + 1)

    def equal(self, other):
        if self.n != other.n:
            return False
        lo = min(self.p_min, other.p_min)
        hi = max(self.p_max, other.p_max)
        for p in range(lo, hi + 1):
            if self.dim(p) != other.dim(p):
                return False
            for v in self.basis(p):
                if not other.contains(p, v):
                    return False
        return True


@dataclass(frozen=True)
class PurityReport:
    splitting: tuple
    pure: bool
    weight: Optional[int]


def build_rees(fs: FilteredSpace) -> ReesModule:
    """The Rees module the constructor built: an adapted basis chosen by
    echelon refinement from the top step, rows of each step in pivot order."""
    return fs.rees


def recover_filtration(rm: ReesModule) -> FilteredSpace:
    """Left inverse of build_rees, up to subspace equality."""
    n = rm.n
    steps = {}
    lo, hi = min(rm.weights), max(rm.weights)
    for p in range(lo, hi + 1):
        steps[p] = [list(v) for v, w in zip(rm.basis, rm.weights) if w >= p]
    return FilteredSpace(n, steps)


def fiber(rm: ReesModule, point):
    """Fiber dimensions: total at 1, weight-graded pieces at 0."""
    if point == 1:
        return rm.n
    if point == 0:
        grades = {}
        for w in rm.weights:
            grades[w] = grades.get(w, 0) + 1
        return grades
    raise PreconditionError("fiber is defined at 0 and 1 only")


def griffiths_check(fs: FilteredSpace, nabla) -> bool:
    """True iff nabla F^p lands in F^(p-1) tensor W for every p.

    ``nabla`` is one n x n matrix per coordinate of the parameter space W.
    """
    for mat in nabla:
        if len(mat) != fs.n or any(len(r) != fs.n for r in mat):
            raise PreconditionError("connection matrix has wrong shape")
    mats = [_as_scalar_rows(m, fs.n) for m in nabla]
    for p in range(fs.p_min + 1, fs.p_max + 1):
        for v in fs.basis(p):
            col = [[x] for x in v]
            for m in mats:
                image = [row[0] for row in linalg.mat_mul(m, col)]
                if not fs.contains(p - 1, image):
                    return False
    return True


def rees_p1(fs: FilteredSpace, fs_bar: FilteredSpace, pairing=None):
    """Glue the two one-chart modules into a bundle on P^1 and test purity.

    The orientation is fixed so that a one-dimensional space with weights
    (p, q) in the two filtrations comes out with splitting type (p + q).
    An optional antilinear pairing (a matrix applied after coordinate
    conjugation) identifies the second space with the first before gluing.
    """
    if fs.n != fs_bar.n:
        raise PreconditionError("the two filtrations live on different spaces")
    n = fs.n
    rf, rb = fs.rees, fs_bar.rees
    ubasis = [list(v) for v in rb.basis]
    if pairing is not None:
        if len(pairing) != n:
            raise PreconditionError(
                f"pairing must be {n}x{n}, got {len(pairing)} rows")
        pmat = _as_scalar_rows(pairing, n)
        ubasis = [
            [sum((pmat[i][k] * v[k].conj() for k in range(n)), Scalar.zero())
             for i in range(n)]
            for v in ubasis
        ]
    vcols = linalg.transpose([list(v) for v in rf.basis])
    ucols = linalg.transpose(ubasis)
    # (V^(-1) U)^(-1) = U^(-1) V solves U X = V; V is invertible, so the
    # system is consistent exactly when U is invertible
    cinv = linalg.solve(ucols, vcols, Scalar.one(), Scalar.zero())
    if cinv is None:
        raise PreconditionError("matrix is singular")
    p = rf.weights
    q = rb.weights
    entries = [[LaurentPoly._trusted(1, {(-(q[i] + p[j]),): c} if c else {})
                for j, c in enumerate(row)] for i, row in enumerate(cinv)]
    # det G = det C z^-(sum p + sum q), C invertible by the solve above
    bundle = P1Bundle._trusted(entries, -(sum(p) + sum(q)))
    exps = splitting_type(bundle)
    pure = all(e == exps[0] for e in exps)
    report = PurityReport(splitting=tuple(exps), pure=pure,
                          weight=exps[0] if pure else None)
    return bundle, report
