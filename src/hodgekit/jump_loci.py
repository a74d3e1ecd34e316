"""Cohomology jump loci of tori with attached 2- and 3-cells.

The space is a real a-torus with m two-spheres and l three-cells attached;
the attaching data is an l x m matrix A over the integral group ring of
Z^a.  For a nontrivial rank-one character rho the middle cohomology sits
in a four-term exact sequence through A(rho), so

    h2 = m - rank A(rho),      h3 = l - rank A(rho),

and the locus where h2 >= k is cut out by the (m-k+1) x (m-k+1) minors of
A.  Subtorus containment is decided by monomial substitution, never by
ideal membership.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError, check_budget
from . import linalg
from .laurent import LaurentPoly
from .scalars import Scalar

_MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class CWPresentation:
    a: int      # rank of the fundamental lattice
    m: int      # number of attached 2-spheres
    l: int      # number of attached 3-cells
    matrix: tuple  # l x m LaurentPoly entries with integer coefficients

    def __post_init__(self):
        if self.a < 0 or self.m < 1 or self.l < 1:
            raise PreconditionError("need a >= 0, m >= 1, l >= 1")
        if len(self.matrix) != self.l:
            raise PreconditionError("attaching matrix has wrong number of rows")
        for row in self.matrix:
            if len(row) != self.m:
                raise PreconditionError("attaching matrix has a ragged row")
            for p in row:
                if p.rank != self.a:
                    raise PreconditionError("entry lives in the wrong group ring")
                if not p.has_integer_coefficients():
                    raise PreconditionError(
                        "attaching data must have integer coefficients")

    def rows(self):
        return [list(r) for r in self.matrix]


@dataclass(frozen=True)
class SubtorusParam:
    """Translated subtorus: t_j = zeta_j * prod_k s_k^(E[j][k])."""

    zeta: tuple
    exponents: tuple   # a x b integer matrix, rank b

    def __post_init__(self):
        for z in self.zeta:
            if not isinstance(z, Scalar) or z.is_zero:
                raise PreconditionError("translation components must be invertible")
        e = [list(map(int, row)) for row in self.exponents]
        if len(e) != len(self.zeta):
            raise PreconditionError("exponent matrix must have one row per variable")
        b = len(e[0]) if e else 0
        if any(len(r) != b for r in e):
            raise PreconditionError("ragged exponent matrix")
        if b and linalg_rank_int(e) != b:
            raise PreconditionError("exponent matrix must have full column rank")

    @property
    def b(self):
        return len(self.exponents[0]) if self.exponents else 0


def linalg_rank_int(rows):
    sc = [[Scalar.rational(x) for x in row] for row in rows]
    return linalg.rank(sc)


def _check_character(p: CWPresentation, rho):
    if len(rho) != p.a:
        raise PreconditionError("character length mismatch")
    rho = [r if isinstance(r, Scalar) else Scalar.rational(r) for r in rho]
    for r in rho:
        if r.is_zero:
            raise PreconditionError("character has a zero component")
    return rho


def betti_dims(p: CWPresentation, rho):
    """(h2, h3) at a nontrivial character."""
    rho = _check_character(p, rho)
    if all(r == Scalar.one() for r in rho):
        raise PreconditionError(
            "the exact sequence needs a nontrivial character; "
            "the trivial one is excluded")
    evaluated = [[entry.eval_character(rho) for entry in row] for row in p.rows()]
    rk = linalg.rank(evaluated)
    return p.m - rk, p.l - rk


def jump_ideal(p: CWPresentation, k: int):
    """Generators of the rank <= m-k condition: all (m-k+1)-minors of A.

    Duplicate generators are collapsed; a single zero generator means the
    condition holds on the whole character torus.
    """
    if k < 1 or k > p.m:
        raise PreconditionError(f"jump index {k} out of range 1..{p.m}")
    size = p.m - k + 1
    if size > p.l:
        # rank never exceeds l, so the condition is vacuous
        return [LaurentPoly.zero(p.a)]
    mins = linalg.minors(p.rows(), size, LaurentPoly.one(p.a))
    seen = set()
    out = []
    for q in mins:
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def jump_ideal_h3(p: CWPresentation, j: int):
    """Same condition reached through h3 >= j; shares generators with
    jump_ideal at k = j - l + m by the exactness index identity."""
    k = j - p.l + p.m
    return jump_ideal(p, k)


def contains_subtorus(p: CWPresentation, k: int, sub: SubtorusParam) -> bool:
    """True iff the translated subtorus lies inside the jump locus."""
    if len(sub.zeta) != p.a:
        raise PreconditionError("subtorus lives on the wrong torus")
    emat = [list(map(int, row)) for row in sub.exponents]
    for gen in jump_ideal(p, k):
        image = gen.substitute_monomials(list(sub.zeta), emat)
        if not image.is_zero:
            return False
    return True


_SAMPLE_POOL = (
    Scalar.one(), -Scalar.one(), Scalar.rational(2), Scalar.rational("1/2"),
    Scalar.i(), -Scalar.i(), Scalar.gaussian(1, 1), Scalar.gaussian(1, -1),
    Scalar.rational(3), Scalar.rational("-2/3"),
)


def character_scan(p: CWPresentation, k: int, samples: int, seed: int):
    """Randomized exploration of the jump locus; deterministic per seed.

    Every returned character is verified to satisfy the rank condition;
    no completeness is claimed.
    """
    if samples < 0:
        raise PreconditionError(f"sample count {samples} is negative")
    check_budget(samples, "character samples", _MAX_SAMPLES,
                 "jump_loci._MAX_SAMPLES")
    if k < 1 or k > p.m:
        raise PreconditionError(f"jump index {k} out of range 1..{p.m}")
    rng = random.Random(seed)
    found = []
    seen = set()
    for _ in range(samples):
        rho = tuple(rng.choice(_SAMPLE_POOL) for _ in range(p.a))
        key = tuple(r.key() for r in rho)
        if key in seen:
            continue
        seen.add(key)
        evaluated = [[e.eval_character(list(rho)) for e in row] for row in p.rows()]
        if linalg.rank(evaluated) <= p.m - k:
            found.append(rho)
    return found
