"""Quaternionic linear algebra over exact scalars.

A quaternionic space is a complex space W of dimension 2r carrying the
complex structure I (multiplication by i) and an antilinear J given by a
matrix: J(v) = J_m conj(v), with J_m conj(J_m) = -1, checked when the
space is built.  Real-linear operators are stored as pairs (P, Q) acting
by w -> P w + Q conj(w), which makes composition and equality exact
matrix algebra.

With K = I J the relations J^2 = K^2 = -1 and JK = -KJ give every inverse
in closed form, so no linear system is inverted or solved.  The structure
I_lambda is (1 - a)^(-1) I (1 - a), with (1 - a)^(-1) = (1 + a) / (1 + N)
where a^2 = -N: a = uK - vJ for lambda = u + iv (the conjugation formula)
or a = i lambda J (the closed form), N = lambda conj(lambda) for both.
The sigma-invariant section through v at lambda0 is a + J(a) lambda with
a = (v - lambda0 J(v)) / (1 + lambda0 conj(lambda0)).  The two forms and
x I + y J + z K stay separate formulas, so their agreement is a check.
The associated bundle over P^1 is an explicit transition matrix whose
splitting type certifies weight-one purity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, InternalInvariantError
from . import linalg
from .birkhoff import P1Bundle
from .scalars import Scalar
from .laurent import LaurentPoly


def _conj_mat(m):
    return [[x.conj() for x in row] for row in m]


def _scalar_mat(rows):
    return [[x if isinstance(x, Scalar) else Scalar.rational(x) for x in row]
            for row in rows]


class RealLinearOp:
    """w -> P w + Q conj(w) on Scalar^n; exact composition algebra."""

    def __init__(self, p, q):
        self.p = p
        self.q = q
        self.n = len(p)

    @staticmethod
    def identity(n):
        return RealLinearOp(linalg.identity(n, Scalar.one(), Scalar.zero()),
                            [[Scalar.zero()] * n for _ in range(n)])

    @staticmethod
    def mult(c, n):
        """Multiplication by the complex scalar c."""
        return RealLinearOp([[c if i == j else Scalar.zero() for j in range(n)]
                             for i in range(n)],
                            [[Scalar.zero()] * n for _ in range(n)])

    @staticmethod
    def antilinear(mat):
        n = len(mat)
        return RealLinearOp([[Scalar.zero()] * n for _ in range(n)], mat)

    def compose(self, other):
        # (P1, Q1) o (P2, Q2) = (P1 P2 + Q1 conj(Q2), P1 Q2 + Q1 conj(P2))
        p = _madd(linalg.mat_mul(self.p, other.p),
                  linalg.mat_mul(self.q, _conj_mat(other.q)))
        q = _madd(linalg.mat_mul(self.p, other.q),
                  linalg.mat_mul(self.q, _conj_mat(other.p)))
        return RealLinearOp(p, q)

    def __add__(self, other):
        return RealLinearOp(_madd(self.p, other.p), _madd(self.q, other.q))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RealLinearOp([[-x for x in r] for r in self.p],
                            [[-x for x in r] for r in self.q])

    def scale(self, c):
        """Left multiplication by the complex scalar c (a ``Scalar`` or a
        rational): (cP, cQ)."""
        if not isinstance(c, Scalar):
            c = Scalar.rational(c)
        return RealLinearOp([[c * x for x in r] for r in self.p],
                            [[c * x for x in r] for r in self.q])

    def __eq__(self, other):
        if not isinstance(other, RealLinearOp):
            return NotImplemented
        return linalg.mat_eq(self.p, other.p) and linalg.mat_eq(self.q, other.q)

    def __repr__(self):
        return f"RealLinearOp(n={self.n})"


def _madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


class QuaternionicSpace:
    """(W, I, J) with I = mult by i and J antilinear, J^2 = -1."""

    def __init__(self, r, j_matrix):
        self.r = r
        self.dim = 2 * r
        jm = _scalar_mat(j_matrix)
        if len(jm) != self.dim or any(len(row) != self.dim for row in jm):
            raise PreconditionError(f"J matrix must be {self.dim}x{self.dim}")
        self.jm = jm
        prod = linalg.mat_mul(jm, _conj_mat(jm))
        minus_id = [[-Scalar.one() if i == j else Scalar.zero()
                     for j in range(self.dim)] for i in range(self.dim)]
        if not linalg.mat_eq(prod, minus_id):
            raise PreconditionError("J_m conj(J_m) != -1: not a quaternionic structure")

    @staticmethod
    def standard(r):
        """Block sum of r copies of [[0, -1], [1, 0]]."""
        dim = 2 * r
        jm = [[Scalar.zero()] * dim for _ in range(dim)]
        for k in range(r):
            jm[2 * k][2 * k + 1] = -Scalar.one()
            jm[2 * k + 1][2 * k] = Scalar.one()
        return QuaternionicSpace(r, jm)

    def op_i(self):
        return RealLinearOp.mult(Scalar.i(), self.dim)

    def op_j(self):
        return RealLinearOp.antilinear(self.jm)

    def op_k(self):
        # I o J sends w to i J_m conj(w)
        return self.op_j().scale(Scalar.i())

    def apply_j(self, v):
        cv = [x.conj() for x in v]
        return [sum((self.jm[i][k] * cv[k] for k in range(self.dim)),
                    Scalar.zero()) for i in range(self.dim)]


@dataclass(frozen=True)
class SpherePoint:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        if self.x * self.x + self.y * self.y + self.z * self.z != 1:
            raise PreconditionError("point is not exactly on the unit sphere")


def stereographic(lam):
    """lambda = u + iv on the sphere; None stands for infinity."""
    if lam is None:
        return SpherePoint(Fraction(-1), Fraction(0), Fraction(0))
    if not lam.is_gaussian:
        raise PreconditionError("stereographic needs a gaussian value")
    u, v = lam.re, lam.im
    t = u * u + v * v
    d = 1 + t
    return SpherePoint((1 - t) / d, 2 * u / d, 2 * v / d)


def inverse_stereographic(pt: SpherePoint):
    if pt.x == -1:
        return None
    d = 1 + pt.x
    return Scalar.gaussian(pt.y / d, pt.z / d)


def sphere_combination(qs: QuaternionicSpace, pt: SpherePoint) -> RealLinearOp:
    """x I + y J + z K."""
    return qs.op_i().scale(pt.x) + qs.op_j().scale(pt.y) + qs.op_k().scale(pt.z)


def _conjugate_i(a: RealLinearOp, norm) -> RealLinearOp:
    """(1 - a)^(-1) I (1 - a) for a with a^2 = -norm, a rational or
    ``Scalar``: (1 - a)(1 + a) = 1 + norm, and I o (1 - a) is (1 - a)
    scaled by i."""
    one = RealLinearOp.identity(a.n)
    inv = (one + a).scale((Scalar.one() + norm).inv())
    return inv.compose((one - a).scale(Scalar.i()))


def structure_at(qs: QuaternionicSpace, lam: Scalar) -> RealLinearOp:
    """I_lambda by conjugation: (1 - uK + vJ)^(-1) I (1 - uK + vJ).

    a = uK - vJ squares to -(u^2 + v^2), because J^2 = K^2 = -1 and
    JK = -KJ."""
    if not lam.is_gaussian:
        raise PreconditionError("the structure family is parameterized by Q(i)")
    u, v = lam.re, lam.im
    return _conjugate_i(qs.op_k().scale(u) - qs.op_j().scale(v), u * u + v * v)


def structure_at_closed(qs: QuaternionicSpace, lam: Scalar) -> RealLinearOp:
    """Same operator through the closed form (1 - i lam J)^(-1) I (1 - i lam J).

    a = i lam J sends w to i lam J_m conj(w), so a^2 = -lam conj(lam) by
    J_m conj(J_m) = -1; this holds for cyclotomic lam too."""
    return _conjugate_i(qs.op_j().scale(Scalar.i() * lam), lam * lam.conj())


@dataclass(frozen=True)
class SectionO1:
    """lambda -> a + b*lambda in the finite chart; (b, a) in the other."""

    a: tuple
    b: tuple

    def value_at(self, lam: Scalar):
        return [x + y * lam for x, y in zip(self.a, self.b)]


def sigma_section(qs: QuaternionicSpace, s: SectionO1) -> SectionO1:
    """The antilinear involution sigma(a + b lambda) = -J(b) + J(a) lambda."""
    return SectionO1(a=tuple(-x for x in qs.apply_j(list(s.b))),
                     b=tuple(qs.apply_j(list(s.a))))


def invariant_section_through(qs: QuaternionicSpace, v, lam0: Scalar) -> SectionO1:
    """The unique sigma-invariant section a + J(a) lambda through (lam0, v)."""
    v = [x if isinstance(x, Scalar) else Scalar.rational(x) for x in v]
    if len(v) != qs.dim:
        raise PreconditionError("point has wrong dimension")
    # J(a + lam0 J(a)) = J(a) - conj(lam0) a, so a + lam0 J(a) = v gives
    # (1 + lam0 conj(lam0)) a = v - lam0 J(v)
    den = Scalar.one() + lam0 * lam0.conj()
    a = [(x - lam0 * y) / den for x, y in zip(v, qs.apply_j(v))]
    sec = SectionO1(a=tuple(a), b=tuple(qs.apply_j(a)))
    if sec.value_at(lam0) != v:
        raise InternalInvariantError("invariant section misses its defining point")
    return sec


def invariant_space_real_dimension(qs: QuaternionicSpace) -> int:
    """Real dimension of the space of sigma-invariant sections (expect 4r)."""
    n = qs.dim
    zero = Scalar.zero()
    ident = linalg.identity(n, Scalar.one(), zero)
    z = [[zero] * n for _ in range(n)]
    j, jc = qs.jm, _conj_mat(qs.jm)
    mj, mjc = [[-x for x in row] for row in j], [[-x for x in row] for row in jc]
    # unknown order (a, abar, b, bbar); the bands encode b = J abar,
    # bbar = Jc a, a = -J bbar and abar = -Jc b: invariance plus its conjugate
    bands = [(z, mj, ident, z), (mjc, z, z, ident), (ident, z, z, j), (z, ident, jc, z)]
    rows = [sum((block[i] for block in band), []) for band in bands for i in range(n)]
    return 4 * n - linalg.rank(rows)


def twistor_bundle(qs: QuaternionicSpace) -> P1Bundle:
    """Transition matrix of the bundle of structure eigenspaces over P^1.

    On the complexification (w1, w2) the -i eigenspace of I_lambda is the
    image of the -i eigenspace of I under (1 - i lambda J)^(-1), spanned by
    the columns (i lambda J_m e_j, e_j).  With the constant complement
    frame (e_j, 0) the frame matrix is M = [[i lambda J_m, 1], [1, 0]],
    whose inverse is [[0, 1], [1, -i lambda J_m]].  The chart-at-infinity
    quotient frame is therefore expressed by T = -i lambda J_m, and the
    transition matrix is G = T^(-1) = -(i / lambda) conj(J_m), because
    J_m^(-1) = -conj(J_m).  Its splitting type must be (1, ..., 1).
    """
    n = qs.dim
    minus_i = -Scalar.i()
    entries = [[LaurentPoly(1, {(-1,): minus_i * x.conj()}) for x in row]
               for row in qs.jm]
    # det G = det(-i conj J_m) z^-n, and J_m conj(J_m) = -1 makes J_m invertible
    return P1Bundle._trusted(entries, -n)


# -- quadratic maps equivariant for the structures ------------------------


def quaternionic_sff_space(r, rprime, constraints="quaternionic") -> int:
    """Real dimension of symmetric bilinear maps W x W -> W' commuting with
    the listed structures in each argument (I alone, or I and J).

    Uses the standard quaternionic structures on both sides and solves the
    realified constraint system exactly; the quaternionic answer is 0.
    """
    if constraints not in ("quaternionic", "complex"):
        raise PreconditionError("constraints must be 'quaternionic' or 'complex'")
    if r < 0 or rprime < 0:
        raise PreconditionError("quaternionic ranks must be non-negative")
    src = _real_structures(r)
    dst = _real_structures(rprime)
    nxs, nxd = 4 * r, 4 * rprime

    def uidx(a, b, g):
        if a > b:
            a, b = b, a
        return (a * nxs - a * (a - 1) // 2 + (b - a)) * nxd + g

    nunknown = (nxs * (nxs + 1) // 2) * nxd
    ops = ["I"] if constraints == "complex" else ["I", "J"]
    rows = []
    for opname in ops:
        s_op = src[opname]
        d_op = dst[opname]
        for a in range(nxs):
            for b in range(nxs):
                for g in range(nxd):
                    row = {}
                    for dd in range(nxs):  # B(op e_a, e_b)_g
                        c = s_op[dd][a]
                        if c:
                            key = uidx(dd, b, g)
                            row[key] = row.get(key, Fraction(0)) + c
                    for gg in range(nxd):  # -(op' B(e_a, e_b))_g
                        c = d_op[g][gg]
                        if c:
                            key = uidx(a, b, gg)
                            row[key] = row.get(key, Fraction(0)) - c
                    row = {k: Scalar.rational(v) for k, v in row.items() if v}
                    if row:
                        rows.append(row)
    return nunknown - linalg.sparse_rank(rows)


def _real_structures(r):
    """Realified I and J of the standard structure, as rational matrices.

    Real coordinates are ordered (Re z_1, Im z_1, ..., Re z_2r, Im z_2r).
    """
    n = 4 * r
    imat = [[Fraction(0)] * n for _ in range(n)]
    for k in range(2 * r):
        imat[2 * k][2 * k + 1] = Fraction(-1)
        imat[2 * k + 1][2 * k] = Fraction(1)
    jmat = [[Fraction(0)] * n for _ in range(n)]
    # J(v) = J_m conj(v) with J_m the block form: complex e_{2k} -> e_{2k+1},
    # e_{2k+1} -> -e_{2k}; conj flips the sign of the imaginary coordinate
    for k in range(r):
        a, b = 2 * (2 * k), 2 * (2 * k + 1)  # real offsets of the complex pair
        jmat[b][a] = Fraction(1)       # Re z2 <- Re z1
        jmat[b + 1][a + 1] = Fraction(-1)  # Im z2 <- -Im z1 (conj), then *1
        jmat[a][b] = Fraction(-1)      # Re z1 <- -Re z2
        jmat[a + 1][b + 1] = Fraction(1)
    return {"I": imat, "J": jmat}
