"""Splitting types of algebraic vector bundles on the projective line.

A bundle is presented by its transition matrix G(z) between the two
standard charts, rank-1 ``LaurentPoly`` entries in z over ``Scalar``
(Q(i), or Q(zeta_n)); the determinant must be a unit (nonzero constant
times a power of z).  Convention, fixed here and inherited
everywhere else: the line bundle O(a) has the 1x1 transition z^(-a), so
h0(O(a)) = max(0, a+1).

The constructor checks the unit determinant by expanding it, an O(2^n n)
column-subset sum, and keeps only its exponent.  Three constructions fix
the determinant themselves and hand the exponent to ``P1Bundle._trusted``:
the Rees gluing diag(z^-q) C diag(z^-p) with C invertible (exponent
-(sum p + sum q)), the twistor bundle z^-1 (-i conj J_m) (exponent -n)
and the fibers N(z, s0) / q(s0) of a Langton disk family (the family's
own exponent).  Bundles read from input, and those handed to
``invert_unimodular``, keep the check.

The splitting type comes from column reduction (Grothendieck 1957;
Wolovich 1974).  Let d_j be the top z-exponent of column j and L the matrix
of the z^(d_j) coefficients.  While L is singular, a kernel vector alpha
gives the K[z]-unimodular column operation col_j <- sum_k (alpha_k/alpha_j)
z^(d_j-d_k) col_k (j the support index of largest d_j), and d_j drops.
The top coefficient of det G is det L, so sum(d) >= det_exp with equality
exactly when L is invertible: at most sum(d) - det_exp steps, the budget.
Then G U = H diag(z^d) with H in GL_n(K[1/z]), the Birkhoff factorisation,
so the exponents a_j = -d_j are exact and unique over any field.
``_column_reduce`` takes the field's one and zero, so Langton's generic
fiber runs it over K(s) directly (``langton.generic_splitting``).  The
same reduction certifies itself: logging its column operations gives U and
U^(-1), hence the factorization G = A D C with A = H, D = diag(z^d) and
C = U^(-1) (Beckermann-Labahn-Villard 2006), checked by re-multiplication.

h0 of every twist and the section bases come from the same reduction.
With u_j the columns of U, G (z^k u_j) = z^(k+d_j) (column j of H), so
z^k u_j is a section of B(m) exactly when 0 <= k <= m - d_j; as U lies in
GL_n(K[z]) and H in GL_n(K[1/z]), these vectors form a basis of
H0(B(m)), and h0(B(m)) = sum_j max(0, a_j + m + 1).

A second reduction inverts a frame A in GL_n(K[1/z]) with constant
determinant.  In w = 1/z, A is a polynomial matrix of determinant degree
0, so its column reduction ends with every column degree 0: A V = K0 with
K0 constant and V in GL_n(K[w]), hence A^(-1) = V K0^(-1).  Langton's
A0^(-1) is this inverse, and a matrix G with constant unit determinant
inverts as G^(-1) = U diag(z^(-d)) A^(-1) from its own reduction; no
adjugate is expanded.
"""

from __future__ import annotations

import functools

from .errors import PreconditionError, InternalInvariantError
from . import linalg
from .laurent import LaurentPoly
from .scalars import Scalar


def _top_exp(vec):
    """Largest z-exponent among the nonzero entries of ``vec``."""
    return max(max(x.terms) for x in vec if x.terms)[0]


class P1Bundle:
    """Rank-n bundle on P^1 via an n x n Laurent transition matrix.

    The constructor expands det G once (``linalg.det_ring``) to check that
    it is a unit and keeps only its exponent ``det_exp``; bundles whose
    construction fixes the determinant come from ``_trusted`` instead.
    """

    def __init__(self, entries):
        self._shape(entries)
        det = linalg.det_ring(self.entries, LaurentPoly.one(1))
        if not det.is_unit:
            raise PreconditionError("transition determinant is not a unit")
        self.det_exp = next(iter(det.terms))[0]

    @staticmethod
    def _trusted(entries, det_exp):
        """The bundle with transition ``entries`` whose determinant the
        construction fixes as a nonzero constant times z^det_exp; no
        determinant is expanded.  The three constructions that hand one in:

        * ``rees.rees_p1``: G = diag(z^-q) C diag(z^-p), with C = U^(-1) V
          invertible because ``solve`` found U X = V consistent for a basis
          V, so det_exp = -(sum(p) + sum(q));
        * ``twistor.twistor_bundle``: G = z^-1 (-i conj J_m), invertible
          because J_m conj(J_m) = -1, so det_exp = -n;
        * ``langton.DiskFamily.fiber_at``: N(z, s0) / q(s0), whose
          determinant (det N)(z, s0) / q(s0)^n it checks to be nonzero, at
          the family's det_exp.
        """
        out = object.__new__(P1Bundle)
        out._shape(entries)
        out.det_exp = det_exp
        return out

    def _shape(self, entries):
        n = len(entries)
        if n == 0:
            raise PreconditionError("transition matrix must have rank >= 1")
        if any(len(row) != n for row in entries):
            raise PreconditionError("transition matrix must be square")
        self.n = n
        self.entries = [list(r) for r in entries]

    @functools.cached_property
    def reduction(self):
        """(columns, d, log) of the column reduction, run on first use."""
        return _column_reduce(list(zip(*self.entries)), self.det_exp,
                              Scalar.one(), Scalar.zero())

    def __repr__(self):
        return f"P1Bundle(n={self.n}, det=z^{self.det_exp})"


def _column_reduce(cols, dd, one, zero):
    """Column reduction (see the module docstring) of the matrix with
    columns ``cols`` and determinant degree ``dd``, over the field whose
    one and zero are ``one`` and ``zero``.

    Returns the reduced columns, their top exponents d_j and the log of
    column operations: each entry (j, [(k, shift, factor), ...]) replaced
    col_j by the sum of factor * z^shift * col_k, with the k = j term 1.
    """
    n, cols = len(cols), list(cols)
    deg = [_top_exp(col) for col in cols]
    budget = sum(deg) - dd
    log = []
    for _ in range(budget):
        if sum(deg) == dd:      # the leading coefficients are invertible
            break
        lead = [[cols[j][i].coeff((deg[j],), zero) for j in range(n)]
                for i in range(n)]
        alpha = linalg.kernel_vector(lead, one, zero)
        if alpha is None:
            raise InternalInvariantError(
                "invertible leading coefficients above the determinant degree")
        j = max((k for k in range(n) if not alpha[k].is_zero),
                key=lambda k: deg[k])
        inv = alpha[j].inv()
        ops = [(k, deg[j] - deg[k], alpha[k] * inv)
               for k in range(n) if not alpha[k].is_zero]
        new = []
        for i in range(n):
            acc = {}
            for k, shift, f in ops:
                for (e,), c in cols[k][i].terms.items():
                    e = (e + shift,)
                    acc[e] = acc[e] + c * f if e in acc else c * f
            new.append(LaurentPoly._trusted(
                1, {e: c for e, c in acc.items() if not c.is_zero}))
        log.append((j, ops))
        cols[j], deg[j] = new, _top_exp(new)
    if sum(deg) != dd:
        raise InternalInvariantError(
            f"column degrees sum to {sum(deg)}, not the determinant degree "
            f"{dd}, after the budget of {max(budget, 0)} reduction steps")
    return cols, deg, log


def splitting_type(bundle: P1Bundle):
    """The non-increasing Grothendieck exponents (a_1 >= ... >= a_n), by
    column reduction of the transition matrix (see the module docstring)."""
    _, deg, _ = bundle.reduction
    return sorted((-d for d in deg), reverse=True)


def _reduced_frame(reduction, inverse):
    """(A, d, V) from one column reduction G U = A diag(z^d): A lies in
    GL_n(K[1/z]), U in GL_n(K[z]) is the product of the logged column
    operations, and V is U, or U^(-1) when ``inverse`` (each logged step
    undone by the row operations row_k -= factor z^shift row_j, k != j)."""
    cols, deg, log = reduction
    n = len(cols)
    amat = [[cols[j][i].shift((-deg[j],)) for j in range(n)] for i in range(n)]
    mat = linalg.identity(n, LaurentPoly.one(1), LaurentPoly.zero(1))
    for j, ops in log:
        for k, shift, f in ops:
            if k == j:
                continue
            if inverse:
                mat[k] = [x - y.shift((shift,)).scale(f)
                          for x, y in zip(mat[k], mat[j])]
            else:
                for row in mat:
                    row[j] = row[j] + row[k].shift((shift,)).scale(f)
    return amat, deg, mat


def h0_twist(bundle: P1Bundle, m: int) -> int:
    """dim H0 of bundle twisted by O(m), from the splitting type."""
    return sum(max(0, a + m + 1) for a in splitting_type(bundle))


def section_basis(bundle, m):
    """Basis of H0(B(m)) as vectors of entries polynomial in z: the
    z^k u_j with 0 <= k <= m - d_j, u_j column j of U (module docstring)."""
    _, deg, umat = _reduced_frame(bundle.reduction, inverse=False)
    return [[row[j].shift((k,)) for row in umat]
            for j, d in enumerate(deg) for k in range(m - d + 1)]


def _flip(x):
    """x(1/z): the exponents negated."""
    return LaurentPoly._trusted(1, {(-e,): c for (e,), c in x.terms.items()})


def _inverse_frame(amat):
    """A^(-1) for A in GL_n(K[1/z]) with constant determinant, from the
    column reduction of A(1/w) (module docstring): A V = K0, and K0^(-1)
    is applied by combining the columns of V with scalar factors."""
    n, one, zero = len(amat), Scalar.one(), Scalar.zero()
    k0, _, vmat = _reduced_frame(_column_reduce(
        [[_flip(row[j]) for row in amat] for j in range(n)], 0, one, zero),
        inverse=False)
    kinv = linalg.invert([[x.coeff((0,), zero) for x in row] for row in k0],
                         one, zero)
    lzero = LaurentPoly.zero(1)
    return [[_flip(sum((x.scale(c[j]) for x, c in zip(row, kinv)
                        if not c[j].is_zero), lzero)) for j in range(n)]
            for row in vmat]


def invert_unimodular(mat):
    """Inverse of a matrix G with constant unit determinant, in the same
    chart ring: G U = A diag(z^d) from G's column reduction, so
    G^(-1) = U diag(z^(-d)) A^(-1) (module docstring)."""
    bundle = P1Bundle(mat)  # refuses a non-unit determinant
    if bundle.det_exp:
        raise PreconditionError("matrix determinant is not a unit constant")
    amat, deg, umat = _reduced_frame(bundle.reduction, inverse=False)
    ainv = _inverse_frame(amat)
    return linalg.mat_mul(umat, [[x.shift((-d,)) for x in row]
                                 for row, d in zip(ainv, deg)])


def factorization_certificate(bundle: P1Bundle):
    """Constructive Birkhoff factorization G = A * D * C.

    A is invertible over polynomials in 1/z, C over polynomials in z, and
    D = diag(z^(d_j)) = diag(z^(-a_j)) carries the splitting type, in the
    column order of the reduction (not sorted).  All three come from the
    column reduction behind ``splitting_type``: G U = A D, and C = U^(-1).
    The product is re-multiplied before it is returned.
    """
    n = bundle.n
    amat, deg, cmat = _reduced_frame(bundle.reduction, inverse=True)
    zero = LaurentPoly.zero(1)
    dmat = [[LaurentPoly.monomial(1, (deg[i],), 1) if i == j else zero
             for j in range(n)] for i in range(n)]
    recon = linalg.mat_mul(linalg.mat_mul(amat, dmat), cmat)
    if not linalg.mat_eq(recon, bundle.entries):
        raise InternalInvariantError("Birkhoff certificate failed to re-multiply")
    return amat, dmat, cmat
