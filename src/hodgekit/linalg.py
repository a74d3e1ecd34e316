"""Exact linear algebra over field-like elements, plus integer SNF.

Matrices are plain lists of lists; a sparse system is a list of dicts
{column: element}.  Every field routine reads one sparse elimination
kernel: a forward pass, ``echelon``, that inverts each pivot other than 1
once and scales its row by that inverse, and a back-substitution pass,
``rref``, to reduced row echelon form.  Three readers answer the
questions asked of it: ``rank`` counts the pivots, ``nullspace`` reads
the kernel (``kernel_vector`` only its first vector) and ``solve`` reads
X with m X = B off rref([m | B]); ``invert`` is ``solve(m, I)``.  Field
elements must support +, -, *, ``inv()``, unary minus, equality and the
``is_zero`` and ``is_one`` properties; ``Scalar`` and ``RatFunc``
qualify.  ``mat_mul``, ``det_ring`` and ``minors`` use ring operations
only, so ``LaurentPoly`` entries over either work too; ``smith_normal_form``
is over Z.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import PreconditionError, InternalInvariantError, check_budget

_MAX_MINORS = 10_000


def dims(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for r in m:
        if len(r) != cols:
            raise PreconditionError("ragged matrix")
    return rows, cols


def transpose(m):
    rows, cols = dims(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def mat_mul(a, b):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise PreconditionError(f"dimension mismatch {ra}x{ca} * {rb}x{cb}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = a[i][0] * b[0][j]
            for k in range(1, ca):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_eq(a, b):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if (ra, ca) != (rb, cb):
        return False
    return all(a[i][j] == b[i][j] for i in range(ra) for j in range(ca))


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# -- elimination over a field: one sparse kernel -------------------------
#
# A row is a dict {column: nonzero element}.  An echelon basis is a dict
# {pivot column: row} whose row has 1 at its pivot and no entry left of
# it.  ``echelon`` (the forward pass) grows such a basis; ``rref`` (the
# back-substitution pass) clears every other pivot column from every row,
# which makes the basis the unique reduced row echelon form of its span.
# Everything below reads one of the two.


def _sub(row, f, prow, skip):
    """row -= f * prow in place, except in column ``skip``."""
    for k, v in prow.items():
        if k != skip:
            acc = row.get(k)
            acc = -(f * v) if acc is None else acc - f * v
            if acc.is_zero:
                row.pop(k, None)
            else:
                row[k] = acc


def _reduce(row, basis):
    """Clear pivot columns from the front of ``row`` (in place).

    Returns the first column left that is not a pivot, or None when the
    row reduces to nothing, i.e. lies in the span of the basis.
    """
    while row:
        c = min(row)
        prow = basis.get(c)
        if prow is None:
            return c
        _sub(row, row.pop(c), prow, c)
    return None


def echelon(rows, basis=None):
    """Forward pass: add each sparse row to an echelon basis and return it."""
    if basis is None:
        basis = {}
    for row in rows:
        row = dict(row)
        c = _reduce(row, basis)
        if c is not None:
            if not row[c].is_one:
                inv = row[c].inv()
                row = {k: v * inv for k, v in row.items()}
            basis[c] = row
    return basis


def rref(basis):
    """Back-substitution pass, in place, to reduced row echelon form.

    Highest pivot first, so each row is cleared only by rows that are
    already fully reduced.
    """
    for c in sorted(basis, reverse=True):
        row = basis[c]
        for h in [k for k in row if k != c and k in basis]:
            _sub(row, row.pop(h), basis[h], h)
    return basis


def _sparse_row(v):
    return {j: x for j, x in enumerate(v) if not x.is_zero}


def _sparse(m):
    dims(m)
    return list(map(_sparse_row, m))


def rank(m) -> int:
    return len(echelon(_sparse(m)))


def sparse_rank(rows) -> int:
    """Rank of a system given as dicts {column: field element}."""
    return len(echelon(rows))


def _free_vector(basis, f, ncols, one, zero):
    """The kernel vector with 1 in free column f and 0 in the other free
    columns, read off a reduced row echelon ``basis``."""
    vec = [zero] * ncols
    vec[f] = one
    for c, row in basis.items():
        x = row.get(f)
        if x is not None:
            vec[c] = -x
    return vec


def sparse_nullspace(rows, ncols, one, zero):
    """Right-kernel basis of a sparse system over a field.

    One vector per free column, in increasing order, read off the reduced
    row echelon form.
    """
    basis = rref(echelon(rows))
    return [_free_vector(basis, f, ncols, one, zero)
            for f in range(ncols) if f not in basis]


def nullspace(m, one, zero):
    """Basis of the right kernel, as a list of column vectors (lists)."""
    return sparse_nullspace(_sparse(m), dims(m)[1], one, zero)


def kernel_vector(m, one, zero):
    """The first vector of ``nullspace(m)``, without building the others;
    None when the kernel is zero."""
    ncols = dims(m)[1]
    basis = rref(echelon(_sparse(m)))
    f = next((f for f in range(ncols) if f not in basis), None)
    return None if f is None else _free_vector(basis, f, ncols, one, zero)


def row_echelon(m):
    """Reduced row echelon form of a dense matrix: (rows, pivot columns)."""
    cols = dims(m)[1]
    basis = rref(echelon(_sparse(m)))
    pivots = sorted(basis)
    zero = basis[pivots[0]][pivots[0]] * 0 if pivots else None
    return [[basis[c].get(j, zero) for j in range(cols)] for c in pivots], pivots


def solve(m, b, one, zero):
    """One X with m X = b over a field, free unknowns zero, or None when
    the system is inconsistent.

    ``b`` has one column per right-hand side and one row per row of m.
    Its rows are lists, or for a square b dicts {column: element} that
    leave out the zeros (``invert`` passes the identity so).  X is read
    off rref([m | b]), which has a pivot in the b block exactly when no
    X exists.
    """
    rows, cols = dims(m)
    if len(b) != rows:
        raise PreconditionError(f"{rows} equations but {len(b)} right-hand sides")
    width = len(b) if not b or isinstance(b[0], dict) else len(b[0])
    aug = _sparse(m)
    for row, rhs in zip(aug, b):
        items = rhs.items() if isinstance(rhs, dict) else enumerate(rhs)
        row.update((cols + j, x) for j, x in items if not x.is_zero)
    basis = rref(echelon(aug))
    if any(c >= cols for c in basis):
        return None
    out = [[zero] * width for _ in range(cols)]
    for c, row in basis.items():
        out[c] = [row.get(cols + j, zero) for j in range(width)]
    return out


def invert(m, one, zero):
    """Inverse of a square matrix: ``solve(m, I)``, which exists exactly
    when m is invertible."""
    n, c = dims(m)
    if n != c:
        raise PreconditionError("only square matrices invert")
    inverse = solve(m, [{i: one} for i in range(n)], one, zero)
    if inverse is None:
        raise PreconditionError("matrix is singular")
    return inverse


# -- determinants over a commutative ring (no division) ------------------


def det_ring(m, one):
    """Determinant by column-subset expansion; valid over any ring."""
    rows, cols = dims(m)
    if rows != cols:
        raise PreconditionError("determinant of a non-square matrix")
    n = rows
    if n == 0:
        return one
    # memo[sorted column tuple] = minor over rows 0..r-1 on those columns
    prev = {(): one}
    for r in range(n):
        nxt = {}
        for colset, val in prev.items():
            used = set(colset)
            seen = 0
            for c in range(n):
                if c in used:
                    seen += 1
                    continue
                # expansion along row r: sign (-1)^(r + position of c)
                term = val * m[r][c]
                if (r + seen) % 2 == 1:
                    term = -term
                key = tuple(sorted(colset + (c,)))
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        prev = nxt
    (only,) = prev.values()
    return only


def minors(m, k, one):
    """All k-by-k minors in lexicographic (row-set, column-set) order.
    There are C(rows, k) * C(cols, k) of them, each an O(2^k k) expansion,
    so a count over ``_MAX_MINORS`` is refused before any."""
    rows, cols = dims(m)
    if k < 1 or k > min(rows, cols):
        raise PreconditionError(f"minor size {k} out of range for {rows}x{cols}")
    check_budget(comb(rows, k) * comb(cols, k),
                 f"minors of size {k} of a {rows}x{cols} matrix",
                 _MAX_MINORS, "linalg._MAX_MINORS")
    out = []
    for rset in combinations(range(rows), k):
        for cset in combinations(range(cols), k):
            sub = [[m[i][j] for j in cset] for i in rset]
            out.append(det_ring(sub, one))
    return out


# -- Smith normal form over Z --------------------------------------------


def smith_normal_form(e):
    """U e V = D with U, V unimodular and D = diag(d1 | d2 | ...), di >= 0."""
    rows, cols = dims(e)
    a = [[int(x) for x in row] for row in e]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, f):  # row i -= f * row j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col i -= f * col j
        for r in range(rows):
            a[r][i] -= f * a[r][j]
        for r in range(cols):
            v[r][i] -= f * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def diagonalize(start):
        t = start
        while t < min(rows, cols):
            # nonzero pivot of least absolute value in the trailing block
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] != 0 and (best is None
                                         or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, rows):
                    if a[i][t]:
                        row_op(i, t, a[i][t] // a[t][t])
                        if a[i][t]:
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, cols):
                    if a[t][j]:
                        col_op(j, t, a[t][j] // a[t][t])
                        if a[t][j]:
                            swap_cols(t, j)
                            dirty = True
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            t += 1

    diagonalize(0)

    # enforce the divisibility chain d_i | d_{i+1} by folding the offender
    # into column i and re-diagonalising from position i
    changed = True
    while changed:
        changed = False
        for i in range(min(rows, cols) - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj % di != 0:
                col_op(i, i + 1, -1)  # col i += col i+1
                diagonalize(i)
                changed = True
                break
    d = a
    _check_snf(d)
    return u, d, v


def _check_snf(d):
    rows = len(d)
    cols = len(d[0]) if rows else 0
    diag = []
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j] != 0:
                raise InternalInvariantError("SNF left a nonzero off-diagonal")
        if i < cols:
            diag.append(d[i][i])
    for x in diag:
        if x < 0:
            raise InternalInvariantError("SNF produced a negative invariant factor")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise InternalInvariantError("SNF zero ordering broken")
        if x and y % x != 0:
            raise InternalInvariantError("SNF divisibility chain broken")
