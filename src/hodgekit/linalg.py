"""Exact dense linear algebra over field-like elements, plus integer SNF.

Matrices are plain lists of lists.  Field elements must support +, -, *, /,
``inv()``, unary minus, equality and an ``is_zero`` property; ``Scalar``,
``RatFunc`` and ``LaurentPoly`` (ring ops only) all qualify.  Elimination
inverts each pivot once and scales its row by that inverse.
"""

from __future__ import annotations

from itertools import combinations

from .errors import PreconditionError, InternalInvariantError


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


# -- elimination over a field -------------------------------------------


def row_echelon(m):
    """In-place-free echelon form; returns (rows, pivot column list)."""
    rows, cols = dims(m)
    a = [list(r) for r in m]
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not a[i][c].is_zero:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inv()
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    return len(row_echelon(m)[0])


def sparse_rank(rows) -> int:
    """Rank of a system given as dicts {column: field element}."""
    pivots = {}
    count = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                f = row.pop(c)
                for k, v in pivots[c].items():
                    if k == c:
                        continue
                    acc = row.get(k)
                    acc = -(f * v) if acc is None else acc - f * v
                    if acc.is_zero:
                        row.pop(k, None)
                    else:
                        row[k] = acc
            else:
                inv = row[c].inv()
                pivots[c] = {k: v * inv for k, v in row.items()}
                count += 1
                break
    return count


def sparse_nullspace(rows, ncols, one, zero):
    """Right-kernel basis of a sparse system over a field.

    Runs a reduced sparse elimination, then reads each free column off the
    pivot rows exactly as in the dense case.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                f = row.pop(c)
                for k, v in pivots[c].items():
                    if k == c:
                        continue
                    acc = row.get(k)
                    acc = -(f * v) if acc is None else acc - f * v
                    if acc.is_zero:
                        row.pop(k, None)
                    else:
                        row[k] = acc
            else:
                inv = row[c].inv()
                norm = {k: v * inv for k, v in row.items()}
                # back-substitute into existing pivot rows for full reduction
                for pc, prow in pivots.items():
                    if c in prow:
                        f = prow.pop(c)
                        for k, v in norm.items():
                            if k == c:
                                continue
                            acc = prow.get(k)
                            acc = -(f * v) if acc is None else acc - f * v
                            if acc.is_zero:
                                prow.pop(k, None)
                            else:
                                prow[k] = acc
                pivots[c] = norm
                break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [zero] * ncols
        vec[fcol] = one
        for pc, prow in pivots.items():
            coeff = prow.get(fcol)
            if coeff is not None:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


def nullspace(m, one, zero):
    """Basis of the right kernel, as a list of column vectors (lists)."""
    rows, cols = dims(m)
    if rows == 0:
        return [[one if i == j else zero for i in range(cols)] for j in range(cols)]
    ech, pivots = row_echelon(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * cols
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][f]
        basis.append(v)
    return basis


def solve(m, b, one, zero):
    """One solution of m x = b over a field, or None if inconsistent."""
    rows, cols = dims(m)
    aug = [list(m[i]) + [b[i]] for i in range(rows)]
    ech, pivots = row_echelon(aug)
    for r in range(len(ech)):
        if pivots[r] == cols:
            return None
    x = [zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][cols]
    # echelon is fully reduced, so plugging pivot values back suffices
    return x


def invert(m, one, zero):
    n, c = dims(m)
    if n != c:
        raise PreconditionError("only square matrices invert")
    aug = [list(m[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
    ech, pivots = row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise PreconditionError("matrix is singular")
    return [row[n:] for row in ech[:n]]


# -- determinants over a commutative ring (no division) ------------------


def det_ring(m, one, zero):
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


def minors(m, k, one, zero):
    """All k-by-k minors in lexicographic (row-set, column-set) order."""
    rows, cols = dims(m)
    if k < 1 or k > min(rows, cols):
        raise PreconditionError(f"minor size {k} out of range for {rows}x{cols}")
    out = []
    for rset in combinations(range(rows), k):
        for cset in combinations(range(cols), k):
            sub = [[m[i][j] for j in cset] for i in rset]
            out.append(det_ring(sub, one, zero))
    return out


# -- Smith normal form over Z --------------------------------------------


def smith_normal_form(e):
    """U e V = D with U, V unimodular and D = diag(d1 | d2 | ...), di >= 0."""
    rows = len(e)
    cols = len(e[0]) if rows else 0
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
