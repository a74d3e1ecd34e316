import itertools

import pytest

from hodgekit import linalg
from hodgekit.errors import PreconditionError
from hodgekit.laurent import LaurentPoly
from hodgekit.scalars import Scalar

ONE, ZERO = Scalar.one(), Scalar.zero()


def m_of(rows):
    return [[Scalar.rational(x) for x in r] for r in rows]


def test_rank_examples():
    assert linalg.rank(m_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert linalg.rank(m_of([[0] * 5, [0] * 5])) == 0
    assert linalg.rank([[ONE, Scalar.i()], [-Scalar.i(), ONE]]) == 1


def test_rank_transpose_and_permutation(rng):
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[Scalar.rational(rng.randint(-3, 3)) for _ in range(cols)]
             for _ in range(rows)]
        r = linalg.rank(m)
        assert linalg.rank(linalg.transpose(m)) == r
        perm = list(range(rows))
        rng.shuffle(perm)
        assert linalg.rank([m[i] for i in perm]) == r


def test_sparse_nullspace_clears_later_pivot_columns():
    # the second row's pivot (column 0) lies left of the first row's, and
    # the pivot row for column 0 still carries column 1 until it is cleared
    rows = [{1: ONE, 2: ONE}, {0: ONE, 1: ONE}]
    want = [[ONE, -ONE, ONE]]
    assert linalg.sparse_nullspace(rows, 3, ONE, ZERO) == want
    assert linalg.nullspace(m_of([[0, 1, 1], [1, 1, 0]]), ONE, ZERO) == want


def random_sparse_system(rng):
    """Sparse rows over Q(i), some of them combinations of others, shuffled."""
    ncols = rng.randint(1, 7)
    rows = []
    for _ in range(rng.randint(1, 6)):
        rows.append({c: Scalar.gaussian(rng.choice([-2, -1, 1, 2, 3]),
                                        rng.randint(-1, 1))
                     for c in range(ncols) if rng.random() < 0.4})
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(rows), rng.choice(rows)
        f = Scalar.rational(rng.randint(-2, 2))
        combo = {c: a.get(c, ZERO) + f * b.get(c, ZERO) for c in set(a) | set(b)}
        rows.append({c: x for c, x in combo.items() if not x.is_zero})
    rng.shuffle(rows)
    return rows, ncols


def test_sparse_nullspace_property(rng):
    for _ in range(200):
        rows, ncols = random_sparse_system(rng)
        kern = linalg.sparse_nullspace(rows, ncols, ONE, ZERO)
        for vec in kern:
            for row in rows:
                assert sum((x * vec[c] for c, x in row.items()), ZERO).is_zero
        assert len(kern) == ncols - linalg.sparse_rank(rows)
        dense = [[row.get(c, ZERO) for c in range(ncols)] for row in rows]
        assert kern == linalg.nullspace(dense, ONE, ZERO)
        assert linalg.kernel_vector(dense, ONE, ZERO) == (kern[0] if kern else None)
        assert linalg.rank(dense) == linalg.sparse_rank(rows)


def test_echelon_inverts_only_pivots_other_than_one(monkeypatch):
    from hodgekit.univariate import RatFunc
    assert ONE.is_one and (Scalar.zeta(5) ** 5).is_one and RatFunc([1]).is_one
    assert not any(x.is_one for x in (ZERO, Scalar.i(), Scalar.rational(-1),
                                      Scalar.zeta(5), RatFunc([1, 1]),
                                      RatFunc([1], [0, 1])))
    calls = []
    real = Scalar.inv

    def counted(self):
        calls.append(self)
        return real(self)
    monkeypatch.setattr(Scalar, "inv", counted)
    two, three = Scalar.rational(2), Scalar.rational(3)
    basis = linalg.echelon([{0: ONE, 2: three}, {1: two, 2: ONE}])
    assert basis == {0: {0: ONE, 2: three}, 1: {1: ONE, 2: ONE / two}}
    assert calls == [two]


def test_invert_solve_and_row_echelon(rng):
    for _ in range(40):
        rows, ncols = random_sparse_system(rng)
        dense = [[row.get(c, ZERO) for c in range(ncols)] for row in rows]
        # the reduced form is unique: the row order must not matter
        ech, piv = linalg.row_echelon(dense)
        assert linalg.row_echelon(dense[::-1]) == (ech, piv)
        assert len(piv) == linalg.rank(dense)
        # one right-hand side, then several, each in the column space
        for width in (1, rng.randint(2, 4)):
            x = [[Scalar.gaussian(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(width)] for _ in range(ncols)]
            b = linalg.mat_mul(dense, x)
            y = linalg.solve(dense, b, ONE, ZERO)
            assert len(y) == ncols and all(len(row) == width for row in y)
            assert linalg.mat_mul(dense, y) == b
        # m x = e_i is consistent exactly when appending e_i keeps the rank
        n = len(dense)
        for i in range(n):
            e = [[ONE if k == i else ZERO] for k in range(n)]
            grows = linalg.rank([r + c for r, c in zip(dense, e)]) > linalg.rank(dense)
            y = linalg.solve(dense, e, ONE, ZERO)
            assert (y is None) == grows
            assert grows or linalg.mat_mul(dense, y) == e
        if n == ncols:
            ident = linalg.identity(n, ONE, ZERO)
            if linalg.rank(dense) == n:
                inv = linalg.invert(dense, ONE, ZERO)
                assert linalg.mat_mul(dense, inv) == ident
                assert linalg.solve(dense, ident, ONE, ZERO) == inv
            else:
                with pytest.raises(PreconditionError, match="matrix is singular"):
                    linalg.invert(dense, ONE, ZERO)
                assert linalg.solve(dense, ident, ONE, ZERO) is None
    assert linalg.solve(m_of([[1, 1], [2, 2]]), m_of([[1], [3]]), ONE, ZERO) is None
    assert linalg.solve(m_of([[1, 1], [2, 2]]), m_of([[1, 0], [2, 1]]), ONE, ZERO) is None


def test_det_ring_matches_leibniz(rng):
    # idet (below) is the permutation sum; it needs only + and * of entries
    for _ in range(15):
        n = rng.randint(1, 4)
        m = [[Scalar.gaussian(rng.randint(-4, 4), rng.randint(-2, 2))
              for _ in range(n)] for _ in range(n)]
        assert linalg.det_ring(m, ONE) == idet(m)


def test_minors_examples():
    one2, zero2 = LaurentPoly.one(2), LaurentPoly.zero(2)
    ident = [[one2, zero2], [zero2, one2]]
    assert linalg.minors(ident, 2, one2) == [one2]
    t1 = LaurentPoly.var(1, 0)
    assert linalg.minors([[t1 - 1]], 1, LaurentPoly.one(1)) == [t1 - 1]
    t1_2 = LaurentPoly.var(2, 0)
    mm = [[t1_2, one2], [one2, LaurentPoly.var(2, 0, -1)]]
    got = linalg.minors(mm, 2, one2)
    assert len(got) == 1 and got[0].is_zero


def test_minors_lex_ordering():
    # 3x3 integer matrix; 2x2 minors must come in lex (rows, cols) order
    m = m_of([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    got = linalg.minors(m, 2, ONE)
    expected = []
    for rset in itertools.combinations(range(3), 2):
        for cset in itertools.combinations(range(3), 2):
            sub = [[m[i][j] for j in cset] for i in rset]
            expected.append(sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])
    assert got == expected


def test_minors_out_of_range():
    with pytest.raises(PreconditionError):
        linalg.minors(m_of([[1, 2]]), 2, ONE)
    with pytest.raises(PreconditionError):
        linalg.minors(m_of([[1]]), 0, ONE)


# -- Smith normal form ----------------------------------------------------


def idet(m):
    """Leibniz permutation-sum determinant."""
    n = len(m)
    total = 0
    for p in itertools.permutations(range(n)):
        sgn = 1
        for a in range(n):
            for b in range(a + 1, n):
                if p[a] > p[b]:
                    sgn = -sgn
        prod = 1
        for r in range(n):
            prod *= m[r][p[r]]
        total += sgn * prod
    return total


def imatmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_snf_examples():
    u, d, v = linalg.smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    u, d, v = linalg.smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    u, d, v = linalg.smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]


def test_snf_properties(rng):
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        e = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        u, d, v = linalg.smith_normal_form(e)
        assert imatmul(imatmul(u, e), v) == d
        assert abs(idet(u)) == 1 and abs(idet(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        if rows == cols:
            prod = 1
            for x in diag:
                prod *= x
            assert abs(prod) == abs(idet(e))
