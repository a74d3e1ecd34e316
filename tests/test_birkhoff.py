import random

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import birkhoff, linalg
from hodgekit.birkhoff import (P1Bundle, factorization_certificate, h0_twist,
                               invert_unimodular, section_basis, splitting_type)
from hodgekit.errors import InternalInvariantError, PreconditionError
from hodgekit.langton import DiskFamily, generic_splitting
from hodgekit.scalars import Scalar
from hodgekit.selftest import random_unimodular_z
from hodgekit.laurent import LaurentPoly
from hodgekit.univariate import RatFunc

from conftest import h0_by_linear_system, lzg, lzs

Z0 = LaurentPoly.zero(1)


def diag_entries(exps, one=1):
    n = len(exps)
    return [[LaurentPoly(1, {(-a,): one}) if i == j else LaurentPoly.zero(1)
             for j in range(n)] for i, a in enumerate(exps)]


def diag_bundle(exps):
    return P1Bundle(diag_entries(exps))


def assert_sections(b, m, sections):
    """Every vector is polynomial and a section of B(m) (no component of
    G v has a z-power above m), and the vectors are independent."""
    coeffs = []
    for v in sections:
        assert all(x.is_zero or min(x.terms)[0] >= 0 for x in v)
        for (gv,) in linalg.mat_mul(b.entries, [[x] for x in v]):
            assert gv.is_zero or max(gv.terms)[0] <= m
        coeffs.append({(i, e): c for i, x in enumerate(v)
                       for (e,), c in x.terms.items()})
    assert linalg.sparse_rank(coeffs) == len(sections)


def test_h0_examples():
    ident = diag_bundle([0, 0, 0])
    assert h0_twist(ident, 0) == 3
    assert h0_twist(diag_bundle([1]), 0) == 2
    assert h0_twist(diag_bundle([-1]), 0) == 0


def test_splitting_examples():
    assert splitting_type(diag_bundle([0, 0])) == [0, 0]
    assert splitting_type(diag_bundle([2, -1])) == [2, -1]
    upper = P1Bundle([[lzg({1: 1}), lzg({0: 1})], [Z0, lzg({-1: 1})]])
    assert splitting_type(upper) == [0, 0]


def test_splitting_by_explicit_factorization_oracle():
    # independent route: right-multiply [[z, 1], [0, 1/z]] by the z-chart
    # invertible [[0, 1], [1, -z]]; the product lives in the 1/z chart and
    # has constant determinant, so the bundle is trivial
    g = [[lzg({1: 1}), lzg({0: 1})], [Z0, lzg({-1: 1})]]
    c = [[Z0, lzg({0: 1})], [lzg({0: 1}), lzg({1: -1})]]
    cdet = linalg.det_ring(c, LaurentPoly.one(1))
    assert cdet == lzg({0: -1})                       # unimodular over F[z]
    a = linalg.mat_mul(g, c)
    for row in a:
        for x in row:
            assert x.is_zero or max(x.terms)[0] <= 0      # lives in F[1/z]
    adet = linalg.det_ring(a, LaurentPoly.one(1))
    assert adet == lzg({0: -1})                       # unimodular there too
    # hence G = A * I * C^(-1): trivial splitting, matching the engine
    assert splitting_type(P1Bundle(g)) == [0, 0]


def test_non_unit_determinant_rejected():
    with pytest.raises(PreconditionError):
        P1Bundle([[lzg({0: 1, 1: 1})]])
    with pytest.raises(PreconditionError):
        P1Bundle([[lzg({1: 1}), Z0], [Z0, Z0]])


def test_determinant_sum_identity(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        exps = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        left = random_unimodular_z(rng, n, chart=-1)
        right = random_unimodular_z(rng, n, chart=+1)
        g = linalg.mat_mul(linalg.mat_mul(left, diag_bundle(exps).entries), right)
        b = P1Bundle(g)
        assert sum(splitting_type(b)) == -b.det_exp


def test_chart_multiplication_invariance(rng):
    for _ in range(15):
        n = rng.randint(1, 3)
        exps = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        b = diag_bundle(exps)
        left = random_unimodular_z(rng, n, chart=-1)
        right = random_unimodular_z(rng, n, chart=+1)
        g = linalg.mat_mul(linalg.mat_mul(left, b.entries), right)
        assert splitting_type(P1Bundle(g)) == exps


def test_h0_cross_consistency(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        exps = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        left = random_unimodular_z(rng, n, chart=-1)
        right = random_unimodular_z(rng, n, chart=+1)
        g = linalg.mat_mul(linalg.mat_mul(left, diag_bundle(exps).entries), right)
        b = P1Bundle(g)
        for m in range(-3, 4):
            assert h0_twist(b, m) == h0_by_linear_system(b, m)


def test_certificate_trivial_diagonal():
    b = diag_bundle([1, 1])
    a, d, c = factorization_certificate(b)
    assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(a, d), c), b.entries)
    assert [d[i][i] for i in range(2)] == [lzg({-1: 1}), lzg({-1: 1})]


def test_certificate_worked_example():
    g = P1Bundle([[lzg({1: 1}), lzg({0: 1})], [Z0, lzg({-1: 1})]])
    a, d, c = factorization_certificate(g)
    assert all(d[i][i] == lzg({0: 1}) for i in range(2))  # D = identity
    assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(a, d), c), g.entries)


def test_certificate_construct_then_recover(rng):
    for _ in range(15):
        n = rng.randint(2, 3)
        exps = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        left = random_unimodular_z(rng, n, chart=-1)
        right = random_unimodular_z(rng, n, chart=+1)
        g = linalg.mat_mul(linalg.mat_mul(left, diag_bundle(exps).entries), right)
        b = P1Bundle(g)
        a, d, c = factorization_certificate(b)
        got = sorted((-next(iter(d[i][i].terms))[0] for i in range(n)),
                     reverse=True)
        assert got == exps
        assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(a, d), c), b.entries)
        # chart conditions: A over polynomials in 1/z, C over polynomials in z
        for row in a:
            for x in row:
                assert x.is_zero or max(x.terms)[0] <= 0
        for row in c:
            for x in row:
                assert x.is_zero or min(x.terms)[0] >= 0


def test_section_basis_gives_sections():
    # chart changes of diagonal bundles; at m = -3..2 every returned vector
    # v must be a section of B(m): no component of G v has a z-power above m
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([2, 3])
        exps = [rng.randint(-2, 2) for _ in range(n)]
        left = random_unimodular_z(rng, n, chart=-1, ops=4)
        right = random_unimodular_z(rng, n, chart=+1, ops=4)
        g = linalg.mat_mul(linalg.mat_mul(left, diag_bundle(exps).entries), right)
        b = P1Bundle(g)
        for m in range(-3, 3):
            sections = section_basis(b, m)
            assert len(sections) == h0_by_linear_system(b, m)
            assert_sections(b, m, sections)


def test_invert_unimodular_roundtrip(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        u = random_unimodular_z(rng, n, chart=+1)
        uinv = invert_unimodular(u)
        prod = linalg.mat_mul(u, uinv)
        ident = [[LaurentPoly.one(1) if i == j else Z0 for j in range(n)]
                 for i in range(n)]
        assert linalg.mat_eq(prod, ident)


def test_ratfun_field_bundles(svar):
    # over K(s) the column reduction runs on a Langton family's generic fiber
    one = RatFunc([1])
    z0 = LaurentPoly.zero(1)
    fam = DiskFamily([[lzs({1: one}), lzs({0: svar})], [z0, lzs({-1: one})]])
    assert generic_splitting(fam) == [0, 0]
    fam2 = DiskFamily([[lzs({-2: one}), z0], [z0, lzs({1: one})]])
    assert generic_splitting(fam2) == [2, -1]


def test_rank_zero_rejected():
    with pytest.raises(PreconditionError, match="rank >= 1"):
        P1Bundle([])


# -- column reduction against hidden splitting types and the h0 oracle ----


def _coefficient(rng, ks=False):
    c = Scalar.rational(rng.choice([-3, -2, -1, 1, 2, 3]))
    if not ks:
        return c
    return RatFunc([c, Scalar.rational(rng.randint(-2, 2))])   # c + k*s


def elementary_chain(rng, n, chart, count, ks=False):
    """Product of ``count`` factors I + c z^(chart*e) E_ij with e <= 2:
    invertible over K[z] (chart=+1) or over K[1/z] (chart=-1), with K = Q
    or, when ``ks``, K(s)."""
    mat = diag_entries([0] * n, RatFunc([1]) if ks else 1)
    if n == 1:
        return mat
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        e = chart * rng.randint(0, 2)
        add = LaurentPoly(1, {(e,): _coefficient(rng, ks)})
        mat[i] = [x + add * y for x, y in zip(mat[i], mat[j])]
    return mat


def hidden_type_matrix(rng, exps, count, ks=False):
    """A(1/z) * diag(z^(-a)) * C(z) with the splitting type ``exps``."""
    n = len(exps)
    left = elementary_chain(rng, n, -1, count, ks)
    right = elementary_chain(rng, n, +1, count, ks)
    one = RatFunc([1]) if ks else 1
    return linalg.mat_mul(linalg.mat_mul(left, diag_entries(exps, one)), right)


def hidden_type_bundle(rng, exps, count):
    return P1Bundle(hidden_type_matrix(rng, exps, count))


def hidden_type_family(rng, exps, count):
    """A Langton family whose generic fiber over K(s) has the splitting
    type ``exps``: the matrix of ``hidden_type_matrix`` over K(s), with
    coefficients c + k*s regular at s = 0 and determinant z^(-sum a)."""
    return DiskFamily(hidden_type_matrix(rng, exps, count, ks=True))


def assert_type_and_h0_window(b, exps, oracle=True):
    a = sorted(exps, reverse=True)
    assert splitting_type(b) == a
    # h0 jumps only inside this window; outside it the counts are 0 or affine
    for m in range(-a[0] - 1, -a[-1] + 2):
        h0 = sum(max(0, x + m + 1) for x in a)
        if oracle:
            assert h0_by_linear_system(b, m) == h0, m
        assert h0_twist(b, m) == h0, m
        sections = section_basis(b, m)
        assert len(sections) == h0, m
        assert_sections(b, m, sections)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_column_reduction_recovers_hidden_type(n):
    rng = random.Random(1000 + n)
    for _ in range(3):
        exps = [rng.randint(-2, 2) for _ in range(n)]
        b = hidden_type_bundle(rng, exps, count=rng.randint(3, 5))
        assert_type_and_h0_window(b, exps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_column_reduction_over_ratfunc(n):
    rng = random.Random(2000 + n)
    for _ in range(3):
        exps = [rng.randint(-2, 2) for _ in range(n)]
        fam = hidden_type_family(rng, exps, count=3)
        assert generic_splitting(fam) == sorted(exps, reverse=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_h0_over_ratfunc_matches_linear_system(n):
    # the generic splitting type against h0 by linear algebra over K(s),
    # on the window where h0 can jump; that window pins the type down
    rng = random.Random(2100 + n)
    for _ in range(3):
        exps = [rng.randint(-2, 2) for _ in range(n)]
        fam = hidden_type_family(rng, exps, count=rng.randint(1, 3))
        a = generic_splitting(fam)
        assert a == sorted(exps, reverse=True)
        for m in range(-a[0] - 1, -a[-1] + 2):
            assert h0_by_linear_system(fam, m) == \
                sum(max(0, x + m + 1) for x in a), m


def _no_h0_system(*args):
    raise AssertionError("a certificate must not build an h0 system")


@pytest.mark.parametrize("n", range(1, 7), ids=[f"qi-{n}" for n in range(1, 7)])
def test_certificate_for_hidden_type(n, monkeypatch):
    monkeypatch.setattr(birkhoff, "section_basis", _no_h0_system)
    monkeypatch.setattr(birkhoff, "h0_twist", _no_h0_system)
    rng = random.Random(3000 + n)
    for _ in range(3):
        exps = [rng.randint(-2, 2) for _ in range(n)]
        b = hidden_type_bundle(rng, exps, count=rng.randint(3, 5))
        a, d, c = factorization_certificate(b)
        assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(a, d), c), b.entries)
        # A over polynomials in 1/z, C over polynomials in z
        assert all(x.is_zero or max(x.terms)[0] <= 0 for row in a for x in row)
        assert all(x.is_zero or min(x.terms)[0] >= 0 for row in c for x in row)
        # D = diag(z^(-a_j)), the exponents in any order
        for i in range(n):
            for j in range(n):
                assert d[i][j].is_zero != (i == j)
            assert d[i][i].is_unit and d[i][i].coeff(max(d[i][i].terms)) == 1
        got = sorted((-max(d[i][i].terms)[0] for i in range(n)), reverse=True)
        assert got == splitting_type(b) == sorted(exps, reverse=True)


def test_column_reduction_large_degree_excess():
    # alternating z^2 shears make the column degrees grow far past the
    # determinant degree; the reduction must walk all the way back down
    n, exps = 3, [2, 0, -1]
    one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
    right = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(6):
        i, j = (k % n, (k + 1) % n)
        shear = LaurentPoly(1, {(2,): k + 1})
        right[i] = [x + shear * y for x, y in zip(right[i], right[j])]
    g = linalg.mat_mul(diag_bundle(exps).entries, right)
    b = P1Bundle(g)
    col_degrees = [max(max(g[i][j].terms)[0] for i in range(n)
                       if not g[i][j].is_zero)
                   for j in range(n)]
    assert sum(col_degrees) - b.det_exp >= 10
    assert_type_and_h0_window(b, exps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 4),
       count=st.integers(0, 4))
def test_type_invariant_under_chart_change(seed, n, count):
    rng = random.Random(seed)
    b = hidden_type_bundle(rng, [rng.randint(-3, 3) for _ in range(n)], count)
    left = elementary_chain(rng, n, -1, count)
    right = elementary_chain(rng, n, +1, count)
    moved = linalg.mat_mul(linalg.mat_mul(left, b.entries), right)
    assert splitting_type(P1Bundle(moved)) == splitting_type(b)


# -- inverses from the column reduction, against the adjugate -------------


def _adjugate(mat):
    """Test oracle: the adjugate, by n^2 cofactor determinants."""
    n = len(mat)
    one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
    if n == 1:
        return [[one]]
    adj = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[mat[r][c] for c in range(n) if c != j]
                   for r in range(n) if r != i]
            m = linalg.det_ring(sub, one)
            adj[j][i] = m if (i + j) % 2 == 0 else -m
    return adj


def adjugate_inverse(mat):
    det = linalg.det_ring(mat, LaurentPoly.one(1))
    dinv = det.coeff((0,)).inv()
    return [[x.scale(dinv) for x in row] for row in _adjugate(mat)]


def unit_constant_det(rng, n, charts):
    """A product of elementary chains, one per chart in ``charts`` (+1 for
    K[z], -1 for K[1/z]), times a constant diagonal matrix."""
    mat = [[LaurentPoly.constant(1, _coefficient(rng)) if i == j
            else LaurentPoly.zero(1) for j in range(n)] for i in range(n)]
    for chart in charts:
        mat = linalg.mat_mul(mat, elementary_chain(rng, n, chart,
                                                   rng.randint(3, 5)))
    return mat


CHARTS = [(+1,), (-1,), (+1, -1), (-1, +1), (-1, +1, -1)]


@pytest.mark.parametrize("n", range(1, 7), ids=[f"qi-{n}" for n in range(1, 7)])
def test_inverses_match_the_adjugate(n):
    rng = random.Random(4000 + n)
    for charts in CHARTS:
        for _ in range(2):
            g = unit_constant_det(rng, n, charts)
            want = adjugate_inverse(g)
            assert linalg.mat_eq(invert_unimodular(g), want)
            if charts == (-1,):
                # a frame over K[1/z]: the reduction in w = 1/z alone
                assert linalg.mat_eq(birkhoff._inverse_frame(g), want)


def test_inverses_reject_non_unit_determinants():
    for mat in ([[lzg({1: 1})]], [[lzg({0: 1}), Z0], [Z0, lzg({-2: 3})]]):
        with pytest.raises(PreconditionError, match="not a unit constant"):
            invert_unimodular(mat)
    for mat in ([[lzg({0: 1, 1: 1})]], [[Z0]],
                [[lzg({0: 1}), lzg({1: 1})], [lzg({0: 1}), lzg({1: 1})]]):
        with pytest.raises(PreconditionError, match="determinant is not a unit"):
            invert_unimodular(mat)
    # a frame over K[1/z] whose determinant 1 + 1/z is not constant
    with pytest.raises(InternalInvariantError):
        birkhoff._inverse_frame([[lzg({-1: 1, 0: 1})]])


def test_invert_unimodular_takes_one_determinant(monkeypatch):
    rng = random.Random(4100)
    n = 10
    g = unit_constant_det(rng, n, (+1, -1, +1))
    calls = []
    real = linalg.det_ring

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)
    monkeypatch.setattr(linalg, "det_ring", counted)
    inv = invert_unimodular(g)
    assert calls == [n]
    one = LaurentPoly.one(1)
    assert linalg.mat_eq(linalg.mat_mul(g, inv), linalg.identity(n, one, Z0))


def test_one_reduction_serves_every_question(monkeypatch):
    calls = []
    real = birkhoff._column_reduce

    def counted(cols, dd, one, zero):
        calls.append(dd)
        return real(cols, dd, one, zero)
    monkeypatch.setattr(birkhoff, "_column_reduce", counted)
    exps = [2, 0, -1, -1]
    b = hidden_type_bundle(random.Random(4200), exps, count=5)
    assert_type_and_h0_window(b, exps, oracle=False)
    a, d, c = factorization_certificate(b)
    assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(a, d), c), b.entries)
    assert calls == [b.det_exp]
