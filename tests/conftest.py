import random
from types import SimpleNamespace

import pytest

from hodgekit import linalg
from hodgekit.laurent import LaurentPoly
from hodgekit.scalars import Scalar
from hodgekit.univariate import RatFunc


def sc(x):
    return Scalar.rational(x)


def gauss(a, b):
    return Scalar.gaussian(a, b)


def lzg(terms):
    """Gaussian-coefficient Laurent in z from {exp: rational-ish}."""
    return LaurentPoly(1, {(k,): v for k, v in terms.items()})


def lzs(terms):
    """K(s)-coefficient Laurent in z from {exp: RatFunc | int}."""
    return LaurentPoly(1, {(k,): v if isinstance(v, RatFunc) else RatFunc([v])
                           for k, v in terms.items()})


def h0_by_linear_system(bundle, m):
    """Test oracle: h0 of B(m) by linear algebra over the coefficient field.

    ``bundle`` is anything with ``n``, ``entries`` (rank-1 ``LaurentPoly``
    in z over ``Scalar`` or ``RatFunc``) and ``det_exp``: a ``P1Bundle``,
    or a Langton ``DiskFamily`` for its generic fiber over K(s).
    Unknowns are the coefficients of a polynomial vector v of degree at
    most D; each row kills one coefficient of z^k, k > m, in one component
    of G v.  The cap D = max(0, (n-1)*dmax - det_exp + m) comes from
    Cramer's rule (v = G^(-1) (G v) and the adjugate raises degrees by at
    most (n-1)*dmax), so no section is missed.
    """
    n, g = bundle.n, bundle.entries
    dmax = max(max(x.terms)[0] for row in g for x in row if not x.is_zero)
    cap = max(0, (n - 1) * dmax - bundle.det_exp + m)
    rows = []
    for i in range(n):
        for k in range(m + 1, dmax + cap + 1):
            row = {j * (cap + 1) + k - ge: c
                   for j in range(n) for (ge,), c in g[i][j].terms.items()
                   if 0 <= k - ge <= cap}
            if row:
                rows.append(row)
    return n * (cap + 1) - linalg.sparse_rank(rows)


def basis_vec(i, n):
    return [Scalar.one() if j == i else Scalar.zero() for j in range(n)]


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def svar():
    return RatFunc.var()


@pytest.fixture
def special_reductions(monkeypatch):
    """Record the special fibers (s = 0) of Langton families as ``fibers``
    and their column reductions by ``birkhoff._column_reduce`` as
    ``reduced``.  A bundle's reduction starts from its own entry objects,
    so a reduction belongs to the recorded fiber whose first entry it
    holds; other reductions, such as that of the fiber at s = 1 that
    certifies the generic fiber or the reductions in w = 1/z that invert a
    frame, are not recorded."""
    from hodgekit import birkhoff, langton
    seen = SimpleNamespace(fibers=[], reduced=[])
    real_fiber = langton.DiskFamily.fiber_at
    real_reduce = birkhoff._column_reduce

    def fiber_at(family, s0):
        bundle = real_fiber(family, s0)
        if s0 == 0:
            seen.fibers.append(bundle)
        return bundle

    def column_reduce(cols, dd, one, zero):
        seen.reduced.extend(b for b in seen.fibers
                            if cols[0][0] is b.entries[0][0])
        return real_reduce(cols, dd, one, zero)
    monkeypatch.setattr(langton.DiskFamily, "fiber_at", fiber_at)
    monkeypatch.setattr(birkhoff, "_column_reduce", column_reduce)
    return seen


@pytest.fixture
def forbid_inverse(monkeypatch):
    """Make ``linalg.invert`` and ``linalg.mat_mul`` raise once the test
    calls ``forbid()``; the originals stay on the returned namespace, for
    the invert-and-multiply oracles."""
    from hodgekit import linalg
    real = SimpleNamespace(invert=linalg.invert, mat_mul=linalg.mat_mul)

    def refuse(*args):
        raise AssertionError("inverted or multiplied instead of solving")

    def forbid():
        monkeypatch.setattr(linalg, "invert", refuse)
        monkeypatch.setattr(linalg, "mat_mul", refuse)
    real.forbid = forbid
    return real
