import random
from types import SimpleNamespace

import pytest

from hodgekit.scalars import Scalar
from hodgekit.univariate import LaurentZ, RatFunc, RATFUNC_S, SCALARS


def sc(x):
    return Scalar.rational(x)


def gauss(a, b):
    return Scalar.gaussian(a, b)


def lzg(terms):
    """Gaussian-coefficient Laurent in z from {exp: rational-ish}."""
    return LaurentZ(SCALARS, {k: v if isinstance(v, Scalar) else Scalar.rational(v)
                              for k, v in terms.items()})


def lzs(terms):
    """ratfun_s-coefficient Laurent in z from {exp: RatFunc | int}."""
    return LaurentZ(RATFUNC_S, {k: v if isinstance(v, RatFunc) else RatFunc([v])
                                for k, v in terms.items()})


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
    ``reduced``; reductions of other bundles, such as the fiber at s = 1
    that certifies the generic fiber, are not recorded."""
    from hodgekit import birkhoff, langton
    seen = SimpleNamespace(fibers=[], reduced=[])
    real_special = langton.DiskFamily.special_bundle
    real_reduce = birkhoff._column_reduce

    def special_bundle(family):
        bundle = real_special(family)
        seen.fibers.append(bundle)
        return bundle

    def column_reduce(bundle):
        if any(bundle is b for b in seen.fibers):
            seen.reduced.append(bundle)
        return real_reduce(bundle)
    monkeypatch.setattr(langton.DiskFamily, "special_bundle", special_bundle)
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
