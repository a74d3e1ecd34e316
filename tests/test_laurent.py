from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit.errors import PreconditionError
from hodgekit.laurent import LaurentPoly
from hodgekit.scalars import Scalar
from hodgekit.univariate import RatFunc


def t(rank, j, power=1):
    return LaurentPoly.var(rank, j, power)


def test_eval_examples():
    assert (t(1, 0) - 1).eval_character([Scalar.one()]).is_zero
    p = t(2, 0) * t(2, 1, -1)
    got = p.eval_character([Scalar.rational(2), Scalar.gaussian(1, 1)])
    assert got == Scalar.gaussian(1, -1)
    assert LaurentPoly.one(3).eval_character(
        [Scalar.i(), Scalar.rational(5), -Scalar.one()]) == Scalar.one()


def test_eval_rejects_zero_components():
    with pytest.raises(PreconditionError):
        t(1, 0).eval_character([Scalar.zero()])


coeffs = st.integers(min_value=-4, max_value=4)
exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
polys = st.dictionaries(exps, coeffs, max_size=4).map(
    lambda d: LaurentPoly(2, {k: Scalar.rational(v) for k, v in d.items()}))
chars = st.tuples(st.sampled_from([1, -1, 2, 3]), st.sampled_from([1, 2, -2]))


@given(polys, polys, chars)
@settings(max_examples=60)
def test_eval_is_ring_hom(p, q, rho):
    rho = [Scalar.rational(r) for r in rho]
    assert (p * q).eval_character(rho) == \
        p.eval_character(rho) * q.eval_character(rho)
    assert (p + q).eval_character(rho) == \
        p.eval_character(rho) + q.eval_character(rho)


def test_no_stored_zero_coefficients():
    p = t(1, 0) - t(1, 0)
    assert p.is_zero and not p.terms
    q = LaurentPoly(1, {(0,): Scalar.zero(), (1,): Scalar.one()})
    assert list(q.terms) == [(1,)]


def test_units_are_monomials():
    assert t(2, 0).is_unit
    assert (t(2, 0) * t(2, 1, -3)).is_unit
    assert not (t(2, 0) + 1).is_unit
    assert not LaurentPoly.zero(2).is_unit


def test_substitute_monomials():
    # t1 -> 1 * s^0, t2 -> s  (kills t1 - 1 identically)
    p = t(2, 0) - 1
    image = p.substitute_monomials([Scalar.one(), Scalar.one()], [[0], [1]])
    assert image.is_zero
    q = t(2, 0) * t(2, 1)
    image = q.substitute_monomials([Scalar.i(), Scalar.rational(2)], [[1], [1]])
    assert image == LaurentPoly(1, {(2,): Scalar.gaussian(0, 2)})


def test_substitution_rejects_zero_translation():
    with pytest.raises(PreconditionError):
        t(1, 0).substitute_monomials([Scalar.zero()], [[1]])


def test_rank_mismatch_rejected():
    with pytest.raises(PreconditionError):
        t(1, 0) + t(2, 0)


# -- rank 1 over K(s): the chart coordinate z of families on the disk ----


S = RatFunc.var()
ONE = RatFunc([1])


def zs(terms):
    """A rank-1 polynomial in z over K(s) from {z-exponent: RatFunc}."""
    return LaurentPoly(1, {(k,): c for k, c in terms.items()})


def test_ratfunc_coefficients_add_and_cancel():
    p = zs({1: S, 0: ONE / (S + 1)})
    q = zs({1: -S, -1: ONE})
    assert (p + q).terms == {(0,): ONE / (S + 1), (-1,): ONE}
    assert (p - p).is_zero and not (p - p).terms
    assert (zs({0: S, 2: ONE}) + zs({0: -S})) == zs({2: ONE})
    assert zs({0: S - S}) == zs({}) == LaurentPoly.zero(1)
    # no term is ever stored with a zero coefficient
    assert all(not c.is_zero for c in (p + q).terms.values())


def test_ratfunc_coefficients_multiply():
    p = zs({1: S, 0: ONE})
    q = zs({-1: ONE / S, 0: -ONE})
    # (s z + 1)(1/(s z) - 1) = 1 - s z + 1/(s z) - 1 = -s z + 1/(s z)
    assert p * q == zs({1: -S, -1: ONE / S})
    # (z - s)(z + s) = z^2 - s^2: the z^1 terms cancel
    assert zs({1: ONE, 0: -S}) * zs({1: ONE, 0: S}) == zs({2: ONE, 0: -(S * S)})
    assert (p * LaurentPoly.zero(1)).is_zero
    assert p.scale(S + 1) == zs({1: S * S + S, 0: S + 1})
    assert p.scale(0).is_zero and p.scale(1) == p


def test_ratfunc_coefficients_eq_and_hash():
    # equal values in different construction orders: equal and equally hashed
    a = zs({2: S / (S + 1), -1: ONE})
    b = zs({-1: ONE, 2: (S * S) / (S * S + S)})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a + LaurentPoly.zero(1)}) == 1
    assert a != zs({2: S / (S + 1)}) and a != a.shift((1,))
    assert LaurentPoly(1, {(0,): Scalar.one()}) == 1


def test_constants_equal_and_hash_like_their_coefficient():
    for c in (0, 2):
        assert len({LaurentPoly.constant(1, c), c, Fraction(c),
                    Scalar.rational(c)}) == 1
    p = LaurentPoly.constant(1, 2)
    assert p == Scalar.rational(2) and p == Fraction(2) and p != t(1, 0) + 1
    assert p + Fraction(1, 2) == Fraction(1, 2) + p == Fraction(5, 2)
    assert p * Scalar.i() == Scalar.i() * p == Scalar.gaussian(0, 2)


def test_coeff_at_an_exponent():
    p = zs({3: S, -2: ONE + S})
    assert p.coeff((3,)) == S and p.coeff((-2,)) == ONE + S
    # a missing term reads as the zero handed in, None by default
    assert p.coeff((0,)) is None
    assert p.coeff((0,), RatFunc([])).is_zero
    q = t(2, 0) * t(2, 1, -1) * 5
    assert q.coeff((1, -1), Scalar.zero()) == Scalar.rational(5)
    assert q.coeff((0, 0), Scalar.zero()).is_zero


def test_shift_multiplies_by_a_monomial():
    p = zs({3: S, -2: ONE + S})
    assert p.shift((2,)) == zs({5: S, 0: ONE + S})
    assert p.shift((2,)) == p * LaurentPoly.monomial(1, (2,), 1)
    assert p.shift((-3,)).shift((3,)) == p and p.shift((0,)) == p
    assert LaurentPoly.zero(1).shift((4,)).is_zero
    q = t(2, 0) - t(2, 1)
    assert q.shift((1, -1)) == q * t(2, 0) * t(2, 1, -1)
