"""The shared polynomial layer, and RatFunc shortcuts against the general
gcd normalisation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit.errors import PreconditionError
from hodgekit.laurent import LaurentPoly
from hodgekit.scalars import Scalar
from hodgekit.univariate import RatFunc, padd, pdivmod, pgcd, pmul, pneg, ptrim

ONE = Scalar.one()

small = st.integers(-4, 4)
coeffs = st.builds(Scalar.gaussian, small, small)
polys = st.lists(coeffs, max_size=4)
dens = st.one_of(
    st.lists(coeffs, min_size=1, max_size=1),        # constant, often not 1
    st.lists(coeffs, min_size=2, max_size=3)).filter(lambda d: ptrim(d))
ratfuncs = st.builds(RatFunc, polys, dens)
fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
cyclos = st.builds(lambda cs: Scalar.cyclotomic(5, cs),
                   st.lists(st.sampled_from([Fraction(0), Fraction(-1, 2), Fraction(3)]),
                            min_size=4, max_size=4))


def slow(num, den):
    """Reference: always divide out the monic gcd, then make den monic."""
    out = object.__new__(RatFunc)
    num, den = ptrim(num), ptrim(den)
    if not num:
        out.num, out.den = (), (ONE,)
        return out
    g = pgcd(num, den)
    num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    lead = den[-1].inv()
    out.num = tuple(c * lead for c in num)
    out.den = tuple(c * lead for c in den)
    return out


def assert_same(got, want):
    assert got.num == want.num and got.den == want.den
    assert got == want and hash(got) == hash(want)


@given(polys, dens)
@settings(max_examples=150)
def test_constructor_matches_gcd_route(num, den):
    assert_same(RatFunc(num, den), slow(num, den))


@given(ratfuncs, ratfuncs)
@settings(max_examples=150)
def test_field_ops_match_gcd_route(a, b):
    an, ad, bn, bd = list(a.num), list(a.den), list(b.num), list(b.den)
    assert_same(a + b, slow(padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd)))
    assert_same(a - b, slow(padd(pmul(an, bd), pneg(pmul(bn, ad))), pmul(ad, bd)))
    assert_same(a * b, slow(pmul(an, bn), pmul(ad, bd)))
    assert_same(-a, slow(pneg(an), ad))
    if not b.is_zero:
        assert_same(a / b, slow(pmul(an, bd), pmul(ad, bn)))


def test_constant_denominator_examples():
    two = Scalar.rational(2)
    half = RatFunc([2, 4], [2])
    assert half.num == (ONE, two) and half.den == (ONE,)
    assert half == RatFunc([1, 2])
    x = RatFunc([1, 1], [0, 3])                        # (1 + s) / (3 s)
    assert x.den == (Scalar.zero(), ONE)
    for y in (half, x, RatFunc([]), RatFunc([3], [6])):
        assert_same(half + y, slow(padd(pmul([ONE, two], list(y.den)),
                                        list(y.num)), list(y.den)))
        assert_same(half * y, slow(pmul([ONE, two], list(y.num)), list(y.den)))
    assert_same(half - half, slow([], [ONE]))
    assert (half * RatFunc([])).is_zero and (half * RatFunc([])).den == (ONE,)


def test_eval():
    s = RatFunc.var()
    f = (s * s + RatFunc([1])) / (s - RatFunc([2]))      # (s^2 + 1) / (s - 2)
    assert f.eval(0) == Scalar.rational(-1) / 2
    assert f.eval(3) == Scalar.rational(10)
    assert f.eval(Scalar.i()).is_zero
    assert RatFunc([]).eval(5).is_zero
    with pytest.raises(PreconditionError):
        f.eval(2)


# the polynomial layer runs on Fraction coordinates (cyclotomic reduction)
# and on Scalar coefficients (RatFunc) alike
@given(st.sampled_from([fracs, coeffs]).flatmap(
    lambda c: st.tuples(st.lists(c, max_size=6), st.lists(c, max_size=4))))
@settings(max_examples=200)
def test_polynomial_layer_on_both_coefficient_kinds(ab):
    a, b = ab
    with pytest.raises(PreconditionError):
        pdivmod(a, [])
    if not ptrim(b):
        with pytest.raises(PreconditionError):
            pdivmod(a, b)
        return
    q, r = pdivmod(a, b)
    assert ptrim(a) == padd(pmul(q, b), r) and len(r) < len(ptrim(b))
    assert q == ptrim(q) and r == ptrim(r)
    g = pgcd(a, b)
    assert g[-1] == 1
    assert not pdivmod(a, g)[1] and not pdivmod(b, g)[1]


@given(st.one_of(coeffs, cyclos), ratfuncs, st.integers(-3, 3))
@settings(max_examples=100)
def test_truth_value_and_powers(x, f, k):
    assert bool(x) == (not x.is_zero)
    for y, one in ((x, ONE), (f, RatFunc.const(1))):
        if k < 0 and not y:
            with pytest.raises(PreconditionError):
                y ** k
            continue
        base, want = (y if k >= 0 else y.inv()), one
        for _ in range(abs(k)):
            want = want * base
        assert y ** k == want


def test_laurent_powers_stay_non_negative():
    p = LaurentPoly.var(2, 0) + LaurentPoly.var(2, 1, -1) * 3
    assert p ** 0 == LaurentPoly.one(2) and p ** 3 == p * p * p
    with pytest.raises(TypeError):
        p ** -1


def test_empty_denominator_is_the_zero_polynomial():
    # only den=None means 1; [] and [0] are the zero polynomial
    for den in ([], [0], [Scalar.zero(), 0]):
        with pytest.raises(PreconditionError, match="zero denominator"):
            RatFunc([1], den)
    assert RatFunc([2]) == RatFunc([2], None) == RatFunc([4], [2]) == 2


def test_hash_agrees_with_equality():
    # the equal forms of one value: ints, Fractions, gaussian and cyclotomic
    # Scalars, constant RatFuncs, and constant LaurentPolys over each
    half_i = Scalar.gaussian(Fraction(1, 2), 1)
    forms = [
        [0, Fraction(0), Scalar.zero(), Scalar.cyclotomic(5, [0] * 4),
         RatFunc([]), RatFunc([0], [3])],
        [1, Fraction(1), Scalar.one(), Scalar.zeta(3, 3), RatFunc([1]),
         RatFunc([2], [2])],
        [-2, Fraction(-2), Scalar.rational(-2), Scalar.cyclotomic(3, [-2, 0]),
         RatFunc([-2]), RatFunc([Fraction(-2)])],
        [Fraction(3, 4), Scalar.rational(Fraction(3, 4)),
         Scalar.cyclotomic(8, [Fraction(3, 4), 0, 0, 0]), RatFunc([3], [4]),
         RatFunc([Fraction(3, 4)])],
        [Scalar.i(), Scalar.zeta(4), Scalar.zeta(8, 2), Scalar.zeta(12, 3),
         RatFunc([Scalar.i()]), RatFunc([Scalar.zeta(4)]),
         RatFunc([Scalar.zeta(8, 2)], [1])],
        [half_i, Scalar.zeta(4) + Fraction(1, 2), Scalar.zeta(12, 3) + Fraction(1, 2),
         RatFunc([half_i]), RatFunc([Scalar.gaussian(1, 2)], [2])],
    ]
    laurent = [[LaurentPoly(1, {(0,): x}) for x in group] for group in forms]
    for groups in (forms, laurent):
        for group in groups:
            assert all(x == y for x in group for y in group)
            assert len(set(group)) == 1, group
        assert len(set(x for group in groups for x in group)) == len(groups)
    # a value of Q(i) written in Q(zeta_n) hashes as itself, other values
    # of Q(zeta_n) do not collapse onto Q(i)
    assert Scalar.zeta(8) != Scalar.zeta(8, 3)
    assert len({Scalar.zeta(8), Scalar.zeta(8, 3), Scalar.i()}) == 3
