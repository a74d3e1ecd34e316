from fractions import Fraction
from math import gcd
import random

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import scalars
from hodgekit.errors import InternalInvariantError, PreconditionError
from hodgekit.scalars import Scalar, conj, format_scalar, parse_scalar

small_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
gaussians = st.builds(Scalar.gaussian, small_fracs, small_fracs)

# wide operands: large numerators, denominators that share factors, and
# zero / purely real / purely imaginary values
wide_fracs = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))
wide_gaussians = st.one_of(
    st.builds(Scalar.gaussian, wide_fracs, wide_fracs),
    st.builds(Scalar.gaussian, st.just(0), wide_fracs),
    st.builds(Scalar.gaussian, wide_fracs, st.just(0)))


# -- Fraction-pair reference for gaussian arithmetic

def ref(x):
    return (x.re, x.im)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inv(x):
    nrm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / nrm, -x[1] / nrm)


def assert_canonical(s):
    a, b, d = s._a, s._b, s._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    assert type(s.re) is Fraction and type(s.im) is Fraction


def test_conj_examples():
    assert conj(Scalar.i()) == -Scalar.i()
    assert conj(Scalar.rational(Fraction(2, 3))) == Scalar.rational(Fraction(2, 3))
    z8 = Scalar.zeta(8)
    assert conj(z8) == z8 ** 7


@given(gaussians)
def test_conj_involution(a):
    assert a.conj().conj() == a


@given(gaussians, gaussians)
@settings(max_examples=60)
def test_conj_ring_hom(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero:
        assert (a / b) * b == a


def test_conj_is_automorphism_on_cyclotomics():
    z = Scalar.zeta(12)
    a = z + 3 * z.inv() - Scalar.rational(Fraction(1, 7)) * z ** 2
    b = z ** 5 - 2
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


def test_division_by_zero():
    with pytest.raises(PreconditionError):
        Scalar.one() / Scalar.zero()
    with pytest.raises(PreconditionError):
        Scalar.zeta(8).inv() * Scalar.cyclotomic(8, [0, 0, 0, 0]).inv()


def test_gaussian_embeds_into_order_four():
    i = Scalar.i()
    z4 = Scalar.zeta(4)
    assert z4 == i
    assert z4 + i == Scalar.cyclotomic(4, [0, 2])
    # and into any order divisible by 4
    z8 = Scalar.zeta(8)
    assert z8 ** 2 == i
    assert (i * z8) == z8 ** 3


def test_mixed_orders_rejected():
    with pytest.raises(PreconditionError):
        Scalar.zeta(3) + Scalar.zeta(8)
    with pytest.raises(PreconditionError):
        Scalar.i() + Scalar.zeta(3)
    # rationals embed everywhere
    assert Scalar.rational(2) + Scalar.zeta(3) == Scalar.zeta(3) + 2


def test_cyclotomic_inverse_and_power():
    for n in (1, 2, 3, 4, 5, 8, 12):
        z = Scalar.zeta(n)
        assert z ** n == Scalar.one()
        assert z * z.inv() == Scalar.one()
        assert (z * z.conj()) == Scalar.one()  # |zeta| = 1 exactly


def test_order_cap(monkeypatch):
    monkeypatch.setattr(scalars, "_MAX_CYCLOTOMIC_ORDER", 10)
    with pytest.raises(PreconditionError):
        Scalar.zeta(12)
    monkeypatch.undo()
    assert Scalar.zeta(12) ** 12 == Scalar.one()
    for order in (0, -1):
        with pytest.raises(PreconditionError):
            Scalar.zeta(order)


def test_cyclotomic_checks_raise_without_assert():
    # explicit raises, so they hold under python -O as well
    with pytest.raises(PreconditionError):
        scalars.totient(0)
    with pytest.raises(InternalInvariantError):
        scalars._cyclo_inverse(5, [Fraction(0)] * 4)


@given(gaussians)
@settings(max_examples=60)
def test_format_parse_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize("text,re_,im_", [
    ("0", 0, 0),
    ("i", 0, 1),
    ("-i", 0, -1),
    ("2/3", Fraction(2, 3), 0),
    ("1/2*i", 0, Fraction(1, 2)),
    ("-5", -5, 0),
    ("1/2+2/3*i", Fraction(1, 2), Fraction(2, 3)),
    ("1/2-2/3*i", Fraction(1, 2), Fraction(-2, 3)),
])
def test_parse_fixtures(text, re_, im_):
    assert parse_scalar(text) == Scalar.gaussian(re_, im_)


def test_parse_garbage():
    for bad in ("", "x", "1//2", "2i3"):
        with pytest.raises(PreconditionError):
            parse_scalar(bad)


# -- Fraction reference for the text form

def ref_format(re_, im_):
    if re_ == 0 and im_ == 0:
        return "0"
    parts = [str(re_)] if re_ != 0 else []
    if im_ != 0:
        parts.append(("+" if parts and im_ > 0 else "") + f"{im_}*i")
    return "".join(parts)


def ref_parse(text):
    """(re, im) as Fractions: the real part before the sign that starts
    the imaginary part, whitespace dropped."""
    body = "".join(text.split())
    if not body.endswith("i"):
        return Fraction(body), Fraction(0)
    body = body[:-1].rstrip("*")
    cut = max(body.rfind("+"), body.rfind("-"))
    re_ = Fraction(body[:cut]) if cut > 0 else Fraction(0)
    sign, coeff = (body[cut], body[cut + 1:]) if cut >= 0 else ("+", body)
    im_ = Fraction(coeff) if coeff else Fraction(1)
    return re_, -im_ if sign == "-" else im_


def random_text(rng):
    """A gaussian in text form: random signs, non-reduced ratios, bare
    i, omitted parts and whitespace wherever the grammar allows it."""
    def gap():
        return rng.choice(["", "", " ", "  ", "\t", " \n"])

    def ratio():
        n, d, k = rng.randint(0, 12), rng.randint(1, 9), rng.randint(1, 4)
        return f"{n * k}/{d * k}" if rng.random() < 0.6 else str(n)
    real = rng.choice(["", "-", "+"]) + ratio()
    sign = rng.choice(["+", "-"])
    coeff = rng.choice(["", "", ratio() + gap() + "*" + gap()])
    shape = rng.randrange(3)
    if shape == 0:
        return gap() + real + gap()
    if shape == 1:
        return gap() + rng.choice(["", sign]) + gap() + coeff + "i" + gap()
    return gap() + real + gap() + sign + gap() + coeff + "i" + gap()


def test_text_codec_matches_fraction_reference():
    rng = random.Random(6133)
    texts = ["0", "-0", "i", "-i", "+i", "3/4*i", "-3/4*i", "4/6", "-4/6",
             "4/6+6/9*i", "1 - i", "0+0*i", "0-3*i", "5+0*i", " 7/1 ",
             "2/4 *\ti", "\n+ 8/12 * i"]
    texts += [random_text(rng) for _ in range(2000)]
    for text in texts:
        re_, im_ = ref_parse(text)
        value = parse_scalar(text)
        assert_canonical(value)
        assert (value.re, value.im) == (re_, im_), text
        assert format_scalar(value) == ref_format(re_, im_), text
        assert parse_scalar(format_scalar(value)) == value
    for text in ("1/0", "3/0*i", "1+2/0*i", "-0/0"):
        with pytest.raises(PreconditionError,
                           match=r"^zero denominator in scalar '"):
            parse_scalar(text)
    for text in ("1/", "1 / 2", "ii", "1+*i", "2*", "i+1", "1+2", "--1"):
        with pytest.raises(PreconditionError, match=r"^cannot parse scalar '"):
            parse_scalar(text)


@given(wide_gaussians, wide_gaussians)
@settings(max_examples=300)
def test_gaussian_ops_match_fraction_reference(x, y):
    rx, ry = ref(x), ref(y)
    cases = [
        (x + y, (rx[0] + ry[0], rx[1] + ry[1])),
        (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
        (x * y, ref_mul(rx, ry)),
        (-x, (-rx[0], -rx[1])),
        (x.conj(), (rx[0], -rx[1])),
    ]
    if y.is_zero:
        with pytest.raises(PreconditionError):
            x / y
        with pytest.raises(PreconditionError):
            y.inv()
    else:
        cases += [(x / y, ref_mul(rx, ref_inv(ry))), (y.inv(), ref_inv(ry))]
    for got, want in cases:
        assert_canonical(got)
        assert ref(got) == want


@given(wide_gaussians, wide_gaussians)
@settings(max_examples=100)
def test_equal_values_compare_and_hash_equal(x, y):
    for built in ((x + y) - y, (x - y) + y, Scalar.gaussian(x.re, x.im)):
        assert built == x and hash(built) == hash(x)
    if not y.is_zero:
        back = (x * y) / y
        assert back == x and hash(back) == hash(x)


def test_equal_values_from_different_constructors():
    pairs = [
        (Scalar.gaussian(Fraction(2, 4), 0), Scalar.rational(Fraction(1, 2))),
        (Scalar.gaussian("6/4", "-3/2"), Scalar.gaussian(Fraction(3, 2), Fraction(-3, 2))),
        (Scalar.i(), Scalar.zeta(4)),
        (Scalar.cyclotomic(8, [Fraction(1, 2), 0, 0, 0]), Scalar.rational(Fraction(1, 2))),
        (Scalar.rational(0), Scalar.gaussian(0, 0) * Scalar.i()),
        (Scalar.one(), Scalar(re=1)),
        (Scalar.zero(), Scalar()),
    ]
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)
    assert Scalar.rational(Fraction(6, 4)) == Fraction(3, 2)
    assert Scalar.rational(3) == 3 and Scalar.gaussian(3, 1) != 3
    for k in (-7, 0, 1, True, False):
        got = Scalar.rational(k)
        assert_canonical(got)
        assert got == Scalar.rational(Fraction(int(k)))
        assert got.key() == Scalar(re=k).key()
    assert_canonical(Scalar.gaussian(Fraction(2, 4), Fraction(-5, 10)))


def counting(monkeypatch, name):
    """Count the calls of the Scalar method ``name``; returns the counter."""
    calls = [0]
    real = getattr(Scalar, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(Scalar, name, counted)
    return calls


def test_power_stops_squaring_after_the_last_bit(monkeypatch):
    x = Scalar.gaussian(Fraction(2, 3), 1)
    want = Scalar.one()
    for k in range(1, 40):
        want = want * x
        products = counting(monkeypatch, "__mul__")
        assert x ** k == want
        assert products[0] == bin(k).count("1") + k.bit_length() - 1
        monkeypatch.undo()


def test_one_over_x_inverts_once(monkeypatch):
    x = Scalar.cyclotomic(5, [1, 2, 0, 0])
    want = x.inv()
    for y in (x, Scalar.gaussian(3, -4)):
        inverses = counting(monkeypatch, "inv")
        divisions = counting(monkeypatch, "__truediv__")
        assert (1 / y) * y == Scalar.one()
        assert (inverses[0], divisions[0]) == (1, 0)
        monkeypatch.undo()
    assert 1 / x == want
    assert 3 / x == Scalar.rational(3) * want
