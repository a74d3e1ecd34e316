import json

import pytest

from hodgekit import jsonio
from hodgekit.errors import PreconditionError
from hodgekit.laurent import LaurentPoly
from hodgekit.rees import FilteredSpace, build_rees
from hodgekit.scalars import Scalar
from hodgekit.twistor import QuaternionicSpace, twistor_bundle
from hodgekit.univariate import RatFunc

from conftest import basis_vec, lzs


def roundtrip(value, to_json, from_json):
    encoded = json.loads(json.dumps(to_json(value)))
    return from_json(encoded)


def test_scalar_roundtrips():
    for s in (Scalar.zero(), Scalar.i(), Scalar.gaussian("2/3", "-5/7"),
              Scalar.rational(-4)):
        assert roundtrip(s, jsonio.scalar_to_json, jsonio.scalar_from_json) == s
    z = Scalar.zeta(8) + 2
    back = roundtrip(z, jsonio.scalar_to_json, jsonio.scalar_from_json)
    assert back == z and back.order == 8


def test_laurent_roundtrip():
    p = (LaurentPoly.var(2, 0) - 1) * LaurentPoly.var(2, 1, -2)
    back = roundtrip(p, jsonio.laurent_to_json,
                     lambda d: jsonio.laurent_from_json(2, d))
    assert back == p


def test_bundle_roundtrips():
    b = twistor_bundle(QuaternionicSpace.standard(1))
    back = roundtrip(b, jsonio.bundle_to_json, jsonio.bundle_from_json)
    assert back.n == b.n and back.entries == b.entries
    # bundles are over Q(i): the only coefficient field a bundle reads
    wire = jsonio.bundle_to_json(b)
    assert wire["field"] == "gaussian"
    for tag in ("ratfun_s", "rational"):
        with pytest.raises(PreconditionError,
                           match=f"^unknown coefficient field '{tag}'$"):
            jsonio.bundle_from_json(dict(wire, field=tag))

    s = RatFunc.var()
    fam_entries = [[lzs({1: RatFunc([1])}), lzs({0: s})],
                   [LaurentPoly.zero(1), lzs({-1: RatFunc([1])})]]
    from hodgekit.langton import DiskFamily
    fam = DiskFamily(fam_entries)
    back = roundtrip(fam, jsonio.family_to_json, jsonio.family_from_json)
    assert back.entries == fam.entries


def test_filtration_and_rees_roundtrips():
    fs = FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                           1: [basis_vec(0, 2)]})
    back = roundtrip(fs, jsonio.filtration_to_json, jsonio.filtration_from_json)
    assert back.equal(fs)
    rm = build_rees(fs)
    back = roundtrip(rm, jsonio.rees_to_json, jsonio.rees_from_json)
    assert back == rm
