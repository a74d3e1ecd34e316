import json
import pathlib
import random
import sys

import pytest

from hodgekit import cli, jsonio, langton, linalg
from hodgekit.birkhoff import splitting_type
from hodgekit.errors import PreconditionError
from hodgekit.langton import (DiskFamily, generic_splitting, langton_reduce,
                              langton_step, special_splitting, to_ks)
from hodgekit.laurent import LaurentPoly
from hodgekit.scalars import Scalar, pmul
from hodgekit.univariate import RatFunc

from conftest import h0_by_linear_system, lzs

ONE = RatFunc([1])
Z0 = LaurentPoly.zero(1)


def fixture_gap2(svar):
    return DiskFamily([[lzs({1: ONE}), lzs({0: svar})],
                       [Z0, lzs({-1: ONE})]])


def fixture_gap4(svar):
    return DiskFamily([[lzs({2: ONE}), lzs({0: svar})],
                       [Z0, lzs({-2: ONE})]])


def test_family_validation(svar):
    # pole at s = 0 in a coefficient
    with pytest.raises(PreconditionError):
        DiskFamily([[lzs({0: ONE / svar})]])
    # determinant not a z-unit
    with pytest.raises(PreconditionError):
        DiskFamily([[lzs({0: ONE, 1: ONE})]])
    # determinant degenerates at s = 0
    with pytest.raises(PreconditionError):
        DiskFamily([[lzs({0: svar})]])


def test_generic_and_special_fixtures(svar):
    fam = fixture_gap2(svar)
    assert generic_splitting(fam) == [0, 0]
    assert special_splitting(fam) == [1, -1]
    diag = DiskFamily([[lzs({-1: ONE}), Z0], [Z0, lzs({1: ONE})]])
    assert generic_splitting(diag) == [1, -1]
    assert special_splitting(diag) == [1, -1]
    ident = DiskFamily([[lzs({0: ONE}), Z0], [Z0, lzs({0: ONE})]])
    assert generic_splitting(ident) == [0, 0]
    fam4 = fixture_gap4(svar)
    assert special_splitting(fam4) == [2, -2]
    assert generic_splitting(fam4) == [0, 0]
    # s-independent semistable family: generic equals special
    flat = DiskFamily([[lzs({0: ONE}), lzs({1: ONE})], [Z0, lzs({0: ONE})]])
    assert generic_splitting(flat) == special_splitting(flat)


def test_step_worked_example(svar):
    fam = fixture_gap2(svar)
    new, cert, record = langton_step(fam)
    want = [[lzs({1: ONE}), lzs({0: ONE})], [Z0, lzs({-1: ONE})]]
    assert linalg.mat_eq(new.entries, want)
    assert special_splitting(new) == [0, 0]
    assert record.special_type == (1, -1)
    assert cert.verify(fam, new)
    assert not cert.verify(fam, fam)


def test_step_preconditions(svar):
    balanced = DiskFamily([[lzs({0: ONE}), Z0], [Z0, lzs({0: ONE})]])
    with pytest.raises(PreconditionError):
        langton_step(balanced)
    unbalanced_generic = DiskFamily([[lzs({-1: ONE}), Z0], [Z0, lzs({1: ONE})]])
    with pytest.raises(PreconditionError):
        langton_step(unbalanced_generic)


def test_reduce_fixtures(svar):
    fam = fixture_gap2(svar)
    out, trail, certs = langton_reduce(fam)
    assert len(certs) == 1
    assert [r.special_type for r in trail] == [(1, -1), (0, 0)]
    assert generic_splitting(out) == [0, 0]
    # re-running on the output is a no-op
    out2, trail2, certs2 = langton_reduce(out)
    assert certs2 == [] and trail2[-1].special_type == (0, 0)

    fam4 = fixture_gap4(svar)
    out4, trail4, certs4 = langton_reduce(fam4)
    types = [r.special_type for r in trail4]
    assert types[0] == (2, -2) and types[-1] == (0, 0)
    for a, b in zip(types, types[1:]):
        assert b < a                      # strict lexicographic decrease
        assert (b[0] - b[-1]) <= (a[0] - a[-1])


def test_reduce_rejects_unbalanced_generic(svar):
    bad = DiskFamily([[lzs({-1: ONE}), lzs({0: svar})], [Z0, lzs({1: ONE})]])
    with pytest.raises(PreconditionError):
        langton_reduce(bad)


def random_gap2_family(rng, n, svar):
    while True:
        base = [0] * n
        i, j = rng.sample(range(n), 2)
        base[i] += 1
        base[j] -= 1
        ent = [[Z0 for _ in range(n)] for _ in range(n)]
        for k in range(n):
            ent[k][k] = lzs({-base[k]: ONE})
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.8:
                    c = rng.randint(-2, 2)
                    if c:
                        ent[a][b] = ent[a][b] + lzs(
                            {rng.randint(-1, 1): svar * RatFunc([c])})
        try:
            fam = DiskFamily(ent)
        except PreconditionError:
            continue
        gen = generic_splitting(fam)
        if any(e != gen[0] for e in gen):
            continue
        sp = special_splitting(fam)
        if sp[0] - sp[-1] == 2:
            return fam


def test_generic_preserved_randomized(rng, svar):
    for trial in range(15):
        n = rng.choice([2, 3])
        fam = random_gap2_family(rng, n, svar)
        before = generic_splitting(fam)
        out, trail, certs = langton_reduce(fam)
        assert generic_splitting(out) == before
        assert trail[-1].special_type == tuple(before)
        types = [r.special_type for r in trail]
        for a, b in zip(types, types[1:]):
            assert b < a
        # every certificate re-multiplies (checked inside, but re-verify one)
        if certs:
            step_in, _, _ = fam, None, None
            new, cert, _ = langton_step(fam)
            assert cert.verify(fam, new)


def count_generic_calls(monkeypatch):
    calls = []
    real = langton.generic_splitting

    def counted(family):
        calls.append(family)
        return real(family)
    monkeypatch.setattr(langton, "generic_splitting", counted)
    return calls


def test_probe_certifies_without_generic_type(svar, monkeypatch):
    calls = count_generic_calls(monkeypatch)
    assert langton._generic_balanced(fixture_gap2(svar))
    out, trail, certs = langton_reduce(fixture_gap4(svar))
    assert calls == [] and len(certs) >= 1


def test_reduce_computes_each_special_type_once(svar, monkeypatch,
                                                special_reductions):
    # only special fibers count: the generic check reduces the fiber at s = 1
    types, probes = [], []
    reductions = special_reductions.reduced
    real_type, real_balanced = langton.splitting_type, langton._generic_balanced

    def counted_type(bundle):
        if any(bundle is b for b in special_reductions.fibers):
            types.append(bundle)
        return real_type(bundle)

    def counted_balanced(family):
        probes.append(family)
        return real_balanced(family)
    monkeypatch.setattr(langton, "splitting_type", counted_type)
    monkeypatch.setattr(langton, "_generic_balanced", counted_balanced)
    out, trail, certs = langton_reduce(fixture_gap2(svar))
    assert [r.special_type for r in trail] == [(1, -1), (0, 0)]
    # one column reduction per family on the trail, one generic check in all;
    # the special types are read off those reductions
    assert len(reductions) == 2 and len(probes) == 1 and types == []
    # chart-changed families have non-diagonal special fibers; their types
    # and factorizations come from the same single reduction
    for seed in range(3):
        fam = chart_changed_family(seed)
        special = fam.special.entries
        assert any(not special[i][j].is_zero
                   for i in range(fam.n) for j in range(fam.n) if i != j)
        del reductions[:], probes[:]
        out, trail, certs = langton_reduce(fam)
        assert len(certs) == 1 and certs[0].verify(fam, out)
        assert len(reductions) == len(trail) == 2 and len(probes) == 1
    assert types == []


def test_special_fiber_is_factored_once_per_family(svar, special_reductions):
    fam = fixture_gap4(svar)
    assert fam.special is fam.special
    assert special_splitting(fam) == [2, -2]
    assert len(special_reductions.reduced) == 1
    new, _, record = langton_step(fam)
    assert record.special_type == (2, -2)
    # each family the step built was reduced once, the result included, so
    # reading the new special type reduces nothing more
    count = len(special_reductions.reduced)
    assert count == len(special_reductions.fibers)
    assert special_splitting(new) == splitting_type(new.special)
    assert len(special_reductions.reduced) == count


def test_reduce_is_deterministic():
    fam = chart_changed_family(5)
    out, trail, certs = langton_reduce(fam)
    out2, trail2, certs2 = langton_reduce(fam)
    assert linalg.mat_eq(out.entries, out2.entries)
    assert out.num == out2.num and out.q == out2.q and out.det == out2.det
    assert trail == trail2 and certs == certs2


def test_failed_probes_fall_back_to_generic_type(svar, monkeypatch):
    # the off-diagonal entry vanishes at every probe point s = 1, 2, 3, so
    # each probed fiber is O(1) + O(-1) and only the K(s) type certifies
    one = RatFunc([1])
    bump = svar * (svar - one) * (svar - 2 * one) * (svar - 3 * one)
    fam = DiskFamily([[lzs({1: ONE}), lzs({0: bump})], [Z0, lzs({-1: ONE})]])
    for s0 in langton._PROBE_POINTS:
        assert special_splitting(fam) == splitting_type(fam.fiber_at(s0))
    calls = count_generic_calls(monkeypatch)
    out, trail, certs = langton_reduce(fam)
    assert calls, "the K(s) fallback must have run"
    assert [r.special_type for r in trail] == [(1, -1), (0, 0)]
    assert len(certs) == 1 and certs[0].verify(fam, out)
    # the precondition path does not change the reduction itself
    monkeypatch.setattr(langton, "_PROBE_POINTS", ())
    out2, trail2, certs2 = langton_reduce(fam)
    assert trail2 == trail and certs2 == certs
    assert linalg.mat_eq(out2.entries, out.entries)


def test_unbalanced_generic_messages(svar):
    # n divides the degree, but the generic type is (1, -1)
    bad = DiskFamily([[lzs({-1: ONE}), lzs({0: svar})], [Z0, lzs({1: ONE})]])
    with pytest.raises(PreconditionError,
                       match=r"^generic fiber not semistable: splitting \(1, -1\)$"):
        langton_reduce(bad)
    # n does not divide the degree: no probe is tried
    odd = DiskFamily([[lzs({-1: ONE}), lzs({0: svar})], [Z0, lzs({0: ONE})]])
    assert not langton._generic_balanced(odd)
    with pytest.raises(PreconditionError,
                       match=r"^generic fiber not semistable: splitting \(1, 0\)$"):
        langton_reduce(odd)
    with pytest.raises(PreconditionError,
                       match=r"^generic fiber is not semistable$"):
        langton_step(bad)


def random_family(rng, n, svar):
    """Degree-0 family; coefficients may vanish at the probe points."""
    one = RatFunc([1])
    factors = [svar, svar - one, svar * (svar - 2 * one),
               (svar - one) * (svar - 3 * one)]
    while True:
        base = [0] * n
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(n), 2)
            base[i] += 1
            base[j] -= 1
        ent = [[Z0 for _ in range(n)] for _ in range(n)]
        for k in range(n):
            ent[k][k] = lzs({-base[k]: ONE})
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.8:
                    c = rng.choice([-2, -1, 1, 2])
                    ent[a][b] = ent[a][b] + lzs(
                        {rng.randint(-1, 1): rng.choice(factors) * RatFunc([c])})
        try:
            return DiskFamily(ent)
        except PreconditionError:
            continue


def test_generic_balanced_matches_generic_type(rng, svar):
    seen = set()
    for _ in range(20):
        fam = random_family(rng, rng.choice([2, 3]), svar)
        want = langton._is_balanced(generic_splitting(fam))
        assert langton._generic_balanced(fam) == want
        seen.add(want)
    assert seen == {True, False}


def elementary_chart(rng, n, zexp, ops=3):
    """Product of ``ops`` elementary row operations, each adding c z^zexp
    times one row to another."""
    m = [[lzs({0: ONE}) if i == j else Z0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if k != i])
        f = lzs({zexp: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))})
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m


def chart_changed_family(seed, n=3, a=2):
    """T = A(1/z) E(z, s) C(z), E = I with E[0][0] = z^a, E[0][1] = c s and
    E[1][1] = z^-a: special type (a, 0, ..., 0, -a), balanced generic fiber."""
    rng = random.Random(seed)
    c = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    e = [[lzs({0: ONE}) if i == j else Z0 for j in range(n)] for i in range(n)]
    e[0][0] = lzs({a: ONE})
    e[0][1] = lzs({0: RatFunc([0, c])})
    e[1][1] = lzs({-a: ONE})
    left, right = elementary_chart(rng, n, -1), elementary_chart(rng, n, 1)
    return DiskFamily(linalg.mat_mul(linalg.mat_mul(left, e), right))


def test_reduce_three_factor_families():
    # seeds 17 and 24 raised InternalInvariantError while sparse_nullspace
    # returned vectors outside the kernel (wrong sections of the special fiber)
    for seed in range(25):
        fam = chart_changed_family(seed)
        assert special_splitting(fam) == [2, 0, -2]
        out, trail, certs = langton_reduce(fam)
        assert trail[-1].special_type == (0, 0, 0)
        assert len(certs) == len(trail) - 1
        # the same steps one at a time: each certificate re-multiplies
        current = fam
        for step, cert in enumerate(certs):
            new, again, record = langton_step(current)
            assert again == cert and record.special_type == trail[step].special_type
            assert cert.verify(current, new)
            current = new
        assert linalg.mat_eq(current.entries, out.entries)


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
# 1/(1+s) in one entry; q = (1+s)(2-s) from two entries; a numerator that
# shares the factor 1+s with q, which the output must cancel
DENOMINATOR_FIXTURES = ("langton_den_one.json", "langton_den_spread.json",
                        "langton_den_cancel.json")


def fixture_family(name):
    return jsonio.family_from_json(
        json.loads((FIXTURES / name).read_text())["family"])


def walk(fam):
    """(before, after, certificate) for each step of the reduction."""
    out, current = [], fam
    while not langton._is_balanced(special_splitting(current)):
        new, cert, _ = langton_step(current)
        out.append((current, new, cert))
        current = new
    return out


def test_families_keep_one_common_denominator():
    q = {name: fixture_family(name).q for name in DENOMINATOR_FIXTURES}
    s = [str(c) for c in q["langton_den_spread.json"]]
    assert [str(c) for c in q["langton_den_one.json"]] == ["1", "1"]
    assert s == [str(c) for c in q["langton_den_cancel.json"]] == ["-2", "-1", "1"]
    for name in DENOMINATOR_FIXTURES:
        data = json.loads((FIXTURES / name).read_text())["family"]
        fam = jsonio.family_from_json(data)
        # the entries view gives back the input, in normal form
        assert jsonio.family_to_json(fam) == data
        for before, after, _ in walk(fam):
            assert after.q == before.q
            assert all(j >= 0 for row in after.num for x in row
                       for _, j in x.terms)
    # q has roots at s = -1 and s = 2: no fiber there
    with pytest.raises(PreconditionError, match="pole at s = 2"):
        fixture_family("langton_den_spread.json").fiber_at(2)


def test_certificates_remultiply_in_both_forms():
    fams = [fixture_family(name) for name in DENOMINATOR_FIXTURES]
    fams += [chart_changed_family(seed) for seed in range(4)]
    for fam in fams:
        steps = walk(fam)
        assert steps
        for before, after, cert in steps:
            assert cert.verify(before, after)
            assert not cert.verify(before, before)
            left = [[to_ks(x) for x in row] for row in cert.left]
            right = [[to_ks(x) for x in row] for row in cert.right]
            assert linalg.mat_eq(
                linalg.mat_mul(linalg.mat_mul(left, before.entries), right),
                after.entries)
            # the same T' over another denominator: (N (3 + s)) / (q (3 + s))
            f = [Scalar.rational(3), Scalar.one()]
            fpoly = langton._s_poly(f)
            rescaled = DiskFamily._trusted(
                [[x * fpoly for x in row] for row in after.num],
                tuple(pmul(list(after.q), f)), after.det * fpoly ** after.n)
            assert rescaled.entries == after.entries
            assert cert.verify(before, rescaled)
            assert not cert.verify(rescaled, rescaled)


def test_step_hands_over_the_determinant(monkeypatch):
    calls = []
    real = linalg.det_ring

    def counted(m, one):
        calls.append(m)
        return real(m, one)
    fams = [fixture_family(name) for name in DENOMINATOR_FIXTURES]
    fams += [chart_changed_family(seed) for seed in range(4)]
    for fam in fams:
        steps = walk(fam)
        for before, after, _ in steps:
            # det_ring only as the oracle: det N', and det T' = det N' / q^n
            assert after.det == real(after.num, LaurentPoly.one(2))
            qn = [Scalar.one()]
            for _ in range(after.n):
                qn = pmul(qn, list(after.q))
            det_t = real(after.entries, LaurentPoly.constant(1, RatFunc([1])))
            assert det_t == to_ks(after.det, tuple(qn))
        # each fiber's determinant is z^det_exp (det N)(s0) / q(s0)^n
        for family in (fam, steps[-1][1]):
            for s0 in (0, 1, 3):
                fiber = family.fiber_at(s0)
                det = real(fiber.entries, LaurentPoly.one(1))
                s = Scalar.rational(s0)
                det_n = sum((c * s ** j for (_, j), c in family.det.terms.items()),
                            Scalar.zero())
                qv = sum((c * s ** j for j, c in enumerate(family.q)),
                         Scalar.zero())
                assert fiber.det_exp == family.det_exp
                assert det == LaurentPoly(1, {(family.det_exp,):
                                              det_n / qv ** family.n})
    monkeypatch.setattr(linalg, "det_ring", counted)
    for fam in fams:
        out, _, certs = langton_reduce(fam)
        assert certs
    # no determinant is expanded once the input family is built
    assert calls == []


def test_generic_splitting_hands_over_the_determinant(monkeypatch, capsys):
    calls = []
    real = linalg.det_ring

    def counted(m, one):
        calls.append(m)
        return real(m, one)
    names = sorted(p.name for p in FIXTURES.glob("langton_*.json"))
    assert len(names) == 5
    for name in names:
        fam = fixture_family(name)
        monkeypatch.setattr(linalg, "det_ring", counted)
        want = generic_splitting(fam)
        monkeypatch.setattr(linalg, "det_ring", real)
        assert calls == []
        # the oracle: h0 by linear algebra over K(s) on the window where it
        # can jump, which pins the type down
        for m in range(-want[0] - 1, -want[-1] + 2):
            assert h0_by_linear_system(fam, m) == \
                sum(max(0, a + m + 1) for a in want), (name, m)
        # through the CLI, only decoding the family expands a determinant
        monkeypatch.setattr(linalg, "det_ring", counted)
        assert cli.main(["langton", "generic", "--input",
                         str(FIXTURES / name)]) == 0
        monkeypatch.setattr(linalg, "det_ring", real)
        assert json.loads(capsys.readouterr().out)["splitting"] == want
        assert len(calls) == 1 and len(calls[0]) == fam.n
        del calls[:]


@pytest.mark.parametrize("name", ["langton_gap2.json", "langton_gap4.json"])
def test_reduce_runs_no_gcd(name, monkeypatch, capsys):
    # every module that binds scalars.pgcd, univariate and langton included
    from hodgekit import scalars
    calls = []
    real = scalars.pgcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)
    patched = [mod for mod in list(sys.modules)
               if mod.startswith("hodgekit")
               and getattr(sys.modules[mod], "pgcd", None) is real]
    for mod in patched:
        monkeypatch.setattr(sys.modules[mod], "pgcd", counted)
    assert {"hodgekit.scalars", "hodgekit.univariate"} <= set(patched)
    assert cli.main(["langton", "reduce", "--input", str(FIXTURES / name)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] >= 1
    assert calls == []
