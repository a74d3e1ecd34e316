import json

import pytest

from hodgekit import cli, linalg
from hodgekit.errors import PreconditionError
from hodgekit.rees import (FilteredSpace, ReesModule, build_rees, fiber,
                           griffiths_check, recover_filtration, rees_p1)
from hodgekit.scalars import Scalar
from hodgekit.selftest import random_filtration, random_scalar
from hodgekit.laurent import LaurentPoly

from conftest import basis_vec, sc

ONE, ZERO = Scalar.one(), Scalar.zero()


def flag2():
    return FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                             1: [basis_vec(0, 2)]})


def test_build_examples():
    triv = FilteredSpace(3, {0: [basis_vec(i, 3) for i in range(3)]})
    assert build_rees(triv).weights == (0, 0, 0)
    assert build_rees(flag2()).weights == (1, 0)
    shifted = FilteredSpace(1, {3: [[ONE]]})
    assert build_rees(shifted).weights == (3,)


def test_validation():
    with pytest.raises(PreconditionError):
        FilteredSpace(2, {0: [basis_vec(0, 2)]})          # not complete
    with pytest.raises(PreconditionError):
        FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                          2: [basis_vec(0, 2)]})          # gap in indices
    with pytest.raises(PreconditionError):
        # not nested: F^1 contains a vector outside F^0... impossible at top,
        # so test a middle step that leaves the smaller one
        FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                          1: [basis_vec(0, 2)],
                          2: [basis_vec(1, 2)]})


def test_nesting_reason_names_the_lowest_failing_step():
    e1, e2 = basis_vec(0, 2), basis_vec(1, 2)
    # two violations, F^2 in F^1 and F^3 in F^2: the lowest one is reported
    with pytest.raises(PreconditionError,
                       match=r"^F\^2 is not contained in F\^1$"):
        FilteredSpace(2, {0: [e1, e2], 1: [e1], 2: [e2], 3: [e1]})
    with pytest.raises(PreconditionError, match="^filtration is not complete: "
                       "first step must be V$"):
        FilteredSpace(2, {0: [e1], 1: [e2]})


def nesting_reason_step_by_step(n, steps):
    """Reference reason by ranks: completeness first, then the lowest p with
    F^(p+1) outside F^p; None for a valid filtration."""
    ps = sorted(steps)
    if linalg.rank(steps[ps[0]]) != n:
        return "filtration is not complete: first step must be V"
    for p in ps[:-1]:
        lower, upper = steps[p], steps[p + 1]
        if linalg.rank(lower + upper) != linalg.rank(lower):
            return f"F^{p + 1} is not contained in F^{p}"
    return None


def test_nesting_reason_matches_step_by_step_check(rng):
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        p_min = rng.randint(-2, 2)
        steps = {}
        for k in range(rng.randint(1, 5)):
            count = n if k == 0 and rng.random() < 0.8 else rng.randint(0, n)
            steps[p_min + k] = [[sc(rng.randint(-1, 1)) for _ in range(n)]
                                for _ in range(count)]
        want = nesting_reason_step_by_step(n, steps)
        seen.add(want is None)
        if want is None:
            FilteredSpace(n, steps)
        else:
            with pytest.raises(PreconditionError) as info:
                FilteredSpace(n, steps)
            assert str(info.value) == want
    assert seen == {True, False}


def rees_by_refinement(fs):
    """Reference adapted basis: a separate echelon refinement over the
    reduced bases of the steps, from the top step down."""
    chosen, weights, span = [], [], {}
    for p in range(fs.p_max, fs.p_min - 1, -1):
        for v in fs.basis(p):
            if len(linalg.echelon([linalg._sparse_row(v)], span)) > len(chosen):
                chosen.append(tuple(v))
                weights.append(p)
    return ReesModule(basis=tuple(chosen), weights=tuple(weights))


def test_build_rees_matches_separate_refinement(rng):
    for _ in range(200):
        fs = random_filtration(rng, max_dim=6, max_len=5)
        assert build_rees(fs) == rees_by_refinement(fs)


def test_build_rees_runs_no_elimination(rng, monkeypatch):
    cases = [random_filtration(rng, max_dim=5, max_len=4) for _ in range(20)]
    wants = [rees_by_refinement(fs) for fs in cases]

    def refuse(*args):
        raise AssertionError("build_rees eliminated again")
    monkeypatch.setattr(linalg, "echelon", refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    for fs, want in zip(cases, wants):
        assert build_rees(fs) == want


def test_recover_examples():
    triv = FilteredSpace(3, {0: [basis_vec(i, 3) for i in range(3)]})
    assert recover_filtration(build_rees(triv)).equal(triv)
    fs = flag2()
    rec = recover_filtration(build_rees(fs))
    assert rec.equal(fs)
    assert rec.dim(1) == 1 and rec.contains(1, basis_vec(0, 2))


def test_roundtrip_randomized(rng):
    for _ in range(40):
        fs = random_filtration(rng, max_dim=6, max_len=5)
        rm = build_rees(fs)
        assert recover_filtration(rm).equal(fs)
        assert sum(fiber(rm, 0).values()) == fiber(rm, 1) == fs.n


def test_fiber():
    rm = build_rees(flag2())
    assert fiber(rm, 0) == {1: 1, 0: 1}
    assert fiber(rm, 1) == 2
    triv = FilteredSpace(3, {0: [basis_vec(i, 3) for i in range(3)]})
    assert fiber(build_rees(triv), 0) == {0: 3}
    with pytest.raises(PreconditionError):
        fiber(rm, 2)


def test_griffiths_examples():
    fs = flag2()
    zero_mat = [[ZERO] * 2 for _ in range(2)]
    assert griffiths_check(fs, [zero_mat])
    drop_one = [[ZERO, ZERO], [ONE, ZERO]]   # e1 -> e2, one step down
    assert griffiths_check(fs, [drop_one])
    fs3 = FilteredSpace(3, {0: [basis_vec(i, 3) for i in range(3)],
                            1: [basis_vec(0, 3), basis_vec(1, 3)],
                            2: [basis_vec(0, 3)]})
    drop_two = [[ZERO] * 3 for _ in range(3)]
    drop_two[2][0] = ONE                     # e1 -> e3 lands outside F^1
    assert not griffiths_check(fs3, [drop_two])


def test_griffiths_monotone_under_coarsening(rng):
    # dropping an intermediate step can only weaken the condition
    for _ in range(10):
        fs = random_filtration(rng, max_dim=5, max_len=4)
        if fs.p_max - fs.p_min < 2:
            continue
        mats = [[[sc(rng.randint(-1, 1)) for _ in range(fs.n)]
                 for _ in range(fs.n)]]
        if not griffiths_check(fs, mats):
            continue
        p_drop = rng.randint(fs.p_min + 1, fs.p_max - 1)
        steps = {}
        shift = 0
        for p in fs.steps_range():
            if p == p_drop:
                shift = 1
                continue
            steps[p - shift] = fs.basis(p)
        coarser = FilteredSpace(fs.n, steps)
        assert griffiths_check(coarser, mats)


def test_rees_p1_orientation_sign_audit():
    # one-dimensional space with F-weight p and Fbar-weight q must split (p+q)
    for p, q in [(1, 0), (0, 1), (2, 3), (-1, 2)]:
        lo_p, lo_q = min(p, 0), min(q, 0)
        fs = FilteredSpace(1, {pp: [[ONE]] for pp in range(lo_p, p + 1)})
        gs = FilteredSpace(1, {qq: [[ONE]] for qq in range(lo_q, q + 1)})
        _, report = rees_p1(fs, gs)
        assert report.splitting == (p + q,)
        assert report.pure and report.weight == p + q


def test_rees_p1_purity_cases():
    transverse = FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                                   1: [basis_vec(1, 2)]})
    _, rep = rees_p1(flag2(), transverse)
    assert rep.splitting == (1, 1) and rep.pure and rep.weight == 1
    _, rep = rees_p1(flag2(), flag2())
    assert rep.splitting == (2, 0) and not rep.pure and rep.weight is None


def test_rees_p1_weight_sum(rng):
    for _ in range(10):
        fs = random_filtration(rng, max_dim=4, max_len=3)
        gs = random_filtration(rng, max_dim=4, max_len=3)
        if fs.n != gs.n:
            continue
        _, rep = rees_p1(fs, gs)
        expect = sum(p * (fs.dim(p) - fs.dim(p + 1))
                     for p in fs.steps_range())
        expect += sum(q * (gs.dim(q) - gs.dim(q + 1))
                      for q in gs.steps_range())
        assert sum(rep.splitting) == expect


def test_rees_p1_with_conjugation_pairing():
    # pairing v -> P conj(v); a gaussian line conjugated back should still
    # produce the pure weight p+q
    i = Scalar.i()
    fs = FilteredSpace(2, {0: [[ONE, ZERO], [ZERO, ONE]], 1: [[ONE, i]]})
    gsbar = FilteredSpace(2, {0: [[ONE, ZERO], [ZERO, ONE]], 1: [[ONE, -i]]})
    ident = [[ONE, ZERO], [ZERO, ONE]]
    _, rep = rees_p1(fs, gsbar, pairing=ident)
    # conj maps the Fbar line back onto the F line: degenerate case (2, 0)
    assert rep.splitting == (2, 0)
    _, rep2 = rees_p1(fs, gsbar)
    assert rep2.splitting == (1, 1)


def glue_by_inverse(fs, gs, pairing, real):
    """The rees_p1 transition matrix as U^(-1) V, by inverting U."""
    rf, rb = build_rees(fs), build_rees(gs)
    n = fs.n
    u = [list(v) for v in rb.basis]
    if pairing is not None:
        u = [[sum((pairing[i][k] * v[k].conj() for k in range(n)), ZERO)
              for i in range(n)] for v in u]
    c = real.mat_mul(real.invert(linalg.transpose(u), ONE, ZERO),
                     linalg.transpose([list(v) for v in rf.basis]))
    return [[LaurentPoly(1, {(-(rb.weights[i] + rf.weights[j]),): c[i][j]})
             for j in range(n)] for i in range(n)]


def test_rees_p1_solves_instead_of_inverting(rng, forbid_inverse):
    cases = []
    while len(cases) < 12:
        fs = random_filtration(rng, max_dim=4, max_len=3)
        gs = random_filtration(rng, max_dim=4, max_len=3)
        if fs.n != gs.n:
            continue
        pairing = None
        if len(cases) % 2:
            pairing = [[random_scalar(rng, 2) for _ in range(fs.n)]
                       for _ in range(fs.n)]
            if linalg.rank(pairing) < fs.n:
                continue
        cases.append((fs, gs, pairing, glue_by_inverse(fs, gs, pairing,
                                                       forbid_inverse)))
    forbid_inverse.forbid()
    for fs, gs, pairing, want in cases:
        bundle, _ = rees_p1(fs, gs, pairing)
        assert bundle.entries == want


def test_rees_glue_singular_pairing_exits_1(capsys):
    filt = {"dim": 2, "steps": [{"p": 0, "basis": [["1", "0"], ["0", "1"]]},
                                {"p": 1, "basis": [["1", "0"]]}]}
    data = {"F": filt, "Fbar": filt, "pairing": [["1", "1"], ["2", "2"]]}
    assert cli.main(["rees", "glue", "--inline", json.dumps(data)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "precondition", "reason": "matrix is singular"}}


def seeded_glue_cases(rng, count):
    """(F, Fbar, pairing) triples of equal dimension; every other one has a
    random invertible antilinear pairing."""
    cases = []
    while len(cases) < count:
        fs = random_filtration(rng, max_dim=5, max_len=4)
        gs = random_filtration(rng, max_dim=5, max_len=4)
        if fs.n != gs.n:
            continue
        pairing = None
        if len(cases) % 2:
            pairing = [[random_scalar(rng, 2) for _ in range(fs.n)]
                       for _ in range(fs.n)]
            if linalg.rank(pairing) < fs.n:
                continue
        cases.append((fs, gs, pairing))
    return cases


def test_rees_p1_hands_over_the_determinant(rng, monkeypatch):
    cases = seeded_glue_cases(rng, 16)
    real = linalg.det_ring
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)
    monkeypatch.setattr(linalg, "det_ring", counted)
    bundles = [rees_p1(fs, gs, pairing)[0] for fs, gs, pairing in cases]
    # the gluing expands no determinant, and a singular one still refuses
    filt = FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                             1: [basis_vec(0, 2)]})
    with pytest.raises(PreconditionError, match="^matrix is singular$"):
        rees_p1(filt, filt, pairing=[[ONE, ONE], [sc(2), sc(2)]])
    assert calls == []
    # det_ring as the oracle: det G is a unit at the exponent handed in
    for (fs, gs, _), bundle in zip(cases, bundles):
        det = real(bundle.entries, LaurentPoly.one(1))
        assert det.is_unit and not det.is_zero
        assert next(iter(det.terms))[0] == bundle.det_exp
        assert bundle.det_exp == -(sum(build_rees(fs).weights)
                                   + sum(build_rees(gs).weights))
