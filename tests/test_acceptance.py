"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -s` to see the
lines; everything here is exact arithmetic, so every tolerance is zero.
"""

import random
from fractions import Fraction

from hodgekit import linalg
from hodgekit.birkhoff import P1Bundle, splitting_type
from hodgekit.gm_action import (Arc, ProjPoint, WeightedAction, choose_gauge,
                                decompose, membership, newton_limits,
                                orbit_equivalent)
from hodgekit.jump_loci import (CWPresentation, SubtorusParam, betti_dims,
                                contains_subtorus, jump_ideal, jump_ideal_h3)
from hodgekit.lambda_family import (HarmonicLine, PolySection,
                                    classify_invariant_section, from_harmonic,
                                    prefered_section, sigma_prime)
from hodgekit.langton import (DiskFamily, generic_splitting, langton_step,
                              langton_reduce, special_splitting)
from hodgekit.laurent import LaurentPoly
from hodgekit.rees import (FilteredSpace, build_rees, fiber, recover_filtration,
                           rees_p1)
from hodgekit.scalars import Scalar
from hodgekit.selftest import random_filtration, random_unimodular_z
from hodgekit.twistor import (QuaternionicSpace, RealLinearOp,
                              invariant_section_through,
                              invariant_space_real_dimension,
                              quaternionic_sff_space, sigma_section,
                              sphere_combination, stereographic, structure_at,
                              structure_at_closed, twistor_bundle)
from hodgekit.univariate import RatFunc

from conftest import basis_vec, gauss, lzg, lzs, sc


def _report(num, name):
    print(f"[acceptance] criterion {num} ({name}): PASS")


def test_criterion_1_rees_roundtrip():
    rng = random.Random(101)
    failures = 0
    for _ in range(200):
        fs = random_filtration(rng, max_dim=8, max_len=6)
        rm = build_rees(fs)
        if not recover_filtration(rm).equal(fs):
            failures += 1
        if sum(fiber(rm, 0).values()) != fiber(rm, 1):
            failures += 1
    assert failures == 0
    _report(1, "rees roundtrip, 200 randomized filtrations")


def test_criterion_2_purity_as_splitting():
    flag = FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                            1: [basis_vec(0, 2)]})
    transverse = FilteredSpace(2, {0: [basis_vec(0, 2), basis_vec(1, 2)],
                                   1: [basis_vec(1, 2)]})
    _, rep = rees_p1(flag, transverse)
    assert rep.splitting == (1, 1) and rep.pure and rep.weight == 1
    _, rep = rees_p1(flag, flag)
    assert rep.splitting == (2, 0) and not rep.pure
    for r in (1, 2, 3):
        bundle = twistor_bundle(QuaternionicSpace.standard(r))
        assert splitting_type(bundle) == [1] * (2 * r)
    _report(2, "purity via splitting types")


def _pythagorean_lambdas(count):
    out = []
    k = 0
    while len(out) < count:
        u = Fraction(k % 9 - 4, 1 + k % 5)
        v = Fraction((3 * k) % 13 - 6, 1 + (k + 2) % 4)
        lam = Scalar.gaussian(u, v)
        if lam not in out:
            out.append(lam)
        k += 1
    return out


def test_criterion_3_twistor_structure_identities():
    qs = QuaternionicSpace.standard(1)
    ident_i, ident_j, ident_k = qs.op_i(), qs.op_j(), qs.op_k()
    assert structure_at(qs, Scalar.zero()) == ident_i
    assert structure_at(qs, Scalar.one()) == ident_j
    assert structure_at(qs, Scalar.i()) == ident_k
    minus1 = RealLinearOp.mult(-Scalar.one(), qs.dim)
    for lam in _pythagorean_lambdas(100):
        op = sphere_combination(qs, stereographic(lam))
        assert op.compose(op) == minus1
    nonzero = [lam for lam in _pythagorean_lambdas(40) if not lam.is_zero]
    for lam in nonzero[:20]:
        assert structure_at(qs, -(lam.conj().inv())) == -structure_at(qs, lam)
    for lam in _pythagorean_lambdas(20):
        assert structure_at(qs, lam) == structure_at_closed(qs, lam)
    _report(3, "twistor structure identities, exact")


def test_criterion_4_invariant_sections_and_sff():
    rng = random.Random(44)
    trials = 0
    for r in (1, 2, 3):
        qs = QuaternionicSpace.standard(r)
        assert invariant_space_real_dimension(qs) == 4 * r
        per_r = 17 if r < 3 else 16
        for _ in range(per_r):
            v = [gauss(rng.randint(-4, 4), rng.randint(-4, 4))
                 for _ in range(qs.dim)]
            lam0 = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
            sec = invariant_section_through(qs, v, lam0)
            assert sec.value_at(lam0) == v
            assert sigma_section(qs, sec) == sec
            # point evaluation at 0 is a bijection onto W
            sec0 = invariant_section_through(qs, list(sec.a), Scalar.zero())
            assert sec0 == sec
            trials += 1
    assert trials == 50
    for r in (1, 2):
        for rp in (1, 2):
            assert quaternionic_sff_space(r, rp) == 0
    assert quaternionic_sff_space(1, 1, constraints="complex") > 0
    _report(4, "sigma-invariant sections: 4r dimensions, sff vanishing")


def test_criterion_5_rank_one_sigma_identity():
    rng = random.Random(55)

    def random_line(g):
        return HarmonicLine(
            nu=tuple(gauss(rng.randint(-5, 5), rng.randint(-5, 5))
                     for _ in range(g)),
            theta_prime=tuple(gauss(rng.randint(-5, 5), rng.randint(-5, 5))
                              for _ in range(g)))

    # symbolic coefficient identity: sigma'(pref(h, lam)) = pref(h, -1/conj lam)
    # holds iff the four coefficient couplings hold; check both forms
    for _ in range(100):
        h = random_line(rng.randint(1, 5))
        sec = from_harmonic(h)
        assert sec.coeff("beta", 1) == tuple(t.conj() for t in h.theta_prime)
        assert sec.coeff("eta", 1) == tuple(-(n.conj()) for n in h.nu)
        lam = gauss(rng.randint(-4, 4), rng.randint(-4, 4))
        if lam.is_zero:
            lam = Scalar.one()
        assert sigma_prime(prefered_section(h, lam)) == \
            prefered_section(h, -(lam.conj().inv()))

    verdicts = {"prefered": 0, "not-invariant": 0, "invariant-but-not-prefered": 0}
    for trial in range(500):
        g = rng.randint(1, 3)
        h = random_line(g)
        kind = trial % 5
        if kind == 0:
            cand = from_harmonic(h)
            expect = "prefered"
        elif kind in (1, 2):
            base = from_harmonic(h)
            bump = rng.randrange(g)
            b1 = list(base.beta_coeffs[1])
            b1[bump] = b1[bump] + 1
            cand = PolySection(beta_coeffs=(base.beta_coeffs[0], tuple(b1)),
                               eta_coeffs=base.eta_coeffs)
            expect = "not-invariant"
        else:
            deg = rng.randint(2, 4)
            base = from_harmonic(h)
            tail = tuple(tuple(gauss(rng.randint(-2, 2), rng.randint(-2, 2))
                               for _ in range(g)) for _ in range(deg - 2))
            extra = tuple(Scalar.zero() for _ in range(g - 1)) + (Scalar.one(),)
            cand = PolySection(
                beta_coeffs=base.beta_coeffs + tail + (extra,),
                eta_coeffs=base.eta_coeffs)
            assert cand.degree == deg
            expect = "not-invariant"
        verdict, recovered = classify_invariant_section(cand)
        verdicts[verdict] += 1
        assert verdict == expect
        if expect == "prefered":
            assert recovered == h
    assert verdicts["invariant-but-not-prefered"] == 0
    assert verdicts["prefered"] == 100 and verdicts["not-invariant"] == 400
    _report(5, "rank-one sigma' identity and classification, 100 + 500 runs")


def test_criterion_6_jump_loci():
    rng = random.Random(66)

    def int_laurent(rank):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(-2, 2) for _ in range(rank))
            terms[exp] = Scalar.rational(rng.randint(-3, 3))
        return LaurentPoly(rank, terms)

    pool = [Scalar.rational(2), -Scalar.one(), Scalar.i(),
            Scalar.rational(3), Scalar.gaussian(1, 1), Scalar.rational("1/2")]
    for _ in range(500):
        a = rng.randint(1, 2)
        m = rng.randint(1, 3)
        l = rng.randint(1, 3)
        cw = CWPresentation(a=a, m=m, l=l,
                            matrix=tuple(tuple(int_laurent(a) for _ in range(m))
                                         for _ in range(l)))
        rho = [rng.choice(pool) for _ in range(a)]
        h2, h3 = betti_dims(cw, rho)
        assert h2 - h3 == m - l
        for k in range(1, m + 1):
            assert jump_ideal_h3(cw, k + l - m) == jump_ideal(cw, k)

    t1 = LaurentPoly.var(2, 0)
    fixture = CWPresentation(a=2, m=1, l=1, matrix=((t1 - 1,),))
    e_axis = ((0,), (1,))
    assert contains_subtorus(fixture, 1, SubtorusParam(
        zeta=(Scalar.one(), Scalar.one()), exponents=e_axis))
    assert not contains_subtorus(fixture, 1, SubtorusParam(
        zeta=(-Scalar.one(), Scalar.one()), exponents=e_axis))
    assert not contains_subtorus(fixture, 1, SubtorusParam(
        zeta=(Scalar.i(), Scalar.one()), exponents=e_axis))
    _report(6, "jump loci: 500 Euler checks, index identity, containment")


def test_criterion_7_gm_geometry():
    action = WeightedAction([0, 1, 2], Fraction(-1, 2))
    dec = decompose(action)
    assert dec.plus_weights == frozenset({0})
    assert dec.minus_weights == frozenset({1, 2})
    assert membership(action, dec, ProjPoint([1, 1, 0])) == "in_U"
    assert membership(action, dec, ProjPoint([1, 0, 0])) == "in_Y+"
    assert membership(action, dec, ProjPoint([0, 1, 1])) == "in_Y-"

    arc = Arc([lzg({0: 1}), lzg({1: 1}), lzg({3: 1})])
    segs = newton_limits(action, arc)
    breaks = [(s.lo, s.point) for s in segs if s.kind == "breakpoint"]
    assert breaks == [(Fraction(1), ProjPoint([1, 1, 0])),
                      (Fraction(2), ProjPoint([0, 1, 1]))]
    eps, landing = choose_gauge(action, dec, arc)
    assert eps == Fraction(1) and landing == ProjPoint([1, 1, 0])
    assert membership(action, dec, landing) == "in_U"

    # Y+/Y- disjointness asserted per query on a 10x10x10 rational grid
    values = [sc(x) for x in (0, 1, -1, 2, "1/2", "-1/2", 3, "3/2", "2/3", -2)]
    assert len(values) == 10
    upoints = []
    count = 0
    for a in values:
        for b in values:
            for c in values:
                if a.is_zero and b.is_zero and c.is_zero:
                    continue
                pt = ProjPoint([a, b, c])
                status = membership(action, dec, pt)  # asserts disjointness
                count += 1
                if status == "in_U" and len(upoints) < 100:
                    upoints.append(pt)
    assert count == 999
    assert len(upoints) == 100

    rng = random.Random(77)
    for p in upoints:
        assert orbit_equivalent(action, p, p)
    for _ in range(150):
        p, q = rng.choice(upoints), rng.choice(upoints)
        assert orbit_equivalent(action, p, q) == orbit_equivalent(action, q, p)
    classes = []
    for p in upoints[:40]:
        placed = False
        for cls in classes:
            if orbit_equivalent(action, p, cls[0]):
                cls.append(p)
                placed = True
                break
        if not placed:
            classes.append([p])
    for cls in classes:          # transitivity inside each collected class
        for x in cls:
            for y in cls:
                assert orbit_equivalent(action, x, y)
    _report(7, "torus geometry fixture, grid disjointness, orbit laws")


def _random_gap2_family(rng, n, svar):
    one = RatFunc([1])
    z0 = LaurentPoly.zero(1)
    while True:
        base = [0] * n
        i, j = rng.sample(range(n), 2)
        base[i] += 1
        base[j] -= 1
        ent = [[z0 for _ in range(n)] for _ in range(n)]
        for k in range(n):
            ent[k][k] = lzs({-base[k]: one})
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.8:
                    c = rng.randint(-2, 2)
                    if c:
                        ent[a][b] = ent[a][b] + lzs(
                            {rng.randint(-1, 1): svar * RatFunc([c])})
        try:
            fam = DiskFamily(ent)
        except Exception:
            continue
        gen = generic_splitting(fam)
        if any(e != gen[0] for e in gen):
            continue
        sp = special_splitting(fam)
        if sp[0] - sp[-1] == 2:
            return fam


def test_criterion_8_langton():
    svar = RatFunc.var()
    one = RatFunc([1])
    z0 = LaurentPoly.zero(1)

    fam = DiskFamily([[lzs({1: one}), lzs({0: svar})], [z0, lzs({-1: one})]])
    out, trail, certs = langton_reduce(fam)
    assert len(certs) == 1
    assert trail[-1].special_type == (0, 0)

    fam4 = DiskFamily([[lzs({2: one}), lzs({0: svar})], [z0, lzs({-2: one})]])
    out4, trail4, certs4 = langton_reduce(fam4)
    types = [r.special_type for r in trail4]
    assert types[-1] == (0, 0) and all(b < a for a, b in zip(types, types[1:]))

    rng = random.Random(88)
    for trial in range(50):
        n = rng.choice([2, 3])
        fam = _random_gap2_family(rng, n, svar)
        before = generic_splitting(fam)
        # walk the steps by hand so every certificate re-multiplies here
        current = fam
        seen = [tuple(special_splitting(current))]
        guard = 0
        while seen[-1] != tuple(before):
            nxt, cert, _ = langton_step(current)
            assert cert.verify(current, nxt)
            assert generic_splitting(nxt) == before
            current = nxt
            seen.append(tuple(special_splitting(current)))
            guard += 1
            assert guard <= 60
        assert all(b < a for a, b in zip(seen, seen[1:]))
        assert seen[-1] == tuple(before)
    _report(8, "Langton fixtures, 50 randomized reductions with certificates")


def test_criterion_9_birkhoff_self_consistency():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 4)
        exps = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
        diag = [[LaurentPoly.monomial(1, (-a,), 1) if i == j
                 else LaurentPoly.zero(1) for j in range(n)]
                for i, a in enumerate(exps)]
        left = random_unimodular_z(rng, n, chart=-1, ops=4)
        right = random_unimodular_z(rng, n, chart=+1, ops=4)
        g = linalg.mat_mul(linalg.mat_mul(left, diag), right)
        b = P1Bundle(g)
        assert splitting_type(b) == exps
        assert sum(exps) == -b.det_exp
    _report(9, "Birkhoff construct-then-recover, 200 products")
