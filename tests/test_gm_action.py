from fractions import Fraction

import pytest

from hodgekit.errors import PreconditionError
from hodgekit.gm_action import (Arc, ProjPoint, WeightedAction, choose_gauge,
                                comp_order, decompose, invariant_monomials,
                                limit0, limitinf, membership, newton_limits,
                                orbit_equivalent)
from hodgekit.scalars import Scalar
from hodgekit.laurent import LaurentPoly

from conftest import lzg, sc

W012 = WeightedAction([0, 1, 2], Fraction(-1, 2))


def test_fixed_components():
    comps = W012.fixed_components()
    assert [(c.weight, c.indices) for c in comps] == [(0, (0,)), (1, (1,)), (2, (2,))]
    assert len(WeightedAction([1, 1], Fraction(0)).fixed_components()) == 1
    comps = WeightedAction([0, 0, 5], Fraction(1)).fixed_components()
    assert [(c.weight, c.indices) for c in comps] == [(0, (0, 1)), (5, (2,))]


def test_limits():
    p = ProjPoint([1, 1, 1])
    assert limit0(W012, p) == ProjPoint([1, 0, 0])
    assert limitinf(W012, p) == ProjPoint([0, 0, 1])
    assert limit0(W012, ProjPoint([0, 1, 1])) == ProjPoint([0, 1, 0])
    e1 = ProjPoint([0, 1, 0])
    assert limit0(W012, e1) == e1 and limitinf(W012, e1) == e1


def test_comp_order():
    order = comp_order(W012)
    assert order.le(0, 1) and order.le(1, 2) and order.le(0, 2)
    assert not order.le(2, 1)
    single = comp_order(WeightedAction([3, 3], Fraction(0)))
    assert single.sorted_pairs() == [(3, 3)]
    wit = comp_order(W012, witnesses=[ProjPoint([1, 0, 1])])
    assert wit.le(0, 2) and not wit.le(0, 1) and not wit.le(1, 2)


def test_decompose():
    dec = decompose(W012)
    assert dec.plus_weights == frozenset({0})
    assert dec.minus_weights == frozenset({1, 2})
    dec2 = decompose(WeightedAction([0, 1, 2], Fraction(-5, 2)))
    assert dec2.plus_weights == frozenset({0, 1, 2})
    assert dec2.minus_weights == frozenset()
    with pytest.raises(PreconditionError):
        decompose(WeightedAction([0, 1, 2], Fraction(-1)))
    for shift in (Fraction(-5, 2), Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)):
        # V+ is downward and V- upward closed in the attraction order
        action = WeightedAction([0, 1, 2], shift)
        dec = decompose(action)
        for u, v in comp_order(action).sorted_pairs():
            assert u in dec.plus_weights or v not in dec.plus_weights
            assert v in dec.minus_weights or u not in dec.minus_weights


def test_membership_fixtures():
    dec = decompose(W012)
    assert membership(W012, dec, ProjPoint([1, 1, 0])) == "in_U"
    assert membership(W012, dec, ProjPoint([1, 0, 0])) == "in_Y+"
    assert membership(W012, dec, ProjPoint([0, 1, 1])) == "in_Y-"


def test_membership_invariance_under_action(rng):
    dec = decompose(W012)
    pool = [Scalar.zero(), Scalar.one(), sc(2), -Scalar.one(), Scalar.i()]
    for _ in range(40):
        coords = [rng.choice(pool) for _ in range(3)]
        if all(c.is_zero for c in coords):
            continue
        pt = ProjPoint(coords)
        status = membership(W012, dec, pt)
        t = rng.choice([sc(2), sc(-3), Scalar.gaussian(1, 1)])
        assert membership(W012, dec, W012.act(t, pt)) == status


def test_limit_order_chain():
    order = comp_order(W012)
    pool = [0, 1, 2]
    for coords in ([1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]):
        pt = ProjPoint(coords)
        w0 = min(W012.weights[i] for i in pt.support)
        winf = max(W012.weights[i] for i in pt.support)
        assert order.le(w0, winf)


def test_orbit_equivalent():
    assert orbit_equivalent(W012, ProjPoint([1, 1, 1]), ProjPoint([1, 2, 4]))
    assert not orbit_equivalent(W012, ProjPoint([1, 1, 1]), ProjPoint([1, 1, 2]))
    x = ProjPoint([Scalar.one(), Scalar.gaussian(1, 1), sc(3)])
    t0 = Scalar.gaussian(2, 1)
    assert orbit_equivalent(W012, x, W012.act(t0, x))
    # support mismatch
    assert not orbit_equivalent(W012, ProjPoint([1, 0, 1]), ProjPoint([1, 1, 1]))
    # roots of unity matter: same lattice, inconsistent ratios
    w22 = WeightedAction([0, 2, 2], Fraction(1, 2))
    assert orbit_equivalent(w22, ProjPoint([1, 1, 1]), ProjPoint([1, 4, 4]))
    assert not orbit_equivalent(w22, ProjPoint([1, 1, 1]), ProjPoint([1, 4, 8]))


def test_orbit_equivalence_relation_laws(rng):
    dec = decompose(W012)
    pool = [Scalar.zero(), Scalar.one(), sc(2), sc(4), -Scalar.one()]
    upoints = []
    for _ in range(200):
        coords = [rng.choice(pool) for _ in range(3)]
        if all(c.is_zero for c in coords):
            continue
        pt = ProjPoint(coords)
        if membership(W012, dec, pt) == "in_U":
            upoints.append(pt)
        if len(upoints) >= 25:
            break
    for p in upoints:
        assert orbit_equivalent(W012, p, p)
    for p in upoints:
        for q in upoints[:8]:
            assert orbit_equivalent(W012, p, q) == orbit_equivalent(W012, q, p)
    for p in upoints[:6]:
        for q in upoints[:6]:
            for r in upoints[:6]:
                if orbit_equivalent(W012, p, q) and orbit_equivalent(W012, q, r):
                    assert orbit_equivalent(W012, p, r)


def test_separation_by_limit_components(rng):
    # equivalent points share their limit components
    pool = [Scalar.zero(), Scalar.one(), sc(2), sc(3)]
    for _ in range(60):
        try:
            a = ProjPoint([rng.choice(pool) for _ in range(3)])
            b = ProjPoint([rng.choice(pool) for _ in range(3)])
        except PreconditionError:
            continue
        if orbit_equivalent(W012, a, b):
            assert limit0(W012, a).support == limit0(W012, b).support
            assert limitinf(W012, a).support == limitinf(W012, b).support


def test_newton_limits_worked_example():
    arc = Arc([lzg({0: 1}), lzg({1: 1}), lzg({3: 1})])
    segs = newton_limits(W012, arc)
    kinds = [(s.kind, s.lo, s.hi, s.weight) for s in segs]
    assert kinds == [
        ("interval", None, Fraction(1), 0),
        ("breakpoint", Fraction(1), Fraction(1), None),
        ("interval", Fraction(1), Fraction(2), 1),
        ("breakpoint", Fraction(2), Fraction(2), None),
        ("interval", Fraction(2), None, 2),
    ]
    assert segs[1].point == ProjPoint([1, 1, 0])
    assert segs[3].point == ProjPoint([0, 1, 1])


def test_newton_limits_constant_and_fractional():
    single = Arc([lzg({0: 1}), LaurentPoly.zero(1), LaurentPoly.zero(1)])
    segs = newton_limits(W012, single)
    assert len(segs) == 1 and segs[0].kind == "interval" and segs[0].weight == 0
    frac = WeightedAction([0, 2], Fraction(-1, 2))
    segs = newton_limits(frac, Arc([lzg({0: 1}), lzg({1: 1})]))
    bps = [s for s in segs if s.kind == "breakpoint"]
    assert len(bps) == 1 and bps[0].lo == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        Arc([LaurentPoly.zero(1)])


def test_choose_gauge():
    dec = decompose(W012)
    arc = Arc([lzg({0: 1}), lzg({1: 1}), lzg({3: 1})])
    eps, landing = choose_gauge(W012, dec, arc)
    assert eps == Fraction(1) and landing == ProjPoint([1, 1, 0])
    assert membership(W012, dec, landing) == "in_U"
    w_low = WeightedAction([0, 1, 2], Fraction(-3, 2))
    eps2, landing2 = choose_gauge(w_low, decompose(w_low), arc)
    assert eps2 == Fraction(2) and landing2 == ProjPoint([0, 1, 1])
    # constant arc already in U
    const = Arc([lzg({0: 1}), lzg({0: 1}), LaurentPoly.zero(1)])
    eps3, landing3 = choose_gauge(W012, dec, const)
    assert eps3 == 0 and landing3 == ProjPoint([1, 1, 0])
    # arc whose generic point sits in Y+, rejected
    with pytest.raises(PreconditionError):
        choose_gauge(W012, dec, Arc([lzg({0: 1}),
                                     LaurentPoly.zero(1),
                                     LaurentPoly.zero(1)]))


def test_interval_weights_strictly_increase(rng):
    for _ in range(25):
        coords = []
        for _ in range(3):
            if rng.random() < 0.25:
                coords.append(LaurentPoly.zero(1))
            else:
                coords.append(lzg({rng.randint(0, 4): rng.randint(1, 3)}))
        try:
            arc = Arc(coords)
        except PreconditionError:
            continue
        segs = newton_limits(W012, arc)   # raises internally if non-monotone
        ws = [s.weight for s in segs if s.kind == "interval"]
        assert ws == sorted(set(ws))


def test_invariant_monomials():
    assert invariant_monomials(WeightedAction([0, 1, 2], Fraction(1)), 2) == \
        [(0, 2, 0), (1, 0, 1)]
    assert invariant_monomials(WeightedAction([0, 1, 2], Fraction(1, 3)), 2) == []
    all_deg2 = invariant_monomials(WeightedAction([0, 0, 0], Fraction(0)), 2)
    assert len(all_deg2) == 6
