import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import linalg
from hodgekit.errors import PreconditionError
from hodgekit.gm_action import (Arc, ArcSegment, ComponentOrder, ProjPoint,
                                WeightedAction, choose_gauge,
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


def test_invariant_monomials_cost_follows_the_budgeted_count():
    # The budget counts monomials; each must cost O(n), not O(degree).
    start = time.perf_counter()
    assert invariant_monomials(WeightedAction([0], 1), 10**9) == []
    assert invariant_monomials(WeightedAction([0], 0), 10**9) == [(10**9,)]
    assert invariant_monomials(WeightedAction([0, 1], 1), 99_999) == \
        [(0, 99_999)]
    assert time.perf_counter() - start < 10
    action = WeightedAction([0, 1, 3], Fraction(1))
    assert invariant_monomials(action, 445) == \
        _oracle_invariant_monomials(action, 445)


# -- oracles: the implementations that built limit points, solved a Smith
#    form, closed the order to a fixed point and recursed over exponents


def _oracle_orbit_equivalent(action, x, y):
    if x.support != y.support:
        return False
    sup = list(x.support)
    base = sup[0]
    ds = [action.weights[i] - action.weights[base] for i in sup]
    ratios = [(y.coords[i] * x.coords[base]) / (x.coords[i] * y.coords[base])
              for i in sup]
    _, d, v = linalg.smith_normal_form([ds])
    k = len(ds)
    for j in range(k):
        if d[0][j] != 0:
            continue
        prod = Scalar.one()
        for r, c in zip(ratios, [v[i][j] for i in range(k)]):
            if c:
                prod = prod * (r ** c)
        if prod != Scalar.one():
            return False
    return True


def _oracle_closure(nodes, pairs):
    rel = {(w, w) for w in nodes} | set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def _fixed_weight(action, point):
    ws = {action.weights[i] for i in point.support}
    assert len(ws) == 1
    return ws.pop()


def _oracle_membership(action, dec, point):
    if _fixed_weight(action, limitinf(action, point)) in dec.plus_weights:
        return "in_Y+"
    if _fixed_weight(action, limit0(action, point)) in dec.minus_weights:
        return "in_Y-"
    return "in_U"


def _oracle_newton_limits(action, arc):
    sup = list(arc.support)
    lines = {}
    for i in sup:
        w = action.weights[i]
        v = arc.valuation(i)
        if w not in lines or v < lines[w]:
            lines[w] = v

    def landing(eps):
        vals = {i: Fraction(arc.valuation(i)) - eps * action.weights[i]
                for i in sup}
        best = min(vals.values())
        coords = [Scalar.zero()] * action.n_coords
        for i in sup:
            if vals[i] == best:
                coords[i] = arc.coords[i].coeff((arc.valuation(i),))
        return ProjPoint(coords)

    stack = []
    for w in sorted(lines):
        v = Fraction(lines[w])
        while stack:
            w0, v0, cut0 = stack[-1]
            cut = (v - v0) / (w - w0)
            if cut0 is not None and cut <= cut0:
                stack.pop()
                continue
            break
        if stack:
            w0, v0, _ = stack[-1]
            cut = (v - v0) / (w - w0)
        else:
            cut = None
        stack.append((w, v, cut))

    segments = []
    for idx, (w, v, cut) in enumerate(stack):
        lo = cut
        hi = stack[idx + 1][2] if idx + 1 < len(stack) else None
        if lo is not None:
            segments.append(ArcSegment(kind="breakpoint", lo=lo, hi=lo,
                                       weight=None, point=landing(lo)))
        if lo is None and hi is None:
            mid = Fraction(0)
        elif lo is None:
            mid = hi - 1
        elif hi is None:
            mid = lo + 1
        else:
            mid = (lo + hi) / 2
        segments.append(ArcSegment(kind="interval", lo=lo, hi=hi,
                                   weight=w, point=landing(mid)))
    return segments


def _oracle_invariant_monomials(action, degree):
    target = action.shift * degree
    if target.denominator != 1:
        return []
    target = int(target)
    n = action.n_coords
    out = []

    def rec(i, remaining, weight_acc, prefix):
        if i == n - 1:
            if weight_acc + remaining * action.weights[i] == target:
                out.append(tuple(prefix + [remaining]))
            return
        for m in range(remaining + 1):
            rec(i + 1, remaining - m, weight_acc + m * action.weights[i],
                prefix + [m])

    rec(0, degree, 0, [])
    return sorted(out)


# values in Q(zeta_12), which holds i, so Gaussian and root-of-unity
# coordinates mix in one point
UNITS = [Scalar.zeta(12, k) for k in range(12)]
VALUES = [Scalar.zero(), Scalar.one(), sc(2), sc(-3), Scalar.i(),
          Scalar.gaussian(1, 1), Scalar.gaussian(2, -1)] + UNITS[1:4]

weight_lists = st.lists(st.integers(-3, 3), min_size=1, max_size=5)


@st.composite
def actions_and_points(draw, count):
    weights = draw(weight_lists)
    action = WeightedAction(weights, Fraction(1, 2))
    points = []
    for _ in range(count):
        coords = draw(st.lists(st.sampled_from(VALUES), min_size=len(weights),
                               max_size=len(weights)))
        k = draw(st.integers(0, len(weights) - 1))
        coords[k] = draw(st.sampled_from(VALUES[1:]))
        points.append(ProjPoint(coords))
    return action, points


@given(actions_and_points(1), st.sampled_from(VALUES[1:] + UNITS),
       st.lists(st.sampled_from(UNITS), min_size=5, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_orbit_equivalent_matches_smith_form_oracle(ap, t, twists, where):
    # y = t.x, then some coordinates turned by roots of unity: equivalent
    # exactly when the turns are themselves a torus element's
    action, (x,) = ap
    tx = action.act(t, x)
    y = ProjPoint([c * u if flag else c
                   for c, u, flag in zip(tx.coords, twists, where)])
    for a, b in ((x, tx), (x, y), (tx, y)):
        assert orbit_equivalent(action, a, b) == \
            _oracle_orbit_equivalent(action, a, b)
    assert orbit_equivalent(action, x, tx)


@pytest.mark.parametrize("weights", [(0, 2, 2), (0, 2, 4), (0, 3, 6),
                                     (1, 3, -3), (0, 0, 2), (0, 4, 6)])
def test_orbit_equivalent_sees_roots_of_unity_of_each_gcd(weights):
    # turning one coordinate by zeta_12^k stays in the orbit exactly when
    # the turn is some t^(d_i) compatible with the other coordinates
    action = WeightedAction(weights, Fraction(1, 2))
    x = ProjPoint([1, 2, Scalar.gaussian(1, 1)])
    verdicts = set()
    for j in range(3):
        for u in UNITS:
            y = ProjPoint([c * u if i == j else c for i, c in enumerate(x.coords)])
            verdict = orbit_equivalent(action, x, y)
            assert verdict == _oracle_orbit_equivalent(action, x, y)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@given(actions_and_points(2))
@settings(max_examples=150, deadline=None)
def test_orbit_equivalent_matches_oracle_on_unrelated_points(ap):
    action, (x, y) = ap
    assert orbit_equivalent(action, x, y) == _oracle_orbit_equivalent(action, x, y)


@given(actions_and_points(6), st.sampled_from(
    [Fraction(k, 2) for k in range(-7, 8, 2)]))
@settings(max_examples=100, deadline=None)
def test_order_and_membership_match_limit_point_oracles(ap, shift):
    action, witnesses = ap
    action = WeightedAction(action.weights, shift)
    dec = decompose(action)
    order = comp_order(action, witnesses)
    pairs = {(_fixed_weight(action, limit0(action, x)),
              _fixed_weight(action, limitinf(action, x))) for x in witnesses}
    assert order.pairs == _oracle_closure(sorted(set(action.weights)), pairs)
    for x in witnesses:
        assert membership(action, dec, x) == _oracle_membership(action, dec, x)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_component_order_matches_fixed_point_closure(nodes, pairs):
    assert ComponentOrder(nodes, pairs).pairs == _oracle_closure(sorted(nodes),
                                                                 pairs)


@st.composite
def arcs(draw):
    """Arcs whose tied coordinates sit on one line through a breakpoint
    eps0: valuation c + eps0 * w, so several lines can meet there."""
    weights = draw(weight_lists)
    eps0 = draw(st.integers(-2, 2))
    c = draw(st.integers(-2, 2))
    coords = []
    for w in weights:
        kind = draw(st.sampled_from(["tied", "free", "zero"]))
        if kind == "zero":
            coords.append(LaurentPoly.zero(1))
            continue
        v = c + eps0 * w if kind == "tied" else draw(st.integers(-3, 3))
        terms = {v: draw(st.sampled_from(VALUES[1:]))}
        if draw(st.booleans()):
            terms[v + draw(st.integers(1, 2))] = draw(st.sampled_from(VALUES[1:]))
        coords.append(lzg(terms))
    if all(x.is_zero for x in coords):
        coords[0] = lzg({c: Scalar.one()})
    return WeightedAction(weights, Fraction(1, 2)), Arc(coords)


@given(arcs())
@settings(max_examples=300, deadline=None)
def test_newton_limits_matches_midpoint_oracle(case):
    action, arc = case
    assert newton_limits(action, arc) == _oracle_newton_limits(action, arc)


def test_newton_limits_three_lines_tie_at_a_breakpoint():
    arc = Arc([lzg({0: 1}), lzg({1: 2}), lzg({2: 3})])
    segs = newton_limits(W012, arc)
    assert segs == _oracle_newton_limits(W012, arc)
    assert [s.weight for s in segs if s.kind == "interval"] == [0, 2]
    assert segs[1].point == ProjPoint([1, 2, 3])


@given(weight_lists, st.fractions(min_value=-3, max_value=3, max_denominator=3),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_invariant_monomials_match_recursive_oracle(weights, shift, degree):
    action = WeightedAction(weights, shift)
    assert invariant_monomials(action, degree) == \
        _oracle_invariant_monomials(action, degree)
