"""Linear torus actions on projective space: fixed points, limits, the
attraction order, plus/minus decompositions, the open set with a genuine
quotient, orbit equivalence and the valuation analysis of arcs.

Coordinates carry integer weights w_i (t.x_i = t^(w_i) x_i); the fixed
components are the coordinate subspaces of constant weight, one per
distinct value.  The linearization weight over the component of
coordinate weight w is alpha = -w, and the rational shift a (never equal
to any alpha) splits the fixed set into V+ (alpha > a) and V- (alpha < a).
Points flowing into V+ at infinity form Y+, points flowing into V- at zero
form Y-, and U is the complement; these never meet, which is asserted on
every membership query.  Everything about a point's flow is read off the
weights on its support: t.x tends at zero to the coordinates of the least
of them and at infinity to those of the greatest, so membership and the
attraction order need no limit point, and orbit equivalence is a check of
r_i^(d_j/g) = r_j^(d_i/g) over pairs of support coordinates.

Arcs (coordinates Laurent in a disk parameter s) are analysed through the
lower envelope of the valuation lines v_i - eps * w_i; envelope intervals
land in fixed components of increasing weight, and breakpoints land on the
connecting orbits, which is exactly the piece of data the properness
argument consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .errors import PreconditionError, InternalInvariantError, check_budget
from .scalars import Scalar

_MAX_MONOMIALS = 100_000


@dataclass(frozen=True)
class FixedComponent:
    weight: int
    indices: tuple


class WeightedAction:
    def __init__(self, weights, shift):
        self.weights = tuple(int(w) for w in weights)
        if not self.weights:
            raise PreconditionError("need at least one coordinate")
        self.shift = Fraction(shift)

    def check_shift(self):
        # the split into V+/V- needs a to avoid every linearization weight
        if any(self.shift == -w for w in self.weights):
            raise PreconditionError(
                f"shift {self.shift} collides with a linearization weight")

    def check_coords(self, *items):
        """Points and arcs need one coordinate per weight."""
        for x in items:
            if len(x.coords) != len(self.weights):
                raise PreconditionError(
                    f"{len(x.coords)} coordinates for {len(self.weights)} weights")

    @property
    def n_coords(self):
        return len(self.weights)

    def alpha(self, weight):
        return -weight

    def fixed_components(self):
        values = sorted(set(self.weights))
        return [FixedComponent(weight=w,
                               indices=tuple(i for i, wi in enumerate(self.weights)
                                             if wi == w))
                for w in values]

    def act(self, t: Scalar, point):
        self.check_coords(point)
        return ProjPoint([x * (t ** w) for x, w in zip(point.coords, self.weights)])


class ProjPoint:
    """Projective point, normalized so the first nonzero coordinate is 1."""

    def __init__(self, coords):
        coords = [x if isinstance(x, Scalar) else Scalar.rational(x) for x in coords]
        lead = None
        for x in coords:
            if not x.is_zero:
                lead = x
                break
        if lead is None:
            raise PreconditionError("projective point needs a nonzero coordinate")
        inv = lead.inv()
        self.coords = tuple(x * inv for x in coords)

    @property
    def support(self):
        return tuple(i for i, x in enumerate(self.coords) if not x.is_zero)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(tuple(x.key() for x in self.coords))

    def __repr__(self):
        return "[" + " : ".join(str(x) for x in self.coords) + "]"


def _support_weights(action: WeightedAction, point: ProjPoint):
    action.check_coords(point)
    return [action.weights[i] for i in point.support]


def _limit(action: WeightedAction, point: ProjPoint, pick) -> ProjPoint:
    """The coordinates of ``point`` at the weight ``pick`` (min or max)
    chooses from its support, the rest zero."""
    w = pick(_support_weights(action, point))
    return ProjPoint([x if action.weights[i] == w and not x.is_zero
                      else Scalar.zero()
                      for i, x in enumerate(point.coords)])


def limit0(action: WeightedAction, point: ProjPoint) -> ProjPoint:
    return _limit(action, point, min)


def limitinf(action: WeightedAction, point: ProjPoint) -> ProjPoint:
    return _limit(action, point, max)


class ComponentOrder:
    """Partial order on fixed components, keyed by their weights."""

    def __init__(self, weights_present, pairs):
        self.nodes = sorted(weights_present)
        rel = {(w, w) for w in self.nodes} | set(pairs)
        # Warshall: after pivot k, every chain through pivots so far is closed
        for k in sorted({w for pair in rel for w in pair}):
            below = [a for (a, b) in rel if b == k]
            above = [d for (c, d) in rel if c == k]
            rel |= {(a, d) for a in below for d in above}
        self.pairs = rel

    def le(self, wu, wv):
        return (wu, wv) in self.pairs

    def sorted_pairs(self):
        return sorted(self.pairs)


def comp_order(action: WeightedAction, witnesses=None) -> ComponentOrder:
    """Attraction order; total by weight on full projective space, or the
    chain closure of (least, greatest) support weight pairs of a witness
    set, the components its points flow to at zero and at infinity."""
    weights = sorted(set(action.weights))
    if witnesses is None:
        pairs = {(u, v) for u in weights for v in weights if u <= v}
        return ComponentOrder(weights, pairs)
    pairs = set()
    for x in witnesses:
        ws = _support_weights(action, x)
        pairs.add((min(ws), max(ws)))
    return ComponentOrder(weights, pairs)


@dataclass(frozen=True)
class Decomposition:
    plus_weights: frozenset   # components with alpha > a
    minus_weights: frozenset  # components with alpha < a


def decompose(action: WeightedAction) -> Decomposition:
    """Split the fixed set by the shift.  alpha(w) = -w falls as w rises,
    so V+ is downward and V- upward closed in the attraction order."""
    action.check_shift()
    weights = set(action.weights)
    plus = {w for w in weights if action.alpha(w) > action.shift}
    minus = weights - plus
    return Decomposition(plus_weights=frozenset(plus),
                         minus_weights=frozenset(minus))


def membership(action: WeightedAction, dec: Decomposition,
               point: ProjPoint) -> str:
    """Classify a point as in_Y+, in_Y-, or in_U; asserts disjointness.
    The point flows at zero into the component of the least weight on its
    support and at infinity into that of the greatest."""
    ws = _support_weights(action, point)
    in_plus = max(ws) in dec.plus_weights
    in_minus = min(ws) in dec.minus_weights
    if in_plus and in_minus:
        raise InternalInvariantError("Y+ and Y- met at a point")
    if in_plus:
        return "in_Y+"
    if in_minus:
        return "in_Y-"
    return "in_U"


def orbit_equivalent(action: WeightedAction, x: ProjPoint, y: ProjPoint) -> bool:
    """Exact test for y in the closure-free torus orbit of x.

    Supports must agree; then some t must solve t^(d_i) = r_i on the
    support, with d_i = w_i - w_0 and r_i = y_i / x_i, where 0 is the first
    index of the support, at which both points are normalized to 1.  Over
    the algebraically closed field such t exists exactly when every integer
    relation sum c_i d_i = 0 gives prod r_i^(c_i) = 1.  The relations
    (d_j/g) e_i - (d_i/g) e_j, g = gcd(d_i, d_j), span them all, so it
    suffices to check r_i^(d_j/g) = r_j^(d_i/g) on every pair, and
    r_i = r_j = 1 where d_i = d_j = 0.
    """
    action.check_coords(x, y)
    if x.support != y.support:
        return False
    base = action.weights[x.support[0]]
    terms = [(action.weights[i] - base, y.coords[i] / x.coords[i])
             for i in x.support]
    one = Scalar.one()
    for (di, ri), (dj, rj) in combinations(terms, 2):
        g = gcd(di, dj)
        if g == 0:
            if ri != one or rj != one:
                return False
        elif ri ** (dj // g) != rj ** (di // g):
            return False
    return True


# -- arcs: coordinates Laurent in the disk parameter ---------------------


class Arc:
    def __init__(self, coords):
        self.coords = tuple(coords)
        if all(c.is_zero for c in self.coords):
            raise PreconditionError("arc is identically zero")

    @property
    def support(self):
        return tuple(i for i, c in enumerate(self.coords) if not c.is_zero)

    def valuation(self, i):
        return min(self.coords[i].terms)[0]

    def leading_point(self):
        return ProjPoint([c.coeff(min(c.terms)) if c.terms else Scalar.zero()
                          for c in self.coords])


@dataclass(frozen=True)
class ArcSegment:
    kind: str          # "interval" or "breakpoint"
    lo: object         # Fraction or None for -infinity
    hi: object         # Fraction or None for +infinity
    weight: object     # component weight for intervals, None at breakpoints
    point: ProjPoint   # landing point


def newton_limits(action: WeightedAction, arc: Arc):
    """Landing structure of the gauged arc under t = s^(-eps), s -> 0.

    Coordinate i carries the valuation line v_i - eps * w_i; the minimizers
    at a given eps survive in the limit.  Output alternates open intervals
    (landing in a fixed component) with breakpoints (landing at non-fixed
    points of the connecting orbits).  On the interval of weight w only the
    line of w is least, so the landing point is the coordinates of weight w
    at w's least valuation; at a breakpoint any number of lines can tie.
    """
    action.check_coords(arc)
    vals = {i: arc.valuation(i) for i in arc.support}
    lines = {}
    for i, v in vals.items():
        w = action.weights[i]
        lines[w] = min(v, lines.get(w, v))

    def landing(tied):
        return ProjPoint([arc.coords[i].coeff((vals[i],)) if i in tied
                          else Scalar.zero() for i in range(action.n_coords)])

    # lower envelope; weights ascend, so the active weight rises with eps
    stack = []   # (weight, valuation, eps where it becomes least)
    for w in sorted(lines):
        v = lines[w]
        while stack and stack[-1][2] is not None and \
                Fraction(v - stack[-1][1], w - stack[-1][0]) <= stack[-1][2]:
            stack.pop()
        cut = Fraction(v - stack[-1][1], w - stack[-1][0]) if stack else None
        stack.append((w, v, cut))

    segments = []
    for idx, (w, v, lo) in enumerate(stack):
        hi = stack[idx + 1][2] if idx + 1 < len(stack) else None
        if lo is not None:
            h = {i: vi - lo * action.weights[i] for i, vi in vals.items()}
            best = min(h.values())
            segments.append(ArcSegment(
                kind="breakpoint", lo=lo, hi=lo, weight=None,
                point=landing({i for i in h if h[i] == best})))
        segments.append(ArcSegment(
            kind="interval", lo=lo, hi=hi, weight=w,
            point=landing({i for i in vals
                           if (action.weights[i], vals[i]) == (w, v)})))
    interval_weights = [s.weight for s in segments if s.kind == "interval"]
    if interval_weights != sorted(set(interval_weights)):
        raise InternalInvariantError("envelope weights must strictly increase")
    return segments


def choose_gauge(action: WeightedAction, dec: Decomposition, arc: Arc):
    """The unique breakpoint whose neighbouring interval components straddle
    the plus/minus decomposition; its landing point lies in U."""
    lead = arc.leading_point()
    if membership(action, dec, lead) != "in_U":
        raise PreconditionError("the arc's generic point is not in U")
    segments = newton_limits(action, arc)
    intervals = [s for s in segments if s.kind == "interval"]
    breaks = [s for s in segments if s.kind == "breakpoint"]
    straddles = []
    for j in range(len(intervals) - 1):
        wlo, whi = intervals[j].weight, intervals[j + 1].weight
        if wlo in dec.plus_weights and whi in dec.minus_weights:
            straddles.append(j)
    if len(straddles) != 1:
        raise InternalInvariantError(
            "a U-generic arc must straddle the decomposition exactly once")
    j = straddles[0]
    bp = breaks[j]
    if membership(action, dec, bp.point) != "in_U":
        raise InternalInvariantError("straddling breakpoint landed outside U")
    return bp.lo, bp.point


def invariant_monomials(action: WeightedAction, degree: int):
    """Exponents of degree-d monomials with total weight d * a; empty when
    d * a is not an integer.  The search visits all C(d+n-1, n-1) degree-d
    monomials in n coordinates, so a count over ``_MAX_MONOMIALS`` is
    refused before it starts."""
    if degree < 0:
        raise PreconditionError("degree must be non-negative")
    target = action.shift * degree
    if target.denominator != 1:
        return []
    target = int(target)
    n = action.n_coords
    check_budget(comb(degree + n - 1, n - 1),
                 f"monomials of degree {degree} in {n} coordinates",
                 _MAX_MONOMIALS, "gm_action._MAX_MONOMIALS")
    # Stars and bars: n - 1 bar positions among degree + n - 1 slots give
    # one monomial in O(n), whatever the degree.  combinations() copies
    # its pool, which for n >= 2 is no larger than the budgeted count;
    # n = 1 has no bars and the one monomial (degree,).
    slots = degree + n - 1
    out = []
    for bars in combinations(range(slots), n - 1) if n > 1 else [()]:
        e = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
        if sum(w * k for w, k in zip(action.weights, e)) == target:
            out.append(e)
    return sorted(out)
