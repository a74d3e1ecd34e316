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
every membership query.

Arcs (coordinates Laurent in a disk parameter s) are analysed through the
lower envelope of the valuation lines v_i - eps * w_i; envelope intervals
land in fixed components of increasing weight, and breakpoints land on the
connecting orbits, which is exactly the piece of data the properness
argument consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import PreconditionError, InternalInvariantError, check_budget
from . import linalg
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


def limit0(action: WeightedAction, point: ProjPoint) -> ProjPoint:
    action.check_coords(point)
    wmin = min(action.weights[i] for i in point.support)
    return ProjPoint([x if action.weights[i] == wmin and not x.is_zero
                      else Scalar.zero()
                      for i, x in enumerate(point.coords)])


def limitinf(action: WeightedAction, point: ProjPoint) -> ProjPoint:
    action.check_coords(point)
    wmax = max(action.weights[i] for i in point.support)
    return ProjPoint([x if action.weights[i] == wmax and not x.is_zero
                      else Scalar.zero()
                      for i, x in enumerate(point.coords)])


def weight_of_fixed_point(action: WeightedAction, point: ProjPoint) -> int:
    action.check_coords(point)
    ws = {action.weights[i] for i in point.support}
    if len(ws) != 1:
        raise PreconditionError("point is not fixed")
    return ws.pop()


class ComponentOrder:
    """Partial order on fixed components, keyed by their weights."""

    def __init__(self, weights_present, pairs):
        self.nodes = sorted(weights_present)
        rel = {(w, w) for w in self.nodes}
        rel |= set(pairs)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        self.pairs = rel

    def le(self, wu, wv):
        return (wu, wv) in self.pairs

    def sorted_pairs(self):
        return sorted(self.pairs)


def comp_order(action: WeightedAction, witnesses=None) -> ComponentOrder:
    """Attraction order; total by weight on full projective space, or the
    chain closure of (limit0, limitinf) pairs through a witness set."""
    weights = sorted(set(action.weights))
    if witnesses is None:
        pairs = {(u, v) for u in weights for v in weights if u <= v}
        return ComponentOrder(weights, pairs)
    pairs = set()
    for x in witnesses:
        u = weight_of_fixed_point(action, limit0(action, x))
        v = weight_of_fixed_point(action, limitinf(action, x))
        pairs.add((u, v))
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
    """Classify a point as in_Y+, in_Y-, or in_U; asserts disjointness."""
    w0 = weight_of_fixed_point(action, limit0(action, point))
    winf = weight_of_fixed_point(action, limitinf(action, point))
    in_plus = winf in dec.plus_weights
    in_minus = w0 in dec.minus_weights
    if in_plus and in_minus:
        raise InternalInvariantError("Y+ and Y- met at a point")
    if in_plus:
        return "in_Y+"
    if in_minus:
        return "in_Y-"
    return "in_U"


def orbit_equivalent(action: WeightedAction, x: ProjPoint, y: ProjPoint) -> bool:
    """Exact test for y in the closure-free torus orbit of x.

    Supports must agree; then t^(w_i - w_j) = (y_i x_j) / (x_i y_j) must be
    consistent, which is a lattice condition checked through the Smith
    normal form of the exponent vector (roots always exist over the
    algebraically closed field, so consistency is the whole test).
    """
    action.check_coords(x, y)
    if x.support != y.support:
        return False
    sup = list(x.support)
    base = sup[0]
    ds = [action.weights[i] - action.weights[base] for i in sup]
    ratios = [(y.coords[i] * x.coords[base]) / (x.coords[i] * y.coords[base])
              for i in sup]
    _, d, v = linalg.smith_normal_form([ds])
    k = len(ds)
    kernel_cols = [j for j in range(k) if d[0][j] == 0]
    for j in kernel_cols:
        rel = [v[i][j] for i in range(k)]
        prod = Scalar.one()
        for r, c in zip(ratios, rel):
            if c:
                prod = prod * (r ** c)
        if prod != Scalar.one():
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
    points of the connecting orbits).
    """
    action.check_coords(arc)
    sup = list(arc.support)
    lines = {}
    for i in sup:
        w = action.weights[i]
        v = arc.valuation(i)
        if w not in lines or v < lines[w]:
            lines[w] = v

    def landing(eps):
        vals = {i: Fraction(arc.valuation(i)) - eps * action.weights[i] for i in sup}
        best = min(vals.values())
        coords = [Scalar.zero()] * action.n_coords
        for i in sup:
            if vals[i] == best:
                coords[i] = arc.coords[i].coeff((arc.valuation(i),))
        return ProjPoint(coords)

    order = sorted(lines)  # active weight increases along eps
    stack = []
    for w in order:
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
    interval_weights = [s.weight for s in segments if s.kind == "interval"]
    if interval_weights != sorted(interval_weights) or \
            len(set(interval_weights)) != len(interval_weights):
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
    out = []

    def rec(i, remaining, weight_acc, prefix):
        if i == n - 1:
            w = weight_acc + remaining * action.weights[i]
            if w == target:
                out.append(tuple(prefix + [remaining]))
            return
        for m in range(remaining + 1):
            rec(i + 1, remaining - m, weight_acc + m * action.weights[i],
                prefix + [m])

    rec(0, degree, 0, [])
    return sorted(out)
