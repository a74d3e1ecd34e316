# %% [markdown]
# Linear torus actions on projective space: fixed components, limits, the
# attraction order, and the open set U that admits a genuine quotient.  A
# rational shift a splits the fixed components into V+ and V-; flowing
# into V+ at infinity or into V- at zero disqualifies a point, and what
# remains is U.  Arcs in the disk parameter are resolved by the lower
# envelope of their valuation lines, which is the combinatorics behind
# properness of the quotient.

# %%
from fractions import Fraction

from hodgekit import (Arc, LaurentPoly, ProjPoint, WeightedAction,
                      choose_gauge, decompose, invariant_monomials, limit0,
                      limitinf, membership, newton_limits, orbit_equivalent)

action = WeightedAction([0, 1, 2], Fraction(-1, 2))
print("fixed components:",
      [(c.weight, c.indices) for c in action.fixed_components()])

# %% limits select the extreme weights of the support
x = ProjPoint([1, 1, 1])
print("limit at 0:  ", limit0(action, x))
print("limit at inf:", limitinf(action, x))

# %% the decomposition at a = -1/2 and three memberships
dec = decompose(action)
print("V+ weights:", sorted(dec.plus_weights), " V- weights:",
      sorted(dec.minus_weights))
for coords in ([1, 1, 0], [1, 0, 0], [0, 1, 1]):
    pt = ProjPoint(coords)
    print(f"  {pt}: {membership(action, dec, pt)}")

# %% orbit equivalence is decided by lattice algebra on the ratios
print("[1:1:1] ~ [1:2:4]:", orbit_equivalent(action, ProjPoint([1, 1, 1]),
                                             ProjPoint([1, 2, 4])))
print("[1:1:1] ~ [1:1:2]:", orbit_equivalent(action, ProjPoint([1, 1, 1]),
                                             ProjPoint([1, 1, 2])))

# %% an arc and its envelope: intervals land on fixed components of
# increasing weight, breakpoints on the connecting orbits


def lz(d):
    return LaurentPoly(1, {(k,): v for k, v in d.items()})


arc = Arc([lz({0: 1}), lz({1: 1}), lz({3: 1})])
for seg in newton_limits(action, arc):
    span = f"({seg.lo}, {seg.hi})" if seg.kind == "interval" else f"eps={seg.lo}"
    print(f"  {seg.kind:10s} {span:12s} -> {seg.point}")
eps, landing = choose_gauge(action, dec, arc)
print("chosen gauge:", eps, "landing", landing,
      membership(action, dec, landing))

# %% semi-invariant monomials of the shifted linearization
git = WeightedAction([0, 1, 2], Fraction(1))
print("degree-2 semi-invariants for a=1:", invariant_monomials(git, 2))
