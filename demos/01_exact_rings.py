# %% [markdown]
# Exact scalars, group-ring polynomials, and integer lattice algebra.
# Everything downstream (filtrations, twistor frames, bundle splittings)
# rides on these three layers, so this walkthrough shows the arithmetic
# contracts they keep: conjugation is an involutive automorphism, character
# evaluation is a ring map, and Smith normal form certifies itself.

# %%
from fractions import Fraction

from hodgekit import LaurentPoly, Scalar, minors, rank, smith_normal_form

i = Scalar.i()
print("i * i =", i * i)
print("conj(i) =", i.conj())
print("conj(2/3) =", Scalar.rational(Fraction(2, 3)).conj())

# %% cyclotomics: a fixed order per computation, conj is zeta -> zeta^(n-1)
zeta8 = Scalar.zeta(8)
print("zeta8^8 =", zeta8 ** 8)
print("conj(zeta8) == zeta8^7:", zeta8.conj() == zeta8 ** 7)
print("1/zeta8 =", zeta8.inv())

# %% the group algebra of Z^2 and a character evaluation
t1, t2 = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
p = t1 * t2 ** 0 - 1
print("t1 - 1 at the trivial character:", p.eval_character([1, 1]))
q = t1 * LaurentPoly.var(2, 1, -1)
print("t1/t2 at (2, 1+i):",
      q.eval_character([Scalar.rational(2), Scalar.gaussian(1, 1)]))

# %% exact rank: this 2x2 matrix looks invertible but is not
m = [[Scalar.one(), i], [-i, Scalar.one()]]
print("rank [[1, i], [-i, 1]] =", rank(m))

# %% minors come in a fixed lexicographic order, so outputs are replayable
mat = [[t1, LaurentPoly.one(2)], [LaurentPoly.one(2), LaurentPoly.var(2, 0, -1)]]
print("2x2 minors of [[t1, 1], [1, 1/t1]]:",
      [str(x) for x in minors(mat, 2, LaurentPoly.one(2))])

# %% Smith normal form with its unimodular witnesses
e = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
u, d, v = smith_normal_form(e)
print("invariant factors:", [d[k][k] for k in range(3)])
ue = [[sum(u[a][x] * e[x][y] for x in range(3)) for y in range(3)]
      for a in range(3)]
uev = [[sum(ue[a][x] * v[x][y] for x in range(3)) for y in range(3)]
       for a in range(3)]
print("U e V == D:", uev == d)
