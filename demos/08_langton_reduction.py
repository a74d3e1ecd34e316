# %% [markdown]
# Semistable reduction over a formal disk.  The family [[z, s], [0, 1/z]]
# is semistable away from s = 0 but degenerates to O(1) + O(-1) at the
# special fiber.  One elementary modification conjugates the extension
# data into the fiber and lands on the balanced bundle; the pair of
# chart-invertible factors relating old and new transition matrices is
# retained and re-multiplied as a correctness certificate.

# %%
from hodgekit import (DiskFamily, LaurentPoly, RatFunc,
                      generic_splitting, langton_reduce, langton_step,
                      special_splitting)

one = RatFunc([1])
s = RatFunc.var()
Z0 = LaurentPoly.zero(1)


def lz(d):
    return LaurentPoly(1, {(k,): c for k, c in d.items()})


family = DiskFamily([[lz({1: one}), lz({0: s})], [Z0, lz({-1: one})]])
print("generic splitting:", generic_splitting(family))
print("special splitting:", special_splitting(family))

# %% one step balances the special fiber without moving the generic one
after, certificate, record = langton_step(family)
print("special fiber before:", record.special_type)
print("special fiber after: ", tuple(special_splitting(after)))
print("new transition:", [[str(e) for e in row] for row in after.entries])
print("certificate re-multiplies:", certificate.verify(family, after))

# %% the full reduction loop reports its strictly decreasing trail
steep = DiskFamily([[lz({2: one}), lz({0: s})], [Z0, lz({-2: one})]])
reduced, trail, certs = langton_reduce(steep)
print("trail:", [r.special_type for r in trail], "in", len(certs), "step(s)")
print("generic fiber preserved:",
      generic_splitting(reduced) == generic_splitting(steep))

# %% re-running on the output is a no-op
again, trail2, certs2 = langton_reduce(reduced)
print("already reduced:", len(certs2) == 0)
