# %% [markdown]
# Splitting types of bundles on the projective line.  A transition matrix
# whose determinant is a unit presents a bundle; column reduction of that
# matrix pins down the unique decomposition into line bundles, its column
# transform gives a basis of the global sections of every twist, and the
# same reduction, replayed, gives a constructive factorization G = A * D * C
# as a certificate.

# %%
from hodgekit import (P1Bundle, LaurentPoly, factorization_certificate,
                      h0_twist, splitting_type)
from hodgekit import linalg


def lz(d):
    return LaurentPoly(1, {(k,): c for k, c in d.items()})


Z0 = LaurentPoly.zero(1)

# %% the convention: O(a) is the 1x1 transition z^(-a)
print("h0(O(1)) =", h0_twist(P1Bundle([[lz({-1: 1})]]), 0))
print("h0(O(-1)) =", h0_twist(P1Bundle([[lz({1: 1})]]), 0))

# %% an extension that looks unbalanced but splits evenly
g = P1Bundle([[lz({1: 1}), lz({0: 1})], [Z0, lz({-1: 1})]])
print("[[z, 1], [0, 1/z]] splits as", splitting_type(g))

# %% h0 of every twist is determined by the splitting type
a = splitting_type(g)
for m in range(-2, 3):
    predicted = sum(max(0, x + m + 1) for x in a)
    print(f"  h0(twist {m:+d}) = {h0_twist(g, m)} (predicted {predicted})")

# %% the certificate re-multiplies exactly
amat, dmat, cmat = factorization_certificate(g)
recon = linalg.mat_mul(linalg.mat_mul(amat, dmat), cmat)
print("A D C == G:", linalg.mat_eq(recon, g.entries))
print("D diagonal exponents:",
      [next(iter(dmat[k][k].terms))[0] for k in range(2)])

# %% a scrambled diagonal still reports its hidden exponents
scramble = P1Bundle([
    [lz({-2: 1}), lz({0: 3, 1: 1})],
    [Z0, lz({1: 1})],
])
print("scrambled diag(z^-2, z) splits as", splitting_type(scramble))
