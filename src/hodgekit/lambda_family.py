"""The rank-one family of lambda-connections in harmonic coordinates.

A harmonic line is a pair of coordinate vectors (nu, theta') in C^g: nu
carries the unitary (0,1)-operator, theta' the Higgs part, and the
conjugate theta'' = c(theta') is implied.  Points of the family are
triples (beta, eta, lambda): beta the (0,1)-operator data, eta the
(1,0)-operator data.  The structural maps implemented here:

* the section lambda -> (nu + lambda c(theta'), theta' - lambda c(nu)),
  affine-linear in lambda, hitting the Higgs datum at lambda = 0 and the
  flat-connection coordinates at lambda = 1;
* the antilinear involution sigma'(beta, eta, lambda) =
  (-c(eta)/conj(lambda), c(beta)/conj(lambda), -1/conj(lambda)),
  which covers lambda -> -1/conj(lambda) and fixes the family of sections;
* the torus action t.(beta, eta, lambda) = (beta, t eta, t lambda).

The classification theorem at this rank: every sigma'-equivariant
polynomial section is one of the sections above.  ``classify_invariant_
section`` decides this by exact coefficient comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .scalars import Scalar


def _vec(xs, g=None):
    out = [x if isinstance(x, Scalar) else Scalar.rational(x) for x in xs]
    if g is not None and len(out) != g:
        raise PreconditionError(f"vector length {len(out)} != g = {g}")
    return tuple(out)


def _cvec(xs):
    return tuple(x.conj() for x in xs)


@dataclass(frozen=True)
class HarmonicLine:
    nu: tuple
    theta_prime: tuple

    def __post_init__(self):
        object.__setattr__(self, "nu", _vec(self.nu))
        object.__setattr__(self, "theta_prime", _vec(self.theta_prime, len(self.nu)))

    @property
    def g(self):
        return len(self.nu)


@dataclass(frozen=True)
class HodPoint:
    beta: tuple
    eta: tuple
    lam: Scalar

    def __post_init__(self):
        object.__setattr__(self, "beta", _vec(self.beta))
        object.__setattr__(self, "eta", _vec(self.eta, len(self.beta)))

    @property
    def g(self):
        return len(self.beta)


def prefered_section(h: HarmonicLine, lam: Scalar) -> HodPoint:
    beta = tuple(n + lam * t.conj() for n, t in zip(h.nu, h.theta_prime))
    eta = tuple(t - lam * n.conj() for n, t in zip(h.nu, h.theta_prime))
    return HodPoint(beta=beta, eta=eta, lam=lam)


def sigma_prime(p: HodPoint) -> HodPoint:
    """Antilinear involution on the lambda != 0 locus; no fixed lambda."""
    if p.lam.is_zero:
        raise PreconditionError("sigma' is undefined over lambda = 0")
    lbar_inv = p.lam.conj().inv()
    beta = tuple(-(lbar_inv * x.conj()) for x in p.eta)
    eta = tuple(lbar_inv * x.conj() for x in p.beta)
    return HodPoint(beta=beta, eta=eta, lam=-lbar_inv)


def gm_act(t: Scalar, p: HodPoint) -> HodPoint:
    if not isinstance(t, Scalar):
        t = Scalar.rational(t)
    if t.is_zero:
        raise PreconditionError("the torus acts by nonzero scalars")
    return HodPoint(beta=p.beta, eta=tuple(t * x for x in p.eta), lam=t * p.lam)


@dataclass(frozen=True)
class PolySection:
    """Candidate section: beta(lambda), eta(lambda) as coefficient lists."""

    beta_coeffs: tuple   # tuple of vectors, ascending powers of lambda
    eta_coeffs: tuple

    def __post_init__(self):
        if not self.beta_coeffs or not self.eta_coeffs:
            raise PreconditionError("empty coefficient list")
        g = len(self.beta_coeffs[0])
        object.__setattr__(self, "beta_coeffs",
                           tuple(_vec(v, g) for v in self.beta_coeffs))
        object.__setattr__(self, "eta_coeffs",
                           tuple(_vec(v, g) for v in self.eta_coeffs))

    @property
    def g(self):
        return len(self.beta_coeffs[0])

    @property
    def degree(self):
        return max(len(self.beta_coeffs), len(self.eta_coeffs)) - 1

    def coeff(self, which, k):
        coeffs = self.beta_coeffs if which == "beta" else self.eta_coeffs
        if k < len(coeffs):
            return coeffs[k]
        return tuple(Scalar.zero() for _ in range(self.g))

    def at(self, lam):
        beta = [Scalar.zero()] * self.g
        eta = [Scalar.zero()] * self.g
        power = Scalar.one()
        for k in range(max(len(self.beta_coeffs), len(self.eta_coeffs))):
            bk, ek = self.coeff("beta", k), self.coeff("eta", k)
            beta = [x + power * y for x, y in zip(beta, bk)]
            eta = [x + power * y for x, y in zip(eta, ek)]
            power = power * lam
        return HodPoint(beta=tuple(beta), eta=tuple(eta), lam=lam)


def from_harmonic(h: HarmonicLine) -> PolySection:
    return PolySection(beta_coeffs=(h.nu, _cvec(h.theta_prime)),
                       eta_coeffs=(h.theta_prime, tuple(-x for x in _cvec(h.nu))))


# highest coefficient degree a candidate section may carry
_MAX_DEGREE = 4


def classify_invariant_section(candidate: PolySection):
    """Decide equivariance by coefficient identities.

    Returns ("prefered", HarmonicLine) when the candidate is one of the
    family's sections, ("not-invariant", None) otherwise.  The verdict
    ("invariant-but-not-prefered", None) exists only to falsify the
    implementation: the equivariance identities force degree one and the
    coefficient couplings below, which reconstruct a harmonic line.
    """
    if candidate.degree > _MAX_DEGREE:
        raise PreconditionError(f"candidate degree exceeds bound {_MAX_DEGREE}")
    g = candidate.g
    zero = tuple(Scalar.zero() for _ in range(g))

    # pulling the section back along lambda -> -1/conj(lambda) kills every
    # coefficient beyond degree one and couples the remaining four
    for k in range(2, _MAX_DEGREE + 1):
        if candidate.coeff("beta", k) != zero or candidate.coeff("eta", k) != zero:
            return ("not-invariant", None)
    b0, b1 = candidate.coeff("beta", 0), candidate.coeff("beta", 1)
    e0, e1 = candidate.coeff("eta", 0), candidate.coeff("eta", 1)
    if b1 != _cvec(e0) or e1 != tuple(-x for x in _cvec(b0)):
        return ("not-invariant", None)
    h = HarmonicLine(nu=b0, theta_prime=e0)
    recon = from_harmonic(h)
    if (recon.coeff("beta", 0), recon.coeff("beta", 1)) != (b0, b1) or \
       (recon.coeff("eta", 0), recon.coeff("eta", 1)) != (e0, e1):
        return ("invariant-but-not-prefered", None)
    return ("prefered", h)


def harmonic_from_point(p: HodPoint) -> HarmonicLine:
    """Invert h -> prefered_section(h, lam) at the fixed lambda of p."""
    lam = p.lam
    denom = Scalar.one() + lam * lam.conj()
    nu = tuple((b - lam * e.conj()) / denom for b, e in zip(p.beta, p.eta))
    theta = tuple(e + lam * n.conj() for e, n in zip(p.eta, nu))
    return HarmonicLine(nu=nu, theta_prime=theta)
