"""Seeded property battery behind the CLI selftest verb.

Each check is a named callable taking a seeded RNG; it raises on failure.
The pytest suite runs the same battery (plus much more), so this is the
quick in-the-field consistency probe, not the acceptance gate.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import Scalar
from .laurent import LaurentPoly
from . import linalg
from .univariate import RatFunc
from .birkhoff import P1Bundle, section_basis, splitting_type
from .rees import FilteredSpace, build_rees, fiber, recover_filtration
from .twistor import (QuaternionicSpace, RealLinearOp, sphere_combination,
                      stereographic, structure_at, structure_at_closed)
from .lambda_family import (HarmonicLine, from_harmonic,
                            classify_invariant_section, prefered_section,
                            sigma_prime)
from .jump_loci import CWPresentation, betti_dims
from .gm_action import (ProjPoint, WeightedAction, decompose,
                        membership, orbit_equivalent)
from .langton import DiskFamily, generic_splitting, langton_reduce


def random_scalar(rng, small=6):
    return Scalar.gaussian(Fraction(rng.randint(-small, small),
                                    rng.randint(1, 4)),
                           Fraction(rng.randint(-small, small),
                                    rng.randint(1, 4)))


def random_nonzero_scalar(rng):
    while True:
        s = random_scalar(rng)
        if not s.is_zero:
            return s


def random_laurent(rng, rank, nterms=3, spread=2):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(-spread, spread) for _ in range(rank))
        terms[exp] = random_scalar(rng)
    return LaurentPoly(rank, terms)


def random_filtration(rng, max_dim=6, max_len=4):
    n = rng.randint(1, max_dim)
    vecs = []
    while len(vecs) < n:
        v = [random_scalar(rng, 3) for _ in range(n)]
        if linalg.rank(vecs + [v]) == len(vecs) + 1:
            vecs.append(v)
    p_min = rng.randint(-2, 2)
    length = rng.randint(1, max_len)
    cuts = sorted(rng.randint(0, n) for _ in range(length - 1))
    dims = [n] + [n - c for c in cuts]
    steps = {}
    for k, d in enumerate(dims):
        steps[p_min + k] = [list(v) for v in vecs[:d]] if d else []
    return FilteredSpace(n, steps)


def random_unimodular_z(rng, n, chart, ops=3):
    """Product of elementary matrices over Q[z] (chart=+1) or Q[1/z] (-1)."""
    one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
    mat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = chart * rng.randint(0, 1)
        coeff = Scalar.rational(rng.randint(-2, 2))
        if coeff.is_zero:
            continue
        add = LaurentPoly(1, {(e,): coeff})
        for k in range(n):
            mat[i][k] = mat[i][k] + add * mat[j][k]
    return mat


# -- individual checks ----------------------------------------------------


def _check(ok, what):
    """Fail the check naming the property; unlike ``assert``, this also
    runs under ``python -O``."""
    if not ok:
        raise AssertionError(what)


def check_scalar_field_axioms(rng):
    for _ in range(40):
        a, b, c = (random_scalar(rng) for _ in range(3))
        _check((a + b) * c == a * c + b * c, "distributivity")
        _check((a * b) * c == a * (b * c), "associativity")
        _check(b.is_zero or (a / b) * b == a, "division")
        _check(a.conj().conj() == a, "conjugation is an involution")
        _check((a * b).conj() == a.conj() * b.conj(), "conjugation is a hom")


def check_eval_character_hom(rng):
    for _ in range(20):
        rank = rng.randint(1, 3)
        p = random_laurent(rng, rank)
        q = random_laurent(rng, rank)
        rho = [random_nonzero_scalar(rng) for _ in range(rank)]
        _check((p * q).eval_character(rho) ==
               p.eval_character(rho) * q.eval_character(rho), "homomorphism")


def check_rank_symmetries(rng):
    for _ in range(10):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[random_scalar(rng, 3) for _ in range(cols)] for _ in range(rows)]
        _check(linalg.rank(m) == linalg.rank(linalg.transpose(m)), "transpose")
        perm = list(range(rows))
        rng.shuffle(perm)
        _check(linalg.rank([m[i] for i in perm]) == linalg.rank(m), "rows")


def check_snf_determinant(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        e = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        u, d, v = linalg.smith_normal_form(e)
        prod = 1
        for i in range(n):
            prod *= d[i][i]
        _check(abs(prod) == abs(linalg.det_ring(e, 1)), "|det D| = |det E|")
        _check(abs(linalg.det_ring(u, 1)) == 1, "U unimodular")
        _check(abs(linalg.det_ring(v, 1)) == 1, "V unimodular")


def check_birkhoff_roundtrip(rng):
    for _ in range(6):
        n = rng.randint(1, 3)
        exps = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        diag = [[LaurentPoly.monomial(1, (-a,), 1) if i == j
                 else LaurentPoly.zero(1) for j in range(n)]
                for i, a in enumerate(exps)]
        left = random_unimodular_z(rng, n, chart=-1)
        right = random_unimodular_z(rng, n, chart=+1)
        g = linalg.mat_mul(linalg.mat_mul(left, diag), right)
        b = P1Bundle(g)
        _check(splitting_type(b) == exps, "splitting type")
        for m in range(-exps[0] - 1, -exps[-1] + 2):  # where h0 can jump
            sections = section_basis(b, m)
            _check(len(sections) == sum(max(0, x + m + 1) for x in exps),
                   "h0 count")
            for v in sections:   # polynomial, and G v has z-degree <= m
                gv = [x for (x,) in linalg.mat_mul(g, [[x] for x in v])]
                _check(all(x.is_zero or min(x.terms) >= (0,) for x in v) and
                       all(x.is_zero or max(x.terms) <= (m,) for x in gv),
                       "section degrees")


def check_rees_roundtrip(rng):
    for _ in range(10):
        fs = random_filtration(rng)
        rm = build_rees(fs)
        _check(recover_filtration(rm).equal(fs), "filtration recovered")
        _check(sum(fiber(rm, 0).values()) == fiber(rm, 1), "fiber dimensions")


def check_twistor_identities(rng):
    qs = QuaternionicSpace.standard(1)
    minus1 = RealLinearOp.mult(-Scalar.one(), qs.dim)
    for _ in range(6):
        lam = random_scalar(rng, 3)
        op = structure_at(qs, lam)
        _check(op.compose(op) == minus1, "J^2 = -1")
        _check(op == structure_at_closed(qs, lam), "closed form")
        _check(op == sphere_combination(qs, stereographic(lam)), "sphere form")


def check_sigma_prime_invariance(rng):
    for _ in range(10):
        g = rng.randint(1, 3)
        h = HarmonicLine(nu=tuple(random_scalar(rng) for _ in range(g)),
                         theta_prime=tuple(random_scalar(rng) for _ in range(g)))
        lam = random_nonzero_scalar(rng)
        _check(sigma_prime(prefered_section(h, lam)) ==
               prefered_section(h, -(lam.conj().inv())), "sigma' invariance")
        _check(classify_invariant_section(from_harmonic(h)) == ("prefered", h),
               "classification")


def check_jump_euler(rng):
    for _ in range(10):
        a = rng.randint(1, 2)
        m = rng.randint(1, 3)
        l = rng.randint(1, 3)
        mat = tuple(tuple(_int_laurent(rng, a) for _ in range(m)) for _ in range(l))
        p = CWPresentation(a=a, m=m, l=l, matrix=mat)
        rho = [rng.choice([Scalar.rational(2), -Scalar.one(), Scalar.i()])
               for _ in range(a)]
        h2, h3 = betti_dims(p, rho)
        _check(h2 - h3 == m - l, "Euler characteristic")


def _int_laurent(rng, rank):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(-1, 1) for _ in range(rank))
        terms[exp] = Scalar.rational(rng.randint(-2, 2))
    return LaurentPoly(rank, terms)


def check_gm_membership(rng):
    action = WeightedAction([0, 1, 2], Fraction(-1, 2))
    dec = decompose(action)
    pool = [Scalar.zero(), Scalar.one(), Scalar.rational(2), -Scalar.one()]
    upoints = []
    for _ in range(60):
        try:
            pt = ProjPoint([rng.choice(pool) for _ in range(3)])
        except Exception:
            continue
        status = membership(action, dec, pt)  # asserts Y+/Y- disjointness
        if status == "in_U":
            upoints.append(pt)
    for pt in upoints[:10]:
        _check(orbit_equivalent(action, pt, pt), "reflexive")
        t = Scalar.rational(rng.randint(2, 5))
        _check(orbit_equivalent(action, pt, action.act(t, pt)), "t.x ~ x")


def check_langton_fixture(rng):
    one = RatFunc([1])
    s = RatFunc.var()
    fam = DiskFamily([[LaurentPoly(1, {(1,): one}), LaurentPoly(1, {(0,): s})],
                      [LaurentPoly.zero(1), LaurentPoly(1, {(-1,): one})]])
    out, trail, certs = langton_reduce(fam)
    _check(len(certs) == 1, "one step")
    _check(trail[-1].special_type == (0, 0), "special fiber balanced")
    _check(generic_splitting(out) == [0, 0], "generic fiber kept")


CHECKS = [
    ("scalar-field-axioms", check_scalar_field_axioms),
    ("eval-character-homomorphism", check_eval_character_hom),
    ("rank-symmetries", check_rank_symmetries),
    ("snf-determinant", check_snf_determinant),
    ("birkhoff-roundtrip", check_birkhoff_roundtrip),
    ("rees-roundtrip", check_rees_roundtrip),
    ("twistor-identities", check_twistor_identities),
    ("sigma-prime-invariance", check_sigma_prime_invariance),
    ("jump-loci-euler", check_jump_euler),
    ("gm-membership", check_gm_membership),
    ("langton-fixture", check_langton_fixture),
]


def run_selftest(seed: int):
    """Run the battery; returns a list of {name, passed, detail}."""
    results = []
    for name, fn in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            fn(rng)
            results.append({"name": name, "passed": True})
        except Exception as ex:  # noqa: BLE001 - report, don't crash
            results.append({"name": name, "passed": False,
                            "detail": f"{type(ex).__name__}: {ex}"})
    return results
