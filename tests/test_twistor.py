from fractions import Fraction

import pytest

import random

from hodgekit import linalg
from hodgekit.birkhoff import h0_twist, splitting_type
from hodgekit.errors import PreconditionError
from hodgekit.scalars import Scalar
from hodgekit.twistor import (QuaternionicSpace, RealLinearOp, SectionO1,
                              invariant_section_through,
                              invariant_space_real_dimension,
                              inverse_stereographic, quaternionic_sff_space,
                              sigma_section, sphere_combination, stereographic,
                              structure_at, structure_at_closed, twistor_bundle)

from hodgekit.laurent import LaurentPoly
from hodgekit.univariate import RatFunc

from conftest import gauss, sc

I_ = Scalar.i()


def rational_lambdas(count):
    """Distinct gaussian rationals; their sphere images are Pythagorean."""
    out = []
    k = 0
    while len(out) < count:
        u = Fraction(k % 7 - 3, 1 + k % 4)
        v = Fraction((k * 3) % 11 - 5, 1 + (k + 1) % 3)
        lam = Scalar.gaussian(u, v)
        if lam not in out:
            out.append(lam)
        k += 1
    return out


def test_stereographic_fixtures():
    for lam, xyz in [(Scalar.zero(), (1, 0, 0)), (Scalar.one(), (0, 1, 0)),
                     (I_, (0, 0, 1))]:
        pt = stereographic(lam)
        assert (pt.x, pt.y, pt.z) == tuple(Fraction(c) for c in xyz)
        assert inverse_stereographic(pt) == lam
    inf = stereographic(None)
    assert (inf.x, inf.y, inf.z) == (-1, 0, 0)
    assert inverse_stereographic(inf) is None


def test_stereographic_roundtrip():
    for lam in rational_lambdas(25):
        assert inverse_stereographic(stereographic(lam)) == lam


def test_quaternionic_validation():
    with pytest.raises(PreconditionError):
        QuaternionicSpace(1, [[Scalar.one(), Scalar.zero()],
                              [Scalar.zero(), Scalar.one()]])
    qs = QuaternionicSpace.standard(2)
    assert qs.dim == 4


def test_triple_identities():
    qs = QuaternionicSpace.standard(1)
    I, J, K = qs.op_i(), qs.op_j(), qs.op_k()
    minus1 = RealLinearOp.mult(-Scalar.one(), qs.dim)
    assert I.compose(I) == minus1
    assert J.compose(J) == minus1
    assert K.compose(K) == minus1
    assert I.compose(J) == -(J.compose(I))


def test_structure_fixtures():
    qs = QuaternionicSpace.standard(1)
    assert structure_at(qs, Scalar.zero()) == qs.op_i()
    assert structure_at(qs, Scalar.one()) == qs.op_j()
    assert structure_at(qs, I_) == qs.op_k()


def test_sphere_combination_squares_to_minus_one():
    qs = QuaternionicSpace.standard(1)
    minus1 = RealLinearOp.mult(-Scalar.one(), qs.dim)
    for lam in rational_lambdas(100):
        op = sphere_combination(qs, stereographic(lam))
        assert op.compose(op) == minus1


def test_structure_equals_sphere_combination_and_closed_form():
    qs = QuaternionicSpace.standard(1)
    for lam in rational_lambdas(20):
        op = structure_at(qs, lam)
        assert op == structure_at_closed(qs, lam)
        assert op == sphere_combination(qs, stereographic(lam))


def test_antipodal_conjugacy():
    qs = QuaternionicSpace.standard(1)
    count = 0
    for lam in rational_lambdas(30):
        if lam.is_zero:
            continue
        anti = -(lam.conj().inv())
        assert structure_at(qs, anti) == -structure_at(qs, lam)
        count += 1
        if count == 20:
            break
    assert count == 20


def test_sigma_fixtures():
    qs = QuaternionicSpace.standard(1)
    e1 = (Scalar.one(), Scalar.zero())
    s = SectionO1(a=e1, b=(Scalar.zero(), Scalar.zero()))
    img = sigma_section(qs, s)
    assert img.a == (Scalar.zero(), Scalar.zero())
    assert list(img.b) == qs.apply_j(list(e1))
    fixed = SectionO1(a=e1, b=tuple(qs.apply_j(list(e1))))
    assert sigma_section(qs, fixed) == fixed


def test_sigma_involution_random(rng):
    qs = QuaternionicSpace.standard(2)
    for _ in range(20):
        sec = SectionO1(
            a=tuple(gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(4)),
            b=tuple(gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(4)))
        assert sigma_section(qs, sigma_section(qs, sec)) == sec


def test_invariant_section_fixtures():
    qs = QuaternionicSpace(1, [[Scalar.zero(), -Scalar.one()],
                               [Scalar.one(), Scalar.zero()]])
    v = [Scalar.one(), Scalar.zero()]
    sec = invariant_section_through(qs, v, Scalar.zero())
    assert list(sec.a) == v
    sec1 = invariant_section_through(qs, v, Scalar.one())
    assert list(sec1.a) == [sc(Fraction(1, 2)), sc(Fraction(-1, 2))]


def test_invariant_section_uniqueness(rng):
    qs = QuaternionicSpace.standard(2)
    for _ in range(15):
        v = [gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
        lam0 = gauss(rng.randint(-2, 2), rng.randint(-2, 2))
        sec = invariant_section_through(qs, v, lam0)
        assert sec.value_at(lam0) == v
        assert sigma_section(qs, sec) == sec
        # two invariant sections agreeing at one point coincide
        w = sec.value_at(Scalar.one() + lam0)
        sec2 = invariant_section_through(qs, w, Scalar.one() + lam0)
        assert sec2 == sec


def test_invariant_space_dimension():
    for r in (1, 2, 3):
        qs = QuaternionicSpace.standard(r)
        assert invariant_space_real_dimension(qs) == 4 * r


def test_twistor_bundle_purity():
    for r in (1, 2):
        qs = QuaternionicSpace.standard(r)
        b = twistor_bundle(qs)
        assert splitting_type(b) == [1] * (2 * r)
        assert h0_twist(b, 0) == 4 * r


def test_twistor_bundle_nonstandard_j():
    i = Scalar.i()
    # J_m conj(J_m) = +1 here, so this is not a quaternionic structure
    with pytest.raises(PreconditionError):
        QuaternionicSpace(1, [[i, Scalar.zero()], [Scalar.zero(), i]])
    # two genuinely different structures satisfying J_m conj(J_m) = -1
    for jm in ([[Scalar.zero(), i], [-i, Scalar.zero()]],
               [[Scalar.zero(), sc(-2)], [sc(Fraction(1, 2)), Scalar.zero()]]):
        qs = QuaternionicSpace(1, jm)
        assert splitting_type(twistor_bundle(qs)) == [1, 1]
        assert invariant_space_real_dimension(qs) == 4


def elimination_transition(qs):
    """Oracle for ``twistor_bundle``: the transition matrix by exact
    elimination over Q(i)(lambda).  Column j of T solves M x = (0, e_j) for
    the frame matrix M (moving frame, then constant complement), so T is
    the lower right block of M^(-1) and G = T^(-1)."""
    n = qs.dim
    one, zero = RatFunc([1]), RatFunc([])
    ilam = RatFunc([Scalar.zero(), Scalar.i()])
    top = [[ilam * RatFunc([qs.jm[i][j]]) for j in range(n)]
           + [one if i == j else zero for j in range(n)] for i in range(n)]
    bot = [[one if i == j else zero for j in range(n)] + [zero] * n
           for i in range(n)]
    tmat = [row[n:] for row in linalg.invert(top + bot, one, zero)[n:]]
    ginv = linalg.invert(tmat, one, zero)
    out = []
    for row in ginv:
        out.append([])
        for rf in row:
            # every entry is c / lambda^k, i.e. the Laurent monomial c z^-k
            k = len(rf.den) - 1
            assert all(c.is_zero for c in rf.den[:-1])
            lead = rf.den[-1].inv()
            out[-1].append(LaurentPoly(1, {(t - k,): c * lead
                                           for t, c in enumerate(rf.num)}))
    return out


def random_quaternionic(rng, r):
    """J' = P J_std conj(P)^(-1) for a random invertible gaussian P."""
    std = QuaternionicSpace.standard(r).jm
    n = 2 * r
    while True:
        p = [[Scalar.gaussian(rng.randint(-2, 2), rng.randint(-2, 2))
              for _ in range(n)] for _ in range(n)]
        try:
            pbar_inv = linalg.invert([[x.conj() for x in row] for row in p],
                                     Scalar.one(), Scalar.zero())
        except PreconditionError:
            continue
        return QuaternionicSpace(r, linalg.mat_mul(linalg.mat_mul(p, std), pbar_inv))


def test_twistor_bundle_matches_elimination_oracle():
    rng = random.Random(404)
    for k in range(20):
        qs = random_quaternionic(rng, 1 + k % 3)
        b = twistor_bundle(qs)
        assert linalg.mat_eq(b.entries, elimination_transition(qs))
        assert splitting_type(b) == [1] * qs.dim


def test_bundle_frames_are_structure_eigenvectors():
    # the moving frame (i lam J_m e_j, e_j) spanning the bundle fibers is
    # the -i eigenspace of the complexified structure operator I_lambda
    qs = QuaternionicSpace.standard(1)
    n = qs.dim
    i = I_
    for lam in (Scalar.gaussian(2, -1), gauss("1/2", "1/3"), Scalar.one()):
        dbl = doubled(structure_at(qs, lam))
        for j in range(n):
            ej = [Scalar.one() if k == j else Scalar.zero() for k in range(n)]
            top = [i * lam * sum((qs.jm[r][k] * ej[k] for k in range(n)),
                                 Scalar.zero()) for r in range(n)]
            vec = top + ej
            img = [sum((dbl[r][c] * vec[c] for c in range(2 * n)),
                       Scalar.zero()) for r in range(2 * n)]
            assert img == [(-i) * x for x in vec]


def test_sff_dimensions():
    assert quaternionic_sff_space(1, 1) == 0
    assert quaternionic_sff_space(1, 2) == 0
    assert quaternionic_sff_space(1, 1, constraints="complex") > 0
    assert quaternionic_sff_space(2, 1, constraints="complex") > 0


def doubled(op):
    """The 2n x 2n complex matrix of ``op`` acting on (w, conj w)."""
    pbar = [[x.conj() for x in row] for row in op.p]
    qbar = [[x.conj() for x in row] for row in op.q]
    return ([p + q for p, q in zip(op.p, op.q)]
            + [q + p for q, p in zip(qbar, pbar)])


def conjugate_i_by_inverse(qs, g):
    """g^(-1) I g, with g^(-1) read off ``linalg.invert`` of the doubled
    matrix of g."""
    n = qs.dim
    dbl = linalg.invert(doubled(g), Scalar.one(), Scalar.zero())
    ginv = RealLinearOp([row[:n] for row in dbl[:n]], [row[n:] for row in dbl[:n]])
    return ginv.compose(qs.op_i()).compose(g)


def structure_by_inverse(qs, lam):
    """Oracle for ``structure_at``: g = 1 - uK + vJ with K = I o J."""
    k = qs.op_i().compose(qs.op_j())
    g = (RealLinearOp.identity(qs.dim) - k.scale(lam.re)
         + qs.op_j().scale(lam.im))
    return conjugate_i_by_inverse(qs, g)


def closed_structure_by_inverse(qs, lam):
    """Oracle for ``structure_at_closed``: g = 1 - (i lam) o J."""
    g = (RealLinearOp.identity(qs.dim)
         - RealLinearOp.mult(I_ * lam, qs.dim).compose(qs.op_j()))
    return conjugate_i_by_inverse(qs, g)


def section_by_inverse(qs, v, lam0, real):
    """a with a + lam0 J_m conj(a) = v, by inverting the doubled system."""
    n = qs.dim
    one, zero = Scalar.one(), Scalar.zero()
    ident = linalg.identity(n, one, zero)
    top = [ident[i] + [lam0 * x for x in qs.jm[i]] for i in range(n)]
    bot = [[(lam0 * x).conj() for x in qs.jm[i]] + ident[i] for i in range(n)]
    rhs = [[x] for x in v + [x.conj() for x in v]]
    x = real.mat_mul(real.invert(top + bot, one, zero), rhs)
    return [row[0] for row in x[:n]]


def test_invariant_section_solves_instead_of_inverting(forbid_inverse):
    rng = random.Random(505)
    cases = []
    for k in range(12):
        qs = random_quaternionic(rng, 1 + k % 2)
        v = [gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(qs.dim)]
        lam0 = gauss(rng.randint(-2, 2), rng.randint(-2, 2))
        cases.append((qs, v, lam0, section_by_inverse(qs, v, lam0, forbid_inverse)))
    forbid_inverse.forbid()
    for qs, v, lam0, want in cases:
        assert list(invariant_section_through(qs, v, lam0).a) == want


ZETA8_PLUS_1 = Scalar.zeta(8) + Scalar.one()


def oracle_lambdas(rng):
    """0, 1, i, -i and one random gaussian."""
    return [Scalar.zero(), Scalar.one(), I_, -I_,
            Scalar.gaussian(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                            Fraction(rng.randint(-5, 5), rng.randint(1, 4)))]


def test_closed_forms_match_the_elimination_oracles():
    rng = random.Random(606)
    for k in range(9):
        qs = random_quaternionic(rng, 1 + k % 3)
        assert qs.op_k() == qs.op_i().compose(qs.op_j())
        lams = oracle_lambdas(rng)
        for lam in lams:
            assert structure_at(qs, lam) == structure_by_inverse(qs, lam)
        for lam in lams + [ZETA8_PLUS_1]:
            assert structure_at_closed(qs, lam) == closed_structure_by_inverse(qs, lam)
            v = [gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(qs.dim)]
            sec = invariant_section_through(qs, v, lam)
            assert list(sec.a) == section_by_inverse(qs, v, lam, linalg)


def test_closed_forms_run_no_elimination(monkeypatch):
    rng = random.Random(607)
    cases = []
    for r in (1, 2, 3):
        qs = random_quaternionic(rng, r)
        lam = oracle_lambdas(rng)[-1]
        v = [gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(qs.dim)]
        cases.append((qs, lam, v, structure_by_inverse(qs, lam),
                      closed_structure_by_inverse(qs, ZETA8_PLUS_1),
                      section_by_inverse(qs, v, lam, linalg)))

    def refuse(*args):
        raise AssertionError("eliminated instead of using the quaternion relations")
    for name in ("invert", "solve", "echelon"):
        monkeypatch.setattr(linalg, name, refuse)
    for qs, lam, v, op, closed, a in cases:
        assert structure_at(qs, lam) == op
        assert structure_at_closed(qs, ZETA8_PLUS_1) == closed
        assert list(invariant_section_through(qs, v, lam).a) == a


def test_twistor_bundle_hands_over_the_determinant(monkeypatch):
    rng = random.Random(405)
    spaces = [QuaternionicSpace.standard(r) for r in (1, 2, 3)]
    spaces += [random_quaternionic(rng, 1 + k % 3) for k in range(6)]
    real = linalg.det_ring
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)
    monkeypatch.setattr(linalg, "det_ring", counted)
    bundles = [twistor_bundle(qs) for qs in spaces]
    assert calls == []
    # det_ring as the oracle: det G = det(-i conj J_m) z^-n, a unit
    for qs, b in zip(spaces, bundles):
        det = real(b.entries, LaurentPoly.one(1))
        assert det.is_unit and not det.is_zero
        assert b.det_exp == next(iter(det.terms))[0] == -qs.dim
        assert splitting_type(b) == [1] * qs.dim
