"""Seeded input generators for the three workloads (standard library only).

Every item carries its expected answer, fixed by construction: the
generator builds the answer first and the input around it (a splitting
type wrapped in unimodular chart changes, a rank hidden between two
unimodular factors, ...).  Nothing here imports hodgekit, so a change to
the library cannot move the inputs.

An item is a dict with
  ``kind``    the stratum, e.g. "langton.reduce/n3a2";
  ``argv``    the CLI arguments (``ratfunc`` and ``cli-small``), or
  ``wire``    wire-v1 JSON for a direct library call (``purity``);
  ``expect``  what ``check.check`` compares the answer against.

Items are drawn round-robin over a fixed schedule of strata.  Item k takes
its shape (sizes, weight multisets, where the elementary operations act)
from k alone and its numbers (multipliers, scalars, orderings) from the
seed, so runs with different seeds do the same kind and amount of work.
``stream`` never yields the same request twice.
"""

from __future__ import annotations

import json
import random
import zlib
from fractions import Fraction
from itertools import count

from stdq import (G, elementary_pair, gmat_mul, identity, mat_str, padd,
                  peval, pmat_mul, pmono, pconst, pmul, vec_str)

# small nonzero multipliers for elementary operations
INT_COEFFS = (-3, -2, -1, 1, 2, 3)
WIDE_COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)
GAUSS_COEFFS = (G(1), G(-1), G(2), G(0, 1), G(0, -1), G(1, 1))


def _cli(kind, sub, verb, payload, expect):
    return {"kind": kind, "argv": [sub, verb, "--inline", json.dumps(payload)],
            "expect": expect}


def _small(rng, top=9):
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _gauss(rng, top=9):
    return G(_small(rng, top), _small(rng, top))


def _nonzero(rng, top=9):
    while True:
        g = _gauss(rng, top)
        if not g.is_zero:
            return g


def _factors(rng, coeffs, exps, nvars=1):
    """One monomial factor c * z^e per exponent in ``exps`` (first variable)."""
    return [pmono(rng.choice(coeffs), (e,) + (0,) * (nvars - 1)) for e in exps]


def _gauss_int_pair(rng, n, ops, shape=None):
    """Unimodular n x n matrix over Z[i] and its inverse, as G matrices;
    ``shape`` (default ``rng``) places the elementary operations."""
    m, minv = elementary_pair(shape or rng, n, _factors(rng, GAUSS_COEFFS, [0] * ops))
    return _consts(m), _consts(minv)


def _int_pair(rng, n, ops):
    m, minv = elementary_pair(rng, n, _factors(rng, INT_COEFFS, [0] * ops))
    return _consts(m), _consts(minv)


def _consts(m):
    return [[x.get((0,), G(0)) for x in row] for row in m]


def _j_std(r):
    n = 2 * r
    jm = [[G(0)] * n for _ in range(n)]
    for k in range(r):
        jm[2 * k][2 * k + 1] = G(-1)
        jm[2 * k + 1][2 * k] = G(1)
    return jm


def _quaternionic_j(rng, r):
    """J_m = P J_std P^-1 for an integer unimodular P: still J conj(J) = -1.

    Here ``rng`` also places the operations: with fixed places too few
    distinct J_m would exist for r = 1."""
    p, pinv = _int_pair(rng, 2 * r, 2 * r + 3)
    return gmat_mul(gmat_mul(p, _j_std(r)), pinv)


def _weights(rng, shape, n, lo, hi):
    """n integers in lo..hi: the multiset from ``shape``, the order from ``rng``."""
    w = [shape.randint(lo, hi) for _ in range(n)]
    rng.shuffle(w)
    return w


def _filtration(rows, weights):
    """Wire filtration with F^p spanned by the rows of weight >= p."""
    return {"dim": len(rows),
            "steps": [{"p": p, "basis": [vec_str(v) for v, w in zip(rows, weights)
                                         if w >= p]}
                      for p in range(min(weights), max(weights) + 1)]}


def _laurent_terms(poly):
    return [{"exp": list(e), "coeff": str(c)} for e, c in sorted(poly.items())]


# -- ratfunc: langton reduce over Q(s), plus twistor bundles ------------


def _family_entry(poly):
    """{(z exponent, s exponent): G} -> wire Laurent term list over Q[s]."""
    by_z = {}
    for (ez, es), c in poly.items():
        by_z.setdefault(ez, {})[es] = c
    out = []
    for ez in sorted(by_z):
        coeffs = by_z[ez]
        num = [str(coeffs.get(k, G(0))) for k in range(max(coeffs) + 1)]
        out.append({"zexp": ez, "coeff": {"num": num, "den": ["1"]}})
    return out


def langton_item(n, a):
    """T = A(1/z) E(z, s) C(z) with E = [[z^a, c s], [0, z^-a]] + I.

    The special fiber is A diag(z^a, z^-a, 1, ...) C, of type
    (a, 0, ..., 0, -a); the generic fiber is balanced, so Langton's
    reduction must end at (0, ..., 0).  ``shape`` places the elementary
    operations of A and C; ``rng`` picks c and their multipliers.
    """
    def make(rng, shape):
        c = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        e = identity(n, pconst(1, 2), {})
        e[0][0] = pmono(1, (a, 0))
        e[0][1] = pmono(c, (0, 1))
        e[1][1] = pmono(1, (-a, 0))
        left, _ = elementary_pair(shape, n, _factors(rng, WIDE_COEFFS, (-1,), 2), 2)
        right, _ = elementary_pair(shape, n, _factors(rng, WIDE_COEFFS, (1,), 2), 2)
        t = pmat_mul(pmat_mul(left, e), right)
        fam = {"rank": n, "entries": [[_family_entry(x) for x in row] for row in t]}
        special = [a] + [0] * (n - 2) + [-a]
        return _cli(f"langton.reduce/n{n}a{a}", "langton", "reduce",
                    {"family": fam}, {"special": special})
    return make


def twistor_bundle_item(r):
    def make(rng, _shape):
        jm = _quaternionic_j(rng, r)
        return _cli(f"twistor.bundle/r{r}", "twistor", "bundle",
                    {"r": r, "J": mat_str(jm)}, {"splitting": [1] * (2 * r)})
    return make


# -- purity: rees_p1 on filtration pairs, splitting types on P^1 --------


def rees_pair_item(n, split):
    """F and Fbar on C^n.  Split by one basis, the type is the sorted
    p_i + q_i; in general position only its sum is fixed."""
    def make(rng, shape):
        b1, _ = _gauss_int_pair(rng, n, n + 2, shape)
        b2 = b1 if split else _gauss_int_pair(rng, n, n + 2, shape)[0]
        p = _weights(rng, shape, n, 0, 2)
        q = _weights(rng, shape, n, 0, 2)
        wire = {"F": _filtration(b1, p), "Fbar": _filtration(b2, q)}
        if split:
            expect = {"splitting": sorted((x + y for x, y in zip(p, q)), reverse=True)}
        else:
            expect = {"rank": n, "sum": sum(p) + sum(q)}
        tag = "split" if split else "general"
        return {"kind": f"rees_p1/{tag}/n{n}", "wire": wire, "expect": expect}
    return make


def splitting_item(n):
    """G = L(1/z) diag(z^-a_i) R(z): its splitting type is sorted(a)."""
    def make(rng, shape):
        a = _weights(rng, shape, n, -2, 2)
        left, _ = elementary_pair(shape, n, _factors(rng, GAUSS_COEFFS, (-1, -1)))
        right, _ = elementary_pair(shape, n, _factors(rng, GAUSS_COEFFS, (1, 1)))
        d = identity(n, {}, {})
        for i, ai in enumerate(a):
            d[i][i] = pmono(1, (-ai,))
        g = pmat_mul(pmat_mul(left, d), right)
        wire = {"rank": n, "var": "z", "field": "gaussian",
                "entries": [[[{"exp": e, "coeff": str(c)} for (e,), c in sorted(x.items())]
                             for x in row] for row in g]}
        return {"kind": f"splitting_type/n{n}", "wire": wire,
                "expect": {"splitting": sorted(a, reverse=True)}}
    return make


# -- cli-small: one small request per verb --------------------------------


def rings_conj(rng, _shape):
    s = _gauss(rng)
    return _cli("rings.conj", "rings", "conj", {"scalar": str(s)},
                {"scalar": str(s.conj())})


def rings_eval(rng, shape):
    nv = shape.randint(1, 2)
    poly = {}
    for _ in range(3):
        poly = padd(poly, pmono(_gauss(rng, 4), [rng.randint(-2, 2) for _ in range(nv)]))
    rho = [_nonzero(rng, 4) for _ in range(nv)]
    return _cli("rings.eval", "rings", "eval",
                {"poly": _laurent_terms(poly), "rho": vec_str(rho)},
                {"scalar": str(peval(poly, rho))})


def rings_rank(rng, shape):
    rows, cols = shape.randint(2, 3), shape.randint(2, 3)
    r = shape.randint(1, min(rows, cols))
    p, _ = _gauss_int_pair(rng, rows, rows + 1)
    q, _ = _gauss_int_pair(rng, cols, cols + 1)
    d = [[G(1) if i == j and i < r else G(0) for j in range(cols)] for i in range(rows)]
    m = gmat_mul(gmat_mul(p, d), q)
    return _cli("rings.rank", "rings", "rank", {"matrix": mat_str(m)}, {"rank": r})


def rings_minors(rng, shape):
    k = shape.randint(1, 2)
    m = [[{} for _ in range(2)] for _ in range(2)]
    for row in m:
        for j in range(2):
            for _ in range(rng.randint(1, 2)):
                row[j] = padd(row[j], pmono(rng.choice(INT_COEFFS), (rng.randint(-1, 1),)))
    if k == 1:
        mins = [x for row in m for x in row]
    else:
        mins = [padd(pmul(m[0][0], m[1][1]),
                     pmul(pmul(m[0][1], m[1][0]), pconst(-1, 1)))]
    return _cli("rings.minors", "rings", "minors",
                {"vars": 1, "k": k, "matrix": [[_laurent_terms(x) for x in row] for row in m]},
                {"minors": [_laurent_terms(x) for x in mins]})


def rings_snf(rng, shape):
    n = shape.randint(2, 3)
    diag, d = [], rng.randint(1, 3)
    for _ in range(n):
        diag.append(d)
        d *= rng.randint(1, 3)
    p, _ = _int_pair(rng, n, n + 1)
    q, _ = _int_pair(rng, n, n + 1)
    dm = [[G(diag[i]) if i == j else G(0) for j in range(n)] for i in range(n)]
    m = [[int(x.re) for x in row] for row in gmat_mul(gmat_mul(p, dm), q)]
    return _cli("rings.snf", "rings", "snf", {"matrix": m},
                {"matrix": m, "diag": diag})


def rees_build(rng, shape):
    n = shape.randint(2, 3)
    b, _ = _gauss_int_pair(rng, n, n + 1)
    w = [rng.randint(-1, 2) for _ in range(n)]
    return _cli("rees.build", "rees", "build", {"filtration": _filtration(b, w)},
                {"weights": sorted(w, reverse=True)})


def rees_fiber(rng, shape):
    n = shape.randint(2, 4)
    b, _ = _gauss_int_pair(rng, n, n + 1)
    w = sorted((rng.randint(-1, 2) for _ in range(n)), reverse=True)
    point = rng.randint(0, 1)
    if point:
        expect = {"dim": n}
    else:
        expect = {"grades": {str(p): w.count(p) for p in sorted(set(w))}}
    return _cli("rees.fiber", "rees", "fiber",
                {"rees": {"weights": w, "basis": mat_str(b)}, "point": point}, expect)


def rees_recover(rng, shape):
    n = shape.randint(2, 3)
    b, _ = _gauss_int_pair(rng, n, n + 1)
    w = sorted((rng.randint(-1, 2) for _ in range(n)), reverse=True)
    return _cli("rees.recover", "rees", "recover",
                {"rees": {"weights": w, "basis": mat_str(b)}},
                {"weights": w, "basis": mat_str(b)})


def rees_griffiths(rng, shape):
    """nabla = B M B^-1 in an adapted basis; transversal exactly when M
    only lowers the weight by at most one."""
    n = shape.randint(2, 3)
    b, binv = _gauss_int_pair(rng, n, n + 1)
    w = [rng.randint(0, 2) for _ in range(n)]
    w[0], w[1] = 0, 2  # room for a violation: some pair two weights apart
    transversal = rng.random() < 0.5
    mats = []
    for _ in range(shape.randint(1, 2)):
        m = [[_gauss(rng, 3) if w[i] >= w[j] - 1 else G(0) for j in range(n)]
             for i in range(n)]
        mats.append(m)
    if not transversal:
        mats[-1][0][1] = _nonzero(rng, 3)  # sends weight 2 into weight 0
    bcols = [list(col) for col in zip(*b)]
    binv_t = [list(col) for col in zip(*binv)]
    nabla = [mat_str(gmat_mul(gmat_mul(bcols, m), binv_t)) for m in mats]
    return _cli("rees.griffiths", "rees", "griffiths",
                {"filtration": _filtration(b, w), "nabla": nabla},
                {"transversal": transversal})


def twistor_structure(rng, _shape):
    jm = _quaternionic_j(rng, 1)
    lam = _gauss(rng, 4)
    return _cli("twistor.structure", "twistor", "structure",
                {"r": 1, "J": mat_str(jm), "lambda": str(lam)},
                {"lambda": str(lam), "J": mat_str(jm)})


def twistor_section(rng, _shape):
    jm = _quaternionic_j(rng, 1)
    v = [_gauss(rng, 4) for _ in range(2)]
    lam0 = _gauss(rng, 4)
    return _cli("twistor.section", "twistor", "section",
                {"r": 1, "J": mat_str(jm), "v": vec_str(v), "lambda0": str(lam0)},
                {"J": mat_str(jm), "v": vec_str(v), "lambda0": str(lam0)})


def _hodpoint(beta, eta, lam):
    return {"beta": vec_str(beta), "eta": vec_str(eta), "lambda": str(lam)}


def lambda_pref(rng, shape):
    g = shape.randint(1, 2)
    nu = [_gauss(rng) for _ in range(g)]
    th = [_gauss(rng) for _ in range(g)]
    lam = _gauss(rng)
    beta = [x + lam * t.conj() for x, t in zip(nu, th)]
    eta = [t - lam * x.conj() for x, t in zip(nu, th)]
    return _cli("lambda.pref", "lambda", "pref",
                {"line": {"g": g, "nu": vec_str(nu), "thetaPrime": vec_str(th)},
                 "lambda": str(lam)}, _hodpoint(beta, eta, lam))


def lambda_sigma(rng, shape):
    g = shape.randint(1, 2)
    beta = [_gauss(rng) for _ in range(g)]
    eta = [_gauss(rng) for _ in range(g)]
    lam = _nonzero(rng)
    lbar_inv = lam.conj().inv()
    return _cli("lambda.sigma", "lambda", "sigma", {"point": _hodpoint(beta, eta, lam)},
                _hodpoint([-(lbar_inv * x.conj()) for x in eta],
                          [lbar_inv * x.conj() for x in beta], -lbar_inv))


def lambda_act(rng, shape):
    g = shape.randint(1, 2)
    beta = [_gauss(rng) for _ in range(g)]
    eta = [_gauss(rng) for _ in range(g)]
    lam, t = _gauss(rng), _nonzero(rng)
    return _cli("lambda.act", "lambda", "act",
                {"t": str(t), "point": _hodpoint(beta, eta, lam)},
                _hodpoint(beta, [t * x for x in eta], t * lam))


def lambda_classify(rng, shape):
    g = shape.randint(1, 2)
    nu = [_gauss(rng) for _ in range(g)]
    th = [_gauss(rng) for _ in range(g)]
    beta = [nu, [t.conj() for t in th]]
    eta = [th, [-x.conj() for x in nu]]
    if rng.random() < 0.5:
        expect = {"verdict": "prefered",
                  "line": {"g": g, "nu": vec_str(nu), "thetaPrime": vec_str(th)}}
    else:
        eta[1][0] = eta[1][0] + _nonzero(rng)
        expect = {"verdict": "not-invariant"}
    return _cli("lambda.classify", "lambda", "classify",
                {"beta": [vec_str(v) for v in beta], "eta": [vec_str(v) for v in eta]},
                expect)


def _cw(rng, shape):
    """A = P(t) D Q(t), P and Q unimodular over Z[t^+-1]: rank D everywhere."""
    nv, m, l = shape.randint(1, 2), shape.randint(2, 3), shape.randint(2, 3)
    r = shape.randint(1, min(m, l))

    def unimodular(size):
        factors = [pmono(rng.choice(INT_COEFFS), [rng.randint(-1, 1) for _ in range(nv)])
                   for _ in range(size)]
        return elementary_pair(rng, size, factors, nv)[0]

    p, q = unimodular(l), unimodular(m)
    d = [[pconst(1, nv) if i == j and i < r else {} for j in range(m)] for i in range(l)]
    a = pmat_mul(pmat_mul(p, d), q)
    cw = {"a": nv, "m": m, "l": l, "A": [[_laurent_terms(x) for x in row] for row in a]}
    return cw, a, nv, m, l, r


def jumploci_dims(rng, shape):
    cw, _, nv, m, l, r = _cw(rng, shape)
    while True:
        rho = [_nonzero(rng, 3) for _ in range(nv)]
        if any(x != 1 for x in rho):
            break
    return _cli("jumploci.dims", "jumploci", "dims", {"cw": cw, "rho": vec_str(rho)},
                {"h2": m - r, "h3": l - r})


def jumploci_ideal(rng, shape):
    cw, a, _, m, _, _ = _cw(rng, shape)
    seen, gens = set(), []
    for row in a:
        for x in row:
            key = tuple(sorted(x.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                gens.append(x)
    return _cli("jumploci.ideal", "jumploci", "ideal", {"cw": cw, "k": m},
                {"generators": [_laurent_terms(x) for x in gens]})


def _action(rng, shape):
    n = shape.randint(3, 4)
    weights = [rng.randint(-2, 2) for _ in range(n)]
    while True:
        a = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        if all(a != -w for w in weights):
            return weights, a


def _point(rng, n):
    while True:
        pt = [_gauss(rng, 3) if rng.random() < 0.75 else G(0) for _ in range(n)]
        if any(not x.is_zero for x in pt):
            return pt


def _normalize(pt):
    lead = next(x for x in pt if not x.is_zero).inv()
    return [x * lead for x in pt]


def _limit(weights, pt, pick):
    sup = [i for i, x in enumerate(pt) if not x.is_zero]
    w = pick(weights[i] for i in sup)
    return _normalize([x if weights[i] == w else G(0) for i, x in enumerate(pt)])


def _act_json(weights, a):
    return {"weights": weights, "a": str(a)}


def gmquot_decompose(rng, shape):
    weights, a = _action(rng, shape)
    ws = sorted(set(weights))
    return _cli("gmquot.decompose", "gmquot", "decompose",
                {"action": _act_json(weights, a)},
                {"plus": [w for w in ws if -w > a], "minus": [w for w in ws if -w < a]})


def gmquot_limits(rng, shape):
    weights, a = _action(rng, shape)
    pt = _point(rng, len(weights))
    return _cli("gmquot.limits", "gmquot", "limits",
                {"action": _act_json(weights, a), "point": vec_str(pt)},
                {"limit0": vec_str(_limit(weights, pt, min)),
                 "limitinf": vec_str(_limit(weights, pt, max))})


def gmquot_membership(rng, shape):
    weights, a = _action(rng, shape)
    pt = _point(rng, len(weights))
    sup = [weights[i] for i, x in enumerate(pt) if not x.is_zero]
    if -max(sup) > a:
        status = "in_Y+"
    elif -min(sup) < a:
        status = "in_Y-"
    else:
        status = "in_U"
    return _cli("gmquot.membership", "gmquot", "membership",
                {"action": _act_json(weights, a), "point": vec_str(pt)},
                {"status": status})


def gmquot_invariants(rng, shape):
    weights, a = _action(rng, shape)
    degree = rng.randint(1, 3)
    target = a * degree
    n = len(weights)
    monos = []

    def rec(prefix, left):
        if len(prefix) == n - 1:
            m = prefix + [left]
            if sum(e * w for e, w in zip(m, weights)) == target:
                monos.append(m)
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], degree)
    return _cli("gmquot.invariants", "gmquot", "invariants",
                {"action": _act_json(weights, a), "degree": degree},
                {"monomials": sorted(monos)})


def gmquot_orbit(rng, shape):
    weights, a = _action(rng, shape)
    x = _point(rng, len(weights))
    if rng.random() < 0.5:
        t = G(rng.choice((-3, -2, 2, 3, Fraction(1, 2))))
        y = [c * t ** w for c, w in zip(x, weights)]
        same = True
    else:
        y = list(x)
        k = rng.randrange(len(y))
        y[k] = G(0) if not y[k].is_zero else G(1)
        if all(c.is_zero for c in y):
            y[(k + 1) % len(y)] = G(1)
        same = False
    return _cli("gmquot.orbit-eq", "gmquot", "orbit-eq",
                {"action": _act_json(weights, a), "x": vec_str(x), "y": vec_str(y)},
                {"equivalent": same})


def gmquot_fixed(rng, shape):
    weights, a = _action(rng, shape)
    comps = [{"weight": w, "indices": [i for i, x in enumerate(weights) if x == w]}
             for w in sorted(set(weights))]
    return _cli("gmquot.fixed", "gmquot", "fixed", {"action": _act_json(weights, a)},
                {"components": comps})


# -- schedules --------------------------------------------------------------

# ratfunc: four langton items to one twistor one.  Latency has two modes
# (n = 2 and r = 1 near 70 ms, n = 3 and r = 2 near 300 ms); the mix puts
# 65% of items in the fast mode, so that the median and the 90th
# percentile each fall inside a mode instead of on the gap between them.
RATFUNC = ([langton_item(2, 1), langton_item(2, 2)] * 5
           + [langton_item(3, 1), langton_item(3, 2)] * 3
           + [twistor_bundle_item(1)] * 3 + [twistor_bundle_item(2)])

PURITY = [f for n in range(2, 7)
          for f in (rees_pair_item(n, True), splitting_item(n), rees_pair_item(n, False),
                    splitting_item(n))]

CLI_SMALL = [rings_conj, rings_eval, rings_rank, rings_minors, rings_snf,
             rees_build, rees_recover, rees_fiber, rees_griffiths, twistor_structure,
             twistor_section, lambda_pref, lambda_sigma, lambda_act,
             lambda_classify, jumploci_dims, jumploci_ideal, gmquot_decompose,
             gmquot_limits, gmquot_membership, gmquot_invariants, gmquot_orbit,
             gmquot_fixed]

SCHEDULES = {"ratfunc": RATFUNC, "purity": PURITY, "cli-small": CLI_SMALL}


MAX_ATTEMPTS = 1000


def request_key(item):
    """A 64-bit checksum of the request.  The benchmark keeps one per item
    to refuse repeats, so it must stay small next to hodgekit's memory;
    zlib is loaded by every interpreter already, unlike hashlib."""
    data = json.dumps(item.get("argv") or item["wire"], sort_keys=True).encode()
    return zlib.crc32(data) << 32 | zlib.adler32(data)


def stream(workload, seed, label="timed", exclude=()):
    """Endless deterministic sequence of distinct items.

    Item k follows stratum k mod len(schedule) and draws from generators
    of its own, so any prefix is the same whatever is consumed later.  A
    request equal to an earlier one (or to one in ``exclude``) is drawn
    again with new numbers.
    """
    schedule = SCHEDULES[workload]
    seen = set(exclude)
    for k in count():
        make = schedule[k % len(schedule)]
        for attempt in range(MAX_ATTEMPTS):
            item = make(random.Random(f"{workload}/{label}/{seed}/{k}/{attempt}"),
                        random.Random(f"{workload}/{label}/shape/{k}"))
            key = request_key(item)
            if key not in seen:
                seen.add(key)
                yield item
                break
        else:
            raise RuntimeError(f"{workload} item {k}: no new request in "
                               f"{MAX_ATTEMPTS} draws")
