"""Answer checker (standard library only).

``check(item, answer)`` compares one answer with the expectation the
generator built into the item.  It never asks hodgekit for a reference
answer: expectations are fixed by construction, and where only an identity
is known (Smith normal form, general-position purity, recovered
filtrations, twistor operators)
the identity is evaluated here in stdlib arithmetic.

``corrupt(item)`` perturbs one expected value; the harness feeds such an
item to ``check`` in every run and refuses to report a correct run if the
checker accepts it.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from stdq import G, gmat_mul, int_det, parse, rank


def check(item, answer) -> bool:
    """True when ``answer`` (decoded CLI JSON or library result) is right."""
    try:
        return bool(_CHECKS.get(item["kind"].split("/")[0], same)(
            item["expect"], answer))
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
        return False


def same(expected, actual) -> bool:
    """Structural match; every key of ``expected`` must match in ``actual``.

    Strings that read as scalars compare as exact Gaussian rationals, so
    "1*i" and "i" agree.
    """
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and same(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(same(e, a) for e, a in zip(expected, actual)))
    if isinstance(expected, str) and isinstance(actual, str):
        try:
            return parse(expected) == parse(actual)
        except (ValueError, ZeroDivisionError):
            return expected == actual
    return type(expected) is type(actual) and expected == actual


def _langton_reduce(expect, ans):
    types = [r["special_type"] for r in ans["trail"]]
    n = len(expect["special"])
    return (types[0] == expect["special"]
            and all(tuple(b) < tuple(a) for a, b in zip(types, types[1:]))
            and [r["step"] for r in ans["trail"]] == list(range(len(types)))
            and types[-1] == [0] * n and ans["final_type"] == [0] * n
            and ans["steps"] == len(types) - 1 == len(ans["certificates"]))


def _rees_p1(expect, splitting):
    if "splitting" in expect:
        return splitting == expect["splitting"]
    return (len(splitting) == expect["rank"] and sum(splitting) == expect["sum"]
            and splitting == sorted(splitting, reverse=True))


def _snf(expect, ans):
    m, u, d, v = expect["matrix"], ans["U"], ans["D"], ans["V"]
    n = len(m)
    want = [[expect["diag"][i] if i == j else 0 for j in range(n)] for i in range(n)]
    prod = 1
    for x in expect["diag"]:
        prod *= x
    ints = [[[G(x) for x in row] for row in mat] for mat in (u, m, v)]
    udv = [[int(x.re) for x in row] for row in gmat_mul(gmat_mul(*ints[:2]), ints[2])]
    return (d == want and udv == d and abs(int_det(u)) == 1 and abs(int_det(v)) == 1
            and prod == abs(int_det(m)))


def _rees_recover(expect, ans):
    """F^p is spanned by the basis vectors of weight >= p, for every p."""
    basis, w = _matrix(expect["basis"]), expect["weights"]
    steps = ans["filtration"]["steps"]
    if [st["p"] for st in steps] != list(range(min(w), max(w) + 1)):
        return False
    for st in steps:
        want = [v for v, p in zip(basis, w) if p >= st["p"]]
        got = _matrix(st["basis"])
        if len(got) != len(want) or rank(want + got) != len(want):
            return False
    return True


def _matrix(rows):
    return [[parse(x) for x in row] for row in rows]


def _twistor_structure(expect, ans):
    """I_lambda = x I + y J + z K with (x, y, z) the stereographic image of
    lambda, as the real-linear pair (P, Q): P = x i, Q = (y + z i) J_m."""
    lam = parse(expect["lambda"])
    t = lam.re * lam.re + lam.im * lam.im
    pt = ((1 - t) / (1 + t), 2 * lam.re / (1 + t), 2 * lam.im / (1 + t))
    sphere = tuple(Fraction(ans["sphere"][k]) for k in ("x", "y", "z"))
    jm = _matrix(expect["J"])
    n = len(jm)
    p_want = [[G(0, pt[0]) if i == j else G(0) for j in range(n)] for i in range(n)]
    q_want = [[G(pt[1], pt[2]) * x for x in row] for row in jm]
    return (sphere == pt and _matrix(ans["P"]) == p_want
            and _matrix(ans["Q"]) == q_want)


def _twistor_section(expect, ans):
    """The section a + b lambda passes through (lambda0, v) and is
    sigma-invariant: b = J_m conj(a)."""
    jm, lam0 = _matrix(expect["J"]), parse(expect["lambda0"])
    v, a, b = ([parse(x) for x in xs] for xs in (expect["v"], ans["a"], ans["b"]))
    ja = [sum((x * y.conj() for x, y in zip(row, a)), G(0)) for row in jm]
    return b == ja and [x + lam0 * y for x, y in zip(a, b)] == v


_CHECKS = {
    "langton.reduce": _langton_reduce,
    "rees_p1": _rees_p1,
    "splitting_type": lambda expect, exps: exps == expect["splitting"],
    "rings.snf": _snf,
    "rees.recover": _rees_recover,
    "twistor.structure": _twistor_structure,
    "twistor.section": _twistor_section,
}


def corrupt(item):
    """Copy of ``item`` with its first expected value changed."""
    bad = copy.deepcopy(item)
    if not _perturb(bad["expect"]):
        bad["expect"]["corrupted"] = True
    return bad


def _perturb(node):
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for k in keys:
        v = node[k]
        if isinstance(v, (dict, list)):
            if _perturb(v):
                return True
        elif isinstance(v, bool):
            node[k] = not v
            return True
        elif isinstance(v, int):
            node[k] = v + 1
            return True
        elif isinstance(v, str):
            try:
                node[k] = str(parse(v) + 1)
            except (ValueError, ZeroDivisionError):
                node[k] = v + "?"
            return True
    return False
