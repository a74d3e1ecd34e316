"""Wire formats (version 1): every value the CLI reads or writes.

Scalars travel as strings "a/b+c/d*i" with zero parts omitted; cyclotomic
values as {"order": n, "coeffs": ["a/b", ...]}.  Laurent polynomials are
term lists; bundles, filtrations, actions and families are plain objects
documented in schemas/wire-v1.json.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .scalars import Scalar, format_scalar, parse_scalar
from .laurent import LaurentPoly
from .univariate import RatFunc
from .birkhoff import P1Bundle
from .rees import FilteredSpace, ReesModule
from .twistor import QuaternionicSpace, SectionO1
from .lambda_family import HarmonicLine, HodPoint, PolySection
from .jump_loci import CWPresentation, SubtorusParam
from .gm_action import Arc, ProjPoint, WeightedAction
from .langton import DiskFamily, StepCertificate, to_ks

WIRE_VERSION = 1


def scalar_to_json(s: Scalar):
    if s.is_gaussian:
        return format_scalar(s)
    return {"order": s.order, "coeffs": [str(c) for c in s.coeffs]}


def scalar_from_json(x) -> Scalar:
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return Scalar.rational(x)
    if isinstance(x, dict) and "order" in x:
        return Scalar.cyclotomic(integer_from_json(x["order"]),
                                 [fraction_from_json(c) for c in x["coeffs"]])
    raise PreconditionError(f"unreadable scalar {x!r}")


def vector_to_json(v):
    return [scalar_to_json(x) for x in v]


def vector_from_json(xs):
    if not isinstance(xs, list):
        raise PreconditionError("expected a list of scalars")
    return [scalar_from_json(x) for x in xs]


def matrix_to_json(m):
    return [vector_to_json(r) for r in m]


def _rows(rows):
    if not isinstance(rows, list) or not rows:
        raise PreconditionError("expected a non-empty matrix")
    return rows


def matrix_from_json(rows):
    return [vector_from_json(r) for r in _rows(rows)]


def integer_matrix_from_json(rows):
    return [[integer_from_json(x) for x in r] for r in _rows(rows)]


def list_from_json(xs, read):
    """``read`` applied to every item of a JSON list."""
    if not isinstance(xs, list):
        raise PreconditionError("expected a list")
    return [read(x) for x in xs]


def fraction_from_json(x):
    """An exact rational from a JSON int or string; floats are not exact."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise PreconditionError(f"unreadable rational {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"unreadable rational {x!r}")


def integer_from_json(x):
    """The one reader of integer fields; a JSON float would be truncated
    and a JSON boolean read as 0 or 1."""
    if isinstance(x, (bool, float)):
        raise PreconditionError(f"unreadable integer {x!r}")
    return int(x)


# -- multivariate Laurent -------------------------------------------------


def laurent_to_json(p: LaurentPoly):
    return [{"exp": list(e), "coeff": scalar_to_json(c)}
            for e, c in p.sorted_terms()]


def laurent_from_json(rank, data) -> LaurentPoly:
    if not isinstance(data, list):
        raise PreconditionError("laurent polynomial must be a term list")
    terms = {}
    for item in data:
        exp = tuple(integer_from_json(e) for e in item["exp"])
        c = scalar_from_json(item["coeff"])
        terms[exp] = terms.get(exp, Scalar.zero()) + c
    return LaurentPoly(rank, terms)


def laurent_matrix_from_json(rank, rows):
    return [[laurent_from_json(rank, e) for e in r] for r in _rows(rows)]


# -- one-variable Laurent over Q(i) ---------------------------------------


def _zpoly(terms):
    """The rank-1 ``LaurentPoly`` sum of c z^e over the (e, c) pairs."""
    out = {}
    for e, c in terms:
        out[e] = out[e] + c if e in out else c
    return LaurentPoly._trusted(1, {e: c for e, c in out.items() if not c.is_zero})


def zpoly_to_json(p: LaurentPoly):
    """A rank-1 ``LaurentPoly`` in z as a term list with int exponents."""
    return [{"exp": e, "coeff": scalar_to_json(c)} for (e,), c in p.sorted_terms()]


def zpoly_from_json(data):
    return _zpoly(((integer_from_json(t["exp"]),), scalar_from_json(t["coeff"]))
                  for t in data)


def bundle_to_json(b: P1Bundle):
    return {"rank": b.n, "var": "z", "field": "gaussian",
            "entries": [[zpoly_to_json(e) for e in row]
                        for row in b.entries]}


def bundle_from_json(d) -> P1Bundle:
    tag = d.get("field", "gaussian")
    if tag != "gaussian":
        raise PreconditionError(f"unknown coefficient field {tag!r}")
    entries = [[zpoly_from_json(e) for e in row] for row in d["entries"]]
    if len(entries) != integer_from_json(d["rank"]):
        raise PreconditionError("bundle rank disagrees with entry count")
    return P1Bundle(entries)


# -- filtrations ----------------------------------------------------------


def filtration_to_json(fs: FilteredSpace):
    return {"dim": fs.n,
            "steps": [{"p": p, "basis": matrix_to_json(fs.basis(p))}
                      for p in fs.steps_range()]}


def filtration_from_json(d) -> FilteredSpace:
    steps = {}
    for st in d["steps"]:
        basis = st["basis"]
        steps[integer_from_json(st["p"])] = matrix_from_json(basis) if basis else []
    return FilteredSpace(integer_from_json(d["dim"]), steps)


def rees_to_json(rm: ReesModule):
    return {"weights": list(rm.weights),
            "basis": matrix_to_json([list(v) for v in rm.basis])}


def rees_from_json(d) -> ReesModule:
    basis = matrix_from_json(d["basis"])
    weights = [integer_from_json(w) for w in d["weights"]]
    if len(basis) != len(weights):
        raise PreconditionError("weights and basis sizes disagree")
    return ReesModule(basis=tuple(tuple(v) for v in basis), weights=tuple(weights))


# -- twistor --------------------------------------------------------------


def quaternionic_from_json(d) -> QuaternionicSpace:
    return QuaternionicSpace(integer_from_json(d["r"]), matrix_from_json(d["J"]))


def section_to_json(s: SectionO1):
    return {"a": vector_to_json(list(s.a)), "b": vector_to_json(list(s.b))}


# -- rank-one family ------------------------------------------------------


def harmonic_to_json(h: HarmonicLine):
    return {"g": h.g, "nu": vector_to_json(list(h.nu)),
            "thetaPrime": vector_to_json(list(h.theta_prime))}


def harmonic_from_json(d) -> HarmonicLine:
    h = HarmonicLine(nu=tuple(vector_from_json(d["nu"])),
                     theta_prime=tuple(vector_from_json(d["thetaPrime"])))
    if h.g != integer_from_json(d["g"]):
        raise PreconditionError("declared g disagrees with coordinates")
    return h


def hodpoint_to_json(p: HodPoint):
    return {"beta": vector_to_json(list(p.beta)),
            "eta": vector_to_json(list(p.eta)),
            "lambda": scalar_to_json(p.lam)}


def hodpoint_from_json(d) -> HodPoint:
    return HodPoint(beta=tuple(vector_from_json(d["beta"])),
                    eta=tuple(vector_from_json(d["eta"])),
                    lam=scalar_from_json(d["lambda"]))


def polysection_from_json(d) -> PolySection:
    return PolySection(
        beta_coeffs=tuple(tuple(vector_from_json(v)) for v in d["beta"]),
        eta_coeffs=tuple(tuple(vector_from_json(v)) for v in d["eta"]))


# -- jump loci ------------------------------------------------------------


def cw_from_json(d) -> CWPresentation:
    a = integer_from_json(d["a"])
    rows = tuple(tuple(laurent_from_json(a, e) for e in row) for row in d["A"])
    return CWPresentation(a=a, m=integer_from_json(d["m"]),
                         l=integer_from_json(d["l"]), matrix=rows)


def subtorus_from_json(d) -> SubtorusParam:
    return SubtorusParam(zeta=tuple(vector_from_json(d["zeta"])),
                         exponents=tuple(tuple(integer_from_json(x) for x in row)
                                         for row in d["E"]))


# -- torus actions --------------------------------------------------------


def action_from_json(d) -> WeightedAction:
    return WeightedAction([integer_from_json(w) for w in d["weights"]],
                          fraction_from_json(d["a"]))


def point_from_json(x) -> ProjPoint:
    if isinstance(x, str):
        return ProjPoint([parse_scalar(c) for c in x.split(":")])
    return ProjPoint(vector_from_json(x))


def point_to_json(p: ProjPoint):
    return vector_to_json(list(p.coords))


def arc_from_json(data) -> Arc:
    return Arc([zpoly_from_json(c) for c in data])


# -- disk families: coefficients in K(s) as {num, den} ----------------------


def _ks_to_json(c: RatFunc):
    return {"num": vector_to_json(list(c.num)), "den": vector_to_json(list(c.den))}


def _ks_from_json(x) -> RatFunc:
    return RatFunc(vector_from_json(x["num"]), vector_from_json(x["den"]))


def family_to_json(f: DiskFamily):
    return {"rank": f.n,
            "entries": [[[{"zexp": k, "coeff": _ks_to_json(c)}
                          for (k,), c in e.sorted_terms()] for e in row]
                        for row in f.entries]}


def family_from_json(d) -> DiskFamily:
    entries = [[_zpoly(((integer_from_json(t["zexp"]),), _ks_from_json(t["coeff"]))
                       for t in e) for e in row]
               for row in d["entries"]]
    if len(entries) != integer_from_json(d["rank"]):
        raise PreconditionError("family rank disagrees with entry count")
    return DiskFamily(entries)


def certificate_to_json(cert: StepCertificate):
    """L and R of a Langton step, each entry a term list in z over K(s)."""
    return {side: [[[{"exp": k, "coeff": _ks_to_json(c)}
                     for (k,), c in to_ks(e).sorted_terms()] for e in row]
                   for row in mat]
            for side, mat in (("left", cert.left), ("right", cert.right))}
