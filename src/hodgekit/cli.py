"""Batch CLI: every module behind a subcommand with JSON input and output.

The argv grammar is ``SUBCOMMAND VERB [--flag VALUE | --flag=VALUE]...``,
read directly against the table ``build_parser`` derives from
``HANDLERS``.  Every subcommand takes ``--input``, ``--inline``, ``--seed``
(an integer) and ``--out``; ``gmquot`` also takes ``--weights``, ``--a``
and ``--point``; ``selftest`` takes no verb.  Flag names are exact (no
abbreviations), flags may precede the verb, a flag takes the next token
verbatim (``--a -1/2`` needs no ``=``) and the last of a repeated flag
wins.  ``-h``/``--help`` prints the usage and exits 0; any other
malformed argv is a precondition violation naming the bad token.

Exit codes: 0 success, 1 precondition or schema violation (the payload
carries a machine-readable reason), 2 internal invariant breach or any
other exception, reported as one JSON document without a traceback.  A
KeyError, TypeError or ValueError is a schema violation only while the
input is read; raised by the computation, it is a hodgekit bug.  Seeds
are mandatory for randomized verbs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import traceback

from .errors import InternalInvariantError, PreconditionError
from . import jsonio
from . import linalg
from .birkhoff import splitting_type
from . import rees as rees_mod
from . import twistor as tw
from . import lambda_family as lf
from . import jump_loci as jl
from . import gm_action as gm
from . import langton as lg
from .selftest import run_selftest

def _payload(args):
    if args.inline is not None:
        try:
            return json.loads(args.inline)
        except json.JSONDecodeError as ex:
            raise PreconditionError(f"inline JSON does not parse: {ex}")
    if args.input is not None:
        try:
            with open(args.input) as fh:
                return json.load(fh)
        except OSError as ex:
            raise PreconditionError(f"cannot read input: {ex}")
        except json.JSONDecodeError as ex:
            raise PreconditionError(f"input JSON does not parse: {ex}")
    return None


def _gm_payload(args):
    data = _payload(args)
    if data is not None:
        return data
    if args.weights is None:
        raise PreconditionError("missing input: give --input/--inline or --weights")
    data = {"action": {"weights": [int(w) for w in args.weights.split(",")],
                       "a": args.a if args.a is not None else "0"}}
    if args.point:
        data["point"] = args.point
    return data


def _need(data, *keys):
    if data is None:
        raise PreconditionError("missing input: give --input or --inline")
    for k in keys:
        if k not in data:
            raise PreconditionError(f"input is missing the field {k!r}")
    return data


# -- handlers, one per (subcommand, verb) ---------------------------------


def _rings(verb, data, seed):
    if verb == "conj":
        _need(data, "scalar")
        return {"scalar": jsonio.scalar_to_json(
            jsonio.scalar_from_json(data["scalar"]).conj())}
    if verb == "eval":
        _need(data, "poly", "rho")
        rho = jsonio.vector_from_json(data["rho"])
        poly = jsonio.laurent_from_json(len(rho), data["poly"])
        return {"scalar": jsonio.scalar_to_json(poly.eval_character(rho))}
    if verb == "rank":
        _need(data, "matrix")
        return {"rank": linalg.rank(jsonio.matrix_from_json(data["matrix"]))}
    if verb == "minors":
        _need(data, "matrix", "k", "vars")
        rank_a = jsonio.integer_from_json(data["vars"])
        rows = jsonio.laurent_matrix_from_json(rank_a, data["matrix"])
        from .laurent import LaurentPoly
        mins = linalg.minors(rows, jsonio.integer_from_json(data["k"]),
                             LaurentPoly.one(rank_a))
        return {"minors": [jsonio.laurent_to_json(q) for q in mins]}
    if verb == "snf":
        _need(data, "matrix")
        u, d, v = linalg.smith_normal_form(
            jsonio.integer_matrix_from_json(data["matrix"]))
        return {"U": u, "D": d, "V": v}
    raise PreconditionError(f"unknown rings verb {verb!r}")


def _rees(verb, data, seed):
    if verb == "build":
        _need(data, "filtration")
        rm = rees_mod.build_rees(jsonio.filtration_from_json(data["filtration"]))
        return jsonio.rees_to_json(rm)
    if verb == "recover":
        _need(data, "rees")
        fs = rees_mod.recover_filtration(jsonio.rees_from_json(data["rees"]))
        return {"filtration": jsonio.filtration_to_json(fs)}
    if verb == "fiber":
        _need(data, "rees", "point")
        rm = jsonio.rees_from_json(data["rees"])
        out = rees_mod.fiber(rm, jsonio.integer_from_json(data["point"]))
        if isinstance(out, dict):
            return {"grades": {str(p): d for p, d in sorted(out.items())}}
        return {"dim": out}
    if verb == "griffiths":
        _need(data, "filtration", "nabla")
        fs = jsonio.filtration_from_json(data["filtration"])
        mats = jsonio.list_from_json(data["nabla"], jsonio.matrix_from_json)
        return {"transversal": rees_mod.griffiths_check(fs, mats)}
    if verb == "glue":
        _need(data, "F", "Fbar")
        fs = jsonio.filtration_from_json(data["F"])
        fsb = jsonio.filtration_from_json(data["Fbar"])
        pairing = (jsonio.matrix_from_json(data["pairing"])
                   if data.get("pairing") else None)
        bundle, report = rees_mod.rees_p1(fs, fsb, pairing)
        return {"splitting": list(report.splitting), "pure": report.pure,
                "weight": report.weight,
                "transition": jsonio.bundle_to_json(bundle)}
    raise PreconditionError(f"unknown rees verb {verb!r}")


def _twistor(verb, data, seed):
    if verb == "structure":
        _need(data, "r", "J", "lambda")
        qs = jsonio.quaternionic_from_json(data)
        op = tw.structure_at(qs, jsonio.scalar_from_json(data["lambda"]))
        pt = tw.stereographic(jsonio.scalar_from_json(data["lambda"]))
        return {"P": jsonio.matrix_to_json(op.p), "Q": jsonio.matrix_to_json(op.q),
                "sphere": {"x": str(pt.x), "y": str(pt.y), "z": str(pt.z)}}
    if verb == "section":
        _need(data, "r", "J", "v", "lambda0")
        qs = jsonio.quaternionic_from_json(data)
        sec = tw.invariant_section_through(
            qs, jsonio.vector_from_json(data["v"]),
            jsonio.scalar_from_json(data["lambda0"]))
        return jsonio.section_to_json(sec)
    if verb == "bundle":
        _need(data, "r", "J")
        qs = jsonio.quaternionic_from_json(data)
        bundle = tw.twistor_bundle(qs)
        return {"splitting": list(splitting_type(bundle)),
                "transition": jsonio.bundle_to_json(bundle)}
    if verb == "sff":
        _need(data, "r", "rprime")
        dim = tw.quaternionic_sff_space(jsonio.integer_from_json(data["r"]),
                                        jsonio.integer_from_json(data["rprime"]),
                                        data.get("constraints", "quaternionic"))
        return {"dimension": dim}
    raise PreconditionError(f"unknown twistor verb {verb!r}")


def _lambda(verb, data, seed):
    if verb == "pref":
        _need(data, "line", "lambda")
        h = jsonio.harmonic_from_json(data["line"])
        p = lf.prefered_section(h, jsonio.scalar_from_json(data["lambda"]))
        return jsonio.hodpoint_to_json(p)
    if verb == "sigma":
        _need(data, "point")
        return jsonio.hodpoint_to_json(
            lf.sigma_prime(jsonio.hodpoint_from_json(data["point"])))
    if verb == "act":
        _need(data, "t", "point")
        return jsonio.hodpoint_to_json(
            lf.gm_act(jsonio.scalar_from_json(data["t"]),
                      jsonio.hodpoint_from_json(data["point"])))
    if verb == "classify":
        _need(data, "beta", "eta")
        cand = jsonio.polysection_from_json(data)
        verdict, h = lf.classify_invariant_section(cand)
        out = {"verdict": verdict}
        if h is not None:
            out["line"] = jsonio.harmonic_to_json(h)
        return out
    raise PreconditionError(f"unknown lambda verb {verb!r}")


def _jumploci(verb, data, seed):
    if verb == "dims":
        _need(data, "cw", "rho")
        p = jsonio.cw_from_json(data["cw"])
        h2, h3 = jl.betti_dims(p, jsonio.vector_from_json(data["rho"]))
        return {"h2": h2, "h3": h3}
    if verb == "ideal":
        _need(data, "cw", "k")
        p = jsonio.cw_from_json(data["cw"])
        gens = jl.jump_ideal(p, jsonio.integer_from_json(data["k"]))
        return {"generators": [jsonio.laurent_to_json(g) for g in gens]}
    if verb == "contains":
        _need(data, "cw", "k", "subtorus")
        p = jsonio.cw_from_json(data["cw"])
        sub = jsonio.subtorus_from_json(data["subtorus"])
        return {"contained": jl.contains_subtorus(
            p, jsonio.integer_from_json(data["k"]), sub)}
    if verb == "scan":
        _need(data, "cw", "k", "count")
        if seed is None:
            raise PreconditionError("scan is randomized: --seed is mandatory")
        p = jsonio.cw_from_json(data["cw"])
        found = jl.character_scan(p, jsonio.integer_from_json(data["k"]),
                                  jsonio.integer_from_json(data["count"]), seed)
        return {"characters": [jsonio.vector_to_json(list(r)) for r in found]}
    raise PreconditionError(f"unknown jumploci verb {verb!r}")


def _gmquot(verb, data, seed):
    action = jsonio.action_from_json(_need(data, "action")["action"])
    if verb == "fixed":
        return {"components": [{"weight": c.weight, "indices": list(c.indices)}
                               for c in action.fixed_components()]}
    if verb == "limits":
        pt = jsonio.point_from_json(_need(data, "point")["point"])
        return {"limit0": jsonio.point_to_json(gm.limit0(action, pt)),
                "limitinf": jsonio.point_to_json(gm.limitinf(action, pt))}
    if verb == "order":
        witnesses = None
        if data.get("witnesses"):
            witnesses = jsonio.list_from_json(data["witnesses"],
                                              jsonio.point_from_json)
        order = gm.comp_order(action, witnesses)
        return {"pairs": [list(p) for p in order.sorted_pairs()]}
    if verb == "decompose":
        dec = gm.decompose(action)
        return {"plus": sorted(dec.plus_weights), "minus": sorted(dec.minus_weights)}
    if verb == "membership":
        pt = jsonio.point_from_json(_need(data, "point")["point"])
        dec = gm.decompose(action)
        return {"status": gm.membership(action, dec, pt)}
    if verb == "orbit-eq":
        _need(data, "x", "y")
        x = jsonio.point_from_json(data["x"])
        y = jsonio.point_from_json(data["y"])
        return {"equivalent": gm.orbit_equivalent(action, x, y)}
    if verb == "arc":
        arc = jsonio.arc_from_json(_need(data, "arc")["arc"])
        out = {"segments": [{"kind": s.kind,
                             "lo": None if s.lo is None else str(s.lo),
                             "hi": None if s.hi is None else str(s.hi),
                             "component": s.weight,
                             "point": jsonio.point_to_json(s.point)}
                            for s in gm.newton_limits(action, arc)]}
        try:
            dec = gm.decompose(action)
            eps, landing = gm.choose_gauge(action, dec, arc)
            out["gauge"] = {"eps": str(eps),
                            "landing": jsonio.point_to_json(landing)}
        except PreconditionError:
            out["gauge"] = None
        return out
    if verb == "invariants":
        degree = jsonio.integer_from_json(_need(data, "degree")["degree"])
        return {"monomials": [list(m) for m in gm.invariant_monomials(action, degree)]}
    raise PreconditionError(f"unknown gmquot verb {verb!r}")


def _langton(verb, data, seed):
    fam = jsonio.family_from_json(_need(data, "family")["family"])
    if verb == "generic":
        return {"splitting": list(lg.generic_splitting(fam))}
    if verb == "special":
        return {"splitting": list(lg.special_splitting(fam))}
    if verb == "step":
        new_fam, cert, record = lg.langton_step(fam)
        return {"family": jsonio.family_to_json(new_fam),
                "special_before": list(record.special_type),
                "special_after": lg.special_splitting(new_fam),
                "certificate": jsonio.certificate_to_json(cert)}
    if verb == "reduce":
        out, trail, certs = lg.langton_reduce(fam)
        return {"steps": len(certs),
                "final_type": list(trail[-1].special_type),
                "trail": [{"step": r.step, "special_type": list(r.special_type)}
                          for r in trail],
                "family": jsonio.family_to_json(out),
                "certificates": [jsonio.certificate_to_json(c) for c in certs]}
    raise PreconditionError(f"unknown langton verb {verb!r}")


HANDLERS = {
    "rings": (_rings, ["conj", "eval", "rank", "minors", "snf"]),
    "rees": (_rees, ["build", "recover", "fiber", "griffiths", "glue"]),
    "twistor": (_twistor, ["structure", "section", "bundle", "sff"]),
    "lambda": (_lambda, ["pref", "sigma", "act", "classify"]),
    "jumploci": (_jumploci, ["dims", "ideal", "contains", "scan"]),
    "gmquot": (_gmquot, ["fixed", "limits", "order", "decompose",
                         "membership", "orbit-eq", "arc", "invariants"]),
    "langton": (_langton, ["generic", "special", "step", "reduce"]),
}


# flag -> (value, help); every subcommand takes the common flags
_COMMON_FLAGS = {
    "--input": ("FILE", "path to a JSON input file"),
    "--inline": ("JSON", "inline JSON input"),
    "--seed": ("INT", "seed, mandatory for randomized verbs"),
    "--out": ("FILE", "also write the result JSON here"),
}
_GMQUOT_FLAGS = {
    "--weights": ("W,W,...", "comma-separated coordinate weights"),
    "--a": ("P/Q", "linearization shift p/q"),
    "--point": ("X:Y:...", "colon-separated scalars, e.g. 1:1:0"),
}
_HELP = ("-h", "--help")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argv grammar, built once per process from ``HANDLERS``: each
    subcommand maps to its verbs (None for ``selftest``, which takes none)
    and to the names of its flags; ``--name`` sets the request field
    ``name``."""
    common = frozenset(_COMMON_FLAGS)
    gm_flags = common | frozenset(_GMQUOT_FLAGS)
    grammar = {name: (tuple(verbs), gm_flags if name == "gmquot" else common)
               for name, (_, verbs) in HANDLERS.items()}
    grammar["selftest"] = (None, common)
    return grammar


class _Request:
    """A parsed argv: the fields ``_execute`` reads, None unless given."""
    subcommand = verb = input = inline = seed = out = None
    weights = a = point = None


def _help():
    """Print the usage built from the grammar and exit 0."""
    lines = ["usage: hodgekit SUBCOMMAND [VERB] [--flag VALUE | --flag=VALUE]...",
             "exact-arithmetic toolbox, JSON in / JSON out", "",
             "subcommands and verbs:"]
    lines += [f"  {name} {' | '.join(verbs or ())}".rstrip()
              for name, (verbs, _) in build_parser().items()]
    for title, flags in (
            ("\nflags (exact names; each takes the next token verbatim):",
             _COMMON_FLAGS),
            ("gmquot flags, in place of an input:", _GMQUOT_FLAGS)):
        lines.append(title)
        lines += [f"  {f + ' ' + v:<19} {text}" for f, (v, text) in flags.items()]
    print("\n".join(lines))
    sys.exit(0)


def _parse(argv):
    """Read ``argv`` as ``SUBCOMMAND VERB [--flag VALUE | --flag=VALUE]...``.
    Flags may come before the verb, a flag takes the next token verbatim
    (so ``--a -1/2`` needs no ``=``), the last of a repeated flag wins,
    and any other shape is a ``PreconditionError`` naming the bad token."""
    grammar = build_parser()
    if not argv:
        raise PreconditionError(
            f"missing subcommand: choose from {', '.join(grammar)}")
    sub = argv[0]
    if sub in _HELP:
        _help()
    try:
        verbs, flags = grammar[sub]
    except KeyError:
        raise PreconditionError(f"unknown subcommand {sub!r}: choose from "
                                f"{', '.join(grammar)}") from None
    req = _Request()
    req.subcommand = sub
    i, n = 1, len(argv)
    while i < n:
        tok = argv[i]
        i += 1
        if tok[:1] != "-":
            if verbs is None or req.verb is not None:
                raise PreconditionError(f"unexpected argument {tok!r}")
            if tok not in verbs:
                raise PreconditionError(f"unknown {sub} verb {tok!r}: choose "
                                        f"from {', '.join(verbs)}")
            req.verb = tok
            continue
        if tok in _HELP:
            _help()
        name, joined, value = tok.partition("=")
        if name not in flags:
            raise PreconditionError(f"unknown flag {name!r} for {sub}")
        if not joined:
            if i == n:
                raise PreconditionError(f"flag {name} needs a value")
            value = argv[i]
            i += 1
        if name == "--seed":
            try:
                value = int(value)
            except ValueError:
                raise PreconditionError(
                    f"--seed needs an integer, got {value!r}") from None
        setattr(req, name[2:], value)
    if verbs is not None and req.verb is None:
        raise PreconditionError(f"missing {sub} verb: choose from "
                                f"{', '.join(verbs)}")
    return req


def run(argv):
    return _execute(_parse(argv))


def _execute(args):
    if args.subcommand == "selftest":
        if args.seed is None:
            raise PreconditionError("selftest is randomized: --seed is mandatory")
        results = run_selftest(args.seed)
        failed = [r for r in results if not r["passed"]]
        out = {"passed": len(results) - len(failed), "failed": len(failed),
               "checks": results}
        return out, (1 if failed else 0)
    handler, _ = HANDLERS[args.subcommand]
    try:
        data = _gm_payload(args) if args.subcommand == "gmquot" else _payload(args)
        result = handler(args.verb, data, args.seed)
    except (KeyError, TypeError, ValueError) as ex:
        if isinstance(ex, PreconditionError) or not _reading(ex.__traceback__):
            raise
        raise PreconditionError(f"input does not match the schema: {ex}")
    return result, 0


_READERS = {_payload.__code__, _gm_payload.__code__, _need.__code__}


def _reading(tb):
    """Whether the traceback passes through a reader of the input: the
    payload readers, ``_need`` or a ``jsonio`` ``*_from_json``."""
    return any(f.f_code in _READERS or (
        f.f_globals.get("__name__") == jsonio.__name__
        and f.f_code.co_name.endswith("_from_json"))
        for f, _ in traceback.walk_tb(tb))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        result, code = _execute(args)
        _emit(result, args.out)
    except PreconditionError as ex:
        _emit({"error": {"kind": "precondition", "reason": str(ex)}})
        return 1
    except Exception as ex:
        # an invariant breach, or any other exception escaping the library,
        # is a hodgekit bug, not bad input
        reason = (str(ex) if isinstance(ex, InternalInvariantError)
                  else f"{type(ex).__name__}: {ex}")
        _emit({"error": {"kind": "internal", "reason": reason}})
        return 2
    return code


_quote = json.encoder.encode_basestring_ascii


def _dumps(obj):
    """``json.dumps(obj, indent=2)``, byte for byte, for the wire types:
    dict with str keys, list, tuple, str, int, bool and None.  Any other
    value raises the ``TypeError`` that ``json.dumps`` raises for an
    unknown type.  (The standard encoder takes its pure-Python path once
    it indents.)"""
    parts = []
    put = parts.append

    def encode(x, pad):
        if isinstance(x, str):
            put(_quote(x))
        elif x is None:
            put("null")
        elif x is True:
            put("true")
        elif x is False:
            put("false")
        elif isinstance(x, int):
            put(int.__repr__(x))
        elif isinstance(x, dict):
            if not x:
                put("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for k, v in x.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                put(sep)
                put(_quote(k))
                put(": ")
                encode(v, inner)
                sep = "," + inner
            put(pad + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                put("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for v in x:
                put(sep)
                encode(v, inner)
                sep = "," + inner
            put(pad + "]")
        else:
            raise TypeError(f"Object of type {type(x).__name__} "
                            "is not JSON serializable")

    encode(obj, "\n")
    return "".join(parts)


def _emit(obj, out_path=None):
    # write the file first: a failed write then prints only the error
    text = _dumps(obj)
    if out_path is not None:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as ex:
            raise PreconditionError(f"cannot write --out: {ex}")
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``hodgekit ... | head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    sys.exit(main())
