"""Outside-in tracer: spans and counters around hodgekit's public functions.

Nothing under ``src/`` knows about it.  ``Tracer.install`` wraps functions
and methods after hodgekit is imported:

* spans (name, start, end, parent span, item id) around the layer entry
  points listed in ``SPANNED`` and ``MODULE_GROUPS`` and around jsonio's
  ``*_from_json`` / ``*_to_json`` (named jsonio.decode / jsonio.encode);
  every call is also counted;
* counters only around hot arithmetic (``COUNTED``): the ``Scalar``,
  ``RatFunc`` and ``LaurentPoly`` operators, including the ``__r*__``
  aliases, plus scalar parsing and formatting and ``pdivmod``; a span per
  call there would cost more than the call.

A from-import (``from .birkhoff import splitting_type`` in ``langton``,
``rees``, ``cli`` and the package root) copies the binding, so each wrapper
replaces the original in every ``hodgekit.*`` namespace that binds it, not
only in the defining module.

Spans stay in memory and are written once, by ``dump``.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) -> metric prefix; spanned and counted
SPANNED = {
    ("cli", "main"): "cli.main",
    ("cli", "build_parser"): "cli.build_parser",
    ("univariate", "pgcd"): "univariate.pgcd",
    **{("linalg", f): f"linalg.{f}" for f in (
        "sparse_rank", "sparse_nullspace", "row_echelon", "invert", "solve",
        "det_ring", "mat_mul", "minors")},
    **{("birkhoff", f): f"birkhoff.{f}" for f in (
        "splitting_type", "h0_twist", "section_basis",
        "factorization_certificate", "invert_unimodular")},
    **{("rees", f): f"rees.{f}" for f in (
        "rees_p1", "build_rees", "recover_filtration")},
    **{("langton", f): f"langton.{f}" for f in (
        "langton_reduce", "langton_step", "generic_splitting",
        "special_splitting")},
}

# every public function defined in these modules is spanned under one name
MODULE_GROUPS = ("twistor", "lambda_family", "jump_loci", "gm_action")

# (module, class or None, attribute) -> counter; counted only
COUNTED = {
    **{("scalars", "Scalar", m): "scalars.add.calls" for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__")},
    **{("scalars", "Scalar", m): "scalars.mul.calls" for m in ("__mul__", "__rmul__")},
    **{("scalars", "Scalar", m): "scalars.div.calls" for m in (
        "inv", "__truediv__", "__rtruediv__")},
    ("scalars", None, "parse_scalar"): "scalars.parse.calls",
    ("scalars", None, "format_scalar"): "scalars.format.calls",
    ("univariate", "RatFunc", "__init__"): "univariate.ratfunc_new.calls",
    ("univariate", None, "pdivmod"): "univariate.pdivmod.calls",
    ("laurent", "LaurentPoly", "__mul__"): "laurent.mul.calls",
    ("laurent", "LaurentPoly", "__rmul__"): "laurent.mul.calls",
    ("laurent", "LaurentPoly", "eval_character"): "laurent.eval_character.calls",
}

# per-layer metrics a traced run reports, with their units
LAYER_METRICS = (
    [("cli.main.calls", "count"), ("cli.main.self_s", "s"),
     ("cli.build_parser.self_s", "s"),
     ("jsonio.decode.self_s", "s"), ("jsonio.encode.self_s", "s")]
    + [(f"scalars.{op}.calls", "count")
       for op in ("mul", "add", "div", "parse", "format")]
    + [("univariate.ratfunc_new.calls", "count"), ("univariate.pgcd.calls", "count"),
       ("univariate.pgcd.self_s", "s"), ("univariate.pdivmod.calls", "count"),
       ("laurent.mul.calls", "count"), ("laurent.eval_character.calls", "count")]
    + [(f"{p}.{k}", u) for (mod, _), p in SPANNED.items()
       if mod in ("linalg", "birkhoff", "rees", "langton")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("linalg.sparse_rank.nnz", "count"), ("linalg.row_echelon.cells", "count"),
       ("birkhoff.cert_none.calls", "count"), ("birkhoff.h0_per_split", "ratio"),
       ("langton.steps", "count")]
    + [(f"{m}.{k}", u) for m in MODULE_GROUPS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("trace.items_per_s", "1/s")]
)


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, item id]
        self._open = []     # indices of the spans now running
        self.counts = {}    # counter name -> one-element list
        self.item = None    # id stamped on new spans

    def _cell(self, name):
        return self.counts.setdefault(name, [0])

    # -- wrappers

    def span(self, name, fn, extra=None):
        """Wrap ``fn`` in a span; ``extra(args, result)`` may add to counters."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                extra(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        cell = self._cell(name)

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- installation

    def install(self):
        """Wrap every listed function in all hodgekit namespaces."""
        namespaces = {name: m for name, m in list(sys.modules.items())
                      if (name == "hodgekit" or name.startswith("hodgekit."))
                      and m is not None}
        mods = {name.rpartition(".")[2]: m for name, m in namespaces.items()}
        extras = self._extras()
        wrappers = {}   # id(original) -> (original, wrapper)

        def add(fn, wrapper):
            wrappers[id(fn)] = (fn, wrapper)

        for (mod, fname), prefix in SPANNED.items():
            fn = getattr(mods[mod], fname)
            add(fn, self.span(prefix, fn, extras.get(prefix)))
        for mod in (*MODULE_GROUPS, "jsonio"):
            module = mods[mod]
            for fname, fn in vars(module).items():
                if (fname.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                if mod != "jsonio":
                    add(fn, self.span(mod, fn))
                elif fname.endswith("_from_json"):
                    add(fn, self.span("jsonio.decode", fn))
                elif fname.endswith("_to_json"):
                    add(fn, self.span("jsonio.encode", fn))
        for (mod, cls, attr), name in COUNTED.items():
            if cls is None:
                fn = getattr(mods[mod], attr)
                add(fn, self.count(name, fn))
            else:
                # wrapped by attribute name, so an alias such as
                # __radd__ = __add__ is replaced as well
                owner = getattr(mods[mod], cls)
                setattr(owner, attr, self.count(name, vars(owner)[attr]))
        for module in namespaces.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _extras(self):
        nnz = self._cell("linalg.sparse_rank.nnz")
        cells = self._cell("linalg.row_echelon.cells")
        none = self._cell("birkhoff.cert_none.calls")
        steps = self._cell("langton.steps")

        def sparse_rank(args, _):
            nnz[0] += sum(len(row) for row in args[0])

        def row_echelon(args, _):
            m = args[0]
            cells[0] += len(m) * (len(m[0]) if m else 0)

        def certificate(_, result):
            none[0] += result is None

        def reduce(_, result):
            steps[0] += len(result[2])

        return {"linalg.sparse_rank": sparse_rank, "linalg.row_echelon": row_echelon,
                "birkhoff.factorization_certificate": certificate,
                "langton.langton_reduce": reduce}

    # -- results

    def layer_totals(self):
        """{span name: [calls, self seconds]} over every recorded span."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        totals = {}
        for rec, inner in zip(self.spans, child):
            acc = totals.setdefault(rec[0], [0, 0.0])
            acc[0] += 1
            acc[1] += rec[2] - rec[1] - inner
        return totals

    def metrics(self, items_per_s, scale):
        """Every metric in ``LAYER_METRICS``; layers a workload skips read 0.

        ``items_per_s`` and the self times are scaled by ``scale`` (see
        ``calib``); the counts are exact.
        """
        values = {k: v[0] for k, v in self.counts.items()}
        for name, (calls, self_s) in self.layer_totals().items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s * scale
        splits = values.get("birkhoff.splitting_type.calls", 0)
        values["birkhoff.h0_per_split"] = (
            values.get("birkhoff.h0_twist.calls", 0) / splits if splits else 0.0)
        values["trace.items_per_s"] = items_per_s / scale
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in LAYER_METRICS}

    def dump(self, path):
        """Write every span once, with names interned."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "item"],
                       "names": names,
                       "spans": [[index[r[0]], round(r[1], 7), round(r[2], 7), r[3], r[4]]
                                 for r in self.spans]}, fh)
