"""Spans around the engine's public functions, installed from outside.

:class:`Tracer` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, op) and puts the original back on
:meth:`Tracer.uninstall`.  A function is replaced wherever a ``charclass``
module holds it, so ``from .algebra import substitute`` style imports are
covered too.  Spans stay in memory; :func:`aggregate` turns them into calls,
self time (span time minus the time of its child spans) and exceptions per
name, and :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, class or None, attribute names)
TRACED = {
    "algebra.GradedPolynomial": ("charclass.algebra", "GradedPolynomial", ["__init__"]),
    "algebra.add": ("charclass.algebra", "GradedPolynomial", ["__add__", "__radd__"]),
    "algebra.sub": ("charclass.algebra", "GradedPolynomial", ["__sub__", "__rsub__"]),
    "algebra.neg": ("charclass.algebra", "GradedPolynomial", ["__neg__"]),
    "algebra.mul": ("charclass.algebra", "GradedPolynomial", ["__mul__", "__rmul__"]),
    "algebra.truediv": ("charclass.algebra", "GradedPolynomial", ["__truediv__"]),
    "algebra.pow": ("charclass.algebra", "GradedPolynomial", ["__pow__"]),
    "algebra.truncated": ("charclass.algebra", "GradedPolynomial", ["truncated"]),
    "algebra.component": ("charclass.algebra", "GradedPolynomial", ["component"]),
    "algebra.substitute": ("charclass.algebra", None, ["substitute"]),
    "algebra.invert_unit_series": ("charclass.algebra", None, ["invert_unit_series"]),
    "algebra.render": ("charclass.algebra", None, ["render"]),
    "algebra.parse": ("charclass.algebra", None, ["parse"]),
    "tables.thom_polynomial": ("charclass.tables", None, ["thom_polynomial"]),
    "tables.ssm_series": ("charclass.tables", None, ["ssm_series"]),
    "tables.validate_tables": ("charclass.tables", None, ["validate_tables"]),
    "tables.golden_roundtrip": ("charclass.tables", None, ["golden_roundtrip"]),
    "context.make_context": ("charclass.context", None, ["make_context"]),
    "context.quotient_chern": ("charclass.context", "MapContext", ["quotient_chern"]),
    "context.landweber_novikov": ("charclass.context", "MapContext", ["landweber_novikov"]),
    "context.pushforward": ("charclass.context", "MapContext", ["pushforward"]),
    "context.pullback": ("charclass.context", "MapContext", ["pullback"]),
    "context.evaluate": ("charclass.context", "MapContext", ["evaluate"]),
    "context.integrate": ("charclass.context", "MapContext", ["integrate"]),
    "context.project": ("charclass.context", "MapContext", ["project"]),
    "context.weighted_euler": ("charclass.context", "MapContext", ["weighted_euler"]),
    "surface.surface_characters": ("charclass.surface", None, ["surface_characters"]),
    "surface.verify_surface_relations": ("charclass.surface", None, ["verify_surface_relations"]),
    "surface.surface_invert": ("charclass.surface", None, ["surface_invert"]),
    "surface.surface_typo_diagnostics": ("charclass.surface", None, ["surface_typo_diagnostics"]),
    "threefold.threefold_basic": ("charclass.threefold", None, ["threefold_basic"]),
    "threefold.elementary_characters": ("charclass.threefold", None, ["elementary_characters"]),
    "threefold.double_locus_calculus": ("charclass.threefold", None, ["double_locus_calculus"]),
    "threefold.canonical_dot_critical": ("charclass.threefold", None, ["canonical_dot_critical"]),
    "threefold.critical_surface_calculus": ("charclass.threefold", None, ["critical_surface_calculus"]),
    "threefold.threefold_characters": ("charclass.threefold", None, ["threefold_characters"]),
    "threefold.verify_threefold_identities": ("charclass.threefold", None,
                                              ["verify_threefold_identities"]),
    "threefold.threefold_invert": ("charclass.threefold", None, ["threefold_invert"]),
    "threefold.threefold_typo_diagnostics": ("charclass.threefold", None,
                                             ["threefold_typo_diagnostics"]),
    "presets.preset_document": ("charclass.presets", None, ["preset_document"]),
    "presets.preset_context": ("charclass.presets", None, ["preset_context"]),
    "presets.hypersurface_xi": ("charclass.presets", None, ["hypersurface_xi"]),
    "presets.veronese_xi": ("charclass.presets", None, ["veronese_xi"]),
    "cli.parse_input": ("charclass.cli", None, ["parse_input"]),
    "cli.run_command": ("charclass.cli", None, ["run_command"]),
}


def _evaluate_key(args) -> tuple:
    """(class, kappa, context table) of one ``MapContext.evaluate`` call."""
    ctx, ac = args[0], args[1]
    table = frozenset((index, frozenset(value.items())) for index, value in ctx.xi.items())
    return (ac.name, ac.kappa, ac.codim, ac.valid_to_weight,
            ctx.source_dim, ctx.target_dim, table)


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []  # (name id, start ns, end ns, parent index, op, raised)
        self.op = 0
        self.mul_terms: list = []  # term count of every product
        self.evaluate_keys: list = []  # (op, key) of every evaluate call
        self._stack: list = []
        self._restore: list = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "charclass" or name.startswith("charclass."))]
        for span_name, (module_name, class_name, attrs) in TRACED.items():
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                wrappers: dict = {}
                for attr in attrs:
                    original = cls.__dict__[attr]
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(span_name, original)
                    self._replace(cls, attr, original, wrappers[id(original)])
                continue
            original = getattr(module, attrs[0])
            wrapper = self._wrap(span_name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, attr, original, wrapper)

    def _replace(self, holder, attr: str, original, wrapper) -> None:
        self._restore.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        if name in self.names:
            sid = self.names.index(name)
        else:
            sid = len(self.names)
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self
        post = None
        if name == "algebra.mul":
            def post(result, args):
                if result is not NotImplemented:
                    tracer.mul_terms.append(len(result))
        elif name == "context.evaluate":
            def post(result, args):
                tracer.evaluate_keys.append((tracer.op, _evaluate_key(args)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (sid, start, clock(), parent, tracer.op, 1)
                stack.pop()
                raise
            spans[idx] = (sid, start, clock(), parent, tracer.op, 0)
            stack.pop()
            if post is not None:
                post(result, args)
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def records(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "mul_terms": self.mul_terms,
            # distinct (class, context table) per op, summed over ops
            "evaluate_distinct": len(set(self.evaluate_keys)),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def aggregate(records: dict) -> dict:
    """Per span name: calls, self ms, exceptions raised, ops that called it.

    Self time is a span's duration minus the durations of its direct child
    spans.  Also returns the product sizes and the count of distinct
    ``evaluate`` calls (distinct per op, summed over ops).
    """
    names, spans = records["names"], records["spans"]
    child_ns = [0] * len(spans)
    for sid, start, end, parent, op, raised in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict = {}
    for i, (sid, start, end, parent, op, raised) in enumerate(spans):
        s = stats.setdefault(names[sid], {"calls": 0, "self_ns": 0, "raised": 0, "ops": set()})
        s["calls"] += 1
        s["self_ns"] += end - start - child_ns[i]
        s["raised"] += raised
        s["ops"].add(op)
    out = {name: {"calls": s["calls"], "self_ms": s["self_ns"] / 1e6,
                  "raised": s["raised"], "ops": len(s["ops"])}
           for name, s in stats.items()}
    terms = records["mul_terms"]
    return {
        "functions": out,
        "mul_terms_out": sum(terms),
        "mul_max_terms_out": max(terms, default=0),
        "evaluate_distinct": records["evaluate_distinct"],
    }


def combine(parts: list) -> dict:
    """Sum aggregates of separate processes (one op each)."""
    functions: dict = {}
    for part in parts:
        for name, f in part["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(f, 0))
            for key, value in f.items():
                acc[key] += value
    return {
        "functions": functions,
        "mul_terms_out": sum(p["mul_terms_out"] for p in parts),
        "mul_max_terms_out": max((p["mul_max_terms_out"] for p in parts), default=0),
        "evaluate_distinct": sum(p["evaluate_distinct"] for p in parts),
    }
