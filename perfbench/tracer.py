"""Outside-in tracing of the fglops layers.

``Tracer.install`` wraps the layer entry points from here, without editing
the package: class methods are replaced on their class, and each wrapped
module-level function is rebound under every name any ``fglops`` module
holds for it (``from .x import y`` copies, the package re-exports).
``uninstall`` puts every original back.

A wrapper records one span per call, ``[name, start, end, parent, run,
covered, count, out, cost]``: ``covered`` is the time child wrappers took,
bookkeeping included, so a span's self time (``end - start - covered``)
holds no tracing cost; ``count`` and ``out`` are the layer's work counts,
taken from the call's arguments and result after the span closes; ``cost``
is the wrapper's own time outside ``[start, end]``, counters included, and
its sum over a run is the tracing overhead.  Spans stay in memory until
``write_spans``.

Helpers called inside the innermost loops (``mono_mul``, ``mono_weight``,
``mu``) are left unwrapped: a wrapper there would cost more than they do.
Work done inside pool worker processes is invisible from here; a wrapper
inherited by a forked worker passes straight through.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import json
import os
import sys
import time

clock = time.perf_counter

NAME, START, END, PARENT, RUN, COVERED, COUNT, OUT, COST = range(9)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.mul.mono_pairs", "count", "lower"),
    ("poly.substitute.calls", "count", "lower"),
    ("poly.substitute.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.mono_pairs", "count", "lower"),
    ("series.mul.out_terms", "count", "lower"),
    ("series.mul.pairs_per_s", "1/s", "higher"),
    ("series.mul.useful_frac", "ratio", "higher"),
    ("series.add.calls", "count", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.compose.calls", "count", "lower"),
    ("series.compose.s", "s", "lower"),
    ("series.truncate.dropped_terms", "count", "lower"),
    ("fgl.context.s", "s", "lower"),
    ("fgl.to_v.calls", "count", "lower"),
    ("fgl.to_v.s", "s", "lower"),
    ("fgl.reduced_p_series.s", "s", "lower"),
    ("powerop.s", "s", "lower"),
    ("powerop.compose_s", "s", "lower"),
    ("powerop.rowmul_s", "s", "lower"),
    ("powerop.to_v_s", "s", "lower"),
    ("obstruction.mc.s", "s", "lower"),
    ("obstruction.mc.self_s", "s", "lower"),
    ("obstruction.mc.summands", "count", "lower"),
    ("obstruction.mc.series_products", "count", "lower"),
    ("obstruction.mc.mono_pairs", "count", "lower"),
    ("reduction.divide.calls", "count", "lower"),
    ("reduction.divide.s", "s", "lower"),
    ("reduction.divide.digits", "count", "lower"),
    ("render.s", "s", "lower"),
    ("render.bytes", "bytes", "lower"),
    ("golden.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that are counts of work: they must repeat exactly between runs.
COUNT_METRICS = [n for n, unit, _b in PER_LAYER if unit in ("count", "bytes")]


def _terms(series) -> int:
    return sum(len(c.terms) for c in series.coeffs.values())


def _poly_mul_counts(args, kwargs, result):
    return len(args[0].terms) * len(args[1].terms), len(result.terms)


def _series_mul_counts(args, kwargs, result):
    """Monomial pairs that pass the product's degree cutoff, and output terms.

    The cutoff is the product's validity: a pair of coefficients at total
    degrees d1, d2 is multiplied out when d1 + d2 < validity.
    """
    a, b = args
    by_degree: dict = {}
    for (j, m), c in b.coeffs.items():
        by_degree[j + m] = by_degree.get(j + m, 0) + len(c.terms)
    degrees = sorted(by_degree)
    cumulative = list(itertools.accumulate(by_degree[d] for d in degrees))
    cutoff = result.validity
    pairs = 0
    for (j, m), c in a.coeffs.items():
        i = bisect.bisect_left(degrees, cutoff - j - m)
        if i:
            pairs += len(c.terms) * cumulative[i - 1]
    return pairs, _terms(result)


def _truncate_counts(args, kwargs, result):
    return _terms(args[0]) - _terms(result), 0


def _divide_counts(args, kwargs, result):
    return _terms(result[0]), 0


def _mc_summands(mc_fn):
    """Summand count of an mc call, from the public enumeration of the sum."""
    from fglops.obstruction import enumerate_indices, mu

    signature = inspect.signature(mc_fn)

    def counts(args, kwargs, result):
        if result.used_shortcut:
            return 0, 0
        bound = signature.bind(*args, **kwargs).arguments
        ctx, n = bound["ctx"], bound["n"]
        summands = 0
        for abar, _m in enumerate_indices(n, ctx.p):
            weighted = sum(i * a for i, a in enumerate(abar, start=1))
            if mu(-(n + 1), abar) and ctx.cp_image(n - weighted):
                summands += 1
        return summands, 0

    return counts


def _targets() -> tuple:
    """(class, attribute, span name, counter) and (module, function, span name, counter)."""
    import fglops.cli
    import fglops.golden
    import fglops.obstruction
    import fglops.powerop
    import fglops.reduction
    import fglops.render
    from fglops.fgl import FglContext
    from fglops.poly import GradedPoly
    from fglops.series import Series

    methods = [
        (GradedPoly, "__mul__", "poly.mul", _poly_mul_counts),
        (GradedPoly, "substitute", "poly.substitute", None),
        (Series, "__mul__", "series.mul", _series_mul_counts),
        (Series, "__add__", "series.add", None),
        (Series, "compose", "series.compose", None),
        (Series, "truncate", "series.truncate", _truncate_counts),
        (FglContext, "__init__", "fgl.context", None),
        (FglContext, "to_v", "fgl.to_v", None),
        (FglContext, "reduced_p_series", "fgl.reduced_p_series", None),
    ]
    render = fglops.render
    functions = [
        (fglops.powerop, "power_operation", "powerop", None),
        (fglops.obstruction, "mc", "obstruction.mc",
         _mc_summands(fglops.obstruction.mc)),
        (fglops.reduction, "divide", "reduction.divide", _divide_counts),
        (fglops.reduction, "canonical_rep", "reduction.canonical_rep", None),
        (fglops.golden, "verify_suite", "golden.verify_suite", None),
        (fglops.golden, "load_suite", "golden.load_suite", None),
        (fglops.golden, "compare_series", "golden.compare_series", None),
        (fglops.cli, "main", "cli.main", None),
    ]
    functions += [
        (render, fn, f"render.{fn}", None)
        for fn in ("poly_text", "series_text", "parse_poly", "parse_series",
                   "poly_to_obj", "poly_from_obj", "series_to_obj", "series_from_obj",
                   "series_to_json", "series_from_json")
    ]
    return methods, functions


class Tracer:
    """Installs span-recording wrappers around the fglops layers."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list = []
        self._undo: list = []
        self._pid = None
        self._paused = False

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            enter = clock()
            if tracer._paused or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.run, 0.0, 0, 0, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                span[START], span[END] = start, clock()
                stack.pop()
                if returned and counter is not None:
                    tracer._paused = True
                    try:
                        span[COUNT], span[OUT] = counter(args, kwargs, result)
                    finally:
                        tracer._paused = False
                took = clock() - enter
                span[COST] = took - (span[END] - span[START])
                if parent >= 0:
                    tracer.spans[parent][COVERED] += took
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        self._pid = os.getpid()
        methods, functions = _targets()
        for cls, attr, name, counter in methods:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))
        replacement = {}
        for module, attr, name, counter in functions:
            original = getattr(module, attr)
            replacement[id(original)] = (original, self._wrap(original, name, counter))
        for module in [m for k, m in sys.modules.items()
                       if k == "fglops" or k.startswith("fglops.")]:
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        self._stack = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans: list, run: int) -> dict:
    """Per-layer metrics of one traced iteration, from its spans.

    ``.s`` metrics are inclusive times of the outermost span of a name;
    ``.self_s`` metrics subtract the time child spans cover.
    """
    calls: dict = {}
    self_s: dict = {}
    inclusive: dict = {}
    count: dict = {}
    out: dict = {}
    extra = dict.fromkeys(("render.s", "golden.s", "powerop.compose_s",
                           "powerop.rowmul_s", "powerop.to_v_s"), 0.0)
    extra.update(dict.fromkeys(("obstruction.mc.series_products",
                                "obstruction.mc.mono_pairs"), 0))
    ancestors: dict = {}
    grown: dict = {}
    empty = frozenset()
    nspans = 0
    cost = 0.0
    for i, span in enumerate(spans):
        if span[RUN] != run:
            continue
        nspans += 1
        cost += span[COST]
        name, parent = span[NAME], span[PARENT]
        if parent < 0:
            anc = empty
        else:
            key = (ancestors[parent], spans[parent][NAME])
            anc = grown.get(key)
            if anc is None:
                anc = grown[key] = key[0] | {key[1]}
        ancestors[i] = anc
        dur = span[END] - span[START]
        own = dur - span[COVERED]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        count[name] = count.get(name, 0) + span[COUNT]
        out[name] = out.get(name, 0) + span[OUT]
        outermost = name not in anc
        if outermost:
            inclusive[name] = inclusive.get(name, 0.0) + dur
        if name.startswith("render.") and not any(a.startswith("render.") for a in anc):
            extra["render.s"] += dur
        elif name.startswith("golden."):
            extra["golden.s"] += own
        elif name == "series.compose" and outermost and "powerop" in anc:
            extra["powerop.compose_s"] += dur
        elif name == "fgl.to_v" and outermost and "powerop" in anc:
            extra["powerop.to_v_s"] += dur
        if name == "series.mul":
            if parent >= 0 and spans[parent][NAME] == "powerop":
                extra["powerop.rowmul_s"] += dur
            if "obstruction.mc" in anc:
                extra["obstruction.mc.series_products"] += 1
                extra["obstruction.mc.mono_pairs"] += span[COUNT]

    mul_self = self_s.get("series.mul", 0.0)
    mul_pairs = count.get("series.mul", 0)
    mul_out = out.get("series.mul", 0)
    dropped = count.get("series.truncate", 0)
    metrics = {
        "poly.mul.calls": calls.get("poly.mul", 0),
        "poly.mul.self_s": self_s.get("poly.mul", 0.0),
        "poly.mul.mono_pairs": count.get("poly.mul", 0),
        "poly.substitute.calls": calls.get("poly.substitute", 0),
        "poly.substitute.self_s": self_s.get("poly.substitute", 0.0),
        "series.mul.calls": calls.get("series.mul", 0),
        "series.mul.self_s": mul_self,
        "series.mul.mono_pairs": mul_pairs,
        "series.mul.out_terms": mul_out,
        "series.mul.pairs_per_s": mul_pairs / mul_self if mul_self else 0.0,
        "series.mul.useful_frac": 1.0 - dropped / mul_out if mul_out else 0.0,
        "series.add.calls": calls.get("series.add", 0),
        "series.add.self_s": self_s.get("series.add", 0.0),
        "series.compose.calls": calls.get("series.compose", 0),
        "series.compose.s": inclusive.get("series.compose", 0.0),
        "series.truncate.dropped_terms": dropped,
        "fgl.context.s": inclusive.get("fgl.context", 0.0),
        "fgl.to_v.calls": calls.get("fgl.to_v", 0),
        "fgl.to_v.s": inclusive.get("fgl.to_v", 0.0),
        "fgl.reduced_p_series.s": inclusive.get("fgl.reduced_p_series", 0.0),
        "powerop.s": inclusive.get("powerop", 0.0),
        "obstruction.mc.s": inclusive.get("obstruction.mc", 0.0),
        "obstruction.mc.self_s": self_s.get("obstruction.mc", 0.0),
        "obstruction.mc.summands": count.get("obstruction.mc", 0),
        "reduction.divide.calls": calls.get("reduction.divide", 0),
        "reduction.divide.s": inclusive.get("reduction.divide", 0.0),
        "reduction.divide.digits": count.get("reduction.divide", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "trace.spans": nspans,
        "trace.overhead_s": cost,
    }
    metrics.update(extra)
    return metrics


def write_spans(path, spans: list):
    """One JSON array per line: run, index, parent, name, start, end (seconds)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps([s[RUN], i, s[PARENT], s[NAME],
                                 round(s[START], 7), round(s[END], 7)]) + "\n")
