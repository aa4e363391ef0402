"""Span recorder for the traced benchmark run.

The recorder wraps named entry points of the ``qcext`` modules from the
benchmark's side: each target is replaced, in the namespace where its caller
looks it up, by a wrapper that records a span (name, start, end, parent,
attributes).  ``qcext`` itself is not modified.  A target that no longer
exists is recorded as missing, and every metric that depends on it is
reported as missing rather than as zero.

Spans are summarised per operation into additive raw totals
(``summarize``), and the totals of a run become the per-layer metrics
(``layer_metrics``).
"""

from __future__ import annotations

import time

import numpy as np

_DEFAULT_QUAD_ORDER = 16
_DEFAULT_DE_NODES = 512


def _points(args, kwargs, out):
    return {"points": int(np.size(out))}


def _arg(args, kwargs, pos, key, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _panel_attrs(args, kwargs, out):
    order = int(_arg(args, kwargs, 3, "order", _DEFAULT_QUAD_ORDER))
    return {"order": order, "nodes": int(np.size(args[1])) * order}


def _adaptive_attrs(args, kwargs, out):
    return {"order": int(_arg(args, kwargs, 4, "order", _DEFAULT_QUAD_ORDER))}


def _table_attrs(args, kwargs, out):
    table = getattr(args[0], "_table", None)
    return {"panels": int(table[0].size - 1) if table is not None else 0}


def _defect_attrs(args, kwargs, out):
    return {"nodes": int(_arg(args, kwargs, 3, "n_nodes", _DEFAULT_DE_NODES))}


def _seed_attrs(args, kwargs, out):
    return {"nodes": int(_arg(args, kwargs, 2, "n_nodes", _DEFAULT_DE_NODES))}


def _factor_attrs(args, kwargs, out):
    return {"factors": len(out)}


# (module, owner attribute or None, target attribute, span name, attrs).
# Each target is wrapped in the namespace its caller resolves it from.
TARGETS = (
    ("qcext.cli", None, "main", "cli.main", None),
    ("qcext.cli", None, "build_parser", "cli.build_parser", None),
    ("qcext.cli", None, "map_from_file", "cli.map_from_file", None),
    ("qcext.cli", None, "circle_map_from_dict", "cli.circle_map_from_dict", None),
    ("qcext.cli", None, "_write_rows", "cli._write_rows", None),
    ("qcext.cli", None, "extend_family", "cli.extend_family", _points),
    ("qcext.cli", None, "extend_ns", "cli.extend_ns", _points),
    ("qcext.cli", None, "extend_ba", "cli.extend_ba", _points),
    ("qcext.cli", None, "extend_de", "cli.extend_de", _points),
    ("qcext.analysis", None, "dilatation_analytic",
     "analysis.dilatation_analytic", None),
    ("qcext.decompose", None, "decompose_bilip", "dc.decompose_bilip",
     _factor_attrs),
    ("qcext.beurling_ahlfors", None, "adaptive_integral",
     "beurling_ahlfors.adaptive_integral", _adaptive_attrs),
    ("qcext.quadrature", None, "panel_integrals", "quadrature.panel_integrals",
     _panel_attrs),
    ("qcext.realmap", None, "panel_integrals", "realmap.panel_integrals",
     _panel_attrs),
    ("qcext.douady_earle", None, "de_defect", "douady_earle.de_defect",
     _defect_attrs),
    ("qcext.douady_earle", None, "_poisson_seed", "douady_earle._poisson_seed",
     _seed_attrs),
    ("qcext.realmap", None, "_invert_array", "realmap._invert_array", _points),
    ("qcext.realmap", "RealMap", "__call__", "realmap.RealMap.__call__",
     _points),
    ("qcext.realmap", "RealMap", "deriv", "realmap.RealMap.deriv", _points),
    ("qcext.realmap", "RealMap", "second_deriv", "realmap.RealMap.second_deriv",
     _points),
    ("qcext.realmap", "PowerIntegral", "_build_table",
     "realmap.PowerIntegral._build_table", _table_attrs),
)

# cli.main builds its parser through build_parser and then calls the
# parser's parse_args; that method is wrapped on the returned instance.
PARSE_ARGS = "cli.parse_args"

EVAL = ("realmap.RealMap.__call__", "realmap.RealMap.deriv",
        "realmap.RealMap.second_deriv")
EXTENSIONS = ("cli.extend_family", "cli.extend_ns")
PANELS = ("quadrature.panel_integrals", "realmap.panel_integrals")
PARSE = ("cli.build_parser", PARSE_ARGS, "cli.map_from_file",
         "cli.circle_map_from_dict")


class Recorder:
    """Collects spans from the wrappers it installs; one thread only."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, attrs]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def traced(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, attrs):
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
        else:
            fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return False
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self.traced(name, fn, attrs))
        return True

    def install(self, modules: dict, targets=TARGETS):
        """Wrap every target; ``modules`` maps module names to modules."""
        self.missing = []
        for mod_name, owner_name, attr, name, attrs in targets:
            owner = modules.get(mod_name)
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            if owner is None:
                self.missing.append(name)
                continue
            if name == "cli.build_parser":
                self._patch_build_parser(owner, attr, name)
            else:
                self._patch(owner, attr, name, attrs)

    def _patch_build_parser(self, owner, attr, name):
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.extend([name, PARSE_ARGS])
            return
        recorder = self

        def build_parser(*args, **kwargs):
            parser = fn(*args, **kwargs)
            parse = getattr(parser, "parse_args", None)
            if callable(parse):
                parser.parse_args = recorder.traced(PARSE_ARGS, parse)
            return parser

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self.traced(name, build_parser))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list in place."""
        out = list(self.spans)
        del self.spans[:]
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def summarize(spans) -> dict:
    """Additive raw totals (counts, points, milliseconds) of one op's spans."""
    selfs = self_times(spans)
    t: dict[str, float] = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    invert = ("realmap._invert_array",)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        ms = (end - start) * 1e3
        self_ms = selfs[i] * 1e3
        attrs = attrs or {}
        add(f"n:{name}", 1)
        add(f"ms:{name}", ms)
        add(f"self:{name}", self_ms)
        for key, value in attrs.items():
            add(f"{key}:{name}", value)
        if name in EVAL:
            if not _has_ancestor(spans, i, EVAL):
                add("eval_top_ms", ms)
            if _has_ancestor(spans, i, invert):
                add("evals_in_invert", 1)
        elif name in PANELS and parent >= 0 \
                and spans[parent][0] == "beurling_ahlfors.adaptive_integral":
            if attrs.get("order") == (spans[parent][4] or {}).get("order"):
                add("adaptive_passes", 1)
    return t


def _sum(t, prefix, names):
    return sum(t.get(f"{prefix}:{n}", 0.0) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, better, targets it needs, value from totals t and op count n)
LAYER_METRICS = {
    "cli.self_ms": ("ms/op", "lower", ("cli.main",),
                    lambda t, n: t.get("self:cli.main", 0.0) / n),
    "cli.parse_ms": ("ms/op", "lower", PARSE,
                     lambda t, n: _sum(t, "ms", PARSE) / n),
    "cli.write_ms": ("ms/op", "lower", ("cli._write_rows",),
                     lambda t, n: t.get("ms:cli._write_rows", 0.0) / n),
    "cli.bytes_out": ("B/op", "lower", (),
                      lambda t, n: t.get("bytes_out", 0.0) / n),
    "extensions.calls": ("count/op", "lower", EXTENSIONS,
                         lambda t, n: _sum(t, "n", EXTENSIONS) / n),
    "extensions.points_per_call": (
        "count", "higher", EXTENSIONS,
        lambda t, n: _ratio(_sum(t, "points", EXTENSIONS), _sum(t, "n", EXTENSIONS))),
    "extensions.self_ms": ("ms/op", "lower", EXTENSIONS,
                           lambda t, n: _sum(t, "self", EXTENSIONS) / n),
    "analysis.dilatation_calls": (
        "count/op", "lower", ("analysis.dilatation_analytic",),
        lambda t, n: t.get("n:analysis.dilatation_analytic", 0.0) / n),
    "analysis.dilatation_ms": (
        "ms/op", "lower", ("analysis.dilatation_analytic",),
        lambda t, n: t.get("ms:analysis.dilatation_analytic", 0.0) / n),
    "realmap.eval_calls": ("count/op", "lower", EVAL,
                           lambda t, n: _sum(t, "n", EVAL) / n),
    "realmap.eval_points": ("count/op", "lower", EVAL,
                            lambda t, n: _sum(t, "points", EVAL) / n),
    "realmap.eval_ms": ("ms/op", "lower", EVAL,
                        lambda t, n: t.get("eval_top_ms", 0.0) / n),
    "realmap.table_builds": (
        "count/op", "lower", ("realmap.PowerIntegral._build_table",),
        lambda t, n: t.get("n:realmap.PowerIntegral._build_table", 0.0) / n),
    "realmap.table_panels": (
        "count/op", "lower", ("realmap.PowerIntegral._build_table",),
        lambda t, n: t.get("panels:realmap.PowerIntegral._build_table", 0.0) / n),
    "realmap.table_build_ms": (
        "ms/op", "lower", ("realmap.PowerIntegral._build_table",),
        lambda t, n: t.get("ms:realmap.PowerIntegral._build_table", 0.0) / n),
    "realmap.invert_calls": ("count/op", "lower", ("realmap._invert_array",),
                             lambda t, n: t.get("n:realmap._invert_array", 0.0) / n),
    "realmap.invert_points": (
        "count/op", "lower", ("realmap._invert_array",),
        lambda t, n: t.get("points:realmap._invert_array", 0.0) / n),
    "realmap.invert_ms": ("ms/op", "lower", ("realmap._invert_array",),
                          lambda t, n: t.get("ms:realmap._invert_array", 0.0) / n),
    "realmap.invert_evals_per_call": (
        "count", "lower", ("realmap._invert_array",) + EVAL,
        lambda t, n: _ratio(t.get("evals_in_invert", 0.0),
                            t.get("n:realmap._invert_array", 0.0))),
    "quadrature.adaptive_calls": (
        "count/op", "lower", ("beurling_ahlfors.adaptive_integral",),
        lambda t, n: t.get("n:beurling_ahlfors.adaptive_integral", 0.0) / n),
    "quadrature.passes_per_adaptive": (
        "count", "lower", ("beurling_ahlfors.adaptive_integral",) + PANELS,
        lambda t, n: _ratio(t.get("adaptive_passes", 0.0),
                            t.get("n:beurling_ahlfors.adaptive_integral", 0.0))),
    "quadrature.panel_calls": ("count/op", "lower", PANELS,
                               lambda t, n: _sum(t, "n", PANELS) / n),
    "quadrature.nodes": ("count/op", "lower", PANELS,
                         lambda t, n: _sum(t, "nodes", PANELS) / n),
    "quadrature.panel_ms": ("ms/op", "lower", PANELS,
                            lambda t, n: _sum(t, "ms", PANELS) / n),
    "beurling_ahlfors.calls": ("count/op", "lower", ("cli.extend_ba",),
                               lambda t, n: t.get("n:cli.extend_ba", 0.0) / n),
    "beurling_ahlfors.self_ms": ("ms/op", "lower", ("cli.extend_ba",),
                                 lambda t, n: t.get("self:cli.extend_ba", 0.0) / n),
    "douady_earle.solves": ("count/op", "lower", ("cli.extend_de",),
                            lambda t, n: t.get("n:cli.extend_de", 0.0) / n),
    "douady_earle.solve_ms": ("ms/op", "lower", ("cli.extend_de",),
                              lambda t, n: t.get("ms:cli.extend_de", 0.0) / n),
    "douady_earle.defect_calls_per_solve": (
        "count", "lower", ("cli.extend_de", "douady_earle.de_defect"),
        lambda t, n: _ratio(t.get("n:douady_earle.de_defect", 0.0),
                            t.get("n:cli.extend_de", 0.0))),
    "douady_earle.nodes": (
        "count/op", "lower", ("douady_earle.de_defect", "douady_earle._poisson_seed"),
        lambda t, n: (t.get("nodes:douady_earle.de_defect", 0.0)
                      + t.get("nodes:douady_earle._poisson_seed", 0.0)) / n),
    "douady_earle.defect_ms": ("ms/op", "lower", ("douady_earle.de_defect",),
                               lambda t, n: t.get("ms:douady_earle.de_defect", 0.0) / n),
    "decompose.calls": ("count/op", "lower", ("dc.decompose_bilip",),
                        lambda t, n: t.get("n:dc.decompose_bilip", 0.0) / n),
    "decompose.factors": (
        "count", "lower", ("dc.decompose_bilip",),
        lambda t, n: _ratio(t.get("factors:dc.decompose_bilip", 0.0),
                            t.get("n:dc.decompose_bilip", 0.0))),
    "decompose.self_ms": ("ms/op", "lower", ("dc.decompose_bilip",),
                          lambda t, n: t.get("self:dc.decompose_bilip", 0.0) / n),
}


def layer_metrics(totals: dict, n_ops: int, missing) -> tuple[dict, list]:
    """Per-op layer metrics from the summed totals of ``n_ops`` traced ops.

    Returns (metrics, missing_metric_names); a metric whose targets are
    missing is left out of ``metrics``, never reported as zero.
    """
    missing = set(missing)
    out, gone = {}, []
    for name, (unit, _better, needs, fn) in LAYER_METRICS.items():
        if missing.intersection(needs):
            gone.append(name)
            continue
        out[name] = {"value": float(fn(totals, max(n_ops, 1))), "unit": unit}
    return out, gone
