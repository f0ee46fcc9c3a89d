"""Spans and counters around qfgraph's public functions, from outside.

install() replaces each traced function in every qfgraph module that binds
it, each traced method on its class, and each check in sweeps.CHECKS (the
table the benchmark calls them through) with a wrapper that records a span:
name, start, end and the span that was open when it began.  Self time is a
span's duration minus the time of the traced spans directly under it.  Spans
stay in memory, up to SPAN_CAP of them, and are written out by write_spans()
after the run; the per-name totals cover every call, kept or not.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array

SPAN_CAP = 500_000


def _build_pairs(args, result) -> dict:
    v = len(result.vertices)
    return {"pairs": v * (v - 1), "arrows": len(result.arrows)}


# (module, name, extra measures from (args, result)) for module functions, and
# (module, class, method, ...) for methods.  Layer names are the module names.
FUNCTIONS = [
    ("redsets", "r_set", lambda a, r: {"elements": len(r)}),
    ("redsets", "string_parameter", None),
    ("redsets", "minimal_window", None),
    ("drinfeld", "q_factorize", lambda a, r: {"roots": len(a[0].roots)}),
    ("drinfeld", "is_dissociate", None),
    ("drinfeld", "expand_all", None),
    ("graph", "build_graph", _build_pairs),
    ("graph", "classify", None),
    ("decision", "is_prime", None),
    ("decision", "alt_line_cut_simple", None),
    ("decision", "dual_pair_simple", None),
    ("decision", "is_real", None),
    ("qchar", "fundamental_qchar", lambda a, r: {"lweights": len(r)}),
    ("qchar", "dominant_product_lweights", None),
    ("qchar", "socle_head", None),
    ("cli", "load_input", None),
    ("cli", "emit", lambda a, r: {"bytes": len(json.dumps(a[0], sort_keys=True)) + 1}),
]
METHODS = [
    ("graph", "QFactGraph", "induced"),
    ("graph", "QFactGraph", "components"),
    ("graph", "QFactGraph", "is_totally_ordered"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.top_calls: list[int] = []
        self.self_s: list[float] = []
        self.wall_s: list[float] = []
        self.measures: dict[str, int] = {}
        self.intervals = 0
        self.open: list[int] = []
        self.stack: list[list] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self._undo: list = []

    # -- spans -----------------------------------------------------------------

    def key(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.top_calls.append(0)
            self.self_s.append(0.0)
            self.wall_s.append(0.0)
            self.open.append(0)
        return self.ids[name]

    def enter(self, key: int) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        index = len(self.span_start)
        if index >= SPAN_CAP:
            index = -1
            self.dropped += 1
        else:
            self.span_name.append(key)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            self.span_start.append(0.0)
        if not self.open[key]:
            self.top_calls[key] += 1
        self.open[key] += 1
        frame = [index, 0.0, 0.0, key]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        index, start, child, key = frame
        self.stack.pop()
        duration = end - start
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end
        self.calls[key] += 1
        self.open[key] -= 1
        self.self_s[key] += duration - child
        self.wall_s[key] += duration
        if self.stack:
            self.stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(self.key(name))
        try:
            yield
        finally:
            self.leave(frame)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name: str, measure):
        tracer, key = self, self.key(name)

        def wrapper(*args, **kwargs):
            frame = tracer.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if measure is not None:
                for m, v in measure(args, result).items():
                    mk = f"{name}.{m}"
                    tracer.measures[mk] = tracer.measures.get(mk, 0) + v
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a qfgraph module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qfgraph" or n.startswith("qfgraph.")]
        for mod, fname, measure in FUNCTIONS:
            original = getattr(sys.modules[f"qfgraph.{mod}"], fname)
            wrapper = self._wrap(original, f"{mod}.{fname}", measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((vars(module), attr, original))
                        setattr(module, attr, wrapper)
        for mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"qfgraph.{mod}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{mod}.{meth}", None))
        checks = sys.modules["qfgraph.sweeps"].CHECKS
        for name, check in list(checks.items()):
            self._undo.append((checks, name, check))
            checks[name] = self._wrap(check, f"sweeps.{name}",
                                      lambda a, r: {"cases": r.checked})
        interval = sys.modules["qfgraph.dynkin"].Interval
        post_init = interval.__dict__["__post_init__"]

        def counted(obj):
            self.intervals += 1
            post_init(obj)

        self._undo.append((interval, "__post_init__", post_init))
        interval.__post_init__ = counted

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- results -----------------------------------------------------------------

    def total(self, name: str, what: str) -> float:
        """calls, top (calls with no open span of the same name), self_s,
        wall_s, or a measure recorded under name.what."""
        if what in ("calls", "top", "self_s", "wall_s"):
            if name not in self.ids:
                return 0
            k = self.ids[name]
            return {"calls": self.calls, "top": self.top_calls,
                    "self_s": self.self_s, "wall_s": self.wall_s}[what][k]
        return self.measures.get(f"{name}.{what}", 0)

    def write_spans(self, path, header: str) -> int:
        """Gzipped tab-separated spans: index, name, start, end, parent index."""
        count = len(self.span_start)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(f"# {header} spans={count} dropped={self.dropped}\n")
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            names, starts = self.names, self.span_start
            ends, parents, keys = self.span_end, self.span_parent, self.span_name
            for i in range(count):
                out.write(f"{i}\t{names[keys[i]]}\t{starts[i]:.9f}\t"
                          f"{ends[i]:.9f}\t{parents[i]}\n")
        return count

