"""Spans around the program's public functions, from outside the program.

``Tracer`` replaces each target function, at every module attribute and
class attribute through which the program reaches it, with a wrapper that
times the call. Calls nest on a stack, so a call's self time is its
duration minus the time of the wrapped calls it made; summed over all
calls, self times add up to the root spans exactly.

Coarse calls are kept as spans (name, start, end, parent) in memory and
written out at the end. The hot scalar calls (payoff ``value`` and
friends, millions per run) are only aggregated: calls, inclusive time,
self time and a count of array elements.

A target that no longer exists is recorded in ``missing`` and skipped; the
metrics that need it read -1 instead of crashing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

from metrics import PAYOFF_CLASSES

# (module, attribute, kind): "leaf" is aggregated only, "span" is kept,
# "search" is a span that also counts evaluations of its first argument.
TARGETS = [
    ("payoff", "pro_rata_payoff", "leaf"),
    *[("payoff", f"{cls}.{meth}", "leaf")
      for cls in PAYOFF_CLASSES for meth in ("value", "derivative")],
    ("payoff", "diagnostics", "span"),
    ("payoff", "family_from_dict", "span"),
    ("search", "golden_section_maximize", "search"),
    ("search", "bisect_root", "search"),
    ("equilibrium", "solve_symmetric", "span"),
    ("equilibrium", "best_response", "span"),
    ("equilibrium", "foc_residual", "leaf"),
    ("dynamics", "simulate", "span"),
    ("dynamics", "convergence_study", "span"),
    ("dynamics", "whale_fish_experiment", "span"),
    ("dynamics", "draw_initial_profile", "span"),
    ("analysis", "poa", "span"),
    ("analysis", "poa_growth_check", "span"),
    ("analysis", "power_poa_closed_form", "leaf"),
    ("batch", "clear", "span"),
    ("batch", "optimal_arbitrage", "leaf"),
    ("batch", "arbitrage_payoff", "leaf"),
    ("verify", "check_chord_condition", "span"),
    ("verify", "detect_linear_segment_at_zero", "span"),
    ("verify", "rosen_probe", "span"),
    ("verify", "replay_witness", "span"),
    ("cli", "main", "span"),
    ("cli", "build_parser", "span"),
]

PACKAGE = "prorata"
ROOT = "harness.pass"
CLASSIFIED = ("equilibrium.best_response", "equilibrium.solve_symmetric",
              "batch.clear")
# position of the argument that decides scalar or array for a leaf target
_LEAF_ARG = {"batch.arbitrage_payoff": 2}
_RAISED = object()


def _classify(name: str, args, kwargs, result, max_traders: int):
    """Sub-key and element count for one call of a classified target."""
    if name == "equilibrium.best_response":
        family = args[0] if args else kwargs.get("family")
        return f"{name}.{getattr(family, 'kind', type(family).__name__)}", 0
    if name == "equilibrium.solve_symmetric":
        method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
        if method == "auto":
            route = getattr(result, "method", "")
            method = "closed" if str(route).startswith("closed") else "numeric"
        return f"{name}.{method}", 0
    if name == "batch.clear":
        instance = args[0] if args else kwargs.get("instance")
        traders = int(np.size(getattr(instance, "deltas", ())))
        return (f"{name}.max" if traders == max_traders else name), traders
    return name, 0


@dataclass(slots=True)
class Stat:
    calls: int = 0
    incl: float = 0.0   # seconds, including wrapped calls made inside
    self: float = 0.0   # seconds, excluding them
    extra: int = 0      # array elements, evaluations or traders


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # per open call, the seconds spent in its wrapped calls so far; the
        # bottom entry collects the calls made outside any root span
        self._child = [0.0]
        self._open = [-1]              # indices of open spans, innermost last
        self._patches: list[tuple[object, str, object, object]] = []
        batch = sys.modules.get(f"{PACKAGE}.batch")
        self._max_traders = getattr(batch, "MAX_TRADERS", -1)
        self._build()

    # ----------------------------------------------------------- wrapping

    def _build(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, kind in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner = module
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, kind)
            if path:  # a method: patch the class that defines it
                self._patches.append((owner, last, original, wrapper))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _stat(self, key: str) -> Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _wrap(self, fn, name: str, kind: str):
        if kind == "leaf":
            return self._wrap_leaf(fn, name)
        child, opened, clock = self._child, self._open, time.perf_counter
        name_id = self._name_id(name)
        classified = name in CLASSIFIED
        counts_evals = kind == "search"

        def wrapper(*args, **kwargs):
            evals = [0]
            if counts_evals and args:
                inner = args[0]

                def counted(x):
                    evals[0] += 1
                    return inner(x)

                args = (counted, *args[1:])
            index = self._open_span(name_id)
            opened.append(index)
            child.append(0.0)
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                own = dt - child.pop()
                child[-1] += dt
                opened.pop()
                self.span_start[index], self.span_end[index] = t0, t1
                key, extra = (
                    _classify(name, args, kwargs, result, self._max_traders)
                    if classified else (name, evals[0]))
                stat = self._stat(key)
                stat.calls += 1
                stat.incl += dt
                stat.self += own
                stat.extra += extra

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_leaf(self, fn, name: str):
        child, clock = self._child, time.perf_counter
        scalar, vector = self._stat(name + ".scalar"), self._stat(name + ".array")
        # methods take (self, t), pro_rata_payoff (family, x, y)
        position = _LEAF_ARG.get(name, 1)
        ndarray = np.ndarray

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - child.pop()
                child[-1] += dt
                if len(args) > position and isinstance(args[position], ndarray):
                    stat = vector
                    stat.extra += args[position].size
                else:
                    stat = scalar
                stat.calls += 1
                stat.incl += dt
                stat.self += own

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open_span(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return index

    @contextlib.contextmanager
    def installed(self):
        """Route the program's calls through the wrappers inside the block."""
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)

    @contextlib.contextmanager
    def root(self, name: str = ROOT):
        """A root span: everything traced inside it is its descendant."""
        index = self._open_span(self._name_id(name))
        self._open.append(index)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            own = t1 - t0 - self._child.pop()
            self._open.pop()
            self.span_start[index], self.span_end[index] = t0, t1
            stat = self._stat(name)
            stat.calls += 1
            stat.incl += t1 - t0
            stat.self += own

    # ------------------------------------------------------------ results

    def take(self) -> dict[str, Stat]:
        """Return the aggregates so far and start new ones."""
        taken = {k: Stat(v.calls, v.incl, v.self, v.extra)
                 for k, v in self.stats.items() if v.calls}
        # wrappers hold their Stat objects, so reset them in place
        for stat in self.stats.values():
            stat.calls, stat.incl, stat.self, stat.extra = 0, 0.0, 0.0, 0
        return taken

    def write_spans(self, path) -> int:
        spans = [[self.span_name[i], self.span_parent[i],
                  round(self.span_start[i], 9), round(self.span_end[i], 9)]
                 for i in range(len(self.span_start))]
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "start_s", "end_s"],
                       "spans": spans}, fh)
        return len(spans)
