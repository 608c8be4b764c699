"""Metric names, units and the per-layer formulas over the tracer's stats.

Per-layer counts and self times are per op of the traced passes, so they
do not depend on how many passes fit in a run; per-call figures are
inclusive means. A figure whose layer the workload never reaches reads 0
(with a call count of 0 beside it). A figure that needs a wrapped name
the program no longer has reads -1 and the name is listed as missing.
"""

from __future__ import annotations

from typing import Callable

PAYOFF_CLASSES = ("CfmmArbitragePayoff", "PowerPayoff", "TabulatedPayoff",
                  "CallablePayoff")

END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "min_correct_digits": "digits",
}

MISSING = -1.0


def _sum(stats, prefix: str, field: str) -> float:
    return sum(getattr(s, field) for k, s in stats.items()
               if k == prefix or k.startswith(prefix + "."))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def _per_call(stats, key: str, scale: float) -> float:
    return _ratio(_sum(stats, key, "incl"), _sum(stats, key, "calls"), scale)


# name -> (unit, wrapped names it reads, formula over a Context); the
# metric is missing only when every name it reads is gone
PER_LAYER: dict[str, tuple[str, tuple[str, ...], Callable]] = {}


def _layer(name: str, unit: str, needs: tuple[str, ...] = ()):
    def register(fn):
        PER_LAYER[name] = (unit, needs, fn)
        return fn
    return register


class Context:
    """Everything a per-layer formula may read."""

    def __init__(self, stats, probe, facts, ops: int, extra: dict):
        self.stats, self.probe, self.facts = stats, probe, facts
        self.ops, self.extra = ops, extra

    def per_op(self, key: str, field: str, scale: float = 1.0) -> float:
        return _ratio(_sum(self.stats, key, field), self.ops, scale)


_VALUE = tuple(f"payoff.{cls}.value" for cls in PAYOFF_CLASSES)

_layer("payoff.value.scalar_calls", "calls/op", _VALUE)(
    lambda c: _ratio(sum(_sum(c.stats, k + ".scalar", "calls") for k in _VALUE),
                     c.ops))
_layer("payoff.value.power_ns", "ns", ("payoff.PowerPayoff.value",))(
    lambda c: _per_call(c.stats, "payoff.PowerPayoff.value.scalar", 1e9))
_layer("payoff.pro_rata_payoff.scalar_ns", "ns", ("payoff.pro_rata_payoff",))(
    lambda c: _per_call(c.stats, "payoff.pro_rata_payoff.scalar", 1e9))
_layer("payoff.value.array_elems", "elems/op", _VALUE)(
    lambda c: _ratio(sum(_sum(c.stats, k + ".array", "extra") for k in _VALUE),
                     c.ops))
_layer("payoff.value.table_ns", "ns", ("payoff.TabulatedPayoff.value",))(
    lambda c: _per_call(c.stats, "payoff.TabulatedPayoff.value.scalar", 1e9))
_layer("payoff.diagnostics.us", "us", ("payoff.diagnostics",))(
    lambda c: _per_call(c.probe, "payoff.diagnostics", 1e6))

_GOLDEN = "search.golden_section_maximize"
_layer("search.golden.calls", "calls/op", (_GOLDEN,))(
    lambda c: c.per_op(_GOLDEN, "calls"))
_layer("search.golden.evals_per_call", "evals/call", (_GOLDEN,))(
    lambda c: _ratio(_sum(c.stats, _GOLDEN, "extra"), _sum(c.stats, _GOLDEN, "calls")))
_layer("search.golden.self_ms", "ms/op", (_GOLDEN,))(
    lambda c: c.per_op(_GOLDEN, "self", 1e3))
_layer("search.bisect.evals_per_call", "evals/call", ("search.bisect_root",))(
    lambda c: _ratio(_sum(c.probe, "search.bisect_root", "extra"),
                     _sum(c.probe, "search.bisect_root", "calls")))

_BR = "equilibrium.best_response"
_SOLVE = "equilibrium.solve_symmetric"
_layer("equilibrium.best_response.calls", "calls/op", (_BR,))(
    lambda c: c.per_op(_BR, "calls"))
_layer("equilibrium.best_response.self_ms", "ms/op", (_BR,))(
    lambda c: c.per_op(_BR, "self", 1e3))
for _kind in ("power", "table", "cfmm"):
    _layer(f"equilibrium.best_response.{_kind}_us", "us", (_BR,))(
        lambda c, k=_kind: _per_call(c.stats, f"{_BR}.{k}", 1e6))
for _route in ("closed", "numeric"):
    _layer(f"equilibrium.solve_symmetric.{_route}_us", "us", (_SOLVE,))(
        lambda c, r=_route: _per_call(c.stats, f"{_SOLVE}.{r}", 1e6))
_layer("equilibrium.near_boundary_digits", "digits")(
    lambda c: c.extra["near_boundary_digits"])

_STUDY = ("dynamics.convergence_study", "dynamics.simulate",
          "dynamics.draw_initial_profile")
_layer("dynamics.trials", "trials/pass")(
    lambda c: _ratio(c.facts.study_trials + c.facts.whale_trials, c.extra["passes"]))
_layer("dynamics.rounds", "rounds/trial")(
    lambda c: _ratio(c.facts.study_rounds, c.facts.study_trials))
_layer("dynamics.converged_frac", "ratio")(
    lambda c: _ratio(c.facts.study_converged + c.facts.whale_converged,
                     c.facts.study_trials + c.facts.whale_trials))
_layer("dynamics.self_ms", "ms/op",
       _STUDY + ("dynamics.whale_fish_experiment",))(
    lambda c: c.per_op("dynamics", "self", 1e3))
_layer("dynamics.round_self_us", "us/round", _STUDY)(
    lambda c: _ratio(sum(_sum(c.stats, k, "self") for k in _STUDY),
                     c.facts.study_rounds, 1e6))
_layer("dynamics.whale_ms_per_trial", "ms/trial", ("dynamics.whale_fish_experiment",))(
    lambda c: _ratio(_sum(c.stats, "dynamics.whale_fish_experiment", "incl"),
                     c.facts.whale_trials, 1e3))

_layer("analysis.poa.us", "us", ("analysis.poa",))(
    lambda c: _per_call(c.stats, "analysis.poa", 1e6))
_layer("batch.clear.us_at_max", "us", ("batch.clear",))(
    lambda c: _per_call(c.stats, "batch.clear.max", 1e6))
_layer("batch.clear.ns_per_trader", "ns", ("batch.clear",))(
    lambda c: _ratio(_sum(c.stats, "batch.clear", "incl"),
                     _sum(c.stats, "batch.clear", "extra"), 1e9))
_layer("verify.chord.ms", "ms", ("verify.check_chord_condition",))(
    lambda c: _per_call(c.stats, "verify.check_chord_condition", 1e3))
_layer("verify.linear.ms", "ms", ("verify.detect_linear_segment_at_zero",))(
    lambda c: _per_call(c.stats, "verify.detect_linear_segment_at_zero", 1e3))

# measured by run.py in fresh processes
_layer("cli.import_s", "s")(lambda c: c.extra["cli.import_s"])
_layer("cli.process_s", "s")(lambda c: c.extra["cli.process_s"])
_layer("cli.reproduce.self_ms", "ms/op", ("cli.main",))(
    lambda c: c.per_op("cli", "self", 1e3))
_layer("trace.overhead_frac", "ratio")(lambda c: c.extra["trace.overhead_frac"])


def layer_metrics(stats, probe, facts, ops: int, missing, extra: dict) -> dict:
    """Every per-layer metric by name; ``extra`` carries the figures that
    do not come from the tracer."""
    ctx = Context(stats, probe, facts, ops, extra)
    out = {}
    for name, (_, needs, formula) in PER_LAYER.items():
        gone = needs and all(n in missing for n in needs)
        out[name] = MISSING if gone else float(formula(ctx))
    return out


def units() -> dict[str, str]:
    return {**END_TO_END, **{k: v[0] for k, v in PER_LAYER.items()}}
