"""Certification of the side conditions behind the equilibrium theory.

Three checks, each returning a :class:`ConditionReport` with replayable
witnesses:

* ``chord-strict`` — f(alpha*t) > alpha*f(t) for alpha in (0, 1) and t up
  to the root; the strict version of concavity-through-the-origin that
  makes the symmetric equilibrium unique.
* ``linear-segment-at-zero`` — detects f(t)/t constant near 0, the way
  strictness typically fails (then every split of a total is
  payoff-equivalent and uniqueness breaks).
* ``rosen-monotone-probe`` — a two-point sample of the diagonal
  strict-monotonicity condition behind the classical uniqueness route;
  it fails even for well-behaved payoffs here, which is why the chord
  argument is the one that matters.

The first two run one pipeline (``_decide``) over a table of the two
conditions: check the arguments, take the exact verdict, or else draw
seeded rows, apply the condition's row test and build the report, whose
verdict is read off its witness rows. The exact verdict follows from
where the family says f is linear through the origin (``linear_until``),
and the report says why in ``details["reason"]``. At 0 (power and cfmm)
f(t)/t is strictly decreasing, so the chord holds and no segment exists.
Up to a table's first knot f runs through (0, 0), so the chord fails
there and a segment is found, each with one exact witness row. A family
that does not know (a :class:`~prorata.payoff.CallablePayoff`), or a table
whose row floating point cannot confirm, is sampled: 10,000 seeded uniform
draws plus a ladder of probes toward zero. :func:`replay_witness` runs a
report's rows through the same row test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgument, integer, number
from .payoff import PayoffFamily, diagnostics

CHORD_STRICT = "chord-strict"
LINEAR_SEGMENT_AT_ZERO = "linear-segment-at-zero"
ROSEN_MONOTONE_PROBE = "rosen-monotone-probe"

DEFAULT_SAMPLES = 10_000
# a chord gap within this relative margin of equality counts as a violation
STRICT_MARGIN = 1e-12
# f(t)/t ratios this close (relative) are a candidate linear segment
RATIO_RTOL = 1e-10
_MAX_WITNESSES = 8
# the deterministic probes added to the sampled rows
_LADDER = 13
# details["reason"] of the verdicts a built-in kind decides
DECREASING = "f(t)/t strictly decreasing"
FIRST_SEGMENT = "f linear through (0, 0) on the first segment"

# rows (a, b) of a check: (alpha, t) for the chord, (t, t') for a segment
Rows = tuple[np.ndarray, np.ndarray]
Witness = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    witness: Witness
    details: dict = field(default_factory=dict)


def _chord_violations(family: PayoffFamily, alpha: np.ndarray, t: np.ndarray
                      ) -> tuple[Witness, int]:
    """The (alpha, t, gap) rows, up to eight, where f(alpha*t) > alpha*f(t)
    fails by more than ``STRICT_MARGIN``, and how many rows fail."""
    lhs = family.value(alpha * t)
    rhs = alpha * family.value(t)
    gap = lhs - rhs
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0e-300)
    idx = np.flatnonzero(gap <= STRICT_MARGIN * scale)
    witness = tuple(
        (float(alpha[i]), float(t[i]), float(gap[i])) for i in idx[:_MAX_WITNESSES]
    )
    return witness, int(idx.size)


def _chord_draws(rng: np.random.Generator, samples: int, hi: float) -> Rows:
    """The sampled (alpha, t) rows: alpha ~ U(1e-9, 1 - 1e-9) and
    t ~ U(0, hi), kept when t > 0."""
    alpha = rng.uniform(1e-9, 1.0 - 1e-9, size=samples)
    t = rng.uniform(0.0, hi, size=samples)
    keep = t > 0.0
    return alpha[keep], t[keep]


def _collinear_through_origin(
    family: PayoffFamily, slope: float, t: float, points: int = 17
) -> bool:
    s = np.linspace(t / points, t, points)
    resid = np.abs(family.value(s) - slope * s)
    return bool(np.all(resid <= 1e-8 * np.maximum(1.0, np.abs(slope * s))))


def _pair_draws(rng: np.random.Generator, samples: int, hi: float) -> Rows:
    """The sampled (t, t') rows: ordered pairs of two ``uniform(0, hi)``
    draws, kept when 0 < t and t' - t > 1e-6*hi."""
    a = rng.uniform(0.0, hi, size=samples)
    b = rng.uniform(0.0, hi, size=samples)
    lo, up = np.minimum(a, b), np.maximum(a, b)
    keep = (lo > 0.0) & (up - lo > 1e-6 * hi)
    return lo[keep], up[keep]


def _segments(family: PayoffFamily, t: np.ndarray, tp: np.ndarray
              ) -> tuple[Witness, int]:
    """The (t, t', |ratio gap|) rows, up to eight, where f(t)/t and
    f(t')/t' agree within ``RATIO_RTOL`` and f is collinear with the origin
    on (0, t], and how many rows' ratios agree."""
    r_lo = family.value(t) / t
    r_hi = family.value(tp) / tp
    diff = np.abs(r_lo - r_hi)
    close = np.flatnonzero(diff <= RATIO_RTOL * np.maximum(np.abs(r_lo), np.abs(r_hi)))
    confirmed = []
    for i in close:
        if _collinear_through_origin(family, float(r_hi[i]), float(t[i])):
            confirmed.append((float(t[i]), float(tp[i]), float(diff[i])))
        if len(confirmed) >= _MAX_WITNESSES:
            break
    return tuple(confirmed), int(close.size)


class _Condition(NamedTuple):
    """How the pipeline decides one condition. A witness row stands for
    the verdict ``holds == found``; ``probe`` maps points t to the rows
    probing at each, ``draw`` gives the seeded rows of a callable, ``test``
    finds the witness rows among rows (a, b), and ``keys`` name the
    sampled report's details: rows, rows failing, and the margin."""

    name: str
    found: bool
    probe: Callable[[np.ndarray], Rows]
    draw: Callable[[np.random.Generator, int, float], Rows]
    test: Callable[[PayoffFamily, np.ndarray, np.ndarray], tuple[Witness, int]]
    keys: tuple[str, str, str]
    margin: float


_CONDITIONS = {c.name: c for c in (
    _Condition(CHORD_STRICT, False, lambda t: (np.full(t.shape, 0.5), t),
               _chord_draws, _chord_violations,
               ("samples", "violations", "strict_margin"), STRICT_MARGIN),
    _Condition(LINEAR_SEGMENT_AT_ZERO, True, lambda t: (t / 2.0, t),
               _pair_draws, _segments,
               ("pairs", "ratio_matches", "ratio_rtol"), RATIO_RTOL),
)}


def _report(cond: _Condition, witness: tuple, details: dict) -> ConditionReport:
    # every verdict is read off its witness, as replay_witness reads it
    return ConditionReport(cond.name, cond.found == bool(witness), witness, details)


def _decide(cond: _Condition, family: PayoffFamily, samples: int = DEFAULT_SAMPLES,
            seed: int = 0, domain_hi: float | None = None,
            rows: Rows | None = None) -> ConditionReport:
    """The one pipeline of both checks, on the given ``rows`` or else on
    (0, hi], hi the family's ``diagnostics`` root (the zero of f, or a
    table's last knot when f is still positive there) or ``domain_hi``.

    The sampling arguments are checked first, for every family, and so is
    the end of the range: a family that is nowhere positive or whose root
    overflows raises here, whichever path then decides. ``samples = 0``
    leaves a callable only the deterministic ladder.

    A family whose ``linear_until`` is 0 (power, cfmm) has f(t)/t strictly
    decreasing: the chord holds, no segment exists, and neither verdict
    has witnesses. One linear through (0, 0) up to a positive
    ``linear_until`` (a table's ts[1]) has the row probing at
    t1 = min(linear_until, hi) as its witness; when floating point cannot
    confirm that row (a first slope that overflows, say), and where
    ``linear_until`` is None (a callable), the family is sampled: the
    seeded draws, then the ladder's probes toward zero.
    """
    if rows is None:
        integer("samples", samples, 0)
        integer("seed", seed, 0)
        if domain_hi is None:
            hi = diagnostics(family).root
        elif number("domain_hi", domain_hi, positive=True) > family.domain_max:
            raise InvalidArgument(f"domain_hi {domain_hi} is past the table's "
                                  f"last knot {family.domain_max}")
        else:
            hi = float(domain_hi)
        linear_until = family.linear_until
        if linear_until == 0.0:
            return _report(cond, (), {"reason": DECREASING, "hi": hi})
        if linear_until is not None:
            t1 = np.array([min(linear_until, hi)])
            witness, _ = cond.test(family, *cond.probe(t1))
            if witness:
                return _report(cond, witness, {"reason": FIRST_SEGMENT, "hi": hi})
        # then the ladder's halving probes; stop at hi/2**12 — below that
        # scale the chord gap of a smooth curve (O(t^2)) drowns in the O(t)
        # margin and every function looks linear
        a, b = cond.draw(np.random.default_rng(seed), samples, hi)
        pa, pb = cond.probe(hi * 2.0 ** -np.arange(0, _LADDER, dtype=float))
        rows = np.concatenate([a, pa]), np.concatenate([b, pb])
    else:
        hi = float(np.max(rows))
    # a segment's rows (t, t') must be ordered pairs
    if cond.found and not np.all((0.0 < rows[0]) & (rows[0] < rows[1])):  # NaN too
        raise InvalidArgument("pairs must satisfy 0 < t < t'")
    witness, count = cond.test(family, *rows)
    size, failing, margin = cond.keys
    return _report(cond, witness, {size: int(rows[1].size), failing: count,
                                   "hi": hi, margin: cond.margin})


def check_chord_condition(
    family: PayoffFamily,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    domain_hi: float | None = None,
) -> ConditionReport:
    """Decide the strict chord inequality f(alpha*t) > alpha*f(t) for
    alpha in (0, 1) and t in (0, hi], with hi the positive root (or the
    table end), or ``domain_hi`` when given.

    A built-in kind gets its exact verdict (:func:`_decide`). A callable
    is sampled: alpha ~ U(0, 1) and t ~ U(0, hi), plus a deterministic
    geometric ladder of (alpha=1/2, t) probes so segments hiding near zero
    are found regardless of seed. Violations within ``STRICT_MARGIN``
    (relative) of equality count as failures; up to eight are returned as
    (alpha, t, gap) witnesses. The sampling arguments are checked for
    every family.
    """
    return _decide(_CONDITIONS[CHORD_STRICT], family, samples, seed, domain_hi)


def detect_linear_segment_at_zero(
    family: PayoffFamily,
    t_pairs: Sequence[tuple[float, float]] | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    domain_hi: float | None = None,
) -> ConditionReport:
    """Look for distinct t < t' with f(t)/t == f(t')/t' (within
    ``RATIO_RTOL``), then confirm f is collinear with the origin on (0, t]
    before reporting a segment. ``holds=True`` means a segment was found.

    Pairs come from ``t_pairs`` when given; they need no sampling ceiling,
    so families without a finite positive root are fine there. Otherwise a
    built-in kind gets its exact verdict (:func:`_decide`), and a callable
    is sampled: seeded uniform pairs plus a geometric ladder of (t/2, t)
    probes toward zero. The sampling arguments are checked for every
    family.
    """
    rows = None
    if t_pairs is not None:
        pairs = np.asarray(t_pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or not len(pairs):
            raise InvalidArgument(f"t_pairs must be m >= 1 rows of (t, t'), "
                                  f"got shape {pairs.shape}")
        rows = pairs[:, 0], pairs[:, 1]
    return _decide(_CONDITIONS[LINEAR_SEGMENT_AT_ZERO], family, samples, seed,
                   domain_hi, rows)


def rosen_probe(family: PayoffFamily, n: int) -> ConditionReport:
    """Evaluate the diagonal-monotonicity sample
    E = (1/n)(f'(n) - f'(n/2)) + (1 - 1/n)(f(n) - 2 f(n/2));
    the condition needs E > 0, so ``holds=False`` whenever E <= 0.
    """
    n = integer("n", n, 2)
    f_hi, f_lo = float(family.value(float(n))), float(family.value(n / 2.0))
    d_hi, d_lo = float(family.derivative(float(n))), float(family.derivative(n / 2.0))
    e_value = (d_hi - d_lo) / n + (1.0 - 1.0 / n) * (f_hi - 2.0 * f_lo)
    return ConditionReport(
        condition=ROSEN_MONOTONE_PROBE,
        holds=e_value > 0.0,
        witness=((float(n), f_hi, d_hi), (n / 2.0, f_lo, d_lo)),
        details={
            "e_value": e_value,
            "derivative": family.derivative_nature,
        },
    )


def replay_witness(family: PayoffFamily, report: ConditionReport) -> bool:
    """Recompute a report's witnesses from scratch; True when every row
    still supports the recorded verdict."""
    cond = _CONDITIONS.get(report.condition)
    if cond is not None:
        # a failed chord and a found segment are the verdicts with rows,
        # and each row must come out of the check that made it again
        has_rows = report.holds == cond.found
        if not (has_rows and report.witness):
            return not has_rows and not report.witness
        rows = np.array(report.witness)
        fresh = _decide(cond, family, rows=(rows[:, 0], rows[:, 1]))
        return len(fresh.witness) == len(rows)
    if report.condition == ROSEN_MONOTONE_PROBE:
        (n, _, _), _ = report.witness
        fresh = rosen_probe(family, int(n))
        return fresh.holds == report.holds
    raise InvalidArgument(f"unknown condition {report.condition!r}")
