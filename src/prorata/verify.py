"""Certification of the side conditions behind the equilibrium theory.

Three checks, each returning a :class:`ConditionReport` with replayable
witnesses:

* ``chord-strict`` — f(alpha*t) > alpha*f(t) on sampled (alpha, t); the
  strict version of concavity-through-the-origin that makes the
  symmetric equilibrium unique.
* ``linear-segment-at-zero`` — detects f(t)/t constant near 0, the way
  strictness typically fails (then every split of a total is
  payoff-equivalent and uniqueness breaks).
* ``rosen-monotone-probe`` — a two-point sample of the diagonal
  strict-monotonicity condition behind the classical uniqueness route;
  it fails even for well-behaved payoffs here, which is why the chord
  argument is the one that matters.

The two sampled checks draw their samples into two buffers of their own,
the same draws as numpy's ``uniform`` in the same order, and evaluate in
place in arrays they make; reports and witnesses keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, integer, number
from .payoff import CallablePayoff, PayoffFamily, TabulatedPayoff, search_end

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


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    witness: tuple[tuple[float, ...], ...]
    details: dict = field(default_factory=dict)


def _sample_ceiling(
    family: PayoffFamily, domain_hi: float | None, samples: int, seed: int
) -> float:
    """The top of the sampled range, after checking the sampling arguments;
    ``samples = 0`` leaves only the deterministic ladder."""
    integer("samples", samples, 0)
    integer("seed", seed, 0)
    if domain_hi is not None:
        number("domain_hi", domain_hi, positive=True)
        if domain_hi > family.domain_max:
            raise InvalidArgument(f"domain_hi {domain_hi} is past the table's "
                                  f"last knot {family.domain_max}")
        return float(domain_hi)
    return search_end(family)


def _uniform(rng: np.random.Generator, out: np.ndarray, low: float,
             high: float) -> None:
    """Fill ``out`` with the draws ``rng.uniform(low, high, out.size)``
    makes: numpy's ``low + (high - low) * u``, the same u in the same order,
    so every sample keeps its bits."""
    rng.random(out=out)
    out *= high - low
    out += low


def _keep_rows(keep: np.ndarray, *buffers: np.ndarray) -> int:
    """Move the rows where ``keep`` holds to the front of each buffer, in
    order, and return how many there are; copies nothing when all are kept."""
    kept = int(np.count_nonzero(keep))
    if kept < keep.size:
        for buf in buffers:
            np.compress(keep, buf[:keep.size], out=buf[:kept])
    return kept


def _ladder(hi: float) -> np.ndarray:
    # Deterministic halving probes for both checks; stop at hi/2**12 — below that scale the
    # chord gap of a smooth curve (O(t^2)) drowns in the O(t) margin and
    # every function looks linear.
    return hi * 2.0 ** -np.arange(0, _LADDER, dtype=float)


def _chord_violations(
    family: PayoffFamily, alpha: np.ndarray, t: np.ndarray
) -> tuple[tuple[tuple[float, float, float], ...], int]:
    """The (alpha, t, gap) rows, up to eight, where f(alpha*t) > alpha*f(t)
    fails by more than ``STRICT_MARGIN``, and how many rows fail. Writes
    only into the arrays it makes: ``family.value`` may return its
    argument, or a view of it."""
    lhs = family.value(alpha * t)
    rhs = alpha * family.value(t)
    gap = lhs - rhs
    scale = np.abs(lhs, dtype=float)  # a callable may return integers
    np.maximum(scale, np.abs(rhs, out=rhs), out=scale)
    np.maximum(scale, 1.0e-300, out=scale)
    scale *= STRICT_MARGIN
    idx = np.flatnonzero(gap <= scale)
    witness = tuple(
        (float(alpha[i]), float(t[i]), float(gap[i])) for i in idx[:_MAX_WITNESSES]
    )
    return witness, int(idx.size)


def check_chord_condition(
    family: PayoffFamily,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    domain_hi: float | None = None,
) -> ConditionReport:
    """Sample the strict chord inequality f(alpha*t) > alpha*f(t).

    alpha ~ U(0, 1) and t ~ U(0, hi) with hi the positive root (or the
    table end); a deterministic geometric ladder of (alpha=1/2, t) probes
    is added so segments hiding near zero are found regardless of seed.
    Violations within ``STRICT_MARGIN`` (relative) of equality count as
    failures; up to eight are returned as (alpha, t, gap) witnesses.
    alpha and t are drawn into two buffers of the check's own, as
    ``uniform`` draws them, and the ladder goes into their tails.
    """
    hi = _sample_ceiling(family, domain_hi, samples, seed)
    rng = np.random.default_rng(seed)
    alpha, t = np.empty(samples + _LADDER), np.empty(samples + _LADDER)
    _uniform(rng, alpha[:samples], 1e-9, 1.0 - 1e-9)
    _uniform(rng, t[:samples], 0.0, hi)
    kept = _keep_rows(t[:samples] > 0.0, alpha, t)
    alpha, t = alpha[:kept + _LADDER], t[:kept + _LADDER]
    alpha[kept:] = 0.5
    t[kept:] = _ladder(hi)

    witness, violations = _chord_violations(family, alpha, t)
    return ConditionReport(
        condition=CHORD_STRICT,
        holds=violations == 0,
        witness=witness,
        details={
            "samples": int(t.size),
            "violations": violations,
            "hi": hi,
            "strict_margin": STRICT_MARGIN,
        },
    )


def _collinear_through_origin(
    family: PayoffFamily, slope: float, t: float, points: int = 17
) -> bool:
    s = np.linspace(t / points, t, points)
    resid = np.abs(family.value(s) - slope * s)
    return bool(np.all(resid <= 1e-8 * np.maximum(1.0, np.abs(slope * s))))


def _sampled_pairs(
    rng: np.random.Generator, samples: int, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (t, t') rows of the sampled segment search: ordered pairs of two
    ``uniform(0, hi)`` draws, kept when 0 < t and t' - t > 1e-6*hi, then
    the ladder's (t/2, t) probes, as views of two buffers made here. The
    first draw goes into a third, which then holds the widths t' - t and
    is freed on return, before the ratio test makes its arrays."""
    t, tp, width = (np.empty(samples + _LADDER) for _ in range(3))
    a, b = width[:samples], tp[:samples]
    _uniform(rng, a, 0.0, hi)
    _uniform(rng, b, 0.0, hi)
    lo = np.minimum(a, b, out=t[:samples])
    up = np.maximum(a, b, out=b)
    keep = np.subtract(up, lo, out=a) > 1e-6 * hi
    keep &= lo > 0.0
    kept = _keep_rows(keep, t, tp)
    t, tp = t[:kept + _LADDER], tp[:kept + _LADDER]
    tp[kept:] = _ladder(hi)
    np.divide(tp[kept:], 2.0, out=t[kept:])
    return t, tp


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

    Pairs come from ``t_pairs`` when given, otherwise from seeded uniform
    sampling plus a geometric ladder of (t, t/2) probes toward zero. The
    sampled pairs are drawn as ``uniform`` draws them and ordered into two
    buffers of the check's own, and the ladder goes into their tails.
    """
    if t_pairs is not None:
        # explicit pairs need no sampling ceiling, so families without a
        # finite positive root are fine here
        pairs = np.asarray(t_pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or not len(pairs):
            raise InvalidArgument(f"t_pairs must be m >= 1 rows of (t, t'), "
                                  f"got shape {pairs.shape}")
        hi = float(np.max(pairs))
        t, tp = pairs[:, 0], pairs[:, 1]
    else:
        hi = _sample_ceiling(family, domain_hi, samples, seed)
        t, tp = _sampled_pairs(np.random.default_rng(seed), samples, hi)
    if not np.all((0.0 < t) & (t < tp)):  # NaN too
        raise InvalidArgument("pairs must satisfy 0 < t < t'")
    # the ratio test writes only into arrays it makes: family.value may
    # return its argument, the caller's t_pairs among them
    r_lo = family.value(t) / t
    r_hi = family.value(tp) / tp
    diff = r_lo - r_hi
    np.abs(diff, out=diff)
    scale = np.abs(r_hi)
    np.maximum(np.abs(r_lo, out=r_lo), scale, out=scale)
    scale *= RATIO_RTOL
    close = diff <= scale
    confirmed = []
    for i in np.flatnonzero(close):
        if _collinear_through_origin(family, float(r_hi[i]), float(t[i])):
            confirmed.append((float(t[i]), float(tp[i]), float(diff[i])))
        if len(confirmed) >= _MAX_WITNESSES:
            break
    return ConditionReport(
        condition=LINEAR_SEGMENT_AT_ZERO,
        holds=bool(confirmed),
        witness=tuple(confirmed),
        details={
            "pairs": int(t.size),
            "ratio_matches": int(np.count_nonzero(close)),
            "hi": hi,
            "ratio_rtol": RATIO_RTOL,
        },
    )


def rosen_probe(family: PayoffFamily, n: int) -> ConditionReport:
    """Evaluate the diagonal-monotonicity sample
    E = (1/n)(f'(n) - f'(n/2)) + (1 - 1/n)(f(n) - 2 f(n/2));
    the condition needs E > 0, so ``holds=False`` whenever E <= 0.
    """
    n = integer("n", n, 2)
    if isinstance(family, TabulatedPayoff):
        derivative = "one-sided"
    elif isinstance(family, CallablePayoff) and family.deriv is None:
        derivative = "finite-difference"
    else:
        derivative = "analytic"
    f_hi, f_lo = float(family.value(float(n))), float(family.value(n / 2.0))
    d_hi, d_lo = float(family.derivative(float(n))), float(family.derivative(n / 2.0))
    e_value = (d_hi - d_lo) / n + (1.0 - 1.0 / n) * (f_hi - 2.0 * f_lo)
    return ConditionReport(
        condition=ROSEN_MONOTONE_PROBE,
        holds=e_value > 0.0,
        witness=((float(n), f_hi, d_hi), (n / 2.0, f_lo, d_lo)),
        details={
            "e_value": e_value,
            "derivative": derivative,
        },
    )


def replay_witness(family: PayoffFamily, report: ConditionReport) -> bool:
    """Recompute a report's witnesses from scratch; True when every row
    still supports the recorded verdict."""
    if report.condition in (CHORD_STRICT, LINEAR_SEGMENT_AT_ZERO):
        # a failed chord and a found segment are the verdicts with rows,
        # and each row must come out of the check that made it again
        has_rows = report.holds != (report.condition == CHORD_STRICT)
        if not (has_rows and report.witness):
            return not has_rows and not report.witness
        rows = np.array(report.witness)
        if report.condition == CHORD_STRICT:
            _, violations = _chord_violations(family, rows[:, 0], rows[:, 1])
            return violations == len(rows)
        fresh = detect_linear_segment_at_zero(family, t_pairs=rows[:, :2])
        return len(fresh.witness) == len(rows)
    if report.condition == ROSEN_MONOTONE_PROBE:
        (n, _, _), _ = report.witness
        fresh = rosen_probe(family, int(n))
        return fresh.holds == report.holds
    raise InvalidArgument(f"unknown condition {report.condition!r}")
