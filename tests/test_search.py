"""The one scalar solver: a safeguarded bracket on the sign of a function.

A maximum is located as the sign change of its slope, so the maximizer
tests solve for a derivative's zero. The default search is held against
plain bisection, written out below: it lands on bisection's float wherever
the sign change is a single float and takes at most two steps more (see
the kink test for the one way float bisection gets further ahead); with
``rtol > 0`` it is plain bisection, point for point.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prorata import CfmmArbitragePayoff, PowerPayoff, TabulatedPayoff, solve_symmetric
from prorata import equilibrium, payoff
from prorata.search import bisect_root


def plain_bisection(fn, lo, hi, rtol=0.0):
    """Halve the bracket on the sign of ``fn``: to adjacent floats, returning
    ``hi``, or with ``rtol > 0`` to that relative width, returning its
    midpoint; an exact zero is returned at once. Returns the root and the
    points evaluated."""
    points = []

    def f(t):
        points.append(t)
        return fn(t)

    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo, points
    if f_hi == 0.0:
        return hi, points
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return hi, points
        if rtol and hi - lo <= rtol * max(abs(lo), abs(hi)):
            return mid, points
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, points
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def solved(fn, lo, hi, rtol=0.0):
    """``bisect_root``'s root and the points it evaluated."""
    points = []

    def f(t):
        points.append(t)
        return fn(t)

    return bisect_root(f, lo, hi, rtol), points


def _within_ulps(x: float, target: float, ulps: int = 1) -> bool:
    return abs(x - target) <= ulps * math.ulp(target)


def test_quadratic_maximum_located_to_high_accuracy():
    # the slope of -(t - 3)^2 changes sign exactly at 3
    assert bisect_root(lambda t: -2.0 * (t - 3.0), 0.0, 10.0) == 3.0


def test_flat_quartic_maximum():
    # a quartic top is flat to third order, which stalls comparison-based
    # searches at ~1e-4; its slope still changes sign at the peak
    x = bisect_root(lambda t: -4.0 * (t - 2.0) ** 3, 0.0, 5.0)
    assert _within_ulps(x, 2.0)


@given(peak=st.floats(min_value=0.5, max_value=9.5))
@settings(deadline=None, max_examples=50)
def test_maximizer_tracks_moving_peak(peak):
    x = bisect_root(lambda t: peak - t, 0.0, 10.0)
    assert x == peak


def test_invalid_bracket_rejected():
    # an empty bracket holds no sign change unless fn vanishes on it
    with pytest.raises(ValueError):
        bisect_root(lambda t: -2.0 * t, 1.0, 1.0)


def test_bisect_sqrt2():
    r = bisect_root(lambda t: t * t - 2.0, 0.0, 2.0)
    assert _within_ulps(r, math.sqrt(2.0))


def test_bisect_zero_at_endpoint():
    assert bisect_root(lambda t: t - 1.0, 1.0, 5.0) == 1.0
    assert bisect_root(lambda t: t - 5.0, 1.0, 5.0) == 5.0


def test_bisect_requires_sign_change():
    # a numeric failure, not an argument error: a plain ValueError
    with pytest.raises(ValueError) as info:
        bisect_root(lambda t: t * t + 1.0, -1.0, 1.0)
    assert type(info.value) is ValueError


@given(root=st.floats(min_value=0.1, max_value=99.9))
@settings(deadline=None, max_examples=50)
def test_bisect_linear_roots(root):
    r = bisect_root(lambda t: t - root, 0.0, 100.0)
    assert r == pytest.approx(root, rel=1e-9, abs=1e-12)


def test_bisect_lands_on_a_kink():
    # a right slope of +1 left of the kink and -1 from it on: the first
    # float where the slope is <= 0 is the kink itself
    kink = 0.1 * 7.0
    assert bisect_root(lambda t: 1.0 if t < kink else -1.0, 0.0, 3.0) == kink


@given(
    root=st.floats(min_value=1e-300, max_value=1e300),
    rtol=st.sampled_from([0.0, 1e-10]),
)
@settings(deadline=None, max_examples=100)
def test_bisect_stop_is_relative_at_every_scale(root, rtol):
    # the stop scales with the bracket, also for roots far below 1
    r = bisect_root(lambda t: root - t, 0.0, 4.0 * root, rtol)
    assert abs(r - root) <= max(rtol, 2.0**-52) * root


def test_bisect_wide_bracket_does_not_overflow():
    r = bisect_root(lambda t: 1e308 - t, 0.0, 1.7e308)
    assert _within_ulps(r, 1e308)
    # half-widths, allowance and interpolation all stay finite on the
    # widest bracket there is
    for root in (-1e308, -3.0, 0.0, 1e-300, 7.5, 1.6e308):
        step = lambda t: 1.0 if t < root else -1.0  # noqa: E731
        r, points = solved(step, -1.7e308, 1.7e308)
        assert r == root
        assert len(points) <= len(plain_bisection(step, -1.7e308, 1.7e308)[1]) + 2


# ------------------------------------------- held against plain bisection


_KINDS = ("linear", "cubic", "step", "kink")


def _monotone(kind: str, k: float, a: float, b: float):
    """A decreasing function with its sign change at ``k``."""
    if kind == "linear":
        return lambda t: a * (k - t)
    if kind == "cubic":
        return lambda t: a * (k - t) ** 3 + b * (k - t)
    if kind == "step":
        return lambda t: a if t < k else -b
    # a one-sided slope that jumps across zero at k: no float is a zero
    return lambda t: a * (k - t) + a if t < k else b * (k - t) - b


brackets = dict(
    lo=st.floats(min_value=-1e6, max_value=1e6),
    log_width=st.floats(min_value=-8.0, max_value=8.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
magnitudes = st.floats(min_value=-8.0, max_value=8.0)


@given(**brackets, kind=st.sampled_from(_KINDS),
       rtol=st.sampled_from([1e-14, 1e-10, 1e-6, 1e-2]),
       log_a=magnitudes, log_b=magnitudes, flip=st.booleans())
@settings(deadline=None, max_examples=300)
def test_rtol_path_is_plain_bisection_point_for_point(
        lo, log_width, frac, kind, rtol, log_a, log_b, flip):
    hi = lo + 10.0**log_width
    k = lo + frac * (hi - lo)
    assume(lo < k < hi)
    fn = _monotone(kind, k, 10.0**log_a, 10.0**log_b)
    if flip:
        fn = (lambda g: lambda t: -g(t))(fn)
    r, points = solved(fn, lo, hi, rtol)
    ref, ref_points = plain_bisection(fn, lo, hi, rtol)
    assert math.copysign(1.0, r) == math.copysign(1.0, ref) and r == ref
    assert points == ref_points


def exact_halvings(lo: float, hi: float, root: float) -> int:
    """The halvings bisection needs in exact arithmetic to bring [lo, hi]
    down to the float spacing just below ``root``."""
    spacing = Fraction(root) - Fraction(math.nextafter(root, -math.inf))
    width, count = Fraction(hi) - Fraction(lo), 0
    while width > spacing:
        width, count = width / 2, count + 1
    return count


@given(**brackets, kind=st.sampled_from(["step", "kink"]),
       log_a=magnitudes, log_b=magnitudes, flip=st.booleans())
@settings(deadline=None, max_examples=400)
@example(lo=2.0**-126, log_width=0.0, frac=2.0**-126, kind="step", log_a=0.0,
         log_b=4.0, flip=False)
def test_kinks_cost_at_most_two_steps_beyond_bisection(
        lo, log_width, frac, kind, log_a, log_b, flip):
    # no float is a zero of these, so bisection cannot stop early on one
    hi = lo + 10.0**log_width
    k = lo + frac * (hi - lo)
    assume(lo < k <= hi)
    fn = _monotone(kind, k, 10.0**log_a, 10.0**log_b)
    if flip:
        fn = (lambda g: lambda t: -g(t))(fn)
    r, points = solved(fn, lo, hi)
    ref, ref_points = plain_bisection(fn, lo, hi)
    assert r == ref == k
    steps, ref_steps = len(points) - 2, len(ref_points) - 2
    exact = exact_halvings(lo, hi, k)
    assert steps <= exact + 2
    # float bisection can finish a step before its exact count; rounding P
    # down absorbs that, except in dyadic brackets around a power of two
    # such as the example, [2**-126, 1] with the kink at 2**-125: exact
    # halving needs 178 steps, float bisection takes 177, the search 180
    assert steps <= max(ref_steps, exact) + 2


@given(**brackets, log_slope=st.floats(min_value=-3.0, max_value=3.0),
       flip=st.booleans())
@settings(deadline=None, max_examples=300)
@example(lo=0.0, log_width=0.0, frac=2.225073858507e-311, log_slope=-1.0,
         flip=False)
def test_a_clean_sign_change_returns_bisections_float(lo, log_width, frac,
                                                      log_slope, flip):
    # t = peak is the one float where peak - t vanishes: both searches
    # either evaluate it or close in on it from both sides
    hi = lo + 10.0**log_width
    peak = lo + frac * (hi - lo)
    assume(lo <= peak <= hi)
    slope = (-1.0 if flip else 1.0) * 10.0**log_slope
    fn = lambda t: slope * (peak - t)  # noqa: E731
    r = bisect_root(fn, lo, hi)
    if 0.0 in (fn(math.nextafter(peak, -math.inf)), fn(math.nextafter(peak, math.inf))):
        # a subnormal peak times a slope below 1 underflows to zero on the
        # floats beside it too: the search returns one of those zeros
        assert fn(r) == 0.0
        return
    assert r == plain_bisection(fn, lo, hi)[0] == peak


def _count_solves(monkeypatch, *modules):
    """Patch each module's ``bisect_root`` to record in one shared list, per
    default-``rtol`` call, its evaluations and plain bisection's on the same
    bracket (and whether bisection stopped on an exact zero)."""
    calls = []

    def counted(fn, lo, hi, rtol=0.0):
        if rtol:
            return bisect_root(fn, lo, hi, rtol)
        r, points = solved(fn, lo, hi)
        ref, ref_points = plain_bisection(fn, lo, hi)
        calls.append((len(points), len(ref_points), fn(ref) == 0.0, r, ref))
        return r

    for module in modules:
        monkeypatch.setattr(module, "bisect_root", counted)
    return calls


REFERENCE_FAMILIES = (PowerPayoff(0.5, 0.05),
                      CfmmArbitragePayoff(0.99, 200.0, 250.0, 1.0))


def test_reference_equilibria_take_few_evaluations(monkeypatch):
    calls = _count_solves(monkeypatch, equilibrium)
    for family in REFERENCE_FAMILIES:
        for n in range(1, 51):
            solve_symmetric(family, n, "numeric")
    evaluations = [c[0] for c in calls]
    # n = 1 sits at argmax f and solves nothing; plain bisection takes ~53
    assert len(evaluations) == 98
    assert sum(evaluations) / len(evaluations) <= 16.0
    assert all(count <= ref + 2 for count, ref, *_ in calls)


def _seeded_families(seed: int, count: int):
    rng = random.Random(seed)
    families = []
    for _ in range(count):
        families.append(PowerPayoff(rng.uniform(0.2, 0.8), rng.uniform(0.02, 0.2)))
        g = rng.uniform(0.97, 1.0)
        r1, r2 = rng.uniform(100.0, 400.0), rng.uniform(100.0, 400.0)
        c = rng.uniform(0.3, 0.9) * g * r2 / r1
        families.append(CfmmArbitragePayoff(g, r1, r2, c))
    return families


def test_diagnostics_argmax_takes_few_evaluations(monkeypatch):
    calls = _count_solves(monkeypatch, payoff)
    families = REFERENCE_FAMILIES + tuple(_seeded_families(11, 12))
    for family in families:
        payoff.diagnostics(replace(family))  # a fresh object: past the memo
    assert len(calls) == len(families)  # one argmax each; the root uses rtol
    assert sum(c[0] for c in calls) / len(calls) <= 18.0
    assert all(count <= ref + 2 for count, ref, *_ in calls)


def test_kinked_table_solves_stay_within_two_evaluations_of_bisection(monkeypatch):
    # most of these answers sit on a knot, where interpolation gains nothing
    table = TabulatedPayoff((0, 10, 20, 30, 40, 50), (0, 8, 13, 15, 14, -2))
    # the symmetric route's search lives in equilibrium, the tender's in payoff
    calls = _count_solves(monkeypatch, equilibrium, payoff)
    for n in range(1, 51):
        solve_symmetric(table, n, "numeric")
    tender = table.tender()
    for y in np.linspace(0.0, 49.0, 200):
        tender(float(y))
    assert len(calls) > 200
    for count, ref, ref_hit_zero, r, ref_root in calls:
        if ref_hit_zero:
            # bisection stopped on an exact zero, which no other sequence
            # of points need meet as early; both answers are zeros then
            continue
        assert count <= ref + 2
        assert r == ref_root
