"""The one scalar solver: bisection on the sign of a function.

A maximum is located as the sign change of its slope, so the maximizer
tests bisect a derivative.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prorata.search import bisect_root


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
