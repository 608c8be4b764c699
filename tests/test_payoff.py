"""Payoff families, the pro-rata allocation rule, and payoff diagnostics.

Closed-form reference values for the two default families:

* cfmm(gamma=0.99, r1=200, r2=250, c=1):
    f(t) = 0.99*250*t/(200 + 0.99*t) - t
    root  w       = 47.5/0.99          = 47.97979797979798
    argmax t*     = (sqrt(0.99*200*250) - 200)/0.99 = 22.713085467545344
    max   f(t*)   = 2.5536270447072944
* power(beta=0.5, gamma=0.05):
    f(t) = sqrt(t) - 0.05*t
    root 400, argmax 100, max 5.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prorata import (
    CallablePayoff,
    CfmmArbitragePayoff,
    ConfigError,
    DomainExceeded,
    InvalidArgument,
    NoPositiveRegion,
    PowerPayoff,
    TabulatedPayoff,
    diagnostics,
    family_from_dict,
    pro_rata_payoff,
)

CFMM = CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0)
POWER = PowerPayoff(beta=0.5, gamma=0.05)

CFMM_ROOT = 47.5 / 0.99
CFMM_ARGMAX = (math.sqrt(0.99 * 200.0 * 250.0) - 200.0) / 0.99
POWER_ROOT = 400.0


# ---------------------------------------------------------------- families


def test_cfmm_value_matches_formula(cfmm):
    t = 10.0
    expected = 0.99 * 250.0 * t / (200.0 + 0.99 * t) - t
    assert cfmm.value(t) == pytest.approx(expected, rel=1e-15)
    assert cfmm.value(0.0) == 0.0


def test_power_value_matches_formula(power):
    t = 9.0
    assert power.value(t) == pytest.approx(3.0 - 0.45, rel=1e-15)
    assert power.value(0.0) == 0.0


@pytest.mark.parametrize(
    "family,lo,hi",
    [(CFMM, 0.1 * CFMM_ROOT, 0.9 * CFMM_ROOT), (POWER, 40.0, 360.0)],
)
def test_derivative_matches_central_difference(family, lo, hi):
    for t in np.linspace(lo, hi, 9):
        h = 1e-6 * t
        fd = (family.value(t + h) - family.value(t - h)) / (2.0 * h)
        assert family.derivative(t) == pytest.approx(fd, rel=1e-6)


def test_power_derivative_at_zero_is_infinite_on_both_paths(power):
    # f'(0+) = +inf for beta < 1; the scalar path used to divide by zero
    with np.errstate(divide="ignore"):
        arr = power.derivative(np.array([0.0, 4.0]))
    assert power.derivative(0.0) == math.inf
    assert power.derivative(0) == math.inf
    assert arr[0] == power.derivative(0.0)
    assert arr[1] == power.derivative(4.0)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidArgument):
        CfmmArbitragePayoff(gamma=0.0, r1=200.0, r2=250.0, c=1.0)
    with pytest.raises(InvalidArgument):
        CfmmArbitragePayoff(gamma=1.5, r1=200.0, r2=250.0, c=1.0)
    with pytest.raises(InvalidArgument):
        PowerPayoff(beta=1.0, gamma=0.05)
    with pytest.raises(InvalidArgument):
        PowerPayoff(beta=0.5, gamma=0.0)


def test_tabulated_interpolates_and_guards_domain():
    tab = TabulatedPayoff(ts=(0.0, 1.0, 3.0), fs=(0.0, 2.0, 3.0))
    assert tab.value(0.5) == pytest.approx(1.0)
    assert tab.value(2.0) == pytest.approx(2.5)
    assert tab.domain_max == 3.0
    with pytest.raises(DomainExceeded):
        tab.value(3.5)


def test_tabulated_derivative_is_the_exact_one_sided_slope():
    tab = TabulatedPayoff(ts=(0.0, 1.0, 3.0), fs=(0.0, 2.0, 3.0))
    # right slope inside and at a kink, left slope at the last knot
    assert [tab.derivative(t) for t in (0.0, 0.5, 1.0, 2.0, 3.0)] == [
        2.0, 2.0, 0.5, 0.5, 0.5
    ]
    with pytest.raises(DomainExceeded):
        tab.derivative(3.5)
    with pytest.raises(DomainExceeded):
        tab.derivative(np.array([1.0, 3.5]))


@st.composite
def tables_and_points(draw):
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1,
                          max_size=12))
    ts = np.concatenate([[0.0], np.cumsum(steps)])
    fs = [0.0] + draw(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                               min_size=len(steps), max_size=len(steps)))
    tab = TabulatedPayoff(ts=tuple(ts), fs=tuple(fs))
    inner = st.floats(min_value=0.0, max_value=tab.domain_max)
    points = draw(st.lists(inner | st.sampled_from(tab.ts), min_size=1,
                           max_size=20))
    return tab, points


@given(tables_and_points())
@settings(deadline=None, max_examples=200)
def test_tabulated_scalar_path_matches_array_bit_for_bit(case):
    tab, points = case
    arr = np.array(points)
    for method in (tab.value, tab.derivative):
        scalar = [method(t) for t in points]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(np.array(scalar), method(arr))
        assert [math.copysign(1.0, v) for v in scalar] == [
            math.copysign(1.0, v) for v in method(arr)
        ]


def test_tabulated_requires_origin_and_increasing_knots():
    with pytest.raises(InvalidArgument):
        TabulatedPayoff(ts=(0.5, 1.0), fs=(0.0, 1.0))
    with pytest.raises(InvalidArgument):
        TabulatedPayoff(ts=(0.0, 0.0, 1.0), fs=(0.0, 0.5, 1.0))
    with pytest.raises(InvalidArgument):
        TabulatedPayoff(ts=(0.0, 1.0), fs=(0.1, 1.0))


def test_callable_must_vanish_at_zero():
    with pytest.raises(InvalidArgument):
        CallablePayoff(lambda t: t + 1.0)
    f = CallablePayoff(lambda t: 8.0 * t - t * t, deriv=lambda t: 8.0 - 2.0 * t)
    assert f.value(2.0) == 12.0
    assert f.derivative(2.0) == 4.0


def test_callable_without_deriv_falls_back_to_finite_differences():
    f = CallablePayoff(lambda t: 8.0 * t - t * t)
    assert f.derivative(2.0) == pytest.approx(4.0, rel=1e-6)


def test_callable_finite_difference_stays_right_of_zero():
    def fn(t):
        assert np.all(np.asarray(t) >= 0.0), "evaluated left of the origin"
        return t**0.5 - 0.05 * t

    f = CallablePayoff(fn)
    # forward difference over [0, 1e-6]: (1e-3 - 5e-8) / 1e-6
    assert f.derivative(0.0) == pytest.approx(999.95, rel=1e-12)
    assert np.all(np.isfinite(f.derivative(np.array([0.0, 5e-7, 1.0]))))
    assert f.derivative(100.0) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------- pro-rata allocation


def test_zero_tender_gets_zero(cfmm):
    assert pro_rata_payoff(cfmm, 0.0, 5.0) == 0.0
    assert pro_rata_payoff(cfmm, 0.0, 0.0) == 0.0


def test_scalar_share_formula(cfmm):
    x, y = 4.0, 6.0
    expected = 0.4 * cfmm.value(10.0)
    assert pro_rata_payoff(cfmm, x, y) == pytest.approx(expected, rel=1e-15)


def test_array_path_matches_scalar_loop(power):
    xs = np.array([0.0, 1.0, 5.0, 20.0])
    ys = np.array([3.0, 0.0, 5.0, 1.0])
    got = pro_rata_payoff(power, xs, ys)
    want = [pro_rata_payoff(power, float(x), float(y)) for x, y in zip(xs, ys)]
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert got[0] == 0.0


@given(
    x=st.floats(min_value=0.0, max_value=POWER_ROOT / 2),
    y=st.floats(min_value=0.0, max_value=POWER_ROOT / 2),
)
@settings(deadline=None, max_examples=200)
def test_selfish_bound(x, y):
    # going it alone is never worse: U(x, y) <= f(x) for concave f, f(0)=0
    assert pro_rata_payoff(POWER, x, y) <= POWER.value(x) + 1e-9


@given(
    x1=st.floats(min_value=0.0, max_value=CFMM_ROOT / 2),
    x2=st.floats(min_value=0.0, max_value=CFMM_ROOT / 2),
    y=st.floats(min_value=0.0, max_value=CFMM_ROOT / 2),
)
@settings(deadline=None, max_examples=200)
def test_own_tender_midpoint_concavity(x1, x2, y):
    mid = pro_rata_payoff(CFMM, 0.5 * (x1 + x2), y)
    chord = 0.5 * (pro_rata_payoff(CFMM, x1, y) + pro_rata_payoff(CFMM, x2, y))
    assert mid >= chord - 1e-9


# ------------------------------------------------------------ diagnostics


def test_cfmm_diagnostics_against_closed_forms(cfmm):
    d = diagnostics(cfmm)
    assert d.root == pytest.approx(CFMM_ROOT, rel=1e-9)
    assert d.argmax == pytest.approx(CFMM_ARGMAX, rel=1e-9)
    assert d.max_value == pytest.approx(cfmm.value(CFMM_ARGMAX), rel=1e-12)
    assert abs(cfmm.value(d.root)) < 1e-7
    assert cfmm.value(d.positive_witness) > 0.0


def test_power_diagnostics_against_closed_forms(power):
    d = diagnostics(power)
    assert d.root == pytest.approx(400.0, rel=1e-9)
    assert d.argmax == pytest.approx(100.0, rel=1e-9)
    assert d.max_value == pytest.approx(5.0, rel=1e-12)


def test_tabulated_diagnostics_read_off_knots():
    tab = TabulatedPayoff(ts=(0.0, 1.0, 2.0, 3.0, 4.0), fs=(0.0, 1.0, 1.6, 1.8, -0.5))
    d = diagnostics(tab)
    assert d.argmax == 3.0
    assert d.max_value == 1.8
    # zero crossing of the last segment: 1.8 + (t-3)*(-2.3) = 0
    assert d.root == pytest.approx(3.0 + 1.8 / 2.3, rel=1e-9)


def test_everywhere_nonpositive_family_flagged():
    hopeless = CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=2.0)
    with pytest.raises(NoPositiveRegion):
        diagnostics(hopeless)


# -------------------------------------------------------- dict -> family


def test_family_from_dict_roundtrip(cfmm, power):
    assert family_from_dict(
        {"kind": "cfmm", "gamma": 0.99, "r1": 200.0, "r2": 250.0, "c": 1.0}
    ) == cfmm
    assert family_from_dict({"kind": "power", "beta": 0.5, "gamma": 0.05}) == power
    tab = family_from_dict({"kind": "table", "ts": [0.0, 1.0], "fs": [0.0, 0.5]})
    assert isinstance(tab, TabulatedPayoff)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "nope"},
        {"gamma": 0.99},
        {"kind": "power", "beta": 0.5},
        {"kind": "power", "beta": 0.5, "gamma": 0.05, "extra": 1},
        {"kind": "cfmm", "gamma": 2.0, "r1": 200.0, "r2": 250.0, "c": 1.0},
        # float() would read true as 1.0
        {"kind": "power", "beta": 0.5, "gamma": True},
        {"kind": "table", "ts": [0.0, True], "fs": [0.0, 0.5]},
    ],
)
def test_family_from_dict_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        family_from_dict(spec)


def test_a_payoff_that_never_returns_to_zero_has_no_finite_root():
    # sqrt(t) stays positive: the root search stops at the end of the float
    # range, 2**1023 here, and every solve that needs the root says so
    from prorata import NoFiniteRoot, best_response, check_chord_condition

    family = CallablePayoff(lambda t: t**0.5, deriv=lambda t: 0.5 * t**-0.5)
    message = "payoff still positive at t=8.98847e+307 (cap reached)"
    for solve in (diagnostics, lambda f: best_response(f, 1.0),
                  check_chord_condition):
        with pytest.raises(NoFiniteRoot) as caught:
            solve(family)
        assert str(caught.value) == message
