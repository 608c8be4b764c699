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
import sys
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prorata import (
    CallablePayoff,
    CfmmArbitragePayoff,
    ConfigError,
    DomainExceeded,
    ForwardExchange,
    InvalidArgument,
    NoPositiveRegion,
    PowerPayoff,
    TabulatedPayoff,
    best_response,
    check_chord_condition,
    detect_linear_segment_at_zero,
    diagnostics,
    family_from_dict,
    poa,
    pro_rata_payoff,
    solve_symmetric,
)
from prorata.payoff import spec_keys

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


@pytest.mark.parametrize("kind, params", [
    (PowerPayoff, (0.5, np.float64(0.05))),
    (PowerPayoff, (np.float32(0.25), np.float64(0.05))),
    (CfmmArbitragePayoff, (np.float64(0.99), np.float32(200.0), np.int64(250),
                           np.float64(1.0))),
], ids=["power-gamma", "power-both", "cfmm"])
def test_numpy_parameters_compute_in_python_floats(kind, params):
    family = kind(*params)
    assert {type(getattr(family, f.name)) for f in fields(family)} == {float}
    twin = kind(*map(float, params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("auto", "numeric"):
            eq = solve_symmetric(family, 3, method=method)
            assert eq == solve_symmetric(twin, 3, method=method)
            assert {type(v) for v in (eq.q, eq.per_player, eq.equilibrium_payoff,
                                      eq.foc_residual)} == {float}
        report = poa(family, 3)
        assert report == poa(twin, 3)
        assert {type(v) for v in report[1:]} == {float}
        assert {type(v) for v in vars(diagnostics(family)).values()} == {float}


@pytest.mark.parametrize("make", [
    lambda: PowerPayoff(beta="0.5", gamma=0.05),
    lambda: PowerPayoff(beta=0.5, gamma="0.05"),
    lambda: ForwardExchange(gamma=0.99, r1="200", r2=250.0),
    lambda: CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c="1"),
], ids=["power-beta", "power-gamma", "pool-r1", "cfmm-c"])
def test_a_str_parameter_is_refused(make):
    # a range check compares it before it could be stored as a float
    with pytest.raises(TypeError):
        make()


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


@given(tables_and_points())
@settings(deadline=None, max_examples=200)
def test_tabulated_array_paths_match_the_tuple_expressions_bit_for_bit(case):
    # the knot and slope arrays are built once; each array path must give
    # what it gave from the tuples, converted on every call
    tab, points = case
    arr = np.array(points)
    ts, fs = tab.ts, tab.fs
    slopes = [(fs[i + 1] - fs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
    want_value = np.interp(arr, ts, fs)
    want_slope = np.asarray(slopes)[np.searchsorted(ts[1:-1], arr, side="right")]
    for got, want in ((tab.value(arr), want_value), (tab.derivative(arr), want_slope)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_tabulated_arrays_are_not_fields():
    tab = TabulatedPayoff(ts=(0.0, 1.0, 3.0), fs=(0.0, 2.0, 3.0))
    twin = TabulatedPayoff(ts=(0, 1, 3), fs=(0, 2, 3))
    assert tab == twin and hash(tab) == hash(twin)
    assert repr(tab) == "TabulatedPayoff(ts=(0.0, 1.0, 3.0), fs=(0.0, 2.0, 3.0))"
    assert list(spec_keys("table")) == ["ts", "fs"]
    with pytest.raises(ValueError):
        tab._slopes_arr[0] = 1.0  # read-only: every copy shares it


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


@pytest.mark.parametrize("fn", [
    lambda t: 8.0 * t - t * t,
    lambda t: t - 1e7 * t * t,
    lambda t: 250.0 - 200.0 * 250.0 / (200.0 + 0.99 * t) - t,
], ids=["quadratic", "narrow-region", "constant-product"])
def test_callable_finite_difference_of_a_float_is_a_float_with_the_array_bits(fn):
    f = CallablePayoff(fn)
    points = [0.0, 1e-300, 5e-9, 1e-7, 2e-7, 0.5, 1.0, 3.0, 7.999, 22.7, 1e6]
    scalar = [f.derivative(t) for t in points]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(np.array(scalar), f.derivative(np.array(points)))
    diag = diagnostics(f)
    assert all(type(v) is float for v in (diag.root, diag.argmax, diag.max_value))


_CP_ARGMAX = (math.sqrt(0.99 * 200.0 * 250.0) - 200.0) / 0.99


@pytest.mark.parametrize("fn, root, argmax, q2", [
    # concave with root 1e-7: a step of 1e-6 would span the whole positive
    # region and read f' < 0 on all of it; q = n/((n + 1) 1e7)
    (lambda t: t - 1e7 * t * t, 1e-7, 5e-8, 2.0 / 3e7),
    # 1 - (t - 1)**2 = 2t - t**2, q = 2n/(n + 1): f(1) > 0, so the step
    # below t = 1 stays 1e-6; a much smaller one at t = 0 would read only the
    # rounding of the O(1) terms that cancel there
    (lambda t: 1.0 - (t - 1.0) ** 2, 2.0, 1.0, 4.0 / 3.0),
    # CFMM written out, 250 - 250 at t = 0; q(n=2) is the family's closed form
    (lambda t: 250.0 - 200.0 * 250.0 / (200.0 + 0.99 * t) - t,
     47.5 / 0.99, _CP_ARGMAX, None),
], ids=["narrow-region", "shifted-quadratic", "constant-product"])
def test_callable_finite_difference_reads_the_slope_at_the_family_scale(
        fn, root, argmax, q2):
    f = CallablePayoff(fn)
    assert f.derivative(0.0) > 0.0
    diag = diagnostics(f)
    assert diag.root == pytest.approx(root, rel=1e-9)
    assert diag.argmax == pytest.approx(argmax, rel=1e-6)
    assert diag.max_value == pytest.approx(fn(argmax), rel=1e-9)
    assert check_chord_condition(f).holds
    assert not detect_linear_segment_at_zero(f).holds
    if q2 is None:
        q2 = solve_symmetric(CFMM, 2).q
    assert solve_symmetric(f, 2).q == pytest.approx(q2, rel=1e-6)
    assert best_response(f, 0.0).x == pytest.approx(argmax, rel=1e-6)


def test_a_callable_defined_only_below_1_is_diagnosed_and_checked():
    # the positive point scan starts at t = 1, past this wrapped table's last
    # knot: it passes over the points where f raises DomainExceeded, and the
    # finite-difference step scale reads the same scan
    table = TabulatedPayoff((0, 0.25, 0.5), (0, 0.25, -0.1))
    f = CallablePayoff(table.value)
    with pytest.raises(DomainExceeded):
        f.value(1.0)
    assert diagnostics(f).root == diagnostics(table).root == 0.42857142856519204
    assert diagnostics(f).argmax == pytest.approx(0.25, rel=1e-6)
    assert f.derivative(0.0) == pytest.approx(1.0, rel=1e-12)
    for check, holds in ((check_chord_condition, False),
                         (detect_linear_segment_at_zero, True)):
        assert check(f).holds is check(table).holds is holds
    assert best_response(f, 0.0).x == pytest.approx(0.25, rel=1e-6)


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


@given(gamma=st.floats(0.5, 1.0), r1=st.floats(1.0, 1e4), r2=st.floats(1.0, 1e4),
       eps=st.floats(-15.0, math.log10(0.5)).map(lambda k: 10.0**k),
       above=st.booleans())
@settings(deadline=None, max_examples=300)
def test_a_cfmm_family_is_nowhere_positive_exactly_when_its_margin_is_not(
        gamma, r1, r2, eps, above):
    # c = (g r2/r1)(1 +- eps) about the no-arbitrage boundary: f'(0) = m/r1
    # with m = g r2 - c r1 taken exactly, and a concave f is positive
    # somewhere exactly when f'(0) > 0
    c = gamma * r2 / r1 * (1.0 + eps if above else 1.0 - eps)
    family = CfmmArbitragePayoff(gamma, r1, r2, c)
    m = Fraction(gamma) * Fraction(r2) - Fraction(c) * Fraction(r1)
    if m <= 0:
        with pytest.raises(NoPositiveRegion) as caught:
            diagnostics(family)
        assert str(caught.value) == "payoff is nonpositive everywhere: f'(0) <= 0"
    else:
        assert diagnostics(family).max_value > 0.0


@given(gamma=st.floats(0.5, 1.0), r1=st.floats(1.0, 1e4), r2=st.floats(1.0, 1e4),
       eps=st.floats(-15.0, math.log10(0.5)).map(lambda k: 10.0**k),
       above=st.booleans(), ys=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       bounds=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                 st.sampled_from([0.0, 0.5, 1.0, 3.0, math.inf])),
                       min_size=17, max_size=17))
@settings(deadline=None, max_examples=300)
def test_the_cfmm_column_tender_is_the_scalar_tender_per_element(
        gamma, r1, r2, eps, above, ys, bounds):
    # c = (g r2/r1)(1 +- eps): families inside the margin band, outside it
    # and nowhere positive. y runs from 0 to 4 times the lone player's
    # tender x0 and past the zero of f, up to where k1 y overflows (near
    # float max) and to inf; the windows reach below 0, shut at hi = 0 and
    # open to hi = inf, as multiples of x0.
    family = CfmmArbitragePayoff(gamma, r1, r2,
                                 gamma * r2 / r1 * (1.0 + eps if above else 1.0 - eps))
    scalar, column = family.tender(), family.column_tender()
    scale = max(scalar(0.0), 1e-3)
    y = np.array([0.0, 1e12 * scale, 1e306, sys.float_info.max, math.inf,
                  *(4.0 * scale * np.array(ys))])
    lo = scale * np.array([lo for lo, _ in bounds])[:len(y)]
    hi = scale * np.array([hi for _, hi in bounds])[:len(y)]
    hi = np.maximum(lo, hi)  # a window lo <= hi
    # numpy warns of k1 y overflowing and of inf - inf, on arrays and on
    # the numpy floats the scalar tender is given here
    with np.errstate(over="ignore", invalid="ignore"):
        for args, want in (
            ((y,), [scalar(v) for v in y]),
            ((y, lo, hi), [scalar(*w) for w in zip(y, lo, hi)]),
            ((y, 0.0, hi), [scalar(v, 0.0, h) for v, h in zip(y, hi)]),
            ((y, lo, math.inf), [scalar(v, lo_, math.inf) for v, lo_ in zip(y, lo)]),
        ):
            assert [v.hex() for v in column(*args).tolist()] == [v.hex() for v in want]


@pytest.mark.parametrize("c", [1.0, 1.2], ids=["reference", "band"])
def test_the_cfmm_column_tender_writes_into_out(c):
    # the answer lands in the buffer given, with the bits of a fresh array,
    # and y is left as it was
    column = CfmmArbitragePayoff(0.99, 200.0, 250.0, c).column_tender()
    y = np.array([0.0, 3.0, 40.0, 1e3, 1e306])
    lo, hi = np.array([-1.0, 0.5, 0.0, 2.0, 0.0]), np.array([5.0, 20.0, 1.0, 9.0, 3.0])
    for args in ((y,), (y, lo, hi), (y, 0.0, hi), (y, 1.5)):
        with np.errstate(over="ignore", invalid="ignore"):
            want = column(*args)
            out = np.full(len(y), np.nan)
            got = column(*args, out=out)
        assert got is out and out.tobytes() == want.tobytes()
        assert y.tolist() == [0.0, 3.0, 40.0, 1e3, 1e306]


def test_a_family_without_a_closed_form_has_no_column_tender(power):
    table = TabulatedPayoff(ts=(0.0, 1.0, 2.0), fs=(0.0, 1.0, 0.5))
    assert power.column_tender() is None and table.column_tender() is None


def test_diagnostics_are_kept_on_the_family_object(cfmm):
    first = diagnostics(cfmm)
    assert diagnostics(cfmm) is first
    twin = CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0)
    assert diagnostics(twin) == first and diagnostics(twin) is not first


@pytest.mark.parametrize("family", [
    PowerPayoff(beta=0.5, gamma=0.05),
    CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0),
    TabulatedPayoff(ts=(0.0, 1.0, 2.0, 3.0, 4.0), fs=(0.0, 1.0, 1.6, 1.8, -0.5)),
], ids=["power", "cfmm", "table"])
def test_the_diagnostics_memo_is_not_a_field(family):
    fresh = replace(family)
    before = (hash(family), repr(family), spec_keys(family.kind))
    diagnostics(family)
    assert family == fresh and fresh == family
    assert (hash(family), repr(family), spec_keys(family.kind)) == before
    assert list(vars(fresh)) + ["_diagnostics"] == list(vars(family))


def test_a_nowhere_positive_family_raises_on_every_call():
    for family in (CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=2.0),
                   TabulatedPayoff(ts=(0, 1, 2), fs=(0, -1, -3))):
        for _ in range(3):
            with pytest.raises(NoPositiveRegion):
                diagnostics(family)
        assert not hasattr(family, "_diagnostics")


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
