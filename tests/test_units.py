"""A change of units as a whole-domain oracle.

Scale tenders by lam and payoffs by a: every equilibrium total, best
response and landmark of f scales by lam, every payoff by a, and every
price of anarchy and side-condition verdict stays the same. With lam and a
powers of two the scaling is exact in floating point, so the checks below
are bit for bit and need no closed form:

* cfmm: scaling both reserves by 2**k gives f_lam(lam t) = lam f(t);
* tables: scaling the knots by 2**k in t and 2**j in f;
* power: PowerPayoff(beta, gamma) scaled by lam is
  lam**beta PowerPayoff(beta, gamma lam**(1-beta)), which no power of two
  makes exact, so the price of anarchy is checked to depend on beta alone
  up to a stated bound.

``simulate`` is checked with its threshold and movement cap scaled too,
and so are the sampled verdicts of ``CallablePayoff`` wrappers of cfmm
families and of tables, whose checked range scales with the reserves or
the knots. Left out are the results that an absolute constant ties to one
scale: ``GameConfig.convergence_threshold`` left at its default (0.1, a
distance in units of tender), ``CallablePayoff``'s |f(0)| <= 1e-12 check,
the sampled checks' floors (``verify._collinear_through_origin`` and the
chord test's 1e-300) and a callable's finite-difference step scale, capped
at 1.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prorata import (
    BoundedUpdate,
    CallablePayoff,
    CfmmArbitragePayoff,
    GameConfig,
    PowerPayoff,
    ProRataError,
    TabulatedPayoff,
    Unconstrained,
    best_response,
    check_chord_condition,
    detect_linear_segment_at_zero,
    diagnostics,
    poa,
    simulate,
    solve_symmetric,
)


def _outcome(call):
    """A call's result, or the type of the error it raised."""
    try:
        return call()
    except (ProRataError, ArithmeticError) as exc:
        return type(exc)


def _landmarks(family):
    """diagnostics' (root, max_value, argmax), or the error's type."""
    diag = _outcome(lambda: diagnostics(family))
    return diag if isinstance(diag, type) else (diag.root, diag.max_value,
                                                diag.argmax)


# the others' total y as a share of the end of the search; no subnormal
# y, which a power of two would not scale exactly
_Y_FRACTIONS = st.just(0.0) | st.floats(1e-12, 1.2)


def _scaled(result, *factors):
    # a record's fields times their factors, an error type as it is
    if isinstance(result, type):
        return result
    return tuple(v * s if isinstance(s, float) else v
                 for v, s in zip(result, factors))


# the threshold and the movement cap as log-uniform shares of the family's
# scale: the zero of f, or a table's last knot
_SHARES = st.floats(-9.0, -0.3).map(lambda e: 10.0**e)


def _trace(family, lam, a, n, order, threshold, delta):
    """A seeded ``simulate`` run with its threshold and cap scaled by lam,
    as (stop, tenders / lam, equilibrium record, payoffs / a), or the
    error's type."""
    scenario = Unconstrained() if delta is None else BoundedUpdate(delta * lam)
    config = GameConfig(family, n, scenario, convergence_threshold=threshold * lam,
                        max_iterations=60, seed=3, update_order=order)
    trace = _outcome(lambda: simulate(config))
    if isinstance(trace, type):
        return trace
    eq = _scaled(trace.equilibrium, 1.0 / lam, None, 1.0 / lam, 1.0 / a,
                 1.0 / a, None)
    return (trace.stop_reason, (trace.tenders / lam).tolist(), eq,
            (trace.final_payoffs / a).tolist())


# ----------------------------------------------------------------- cfmm

_CFMM = st.builds(
    lambda g, r1, r2, u: CfmmArbitragePayoff(g, r1, r2, u * g * r2 / r1),
    st.floats(0.5, 1.0), st.floats(1.0, 1e4), st.floats(1.0, 1e4),
    # u -> 1 is the no-arbitrage boundary, where the exact margin serves
    st.one_of(st.floats(0.01, 0.99),
              st.floats(-14.0, -2.0).map(lambda e: 1.0 - 10.0**e)),
)


@given(family=_CFMM, k=st.sampled_from([-30, -7, 5, 30]),
       n=st.sampled_from([1, 2, 5, 17]), y_frac=_Y_FRACTIONS)
@settings(deadline=None, max_examples=300)
def test_cfmm_scaled_reserves_scale_every_result(family, k, n, y_frac):
    lam = 2.0**k
    scaled = CfmmArbitragePayoff(family.gamma, family.r1 * lam, family.r2 * lam,
                                 family.c)
    eq = solve_symmetric(family, n)
    eq_s = solve_symmetric(scaled, n)
    assert eq_s == _scaled(eq, lam, None, lam, lam, lam, None)
    landmarks = _landmarks(family)
    assert _landmarks(scaled) == _scaled(landmarks, lam, lam, lam)
    y = y_frac * landmarks[0]
    assert best_response(scaled, y * lam) == _scaled(
        best_response(family, y), lam, lam, None)
    assert poa(scaled, n).poa == poa(family, n).poa


@given(family=_CFMM, k=st.sampled_from([-30, -7, 5, 30]),
       n=st.sampled_from([2, 3, 5]),
       order=st.sampled_from(["sequential", "synchronous"]),
       threshold=_SHARES, delta=st.none() | _SHARES)
@settings(deadline=None, max_examples=200)
def test_cfmm_scaled_reserves_scale_a_simulation(family, k, n, order, threshold,
                                                 delta):
    lam, w = 2.0**k, diagnostics(family).root
    scaled = CfmmArbitragePayoff(family.gamma, family.r1 * lam, family.r2 * lam,
                                 family.c)
    delta = None if delta is None else delta * w
    assert _trace(scaled, lam, lam, n, order, threshold * w, delta) == _trace(
        family, 1.0, 1.0, n, order, threshold * w, delta)


@given(family=_CFMM, k=st.sampled_from([-30, -7, 5, 30]))
@settings(deadline=None, max_examples=150)
def test_cfmm_scaled_reserves_keep_the_sampled_verdicts(family, k):
    # a callable is sampled on (0, hi], hi its own zero of f, found from
    # powers of two, which the scaling maps onto powers of two
    lam = 2.0**k
    scaled = CfmmArbitragePayoff(family.gamma, family.r1 * lam, family.r2 * lam,
                                 family.c)
    for check in (check_chord_condition, detect_linear_segment_at_zero):
        report = _outcome(lambda: check(CallablePayoff(family.value)))
        assert _verdict(_outcome(lambda: check(CallablePayoff(scaled.value))),
                        lam, lam) == _verdict(report, 1.0, 1.0)


# --------------------------------------------------------------- tables

@st.composite
def _tables(draw) -> TabulatedPayoff:
    """A table of 2 to 9 knots whose first slope is positive, with slopes
    that decrease (the rounded ones may not, and then every solve raises,
    scaled or not). A table still positive at the end may get a last
    segment, of slope min(slopes[-1], -1), that takes f below 0."""
    steps = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=7))
    slopes = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=len(steps),
                                  max_size=len(steps))), reverse=True)
    slopes[0] = abs(slopes[0]) + 0.01
    ts, fs = [0.0], [0.0]
    for dt, s in zip(steps, slopes):
        ts.append(ts[-1] + dt)
        fs.append(fs[-1] + s * dt)
    if fs[-1] > 0.0 and not draw(st.booleans()):  # True leaves it open
        m = max(-slopes[-1], 1.0)
        ts.append(ts[-1] + fs[-1] / m + 1.0)
        fs.append(-m)
    return TabulatedPayoff(tuple(ts), tuple(fs))


def _verdict(report, t_scale, f_scale):
    """A report's verdict, witness rows and details, the rows' and range's
    t in units of t_scale and their payoff gaps in units of f_scale."""
    if isinstance(report, type):
        return report
    chord = report.condition == "chord-strict"
    # chord rows are (alpha, t, gap); segment rows (t, t', gap in f(t)/t)
    units = (1.0, t_scale, f_scale) if chord else (t_scale, t_scale,
                                                   f_scale / t_scale)
    rows = tuple(tuple(v / u for v, u in zip(row, units)) for row in report.witness)
    details = {key: v / t_scale if key == "hi" else v
               for key, v in report.details.items()}
    return report.holds, rows, details


@given(table=_tables(), k=st.integers(-60, 59), j=st.integers(-60, 59),
       n=st.sampled_from([1, 2, 3, 7]), y_frac=_Y_FRACTIONS)
@settings(deadline=None, max_examples=300)
def test_tables_scaled_in_t_and_f_scale_every_result(table, k, j, n, y_frac):
    lam, a = 2.0**k, 2.0**j
    scaled = TabulatedPayoff(tuple(t * lam for t in table.ts),
                             tuple(f * a for f in table.fs))
    assert _landmarks(scaled) == _scaled(_landmarks(table), lam, a, lam)
    eq = _outcome(lambda: solve_symmetric(table, n))
    assert _outcome(lambda: solve_symmetric(scaled, n)) == _scaled(
        eq, lam, None, lam, a, a, None)
    assert _outcome(lambda: poa(scaled, n).poa) == _outcome(lambda: poa(table, n).poa)
    y = min(y_frac, 1.0) * table.ts[-1]
    assert _outcome(lambda: best_response(scaled, y * lam)) == _scaled(
        _outcome(lambda: best_response(table, y)), lam, a, None)
    for check in (check_chord_condition, detect_linear_segment_at_zero):
        report = _outcome(lambda: check(table))
        assert _verdict(_outcome(lambda: check(scaled)), lam, a) == _verdict(
            report, 1.0, 1.0)


@given(table=_tables(), k=st.integers(-60, 59), j=st.integers(-60, 59))
@settings(deadline=None, max_examples=300)
def test_tables_scaled_in_t_and_f_keep_the_sampled_verdicts(table, k, j):
    # a wrapped table is sampled on (0, hi], hi its own zero of f found from
    # powers of two, passing over those past the last knot, where it raises
    lam, a = 2.0**k, 2.0**j
    scaled = TabulatedPayoff(tuple(t * lam for t in table.ts),
                             tuple(f * a for f in table.fs))
    for check in (check_chord_condition, detect_linear_segment_at_zero):
        report = _outcome(lambda: check(CallablePayoff(table.value)))
        assert _verdict(_outcome(lambda: check(CallablePayoff(scaled.value))),
                        lam, a) == _verdict(report, 1.0, 1.0)


@given(table=_tables(), k=st.integers(-60, 59), j=st.integers(-60, 59),
       n=st.sampled_from([2, 3, 5]),
       order=st.sampled_from(["sequential", "synchronous"]),
       threshold=_SHARES, delta=st.none() | _SHARES)
@settings(deadline=None, max_examples=300)
def test_tables_scaled_in_t_and_f_scale_a_simulation(table, k, j, n, order,
                                                    threshold, delta):
    lam, a = 2.0**k, 2.0**j
    scaled = TabulatedPayoff(tuple(t * lam for t in table.ts),
                             tuple(f * a for f in table.fs))
    end = table.ts[-1]
    delta = None if delta is None else delta * end
    assert _trace(scaled, lam, a, n, order, threshold * end, delta) == _trace(
        table, 1.0, 1.0, n, order, threshold * end, delta)


# ---------------------------------------------------------------- power

@given(beta=st.floats(0.01, 0.95),
       gammas=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
       n=st.one_of(st.integers(1, 3), st.integers(4, 1000)))
@settings(deadline=None, max_examples=200)
def test_power_price_of_anarchy_depends_on_beta_alone(beta, gammas, n):
    # f(q) at the equilibrium cancels as n grows (q nears the zero of f),
    # so each ratio carries rounding of about eps n/(1 - beta); sweeps of
    # 3,000 (beta, n) pairs spread at most 9.5 times that
    ratios = [poa(PowerPayoff(beta, 10.0**g), n).poa for g in gammas]
    bound = 32.0 * np.finfo(float).eps * (n + 1) / (1.0 - beta)
    assert max(ratios) - min(ratios) <= bound * min(ratios)
    assert math.isfinite(min(ratios))
