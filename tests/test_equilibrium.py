"""Symmetric equilibria and single-player best responses.

Closed-form anchors for power(beta=0.5, gamma=0.05), where
q(n) = ((n - 0.5)/(0.05 n))^2 = (20 - 10/n)^2:

    q(1) = 100, q(2) = 225 (112.5 each, payoff 1.875 each),
    and the first-order expression at (n=2, q=100) equals 5.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prorata import (
    BestResponseResult,
    CallablePayoff,
    CfmmArbitragePayoff,
    InvalidArgument,
    NoFiniteRoot,
    NoPositiveRegion,
    PowerPayoff,
    ProRataError,
    TabulatedPayoff,
    best_response,
    check_chord_condition,
    diagnostics,
    foc_residual,
    poa,
    pro_rata_payoff,
    solve_symmetric,
)
from prorata import equilibrium, payoff

CFMM_Q1 = (math.sqrt(0.99 * 200.0 * 250.0) - 200.0) / 0.99  # argmax f


def q_power_closed(beta: float, gamma: float, n: int) -> float:
    return ((beta + n - 1.0) / (n * gamma)) ** (1.0 / (1.0 - beta))


# -------------------------------------------------------------- solve


def test_power_closed_form_anchors(power):
    r1 = solve_symmetric(power, 1)
    assert r1.q == pytest.approx(100.0, rel=1e-12)
    r2 = solve_symmetric(power, 2)
    assert r2.q == pytest.approx(225.0, rel=1e-12)
    assert r2.per_player == pytest.approx(112.5, rel=1e-12)
    assert r2.equilibrium_payoff == pytest.approx(1.875, rel=1e-12)
    assert r2.method == "closed-form-power"


def test_cfmm_closed_form_anchors(cfmm):
    r1 = solve_symmetric(cfmm, 1)
    assert r1.q == pytest.approx(CFMM_Q1, rel=1e-12)
    assert r1.method == "closed-form-quadratic"
    r2 = solve_symmetric(cfmm, 2)
    assert r2.q == pytest.approx(31.23920548792109, rel=1e-12)


def test_single_player_total_is_argmax(cfmm, power):
    for family in (cfmm, power):
        d = diagnostics(family)
        assert solve_symmetric(family, 1).q == pytest.approx(d.argmax, rel=1e-8)


def test_equilibrium_exceeds_argmax_and_grows_with_n(cfmm, power):
    # competition over-tenders: q(n) > argmax f for n >= 2, increasing in n
    for family in (cfmm, power):
        argmax = diagnostics(family).argmax
        qs = [solve_symmetric(family, n).q for n in (2, 3, 5, 10, 40)]
        assert all(q > argmax for q in qs)
        assert all(a < b for a, b in zip(qs, qs[1:]))


def test_numeric_agrees_with_closed_forms(cfmm, power):
    for family in (cfmm, power):
        for n in (1, 2, 7, 30, 100):
            closed = solve_symmetric(family, n, method="closed").q
            numeric = solve_symmetric(family, n, method="numeric")
            assert numeric.q == pytest.approx(closed, rel=1e-8)
            assert numeric.method == "foc-bisection"


@given(
    beta=st.floats(min_value=0.1, max_value=0.8),
    gamma=st.floats(min_value=0.02, max_value=1.0),
    n=st.integers(min_value=1, max_value=60),
)
@settings(deadline=None, max_examples=60)
def test_numeric_tracks_power_closed_form(beta, gamma, n):
    family = PowerPayoff(beta=beta, gamma=gamma)
    numeric = solve_symmetric(family, n, method="numeric").q
    assert numeric == pytest.approx(q_power_closed(beta, gamma, n), rel=1e-6)


def test_tabulated_family_solves_numerically():
    tab = TabulatedPayoff(ts=(0.0, 1.0, 2.0, 3.0, 4.0), fs=(0.0, 1.0, 1.6, 1.8, -0.5))
    r = solve_symmetric(tab, 2)
    assert r.method == "foc-bisection"
    # q f(q) rises on every segment up to the knot at 3 and falls after it,
    # so the n=2 equilibrium total is the kink itself
    assert r.q == pytest.approx(3.0, abs=1e-5)
    assert r.q <= diagnostics(tab).root
    with pytest.raises(InvalidArgument):
        solve_symmetric(tab, 2, method="closed")


def test_table_kink_equilibrium_is_exact():
    # the bisection of the one-sided first-order condition lands on the kink
    tab = TabulatedPayoff(ts=(0.0, 1.0, 2.0, 3.0, 4.0), fs=(0.0, 1.0, 1.6, 1.8, -0.5))
    assert abs(solve_symmetric(tab, 2).q - 3.0) <= math.ulp(3.0)


KNOTS = np.arange(41.0)
# f = t (40 - t) / 10 on integer knots: concave, kinked at every knot
PARABOLA_TABLE = TabulatedPayoff(
    ts=tuple(KNOTS), fs=tuple(KNOTS * (40.0 - KNOTS) / 10.0)
)


@pytest.mark.parametrize("y, x", [(0.0, 20.0), (30.0, 5.0)])
def test_table_best_response_lands_on_the_kink(y, x):
    # at y = 0 the best response is argmax f = 20; at y = 30 the own slope
    # y f(t) + x t f'(t) jumps from +17.5 to -17.5 at the knot t = 35
    r = best_response(PARABOLA_TABLE, y)
    assert abs(r.x - x) <= 4e-15
    assert r.at_boundary == "interior"


@pytest.mark.parametrize("beta, gamma, n", [
    (0.9020204551353165, 8.134402558398147, 1000),   # root ~5e-10
    (0.7781412716243261, 17.786806844675606, 100_000),
])
def test_numeric_route_is_relative_for_roots_below_one(beta, gamma, n):
    # the root bisection must stop relative to the root, not at 1e-10
    # absolute, or the numeric route is bounded by a misplaced root
    family = PowerPayoff(beta=beta, gamma=gamma)
    numeric = solve_symmetric(family, n, method="numeric").q
    closed = solve_symmetric(family, n, method="closed").q
    assert abs(numeric - closed) <= 1e-13 * closed


@given(
    kind=st.sampled_from(["power", "cfmm"]),
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
    r=st.floats(min_value=0.0, max_value=4.0),
    n=st.integers(min_value=1, max_value=100_000),
)
@settings(deadline=None, max_examples=300)
# |m|/(g r2) = 1.4e-4 inside the cfmm no-arbitrage boundary, where f and f'
# cancel unless they take the exact margin m = g r2 - c r1
@example(kind="cfmm", a=0.5, b=0.0, r=2.125, n=2)
def test_numeric_route_matches_closed_forms_everywhere(kind, a, b, r, n):
    if kind == "power":
        # beta in [0.02, 0.98], gamma in [1e-3, 1e3]
        family = PowerPayoff(beta=0.02 + 0.96 * a, gamma=10.0**b)
    else:
        # fee multiplier in [0.5, 1], reserves 1e-3..1e3 apart, price 1
        family = CfmmArbitragePayoff(
            gamma=0.5 + 0.5 * a, r1=10.0**b, r2=10.0 ** (b + r - 2.0), c=1.0
        )
    try:
        closed = solve_symmetric(family, n, method="closed").q
        numeric = solve_symmetric(family, n, method="numeric").q
    except ProRataError:
        return  # no positive region, or no equilibrium to compare
    assert abs(numeric - closed) <= 1e-13 * closed


def test_table_best_response_capped_by_the_last_knot():
    # (domain_max - y) + y rounds one ulp past the last knot for this table;
    # the search range must stay on the table instead of raising
    b, g = 0.3812127477359683, 0.09632339838354469
    ts = np.linspace(0.0, 1.2 * g ** (-1.0 / (1.0 - b)), 41)
    tab = TabulatedPayoff(ts=tuple(ts), fs=tuple(ts**b - g * ts))
    y = 16.657586647319373
    assert (tab.domain_max - y) + y > tab.domain_max
    r = best_response(tab, y)
    assert 0.0 < r.x and r.x + y <= tab.domain_max
    grid = np.linspace(0.0, tab.domain_max - y, 4001)[:-1]
    assert r.achieved_payoff >= float(np.max(pro_rata_payoff(tab, grid, y)))


def test_first_order_residual_values(power):
    # (n-1) f(q) + q f'(q) at n=2, q=100: f'(100) = 0 so the value is f(100) = 5
    assert foc_residual(power, 2, 100.0) == pytest.approx(5.0, rel=1e-12)
    r = solve_symmetric(power, 7)
    assert r.foc_residual <= 1e-6 * max(1.0, power.value(r.q))
    assert r.foc_residual >= 0.0


def test_callable_defined_only_right_of_zero_solves():
    # t**0.5 is nan (or complex) left of 0, so the finite difference at 0
    # must not step there; the curve is power(0.5, 0.05) as a plain function
    sqrt_curve = CallablePayoff(lambda t: t**0.5 - 0.05 * t)
    d = diagnostics(sqrt_curve)
    assert d.root == pytest.approx(400.0, rel=1e-9)
    assert d.argmax == pytest.approx(100.0, rel=1e-6)
    assert solve_symmetric(sqrt_curve, 2, method="numeric").q == pytest.approx(
        225.0, rel=1e-6
    )
    r = best_response(sqrt_curve, 0.0)
    assert r.x == pytest.approx(100.0, rel=1e-6)
    assert r.achieved_payoff == pytest.approx(5.0, rel=1e-12)


KINKED_TABLE = TabulatedPayoff(
    ts=(0.0, 10.0, 20.0, 30.0, 40.0, 50.0), fs=(0.0, 8.0, 13.0, 15.0, 14.0, -2.0)
)


@pytest.mark.parametrize("n", [2, 3])
def test_kink_equilibrium_residual_is_zero(n):
    # g = (n-1) f(q) + q f'(q) is +10 / +24 left of the knot at 40 and
    # -50 / -36 right of it: the sign change certifies the equilibrium
    r = solve_symmetric(KINKED_TABLE, n)
    assert r.q == 40.0
    assert r.foc_residual == 0.0


def test_residual_off_a_kink_is_the_smaller_one_sided_value():
    # at the knot 30 with n = 2: g is 15 + 30 * 0.2 = 21 from the left and
    # 15 + 30 * (-0.1) = 12 from the right, both positive
    assert foc_residual(KINKED_TABLE, 2, 30.0) == pytest.approx(12.0, rel=1e-15)
    # inside a segment both sides agree: 14.5 + 35 * (-0.1) at n = 2, q = 35
    assert foc_residual(KINKED_TABLE, 2, 35.0) == pytest.approx(11.0, rel=1e-15)


def test_non_concave_table_best_response_is_rejected():
    # f peaks at the knot 10 and rises again to the end: the slope's sign at
    # the range end says nothing about the maximizer
    tab = TabulatedPayoff(ts=(0.0, 10.0, 20.0, 30.0), fs=(0.0, 8.0, 2.0, 3.0))
    assert not tab.concave
    with pytest.raises(InvalidArgument, match="concave"):
        best_response(tab, 0.0, budget=30.0)


def test_non_concave_table_has_no_symmetric_equilibrium_either():
    # the numeric route's sign change of (n-1) f + q f' would read q = 11.67
    # at n = 2 and 30 at n = 3 here, and poa(2) 1.14; one concavity rule
    # refuses the table on every route, as the best response does
    tab = TabulatedPayoff(ts=(0, 10, 20, 30, 40), fs=(0, 8, 2, 3, -5))
    message = "table must be concave: its segment slopes must not increase"
    for call in (lambda: solve_symmetric(tab, 2), lambda: solve_symmetric(tab, 3),
                 lambda: solve_symmetric(tab, 2, method="numeric"),
                 lambda: poa(tab, 2), lambda: best_response(tab, 1.0)):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == message
    # the missing closed form is reported first, and verify still decides
    with pytest.raises(InvalidArgument, match="no closed form for table"):
        solve_symmetric(tab, 2, method="closed")
    assert not check_chord_condition(tab).holds


@pytest.mark.parametrize("y", [0.0, 3.0, 12.0])
def test_table_positive_at_its_last_knot_needs_no_budget(y):
    # f is still positive at the last knot, so f has no root on the table;
    # the last knot bounds the search with or without a budget
    tab = TabulatedPayoff(ts=(0.0, 10.0, 20.0), fs=(0.0, 5.0, 8.0))
    free = best_response(tab, y)
    assert free == best_response(tab, y, budget=1e6)
    assert free.x == 20.0 - y and free.at_boundary == "interior"


# q f(q) peaks at 1.5 inside the table, though f is still positive at its
# last knot; g(q) = (n-1) f(q) + q f'(q) changes sign at q = 1, 1.5 and 2
# for n = 1, 2, 3, and at q = 2.25, past the table, for n = 4
OPEN_TABLE = TabulatedPayoff((0.0, 1.0, 2.0), (0.0, 1.0, 0.5))


@pytest.mark.parametrize("n, q, price", [(1, 1.0, 1.0), (2, 1.5, 4.0 / 3.0),
                                         (3, 2.0, 2.0)])
def test_a_table_positive_at_its_last_knot_solves_inside_it(n, q, price):
    eq = solve_symmetric(OPEN_TABLE, n)
    assert (eq.q, eq.foc_residual) == (q, 0.0)
    assert poa(OPEN_TABLE, n).poa == price


def test_a_table_whose_equilibrium_lies_past_its_last_knot_has_none():
    for solve in (solve_symmetric, poa):
        with pytest.raises(NoFiniteRoot) as caught:
            solve(OPEN_TABLE, 4)
        assert str(caught.value) == "payoff still positive at the domain end t=2.0"


def test_solver_input_validation(power):
    with pytest.raises(InvalidArgument):
        solve_symmetric(power, 0)
    with pytest.raises(InvalidArgument):
        solve_symmetric(power, True)
    with pytest.raises(InvalidArgument):
        solve_symmetric(power, 2, method="bogus")


def test_nowhere_positive_family_has_no_equilibrium():
    # f'(0) = gamma r2 / r1 - c <= 0 at both prices: f <= 0 everywhere, and
    # both routes say so with the same error
    for c in (0.99 * 250.0 / 200.0, 2.0):
        bad = CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=c)
        for method in ("closed", "numeric"):
            with pytest.raises(NoPositiveRegion):
                solve_symmetric(bad, 2, method=method)


def test_an_overflowing_power_total_has_no_finite_root():
    # q = ((beta + n - 1)/(n gamma))**(1/(1 - beta)) = (0.9974/0.1502)**381
    # overflows at n = 1: every route and the tender say NoFiniteRoot
    family = PowerPayoff(beta=0.9973748341073528, gamma=0.15021323171746095)
    for solve in (lambda: solve_symmetric(family, 1), lambda: poa(family, 1),
                  lambda: solve_symmetric(family, 1, method="numeric"),
                  lambda: family.tender()):
        with pytest.raises(NoFiniteRoot):
            solve()


@pytest.mark.parametrize("r1, r2, c", [(1e154, 1e154, 0.5), (1.0, 1e160, 1.0)],
                         ids=["c0-overflows", "b-squared-overflows"])
def test_an_overflowing_cfmm_closed_route_has_no_finite_root(r1, r2, c):
    # g n r1 r2 overflows c0 to -inf in the first family, b*b the
    # discriminant in the second: the closed route and poa refuse, as they
    # do for power, where they once answered q = -inf and f(q)/n = nan
    family = CfmmArbitragePayoff(gamma=0.99, r1=r1, r2=r2, c=c)
    for solve in (lambda: solve_symmetric(family, 2), lambda: poa(family, 2),
                  lambda: family.closed_total(2)):
        with pytest.raises(NoFiniteRoot) as caught:
            solve()
        assert str(caught.value) == (
            f"equilibrium total overflows for {family} at n=2")
    if r1 == r2:
        # the numeric route still finds it
        assert solve_symmetric(family, 2, method="numeric").q == pytest.approx(
            3.442230232265249e153, rel=1e-9)


def decimal_cfmm_total(family: CfmmArbitragePayoff, n: int) -> Decimal:
    """The cfmm equilibrium total in 60-digit decimal: the larger root of
    the closed form's quadratic, its coefficients taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        g, r1, r2, c = (Decimal(v) for v in
                        (family.gamma, family.r1, family.r2, family.c))
        a = c * n * g * g
        b = g * g * r2 + 2 * c * n * r1 * g - g * g * n * r2
        c0 = c * n * r1 * r1 - g * n * r1 * r2
        return (-b + (b * b - 4 * a * c0).sqrt()) / (2 * a)


@given(log_eps=st.floats(-14.0, -1.0), n=st.sampled_from([1, 3, 100, 10**4, 10**6]))
@settings(deadline=None, max_examples=300)
@example(log_eps=-12.0, n=3)
def test_closed_cfmm_route_matches_a_decimal_oracle_near_the_boundary(log_eps, n):
    # c r1 -> gamma r2 as eps -> 0: the constant term of the quadratic is
    # a difference of near-equal products, taken exactly in the band
    c = 0.99 * 250.0 / 200.0 * (1.0 - 10.0**log_eps)
    family = CfmmArbitragePayoff(0.99, 200.0, 250.0, c)
    q = solve_symmetric(family, n, method="closed").q
    q_dec = decimal_cfmm_total(family, n)
    # the other coefficients, the square root and the division still round
    assert abs(Decimal(q) - q_dec) <= 8 * Decimal(math.ulp(q))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_routes_agree_one_ulp_inside_the_boundary(n):
    # f'(0) = gamma r2 / r1 - c is one ulp above zero: c0 rounded in floats
    # comes out >= 0 at n = 7, taken exactly it is negative at every n
    family = CfmmArbitragePayoff(1.0, 3.0, 7.0, 2.333333333333333)
    closed = solve_symmetric(family, n, method="closed").q
    numeric = solve_symmetric(family, n, method="numeric").q
    # a few ulps: the quadratic's other coefficients and its square root round
    error = abs(Decimal(closed) - decimal_cfmm_total(family, n))
    assert error <= 4 * Decimal(math.ulp(closed))
    # the numeric route reads f' as a difference of terms near 7/3, so it
    # resolves q ~ 3e-16 only to about that size
    assert 0.0 < numeric and abs(closed - numeric) <= 2.0**-52


def test_numeric_power_route_matches_a_decimal_oracle():
    # q = ((beta + n - 1) / (n gamma))**(1 / (1 - beta)); the exponent
    # magnifies any error in the base by 1 / (1 - beta)
    for beta in (0.05, 0.2, 0.5, 0.8, 0.95):
        for gamma in (0.005, 0.05, 0.3, 0.7):
            family = PowerPayoff(beta, gamma)
            if power_root(beta, gamma) > 1e12:  # past the diagnostics cap
                continue
            for n in (1, 2, 3, 10, 100, 10**3, 10**4, 10**5):
                q = solve_symmetric(family, n, method="numeric").q
                with localcontext() as ctx:
                    ctx.prec = 60
                    base = (Decimal(beta) + n - 1) / (n * Decimal(gamma))
                    q_dec = (base.ln() / (1 - Decimal(beta))).exp()
                bound = 4.0 * math.ulp(q) / (1.0 - beta)
                assert abs(Decimal(q) - q_dec) <= Decimal(bound)


@given(beta=st.floats(0.05, 0.95), gamma=st.floats(-3.0, 1.0).map(lambda k: 10.0**k),
       n=st.one_of(st.integers(1, 20), st.integers(1, 10**6)))
@settings(deadline=None, max_examples=300)
@example(beta=0.05273239603577649, gamma=0.19619318046853906, n=1)
def test_closed_power_route_matches_a_decimal_oracle(beta, gamma, n):
    # q = ((beta + (n - 1)) / (n gamma))**(1 / (1 - beta)): three roundings
    # in the base, which the exponent magnifies by 1 / (1 - beta), two in
    # the exponent, which ln q magnifies, and pow's own
    q = solve_symmetric(PowerPayoff(beta, gamma), n, method="closed").q
    with localcontext() as ctx:
        ctx.prec = 60
        base = (Decimal(beta) + n - 1) / (n * Decimal(gamma))
        q_dec = (base.ln() / (1 - Decimal(beta))).exp()
    ulps = abs(Decimal(q) - q_dec) / Decimal(math.ulp(q))
    assert ulps <= 3.0 / (1.0 - beta) + 2.0 * abs(math.log(q)) + 2.0


# -------------------------------------------------------- best response


def test_cfmm_best_response_interior(cfmm):
    r = best_response(cfmm, 10.0)
    assert r.x == pytest.approx(18.208055378950654, rel=1e-12)
    assert r.achieved_payoff == pytest.approx(1.5636872218966416, rel=1e-12)
    assert r.at_boundary == "interior"
    # the closed form is the actual argmax: nudging x never helps
    for dx in (-1e-4, 1e-4):
        assert pro_rata_payoff(cfmm, r.x + dx, 10.0) <= r.achieved_payoff


def test_budget_binds(power):
    r = best_response(power, 0.0, budget=50.0)
    assert r.x == 50.0
    assert r.at_boundary == "budget"
    assert r.achieved_payoff == pytest.approx(math.sqrt(50.0) - 2.5, rel=1e-12)


def test_unconstrained_lone_player_plays_argmax(power):
    r = best_response(power, 0.0)
    assert r.x == pytest.approx(100.0, rel=1e-8)
    assert r.at_boundary == "interior"


def test_crowded_market_best_response_is_zero(cfmm):
    # others already tender past the zero of f: no positive share is profitable
    r = best_response(cfmm, 100.0)
    assert r == type(r)(x=0.0, achieved_payoff=0.0, at_boundary="zero")
    assert best_response(cfmm, 5.0, budget=0.0).x == 0.0


def test_best_response_fixed_point(cfmm, power):
    for family, n in ((cfmm, 5), (power, 3)):
        eq = solve_symmetric(family, n)
        r = best_response(family, eq.q - eq.per_player)
        assert r.x == pytest.approx(eq.per_player, rel=1e-7)


def test_generic_agrees_with_cfmm_closed_form(cfmm):
    # route the same family through the generic search path via a table-free
    # wrapper: power has no closed best response, so compare cfmm's closed
    # form against a brute-force scan instead
    import numpy as np

    y = 14.0
    r = best_response(cfmm, y)
    grid = np.linspace(0.0, 40.0, 200_001)
    brute = grid[np.argmax(pro_rata_payoff(cfmm, grid, y))]
    assert r.x == pytest.approx(brute, abs=2e-4)


# ------------------------------------------ first-order-condition route


def power_root(beta: float, gamma: float) -> float:
    return gamma ** (-1.0 / (1.0 - beta))


def power_argmax(beta: float, gamma: float) -> float:
    return (beta / gamma) ** (1.0 / (1.0 - beta))


def decimal_power_payoff(family: PowerPayoff, x: float, y: float) -> Decimal:
    """x/(x+y) * (t**beta - gamma t) at t = x + y, in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        if x == 0.0:
            return Decimal(0)
        x_, t = Decimal(x), Decimal(x) + Decimal(y)
        f = (Decimal(family.beta) * t.ln()).exp() - Decimal(family.gamma) * t
        return x_ * f / t


@given(
    beta=st.floats(min_value=0.1, max_value=0.9),
    gamma=st.floats(min_value=0.01, max_value=1.0),
    y_frac=st.floats(min_value=0.0, max_value=1.2),
    budget_frac=st.one_of(st.just(math.inf),
                          st.floats(min_value=1e-3, max_value=1.5)),
)
@settings(deadline=None, max_examples=200)
@example(beta=0.5, gamma=1.0, y_frac=0.99999, budget_frac=0.001)
# at y = w, gamma * y**(1-beta) rounds below 1
@example(beta=0.4375, gamma=0.25, y_frac=1.0, budget_frac=math.inf)
# one ulp below w the rounded Newton root lands past the zero of f, where
# f(t) < 0: no positive tender pays there
@example(beta=0.875, gamma=0.896484375, y_frac=0.9999999999999999,
         budget_frac=math.inf)
def test_power_best_response_never_loses_to_a_grid(beta, gamma, y_frac,
                                                   budget_frac):
    family = PowerPayoff(beta=beta, gamma=gamma)
    root = power_root(beta, gamma)
    y, budget = y_frac * root, budget_frac * root
    r = best_response(family, y, budget)
    free = best_response(family, y).x
    assert family.tender()(y) == free
    if y >= root:
        assert r == BestResponseResult(0.0, 0.0, "zero")
        return
    assert 0.0 <= r.x <= min(budget, root)
    assert r.achieved_payoff == pro_rata_payoff(family, r.x, y)
    grid = np.linspace(0.0, min(budget, root), 20_001)
    paid = pro_rata_payoff(family, grid, y)
    grid_best = float(np.max(paid))
    if r.achieved_payoff < grid_best - 1e-12 * abs(grid_best):
        # near f's root float t**beta - gamma t carries ~1e-11 relative
        # noise; decide in decimal at r.x and at the grid's best points
        best = max(
            decimal_power_payoff(family, x, y)
            for x in grid[paid >= grid_best - 1e-9 * abs(grid_best)].tolist()
        )
        got = decimal_power_payoff(family, r.x, y)
        assert got >= best - Decimal(1e-12) * abs(best)
    if free > budget:
        assert r == BestResponseResult(
            budget, pro_rata_payoff(family, budget, y), "budget"
        )


@pytest.mark.parametrize("beta, gamma", [
    (0.5, 0.05), (0.1, 0.01), (0.1, 1.0), (0.3, 0.2), (0.9, 0.01),
    (0.9, 1.0), (0.95, 0.001),
])
def test_lone_power_player_plays_closed_form_argmax(beta, gamma):
    family = PowerPayoff(beta=beta, gamma=gamma)
    r = best_response(family, 0.0)
    assert r.x == pytest.approx(power_argmax(beta, gamma), rel=1e-14)
    assert r.at_boundary == "interior"


@pytest.mark.parametrize("y_frac", [1.0, 1.0 + 1e-12, 1.2, 50.0])
def test_power_crowded_past_the_root_abstains(power, y_frac):
    r = best_response(power, y_frac * power_root(0.5, 0.05))
    assert r == BestResponseResult(0.0, 0.0, "zero")


@pytest.mark.parametrize("family", [
    TabulatedPayoff((0.0, 1.0, 2.0), (0.0, -1.0, -3.0)),
    CallablePayoff(lambda t: -t * (1.0 + t)),
], ids=["table", "callable"])
@pytest.mark.parametrize("y", [0.0, 1.0])
def test_nowhere_positive_slope_search_abstains(family, y):
    # no positive region: the slope search has nothing to bracket
    assert best_response(family, y) == BestResponseResult(0.0, 0.0, "zero")


def test_power_best_response_ignores_the_diagnostics_cap():
    # the zero of f is 1e60, far past the diagnostics doubling cap of 1e12
    family = PowerPayoff(beta=0.95, gamma=0.001)
    r = best_response(family, 1.0)
    assert r.at_boundary == "interior"
    assert r.x == pytest.approx(power_argmax(0.95, 0.001), rel=1e-12)
    for dx in (-1e-6 * r.x, 1e-6 * r.x):
        assert pro_rata_payoff(family, r.x + dx, 1.0) <= r.achieved_payoff


def test_power_and_cfmm_best_responses_skip_the_search(
    cfmm, power, monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("bisection search on a closed route")

    # the symmetric route's search lives in equilibrium, the default
    # tender's in payoff
    for module in (equilibrium, payoff):
        monkeypatch.setattr(module, "bisect_root", forbidden)
    for family in (cfmm, power):
        for y in (0.0, 3.0, 30.0, 1e4):
            for budget in (math.inf, 5.0):
                best_response(family, y, budget)


# ---------------------------------------------------- bounded tenders

_SMOOTH_KNOTS = np.linspace(0.0, 400.0, 41)
SMOOTH_TABLE = TabulatedPayoff(ts=tuple(_SMOOTH_KNOTS),
                               fs=tuple(_SMOOTH_KNOTS**0.5 - 0.05 * _SMOOTH_KNOTS))
KINKED_TABLE = TabulatedPayoff(ts=(0, 10, 20, 30, 40, 50), fs=(0, 8, 13, 15, 14, -2))


def _tender_scale(family) -> float:
    """The others' totals worth probing run up to this."""
    if isinstance(family, PowerPayoff):
        return power_root(family.beta, family.gamma)
    if isinstance(family, TabulatedPayoff):
        return family.ts[-1]
    return diagnostics(family).root


def _clamp(x: float, lo: float, hi: float) -> float:
    if x < lo:
        x = lo
    if hi < x:
        x = hi
    return x


_TENDER_FAMILIES = st.one_of(
    st.builds(PowerPayoff, beta=st.floats(0.01, 0.99), gamma=st.floats(1e-3, 10.0)),
    st.builds(
        lambda gamma, r1, r2, margin: CfmmArbitragePayoff(
            gamma=gamma, r1=r1, r2=r2, c=margin * gamma * r2 / r1),
        gamma=st.floats(0.5, 1.0), r1=st.floats(1.0, 1e4), r2=st.floats(1.0, 1e4),
        margin=st.floats(0.01, 0.999),
    ),
    st.just(SMOOTH_TABLE),
    st.just(KINKED_TABLE),
)
# fractions of the scale, with extra weight near 0 and near 1 (within
# 1e-12 relative of the zero of f included)
_Y_FRACTIONS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(-15.0, -1.0).map(lambda k: 10.0**k),
    st.floats(-15.0, -1.0).map(lambda k: 1.0 - 10.0**k),
    st.floats(-16.0, -12.0).map(lambda k: 1.0 - 10.0**k),
)
_OFFSETS = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -6.0)).map(
    lambda s: s[0] * 10.0 ** s[1])
# (kind, a, b): bounds within 1e-15..1e-6 relative of the free answer x, equal
# bounds, hi = 0, hi = inf (with lo = 0 or near x), and bounds anywhere in
# [0, 2x]
_BOUNDS = st.one_of(
    st.tuples(st.just("near"), _OFFSETS, _OFFSETS),
    st.tuples(st.just("equal"), _OFFSETS, st.just(0.0)),
    st.tuples(st.just("zero"), st.just(0.0), st.just(0.0)),
    st.tuples(st.just("inf"), st.one_of(st.just(-1.0), _OFFSETS), st.just(0.0)),
    st.tuples(st.just("wide"), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)


@given(family=_TENDER_FAMILIES, y_frac=_Y_FRACTIONS, bounds=_BOUNDS)
@settings(deadline=None, max_examples=500)
@example(family=PowerPayoff(beta=0.5, gamma=0.05), y_frac=1.0 - 7e-12,
         bounds=("near", -1e-15, 1e-15))
@example(family=PowerPayoff(beta=0.99, gamma=1e-3), y_frac=1.0 - 1e-12,
         bounds=("near", 1e-15, 1e-14))
def test_bounded_tender_is_the_clamped_free_tender_bit_for_bit(family, y_frac,
                                                              bounds):
    tender = family.tender()
    y = y_frac * _tender_scale(family)
    x = tender(y)
    kind, a, b = bounds
    if kind == "near":
        lo, hi = sorted((x * (1.0 + a), x * (1.0 + b)))
    elif kind == "equal":
        lo = hi = x * (1.0 + a)
    elif kind == "zero":
        lo = hi = 0.0
    elif kind == "inf":
        lo, hi = x * (1.0 + a), math.inf
    else:
        lo, hi = x * a, x * (a + b)
    assert tender(y, lo, hi).hex() == _clamp(x, lo, hi).hex()


_WINDOW_FAMILIES = st.one_of(
    _TENDER_FAMILIES,
    st.sampled_from([
        CallablePayoff(lambda t: t**0.5 - 0.05 * t),
        CallablePayoff(CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0,
                                           c=1.0).value),
        CallablePayoff(lambda t: -t * (1.0 + t)),
        TabulatedPayoff((0.0, 1.0, 2.0), (0.0, -1.0, -3.0)),
    ]),
)


@given(family=_WINDOW_FAMILIES, y_frac=_Y_FRACTIONS,
       lo=st.one_of(st.just(-math.inf), st.just(-5e-324),
                    st.floats(-2.0, 0.0, exclude_max=True)),
       hi=st.one_of(st.tuples(st.just("abs"), st.sampled_from([0.0, -0.0, math.inf])),
                    st.tuples(st.just("near"), _OFFSETS),
                    st.tuples(st.just("wide"), st.floats(0.0, 2.0))))
@settings(deadline=None, max_examples=500)
def test_a_window_reaching_below_zero_answers_as_one_floored_at_zero(
    family, y_frac, lo, hi
):
    # the contract of PayoffFamily.tender: any lo <= hi with hi >= 0, the
    # answer within [max(lo, 0), hi]; lo is a fraction of the scale, and hi
    # an absolute value, or near or a fraction of the free answer x
    tender = family.tender()
    try:
        scale = diagnostics(family).root
    except NoPositiveRegion:
        scale = 1.0
    y = y_frac * scale
    x = tender(y)
    kind, a = hi
    hi = a if kind == "abs" else x * (1.0 + a) if kind == "near" else x * a
    lo *= scale
    if not lo < 0.0:  # a tiny fraction of a small scale rounds to -0.0
        lo = -5e-324
    got = tender(y, lo, hi)
    assert got.hex() == tender(y, 0.0, hi).hex()
    assert got >= 0.0


def decimal_power_tender(beta: float, gamma: float, y: float) -> Decimal:
    """The power best response to y in 60-digit decimal: Newton on
    h(t) = gamma t**(2-beta) - beta t - (1-beta) y from the zero w of f,
    less y; 0 when y >= w."""
    with localcontext() as ctx:
        ctx.prec = 60
        b, g, y_ = Decimal(beta), Decimal(gamma), Decimal(y)
        e = 1 - b
        w = (-g.ln() / e).exp()
        if y_ >= w:
            return Decimal(0)
        t = w
        for _ in range(200):
            log_t = t.ln()
            h = g * ((2 - b) * log_t).exp() - b * t - e * y_
            step = h / ((2 - b) * g * (e * log_t).exp() - b)
            t -= step
            if abs(step) <= t.scaleb(-55):
                return t - y_
        raise AssertionError("decimal Newton did not converge")


@given(
    beta=st.floats(0.01, 0.99),
    gamma=st.floats(1e-3, 10.0),
    y_frac=st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(-15.0, -1.0).map(lambda k: 10.0**k),
        st.floats(-15.0, -1.0).map(lambda k: 1.0 - 10.0**k),
    ),
)
@settings(deadline=None, max_examples=400)
@example(beta=0.5, gamma=0.05, y_frac=1.0 - 7e-12)
@example(beta=0.5, gamma=0.05, y_frac=0.0)
def test_power_tender_matches_a_decimal_oracle(beta, gamma, y_frac):
    w = power_root(beta, gamma)
    y = y_frac * w
    if y >= w:
        return
    x = PowerPayoff(beta=beta, gamma=gamma).tender()(y)
    x_dec = decimal_power_tender(beta, gamma, y)
    # the root's condition number: how far rounding of h's terms moves t
    t = float(Decimal(y) + x_dec)
    slope = (2.0 - beta) * gamma * t ** (1.0 - beta) - beta
    kappa = (gamma * t ** (2.0 - beta) + beta * t + (1.0 - beta) * y) / (t * slope)
    assert abs(Decimal(x) - x_dec) <= Decimal(4.0 * kappa * math.ulp(t))


@given(beta=st.floats(0.01, 0.99), gamma=st.floats(1e-3, 10.0),
       ulps=st.integers(1, 1000))
@settings(deadline=None, max_examples=300)
@example(beta=0.875, gamma=0.896484375, ulps=1)
def test_power_tender_near_the_zero_of_f_never_tenders_at_a_loss(beta, gamma,
                                                                 ulps):
    # y a few ulps below w: the root is a hair above y, and rounding can
    # put it past the zero of f, where every positive tender loses
    family = PowerPayoff(beta=beta, gamma=gamma)
    y = power_root(beta, gamma)
    for _ in range(ulps):
        y = math.nextafter(y, 0.0)
    x = family.tender()(y)
    assert x == 0.0 or decimal_power_payoff(family, x, y) >= 0
