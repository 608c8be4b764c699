"""Price-of-anarchy reports and growth checks.

For power(beta=0.5, gamma=0.05) the ratio has the closed form
poa(n) = n^2/(2n - 1): poa(1) = 1, poa(2) = 4/3, poa(100) = 10000/199.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prorata import (
    CfmmArbitragePayoff,
    NoPositiveRegion,
    PowerPayoff,
    TabulatedPayoff,
    diagnostics,
    poa,
    poa_growth_check,
    power_poa_closed_form,
    solve_symmetric,
)


def test_two_player_power_report(power):
    rep = poa(power, 2)
    assert rep.eq_payoff == pytest.approx(1.875, rel=1e-12)
    assert rep.fair_payoff == pytest.approx(2.5, rel=1e-12)
    assert rep.poa == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_single_player_is_efficient(cfmm, power):
    assert poa(power, 1).poa == pytest.approx(1.0, abs=1e-9)
    assert poa(cfmm, 1).poa == pytest.approx(1.0, abs=1e-9)


def test_poa_never_reads_below_one_at_the_cfmm_boundary():
    # one ulp inside the boundary f'(0) = m/r1 with m = 7 - 3c = 2**-50:
    # f, taken with the exact margin m, is positive up to its root 3.8e-16,
    # and that close to 0 it is the parabola (m t - c t**2)/r1, with
    # sup f = m**2/(4 c r1) = 2.8e-32 and poa (n + 1)**2/(4n)
    family = CfmmArbitragePayoff(gamma=1.0, r1=3.0, r2=7.0, c=2.333333333333333)
    assert diagnostics(family).max_value == pytest.approx(
        2.0**-100 / (4.0 * family.c * 3.0), rel=1e-12)
    assert [poa(family, n).poa for n in (1, 2, 3)] == [1.0, 1.125, 1.3333333333333341]
    # one ulp past 7/3 the family is nowhere positive: no ratio to give
    with pytest.raises(NoPositiveRegion):
        poa(CfmmArbitragePayoff(gamma=1.0, r1=3.0, r2=7.0, c=2.3333333333333335), 1)


def test_closed_form_matches_reports(power):
    for n in (1, 2, 5, 10, 100):
        assert power_poa_closed_form(0.5, n) == pytest.approx(
            n * n / (2.0 * n - 1.0), rel=1e-12
        )
        assert poa(power, n).poa == pytest.approx(
            power_poa_closed_form(0.5, n), rel=1e-8
        )


def test_closed_form_other_exponents():
    for beta in (0.3, 0.7):
        family = PowerPayoff(beta=beta, gamma=0.05)
        for n in (2, 9, 41):
            assert poa(family, n).poa == pytest.approx(
                power_poa_closed_form(beta, n), rel=1e-8
            )


def test_fair_split_recovers_the_pool_optimum(cfmm, power):
    # n * fair_payoff is sup f by construction
    for family in (cfmm, power):
        top = diagnostics(family).max_value
        for n in (2, 6, 17):
            assert n * poa(family, n).fair_payoff == pytest.approx(top, rel=1e-12)


def test_equilibrium_payoff_identity(cfmm, power):
    # at a symmetric equilibrium, (n-1) f(q) = -q f'(q)
    for family in (cfmm, power):
        for n in (2, 4, 25):
            q = solve_symmetric(family, n).q
            lhs = family.value(q)
            rhs = -q * family.derivative(q) / (n - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-6)


def test_inefficiency_grows_linearly(cfmm, power):
    res = poa_growth_check(power, range(1, 51), n0=10)
    assert res.holds and res.nondecreasing
    # poa(n)/n = n/(2n-1) falls toward 1/2; the floor on [10, 50] sits at n=50
    assert res.ratio_floor == pytest.approx(50.0 / 99.0, rel=1e-9)
    first = res.reports[0]
    assert len(res.reports) == 50 and first.n == 1
    assert first.poa == pytest.approx(1.0, abs=1e-9)

    res_cfmm = poa_growth_check(cfmm, range(1, 51), n0=10)
    assert res_cfmm.holds and res_cfmm.ratio_floor > 0.25


def test_crowded_cfmm_market_is_badly_inefficient(cfmm):
    assert poa(cfmm, 100).poa >= 10.0


def test_growth_check_without_tail_points_cannot_hold(power):
    res = poa_growth_check(power, range(1, 5), n0=10)
    assert not res.holds
    assert math.isnan(res.ratio_floor)


# random power families, cfmm families at most 0.9 of the way to the
# no-arbitrage boundary c r1 = gamma r2, and a table whose equilibrium
# totals sit on its kinks
_SANDWICH_FAMILIES = st.one_of(
    st.builds(PowerPayoff, beta=st.floats(0.05, 0.95),
              gamma=st.floats(-3.0, 1.0).map(lambda k: 10.0**k)),
    st.builds(
        lambda gamma, r1, r2, margin: CfmmArbitragePayoff(
            gamma=gamma, r1=r1, r2=r2, c=margin * gamma * r2 / r1),
        gamma=st.floats(0.5, 1.0), r1=st.floats(1.0, 1e4), r2=st.floats(1.0, 1e4),
        margin=st.floats(0.01, 0.9),
    ),
    st.just(TabulatedPayoff(ts=(0, 10, 20, 30, 40, 50), fs=(0, 8, 13, 15, 14, -2))),
)


@given(family=_SANDWICH_FAMILIES)
@settings(deadline=None, max_examples=100)
def test_poa_lies_between_one_and_the_tangent_bound(family):
    # for concave f with f(0) = 0 and q_n >= t* = argmax f, the tangent at
    # q_n bounds sup f, and the first-order condition gives its slope
    # -(n-1) f(q_n)/q_n: 1 <= poa(n) <= 1 + (n-1)(1 - t*/q_n)
    argmax = diagnostics(family).argmax
    for n in (1, 2, 5, 50, 10**3, 10**5):
        q = solve_symmetric(family, n).q
        upper = 1.0 + (n - 1) * (1.0 - argmax / q)
        assert 1.0 - 1e-12 <= poa(family, n).poa <= upper * (1.0 + 1e-12)
