"""Price-of-anarchy reports and growth checks.

For power(beta=0.5, gamma=0.05) the ratio has the closed form
poa(n) = n^2/(2n - 1): poa(1) = 1, poa(2) = 4/3, poa(100) = 10000/199.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prorata import (
    BestResponseResult,
    CallablePayoff,
    CfmmArbitragePayoff,
    EquilibriumResult,
    NoPositiveRegion,
    PoaReport,
    PowerPayoff,
    TabulatedPayoff,
    best_response,
    diagnostics,
    poa,
    poa_growth_check,
    power_poa_closed_form,
    solve_symmetric,
)


def test_a_power_zero_near_the_smallest_floats_is_found():
    # w = gamma**(-1/(1 - beta)) = 10**-100, far below the 2**-200 that the
    # positive-point scan once stopped at; poa follows the closed form
    family = PowerPayoff(beta=0.99, gamma=10.0)
    assert diagnostics(family).root == pytest.approx(1e-100, rel=1e-9)
    for n in (1, 2, 10, 1000):
        assert poa(family, n).poa == pytest.approx(
            power_poa_closed_form(0.99, n), rel=1e-9)


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


# random power families, cfmm families with c = (1 - eps) gamma r2/r1 and
# eps log-uniform in [1e-15, 0.99] (eps = 0 is the no-arbitrage boundary
# c r1 = gamma r2), and a table whose equilibrium totals sit on its kinks
_SANDWICH_FAMILIES = st.one_of(
    st.builds(PowerPayoff, beta=st.floats(0.05, 0.95),
              gamma=st.floats(-3.0, 1.0).map(lambda k: 10.0**k)),
    st.builds(
        lambda gamma, r1, r2, eps: CfmmArbitragePayoff(
            gamma=gamma, r1=r1, r2=r2, c=gamma * r2 / r1 * (1.0 - eps)),
        gamma=st.floats(0.5, 1.0), r1=st.floats(1.0, 1e4), r2=st.floats(1.0, 1e4),
        eps=st.floats(-15.0, math.log10(0.99)).map(lambda k: 10.0**k),
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
        rep = poa(family, n)
        assert 1.0 <= rep.poa <= upper * (1.0 + 1e-12)
        # the ratio before the >= 1 rule: only rounding may take it below 1
        assert rep.fair_payoff / rep.eq_payoff >= 1.0 - 1e-12


def _near_boundary_cfmm(seed):
    # c = (g r2/r1)(1 - eps), eps log-uniform in [1e-15, 0.1]
    rng = random.Random(seed)
    g, r1, r2 = rng.uniform(0.5, 1.0), rng.uniform(1.0, 1e4), rng.uniform(1.0, 1e4)
    eps = 10.0 ** rng.uniform(-15.0, -1.0)
    return CfmmArbitragePayoff(gamma=g, r1=r1, r2=r2, c=g * r2 / r1 * (1.0 - eps))


_BOUNDARY_SWEEP = [_near_boundary_cfmm(seed) for seed in range(300)]


def test_poa_reads_one_where_its_ratio_rounds_below_one():
    # sup f >= f(q) by definition; rounded, their ratio can fall a few ulps
    # short at n = 1, and such a reading is exactly 1.0 (see PoaReport)
    rounded_short = 0
    for family in _BOUNDARY_SWEEP:
        top = diagnostics(family).max_value
        for n in (1, 2, 5, 50, 10**3, 10**5):
            rep = poa(family, n)
            if top / (rep.eq_payoff * n) < 1.0:
                rounded_short += 1
                assert rep.poa == 1.0
            assert rep.poa >= 1.0
    # the sweep holds readings the rule changes: it tests the rule
    assert rounded_short >= 10


def _report_from_a_full_solve(family, n):
    # the report as built from solve_symmetric's EquilibriumResult, with a
    # ratio below 1 read as 1.0
    eq = solve_symmetric(family, n)
    diag = diagnostics(family)
    ratio = diag.max_value / (eq.positive_payoff() * n)
    if not diag.max_value > 0.0:
        raise NoPositiveRegion(f"sup f={diag.max_value!r} is not positive")
    return PoaReport(n=eq.n, eq_payoff=eq.equilibrium_payoff,
                     fair_payoff=diag.max_value / n, poa=max(ratio, 1.0))


_REFERENCE_FAMILIES = [
    PowerPayoff(beta=0.5, gamma=0.05),
    PowerPayoff(beta=0.9484298437032872, gamma=0.06777310315104672),
    CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0),
    CfmmArbitragePayoff(gamma=1.0, r1=3.0, r2=7.0, c=2.333333333333333),
    CfmmArbitragePayoff(gamma=0.8663030872531501, r1=3132.7537237814277,
                        r2=1300.9189916308221, c=0.35969638641732954),
    *_BOUNDARY_SWEEP[:3],
    TabulatedPayoff(ts=(0, 10, 20, 30, 40, 50), fs=(0, 8, 13, 15, 14, -2)),
    CallablePayoff(lambda t: 8.0 * t - t * t),
]


@pytest.mark.parametrize("family", _REFERENCE_FAMILIES, ids=[
    "power", "power-beta-0.948", "cfmm", "cfmm-one-ulp-inside", "cfmm-eps-1.3e-4",
    "cfmm-sweep-0", "cfmm-sweep-1", "cfmm-sweep-2", "kinked-table", "callable"])
def test_poa_matches_the_report_from_a_full_solve_bit_for_bit(family):
    for n in range(1, 201):
        got, want = poa(family, n), _report_from_a_full_solve(family, n)
        assert got == want
        assert [math.copysign(1.0, v) for v in (got.eq_payoff, got.fair_payoff)] == [
            math.copysign(1.0, v) for v in (want.eq_payoff, want.fair_payoff)]


@pytest.mark.parametrize("family, n", [
    (PowerPayoff(beta=0.5, gamma=0.05), 0),
    (PowerPayoff(beta=0.5, gamma=0.05), 2.5),
    (TabulatedPayoff(ts=(0, 10, 20, 30, 40), fs=(0, 8, 2, 3, -5)), 2),
    (CfmmArbitragePayoff(1.0, 3.0, 7.0, 2.3333333333333335), 1),
], ids=["n-zero", "n-fraction", "not-concave", "nowhere-positive"])
def test_poa_raises_what_a_full_solve_raises(family, n):
    with pytest.raises(Exception) as want:
        _report_from_a_full_solve(family, n)
    with pytest.raises(type(want.value)) as got:
        poa(family, n)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("a, ratio", [(4.0, r"0\.75"), (6.4 - 1.15e-8, r"0\.99999999\d*")],
                         ids=["a-quarter-short", "1e-9-short"])
def test_a_ratio_below_one_beyond_rounding_raises(a, ratio):
    # a derivative a - 2t that disagrees with f = 8t - t**2 puts argmax f
    # at a/2 and q(2) at the zero (a + 8)/3 of a - 3q + 8: a = 4 gives
    # f = 12 and 16, a ratio of 0.75; a = 6.4 gives 15.36 for both, and a
    # a little below 6.4 a ratio 1e-9 below 1, past any rounding though
    # within the power check's 1e-6
    family = CallablePayoff(lambda t: 8.0 * t - t * t, deriv=lambda t: a - 2.0 * t)
    assert poa(family, 1).poa == 1.0
    with pytest.raises(ArithmeticError, match=rf"sup f / f\(q\) = {ratio} < 1"):
        poa(family, 2)


# ------------------------------------------------------ per-call records


def test_the_per_call_records_are_immutable_hashable_and_rebuild_equal(cfmm):
    records = [poa(cfmm, 3), solve_symmetric(cfmm, 3), best_response(cfmm, 5.0)]
    for rec in records:
        fields = type(rec)._fields
        assert type(rec)(*(getattr(rec, f) for f in fields)) == rec
        assert hash(type(rec)(**{f: getattr(rec, f) for f in fields})) == hash(rec)
        with pytest.raises(AttributeError):
            setattr(rec, fields[0], 0.0)
    assert PoaReport._fields == ("n", "eq_payoff", "fair_payoff", "poa")
    assert EquilibriumResult._fields == (
        "q", "n", "per_player", "equilibrium_payoff", "foc_residual", "method")
    assert BestResponseResult._fields == ("x", "achieved_payoff", "at_boundary")
    assert repr(records[2]) == (
        f"BestResponseResult(x={records[2].x!r}, "
        f"achieved_payoff={records[2].achieved_payoff!r}, at_boundary='interior')")
    assert records[1].positive_payoff() == records[1].equilibrium_payoff


def _bits(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _listing(family) -> str:
    # every field of poa, of solve_symmetric on each route and of
    # best_response over a grid of y and budgets, as exact bits; a call
    # that raises is listed by its error
    lines = []

    def add(label, call, fields):
        try:
            rec = call()
        except Exception as exc:
            lines.append(f"{label} {type(exc).__name__}: {exc}")
        else:
            lines.append(" ".join([label, *(_bits(getattr(rec, f)) for f in fields)]))

    root = diagnostics(family).root
    for n in (1, 2, 3, 5, 10, 50, 200):
        add(f"poa {n}", lambda: poa(family, n),
            ("n", "eq_payoff", "fair_payoff", "poa"))
        for method in ("auto", "closed", "numeric"):
            add(f"solve {n} {method}", lambda: solve_symmetric(family, n, method),
                ("q", "n", "per_player", "equilibrium_payoff", "foc_residual",
                 "method"))
    for k in (0.0, 0.01, 0.1, 0.5, 0.9, 1.5):
        for budget in (math.inf, 0.05 * root):
            add(f"best {k} {_bits(budget)}",
                lambda: best_response(family, k * root, budget),
                ("x", "achieved_payoff", "at_boundary"))
    return "\n".join(lines)


# sha256 of _listing as the records gave it when they were frozen
# dataclasses, before they became named tuples: no arithmetic changed
_LISTING_SHA256 = {
    "power":
        "dff16b3858f604045b64e84f920098373cd3f225e243c55cb8c05899d84ca8a0",
    "power-beta-0.948":
        "ad59fa39d92b4a697bc9dbf1f6c4ffb1eae6429e7bd5cc99f21486d91cf41f70",
    "cfmm":
        "75edbc75c5bc442de0df43244cc472269379ff795840742622917633f82b6d33",
    "cfmm-one-ulp-inside":
        "cfeb11f6b1e0eadf746dbd30d1ea4fbb1785063ecd4056d3b43c7b7204533f33",
    "cfmm-eps-1.3e-4":
        "639429f880cfe6f35de058d105dadfebe913a87596ac71c4e252f26214ce80f8",
    "cfmm-sweep-0":
        "1b31e47b1b25445c755cb9bdee65d6b09b12a0bb3b8353594fa3bbd497ace14c",
    "cfmm-sweep-1":
        "c60c8b162ceaff3621e14959fa247ca5e159717a4326b70974b6fb05454d8c9d",
    "cfmm-sweep-2":
        "a7e9970e237359e44222311d8740e0cf011fc547b360bba7f8fbc978f39bd0c1",
    "kinked-table":
        "f58fbd370d1ea04e2a28a6adcd58b41c2da6c3a7579cd63a9ef7d998ae10b6ce",
    "callable":
        "edc7d8dacabb66df784c282c71469f1ff92cfcca661862b4f811bf2ac0feb36c",
}


@pytest.mark.parametrize("family, digest", zip(_REFERENCE_FAMILIES,
                                               _LISTING_SHA256.values()),
                         ids=list(_LISTING_SHA256))
def test_the_records_keep_their_values_bit_for_bit(family, digest):
    assert hashlib.sha256(_listing(family).encode()).hexdigest() == digest
