"""Best-response dynamics: convergence, scenarios, seeded experiments."""

import inspect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prorata import (
    BoundedUpdate,
    Budgeted,
    CfmmArbitragePayoff,
    DomainExceeded,
    GameConfig,
    InvalidArgument,
    PowerPayoff,
    StudyRecord,
    TabulatedPayoff,
    Unconstrained,
    WhaleFishReport,
    best_response,
    bounded_update_sweep,
    convergence_study,
    diagnostics,
    draw_initial_profile,
    pro_rata_payoff,
    simulate,
    solve_symmetric,
    whale_fish_experiment,
    whale_fish_sweep,
)
from prorata.dynamics import _play_batch, _trial_uniforms

CFMM = CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0)
POWER = PowerPayoff(beta=0.5, gamma=0.05)
# inside the margin band (m = gamma r2 - c r1 = 7.5): its tender takes the
# exact margin
BAND = CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.2)
# the power family sampled at 41 knots: its best response is a search
_KNOTS = np.linspace(0.0, 400.0, 41)
TABLE = TabulatedPayoff(ts=tuple(_KNOTS), fs=tuple(_KNOTS**0.5 - 0.05 * _KNOTS))
# f peaks at the knot 30 and the equilibrium total sits on the kink at 40;
# f is not strictly concave, and play comes to rest on asymmetric splits
KINKED = TabulatedPayoff(ts=(0, 10, 20, 30, 40, 50), fs=(0, 8, 13, 15, 14, -2))
# the same f continued along its last segment, so that synchronous rounds,
# whose totals overshoot 50, stay on the table
KINKED_WIDE = TabulatedPayoff(ts=(*KINKED.ts, 200), fs=(*KINKED.fs, -242))


# ------------------------------------------------------------- config


def test_config_validation(cfmm):
    with pytest.raises(InvalidArgument):
        GameConfig(family=cfmm, n=0)
    with pytest.raises(InvalidArgument):
        GameConfig(family=cfmm, n=2, convergence_threshold=0.0)
    with pytest.raises(InvalidArgument):
        GameConfig(family=cfmm, n=2, convergence_threshold=math.nan)
    with pytest.raises(InvalidArgument, match="must be an integer"):
        GameConfig(family=cfmm, n=2, max_iterations=2.5)
    with pytest.raises(InvalidArgument):
        GameConfig(family=cfmm, n=2, update_order="diagonal")
    with pytest.raises(InvalidArgument):
        GameConfig(family=cfmm, n=3, scenario=Budgeted(budgets=(1.0, 2.0)))
    with pytest.raises(InvalidArgument):
        BoundedUpdate(delta=0.0)
    with pytest.raises(InvalidArgument):
        Budgeted(budgets=(1.0, -2.0))


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be nonnegative, got -1"),
    (True, "seed must be an integer, got True"),
    (1.0, "seed must be an integer, got 1.0"),
])
def test_config_rejects_bad_seeds(cfmm, seed, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        GameConfig(family=cfmm, n=2, seed=seed)


def test_config_stores_numpy_integers_as_ints(cfmm):
    config = GameConfig(family=cfmm, n=np.int64(3), max_iterations=np.int32(5),
                        seed=np.uint8(4))
    assert (config.n, config.max_iterations, config.seed) == (3, 5, 4)
    assert {type(v) for v in (config.n, config.max_iterations, config.seed)} == {int}


# ----------------------------------------------------------- simulate


def test_two_player_run_converges(cfmm):
    trace = simulate(GameConfig(family=cfmm, n=2, seed=1))
    assert trace.stop_reason == "converged"
    eq = trace.equilibrium
    final = trace.tenders[-1]
    assert np.max(np.abs(final - eq.per_player)) < 0.1
    assert trace.tenders.shape[1] == 2
    assert not trace.tenders.flags.writeable
    assert np.allclose(trace.final_payoffs,
                       pro_rata_payoff(cfmm, final, final.sum() - final))


def test_starting_at_equilibrium_counts_zero_rounds(cfmm):
    eq = solve_symmetric(cfmm, 3)
    trace = simulate(
        GameConfig(family=cfmm, n=3), initial=np.full(3, eq.per_player)
    )
    assert trace.stop_reason == "converged"
    assert len(trace.tenders) == 1


def test_lone_player_jumps_to_argmax(cfmm):
    trace = simulate(GameConfig(family=cfmm, n=1), initial=[1.0])
    assert (trace.stop_reason, len(trace.tenders)) == ("converged", 2)
    assert trace.tenders[-1][0] == pytest.approx(
        diagnostics(cfmm).argmax, rel=1e-8
    )


def test_same_seed_reruns_are_bit_identical(cfmm):
    config = GameConfig(family=cfmm, n=4, seed=7)
    h1 = simulate(config).tenders
    h2 = simulate(config).tenders
    assert h1.shape == h2.shape
    assert np.array_equal(h1, h2)


def test_multi_start_runs_agree_on_the_rest_point(cfmm):
    # 20 random starts, one shared attractor
    eq = solve_symmetric(cfmm, 5)
    finals = []
    for seed in range(20):
        trace = simulate(GameConfig(family=cfmm, n=5, seed=seed))
        assert trace.stop_reason == "converged"
        finals.append(trace.tenders[-1])
    assert all(np.max(np.abs(f - eq.per_player)) < 0.1 for f in finals)


def test_initial_profile_scale(cfmm):
    w = diagnostics(cfmm).root
    for n in (1, 3, 10):
        x0 = draw_initial_profile(cfmm, n, np.random.default_rng(0))
        assert x0.shape == (n,)
        assert np.all(x0 > 0.0) and np.all(x0 < w / n)


def test_bad_initial_profiles_rejected(cfmm):
    with pytest.raises(InvalidArgument):
        simulate(GameConfig(family=cfmm, n=2), initial=[1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgument):
        simulate(GameConfig(family=cfmm, n=2), initial=[-1.0, 2.0])


def test_infinite_initial_tender_rejected(power):
    # ulp(inf) is inf, so an infinite total would let every move pass as a
    # rest and the run stop as a false fixed point after one round
    with pytest.raises(InvalidArgument, match="finite"):
        simulate(GameConfig(family=power, n=3), initial=[math.inf, 1.0, 1.0])


def test_nan_initial_tender_rejected(power):
    # NaN passes every comparison test as false, so x < 0 let it play on
    with pytest.raises(InvalidArgument, match="finite"):
        simulate(GameConfig(family=power, n=3), initial=[math.nan, 1.0, 1.0])


def test_synchronous_order_is_available_and_unstable_for_crowds(cfmm):
    # two players flip-flop but settle; eight never do — the round map's
    # eigenvalue (n-1)*BR' leaves the unit disk around n = 4
    ok = simulate(GameConfig(family=cfmm, n=2, seed=0, update_order="synchronous"))
    assert ok.stop_reason == "converged"
    stuck = simulate(
        GameConfig(
            family=cfmm, n=8, seed=0, update_order="synchronous", max_iterations=500
        )
    )
    assert stuck.stop_reason == "iteration-cap"


# ---------------------------------------------------------- scenarios


def test_bounded_updates_respect_the_cap(cfmm):
    delta = 0.7
    trace = simulate(
        GameConfig(family=cfmm, n=3, seed=2, scenario=BoundedUpdate(delta=delta))
    )
    h = trace.tenders
    assert np.max(np.abs(np.diff(h, axis=0))) <= delta + 1e-12
    assert trace.stop_reason == "converged"


def test_budgets_are_hard_caps(cfmm):
    budgets = (5.0, 7.0, math.inf)
    trace = simulate(
        GameConfig(family=cfmm, n=3, seed=3, scenario=Budgeted(budgets=budgets))
    )
    h = trace.tenders[1:]  # the random start is not budget-projected
    assert np.all(h <= np.array([5.0, 7.0, np.inf]) + 1e-12)


def test_zero_budgets_leave_one_player_alone(cfmm):
    # everyone else pinned at zero: the free player walks to argmax f
    trace = simulate(
        GameConfig(
            family=cfmm,
            n=3,
            scenario=Budgeted(budgets=(math.inf, 0.0, 0.0)),
            max_iterations=3,
        ),
        initial=[1.0, 0.0, 0.0],
    )
    final = trace.tenders[-1]
    assert final[0] == pytest.approx(diagnostics(cfmm).argmax, rel=1e-8)
    assert final[1] == final[2] == 0.0


# -------------------------------------------------------- experiments


def test_convergence_study_shape_and_reproducibility(cfmm):
    a = convergence_study(cfmm, n_values=(2, 3), trials=4, seed=11)
    b = convergence_study(cfmm, n_values=(2, 3), trials=4, seed=11)
    assert a == b
    assert len(a.records) == 8
    assert set(a.mean_iterations()) == {2, 3}
    assert {r.stop for r in a.records} == {"converged"}


def test_study_subsets_reproduce_exactly(cfmm):
    # trial (n, k) is seeded by [seed, n, k]: slicing the grid changes nothing
    full = convergence_study(cfmm, n_values=(2, 3, 4), trials=3, seed=5)
    part = convergence_study(cfmm, n_values=(3,), trials=3, seed=5)
    assert part.records == tuple(r for r in full.records if r.n == 3)


def test_whale_fish_frozen_point(cfmm):
    rep = whale_fish_experiment(cfmm, n_fish=1, trials=5, seed=0)
    assert rep.whale_strategy == pytest.approx(17.43277886525688, rel=1e-12)
    assert rep.whale_profit == pytest.approx(1.4453501716112847, rel=1e-12)
    assert rep.pct_strategy_increase == pytest.approx(11.608336978976078, rel=1e-12)
    assert rep.pct_profit_increase == pytest.approx(28.935181994113258, rel=1e-12)
    assert rep.converged_trials == 5
    assert rep.fish_saturated_trials == 5


def test_whale_outplays_the_symmetric_split(cfmm):
    rep = whale_fish_experiment(cfmm, n_fish=4, trials=10, seed=1)
    eq = solve_symmetric(cfmm, 5)
    assert rep.fair_strategy == pytest.approx(eq.per_player, rel=1e-12)
    assert rep.fair_payoff == pytest.approx(eq.equilibrium_payoff, rel=1e-12)
    assert rep.whale_strategy > rep.fair_strategy
    assert rep.whale_profit > rep.fair_payoff
    assert rep.pct_strategy_increase > 0.0
    assert rep.pct_profit_increase > 0.0


@pytest.mark.parametrize("n_fish, trials", [(-1, 5), (2, 0), (2, -3)])
def test_whale_rejects_bad_counts(cfmm, n_fish, trials):
    # no trials would average an empty array into nan
    with pytest.raises(InvalidArgument, match="n_fish must|trials must"):
        whale_fish_experiment(cfmm, n_fish=n_fish, trials=trials, seed=0)


@pytest.mark.parametrize("settings", [
    {"convergence_threshold": 0}, {"convergence_threshold": math.nan},
    {"max_iterations": 0}, {"max_iterations": 2.5},
])
def test_whale_checks_its_run_settings_like_a_study(cfmm, settings):
    with pytest.raises(InvalidArgument):
        whale_fish_experiment(cfmm, n_fish=2, trials=3, seed=0, **settings)
    with pytest.raises(InvalidArgument):
        convergence_study(cfmm, [3], trials=3, seed=0, **settings)


def test_the_experiments_run_defaults_are_the_game_configs(cfmm):
    defaults = {
        name: p.default
        for run in (convergence_study, whale_fish_experiment)
        for name, p in inspect.signature(run).parameters.items()
        if p.default is not p.empty
    }
    assert defaults == {"scenario": Unconstrained(), "convergence_threshold": 0.1,
                        "max_iterations": 2000, "update_order": "sequential"}
    config = GameConfig(cfmm, 2)
    assert {name: getattr(config, name) for name in defaults} == defaults


@pytest.mark.parametrize("run, message", [
    (lambda f: convergence_study(f, [2.5], 1, 0), "n_values[0] must be an integer, got 2.5"),
    (lambda f: convergence_study(f, [2, True], 1, 0),
     "n_values[1] must be an integer, got True"),
    (lambda f: convergence_study(f, [2], 2.5, 0), "trials must be an integer, got 2.5"),
    (lambda f: whale_fish_experiment(f, True, 2, 0), "n_fish must be an integer, got True"),
    (lambda f: whale_fish_experiment(f, 2.0, 2, 0), "n_fish must be an integer, got 2.0"),
    (lambda f: whale_fish_experiment(f, 2, 2.5, 0), "trials must be an integer, got 2.5"),
    (lambda f: whale_fish_experiment(f, 2, 2, -1), "seed must be nonnegative, got -1"),
], ids=["study-n-float", "study-n-bool", "study-trials-float", "whale-n-fish-bool",
        "whale-n-fish-float", "whale-trials-float", "whale-seed-negative"])
def test_experiments_name_their_bad_integer_arguments(cfmm, run, message):
    with pytest.raises(InvalidArgument) as info:
        run(cfmm)
    assert str(info.value) == message


def test_experiments_take_numpy_integers(cfmm):
    assert convergence_study(cfmm, np.array([2, 3]), np.int64(2), np.uint8(1)) \
        == convergence_study(cfmm, [2, 3], 2, 1)
    assert whale_fish_experiment(cfmm, np.int64(2), np.int32(3), np.int64(1)) \
        == whale_fish_experiment(cfmm, 2, 3, 1)


@pytest.mark.parametrize("trials", [0, -2])
def test_study_rejects_bad_trial_counts(cfmm, trials):
    # no trials would report no records and no means
    with pytest.raises(InvalidArgument, match="trials must be at least 1"):
        convergence_study(cfmm, [2, 3], trials=trials, seed=0)


# ------------------------------------ lockstep against the scalar rule
#
# The engine runs all trials of a study or whale row as one (trials, n)
# array. The reference below is the scalar rule it replaced: one trial,
# one player at a time, Python floats. Results must be equal, not close.


def _reference_round(x, lower, upper, order, br):
    sequential = order == "sequential"
    out = x.copy()
    total = float(x.sum())
    for i in range(x.shape[0]):
        y = total - (out[i] if sequential else x[i])
        if y < 0.0:
            y = 0.0
        xi = br(y)
        if xi < lower[i]:
            xi = lower[i]
        elif xi > upper[i]:
            xi = upper[i]
        if sequential:
            total += xi - out[i]
        out[i] = xi
    return out


def _reference_bounds(scenario, x):
    if isinstance(scenario, BoundedUpdate):
        return np.maximum(0.0, x - scenario.delta), x + scenario.delta
    if isinstance(scenario, Budgeted):
        return np.zeros_like(x), np.asarray(scenario.budgets, dtype=float)
    return np.zeros_like(x), np.full_like(x, math.inf)


def _steps(scenario, rows):
    """The movement cap of each of ``rows`` rows under ``scenario``, or None."""
    return np.full(rows, scenario.delta) if isinstance(scenario, BoundedUpdate) else None


def _at_rest(prev, x):
    """No player moved more than 4 ulps of the total before the round."""
    return float(np.max(np.abs(x - prev))) <= 4 * math.ulp(float(prev.sum()))


def _check_on_table(family, x, t):
    if isinstance(family, TabulatedPayoff) and float(x.sum()) > family.ts[-1]:
        raise DomainExceeded(f"round {t}: tender total {float(x.sum())} "
                             f"beyond last knot {family.ts[-1]}")


def _reference_trial(config, x):
    """The profiles of one trial, the rounds it played and why it stopped."""
    target = solve_symmetric(config.family, config.n).per_player
    br = config.family.tender()
    profiles = [x]
    if float(np.max(np.abs(x - target))) < config.convergence_threshold:
        return profiles, 0, "converged"
    for t in range(1, config.max_iterations + 1):
        lower, upper = _reference_bounds(config.scenario, x)
        prev, x = x, _reference_round(x, lower, upper, config.update_order, br)
        _check_on_table(config.family, x, t)
        profiles.append(x)
        if float(np.max(np.abs(x - target))) < config.convergence_threshold:
            return profiles, t, "converged"
        if _at_rest(prev, x):
            return profiles, t, "fixed-point"
    return profiles, config.max_iterations, "iteration-cap"


# (family, scenario, n values, threshold, round cap): each mixes trials
# converged at round 0, converged later, and cut off by the cap; on the
# kinked table, sequential trials also come to rest on asymmetric splits
LOCKSTEP_CASES = [
    (CFMM, Unconstrained(), (1, 2, 3, 5), 2.0, 2),
    (CFMM, BoundedUpdate(delta=0.7), (1, 2, 3, 5), 2.0, 3),
    (CFMM, Budgeted(budgets=(30.0, math.inf, 12.5)), (3,), 2.0, 1),
    (POWER, Unconstrained(), (1, 2, 3, 5), 10.0, 2),
    (POWER, BoundedUpdate(delta=10.0), (1, 2, 3, 5), 10.0, 3),
    (POWER, Budgeted(budgets=(200.0, math.inf, 100.0)), (3,), 20.0, 1),
    (KINKED_WIDE, Unconstrained(), (1, 2, 3, 5), 5.0, 2),
]


@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("family,scenario,n_values,threshold,cap", LOCKSTEP_CASES)
def test_study_equals_trial_by_trial_reference(
    family, scenario, n_values, threshold, cap, order
):
    trials, seed = 16 // len(n_values), 3
    study = convergence_study(
        family, n_values, trials=trials, seed=seed, scenario=scenario,
        convergence_threshold=threshold, max_iterations=cap, update_order=order,
    )
    want = []
    for n in n_values:
        config = GameConfig(
            family=family, n=n, scenario=scenario,
            convergence_threshold=threshold, max_iterations=cap,
            update_order=order,
        )
        for trial in range(trials):
            rng = np.random.default_rng([seed, n, trial])
            _, rounds, stop = _reference_trial(
                config, draw_initial_profile(family, n, rng)
            )
            want.append(StudyRecord(n, trial, rounds, stop))
    assert study.records == tuple(want)
    outcomes = {(r.stop, r.iterations == 0) for r in study.records}
    assert {("converged", True), ("converged", False),
            ("iteration-cap", False)} <= outcomes
    if family is KINKED_WIDE and order == "sequential":
        assert ("fixed-point", False) in outcomes


@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("family,scenario,n_values,threshold,cap", LOCKSTEP_CASES)
def test_simulate_history_equals_reference(
    family, scenario, n_values, threshold, cap, order
):
    n = n_values[-1]
    config = GameConfig(
        family=family, n=n, scenario=scenario,
        convergence_threshold=threshold / 100.0, max_iterations=40,
        update_order=order, seed=9,
    )
    trace = simulate(config)
    x0 = draw_initial_profile(family, n, np.random.default_rng(9))
    profiles, rounds, stop = _reference_trial(config, x0)
    assert np.array_equal(trace.tenders, np.array(profiles))
    assert (len(trace.tenders) - 1, trace.stop_reason) == (rounds, stop)
    final = profiles[-1]
    assert np.array_equal(
        trace.final_payoffs,
        pro_rata_payoff(family, final, float(final.sum()) - final),
    )


def _reference_whale(family, n_fish, trials, seed, threshold, cap):
    n_total = n_fish + 1
    eq = solve_symmetric(family, n_total)
    fair_strategy, fair_payoff = eq.per_player, eq.equilibrium_payoff
    w = diagnostics(family).root
    br = family.tender()
    strategies, profits = np.empty(trials), np.empty(trials)
    converged = saturated = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, n_fish, trial])
        budgets = rng.uniform(0.0, fair_strategy, size=n_fish)
        x = np.empty(n_total)
        x[0] = rng.uniform(0.0, w / n_total)
        x[1:] = rng.uniform(0.0, budgets) if n_fish else []
        lower = np.zeros(n_total)
        upper = np.concatenate(([math.inf], budgets))
        for _ in range(cap):
            prev = x
            x = _reference_round(x, lower, upper, "sequential", br)
            if float(np.max(np.abs(x - prev))) < threshold:
                converged += 1
                break
            if _at_rest(prev, x):
                break
        saturated += np.array_equal(x[1:], budgets)
        strategies[trial] = x[0]
        profits[trial] = pro_rata_payoff(family, float(x[0]), float(x[1:].sum()))
    pct_strategy = 100.0 * (strategies - fair_strategy) / fair_strategy
    pct_profit = 100.0 * (profits - fair_payoff) / fair_payoff
    return WhaleFishReport(
        n_fish, trials, fair_strategy, fair_payoff,
        float(strategies.mean()), float(profits.mean()),
        float(pct_strategy.mean()), float(pct_profit.mean()),
        float(pct_strategy.std()), float(pct_profit.std()),
        converged, saturated,
    )


@pytest.mark.parametrize("family", [CFMM, POWER, BAND])
def test_whale_equals_trial_by_trial_reference(family):
    converged = set()
    for n_fish in range(5):
        for cap in (2, 3, 2000):
            got = whale_fish_experiment(
                family, n_fish, trials=6, seed=2, max_iterations=cap
            )
            assert got == _reference_whale(family, n_fish, 6, 2, 0.1, cap)
            converged.add(got.converged_trials)
    # rows where no trial and every trial settled; with cfmm also rows
    # where only some did (power whales all settle at round 2)
    assert {0, 6} <= converged
    assert len(converged) > 2 or family is POWER


@given(family=st.sampled_from([CFMM, POWER]), n_fish=st.integers(0, 20),
       trials=st.integers(1, 12), seed=st.integers(0, 2**40),
       cap=st.sampled_from([2, 2000]))
@settings(deadline=None, max_examples=60)
def test_whale_set_up_from_one_draw_equals_three_uniform_calls(
    family, n_fish, trials, seed, cap
):
    # the experiment scales one random(2*n_fish + 1) draw per trial; the
    # reference draws budgets, whale start and fish starts by uniform calls
    # and counts a trial as saturated when its fish end on those budgets
    got = whale_fish_experiment(family, n_fish, trials, seed, max_iterations=cap)
    assert got == _reference_whale(family, n_fish, trials, seed, 0.1, cap)


# (family, scenario, threshold): with n=3, 6 trials and 4 rounds, the
# trials of each case stop at different rounds or hit the cap; on the
# kinked table some come to rest (bounded sequential, budgeted synchronous)
ALONE_CASES = [
    (family, scenario, threshold)
    for family, threshold, delta, budgets in (
        (CFMM, 5.0, 0.7, (30.0, math.inf, 12.5)),
        (POWER, 20.0, 10.0, (200.0, math.inf, 100.0)),
        (TABLE, 20.0, 10.0, (200.0, math.inf, 100.0)),
        (KINKED_WIDE, 7.0, 5.0, (10.0, math.inf, 8.0)),
    )
    for scenario in (Unconstrained(), BoundedUpdate(delta=delta),
                     Budgeted(budgets=budgets))
]


@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("family,scenario,threshold", ALONE_CASES)
def test_lockstep_trial_equals_trial_alone(family, scenario, threshold, order):
    n, trials, seed, cap = 3, 6, 5, 4
    config = GameConfig(
        family=family, n=n, scenario=scenario, convergence_threshold=threshold,
        max_iterations=cap, seed=seed, update_order=order,
    )
    study = convergence_study(
        family, [n], trials=trials, seed=seed, scenario=scenario,
        convergence_threshold=threshold, max_iterations=cap, update_order=order,
    )
    X = np.array([
        draw_initial_profile(family, n, np.random.default_rng([seed, n, k]))
        for k in range(trials)
    ])
    target = solve_symmetric(family, n).per_player
    caps = scenario.budgets if isinstance(scenario, Budgeted) else math.inf
    upper = np.full(X.shape, caps)

    ((final, rounds, stops),) = _play_batch(
        config, [(X, upper, _steps(scenario, trials), target)])
    for k, record in enumerate(study.records):
        trace = simulate(config, initial=X[k])
        ((alone, alone_rounds, alone_stops),) = _play_batch(
            config, [(X[k:k + 1], upper[k:k + 1], _steps(scenario, 1), target)]
        )
        assert (record.iterations, record.stop) == (rounds[k], stops[k]) == (
            alone_rounds[0], alone_stops[0]
        ) == (len(trace.tenders) - 1, trace.stop_reason)
        assert final[k].tolist() == alone[0].tolist() == trace.tenders[-1].tolist()
    assert len({r.iterations for r in study.records}) > 1


@pytest.mark.parametrize("family", [CFMM, POWER])
@pytest.mark.parametrize("order", ["sequential", "synchronous"])
def test_sweep_equals_reference_round_on_wide_rows(family, order):
    # tenders spread over 20 decades: the running total loses the small
    # ones, so some totals fall below a player's tender and y is clamped
    rng = np.random.default_rng(4)
    X = 10.0 ** rng.uniform(-3.0, 17.0, size=(64, 5))
    target = solve_symmetric(family, 5).per_player
    # a round cap of 1, then 2: the final rows are each row's round 1 and
    # round 2, or the row where it stopped before
    for cap in (1, 2):
        config = GameConfig(family=family, n=5, max_iterations=cap, update_order=order)
        ((final, rounds, stops),) = _play_batch(
            config, [(X, np.full_like(X, math.inf), None, target)])
        # the reference takes each row's total as numpy's sum of that row
        # alone: the engine's totals, from the array of all rows, have its bits
        trials = [_reference_trial(config, x) for x in X]
        assert [(played, stop) for _, played, stop in trials] == list(zip(rounds, stops))
        assert final.tolist() == [profiles[-1].tolist() for profiles, _, _ in trials]
        assert max(rounds) == cap


def _outcome(run):
    """What a run gives, or the error it raises, as comparable values."""
    try:
        return run()
    except DomainExceeded as exc:
        return type(exc), str(exc)


def _trace_bits(trace):
    return (trace.tenders.tobytes(), trace.tenders.shape, trace.stop_reason,
            trace.equilibrium, trace.final_payoffs.tobytes())


@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("family", [CFMM, POWER, TABLE, KINKED, KINKED_WIDE],
                         ids=["cfmm", "power", "table", "kinked", "kinked-wide"])
def test_a_movement_cap_wider_than_any_move_changes_nothing(family, order):
    # no best response exceeds the root w, so a cap of w or more never
    # binds; the starts lie below w, so the windows reach below 0 and the
    # tender alone keeps a move at or above 0. The runs converge, come to
    # rest, hit the cap or leave the table, the same way on both sides.
    w = diagnostics(family).root
    for delta in (w, 2.0 * w, 1e6 * w):
        for n, seed in itertools.product((2, 3, 5), (0, 1)):
            def trace(scenario):
                return _trace_bits(simulate(GameConfig(
                    family, n, scenario, max_iterations=100, seed=seed,
                    update_order=order)))
            assert _outcome(lambda: trace(BoundedUpdate(delta))) == _outcome(
                lambda: trace(Unconstrained()))

        def study(scenario):
            return convergence_study(family, [2, 3, 5], trials=4, seed=7,
                                     scenario=scenario, max_iterations=100,
                                     update_order=order)
        assert _outcome(lambda: study(BoundedUpdate(delta))) == _outcome(
            lambda: study(Unconstrained()))


# ------------------------------------------------------- stop reasons


def test_kinked_table_study_stops_at_fixed_points():
    # the rows settle on asymmetric splits of the kink total, far from the
    # symmetric point, and then move by a few ulps a round
    study = convergence_study(KINKED, [2, 3, 4], trials=3, seed=0)
    assert {r.stop for r in study.records} == {"fixed-point"}
    assert max(r.iterations for r in study.records) < 100
    assert study.mean_iterations() == {}


def test_simulate_on_a_kinked_table_ends_at_the_fixed_point():
    trace = simulate(GameConfig(family=KINKED, n=2))
    assert trace.stop_reason == "fixed-point"
    before, last = trace.tenders[-2:]
    assert np.max(np.abs(last - before)) <= 4 * math.ulp(before.sum())
    assert np.max(np.abs(last - trace.equilibrium.per_player)) > 5.0


def test_binding_budgets_stop_at_fixed_points(cfmm):
    # every budget binds below the equilibrium tender: round 1 moves each
    # player to their budget, round 2 moves nobody
    study = convergence_study(cfmm, [3], trials=5, seed=0,
                              scenario=Budgeted(budgets=(5.0, 5.0, 5.0)))
    assert [(r.iterations, r.stop) for r in study.records] == [
        (2, "fixed-point")] * 5


def test_table_total_past_the_last_knot_raises_at_that_round():
    # each synchronous move stays on the table, but three together do not
    table = TabulatedPayoff((0, 50, 100, 200, 300, 400), (0, 6, 8, 9, 7, 0))
    config = GameConfig(table, 3, update_order="synchronous", max_iterations=40)
    x0 = draw_initial_profile(table, 3, np.random.default_rng([4, 0]))
    with pytest.raises(DomainExceeded) as want:
        _reference_trial(config, x0)
    with pytest.raises(DomainExceeded, match="^round [0-9]+: tender total ") as got:
        simulate(config, initial=x0)
    assert str(got.value) == str(want.value)


@dataclass(frozen=True)
class _RecordingTable(TabulatedPayoff):
    """A table whose ``tender()`` wraps the default and records each build
    and each call of the tender it returns."""

    calls: list = field(default_factory=list, compare=False)

    def tender(self):
        inner = super().tender()
        self.calls.append("built")

        def tender(y, lo=0.0, hi=math.inf):
            self.calls.append((y, lo, hi))
            return inner(y, lo, hi)

        return tender


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("scenario", [Unconstrained(), BoundedUpdate(5.0),
                                      Budgeted((40.0, 60.0, math.inf))],
                         ids=["unconstrained", "bounded", "budgeted"])
def test_best_response_and_simulate_ask_the_family_for_its_tender(scenario):
    # every move goes through the family's own tender(), and a subclass
    # that only wraps the default answers as the plain table, bit for bit
    knots = np.linspace(0.0, 400.0, 41)
    ts, fs = tuple(knots), tuple(knots**0.5 - 0.05 * knots)
    plain, recording = TabulatedPayoff(ts, fs), _RecordingTable(ts, fs)
    ys, budgets = (0.0, 50.0, 300.0, 400.0), (math.inf, 10.0)
    for y in ys:
        for budget in budgets:
            got, want = (best_response(f, y, budget) for f in (recording, plain))
            assert _bits(got[:2]) == _bits(want[:2])
            assert got.at_boundary == want.at_boundary
    assert recording.calls == [c for y in ys for _ in budgets
                               for c in ("built", (y, 0.0, math.inf))]
    recording.calls.clear()
    config = dict(n=3, scenario=scenario, convergence_threshold=1e-9, seed=2)
    want = simulate(GameConfig(plain, **config))
    got = simulate(GameConfig(recording, **config))
    assert got.stop_reason == want.stop_reason
    assert _bits(got.tenders) == _bits(want.tenders)
    assert _bits(got.final_payoffs) == _bits(want.final_payoffs)
    moves = 3 * (len(got.tenders) - 1)
    assert recording.calls[0] == "built"
    assert len(recording.calls) == 1 + moves


# --------------------------------------- one batch per run, two kernels


@dataclass(frozen=True)
class _ScalarCfmm(CfmmArbitragePayoff):
    """The cfmm family without its column form: the engine moves its rows
    in Python floats, through the scalar tender."""

    def column_tender(self):
        return None


SCALAR_CFMM = _ScalarCfmm(gamma=0.99, r1=200.0, r2=250.0, c=1.0)
SCALAR_BAND = _ScalarCfmm(gamma=0.99, r1=200.0, r2=250.0, c=1.2)


def _points(family, n_values, trials, scenario, aim):
    """A batch of study points, with finite caps on some players when the
    scenario has no budgets."""
    w = diagnostics(family).root
    points = []
    for n in n_values:
        rng = np.random.default_rng([8, n])
        X = rng.uniform(0.0, w / n, size=(trials, n))
        if isinstance(scenario, Budgeted):
            upper = np.full(X.shape, scenario.budgets)
        else:
            upper = np.where(rng.random(X.shape) < 0.3,
                             rng.uniform(0.0, 2.0 * w / n, X.shape), math.inf)
        points.append((X, upper, _steps(scenario, trials),
                       solve_symmetric(family, n).per_player if aim else None))
    return points


def _batch_bits(outcomes):
    return [(final.tobytes(), final.shape, rounds, stops)
            for final, rounds, stops in outcomes]


@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("scenario", [Unconstrained(), BoundedUpdate(delta=0.7),
                                      Budgeted(budgets=(30.0, math.inf, 12.5)),
                                      Budgeted(budgets=(5.0, 5.0, 5.0))],
                         ids=["unconstrained", "bounded", "budgeted", "binding"])
def test_the_column_kernel_equals_the_scalar_kernel(scenario, order):
    n_values = (3, 3) if isinstance(scenario, Budgeted) else (5, 2, 5, 1, 16, 3)
    outcomes, reasons = {}, set()
    # the reference family, and one inside the margin band
    for column, scalar in ((CFMM, SCALAR_CFMM), (BAND, SCALAR_BAND)):
        for aim, threshold, cap in ((True, 0.5, 30), (False, 1e-3, 30), (True, 1e-9, 5)):
            config = dict(scenario=scenario, convergence_threshold=threshold,
                          max_iterations=cap, update_order=order)
            got = [_batch_bits(_play_batch(GameConfig(family, 3, **config),
                                           _points(family, n_values, 6, scenario, aim)))
                   for family in (column, scalar)]
            assert got[0] == got[1]
            reasons |= {stop for _, _, _, stops in got[0] for stop in stops}
            # one row alone: the start simulate draws with seed n
            caps = scenario.budgets if isinstance(scenario, Budgeted) else math.inf
            for n in n_values:
                x = draw_initial_profile(column, n, np.random.default_rng(n))
                point = (x[None, :], np.full((1, n), caps), _steps(scenario, 1),
                         solve_symmetric(column, n).per_player if aim else None)
                alone = [_batch_bits(_play_batch(GameConfig(family, n, **config),
                                                 [point]))
                         for family in (column, scalar)]
                assert alone[0] == alone[1]
    # binding budgets bring every row to rest by round 2
    binding = scenario == Budgeted(budgets=(5.0, 5.0, 5.0))
    assert ({"fixed-point"} if binding else {"converged", "iteration-cap"}) <= reasons


def test_the_column_kernel_answers_an_overflowing_total_as_the_scalar_kernel():
    # the total of the start overflows to inf, which numpy's sum reports;
    # the cfmm form then meets inf - inf, and both kernels answer 0 without
    # an invalid-value warning
    point = (np.array([[1e308, 1e308, 1.0]]), np.full((1, 3), math.inf), None,
             solve_symmetric(CFMM, 3).per_player)
    for order in ("sequential", "synchronous"):
        with np.errstate(over="ignore"):
            got = [_batch_bits(_play_batch(GameConfig(family, 3, update_order=order),
                                           [point]))
                   for family in (CFMM, SCALAR_CFMM)]
        assert got[0] == got[1]


@dataclass(frozen=True)
class _NoColumnCfmm(CfmmArbitragePayoff):
    """The cfmm family whose column form fails when asked for."""

    def column_tender(self):
        raise AssertionError("column_tender() asked for")


@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("scenario", [Unconstrained(), BoundedUpdate(delta=0.7),
                                      Budgeted(budgets=(30.0, math.inf, 12.5))],
                         ids=["unconstrained", "bounded", "budgeted"])
def test_simulate_never_asks_for_a_column_tender(scenario, order):
    # a trace plays in Python floats, whatever the family offers
    config = dict(n=3, scenario=scenario, convergence_threshold=1e-6, seed=2,
                  update_order=order)
    family = _NoColumnCfmm(gamma=0.99, r1=200.0, r2=250.0, c=1.0)
    got = simulate(GameConfig(family, **config))
    assert _trace_bits(got) == _trace_bits(simulate(GameConfig(CFMM, **config)))
    assert len(got.tenders) > 2


@pytest.mark.parametrize("family", [CFMM, POWER, KINKED_WIDE],
                         ids=["cfmm", "power", "kinked-wide"])
@pytest.mark.parametrize("scenario", [Unconstrained(), BoundedUpdate(delta=2.0)],
                         ids=["unconstrained", "bounded"])
def test_a_study_of_unsorted_repeated_n_values_is_its_one_point_studies(
        family, scenario):
    n_values = [5, 2, 5, 1, 16]
    config = dict(trials=4, seed=6, scenario=scenario, max_iterations=60,
                  convergence_threshold=0.5)
    study = convergence_study(family, n_values, **config)
    assert study.records == tuple(
        record for n in n_values
        for record in convergence_study(family, [n], **config).records)
    assert convergence_study(family, [], **config).records == ()


@pytest.mark.parametrize("family", [CFMM, POWER], ids=["cfmm", "power"])
def test_a_whale_sweep_is_its_one_count_experiments(family):
    counts = [3, 0, 1, 3, 12]
    for cap in (2, 2000):
        assert whale_fish_sweep(family, counts, 5, 4, max_iterations=cap) == tuple(
            whale_fish_experiment(family, k, 5, 4, max_iterations=cap) for k in counts)
    assert whale_fish_sweep(family, [], 5, 4) == ()


# a table that three or more synchronous players leave: with seed 1 and
# two trials, n = 3 leaves it at round 1 and n = 4 at round 3
LEFT_TABLE = TabulatedPayoff((0, 50, 100, 200, 300, 400), (0, 6, 8, 9, 7, 0))


@pytest.mark.parametrize("run, error, message", [
    (lambda f: convergence_study(f, [2, 0], trials=0, seed=0), InvalidArgument,
     "trials must be at least 1, got 0"),
    (lambda f: convergence_study(f, [2, 2.5, 0], 3, 0), InvalidArgument,
     "n_values[1] must be an integer, got 2.5"),
    (lambda f: convergence_study(f, [0, 3], 3, 0, convergence_threshold=0),
     InvalidArgument, "n_values[0] must be at least 1, got 0"),
    (lambda f: convergence_study(f, [3, 0], 3, 0, convergence_threshold=0),
     InvalidArgument, "convergence_threshold must be finite and positive, got 0"),
    (lambda f: convergence_study(f, [2, 3], 3, 0, scenario=Budgeted((1.0, 1.0))),
     InvalidArgument, "need 3 budgets, got 2"),
    (lambda f: whale_fish_sweep(f, [1, -1], trials=0, seed=0), InvalidArgument,
     "trials must be at least 1, got 0"),
    (lambda f: whale_fish_sweep(f, [-1, 1], trials=0, seed=0), InvalidArgument,
     "n_fish must be nonnegative, got -1"),
    (lambda f: whale_fish_sweep(f, [1, -1], 2, 0, max_iterations=0), InvalidArgument,
     "max_iterations must be at least 1, got 0"),
    (lambda f: whale_fish_sweep(f, [1, True], 2, 0), InvalidArgument,
     "n_fish must be an integer, got True"),
    # a run with no points checks what a point would
    (lambda f: convergence_study(f, [], 2, 0, max_iterations=0), InvalidArgument,
     "max_iterations must be at least 1, got 0"),
    (lambda f: convergence_study(f, [], 2, 0, update_order="x"), InvalidArgument,
     "update_order must be one of ('sequential', 'synchronous'), got 'x'"),
    (lambda f: whale_fish_sweep(f, [], trials=0, seed=0), InvalidArgument,
     "trials must be at least 1, got 0"),
    (lambda f: whale_fish_sweep(f, [], 2, 0, convergence_threshold=0), InvalidArgument,
     "convergence_threshold must be finite and positive, got 0"),
], ids=["study-trials", "study-n", "study-n-before-config", "study-config",
        "study-budgets", "whale-trials", "whale-n-fish", "whale-settings",
        "whale-second-n-fish", "study-empty-settings", "study-empty-order",
        "whale-empty-trials", "whale-empty-settings"])
def test_a_run_checks_every_point_in_order_before_playing_any(run, error, message):
    # the first check that fails, in the order the points are listed: no
    # point plays first, so a later point's error is not hidden behind an
    # earlier point's play
    with pytest.raises(error) as info:
        run(CFMM)
    assert str(info.value) == message
    with pytest.raises(error) as info:
        run(LEFT_TABLE)
    assert str(info.value) == message


# ints at the 32-bit word edges, so that keys mix one-, two- and
# many-word entries; NumPy makes each int its little-endian 32-bit words
_KEY_INTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1,
                     2**96 + 7, 2**200 - 1]),
    st.integers(0, 2**70),
)


@given(runs=st.lists(st.tuples(st.lists(_KEY_INTS, min_size=1, max_size=6),
                               st.integers(0, 9)), max_size=8))
@example(runs=[])
@example(runs=[((0,), 0)])
@example(runs=[((0,), 3), ((2**32 - 1,), 0), ((2**32, 5), 2), ((1, 2, 3, 4, 5), 4),
               ((2**64 + 1, 0, 2**200 - 1), 1), ((7, 2, 9), 5)])
@settings(deadline=None, max_examples=200)
def test_trial_uniforms_are_each_keys_default_rng_draws(runs):
    keys, counts = [key for key, _ in runs], [count for _, count in runs]
    out = _trial_uniforms(keys, counts)
    assert out.dtype == np.float64 and out.shape == (sum(counts),)
    first = 0
    for key, count in runs:
        want = np.random.default_rng(list(key)).random(count)
        assert out[first:first + count].tobytes() == want.tobytes()
        first += count


def test_a_table_run_raises_for_the_first_listed_point_that_leaves_the_table():
    config = dict(trials=2, seed=1, update_order="synchronous", max_iterations=40)

    def message(n_values):
        with pytest.raises(DomainExceeded) as info:
            convergence_study(LEFT_TABLE, n_values, **config)
        return str(info.value)

    assert message([3]).startswith("round 1: ")
    assert message([4]).startswith("round 3: ")
    assert message([4, 3]) == message([4])
    assert message([3, 4]) == message([3])


# ---------------------------------------------- the movement-cap sweep

ORDERS = ["sequential", "synchronous"]


def _one_delta_at_a_time(family, n, deltas, **config):
    """The studies the sweep stands for, one per delta, in order."""
    return tuple(convergence_study(family, [n], scenario=BoundedUpdate(delta), **config)
                 for delta in deltas)


@given(family=st.sampled_from([CFMM, POWER, SCALAR_CFMM]), n=st.integers(1, 6),
       deltas=st.lists(st.sampled_from([0.3, 0.7, 2.0, 5.0, 40.0, 1e6]), max_size=6),
       trials=st.integers(1, 4), seed=st.integers(0, 2**40),
       threshold=st.sampled_from([0.5, 5.0, 20.0]), cap=st.integers(1, 8),
       order=st.sampled_from(ORDERS))
@example(family=POWER, n=4, deltas=[5.0, 0.5, 5.0, 2.0], trials=6, seed=9,
         threshold=5.0, cap=6, order="sequential")
@example(family=CFMM, n=4, deltas=[5.0, 0.5, 5.0, 2.0], trials=6, seed=9,
         threshold=5.0, cap=6, order="synchronous")
@settings(deadline=None, max_examples=60)
def test_a_delta_sweep_is_its_one_delta_studies(
        family, n, deltas, trials, seed, threshold, cap, order):
    config = dict(trials=trials, seed=seed, convergence_threshold=threshold,
                  max_iterations=cap, update_order=order)
    sweep = bounded_update_sweep(family, n, deltas, **config)
    # repr tells a numpy integer from an int, which == does not
    assert repr(sweep) == repr(_one_delta_at_a_time(family, n, deltas, **config))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("family", [CFMM, POWER, SCALAR_CFMM],
                         ids=["cfmm", "power", "scalar-cfmm"])
def test_a_delta_sweep_draws_each_start_once(family, order, monkeypatch):
    asked = []

    def recording(keys, counts):
        asked.append((list(keys), list(counts)))
        return _trial_uniforms(keys, counts)

    monkeypatch.setattr("prorata.dynamics._trial_uniforms", recording)
    deltas = [5.0, 0.5, 5.0, 2.0]
    config = dict(trials=6, seed=9, convergence_threshold=5.0, max_iterations=6,
                  update_order=order)
    sweep = bounded_update_sweep(family, 4, deltas, **config)
    assert asked == [([(9, 4, k) for k in range(6)], [4] * 6)]
    assert sweep == _one_delta_at_a_time(family, 4, deltas, **config)
    assert {"converged", "iteration-cap"} <= {
        r.stop for result in sweep for r in result.records}
    assert bounded_update_sweep(family, 4, [], **config) == ()


def _first_error(run):
    try:
        run()
    except InvalidArgument as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("deltas, settings, message", [
    ([1, 0], dict(trials=0), "trials must be at least 1, got 0"),
    ([0], dict(trials=0), "delta must be finite and positive, got 0"),
    ([1, 0], dict(n=0), "n_values[0] must be at least 1, got 0"),
    ([0, 1], dict(n=0), "delta must be finite and positive, got 0"),
    ([1, 2, 0], dict(max_iterations=0), "max_iterations must be at least 1, got 0"),
    ([1, 2, 0], dict(), "delta must be finite and positive, got 0"),
    ([2, math.nan], dict(update_order="x"),
     "update_order must be one of ('sequential', 'synchronous'), got 'x'"),
    ([2, math.nan], dict(), "delta must be finite and positive, got nan"),
    # with no deltas the sweep still checks the trials, n and the settings
    ([], dict(trials=0, n=0), "trials must be at least 1, got 0"),
    ([], dict(n=2.5), "n_values[0] must be an integer, got 2.5"),
    ([], dict(convergence_threshold=0),
     "convergence_threshold must be finite and positive, got 0"),
], ids=["trials-before-second-delta", "first-delta-before-trials",
        "n-before-second-delta", "first-delta-before-n",
        "settings-before-later-delta", "later-delta", "order-before-later-delta",
        "later-nan-delta", "empty-trials", "empty-n", "empty-settings"])
def test_a_delta_sweep_checks_every_delta_before_any_trial_plays(
        deltas, settings, message, monkeypatch):
    # the first error of the studies one delta at a time, which played the
    # first delta before they checked the second
    config = {**dict(n=3, trials=2, seed=0, max_iterations=5), **settings}
    n = config.pop("n")
    assert _first_error(lambda: _one_delta_at_a_time(CFMM, n, deltas, **config)) \
        == (message if deltas else None)

    def play(*args):
        raise AssertionError("a trial played")

    monkeypatch.setattr("prorata.dynamics._play_batch", play)
    for family in (CFMM, POWER, LEFT_TABLE):
        with pytest.raises(InvalidArgument) as info:
            bounded_update_sweep(family, n, deltas, **config)
        assert str(info.value) == message


def test_a_delta_sweep_on_a_table_raises_at_the_first_round_any_delta_leaves():
    # with seed 1 and two synchronous trials at n = 3, delta 100 leaves the
    # table at round 3, delta 1000 at round 1, and deltas of 40 or less stay
    config = dict(trials=2, seed=1, update_order="synchronous", max_iterations=40)

    def message(run):
        with pytest.raises(DomainExceeded) as info:
            run()
        return str(info.value)

    def study(delta):
        return message(lambda: _one_delta_at_a_time(LEFT_TABLE, 3, [delta], **config))

    def sweep(deltas):
        return message(lambda: bounded_update_sweep(LEFT_TABLE, 3, deltas, **config))

    assert study(100).startswith("round 3: ") and study(1000).startswith("round 1: ")
    # the earliest round of any delta, in whatever order they are listed,
    # where the studies one delta at a time raise for the first listed
    assert sweep([100, 1000]) == sweep([1000, 100]) == study(1000)
    assert message(lambda: _one_delta_at_a_time(LEFT_TABLE, 3, [100, 1000], **config)) \
        == study(100)
    assert sweep([40, 100, 1]) == study(100)
    # no row leaves: the sweep is its studies
    assert bounded_update_sweep(LEFT_TABLE, 3, [1, 40, 1], **config) == \
        _one_delta_at_a_time(LEFT_TABLE, 3, [1, 40, 1], **config)
