"""Acceptance checklist: the thirteen end-to-end guarantees this package
makes, one test per item so `pytest -v` prints one pass/fail line each.

Oracles are computed independently of the library code under test:
power-family equilibria and efficiency ratios from their algebraic forms,
cfmm equilibria from `np.roots` on the first-order quadratic, and trend
claims from seeded runs whose statistics were inspected and frozen.
Items with runtime budgets assert them.
"""

import math
import time

import numpy as np
import pytest

from prorata import (
    BoundedUpdate,
    CallablePayoff,
    CfmmArbitragePayoff,
    ForwardExchange,
    PowerPayoff,
    TabulatedPayoff,
    check_chord_condition,
    clear,
    convergence_study,
    detect_linear_segment_at_zero,
    diagnostics,
    optimal_arbitrage,
    poa,
    poa_growth_check,
    power_poa_closed_form,
    pro_rata_payoff,
    rosen_probe,
    solve_symmetric,
    whale_fish_experiment,
)
from prorata.batch import BatchInstance
from prorata.cli import main

CFMM = CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0)
POWER = PowerPayoff(beta=0.5, gamma=0.05)
POOL = ForwardExchange(gamma=0.99, r1=200.0, r2=250.0)

POWER_GRID = [(beta, gamma) for beta in (0.3, 0.5, 0.7)
              for gamma in (0.01, 0.05, 0.5)]


def q_power_oracle(beta: float, gamma: float, n: int) -> float:
    return ((beta + n - 1.0) / (n * gamma)) ** (1.0 / (1.0 - beta))


def q_cfmm_oracle(family: CfmmArbitragePayoff, n: int) -> float:
    # first-order condition in u = r1 + gamma*q reads
    #   n*c*u^2 - (n-1)*gamma*r2*u - gamma*r1*r2 = 0;
    # np.roots keeps this oracle independent of the library's solver
    g, r1, r2, c = family.gamma, family.r1, family.r2, family.c
    roots = np.roots([n * c, -(n - 1) * g * r2, -g * r1 * r2])
    u = float(roots[roots > 0.0].max())
    return (u - r1) / g


def test_criterion_01_power_equilibria_match_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for beta, gamma in POWER_GRID:
        family = PowerPayoff(beta=beta, gamma=gamma)
        for n in range(1, 101):
            got = solve_symmetric(family, n, method="numeric").q
            want = q_power_oracle(beta, gamma, n)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"


def test_criterion_02_cfmm_equilibria_match_quadratic_root():
    for n in range(1, 101):
        want = q_cfmm_oracle(CFMM, n)
        for method in ("auto", "numeric"):
            got = solve_symmetric(CFMM, n, method=method).q
            assert got == pytest.approx(want, rel=1e-8), (n, method)
    assert abs(solve_symmetric(CFMM, 1).q - 22.711) <= 1e-2


def test_criterion_03_first_order_residual_bound():
    for family in (CFMM, POWER):
        for n in range(1, 101):
            for method in ("auto", "numeric"):
                res = solve_symmetric(family, n, method=method)
                bound = 1e-6 * max(1.0, family.value(res.q))
                assert res.foc_residual <= bound, (family.kind, n, method)


def test_criterion_04_no_profitable_unilateral_deviation():
    for fam_idx, family in enumerate((CFMM, POWER)):
        w = diagnostics(family).root
        for n in range(1, 101):
            eq = solve_symmetric(family, n)
            y = eq.q - eq.per_player
            base = pro_rata_payoff(family, eq.per_player, y)
            devs = np.random.default_rng([4, fam_idx, n]).uniform(0.0, w, 1000)
            gains = pro_rata_payoff(family, devs, y) - base
            assert float(np.max(gains)) <= 1e-9, (family.kind, n)


def test_criterion_05_power_efficiency_ratio_closed_form():
    for n in range(1, 101):
        rep = poa(POWER, n)
        assert rep.poa == pytest.approx(power_poa_closed_form(0.5, n), rel=1e-8)
    assert poa(POWER, 1).poa == pytest.approx(1.0, abs=1e-9)
    assert abs(poa(POWER, 100).poa / 100.0 - 0.5) < 0.01


def test_criterion_06_inefficiency_grows_linearly_in_both_families():
    floors = {}
    for family in (CFMM, POWER):
        res = poa_growth_check(family, range(1, 101), n0=10)
        assert res.nondecreasing, family.kind
        assert res.ratio_floor > 0.0, family.kind
        assert res.holds, family.kind
        floors[family.kind] = res.ratio_floor
    print(f"poa(n)/n floors for n >= 10: {floors}")


def test_criterion_07_convergence_slows_superlinearly_with_crowd_size():
    start = time.perf_counter()
    result = convergence_study(CFMM, range(2, 17), trials=100, seed=0)
    elapsed = time.perf_counter() - start
    means = result.mean_iterations()
    assert sorted(means) == list(range(2, 17))
    assert all(math.isfinite(m) for m in means.values())
    ordered = [means[n] for n in range(2, 17)]
    assert all(a <= b for a, b in zip(ordered, ordered[1:])), ordered
    assert means[16] / means[4] > 4.0, (means[4], means[16])
    assert elapsed < 60.0, f"study took {elapsed:.2f}s"


def test_criterion_08_movement_caps_slow_convergence_as_they_tighten():
    means = []
    for delta in (0.5, 1.0, 2.0, 5.0, 10.0):
        res = convergence_study(
            POWER, [10], trials=100, seed=0, scenario=BoundedUpdate(delta)
        )
        means.append(res.mean_iterations()[10])
    assert all(a > b for a, b in zip(means, means[1:])), means


def test_criterion_09_deep_pockets_beat_budgeted_crowds():
    strategy_pcts, profit_pcts = [], []
    for n_fish in range(1, 21):
        rep = whale_fish_experiment(CFMM, n_fish, trials=100, seed=0)
        assert rep.fish_saturated_trials == rep.trials, n_fish
        assert rep.whale_strategy >= rep.fair_strategy, n_fish
        assert rep.pct_strategy_increase > 0.0, n_fish
        assert rep.pct_profit_increase > 0.0, n_fish
        strategy_pcts.append(rep.pct_strategy_increase)
        profit_pcts.append(rep.pct_profit_increase)
    for pcts in (strategy_pcts, profit_pcts):
        assert all(a <= b for a, b in zip(pcts, pcts[1:])), pcts


def test_criterion_10_batch_clearing_invariants():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 1000:
        size = int(rng.integers(1, 51))
        deltas = rng.uniform(-10.0, 10.0, size)
        if checked % 4 == 0:
            deltas = np.abs(deltas)
        if math.fsum(deltas) <= 0.0:
            deltas = -deltas
        net = math.fsum(deltas)
        if net <= 0.0:
            continue
        out = clear(BatchInstance(deltas=deltas, pool=POOL))
        assert np.all(out.residuals >= 0.0)
        assert math.fsum(out.residuals) == pytest.approx(net, rel=1e-12)
        if np.all(deltas >= 0.0):
            assert np.array_equal(out.residuals, deltas)
        perm = rng.permutation(size)
        out_p = clear(BatchInstance(deltas=deltas[perm], pool=POOL))
        assert np.array_equal(out.residuals[perm], out_p.residuals)
        assert np.array_equal(out.per_trader_b[perm], out_p.per_trader_b)
        assert math.fsum(out.per_trader_b) == pytest.approx(
            out.pool_output, rel=1e-12
        )
        checked += 1


def test_criterion_11_optimal_arbitrage_first_order_condition():
    marginal_at_zero = POOL.derivative(0.0)
    for price in (0.2, 0.5, 1.0, 1.2, marginal_at_zero, 1.5, 2.0):
        t = optimal_arbitrage(POOL, price)
        if marginal_at_zero > price:
            assert t > 0.0
            assert POOL.derivative(t) == pytest.approx(price, rel=1e-8)
        else:
            assert t == 0.0
    assert abs(optimal_arbitrage(POOL, 1.0) - 22.711) <= 1e-2


def test_criterion_12_side_condition_certificates():
    min_t_3 = TabulatedPayoff(ts=(0.0, 3.0, 60.0), fs=(0.0, 3.0, 3.0))

    assert check_chord_condition(POWER).holds
    assert check_chord_condition(CFMM).holds
    failing = check_chord_condition(min_t_3)
    assert not failing.holds and len(failing.witness) > 0

    # the two detectors are two views of the same defect: they must agree
    # (chord fails exactly when a linear segment hugs the origin)
    strict_quad = CallablePayoff(
        lambda t: 16.0 * t - t * t, deriv=lambda t: 16.0 - 2.0 * t
    )
    for family in (POWER, CFMM, min_t_3, strict_quad):
        chord = check_chord_condition(family)
        segment = detect_linear_segment_at_zero(family)
        assert chord.holds == (not segment.holds), family

    for n in (2, 4, 8):
        capped = TabulatedPayoff(
            ts=(0.0, 3.0 * n, 100.0), fs=(0.0, 3.0 * n, 3.0 * n)
        )
        assert rosen_probe(capped, n).details["e_value"] == pytest.approx(
            0.0, abs=1e-12
        )
        shifted = CallablePayoff(
            lambda t, n=n: 8.0 * n * t - t * t,
            deriv=lambda t, n=n: 8.0 * n - 2.0 * t,
        )
        probe = rosen_probe(shifted, n)
        assert probe.details["e_value"] == {2: -2.0, 4: -7.0, 8: -29.0}[n]
        assert not probe.holds


def test_criterion_13_same_seed_reruns_are_byte_identical(tmp_path):
    experiments = [
        ["reproduce", "scenario1", "--n-values", "2:4", "--trials", "5"],
        ["reproduce", "scenario2-delta", "--deltas", "1,5", "--trials", "3"],
        ["reproduce", "whale", "--max-fish", "3", "--trials", "5"],
        ["reproduce", "poa-curve", "--n-values", "1:10"],
        ["simulate", "--family", "power", "--beta", "0.5", "--gamma", "0.05",
         "--n", "2", "--trials", "2", "--seed", "11"],
        ["study", "--family", "cfmm", "--gamma", "0.99", "--r1", "200",
         "--r2", "250", "--price", "1", "--n-values", "2:3", "--trials", "3"],
        ["verify", "--family", "power", "--beta", "0.5", "--gamma", "0.05"],
    ]
    for idx, argv in enumerate(experiments):
        a = tmp_path / f"{idx}_a.csv"
        b = tmp_path / f"{idx}_b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv[:2]
        assert a.stat().st_size > 0
