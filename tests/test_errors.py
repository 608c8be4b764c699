"""The one argument rule: every count goes through ``errors.integer`` and
every numeric bound through ``errors.number``, so each entry point refuses
the same values with the same message, ``{name} must be {rule}, got
{value!r}``, and NaN never gets through."""

import math

import numpy as np
import pytest

from prorata import (
    BoundedUpdate,
    Budgeted,
    CallablePayoff,
    CfmmArbitragePayoff,
    ForwardExchange,
    GameConfig,
    InvalidArgument,
    PowerPayoff,
    best_response,
    check_chord_condition,
    convergence_study,
    detect_linear_segment_at_zero,
    draw_initial_profile,
    poa_growth_check,
    rosen_probe,
    solve_symmetric,
    whale_fish_experiment,
)

POWER = PowerPayoff(0.5, 0.05)
CFMM = CfmmArbitragePayoff(0.99, 200.0, 250.0, 1.0)


def refused(call, value) -> str:
    with pytest.raises(InvalidArgument) as info:
        call(value)
    return str(info.value)


# (entry point and argument, name in the message, call, least, a valid value)
COUNTS = [
    ("GameConfig.n", "n", lambda v: GameConfig(CFMM, v), 1, 2),
    ("GameConfig.max_iterations", "max_iterations",
     lambda v: GameConfig(CFMM, 2, max_iterations=v), 1, 1),
    ("GameConfig.seed", "seed", lambda v: GameConfig(CFMM, 2, seed=v), 0, 0),
    ("convergence_study.n_values", "n_values[0]",
     lambda v: convergence_study(CFMM, [v], 1, 0, max_iterations=1), 1, 2),
    ("convergence_study.trials", "trials",
     lambda v: convergence_study(CFMM, [2], v, 0, max_iterations=1), 1, 1),
    ("whale_fish_experiment.n_fish", "n_fish",
     lambda v: whale_fish_experiment(CFMM, v, 1, 0, max_iterations=1), 0, 1),
    ("whale_fish_experiment.trials", "trials",
     lambda v: whale_fish_experiment(CFMM, 1, v, 0, max_iterations=1), 1, 1),
    ("solve_symmetric.n", "n", lambda v: solve_symmetric(CFMM, v), 1, 3),
    ("check_chord_condition.samples", "samples",
     lambda v: check_chord_condition(POWER, samples=v), 0, 10),
    ("check_chord_condition.seed", "seed",
     lambda v: check_chord_condition(POWER, samples=10, seed=v), 0, 0),
    ("detect_linear_segment_at_zero.samples", "samples",
     lambda v: detect_linear_segment_at_zero(POWER, samples=v), 0, 10),
    ("rosen_probe.n", "n", lambda v: rosen_probe(POWER, v), 2, 3),
    ("poa_growth_check.n_values", "n_values[0]",
     lambda v: poa_growth_check(POWER, [v]), 1, 3),
    ("poa_growth_check.n0", "n0", lambda v: poa_growth_check(POWER, [3], n0=v), 1, 3),
    ("draw_initial_profile.n", "n",
     lambda v: draw_initial_profile(CFMM, v, np.random.default_rng(0)), 1, 2),
]


@pytest.mark.parametrize("name, call, least, good", [row[1:] for row in COUNTS],
                         ids=[row[0] for row in COUNTS])
def test_counts_take_integers_numpy_ones_too(name, call, least, good):
    call(np.int64(good))
    for value in (True, 2.5, math.nan, float(good)):
        assert refused(call, value) == f"{name} must be an integer, got {value!r}"
    rule = "nonnegative" if least == 0 else f"at least {least}"
    for value in (least - 1, np.int64(least - 1)):
        assert refused(call, value) == f"{name} must be {rule}, got {value!r}"


def test_counts_come_back_as_python_ints():
    assert type(solve_symmetric(CFMM, np.int64(3)).n) is int
    assert type(GameConfig(CFMM, np.int64(2)).n) is int
    assert [r.n for r in poa_growth_check(POWER, np.arange(1, 4)).reports] == [1, 2, 3]


# (entry point and argument, name in the message, call, positive): a
# positive bound is finite too, a nonnegative one lets inf through
BOUNDS = [
    ("PowerPayoff.gamma", "gamma", lambda v: PowerPayoff(0.5, v), True),
    ("ForwardExchange.r1", "r1", lambda v: ForwardExchange(0.99, v, 250.0), True),
    ("ForwardExchange.r2", "r2", lambda v: ForwardExchange(0.99, 200.0, v), True),
    ("CfmmArbitragePayoff.c", "c",
     lambda v: CfmmArbitragePayoff(0.99, 200.0, 250.0, v), True),
    ("BoundedUpdate.delta", "delta", BoundedUpdate, True),
    ("Budgeted.budgets", "budgets[1]", lambda v: Budgeted((1.0, v)), False),
    ("GameConfig.convergence_threshold", "convergence_threshold",
     lambda v: GameConfig(CFMM, 2, convergence_threshold=v), True),
    ("best_response.y", "y", lambda v: best_response(CFMM, v), False),
    ("best_response.budget", "budget", lambda v: best_response(CFMM, 1.0, v), False),
    ("check_chord_condition.domain_hi", "domain_hi",
     lambda v: check_chord_condition(POWER, samples=10, domain_hi=v), True),
    ("detect_linear_segment_at_zero.domain_hi", "domain_hi",
     lambda v: detect_linear_segment_at_zero(POWER, samples=10, domain_hi=v), True),
]


@pytest.mark.parametrize("name, call, positive", [row[1:] for row in BOUNDS],
                         ids=[row[0] for row in BOUNDS])
def test_bounds_refuse_nan_and_out_of_range(name, call, positive):
    # any number in range passes, whatever its type
    for value in (True, 2.5, np.int64(3), np.float64(0.5)):
        call(value)
    if positive:
        bad, rule = (math.nan, math.inf, -math.inf, 0.0, -1.0), "finite and positive"
    else:
        call(0.0)
        call(math.inf)
        bad, rule = (math.nan, -math.inf, -1.0, -1e-300), "nonnegative"
    for value in bad:
        assert refused(call, value) == f"{name} must be {rule}, got {value!r}"


def test_nan_never_passes_a_hand_written_check():
    assert refused(CallablePayoff, lambda t: math.nan) == "payoff must satisfy f(0) = 0"
    for pair in ((math.nan, 1.0), (1.0, math.nan)):
        assert refused(lambda p: detect_linear_segment_at_zero(POWER, t_pairs=[p]),
                       pair) == "pairs must satisfy 0 < t < t'"
