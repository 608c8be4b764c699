"""Side-condition certification: chord strictness, linear segments, and
the two-point diagonal-monotonicity probe.

The two default families satisfy the strict chord inequality; piecewise
curves that are linear out of the origin (min(t, 3) and friends) violate
it, and the segment detector is the complementary witness: on concave
payoffs exactly one of the two reports should fire.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from prorata import (
    CallablePayoff,
    CfmmArbitragePayoff,
    InvalidArgument,
    PowerPayoff,
    TabulatedPayoff,
    check_chord_condition,
    detect_linear_segment_at_zero,
    replay_witness,
    rosen_probe,
)
from prorata.verify import (
    CHORD_STRICT,
    LINEAR_SEGMENT_AT_ZERO,
    ROSEN_MONOTONE_PROBE,
)

ROOT = Path(__file__).resolve().parents[1]


def min_t_table(cap: float, end: float) -> TabulatedPayoff:
    """f(t) = min(t, cap) on [0, end] as a piecewise-linear table."""
    return TabulatedPayoff(ts=(0.0, cap, end), fs=(0.0, cap, cap))


# A mixed bag of concave payoffs; `strict` marks whether the chord
# inequality should hold strictly (no linear run out of the origin).
def kinked() -> CallablePayoff:
    # slope 1 up to t=1, then bending down: concave but not strict near 0
    def f(t):
        arr = np.asarray(t, dtype=float)
        bend = 1.0 + 0.5 * (arr - 1.0) - 0.01 * (arr - 1.0) ** 2
        out = np.where(arr <= 1.0, arr, bend)
        return float(out) if out.ndim == 0 else out

    return CallablePayoff(f)


ZOO = [
    (PowerPayoff(beta=0.5, gamma=0.05), True),
    (PowerPayoff(beta=0.3, gamma=0.01), True),
    (CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0), True),
    (CfmmArbitragePayoff(gamma=0.8, r1=50.0, r2=80.0, c=0.7), True),
    (min_t_table(3.0, 60.0), False),
    (min_t_table(1.0, 10.0), False),
    (kinked(), False),
]


# ----------------------------------------------------------- chord check


def test_default_families_pass_the_chord_check(cfmm, power):
    for family in (cfmm, power):
        rep = check_chord_condition(family)
        assert rep.holds
        assert rep.condition == CHORD_STRICT
        assert rep.witness == ()
        assert rep.details["violations"] == 0
        assert replay_witness(family, rep)


def test_min_t_fails_the_chord_check_with_witness():
    family = min_t_table(3.0, 60.0)
    rep = check_chord_condition(family)
    assert not rep.holds
    assert 0 < len(rep.witness) <= 8
    alpha, t, gap = rep.witness[0]
    # replay one witness by hand: equality, not strict improvement
    assert family.value(alpha * t) - alpha * family.value(t) == pytest.approx(
        gap, abs=1e-12
    )
    assert replay_witness(family, rep)


def test_chord_check_respects_domain_ceiling():
    family = min_t_table(3.0, 9.0)
    rep = check_chord_condition(family, domain_hi=9.0)
    assert not rep.holds
    assert rep.details["hi"] == 9.0


def test_chord_check_is_seed_stable(power):
    a = check_chord_condition(power, seed=0)
    b = check_chord_condition(power, seed=123)
    assert a.holds and b.holds


# ------------------------------------------------------ segment detector


def test_segment_found_only_where_it_exists(cfmm, power):
    assert not detect_linear_segment_at_zero(cfmm).holds
    assert not detect_linear_segment_at_zero(power).holds
    rep = detect_linear_segment_at_zero(min_t_table(3.0, 60.0))
    assert rep.holds
    t, tp, diff = rep.witness[0]
    assert 0.0 < t < tp
    assert diff <= 1e-10


def test_explicit_pairs_override_sampling():
    family = min_t_table(3.0, 60.0)
    rep = detect_linear_segment_at_zero(family, t_pairs=[(1.0, 2.0)])
    assert rep.holds and rep.witness == ((1.0, 2.0, 0.0),)
    # same pair on a strictly concave curve: ratios differ
    clean = PowerPayoff(beta=0.5, gamma=0.05)
    assert not detect_linear_segment_at_zero(clean, t_pairs=[(1.0, 2.0)]).holds


def test_ratio_match_without_collinearity_is_not_a_segment():
    # f(t) = t*(t^2 - 4t + 5) has f(1)/1 == f(3)/3 == 2 without being
    # linear anywhere: the collinearity confirmation must reject the
    # ratio coincidence instead of reporting a segment
    cubic = CallablePayoff(lambda t: t * (t * t - 4.0 * t + 5.0))
    rep = detect_linear_segment_at_zero(cubic, t_pairs=[(1.0, 3.0)])
    assert not rep.holds
    assert rep.details["ratio_matches"] == 1
    assert rep.witness == ()


def test_malformed_pairs_rejected(power):
    with pytest.raises(InvalidArgument):
        detect_linear_segment_at_zero(power, t_pairs=[(2.0, 1.0)])
    with pytest.raises(InvalidArgument):
        detect_linear_segment_at_zero(power, t_pairs=[(0.0, 1.0)])


@pytest.mark.parametrize("check, count", [
    (check_chord_condition, "samples"),
    (detect_linear_segment_at_zero, "pairs"),
])
def test_sampling_arguments_checked(power, check, count):
    for bad in ({"samples": -1}, {"domain_hi": -5.0}, {"domain_hi": 0.0},
                {"domain_hi": np.nan}, {"domain_hi": np.inf}):
        with pytest.raises(InvalidArgument):
            check(power, **bad)
    # no random samples still leaves the 13-probe ladder
    assert check(power, samples=0).details[count] == 13


@pytest.mark.parametrize("check", [check_chord_condition,
                                   detect_linear_segment_at_zero])
def test_sampling_past_a_tables_last_knot_is_rejected(check):
    family = min_t_table(3.0, 9.0)
    with pytest.raises(InvalidArgument, match="last knot"):
        check(family, domain_hi=9.5)
    assert check(family, domain_hi=9.0).details["hi"] == 9.0


def test_detectors_agree_across_the_zoo():
    # on concave payoffs, chord strictness fails exactly when a linear
    # segment hugs the origin
    for family, strict in ZOO:
        chord = check_chord_condition(family)
        segment = detect_linear_segment_at_zero(family)
        assert chord.holds == strict, family
        assert segment.holds == (not strict), family
        assert replay_witness(family, chord)
        assert replay_witness(family, segment)


# ------------------------------------------------------------ rosen probe


def test_capped_linear_probe_is_exactly_zero():
    for n in (2, 4, 8):
        family = min_t_table(3.0 * n, 100.0)
        rep = rosen_probe(family, n)
        assert rep.details["e_value"] == pytest.approx(0.0, abs=1e-9)
        assert not rep.holds
        assert rep.details["derivative"] == "one-sided"


def test_shifted_quadratic_probe_values():
    # f(t) = (4n)^2 - (4n - t)^2 = 8nt - t^2 gives E = -1 - n^2/2 + n/2
    expected = {2: -2.0, 4: -7.0, 8: -29.0}
    for n, e in expected.items():
        family = CallablePayoff(
            lambda t, n=n: 8.0 * n * t - t * t,
            deriv=lambda t, n=n: 8.0 * n - 2.0 * t,
        )
        rep = rosen_probe(family, n)
        assert rep.details["e_value"] == e
        assert not rep.holds
        assert rep.details["derivative"] == "analytic"
        assert replay_witness(family, rep)


def test_probe_without_a_derivative_reports_finite_differences():
    # the shifted quadratic above with n = 2, E = -2 up to the difference's error
    family = CallablePayoff(lambda t: 16.0 * t - t * t)
    rep = rosen_probe(family, 2)
    assert rep.details["derivative"] == "finite-difference"
    assert rep.details["e_value"] == pytest.approx(-2.0, rel=1e-6)
    assert not rep.holds


def test_probe_fails_even_for_well_behaved_families(cfmm, power):
    # the classical diagonal condition is the wrong tool here: it rejects
    # the very families whose equilibria are unique via the chord argument
    assert rosen_probe(power, 4).details["e_value"] < 0.0
    assert rosen_probe(cfmm, 4).details["e_value"] < 0.0


def test_probe_input_validation(power):
    with pytest.raises(InvalidArgument):
        rosen_probe(power, 1)
    with pytest.raises(InvalidArgument):
        rosen_probe(power, 2.0)


def test_replay_rejects_unknown_conditions(power):
    from prorata.verify import ConditionReport

    fake = ConditionReport(condition="made-up", holds=True, witness=())
    with pytest.raises(InvalidArgument):
        replay_witness(power, fake)


def test_report_conditions_are_stable_strings():
    assert CHORD_STRICT == "chord-strict"
    assert LINEAR_SEGMENT_AT_ZERO == "linear-segment-at-zero"
    assert ROSEN_MONOTONE_PROBE == "rosen-monotone-probe"


# ------------------------------------------------ replay of tampered reports


def test_replay_rejects_tampered_reports():
    from dataclasses import replace

    capped = min_t_table(3.0, 60.0)
    chord = check_chord_condition(capped)
    segment = detect_linear_segment_at_zero(capped)
    assert not chord.holds and segment.holds
    power = PowerPayoff(beta=0.5, gamma=0.05)
    # the rows do not fail the chord, or match no ratio, on another family
    assert not replay_witness(power, chord)
    assert not replay_witness(power, segment)
    # a failing verdict with its rows removed has nothing to replay
    assert not replay_witness(capped, replace(chord, witness=()))
    assert not replay_witness(capped, replace(segment, witness=()))
    # a row where the chord holds does not support a violation
    holds_row = (0.5, 40.0, 0.0)
    assert not replay_witness(capped, replace(
        chord, witness=chord.witness + (holds_row,)))
    # equal ratios at t and t' without a line out of the origin below t
    (t, tp, _), *_ = segment.witness
    assert 1.0 < t < tp <= 3.0
    bent = TabulatedPayoff(ts=(0.0, 0.5, 1.0, 3.0, 60.0),
                           fs=(0.0, 0.6, 1.0, 3.0, 3.0))
    assert not replay_witness(bent, replace(segment, witness=segment.witness[:1]))


@pytest.mark.parametrize("pairs", [[], [(1.0, 2.0, 3.0)]], ids=["none", "three"])
def test_explicit_pairs_must_be_rows_of_two(pairs):
    with pytest.raises(InvalidArgument):
        detect_linear_segment_at_zero(min_t_table(3.0, 60.0), t_pairs=pairs)


def test_certify_families_script_separates_reference_from_counterexamples(capsys):
    spec = importlib.util.spec_from_file_location(
        "certify_families", ROOT / "scripts" / "certify_families.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    rows = {line[:24].strip(): line[24:].split()
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith(" ")}
    assert list(rows) == ["cfmm(0.99, 200, 250, 1)", "power(0.5, 0.05)",
                          "min(t, 3)", "min(t, 12)", "16t - t^2"]
    chord = {name: cells[0] for name, cells in rows.items()}
    assert chord == {"cfmm(0.99, 200, 250, 1)": "chord=ok",
                     "power(0.5, 0.05)": "chord=ok",
                     "min(t, 3)": "chord=VIOLATED", "min(t, 12)": "chord=VIOLATED",
                     # strictly concave: its counterexample is the probe
                     "16t - t^2": "chord=ok"}
    assert rows["16t - t^2"][2:] == ["E(2)=-2,", "E(4)=-7,", "E(8)=-29"]
