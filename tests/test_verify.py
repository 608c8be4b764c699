"""Side-condition certification: chord strictness, linear segments, and
the two-point diagonal-monotonicity probe.

The two default families satisfy the strict chord inequality; piecewise
curves that are linear out of the origin (min(t, 3) and friends) violate
it, and the segment detector is the complementary witness: on concave
payoffs exactly one of the two reports should fire. The built-in kinds get
exact verdicts; the sampler runs on callables, and on a built-in family
wrapped as ``CallablePayoff(f.value)`` it is a test of ``value``.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prorata import (
    CallablePayoff,
    CfmmArbitragePayoff,
    InvalidArgument,
    NoFiniteRoot,
    NoPositiveRegion,
    PowerPayoff,
    TabulatedPayoff,
    check_chord_condition,
    detect_linear_segment_at_zero,
    diagnostics,
    replay_witness,
    rosen_probe,
)
from prorata.verify import (
    CHORD_STRICT,
    DECREASING,
    FIRST_SEGMENT,
    LINEAR_SEGMENT_AT_ZERO,
    RATIO_RTOL,
    ROSEN_MONOTONE_PROBE,
    STRICT_MARGIN,
    ConditionReport,
    _chord_violations,
    _collinear_through_origin,
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
        assert rep.details["reason"] == DECREASING
        assert replay_witness(family, rep)
        # sampled through value, the curve shows no violation either
        sampled = check_chord_condition(CallablePayoff(family.value))
        assert sampled.holds and sampled.details["violations"] == 0


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
    # no random samples still leaves a callable the 13-probe ladder
    assert check(CallablePayoff(power.value), samples=0).details[count] == 13


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


# ---------------------------------------------------------- exact verdicts


def test_built_in_kinds_get_their_exact_verdicts(cfmm, power):
    for family in (cfmm, power):
        for check, holds in ((check_chord_condition, True),
                             (detect_linear_segment_at_zero, False)):
            rep = check(family, seed=5)
            assert (rep.holds, rep.witness) == (holds, ())
            assert rep.details == {"reason": DECREASING,
                                   "hi": diagnostics(family).root}
            assert replay_witness(family, rep)
    # the table's witnesses sit at its first knot, or at domain_hi below it
    table = min_t_table(3.0, 60.0)
    for domain_hi, t1 in ((None, 3.0), (2.0, 2.0)):
        chord = check_chord_condition(table, domain_hi=domain_hi)
        segment = detect_linear_segment_at_zero(table, domain_hi=domain_hi)
        assert (chord.holds, chord.witness) == (False, ((0.5, t1, 0.0),))
        assert (segment.holds, segment.witness) == (True, ((t1 / 2, t1, 0.0),))
        for rep in (chord, segment):
            assert rep.details == {"reason": FIRST_SEGMENT,
                                   "hi": domain_hi or 60.0}
            assert replay_witness(table, rep)


@st.composite
def tables(draw):
    """Random tables through (0, 0), concave or not, positive somewhere."""
    steps = draw(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=30))
    fs = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(steps),
                       max_size=len(steps)))
    fs[draw(st.integers(0, len(fs) - 1))] = draw(st.floats(1e-6, 1e6))
    return TabulatedPayoff(ts=(0.0, *np.cumsum(steps)), fs=(0.0, *fs))


@given(table=tables(), hi_share=st.none() | st.floats(1e-6, 1.0))
# f(0.5) = 5e-324/2 underflows to 0, so the segment's exact row (0.5, 1)
# does not confirm in floating point and the segment is sampled
@example(table=TabulatedPayoff(ts=tuple(map(float, range(11))),
                               fs=(0.0, 5e-324, 1.0, *[0.0] * 8)), hi_share=None)
@settings(deadline=None, max_examples=200)
def test_exact_table_witnesses_replay(table, hi_share):
    domain_hi = None if hi_share is None else hi_share * diagnostics(table).root
    chord = check_chord_condition(table, domain_hi=domain_hi)
    segment = detect_linear_segment_at_zero(table, domain_hi=domain_hi)
    t1 = min(table.ts[1], chord.details["hi"])
    for rep, holds, row in ((chord, False, (0.5, t1)), (segment, True, (t1 / 2, t1))):
        # the exact row is the witness when it passes its own row test in
        # floating point; otherwise the verdict is sampled, as _decide states
        if replay_witness(table, ConditionReport(rep.condition, holds, (row + (0.0,),))):
            assert rep.holds == holds and [w[:2] for w in rep.witness] == [row]
            assert rep.details["reason"] == FIRST_SEGMENT
        else:
            assert "reason" not in rep.details
        assert replay_witness(table, rep)


def test_a_table_row_that_overflows_is_sampled_not_trusted():
    # the first slope, 1e300/1e-300, overflows: the segment's ratios come
    # out inf and NaN, so no row confirms the segment and the verdict falls
    # to the sampler; no report may claim a verdict its witness denies
    table = TabulatedPayoff(ts=(0.0, 1e-300, 1.0), fs=(0.0, 1e300, 1e300))
    with np.errstate(over="ignore", invalid="ignore"):
        chord = check_chord_condition(table)
        segment = detect_linear_segment_at_zero(table)
        assert not chord.holds and chord.details["reason"] == FIRST_SEGMENT
        assert (segment.holds, segment.witness) == (False, ())
        assert "reason" not in segment.details
        for rep in (chord, segment):
            assert replay_witness(table, rep)


def test_exact_verdicts_hold_at_the_cfmm_no_arbitrage_boundary():
    # c = (g*r2/r1)(1 - eps): f(t)/t = g*r2/(r1 + g*t) - c is strictly
    # decreasing however small eps is. Sampled through a value that cancels
    # here (before cfmm value took the exact margin), 116 of these 300
    # families read as failing the chord and 64 as linear near 0
    rng = np.random.default_rng(2023)
    for _ in range(300):
        gamma, (r1, r2) = rng.uniform(0.5, 1.0), 10 ** rng.uniform(0, 3, 2)
        eps = 10 ** rng.uniform(-15.0, -1.0)
        family = CfmmArbitragePayoff(gamma, r1, r2, gamma * r2 / r1 * (1 - eps))
        assert check_chord_condition(family).holds, family
        assert not detect_linear_segment_at_zero(family).holds, family


def test_a_first_segment_below_the_ladder_is_found_only_exactly():
    # the ladder stops at hi/2**12 = 2.4e-3 and 10,000 uniform draws on
    # (0, 10) miss (0, 1e-6): the sampler sees a strictly concave curve
    table = TabulatedPayoff(ts=(0.0, 1e-6, 10.0), fs=(0.0, 1e-6, 5.0))
    assert not check_chord_condition(table).holds
    assert detect_linear_segment_at_zero(table).holds
    sampled = CallablePayoff(table.value)
    assert check_chord_condition(sampled, domain_hi=10.0).holds
    assert not detect_linear_segment_at_zero(sampled, domain_hi=10.0).holds


@pytest.mark.parametrize("family, kwargs, error, message", [
    (CfmmArbitragePayoff(0.99, 200.0, 250.0, 2.0), {}, NoPositiveRegion,
     "payoff is nonpositive everywhere: f'(0) <= 0"),
    (CfmmArbitragePayoff(1.0, 4.0, 2.0, 0.5), {}, NoPositiveRegion,
     "payoff is nonpositive everywhere: f'(0) <= 0"),
    (TabulatedPayoff(ts=(0, 1, 2), fs=(0, -1, -3)), {}, NoPositiveRegion,
     "payoff is nonpositive at every knot"),
    (TabulatedPayoff(ts=(0, 1, 2), fs=(0, 0, 0)), {}, NoPositiveRegion,
     "payoff is nonpositive at every knot"),
    (PowerPayoff(0.5, 1e-300), {}, NoFiniteRoot,
     "payoff still positive at t=8.98847e+307 (cap reached)"),
    (min_t_table(3.0, 9.0), {"domain_hi": 9.5}, InvalidArgument,
     "domain_hi 9.5 is past the table's last knot 9.0"),
    (min_t_table(3.0, 9.0), {"samples": -1}, InvalidArgument,
     "samples must be nonnegative, got -1"),
    (PowerPayoff(0.5, 0.05), {"samples": -1}, InvalidArgument,
     "samples must be nonnegative, got -1"),
    (CfmmArbitragePayoff(0.99, 200.0, 250.0, 1.0), {"seed": -1}, InvalidArgument,
     "seed must be nonnegative, got -1"),
    (PowerPayoff(0.5, 0.05), {"samples": 2.5}, InvalidArgument,
     "samples must be an integer, got 2.5"),
], ids=["cfmm-above-boundary", "cfmm-at-boundary", "table-negative",
        "table-zero", "power-root-overflows", "past-last-knot",
        "table-negative-samples", "power-negative-samples", "cfmm-negative-seed",
        "power-fractional-samples"])
@pytest.mark.parametrize("check", [check_chord_condition,
                                   detect_linear_segment_at_zero])
def test_exact_verdicts_raise_as_the_sampler_did(check, family, kwargs, error,
                                                 message):
    # the arguments and the sampling ceiling are checked before the kind
    # decides, with the same error and message as a sampled check
    with pytest.raises(error) as info:
        check(family, **kwargs)
    assert type(info.value) is error and str(info.value) == message


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


# ------------------------------------------- samplers against a reference
#
# The checks sample callables only. The references below pin the reports
# they give: uniform draws, boolean masks, concatenate, and the margins
# written out; the reports must agree bit for bit. A built-in family
# is sampled as CallablePayoff(f.value), which tests its value against the
# verdict its kind decides.


def _reference_hi(family, domain_hi):
    return diagnostics(family).root if domain_hi is None else float(domain_hi)


def _reference_chord(family, samples, seed, domain_hi=None):
    hi = _reference_hi(family, domain_hi)
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(1e-9, 1.0 - 1e-9, size=samples)
    t = rng.uniform(0.0, hi, size=samples)
    keep = t > 0.0
    alpha, t = alpha[keep], t[keep]
    ladder = hi * 2.0 ** -np.arange(0, 13, dtype=float)
    alpha = np.concatenate([alpha, np.full(ladder.shape, 0.5)])
    t = np.concatenate([t, ladder])
    lhs = family.value(alpha * t)
    rhs = alpha * family.value(t)
    gap = lhs - rhs
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0e-300)
    idx = np.flatnonzero(gap <= STRICT_MARGIN * scale)
    witness = tuple((float(alpha[i]), float(t[i]), float(gap[i])) for i in idx[:8])
    return ConditionReport(CHORD_STRICT, idx.size == 0, witness, {
        "samples": int(t.size), "violations": int(idx.size), "hi": hi,
        "strict_margin": STRICT_MARGIN})


def _reference_linear(family, samples, seed, domain_hi=None):
    hi = _reference_hi(family, domain_hi)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, hi, size=samples)
    b = rng.uniform(0.0, hi, size=samples)
    lo = np.minimum(a, b)
    up = np.maximum(a, b)
    keep = (lo > 0.0) & (up - lo > 1e-6 * hi)
    ladder = hi * 2.0 ** -np.arange(0, 13, dtype=float)
    pairs = np.column_stack([np.concatenate([lo[keep], ladder / 2.0]),
                             np.concatenate([up[keep], ladder])])
    t, tp = pairs[:, 0], pairs[:, 1]
    r_lo = family.value(t) / t
    r_hi = family.value(tp) / tp
    close = np.abs(r_lo - r_hi) <= RATIO_RTOL * np.maximum(np.abs(r_lo), np.abs(r_hi))
    confirmed = []
    for i in np.flatnonzero(close):
        if _collinear_through_origin(family, float(r_hi[i]), float(t[i])):
            confirmed.append((float(t[i]), float(tp[i]), float(abs(r_lo[i] - r_hi[i]))))
        if len(confirmed) >= 8:
            break
    return ConditionReport(LINEAR_SEGMENT_AT_ZERO, bool(confirmed), tuple(confirmed), {
        "pairs": int(t.size), "ratio_matches": int(np.count_nonzero(close)),
        "hi": hi, "ratio_rtol": RATIO_RTOL})


SAMPLERS = [(check_chord_condition, _reference_chord),
            (detect_linear_segment_at_zero, _reference_linear)]


def as_callable(family, domain_hi=None):
    """A family the checks sample, and the range to sample: a built-in one
    wrapped as a callable, a table's capped at its own search end, since the
    wrapper has no last knot to stop at."""
    if isinstance(family, CallablePayoff):
        return family, domain_hi
    if isinstance(family, TabulatedPayoff) and domain_hi is None:
        domain_hi = diagnostics(family).root
    return CallablePayoff(family.value), domain_hi


def ladder_sees_the_verdict(family, domain_hi):
    """Whether the sampler must reach the exact verdict: always for power
    and cfmm, and for a table when the ladder's smallest probe,
    hi/2**12, lies on the first segment."""
    if not isinstance(family, TabulatedPayoff):
        return True
    hi = diagnostics(family).root if domain_hi is None else domain_hi
    return hi * 2.0 ** -12 <= family.ts[1]


def same_verdicts(family, reports, domain_hi=None):
    """Each sampled report of the wrapped ``family`` has the verdict its
    kind decides, where the ladder can see it."""
    if isinstance(family, CallablePayoff) or \
            not ladder_sees_the_verdict(family, domain_hi):
        return
    for (check, _), report in zip(SAMPLERS, reports):
        assert report.holds == check(family, domain_hi=domain_hi).holds, family


def same_reports(family, samples, seed, domain_hi=None):
    """Both checks' reports, each asserted equal to its reference's."""
    reports = []
    for check, reference in SAMPLERS:
        got = check(family, samples=samples, seed=seed, domain_hi=domain_hi)
        want = reference(family, samples, seed, domain_hi)
        assert got == want
        # repr also tells -0.0 from 0.0
        assert repr(got) == repr(want)
        reports.append(got)
    return reports


CALLABLES = [
    kinked(),
    CallablePayoff(lambda t: np.minimum(t, 3.0) - 0.01 * t),
    CallablePayoff(lambda t: 16.0 * t - t * t),
]


@st.composite
def sampled_families(draw):
    kind = draw(st.sampled_from(["power", "cfmm", "table", "callable"]))
    if kind == "power":
        return PowerPayoff(beta=draw(st.floats(0.05, 0.95)),
                           gamma=draw(st.floats(1e-3, 0.5)))
    if kind == "cfmm":
        gamma, r1, r2 = (draw(st.floats(0.5, 0.999)), draw(st.floats(1.0, 1e3)),
                         draw(st.floats(1.0, 1e3)))
        # a price c = (gamma*r2/r1)(1 - eps) below f'(0) = gamma*r2/r1 leaves
        # a positive region; eps runs log-uniform down to 1e-15, next to the
        # no-arbitrage boundary, where value takes the exact margin
        # gamma*r2 - c*r1 and the sampled f(t)/t still decreases
        eps = 10.0 ** draw(st.floats(-15.0, math.log10(0.95)))
        c = (1.0 - eps) * gamma * r2 / r1
        return CfmmArbitragePayoff(gamma=gamma, r1=r1, r2=r2, c=c)
    if kind == "table":
        steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
        fs = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(steps),
                           max_size=len(steps)))
        fs[0] = abs(fs[0]) + 1.0  # positive at the first inner knot
        return TabulatedPayoff(ts=(0.0, *np.cumsum(steps)), fs=(0.0, *fs))
    return draw(st.sampled_from(CALLABLES))


@given(family=sampled_families(), seed=st.integers(0, 2**32 - 1),
       samples=st.sampled_from([0, 1, 2, 17, 10_000]),
       hi_share=st.none() | st.floats(0.01, 1.0))
@settings(deadline=None, max_examples=80)
def test_samplers_equal_the_uniform_mask_and_concatenate_reference(
    family, seed, samples, hi_share
):
    domain_hi = None if hi_share is None else hi_share * diagnostics(family).root
    sampled, domain_hi = as_callable(family, domain_hi)
    reports = same_reports(sampled, samples, seed, domain_hi)
    for report in reports:
        assert replay_witness(sampled, report)
    same_verdicts(family, reports, domain_hi)


@pytest.mark.parametrize("family, strict", ZOO)
def test_samplers_equal_the_reference_across_the_zoo(family, strict):
    # seed 11 drops one sampled pair of the segment search (t' - t too
    # small)
    sampled, domain_hi = as_callable(family)
    reports = same_reports(sampled, 10_000, 11, domain_hi)
    for report in reports:
        assert replay_witness(sampled, report)
    assert [r.holds for r in reports] == [strict, not strict]
    same_verdicts(family, reports, domain_hi)
    assert detect_linear_segment_at_zero(
        sampled, seed=11, domain_hi=domain_hi).details["pairs"] == 10_012


def test_a_dropped_pair_moves_the_next_one_up():
    # seed 21575 draws a first pair closer than 1e-6*hi, which is dropped;
    # on f(t) = t every kept pair is a segment, so the second pair leads
    # the witnesses, ahead of the ladder
    family = CallablePayoff(lambda t: 0.5 * t)
    _, segment = same_reports(family, 2, 21575, domain_hi=7.0)
    assert segment.details["pairs"] == 14
    (t, tp, _), *ladder = segment.witness
    assert 6.4 < t < tp < 6.6 and ladder[0][:2] == (3.5, 7.0)
    assert replay_witness(family, segment)


@pytest.mark.parametrize("fn", [lambda t: t, np.flip], ids=["identity", "flipped"])
def test_samplers_never_write_into_what_value_returns(fn):
    # value hands back its argument, or a view of it: writing into the
    # result would overwrite the samples, or the caller's arrays
    family = CallablePayoff(fn)
    for samples in (0, 17, 10_000):
        same_reports(family, samples, 3, domain_hi=7.0)
    rng = np.random.default_rng(4)
    alpha, t = rng.uniform(0.1, 0.9, 40), rng.uniform(0.5, 7.0, 40)
    pairs = np.column_stack([t, 1.5 * t])
    kept = alpha.copy(), t.copy(), pairs.copy()
    _chord_violations(family, alpha, t)
    detect_linear_segment_at_zero(family, t_pairs=pairs)
    for now, before in zip((alpha, t, pairs), kept):
        assert np.array_equal(now, before)


def test_an_integer_valued_callable_gives_the_reference_reports():
    # integer values give the same reports as their floats
    family = CallablePayoff(lambda t: np.floor(np.asarray(t)).astype(np.int64))
    for samples in (17, 10_000):
        same_reports(family, samples, 2, domain_hi=5.0)
