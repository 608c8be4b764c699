"""Batched pro-rata clearing against a constant-product pool.

Worked example used as a frozen anchor (gamma=0.99, r1=200, r2=250):
deltas (5, -2, 3, -1) net to 5 with positive gross 8, so the positive
orders scale by 5/8 and the pool trades 5 -> 6.038058062942182.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prorata import (
    BatchInstance,
    CfmmArbitragePayoff,
    ForwardExchange,
    InvalidArgument,
    NonPositiveNetDemand,
    clear,
    optimal_arbitrage,
    pro_rata_payoff,
    solve_symmetric,
)
from prorata.batch import MAX_TRADERS, _exact_sum, _net_and_gross

POOL = ForwardExchange(gamma=0.99, r1=200.0, r2=250.0)


@pytest.fixture
def pool() -> ForwardExchange:
    return POOL


def deltas_strategy(n=st.integers(min_value=1, max_value=12)):
    return n.flatmap(
        lambda k: arrays(
            dtype=float,
            shape=k,
            elements=st.floats(min_value=-50.0, max_value=50.0, width=64),
        )
    )


# ------------------------------------------------------------- clearing


def test_worked_example(pool):
    out = clear(BatchInstance(deltas=np.array([5.0, -2.0, 3.0, -1.0]), pool=pool))
    assert np.array_equal(out.residuals, [3.125, 0.0, 1.875, 0.0])
    assert out.pool_input == 5.0
    assert out.pool_output == pytest.approx(6.038058062942182, rel=1e-15)
    assert np.allclose(
        out.per_trader_b,
        [3.773786289338864, 0.0, 2.264271773603318, 0.0],
        rtol=1e-14,
    )


def test_all_buyers_pass_through_unchanged(pool):
    deltas = np.array([3.0, 5.0])
    out = clear(BatchInstance(deltas=deltas, pool=pool))
    assert np.array_equal(out.residuals, deltas)
    assert math.fsum(out.per_trader_b) == pytest.approx(pool.quote(8.0), rel=1e-12)


def test_sellers_net_out(pool):
    out = clear(BatchInstance(deltas=np.array([10.0, -4.0]), pool=pool))
    assert np.array_equal(out.residuals, [6.0, 0.0])
    out = clear(BatchInstance(deltas=np.array([6.0, 6.0, -4.0]), pool=pool))
    assert np.array_equal(out.residuals, [4.0, 4.0, 0.0])


def test_subnormal_residuals_send_their_exact_sum_not_the_net(pool):
    # the net is 1e-323, but each seller's residual 5e-324 * (2/3) rounds
    # back up to 5e-324: the pool gets the residuals' sum, 50% over the net
    deltas = np.array([5e-324, 5e-324, 5e-324, -5e-324])
    out = clear(BatchInstance(deltas=deltas, pool=pool))
    assert math.fsum(deltas) == 1e-323
    assert np.array_equal(out.residuals, [5e-324, 5e-324, 5e-324, 0.0])
    assert out.pool_input == math.fsum(out.residuals) == 1.5e-323


def test_nonpositive_net_demand_rejected(pool):
    for deltas in ([-1.0, -2.0], [2.0, -2.0], [0.0]):
        with pytest.raises(NonPositiveNetDemand):
            clear(BatchInstance(deltas=np.array(deltas), pool=pool))


def test_instance_validation(pool):
    with pytest.raises(InvalidArgument):
        BatchInstance(deltas=np.array([]), pool=pool)
    with pytest.raises(InvalidArgument):
        BatchInstance(deltas=np.array([[1.0], [2.0]]), pool=pool)
    with pytest.raises(InvalidArgument):
        BatchInstance(deltas=np.array([1.0, math.nan]), pool=pool)
    with pytest.raises(InvalidArgument):
        ForwardExchange(gamma=0.0, r1=200.0, r2=250.0)


def test_overflowing_sums_rejected(pool):
    # the exact sums clear() takes would overflow: an InvalidArgument up front,
    # not an OverflowError from math.fsum
    # the last: the net 1.3e308 is finite, the positive parts' 3e308 is not
    for deltas in ([1e308, 1e308], [1e308, -1e308, 1e308],
                   [1.5e308, 1.5e308, -1.7e308]):
        with pytest.raises(InvalidArgument, match="overflows"):
            BatchInstance(deltas=np.array(deltas), pool=pool)
    out = clear(BatchInstance(deltas=np.array([1e308, -1e308, 5.0]), pool=pool))
    assert out.pool_input == 5.0


def test_only_a_sum_that_clear_takes_can_overflow(pool):
    # the running sum -2e308 overflows, the exact sums -5e307 and 1.5e308 do not
    instance = BatchInstance(deltas=np.array([-1e308, -1e308, 1.5e308]), pool=pool)
    with pytest.raises(NonPositiveNetDemand, match="batch nets to -5e"):
        clear(instance)


@pytest.mark.parametrize("deltas", [[1e306], [8e307, 8e307]])
def test_overflowing_quote_rejected(pool, deltas):
    # the sums are finite but gamma*r2*t is not: no infinite pool output
    instance = BatchInstance(deltas=np.array(deltas), pool=pool)
    with pytest.raises(InvalidArgument, match="pool quote .* overflows"):
        clear(instance)


@given(deltas=deltas_strategy())
@settings(deadline=None, max_examples=300)
def test_clearing_invariants(deltas):
    net = math.fsum(deltas)
    if net <= 0.0:
        with pytest.raises(NonPositiveNetDemand):
            clear(BatchInstance(deltas=deltas, pool=POOL))
        return
    if net < 1e-9:
        return  # batches grazing zero: relative checks below become vacuous
    out = clear(BatchInstance(deltas=deltas, pool=POOL))
    assert np.all(out.residuals >= 0.0)
    # residuals redistribute, never create, demand
    assert math.fsum(out.residuals) == pytest.approx(net, rel=1e-12)
    assert out.pool_output == pytest.approx(POOL.quote(out.pool_input), rel=1e-15)
    # what the pool pays out is exactly what the traders receive
    assert math.fsum(out.per_trader_b) == pytest.approx(out.pool_output, rel=1e-12)
    if np.all(deltas >= 0.0):
        assert np.array_equal(out.residuals, deltas)


@given(deltas=deltas_strategy(), seed=st.integers(min_value=0, max_value=2**31))
@settings(deadline=None, max_examples=200)
def test_permutation_equivariance(deltas, seed):
    if math.fsum(deltas) <= 0.0:
        return
    perm = np.random.default_rng(seed).permutation(deltas.size)
    out = clear(BatchInstance(deltas=deltas, pool=POOL))
    out_p = clear(BatchInstance(deltas=deltas[perm], pool=POOL))
    assert np.array_equal(out.residuals[perm], out_p.residuals)
    assert np.array_equal(out.per_trader_b[perm], out_p.per_trader_b)


def _reference_clear(instance):
    # clear() with math.fsum for its three sums
    deltas = instance.deltas
    net = math.fsum(memoryview(deltas))
    if net <= 0.0:
        raise NonPositiveNetDemand(f"batch nets to {net}, nothing to trade")
    positive = np.maximum(deltas, 0.0)
    residuals = positive * (net / math.fsum(memoryview(positive)))
    pool_input = math.fsum(memoryview(residuals))
    pool_output = instance.pool.quote(pool_input)
    return residuals, pool_input, pool_output, residuals * (pool_output / pool_input)


@pytest.mark.parametrize("seed", range(8))
def test_clear_matches_an_fsum_reference(seed):
    rng = np.random.default_rng(seed)
    size = MAX_TRADERS if seed % 2 else int(rng.integers(1, MAX_TRADERS))
    deltas = rng.normal(0.4, 1.0, size)
    if seed % 4 >= 2:
        # magnitudes spread over 10^±200
        deltas *= 10.0 ** rng.uniform(-200.0, 200.0, size)
    deltas[0] = abs(deltas).max() * 2.0  # a positive net
    instance = BatchInstance(deltas=deltas, pool=POOL)
    out = clear(instance)
    residuals, pool_input, pool_output, per_trader_b = _reference_clear(instance)
    assert np.array_equal(out.residuals, residuals)
    assert np.array_equal(out.per_trader_b, per_trader_b)
    assert (out.pool_input, out.pool_output) == (pool_input, pool_output)


def _outcome_bits(out):
    return (out.residuals.tobytes(), out.pool_input.hex(), out.pool_output.hex(),
            out.per_trader_b.tobytes())


@given(deltas=arrays(dtype=float, shape=st.integers(1, 64), elements=st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324]),
    st.floats(0.0, 1e6, allow_subnormal=True),
    st.floats(1e-300, 1e300))),
    tiny=st.sampled_from([None, -5e-324, -1e-300]))
@example(deltas=np.array([0.0, -0.0, 7.5]), tiny=None)
@example(deltas=np.array([1e300, 3.0]), tiny=-5e-324)
@settings(deadline=None, max_examples=200)
def test_a_batch_that_nets_nothing_clears_as_the_two_pass_reference(deltas, tiny):
    # with net == gross the scale is exactly 1 and clear skips its second
    # exact sum; a negative entry too small to move the rounded net takes
    # the same path
    if tiny is not None:
        deltas = np.append(deltas, tiny)
    instance = BatchInstance(deltas=deltas, pool=POOL)
    try:
        want = _reference_clear(instance)
    except NonPositiveNetDemand:
        with pytest.raises(NonPositiveNetDemand):
            clear(instance)
        return
    got = clear(instance)
    assert _outcome_bits(got) == (want[0].tobytes(), want[1].hex(), want[2].hex(),
                                  want[3].tobytes())


def _sum_or_overflow(f, a):
    try:
        return f(a)
    except OverflowError:
        return OverflowError


def _fraction_sum(a):
    return float(sum(map(Fraction, a.tolist()), Fraction(0)))


def _cancelling(a):
    return np.concatenate([a, -a[::-1]])


@given(a=arrays(dtype=float, shape=st.integers(min_value=1, max_value=MAX_TRADERS),
                elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(a=_cancelling(np.array([1e308, 3.5, -1e-310, 2.0**-1074, 0.1])))
@example(a=np.full(MAX_TRADERS, 0.1))
@example(a=np.full(MAX_TRADERS, -2.0**-1074))
@example(a=np.array([-0.0]))
@example(a=np.array([1e308, 1e308, -1e308]))
@example(a=np.array([5e-324]))
@example(a=np.array([1.7e308, 5e-324, -1.7e308, 1e-300, -0.0, 3.0, 2.0**-1060]))
@settings(deadline=None, max_examples=200)
def test_exact_sum_is_fsum_bit_for_bit(a):
    want = _sum_or_overflow(math.fsum, a)
    if want is OverflowError:
        # fsum also refuses a sum that overflows only part way; the exact
        # sum in rationals decides
        want = _sum_or_overflow(_fraction_sum, a)
    got = _sum_or_overflow(_exact_sum, a)
    assert got == want
    if want is not OverflowError:
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@given(n=st.integers(1, MAX_TRADERS), seed=st.integers(0, 2**32 - 1),
       span=st.floats(0.0, 300.0))
@example(n=MAX_TRADERS, seed=0, span=300.0)
@example(n=MAX_TRADERS, seed=1, span=200.0)
@settings(deadline=None, max_examples=100)
def test_exact_sum_is_fsum_bit_for_bit_over_wide_magnitudes(n, seed, span):
    # magnitudes 10**-span to 10**span fill up to ~2,000 exponent bins,
    # each of which the sum's int loop visits
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-span, span, n)
    a = rng.choice([-1.0, 1.0], n) * magnitudes
    for b in (magnitudes, a):
        assert _exact_sum(b) == math.fsum(b)
    assert _exact_sum(_cancelling(a)) == 0.0


def _fsum_or_overflow(a):
    # fsum refuses a sum that overflows only part way; rationals decide
    want = _sum_or_overflow(math.fsum, a)
    return _sum_or_overflow(_fraction_sum, a) if want is OverflowError else want


# the worst case of the 12-bin block bound: 2 * MAX_TRADERS entries, all but
# one positive, nearly all a maximal mantissa (2**53 - 1) on the top exponent
# of a block (bin 11, above the first entry's bin 0), so each half's block sum
# is an odd integer just below 2**53
_MAX_MANTISSA = np.nextafter(1.0, 0.0)
_WORST_BLOCK = np.concatenate([[_MAX_MANTISSA * 2.0**-11, -_MAX_MANTISSA],
                               np.full(2 * MAX_TRADERS - 2, _MAX_MANTISSA)])


@given(a=arrays(dtype=float, shape=st.integers(min_value=1, max_value=64),
                elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(a=np.array([-1.5, -0.0, 4.0, -5e-324, -2.0**-1060, -0.25]))
@example(a=np.array([-0.0, 5e-324, -1e-310, -0.0]))
@example(a=np.array([1.5e308, 1.5e308, -1.7e308]))
@example(a=_WORST_BLOCK)
@example(a=-_WORST_BLOCK)
@settings(deadline=None, max_examples=300)
def test_net_and_gross_are_fsum_bit_for_bit(a):
    want = (_fsum_or_overflow(a), _fsum_or_overflow(np.maximum(a, 0.0)))
    if OverflowError in want:
        with pytest.raises(OverflowError):
            _net_and_gross(a)
        return
    got = _net_and_gross(a)
    assert got == want
    assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]


def test_delegation_matches_direct_pro_rata(pool):
    # each trader's B equals their pro-rata share of the pool's payout
    out = clear(BatchInstance(deltas=np.array([5.0, -2.0, 3.0, -1.0]), pool=pool))
    shares = out.residuals / out.pool_input * pool.quote(out.pool_input)
    assert np.allclose(out.per_trader_b, shares, rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------ arbitrage


def test_arbitrage_payoff_matches_family(pool):
    family = pool.arbitrage_family(1.0)
    assert isinstance(family, CfmmArbitragePayoff)
    assert pro_rata_payoff(family, 11.3555, 11.3555) == pytest.approx(1.2768, abs=2e-4)
    assert pro_rata_payoff(family, 0.0, 4.0) == 0.0
    xs = np.array([0.0, 3.0, 11.3555])
    ys = np.array([4.0, 0.0, 11.3555])
    assert np.allclose(
        pro_rata_payoff(family, xs, ys),
        [pro_rata_payoff(family, float(a), float(b)) for a, b in zip(xs, ys)],
        rtol=1e-15,
    )


def test_optimal_arbitrage_first_order_condition(pool):
    t = optimal_arbitrage(pool, 1.0)
    assert t == pytest.approx(22.713085467545344, rel=1e-12)
    assert pool.derivative(t) == pytest.approx(1.0, rel=1e-8)
    # marginal quote already below the outside price: abstain
    assert optimal_arbitrage(pool, pool.derivative(0.0)) == 0.0
    assert optimal_arbitrage(pool, 2.0) == 0.0
    with pytest.raises(InvalidArgument):
        optimal_arbitrage(pool, 0.0)


def test_optimal_arbitrage_matches_grid_search(pool):
    for price in (0.5, 0.8, 1.1):
        t = optimal_arbitrage(pool, price)
        grid = np.linspace(0.0, 200.0, 400_001)
        profit = pool.quote(grid) - price * grid
        assert t == pytest.approx(grid[np.argmax(profit)], abs=1e-3)


def test_split_arbitrageurs_form_an_equilibrium(pool):
    # n arbitrageurs each tendering q/n: no grid deviation improves on it
    family = pool.arbitrage_family(1.0)
    for n in (2, 5):
        eq = solve_symmetric(family, n)
        y = eq.q - eq.per_player
        base = pro_rata_payoff(family, eq.per_player, y)
        grid = np.linspace(0.0, 47.0, 20_001)
        assert np.max(pro_rata_payoff(family, grid, y)) <= base + 1e-9
