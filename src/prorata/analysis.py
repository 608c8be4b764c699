"""Price-of-anarchy analysis.

The welfare benchmark is sup f: a coordinator would have the players
jointly tender argmax f and split f at its peak. At the symmetric
equilibrium the pool pays f(q) < sup f, and the gap grows linearly in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .equilibrium import _positive_payoff, _symmetric_total
from .errors import NoPositiveRegion, integer
from .payoff import PayoffFamily, diagnostics, power_poa_closed_form

# relative tolerance of the power closed-form cross-check
_CLOSED_FORM_CHECK_RTOL = 1e-6
# largest relative shortfall below 1 that a ratio of the other families
# reads as 1.0 (see PoaReport); sweeps of n = 1 near the cfmm no-arbitrage
# boundary found at most 9.9e-15
_SHORTFALL_RTOL = 1e-12


class PoaReport(NamedTuple):
    """The price of anarchy of the n-player game.

    ``poa`` is never below 1. sup f >= f(q) by definition, but both are
    rounded values of f near its flat peak (q is argmax f itself when
    n = 1), so their ratio can round below 1. A shortfall within the
    family's check reads as exactly 1.0, and a larger one raises
    :class:`ArithmeticError`. For power the check is the closed-form
    cross-check (1e-6 relative, against a closed form >= 1): the terms of
    f cancel at its peak as beta nears 1, and the shortfall grows with
    1/(1 - beta). For the other families it is 1e-12 relative; cfmm near
    its no-arbitrage boundary rounds short by a few ulps. ``eq_payoff``
    and ``fair_payoff`` keep their computed values.

    A named tuple, built positionally on every call: immutable, hashable,
    and equal to any record, or plain tuple, of the same fields in order.
    """

    n: int
    eq_payoff: float    # f(q)/n per player at equilibrium
    fair_payoff: float  # sup f / n per player under coordination
    poa: float          # sup f / f(q) >= 1


def poa(family: PayoffFamily, n: int) -> PoaReport:
    """Price of anarchy sup f / f(q) for the n-player game.

    Where the family has a closed form (``closed_poa``: power's
    :func:`power_poa_closed_form`), it doubles as a consistency check on
    the solver; disagreement means a numeric failure. An equilibrium
    payoff or sup f that is not positive raises :class:`NoPositiveRegion`.
    The ratio reads at least 1, by the rule :class:`PoaReport` states.
    """
    n = integer("n", n, 1)
    q, _ = _symmetric_total(family, n, "auto")
    eq_payoff = family.value(q) / n
    diag = diagnostics(family)
    ratio = diag.max_value / (_positive_payoff(eq_payoff, n) * n)
    if not diag.max_value > 0.0:
        # a callable's f can round to at most 0 at its argmax while f(q)
        # rounds above 0 (the cfmm family takes its exact margin, and a
        # table's maximum is a knot): no ratio >= 1 to report
        raise NoPositiveRegion(f"sup f={diag.max_value!r} is not positive")
    expected = family.closed_poa(n)
    if expected is not None:
        if abs(ratio - expected) > _CLOSED_FORM_CHECK_RTOL * expected:
            raise ArithmeticError(
                f"PoA cross-check failed: solver {ratio!r} vs closed form {expected!r}"
            )
    elif ratio < 1.0 - _SHORTFALL_RTOL:
        raise ArithmeticError(f"PoA check failed: sup f / f(q) = {ratio!r} < 1")
    return PoaReport(n, eq_payoff, diag.max_value / n, max(ratio, 1.0))


@dataclass(frozen=True)
class PoaGrowthResult:
    reports: tuple[PoaReport, ...]
    nondecreasing: bool
    n0: int
    ratio_floor: float  # min over n >= n0 of poa(n)/n
    holds: bool         # nondecreasing and floor > 0: linear-in-n degradation


def poa_growth_check(
    family: PayoffFamily, n_values: Sequence[int], n0: int = 10
) -> PoaGrowthResult:
    """Tabulate poa(n) and certify the Omega(n) growth empirically:
    nondecreasing over ``n_values`` and poa(n)/n bounded away from zero
    for n >= n0."""
    n0 = integer("n0", n0, 1)
    reports = tuple(poa(family, integer(f"n_values[{i}]", n, 1))
                    for i, n in enumerate(n_values))
    values = [r.poa for r in reports]
    nondecreasing = all(b >= a for a, b in zip(values, values[1:]))
    tail = [r.poa / r.n for r in reports if r.n >= n0]
    ratio_floor = min(tail) if tail else float("nan")
    holds = nondecreasing and bool(tail) and ratio_floor > 0.0
    return PoaGrowthResult(
        reports=reports,
        nondecreasing=nondecreasing,
        n0=n0,
        ratio_floor=ratio_floor,
        holds=holds,
    )
