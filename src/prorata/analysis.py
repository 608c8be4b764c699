"""Price-of-anarchy analysis.

The welfare benchmark is sup f: a coordinator would have the players
jointly tender argmax f and split f at its peak. At the symmetric
equilibrium the pool pays f(q) < sup f, and the gap grows linearly in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .equilibrium import solve_symmetric
from .errors import NoPositiveRegion, integer
from .payoff import PayoffFamily, PowerPayoff, diagnostics

_CLOSED_FORM_CHECK_RTOL = 1e-6


@dataclass(frozen=True)
class PoaReport:
    n: int
    eq_payoff: float    # f(q)/n per player at equilibrium
    fair_payoff: float  # sup f / n per player under coordination
    poa: float          # sup f / f(q) >= 1


def power_poa_closed_form(beta: float, n: int) -> float:
    """PoA for the power family: n * (beta*n / (beta + n - 1))**(beta/(1-beta)).

    ``n - 1`` is exact, so it is taken first: beta keeps its low bits.
    """
    return n * (beta * n / (beta + (n - 1.0))) ** (beta / (1.0 - beta))


def poa(family: PayoffFamily, n: int) -> PoaReport:
    """Price of anarchy sup f / f(q) for the n-player game.

    For the power family the closed form doubles as a consistency check
    on the solver; disagreement means a numeric failure. An equilibrium
    payoff or sup f that is not positive raises :class:`NoPositiveRegion`.
    """
    eq = solve_symmetric(family, n)
    diag = diagnostics(family)
    ratio = diag.max_value / (eq.positive_payoff() * n)
    if not diag.max_value > 0.0:
        # a callable's f can round to at most 0 at its argmax while f(q)
        # rounds above 0 (the cfmm family takes its exact margin, and a
        # table's maximum is a knot): no ratio >= 1 to report
        raise NoPositiveRegion(f"sup f={diag.max_value!r} is not positive")
    if isinstance(family, PowerPayoff):
        expected = power_poa_closed_form(family.beta, n)
        if abs(ratio - expected) > _CLOSED_FORM_CHECK_RTOL * expected:
            raise ArithmeticError(
                f"PoA cross-check failed: solver {ratio!r} vs closed form {expected!r}"
            )
    return PoaReport(
        n=eq.n,
        eq_payoff=eq.equilibrium_payoff,
        fair_payoff=diag.max_value / n,
        poa=ratio,
    )


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
