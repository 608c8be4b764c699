"""Symmetric equilibria and single-player best responses.

The unique nontrivial symmetric equilibrium has the n players jointly
tender the q in (0, w) maximizing q**(n-1) * f(q); each plays q/n. A
family with a closed form for q (``closed_route`` and ``closed_total`` of
:class:`~prorata.payoff.PayoffFamily`: cfmm and power) uses it by default;
any family can be solved numerically as the sign change of the
first-order condition (n-1) f(q) + q f'(q), which decreases on
(argmax f, w), by the bracketed search of :mod:`prorata.search`.

A best response maximizes x/t * f(t) with t = x + y. Its first-order
condition y f(t) + x t f'(t) = 0 is a one-dimensional root, which the
family's own tender, :meth:`~prorata.payoff.PayoffFamily.tender`, solves:
by default a search for the sign change of the same condition, which is
nonincreasing in x because the own payoff is concave (tables and
callables), a closed form for cfmm and a monotone Newton iteration for
power. :func:`best_response` and the dynamics share that one tender, and
its docstring states the window every tender takes, ``tender(y, lo, hi)``.
The power tender uses the bounds to stop its iteration once the answer is
known to lie outside them; the others solve in full and clamp. No
function here names a kind: each asks the family.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidArgument, NoFiniteRoot, NoPositiveRegion, integer, number
from .payoff import PayoffFamily, _require_concave, diagnostics, pro_rata_payoff
from .search import bisect_root

SOLVE_METHODS = ("auto", "closed", "numeric")


class EquilibriumResult(NamedTuple):
    """The symmetric equilibrium :func:`solve_symmetric` found, and how.

    A named tuple, built positionally on every call: immutable, hashable,
    and equal to any record, or plain tuple, of the same fields in order.
    """

    q: float                  # total tendered at equilibrium
    n: int
    per_player: float         # q / n
    equilibrium_payoff: float  # f(q) / n, each player's payoff
    foc_residual: float       # |(n-1) f(q) + q f'(q)|
    method: str

    def positive_payoff(self) -> float:
        """The per-player payoff, for callers that divide by it: raises
        :class:`NoPositiveRegion` when it is not positive."""
        return _positive_payoff(self.equilibrium_payoff, self.n)


def _positive_payoff(payoff: float, n: int) -> float:
    # the check of EquilibriumResult.positive_payoff, which poa shares
    if not payoff > 0.0:
        raise NoPositiveRegion(
            f"equilibrium payoff f(q)/n={payoff!r} is not positive at n={n}")
    return payoff


class BestResponseResult(NamedTuple):
    """One player's best response from :func:`best_response`: the tender,
    its payoff, and which bound, if any, it sits on. A named tuple, as
    :class:`EquilibriumResult` is."""

    x: float
    achieved_payoff: float
    at_boundary: str  # "zero", "budget", or "interior"


def foc_residual(family: PayoffFamily, n: int, q: float) -> float:
    """First-order-condition residual |(n-1) f(q) + q f'(q)| at total q.

    Where f' is one-sided (a table's knot) it has two values at a kink.
    The residual is 0 when the condition changes sign across the kink
    (left value >= 0 >= right value), which certifies a kink equilibrium
    exactly, and otherwise the smaller of the two magnitudes.
    """
    g = _signed_foc(family, n, q)
    if family.derivative_nature == "one-sided" and q > 0.0:
        # the slope just below q is the left slope at a knot
        left_slope = family.derivative(math.nextafter(q, 0.0))
        g_left = (n - 1) * family.value(q) + q * left_slope
        if g_left >= 0.0 >= g:
            return 0.0
        return min(abs(g_left), abs(g))
    return abs(g)


def _signed_foc(family: PayoffFamily, n: int, q: float) -> float:
    return (n - 1) * family.value(q) + q * family.derivative(q)


def solve_symmetric(
    family: PayoffFamily, n: int, method: str = "auto"
) -> EquilibriumResult:
    """Solve for the symmetric equilibrium of the n-player game.

    ``method="auto"`` picks the closed form when the family has one and
    the numeric route otherwise; ``"closed"``/``"numeric"`` force the route.
    The numeric route brackets the sign change of
    g(q) = (n-1) f(q) + q f'(q) on [argmax f, w] to adjacent floats with
    :func:`~prorata.search.bisect_root`, a safeguarded Illinois search
    never more than two halvings behind bisection. g decreases there, so
    its zero is the maximizer of q**(n-1) f(q); when g(argmax f) <= 0
    (n = 1, or a table whose kink at its argmax is the equilibrium) q is
    argmax f itself.
    A payoff that is nowhere positive raises :class:`NoPositiveRegion` on
    either route, and a table that is not concave raises
    :class:`InvalidArgument`, as :func:`best_response` does. A table whose
    g is still positive at its last knot has its equilibrium past the
    table and raises :class:`NoFiniteRoot`.
    """
    n = integer("n", n, 1)
    q, used = _symmetric_total(family, n, method)
    return EquilibriumResult(q, n, q / n, family.value(q) / n,
                             foc_residual(family, n, q), used)


def _symmetric_total(family: PayoffFamily, n: int, method: str) -> tuple[float, str]:
    """The equilibrium total q of :func:`solve_symmetric` for an n already
    checked, with the name of the route that found it: the one route
    dispatch, for callers that need only q."""
    if method not in SOLVE_METHODS:
        raise InvalidArgument(f"method must be one of {SOLVE_METHODS}, got {method!r}")
    # "closed" always asks the family, whose base closed_total refuses;
    # "auto" asks only a family with a closed route (read once: poa calls
    # this on its hot path)
    if (route := family.closed_route) and method == "auto" or method == "closed":
        return family.closed_total(n), route
    _require_concave(family)
    diag = diagnostics(family)
    q, end = diag.argmax, diag.root
    if _signed_foc(family, n, q) > 0.0:
        # a table's last knot as its root: g still positive there puts the
        # equilibrium past the table
        if end == family.domain_max and _signed_foc(family, n, end) > 0.0:
            raise NoFiniteRoot(f"payoff still positive at the domain end t={end}")
        q = bisect_root(lambda q: _signed_foc(family, n, q), q, end)
    return q, "foc-bisection"


def best_response(
    family: PayoffFamily,
    y: float,
    budget: float = math.inf,
) -> BestResponseResult:
    """Maximize x -> x/(x+y) f(x+y) over x in [0, budget].

    Every family solves the first-order condition with its one tender (see
    :meth:`~prorata.payoff.PayoffFamily.tender`) and caps the result at the
    budget, which is exact because the payoff is concave in x. A negative
    ``y`` or ``budget`` and a table that is not concave raise
    :class:`InvalidArgument`. Returns x = 0 with payoff 0 when no positive
    tender helps.
    """
    number("y", y, positive=False)
    number("budget", budget, positive=False)
    x = family.tender()(y)
    if x <= 0.0:
        return BestResponseResult(0.0, 0.0, "zero")
    if x >= budget:
        return BestResponseResult(budget, pro_rata_payoff(family, budget, y), "budget")
    return BestResponseResult(x, pro_rata_payoff(family, x, y), "interior")
