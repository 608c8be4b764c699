"""50-digit reference values for the symmetric equilibrium, stdlib only.

Both closed forms are derived here from the first-order condition
(n-1) f(q) + q f'(q) = 0 rather than copied from the library, so they
check its algebra as well as its rounding. Parameters enter as the exact
decimal value of the binary double the library sees.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

PRECISION = 50
MAX_DIGITS = 16.0


def cfmm_total(gamma: float, r1: float, r2: float, c: float, n: int) -> Decimal:
    """Equilibrium total q for f(t) = gamma*r2*t/(r1 + gamma*t) - c*t.

    With D = r1 + gamma*q the condition divided by q is the quadratic
    n*c*D**2 - (n-1)*gamma*r2*D - gamma*r1*r2 = 0, whose positive root
    gives q = (D - r1) / gamma.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        g, a, b, p = (Decimal(v) for v in (gamma, r1, r2, c))
        lin = (n - 1) * g * b
        root = (lin + (lin * lin + 4 * n * p * g * a * b).sqrt()) / (2 * n * p)
        return (root - a) / g


def power_half_total(gamma: float, n: int) -> Decimal:
    """Equilibrium total q for f(t) = t**(1/2) - gamma*t: the condition
    reduces to q**(1/2) = (n - 1/2) / (n*gamma)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        base = (n - Decimal("0.5")) / (n * Decimal(gamma))
        return base * base


def correct_digits(value: float, exact: Decimal) -> float:
    """-log10 of the relative error of ``value``, capped at 16 digits."""
    if not math.isfinite(value):
        return 0.0
    with localcontext() as ctx:
        ctx.prec = PRECISION
        err = abs(Decimal(value) - exact) / abs(exact)
        if err == 0:
            return MAX_DIGITS
        return max(0.0, min(MAX_DIGITS, -float(err.log10())))
