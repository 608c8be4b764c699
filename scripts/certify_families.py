#!/usr/bin/env python3
"""Run the concavity side-condition checks over a small zoo of payoffs.

For each family this prints whether the strict-chord condition
f(a t) > a f(t) holds, whether a linear segment at zero was detected (the
usual way the chord condition fails), and the diagonal-monotonicity probe
value E(n) at a few crowd sizes. The built-in kinds get exact verdicts; the
quadratic, a callable, is sampled. The capped tables and the quadratic are
known counterexamples: the tables violate the chord condition, and the
quadratic, strictly concave, gives E(n) < 0. A nonzero exit means one of
the *reference* families failed the chord check.
"""

import sys

from prorata import (
    CallablePayoff,
    TabulatedPayoff,
    check_chord_condition,
    detect_linear_segment_at_zero,
    family_from_dict,
    rosen_probe,
)
from prorata.cli import REFERENCE as REFERENCE_SPECS

# the reference families of the `reproduce` figures, e.g. "power(0.5, 0.05)"
REFERENCE = {
    f"{kind}({', '.join(f'{v:g}' for k, v in spec.items() if k != 'kind')})":
        family_from_dict(spec)
    for kind, spec in REFERENCE_SPECS.items()
}
COUNTEREXAMPLES = {
    "min(t, 3)": TabulatedPayoff(ts=(0.0, 3.0, 50.0), fs=(0.0, 3.0, 3.0)),
    "min(t, 12)": TabulatedPayoff(ts=(0.0, 12.0, 50.0), fs=(0.0, 12.0, 12.0)),
    "16t - t^2": CallablePayoff(lambda t: 16.0 * t - t * t,
                                deriv=lambda t: 16.0 - 2.0 * t),
}


def main() -> int:
    failed_reference = False
    for name, family in {**REFERENCE, **COUNTEREXAMPLES}.items():
        chord = check_chord_condition(family, seed=0)
        segment = detect_linear_segment_at_zero(family, seed=0)
        probes = ", ".join(
            f"E({n})={rosen_probe(family, n).details['e_value']:+.3g}"
            for n in (2, 4, 8)
        )
        print(f"{name:24s} chord={'ok' if chord.holds else 'VIOLATED'}  "
              f"linear-segment={'found' if segment.holds else 'none'}  {probes}")
        if chord.witness:
            a, t, gap = chord.witness[0]
            print(f"{'':24s} first witness: alpha={a:.6g} t={t:.6g} gap={gap:.3g}")
        if name in REFERENCE and not chord.holds:
            failed_reference = True
    return 1 if failed_reference else 0


if __name__ == "__main__":
    sys.exit(main())
