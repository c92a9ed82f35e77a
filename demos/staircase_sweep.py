"""Sweep the hole size t and watch the survivor-set dimension collapse.

For a fixed base beta, the set of points whose orbit under x -> beta*x mod 1
never enters the hole (0, t) shrinks as t grows.  Its Hausdorff dimension is
a devil's staircase in t: constant on countably many plateaus, and it hits
zero strictly before the hole reaches the fixed point 1 - 1/beta.

Run:  python3 demos/staircase_sweep.py [alpha] [samples]
where alpha is a closed-form kneading sequence like "(10)" or "(110)".
"""

import math
import sys

from betahole import BetaSpec, PointSpec, dimension, tau_report

alpha = sys.argv[1] if len(sys.argv) > 1 else "(10)"
samples = int(sys.argv[2]) if len(sys.argv) > 2 else 48

beta = BetaSpec.parse("@" + alpha)
tmax = math.nextafter(float(1 - 1 / beta.value.b), 1.0)

print("base: beta with quasi-greedy expansion of 1 equal to %s^inf" % alpha)
print("      beta ~ %.15f" % float(beta.value.a))
print("sweeping t over [0, 1 - 1/beta], %d samples\n" % samples)

print("%-22s %-12s %-12s %s" % ("t", "dim lower", "dim upper", "bar"))
prev = None
for i in range(samples):
    t = tmax * i / (samples - 1)
    r = dimension(beta, PointSpec(value=t), horizon=96)
    bar = "#" * int(round(40 * r.dim_upper))
    flat = ""
    if prev is not None and abs(prev - r.dim_upper) < 1e-9:
        flat = " (plateau)"
    print("%-22.16f %-12.8f %-12.8f %s%s" % (
        t, r.dim_lower, r.dim_upper, bar, flat))
    prev = r.dim_upper

rep = tau_report(beta)
print("\ncritical hole size (dimension first hits zero):")
print("  regime: %s" % rep.regime)
print("  tau in [%.15f, %.15f]" % (rep.tau_lower, rep.tau_upper))
print("  fixed point 1 - 1/beta = %.15f" % float(1 - 1 / beta.value.a))
