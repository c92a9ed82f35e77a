"""Locate the critical hole size tau for a handful of bases.

tau(beta) is the supremum of hole sizes t for which the survivor set of
x -> beta*x mod 1 with hole (0, t) still has positive Hausdorff dimension.
Three regimes occur:

  * beta is the left endpoint of a Farey-type interval: tau = 1 - 1/beta,
    yet the survivor set at t = tau itself is countable.  The witnesses are
    the finite z-set of sequences locked to the generator's cycle.
  * beta lies inside a Farey-type interval: tau < 1 - 1/beta, pinned
    between the projections of two explicit eventually periodic sequences
    t* and t_diamond.
  * beta = 2 (the doubling map): tau = 1/2 exactly.

Run:  python3 demos/critical_hole.py
"""

import json

from betahole import (BetaSpec, t_star_sequence, t_diamond_sequence,
                      tau_json, tau_report, verify_empty_at_left_endpoint,
                      z_set)

for label in ["2", "@(10)", "@(110)", "1.7", "1.9"]:
    beta = BetaSpec.parse(label)
    rep = tau_report(beta)
    print("beta = %s" % label)
    print("  regime:  %s" % rep.regime)
    print("  tau in   [%.15f, %.15f]%s" % (
        rep.tau_lower, rep.tau_upper,
        "" if rep.certified else "  (not certified)"))
    if rep.note:
        print("  note:    %s" % rep.note)
    print()

# at a left endpoint the survivor set at t = tau is tiny but nonempty:
# exactly the orbit closure of the generator cycle
print("z-set witnesses at the left endpoint of the golden interval:")
for member in z_set("10"):
    print("  %s" % member)
print("  empty just past the endpoint: %s"
      % verify_empty_at_left_endpoint("10"))
print()

# inside an interval the bracketing sequences are explicit
print("bracketing sequences inside the golden Farey interval:")
print("  t*        = pi_beta(%s)" % t_star_sequence("10"))
print("  t_diamond = pi_beta(%s)" % t_diamond_sequence("10"))
print()

print("machine-readable report for beta = 1.7:")
print(json.dumps(tau_json(tau_report(BetaSpec.parse("1.7"))), indent=2))
