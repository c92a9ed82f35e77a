"""Build the atlas of parameter intervals generated by maximal words.

Every aperiodic word a that is the largest among its rotations generates a
basic interval of bases (beta_L, beta_R]: the left endpoint solves
alpha(beta) = (a)^inf and the right endpoint solves alpha(beta) = a+(s)^inf,
where a = u v is the standard Lyndon factorization of the smallest rotation
and s is the rotated witness word.  Intervals generated by reflections of
Farey words are special: they are pairwise disjoint, they carry the
renormalization to the doubling map, and only inside them does the critical
hole size drop below 1 - 1/beta.

Run:  python3 demos/interval_atlas.py [max_len]
"""

import sys
from fractions import Fraction

from betahole import atlas, doubling_interval, phi
from betahole.bifurcation import nesting
from betahole.words import reflect

max_len = int(sys.argv[1]) if len(sys.argv) > 1 else 6

records = atlas(max_len)
farey = [r for r in records if r.kind == "farey"]
print("basic intervals from generators of length <= %d: %d "
      "(%d of Farey type)\n" % (max_len, len(records), len(farey)))

print("%-10s %-8s %-18s %-18s %s" % (
    "generator", "kind", "beta_L", "beta_R", "alpha on the interval"))
for rec in records:
    bl = float(rec.beta_L.value.a)
    br = float(rec.beta_R.value.a)
    print("%-10s %-8s %-18.12f %-18.12f (%s)^inf .. %s" % (
        rec.generator, rec.kind, bl, br, rec.generator, rec.alpha_R))

# sanity: the atlas is laminar -- any two intervals are nested or disjoint;
# nesting() raises CertificateFailed on a pair that overlaps otherwise
nesting(records)
print("\noverlapping (non-nested) pairs: 0")

print("\nFarey intervals and their doubling-map shadows:")
print("%-10s %-14s %-14s %-10s %-10s" % (
    "generator", "phi(beta_L)", "phi(beta_R)", "1 - q_R", "1 - q_L"))
for rec in farey:
    d = doubling_interval(reflect(rec.generator))
    pl = phi(rec.beta_L)
    pr = phi(rec.beta_R)
    assert isinstance(pl, Fraction) and isinstance(pr, Fraction)
    print("%-10s %-14s %-14s %-10s %-10s" % (
        rec.generator, pl, pr, 1 - d.q_R, 1 - d.q_L))
