"""What happens when backtracking is selectively allowed.

A backtrack flag on an oriented edge permits the immediate reversal that the
non-backtracking rule would otherwise forbid.  Symmetric flag sets (closed
under reversal) behave perfectly: the product formula with its correction
constant equal to zero matches the determinant.  A one-sided flag is the
interesting failure: no closed edge sequence is admissible at all, yet the
vertex-path picture suggests there should be one, and the product formula
deviates from the determinant by exactly its factor exp(-alpha u^2).  The
library keeps that deviation visible instead of papering over it.
"""

from zetagraph import (
    backtrack_weight_constant,
    make_graph,
    tail_mode_report,
    zeta_fredholm,
    zeta_partial_formula,
)
from zetagraph.series import max_deviation


def row(series):
    return [float(round(c.real, 6)) + 0.0 for c in series.coefficients()]

both = make_graph(["a", "b"], [("a", "b", 2.0, 3.0)],
                  backtrack=[("a", "b"), ("b", "a")])
one = make_graph(["a", "b"], [("a", "b", 2.0, 3.0)], backtrack=[("a", "b")])

print("same underlying edge {a,b} with w(a->b)=2, w(b->a)=3\n")

print("flags on both orientations: the doubled edge is a genuine 2-cycle")
res = zeta_partial_formula(both, 6)
print(f"  product formula: {row(res.series)}")
print(f"  det(1 - uT):     {row(zeta_fredholm(both, 6).series)}")
print(f"  correction constant alpha = {res.metadata['alpha']} (symmetric sets give 0)\n")

print("flag on a->b only: the seam of any closed sequence breaks the rule")
report = tail_mode_report(one, 4)
print(f"  strict edge-sequence counts:   {report['strict']}")
print(f"  literal tail rule (as stated): {report['printed']}")
print(f"  literal tail rule (repaired):  {report['corrected']}")
print(f"  det(1 - uT): {row(zeta_fredholm(one, 6).series)}")

res = zeta_partial_formula(one, 6)
print(f"  product formula: {row(res.series)}")
dev = max_deviation(res.series, zeta_fredholm(one, 6).series)
print(f"  deviation from the determinant: {dev}  <- real, documented, not a bug")
print(f"  alpha (roundtrip-weight form): {backtrack_weight_constant(one)}")
print(f"  alpha (squared-weight form):   {backtrack_weight_constant(one, 'w-squared')}")
