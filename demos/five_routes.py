"""Compute one graph's reciprocal zeta function five independent ways.

The brute-force Euler product over prime cycles is the ground truth; the
Fredholm determinant det(1 - uT), the vertex-space factorization, the block
determinant, and (for unit weights) the classical vertex formula must all
reproduce it coefficient by coefficient.  Disagreement anywhere would mean a
bug in exactly one route, which is the point of keeping five of them.
"""

import numpy as np

from zetagraph import (
    cross_validate,
    euler_product,
    make_graph,
    zeta_bass,
    zeta_classical,
    zeta_fredholm,
    zeta_sunada,
)

g = make_graph(
    ["p", "q", "r", "s"],
    [
        ("p", "q", 1.0, 1.0),
        ("q", "r", 1.0, 1.0),
        ("r", "s", 1.0, 1.0),
        ("s", "p", 1.0, 1.0),
        ("p", "r", 1.0, 1.0),
    ],
)

ORDER = 10
series = {
    "oracle": euler_product(g, ORDER),
    "fredholm": zeta_fredholm(g, ORDER).series,
    "sunada": zeta_sunada(g, ORDER).series,
    "bass": zeta_bass(g, ORDER).series,
    "classical": zeta_classical(g, ORDER).series,
}

print(f"reciprocal zeta of a 4-cycle with a chord, order {ORDER}\n")
header = "n    " + "".join(f"{name:>12}" for name in series)
print(header)
for n in range(ORDER + 1):
    row = f"{n:<5}"
    for s in series.values():
        row += f"{s.coefficient(n).real:12.6f}"
    print(row)

print("\npairwise max deviations (cross_validate):")
report = cross_validate(g, ORDER)
for p in report.pairs:
    print(f"  {p.route_a:>9} vs {p.route_b:<9} {p.max_dev:.3e}  {'agree' if p.agree else 'disagree'}")
print(f"\nall routes agree: {report.all_agree}")

worst = max(
    np.abs(a.coefficients() - b.coefficients()).max()
    for na, a in series.items()
    for nb, b in series.items()
    if na < nb
)
print(f"largest coefficient gap across all pairs: {worst:.3e}")
