"""
Broken lines and theta functions
================================

A theta function is a sum over broken lines: piecewise straight paths
that come in from infinity carrying a monomial, bend at walls, and end at
a chosen generic point.  Summing the final monomials reproduces, for an
exponent in a cluster chamber, the corresponding cluster variable.
"""

from fractions import Fraction

from clusterscatter import (
    FixedData,
    build_initial,
    chart_variables,
    complete_rank2,
    enumerate_broken_lines,
    initial_seed,
    theta,
    theta_via_transport,
)
from clusterscatter.monoid_ring import series_to_str

data = FixedData(B=((0, -2), (1, 0)), d=(1, 2), r=(1, 2))
s = initial_seed(data, with_cluster=False, semifield=False)
D = complete_rank2(build_initial(s, order=8))

A = ["A1", "A2"]
T = ["t11", "t21", "t22"]

# endpoint in the all-positive chamber; the direction (119, 45) is chosen
# so no bend sequence can aim a segment straight through the origin
Q = (Fraction(17, 5), Fraction(9, 7))

# the exponent (-1, 0) is the g-vector of the variable created by the
# first mutation; two broken lines contribute
print("broken lines for exponent (-1, 0):")
for bl in enumerate_broken_lines(D, (-1, 0), Q, order=6):
    print("  line with", len(bl.segments), "segments:")
    for c, t, m in bl.segments:
        print(f"    carries {c} * t^{t} * z^{m}")
    for pt, ray in bl.bends:
        print(f"    bends on the wall through {ray} at ({pt[0]}, {pt[1]})")

th = theta(D, (-1, 0), order=8)
print()
print("theta(-1,0) =", series_to_str(th, A, T))

# the same variable by a different route: transport the monomial from the
# chamber whose frame contains the exponent back to the positive chamber
tv = theta_via_transport(D, (-1, 0))
print("transported  =", series_to_str(tv.num, A, T))

# cluster variables along the hexagon, one g-vector each; theta matches
# every one of them
s_cl = initial_seed(data)
print()
checks = []
for word, i, g in [((1,), 0, (-1, 0)), ((1, 2), 1, (0, -1)),
                   ((2, 1), 0, (1, -1)), ((2,), 1, (2, -1))]:
    var = chart_variables(s_cl, word)[i]
    ok = theta(D, g, order=8) == var.num.truncate(8)
    checks.append(ok)
    print(f"theta{g} equals the chart variable for word {word}: {ok}")
assert all(checks)
