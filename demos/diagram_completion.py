"""
Order-by-order completion of a rank-2 wall diagram
==================================================

The two incoming hyperplanes of a seed are not consistent on their own:
going once around the origin is only the identity up to degree 1.  The
completion inserts outgoing walls, degree by degree, until the path
ordered product around the origin is trivial to the requested order.
"""

from pathlib import Path

from clusterscatter import (
    FixedData,
    build_initial,
    check_consistency,
    complete_rank2,
    initial_seed,
    render_svg,
    wall_label,
)

data = FixedData(B=((0, -2), (1, 0)), d=(1, 2), r=(1, 2))
s = initial_seed(data, with_cluster=False, semifield=False)

# the bare initial diagram fails at degree 2
D0 = build_initial(s, order=6)
rep = check_consistency(D0)
print("initial diagram consistent:", rep.consistent,
      "| first failure degree:", rep.first_failure_degree)

# complete and look at the walls; two outgoing rays appear in the fourth
# quadrant between (1,0) and (0,-1)
D = complete_rank2(D0)
orders = D.seed.coeff_orders
print()
print("completed walls at order 6:")
for w in D.walls:
    kind = "incoming" if w.incoming else "outgoing"
    print(f"  ray {w.ray} {kind:8s} {wall_label(w, orders)}")

rep = check_consistency(D)
print()
print("completed diagram consistent:", rep.consistent)

# the same computation for the degrees-(2,2) matrix never stops producing
# walls; truncate at order 8 and count
kron = FixedData(B=((0, -2), (2, 0)), d=(1, 1), r=(2, 2))
sk = initial_seed(kron, with_cluster=False, semifield=False)
Dk = complete_rank2(build_initial(sk, order=8))
print()
print("degrees (2,2), order 8:", len(Dk.walls), "walls,",
      sum(not w.incoming for w in Dk.walls), "of them outgoing")

# a picture of the finite diagram, one labeled ray per wall
out = Path(__file__).with_name("hexagon_diagram.svg")
out.write_text(render_svg(D))
print()
print("wrote", out.name)
