"""
Trading a hyperplane across the diagram
=======================================

Mutating the seed in direction k acts on its completed wall diagram by a
piecewise linear change of the plane plus a swap of the direction-k wall
from incoming to outgoing.  The claim checked here: transforming the
completed diagram of the seed gives the completed diagram of the mutated
seed.  Both sides are computed independently.
"""

from clusterscatter import FixedData, initial_seed, tk_invariance_check, wall_label

data = FixedData(B=((0, -2), (1, 0)), d=(1, 2), r=(1, 2))
s = initial_seed(data, with_cluster=False, semifield=False)

# side 1: complete, then transform in direction 2.  the transform bends
# exponents across the hyperplane of direction 2, so a degree-d factor can
# come from a higher degree one; completing deeper first keeps order 6 exact
moved, recomputed, ok = tk_invariance_check(s, k=2, order=6)

print("walls of the transformed diagram:")
orders = moved.seed.coeff_orders
for w in moved.walls:
    kind = "incoming" if w.incoming else "outgoing"
    print(f"  ray {w.ray} {kind:8s} {wall_label(w, orders)}")

# side 2: mutate the seed first, then complete from scratch
print()
print("independently completed diagram of the mutated seed:")
orders2 = recomputed.seed.coeff_orders
for w in recomputed.walls:
    kind = "incoming" if w.incoming else "outgoing"
    print(f"  ray {w.ray} {kind:8s} {wall_label(w, orders2)}")

print()
print("equivalent at order 6:", ok)

# the same invariance in infinite type, where neither side is a finite
# object and the comparison is order by order
kron = FixedData(B=((0, -2), (2, 0)), d=(1, 1), r=(2, 2))
sk = initial_seed(kron, with_cluster=False, semifield=False)
for k in (1, 2):
    _, _, ok = tk_invariance_check(sk, k, order=6)
    print(f"degrees (2,2), direction {k}, order 6:", ok)
