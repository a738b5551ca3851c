"""
Exchange degrees (1,2): a rank-2 pattern that closes after six steps
====================================================================

Mutating alternately in directions 1 and 2 walks a hexagon of seeds.
Every cluster variable along the way is a Laurent polynomial in the
initial variables, and only six distinct variables ever appear.
"""

from clusterscatter import (
    FixedData,
    chart_variables,
    explore_pattern,
    initial_seed,
    pattern_walk,
    seed_mutate,
    seeds_equal,
)
from clusterscatter.cluster_core import distinct_cluster_variables

# skew-symmetrizable exchange matrix with polynomial degrees (1, 2),
# one coefficient slot for direction 1 and two for direction 2
data = FixedData(B=((0, -2), (1, 0)), d=(1, 2), r=(1, 2))
s0 = initial_seed(data)

print("initial exchange matrix rows:", data.B)
print("polynomial degrees per direction:", data.r)
print()

# walk 1,2,1,2,... and watch the coefficient exponents; after 6 steps the
# seed closes up, with the two direction-2 coefficient slots traded
s = s0
for step in range(1, 7):
    k = 1 if step % 2 else 2
    s = seed_mutate(s, k)
    print(f"after step {step} (direction {k}): c-matrix blocks {s.coeffs}")
print()
print("closed after 6 steps (slots as multisets):", seeds_equal(s, s0))
print("closed after 6 steps (slots in order):   ", seeds_equal(s, s0, strict=True))
print("closed after 12 steps (slots in order):  ",
      seeds_equal(pattern_walk(s0, (1, 2) * 6), s0, strict=True))

# the involution mu_k mu_k = id holds at every seed
assert seeds_equal(seed_mutate(seed_mutate(s0, 2), 2), s0)

# a pattern walk with memoization reduces the word first: 1 2 2 1 == empty
assert seeds_equal(pattern_walk(s0, (1, 2, 2, 1)), s0)

# every seed reachable within depth 8 carries variables from the same
# finite list; collect them
seeds = explore_pattern(s0, 8)
variables = distinct_cluster_variables(seeds.values())
print("labeled seeds within depth 8:", len(seeds))
print("distinct cluster variables:", len(variables))
print()

# chart variables: each variable is a Laurent polynomial over the initial chart
print("the variables of the twice-mutated seed, written in the initial chart:")
for x in chart_variables(s0, (1, 2)):
    print("  ", x)
