"""Fractional contact orders: partitions, floor brackets, automorphism counts.

Shows how a rational intersection total splits into ordered tuples of contact
orders constrained by monodromy orders, and how insertion multisets pick up
their symmetry factors.
"""

from fractions import Fraction as F

from orbidegen.contact import (
    ContactOrder,
    RelInsertion,
    aut_order,
    enumerate_partitions,
    floor_bracket,
)
from orbidegen.expand import gluing_bundle_report

print("floor bracket: [3/2] =", floor_bracket(F(3, 2)),
      " [2] =", floor_bracket(F(2)), " [1/3] =", floor_bracket(F(1, 3)))

print("\nordered partitions of 2 into two slots of monodromy order 2:")
for tup in enumerate_partitions(2, [2, 2]):
    values = " + ".join(str(o.value) for o in tup)
    print(f"  ({', '.join(str(o) for o in tup)})   values {values}")

# the contact values at a divisor sum to its pairing total; ModuliSpec and
# graph.validate enforce it
print("\ncontact values 1/2 + 3/2 sum to",
      sum(o.value for o in (ContactOrder(1, 2), ContactOrder(3, 2))))

triples = [RelInsertion(ContactOrder(1), "h", "b1"),
           RelInsertion(ContactOrder(1), "h", "b1"),
           RelInsertion(ContactOrder(2), "h", "b2")]
print("\n|Aut| of ((1,h,b1), (1,h,b1), (2,h,b2)) =", aut_order(triples))

print("smoothing-parameter cover degree at an order-3 orbifold node:",
      gluing_bundle_report([ContactOrder(1, 3)]).quotient_order)
