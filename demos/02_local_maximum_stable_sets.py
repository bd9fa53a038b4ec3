"""Local maximum stable sets: the family Psi and its two membership routes.

A set S is locally maximum when it is a maximum stable set of the
subgraph induced by N[S].  Such sets always extend to maximum stable
sets of the whole graph, but not every maximum stable set can be reached
by growing one vertex at a time - that failure is exactly what the
greedoid question is about.
"""

from lmss import (
    alpha,
    extends_to_maximum,
    fixture,
    is_very_well_covered,
    neighborhood,
    omega_enumerate,
    psi_enumerate,
    psi_member_oracle,
)

g = fixture("fig2_G")
print(g)
print("alpha =", alpha(g), " maximum stable sets:", list(omega_enumerate(g)))

for names in [("a",), ("b",), ("e", "d"), ("a", "e"), ("a", "d", "f"), ("c", "f")]:
    s = g.set_of(*names)
    print(f"  {s} locally maximum? {psi_member_oracle(g, s)}")

print("\nwhole family:", list(psi_enumerate(g)))

# Every member extends to a maximum stable set.
s = g.set_of("e", "g")
print(f"\n{s} extends to", extends_to_maximum(g, s))

# On very well-covered graphs, membership reduces to counting neighbours.
vwc = fixture("fig6_G1")
assert is_very_well_covered(vwc)
for names in [("b", "e"), ("b", "d")]:
    s = vwc.set_of(*names)
    print(
        f"\n|{s}| = {len(s)}, |N({s})| = {len(neighborhood(vwc, s))}"
        f" -> member: {len(s) == len(neighborhood(vwc, s))}"
        f" (oracle agrees: {psi_member_oracle(vwc, s)})"
    )
