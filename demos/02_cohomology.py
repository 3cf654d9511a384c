"""Second cohomology of a finite biquandle and the state-sum invariant.

Cochains live on the nondegenerate pairs (x, y), x != y.  The boundary
maps are integer matrices, so kernels, images and quotients all come
from Smith normal form.  A 2-cocycle turns each coloring into a group
element (its Boltzmann weight); collecting q^weight over the homset
gives a polynomial refining the counting invariant.
"""

from knotquiver import (
    CoeffGroup,
    chain_vector,
    cocycle_invariant,
    colorings,
    core_cyclic,
    get_diagram,
    h2_coordinates,
    h2_generators,
    is_coboundary,
    is_cocycle,
    pair_basis,
    weight_multiset,
)

Z = CoeffGroup(0)

bq = core_cyclic(4)
print("pair basis of", bq, "has", len(pair_basis(bq)), "elements")

gens = h2_generators(bq, Z)
print("integral H^2 summands:", [order or "Z" for order, _ in gens])
for order, vec in gens:
    print("  generator", vec)

phi = [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
print("phi is a cocycle:", is_cocycle(bq, Z, phi))
print("phi is a coboundary:", is_coboundary(bq, Z, phi))
print("class of phi over the generators:", h2_coordinates(bq, Z, phi))

link = get_diagram("L4a1")
poly = cocycle_invariant(link, bq, Z, phi)
print("state sum on L4a1:", poly.render())
chains = [chain_vector(link, bq, col) for col in colorings(link, bq)]
print("as weight multiset:", weight_multiset(Z, phi, chains))
