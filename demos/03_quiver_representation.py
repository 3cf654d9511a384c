"""From colorings to a decorated quiver and four polynomials.

Every endomorphism of the coloring algebra pushes colorings forward,
giving a directed graph on the homset.  Evaluating a family of
2-cochains on chain vectors decorates each arrow with an integer
matrix.  Characteristic and matrix polynomials, summed over arrows or
over maximal non-repeating paths, give four computable invariants.
"""

from knotquiver import (
    CoeffGroup,
    DataVector,
    build_representation,
    edge_char_polynomial,
    edge_matrix_polynomial,
    get_diagram,
    maximal_paths,
    path_char_polynomial,
    path_matrix_polynomial,
    swap3,
)

# an order-3 quandle, three evaluation vectors, and a single
# non-identity endomorphism sending 1, 2, 3 to 2, 2, 1
data = DataVector(
    algebra=swap3(),
    coeff=CoeffGroup(3),
    vectors=[[0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
    endos=[(2, 2, 1)],
)

link = get_diagram("L4a1")
rq = build_representation(link, data)
print("quiver: %d vertices, %d arrows" % (len(rq.vertices), len(rq.edges)))

# each arrow carries a 3x3 matrix, held as its nonzero entries
# ((row, column), value); total entry mass equals the number of
# evaluation vectors; show the arrow with the most of them
src, tgt, mat = max(rq.edges, key=lambda edge: len(edge[2]))
print("one arrow %d -> %d with nonzero matrix entries:" % (src, tgt))
for (row, col), value in mat:
    print("   [%d][%d] = %d" % (row, col, value))

paths = maximal_paths(rq)
print("maximal non-repeating paths:", len(paths),
      "with lengths", sorted({len(p) for p in paths}))

print("edge characteristic: ", edge_char_polynomial(rq).render())
print("edge matrix:         ", edge_matrix_polynomial(rq).render())
print("path characteristic: ", path_char_polynomial(rq).render())
print("path matrix:         ", path_matrix_polynomial(rq).render())

# the quiver serializes to JSON and back without losing anything
roundtrip = type(rq).from_json(rq.to_json())
assert edge_char_polynomial(roundtrip).render() == edge_char_polynomial(rq).render()
print("JSON round trip: ok")
