import itertools
import json
import random
import tracemalloc
from dataclasses import replace

import pytest

from knotquiver import quiver
from knotquiver.algebra import (
    builtin,
    constant_action_biquandle_z2,
    core_cyclic,
    endomorphisms,
    swap3,
    trivial_quandle,
)
from knotquiver.catalog import get_diagram
from knotquiver.cohomology import CoeffGroup, evaluate, h2_generators
from knotquiver.diagram import (
    Crossing,
    LinkDiagram,
    braid_closure,
    mirror,
    parse_gauss,
    r1_kink,
    r2_poke,
)
from knotquiver.polynomials import (
    char_poly,
    edge_char_polynomial,
    edge_matrix_polynomial,
    maximal_paths,
    path_char_polynomial,
    path_matrix_polynomial,
)
from knotquiver.quiver import (
    DataVector,
    RepQuiver,
    build_coloring_quiver,
    build_representation,
    quiver_isomorphic,
)

from test_polynomials import dense

EVAL_VECTORS = [
    (0, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
]

LEAF = [[0, 1, 1], [0, 0, 0], [1, 0, 0]]
MID = [[2, 0, 1], [0, 0, 0], [0, 0, 0]]
CONST = [[3, 0, 0], [0, 0, 0], [0, 0, 0]]


def ref_l4():
    return LinkDiagram(
        [
            Crossing(1, under_in=0, over_in=7, under_out=1, over_out=4),
            Crossing(1, under_in=6, over_in=1, under_out=7, over_out=2),
            Crossing(1, under_in=2, over_in=5, under_out=3, over_out=6),
            Crossing(1, under_in=4, over_in=3, under_out=5, over_out=0),
        ]
    )


def ref_data():
    return DataVector(swap3(), CoeffGroup(3), EVAL_VECTORS, [(2, 2, 1)])


def two_crossing_virtual():
    return parse_gauss("O1+ O2+ U1+ U2+")


def virtual_data():
    bq = constant_action_biquandle_z2()
    return DataVector(bq, CoeffGroup(3), [(1, 0), (0, 1)], [(1, 2), (2, 1)])


def test_data_vector_validates_shapes():
    with pytest.raises(ValueError):
        DataVector(swap3(), CoeffGroup(3), [(1, 0)], [(2, 2, 1)])
    with pytest.raises(ValueError):
        DataVector(swap3(), CoeffGroup(3), EVAL_VECTORS, [(2, 1, 1)])
    # functionals that are not cocycles are allowed on purpose
    dv = ref_data()
    assert len(dv.vectors) == 3


def test_data_vector_solves_hom_x_x_for_none_and_checks_no_map(monkeypatch):
    bq = swap3()
    want = DataVector(bq, CoeffGroup(3), EVAL_VECTORS, endomorphisms(bq))
    # the solved maps are not checked again; maps that are given still are
    monkeypatch.setattr(quiver, "is_homomorphism", None)
    assert DataVector(bq, CoeffGroup(3), EVAL_VECTORS, None) == want
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^map \(2, 1, 1\) is not an endomorphism$"):
        DataVector(bq, CoeffGroup(3), EVAL_VECTORS, [(2, 2, 1), (2, 1, 1)])


def test_representation_needs_finite_coefficients():
    dv = DataVector(swap3(), CoeffGroup(0), EVAL_VECTORS, [(2, 2, 1)])
    with pytest.raises(ValueError):
        build_representation(ref_l4(), dv)


def test_coloring_quiver_of_trefoil():
    d = braid_closure([1, 1, 1])
    cols, arrows = build_coloring_quiver(d, core_cyclic(3), [(1, 1, 1), (2, 3, 1)])
    assert len(cols) == 9
    assert len(arrows) == 18
    assert all(0 <= s < 9 and 0 <= t < 9 for s, t, _ in arrows)


def test_reference_quiver_structure():
    q = build_representation(ref_l4(), ref_data())
    assert len(q.vertices) == 9
    assert len(q.edges) == 9
    assert q.modulus == 3

    at = {(c[0], c[4]): i for i, c in enumerate(q.vertices)}
    arrow = {}
    for (src, tgt, mat), k in zip(q.edges, q.edge_endos):
        assert k == 0
        arrow[src] = (tgt, mat)

    # push-forward collapses the coloring space onto the monochrome sink
    graph = {
        (3, 3): (1, 1),
        (3, 1): (1, 2),
        (3, 2): (1, 2),
        (1, 3): (2, 1),
        (2, 3): (2, 1),
        (1, 1): (2, 2),
        (1, 2): (2, 2),
        (2, 1): (2, 2),
        (2, 2): (2, 2),
    }
    for params, image in graph.items():
        assert arrow[at[params]][0] == at[image]

    for params, mat in [
        ((3, 1), LEAF),
        ((3, 2), LEAF),
        ((1, 3), LEAF),
        ((2, 3), LEAF),
        ((1, 2), MID),
        ((2, 1), MID),
        ((3, 3), CONST),
        ((1, 1), CONST),
        ((2, 2), CONST),
    ]:
        assert dense(arrow[at[params]][1], 3) == mat

    assert q.subspaces[at[(3, 1)]] == (0, 1, 2)
    assert q.subspaces[at[(1, 2)]] == (0, 2)
    assert q.subspaces[at[(2, 2)]] == (0,)


def test_edge_mass_and_support():
    q = build_representation(ref_l4(), ref_data())
    vals = []
    for chain in q.chains:
        vals.append([sum(a * b for a, b in zip(phi, chain)) % 3 for phi in EVAL_VECTORS])
    for src, tgt, mat in q.edges:
        mat = dense(mat, 3)
        assert sum(sum(row) for row in mat) == len(EVAL_VECTORS)
        nonzero_cols = {c for row in mat for c, e in enumerate(row) if e}
        assert nonzero_cols == set(vals[src]) == set(q.subspaces[src])
        nonzero_rows = {r for r, row in enumerate(mat) if any(row)}
        assert nonzero_rows == set(vals[tgt]) == set(q.subspaces[tgt])
        for c in range(3):
            assert sum(mat[r][c] for r in range(3)) == vals[src].count(c)


def test_reference_polynomials():
    q = build_representation(ref_l4(), ref_data())
    assert char_poly(LEAF).render() == "t^3-t"
    assert edge_char_polynomial(q).render() == "9t^3-13t^2-4t"
    assert edge_matrix_polynomial(q).render() == "4x^2+6y^2+4y+13"
    paths = maximal_paths(q)
    assert len(paths) == 5
    assert all(len(p) == 3 for p in paths)
    assert path_char_polynomial(q).render() == "5s^3t^3-39s^3t^2"
    assert path_matrix_polynomial(q).render() == "24x^2z^3+24xz^3+39z^3"


def test_composite_endomorphism_arrows():
    # push-forward composes, and every arrow keeps mass |C| no matter
    # which endomorphism produced it (matrices do not compose: each is
    # built from its own endpoints, not from intermediate steps)
    sigma = (2, 2, 1)
    square = tuple(sigma[sigma[x - 1] - 1] for x in (1, 2, 3))
    dv = DataVector(swap3(), CoeffGroup(3), EVAL_VECTORS, [sigma, square])
    q = build_representation(ref_l4(), dv)
    step, twostep = {}, {}
    for (src, tgt, mat), k in zip(q.edges, q.edge_endos):
        (step if k == 0 else twostep)[src] = (tgt, mat)
    for v, (mid, _) in step.items():
        assert twostep[v][0] == step[mid][0]
        assert sum(sum(row) for row in dense(twostep[v][1], 3)) == len(EVAL_VECTORS)


def test_virtual_reference_quiver():
    d = two_crossing_virtual()
    q = build_representation(d, virtual_data())
    assert len(q.vertices) == 2
    assert len(q.edges) == 4
    bump = ((0, 0, 0), (0, 2, 0), (0, 0, 0))
    assert all(tuple(map(tuple, dense(mat, 3))) == bump for _, _, mat in q.edges)
    assert all(sub == (1,) for sub in q.subspaces)
    assert edge_char_polynomial(q).render() == "4t^3-8t^2"
    assert edge_matrix_polynomial(q).render() == "8xy"
    paths = maximal_paths(q)
    assert len(paths) == 4
    assert all(len(p) == 4 for p in paths)
    assert path_char_polynomial(q).render() == "4s^4t^3-64s^4t^2"
    assert path_matrix_polynomial(q).render() == "64xyz^4"


def test_virtual_mirror_quiver_differs():
    d = two_crossing_virtual()
    q = build_representation(d, virtual_data())
    qm = build_representation(mirror(d), virtual_data())
    assert edge_matrix_polynomial(qm).render() == "8x^2y^2"
    assert path_matrix_polynomial(qm).render() == "64x^2y^2z^4"
    assert quiver_isomorphic(q, q)
    assert not quiver_isomorphic(q, qm)


def identity_quiver(arrows, maps=1):
    """Two vertices with equal subspaces; arrows are (source, target, map
    index) triples, each carrying the 2 x 2 identity matrix."""
    identity = ((1, 0), (0, 1))
    return RepQuiver(
        vertices=[(1,), (2,)], chains=[[0], [0]], subspaces=[(0,), (0,)],
        edges=[(src, tgt, identity) for src, tgt, _ in arrows],
        edge_endos=[k for _, _, k in arrows], endos=[(1, 2)] * maps, modulus=2,
    )


LOOPS = [(0, 0, 0), (1, 1, 0)]


def test_isomorphism_checks_arrow_targets():
    # equal subspaces and matrices at every vertex, so only the check of
    # the completed bijection tells the two loops from the swap
    loops, swap = identity_quiver(LOOPS), identity_quiver([(0, 1, 0), (1, 0, 0)])
    assert quiver_isomorphic(loops, loops)
    assert quiver_isomorphic(swap, swap)
    assert not quiver_isomorphic(loops, swap)
    assert not quiver_isomorphic(swap, loops)


def test_isomorphism_rejects_mismatched_shapes():
    loops = identity_quiver(LOOPS)
    # equal arrows and matrices, so only the modulus tells these apart
    assert not quiver_isomorphic(loops, replace(loops, modulus=3))
    # an extra vertex without arrows
    bigger = replace(
        loops, vertices=loops.vertices + [(3,)], chains=loops.chains + [[0]],
        subspaces=loops.subspaces + [(0,)],
    )
    assert not quiver_isomorphic(loops, bigger)
    assert not quiver_isomorphic(bigger, loops)
    # vertex 1 has no arrow for map 1: no coloring quiver looks like that,
    # so it is not even isomorphic to itself
    partial = identity_quiver(LOOPS + [(0, 1, 1)], maps=2)
    assert not quiver_isomorphic(partial, partial)


def test_isomorphism_rejects_two_arrows_for_one_map():
    doubled = identity_quiver([(0, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="^vertex 0 has two arrows for map 0$"):
        quiver_isomorphic(doubled, doubled)


def test_moves_give_isomorphic_quivers():
    cases = [
        (ref_l4(), ref_data(), 0, 5),
        (two_crossing_virtual(), virtual_data(), 0, 2),
    ]
    for d, dv, a, b in cases:
        q = build_representation(d, dv)
        kinked = build_representation(r1_kink(d, 1, sign=-1), dv)
        poked = build_representation(r2_poke(d, a, b), dv)
        assert quiver_isomorphic(q, kinked)
        assert quiver_isomorphic(q, poked)
        assert quiver_isomorphic(kinked, poked)


def test_json_round_trip():
    q = build_representation(ref_l4(), ref_data())
    q2 = RepQuiver.from_json(q.to_json())
    assert q2.vertices == q.vertices
    assert q2.chains == q.chains
    assert q2.subspaces == q.subspaces
    assert q2.edges == q.edges
    assert q2.edge_endos == q.edge_endos
    assert q2.modulus == q.modulus
    for fn in (
        edge_char_polynomial,
        edge_matrix_polynomial,
        path_char_polynomial,
        path_matrix_polynomial,
    ):
        assert fn(q2).render() == fn(q).render()


@pytest.mark.parametrize("entry", [
    [3, 0, 1],  # row = m
    [0, -1, 1],  # column -1
    [0, 0, 0],  # value 0
    [0, 1, 1],  # the position of the entry before it
    [0, 1],  # two elements
    0,  # a bare int: the dense layout written before
], ids=["row_m", "column_minus_1", "value_0", "repeated_position", "pair", "bare_int"])
def test_json_rejects_a_malformed_matrix_entry(entry):
    blob = json.loads(build_representation(ref_l4(), ref_data()).to_json())
    assert blob["edges"][3]["matrix"] == [[0, 1, 1], [0, 2, 1], [2, 0, 1]]
    blob["edges"][3]["matrix"][1] = entry
    with pytest.raises(ValueError, match=r"^edge 3: matrix entry .* is not \[row, column, value\]"):
        RepQuiver.from_json(json.dumps(blob))


@pytest.mark.parametrize("matrix", [5, None, {"0": 1}], ids=["int", "null", "object"])
def test_json_rejects_a_matrix_that_is_not_a_list(matrix):
    blob = json.loads(build_representation(ref_l4(), ref_data()).to_json())
    blob["edges"][2]["matrix"] = matrix
    with pytest.raises(ValueError, match="^edge 2: matrix .* is not a list of entries$"):
        RepQuiver.from_json(json.dumps(blob))


@pytest.mark.parametrize("key, value, size", [
    ("source", 9, 9), ("source", -1, 9), ("target", 99, 9), ("endo", 5, 1),
])
def test_json_rejects_an_arrow_that_points_nowhere(key, value, size):
    # a target off the 9 vertices changed the path polynomials, and
    # quiver_isomorphic raised IndexError on such a quiver
    blob = json.loads(build_representation(ref_l4(), ref_data()).to_json())
    blob["edges"][1][key] = value
    with pytest.raises(ValueError, match="^edge 1: %s %d is not an index below %d$"
                       % (key, value, size)):
        RepQuiver.from_json(json.dumps(blob))


def entry_form_quivers():
    """(quiver, number of vectors) pairs: the reference quivers, L4a1
    under all of End(swap3), and core-4 quivers over seeded moduli with
    seeded vectors, some of whose labels coincide."""
    yield build_representation(ref_l4(), ref_data()), 3
    yield build_representation(two_crossing_virtual(), virtual_data()), 2
    every_endo = DataVector(swap3(), CoeffGroup(3), EVAL_VECTORS, None)
    yield build_representation(get_diagram("L4a1"), every_endo), 3
    rng = random.Random(31)
    bq = core_cyclic(4)
    for m in (2, 5, 7, 64):
        vectors = [[rng.randrange(m) for _ in range(12)] for _ in range(rng.randint(1, 4))]
        data = DataVector(bq, CoeffGroup(m), vectors, [(2, 4, 2, 4), (1, 2, 3, 4), (3, 2, 1, 4)])
        link = get_diagram(rng.choice(("L4a1", "3_1", "L5a1")))
        yield build_representation(link, data), len(vectors)


def test_arrow_matrices_are_their_sorted_nonzero_entries():
    for q, c in entry_form_quivers():
        m = q.modulus
        for _, _, mat in q.edges:
            keys = [ij for ij, _ in mat]
            assert keys == sorted(set(keys))
            assert all(type(a) is int and a for _, a in mat)
            assert all(0 <= i < m and 0 <= j < m for i, j in keys)
            assert sum(a for _, a in mat) == c
        blob = json.loads(q.to_json())
        assert "labels" not in blob
        assert [rec["matrix"] for rec in blob["edges"]] == [
            [[i, j, a] for (i, j), a in mat] for _, _, mat in q.edges]
        assert RepQuiver.from_json(q.to_json()).edges == q.edges


def test_arrows_whose_ends_carry_equal_labels_share_one_matrix():
    data = DataVector(swap3(), CoeffGroup(3), EVAL_VECTORS, None)
    q = build_representation(get_diagram("L4a1"), data)
    labels = [tuple(evaluate(data.coeff, phi, chain) for phi in data.vectors)
              for chain in q.chains]
    shared = {}
    for src, tgt, mat in q.edges:
        assert type(mat) is tuple and all(type(row) is tuple for row in mat)
        assert shared.setdefault((labels[src], labels[tgt]), mat) is mat
    # 63 arrows, 6 distinct label pairs, 6 matrix objects
    assert (len(q.edges), len(shared)) == (63, 6)
    assert len({id(mat) for _, _, mat in q.edges}) == 6
    back = RepQuiver.from_json(q.to_json())
    assert back.edges == q.edges
    assert all(type(mat) is tuple and all(type(row) is tuple for row in mat)
               for _, _, mat in back.edges)


def test_representation_memory_grows_with_label_pairs_not_arrows():
    # H^2 of core-21 over Z_21 is trivial, so all 27,783 arrows carry the
    # zero 21 x 21 matrix: about 140 MB of lists when each arrow had its
    # own, about 5 MB when they share one
    bq = builtin("core-21")
    coeff = CoeffGroup(21)
    data = DataVector(bq, coeff, [vec for _, vec in h2_generators(bq, coeff)],
                      endomorphisms(bq))
    assert data.vectors == ()
    diagram = get_diagram("3_1")
    tracemalloc.start()
    try:
        q = build_representation(diagram, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q.edges) == 27_783
    assert peak < 16_000_000, peak


def test_all_endomorphisms_quiver():
    bq = constant_action_biquandle_z2()
    endos = endomorphisms(bq)
    assert sorted(endos) == [(1, 2), (2, 1)]
    d = two_crossing_virtual()
    cols, arrows = build_coloring_quiver(d, bq, endos)
    assert len(cols) == 2 and len(arrows) == 4


def relabelled(q, rng):
    """q with its vertices renumbered by a seeded permutation and its
    arrows listed in a shuffled order."""
    n = len(q.vertices)
    perm = rng.sample(range(n), n)
    old = [0] * n
    for v, new in enumerate(perm):
        old[new] = v
    arrows = rng.sample(list(zip(q.edges, q.edge_endos)), len(q.edges))
    return replace(
        q, vertices=[q.vertices[v] for v in old], chains=[q.chains[v] for v in old],
        subspaces=[q.subspaces[v] for v in old],
        edges=[(perm[src], perm[tgt], mat) for (src, tgt, mat), _ in arrows],
        edge_endos=[k for _, k in arrows],
    )


def test_isomorphism_of_a_quiver_of_1728_vertices():
    # every map is an endomorphism of trivial-12; L6a4 has three
    # components, so 12^3 colorings, and one vertex per coloring was one
    # level of recursion in the search this replaced
    bq = trivial_quandle(12)
    rng = random.Random(28)
    vec = [rng.randrange(3) for _ in range(bq.n * (bq.n - 1))]
    shift = tuple(x % 12 + 1 for x in bq.elements)
    collapse = tuple(min(x, 5) for x in bq.elements)
    data = DataVector(bq, CoeffGroup(3), [vec], [shift, collapse])
    q = build_representation(get_diagram("L6a4"), data)
    assert len(q.vertices) == 1728
    assert quiver_isomorphic(q, q)
    r = relabelled(q, rng)
    assert quiver_isomorphic(q, r) and quiver_isomorphic(r, q)


def test_isomorphism_compares_signature_multiplicities(monkeypatch):
    # the same two signatures, once and twice against twice and once: no
    # bijection can exist, and the search is never entered
    def searched(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(quiver, "_match", searched)
    one = identity_quiver(LOOPS)
    a = replace(one, vertices=[(1,), (2,), (3,)], chains=[[0]] * 3,
                subspaces=[(0,), (1,), (1,)],
                edges=one.edges + [(2, 2, one.edges[0][2])], edge_endos=[0, 0, 0])
    b = replace(a, subspaces=[(0,), (0,), (1,)])
    assert not quiver_isomorphic(a, b)
    assert not quiver_isomorphic(b, a)


def brute_force_isomorphic(q1, q2):
    """Whether some vertex permutation carries q1 onto q2: equal
    subspaces, and each arrow to one of the same map and matrix."""
    n = len(q1.vertices)
    if len(q2.vertices) != n:
        return False
    arrows2 = {(src, k): (tgt, mat) for (src, tgt, mat), k in zip(q2.edges, q2.edge_endos)}
    arrows1 = list(zip(q1.edges, q1.edge_endos))
    return any(
        all(q1.subspaces[v] == q2.subspaces[perm[v]] for v in range(n))
        and all(arrows2.get((perm[src], k)) == (perm[tgt], mat)
                for (src, tgt, mat), k in arrows1)
        for perm in itertools.permutations(range(n)))


def test_isomorphism_matches_brute_force_on_small_quivers():
    rng = random.Random(29)
    matrices = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    found = {True: 0, False: 0}
    for _ in range(300):
        n, maps = rng.randint(1, 6), rng.randint(1, 2)
        q = RepQuiver(
            vertices=[(v,) for v in range(n)], chains=[[0]] * n,
            subspaces=[rng.choice(((0,), (1,))) for _ in range(n)],
            edges=[(v, rng.randrange(n), rng.choice(matrices)) for v in range(n) for _ in range(maps)],
            edge_endos=[k for _ in range(n) for k in range(maps)], endos=[(1,)] * maps, modulus=2)
        other = relabelled(q, rng) if rng.random() < 0.5 else replace(
            q, edges=[(src, rng.randrange(n), mat) for src, _, mat in q.edges])
        want = brute_force_isomorphic(q, other)
        assert quiver_isomorphic(q, other) == want
        found[want] += 1
    assert min(found.values()) >= 100, found
