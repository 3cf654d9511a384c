import hashlib
import itertools
import random
import tracemalloc

import pytest

from knotquiver import homset
from knotquiver.algebra import Biquandle, builtin, constant_action_biquandle_z2, core_cyclic, swap3
from knotquiver.catalog import catalog_names, get_diagram
from knotquiver.diagram import (
    Crossing,
    LinkDiagram,
    braid_closure,
    gauss_string,
    mirror,
    parse_gauss,
    r1_kink,
    r2_poke,
)
from knotquiver.homset import (
    _constraints,
    _plan,
    chain_vector,
    chain_vectors,
    colorings,
    counting_invariant,
    pair_basis,
    push_forward,
)

from test_algebra import affine_tables


def ref_l4():
    # antiparallel 4-crossing torus link used for chain calibration: two
    # 4-semiarc components p0..p3 = 0..3 and q0..q3 = 4..7, all positive
    return LinkDiagram(
        [
            Crossing(1, under_in=0, over_in=7, under_out=1, over_out=4),
            Crossing(1, under_in=6, over_in=1, under_out=7, over_out=2),
            Crossing(1, under_in=2, over_in=5, under_out=3, over_out=6),
            Crossing(1, under_in=4, over_in=3, under_out=5, over_out=0),
        ]
    )


def test_pair_basis_order():
    assert pair_basis(swap3()) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def test_hopf_counting():
    h = braid_closure([1, 1])
    assert counting_invariant(h, core_cyclic(3)) == 3
    assert counting_invariant(h, core_cyclic(2)) == 4
    assert counting_invariant(h, swap3()) == 5


def test_colorings_sorted_and_consistent():
    h = braid_closure([1, 1])
    cols = colorings(h, swap3())
    assert cols == sorted(cols)
    # verify each coloring satisfies every crossing relation directly
    bq = swap3()
    for col in cols:
        for c in h.crossings:
            if c.sign > 0:
                assert col[c.under_out] == bq.under(col[c.under_in], col[c.over_in])
                assert col[c.over_out] == bq.over(col[c.over_in], col[c.under_in])
            else:
                assert col[c.under_in] == bq.under(col[c.under_out], col[c.over_out])
                assert col[c.over_in] == bq.over(col[c.over_out], col[c.under_out])


def test_monochromatic_always_present():
    d = braid_closure([1, 1, 1])
    bq = core_cyclic(3)
    cols = colorings(d, bq)
    for x in bq.elements:
        assert tuple([x] * d.n_semiarcs) in cols


def test_virtual_trefoil_colorings_and_chains():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    bq = constant_action_biquandle_z2()
    cols = colorings(d, bq)
    assert len(cols) == 2
    assert [chain_vector(d, bq, c) for c in cols] == [[1, 1], [1, 1]]
    m = mirror(d)
    mcols = colorings(m, bq)
    assert len(mcols) == 2
    assert [chain_vector(m, bq, c) for c in mcols] == [[-1, -1], [-1, -1]]


def test_reference_link_chain_vectors():
    d = ref_l4()
    bq = swap3()
    cols = colorings(d, bq)
    assert len(cols) == 9
    by_params = {(c[0], c[4]): c for c in cols}
    # component colors (a, b) determine the rest
    assert by_params[(3, 1)] == (3, 3, 3, 3, 1, 2, 2, 1)
    assert chain_vector(d, bq, by_params[(3, 1)]) == [0, 1, 0, 1, 1, 1]
    assert by_params[(1, 2)] == (1, 1, 1, 1, 2, 2, 2, 2)
    assert chain_vector(d, bq, by_params[(1, 2)]) == [2, 0, 2, 0, 0, 0]


def chain_multiset(d, bq):
    return sorted(tuple(chain_vector(d, bq, c)) for c in colorings(d, bq))


def test_kink_preserves_chains():
    cases = [
        (braid_closure([1, 1, 1]), core_cyclic(3)),
        (parse_gauss("O1+ O2+ U1+ U2+"), constant_action_biquandle_z2()),
        (ref_l4(), swap3()),
    ]
    for d, bq in cases:
        base = chain_multiset(d, bq)
        for over_first in (False, True):
            for sign in (1, -1):
                k = r1_kink(d, 1, sign=sign, over_first=over_first)
                assert chain_multiset(k, bq) == base


def test_poke_preserves_chains():
    cases = [
        (braid_closure([1, 1, 1]), core_cyclic(3), 0, 1),
        (parse_gauss("O1+ O2+ U1+ U2+"), constant_action_biquandle_z2(), 0, 2),
        (ref_l4(), swap3(), 0, 5),
    ]
    for d, bq, a, b in cases:
        base = chain_multiset(d, bq)
        p = r2_poke(d, a, b)
        assert chain_multiset(p, bq) == base


def test_braid_relation_preserves_chains():
    # the two sides of the third move as braid words
    lhs = braid_closure([1, 2, 1, 1, 2])
    rhs = braid_closure([2, 1, 2, 1, 2])
    bq = core_cyclic(3)
    assert chain_multiset(lhs, bq) == chain_multiset(rhs, bq)


def test_coloring_lookups_built_once_per_algebra(monkeypatch):
    # the operation tables of colorings and the pair table of chain_vector
    # are built on first use and kept on the algebra
    bq = core_cyclic(5)
    diagrams = [braid_closure([1, 1, 1]), braid_closure([1, -2, 1, -2])]
    found = [colorings(d, bq) for d in diagrams]
    chains = [[chain_vector(d, bq, col) for col in cols] for d, cols in zip(diagrams, found)]

    def rebuilt(*args):
        raise AssertionError("lookup rebuilt")

    class Unread(list):
        # an operation table that keeps its length but fails on any read
        __iter__ = __getitem__ = rebuilt

    # the eight tables are one pass over the algebra's relations; up to
    # order 15 they are the byte tables the lanes translate through
    tables = homset._tables(bq)
    assert all(type(table) is bytes and len(table) == 256 for table in tables)
    monkeypatch.setattr(bq, "under_table", Unread(bq.under_table))
    monkeypatch.setattr(bq, "over_table", Unread(bq.over_table))
    monkeypatch.setattr(Biquandle, "through_inv", rebuilt)
    monkeypatch.setattr(homset, "pair_basis", rebuilt)
    assert [colorings(d, bq) for d in diagrams] == found
    assert [[chain_vector(d, bq, col) for col in cols]
            for d, cols in zip(diagrams, found)] == chains
    assert all(a is b for a, b in zip(homset._tables(bq), tables))


def reference_chain_vector(diagram, bq, coloring):
    # the per-coloring loop chain_vectors replaced: one pass over the
    # crossings, one dict lookup per nondegenerate pair
    index = {p: i for i, p in enumerate(pair_basis(bq))}
    vec = [0] * len(index)
    for c in diagram.crossings:
        if c.sign > 0:
            pair = (coloring[c.under_in], coloring[c.over_out])
        else:
            pair = (coloring[c.under_out], coloring[c.over_in])
        if pair[0] != pair[1]:
            vec[index[pair]] += c.sign
    return vec


@pytest.mark.parametrize("name", ["swap3", "flip2", "core-5", "alexander-7-3"])
def test_chain_vectors_match_the_per_coloring_loop(name):
    bq = builtin(name)
    diagrams = [get_diagram(link) for link in catalog_names()]
    # a kink, and diagrams of one crossing and of none, which chain_vectors
    # reads without itemgetter
    curl = LinkDiagram([Crossing(1, 0, 1, 1, 0)])
    diagrams += [r1_kink(braid_closure([1, 1]), 0), curl, mirror(curl), LinkDiagram([])]
    for d in diagrams:
        cols = colorings(d, bq)
        expected = [reference_chain_vector(d, bq, col) for col in cols]
        assert chain_vectors(d, bq, cols) == expected
        assert [chain_vector(d, bq, col) for col in cols] == expected


def test_chain_vectors_of_a_diagram_without_colorings():
    # under(x, y) = over(x, y) = x + 1 on Z_3 adds 1 to the color at every
    # step along a component, so a component of 4 semiarcs, as the virtual
    # knot 2.1 has, cannot close up
    shift = [[x % 3 + 1] * 3 for x in range(1, 4)]
    bq = Biquandle(shift, shift)
    d = get_diagram("2.1")
    assert colorings(d, bq) == []
    assert chain_vectors(d, bq, colorings(d, bq)) == []


def test_push_forward():
    assert push_forward((1, 2, 3, 1), (2, 2, 1)) == (2, 2, 1, 2)


# ----------------------------------------------------- reference oracles


def reference_colorings(diagram, bq):
    """All colorings by dynamic constraint propagation: after each free
    choice, a queue of crossings derives whatever two known semiarcs of
    a crossing force, and fails on the first clash."""
    n = diagram.n_semiarcs
    cons = _constraints(diagram)
    # the inverses straight from the operation tables, not homset._tables
    under_inv, over_inv, through_inv = {}, {}, {}
    for a in bq.elements:
        for b in bq.elements:
            u, o_ba = bq.under_table[a - 1][b - 1], bq.over_table[b - 1][a - 1]
            under_inv[u, b] = a
            over_inv[bq.over_table[a - 1][b - 1], b] = a
            through_inv[u, o_ba] = (a, b)
    touching = {}
    for idx, quad in enumerate(cons):
        for s in set(quad):
            touching.setdefault(s, []).append(idx)
    color = [0] * n
    out = []

    def propagate(queue, trail):
        while queue:
            idx = queue.pop()
            a, b, c, d = cons[idx]
            va, vb, vc, vd = color[a], color[b], color[c], color[d]
            if va and vb:
                q1, q2 = bq.through(va, vb)
                derived = ((c, q1), (d, q2))
            elif vc and vd:
                p1, p2 = through_inv[vc, vd]
                derived = ((a, p1), (b, p2))
            elif va and vd:
                p2 = over_inv[vd, va]
                derived = ((b, p2), (c, bq.under(va, p2)))
            elif vb and vc:
                p1 = under_inv[vc, vb]
                derived = ((a, p1), (d, bq.over(vb, p1)))
            else:
                continue
            for s, v in derived:
                if color[s] == 0:
                    color[s] = v
                    trail.append(s)
                    queue.extend(j for j in touching[s] if j != idx)
                elif color[s] != v:
                    return False
        return True

    def search(pos):
        while pos < n and color[pos]:
            pos += 1
        if pos == n:
            out.append(tuple(color))
            return
        for v in bq.elements:
            trail = [pos]
            color[pos] = v
            if propagate(list(touching.get(pos, ())), trail):
                search(pos + 1)
            for s in trail:
                color[s] = 0

    search(0)
    return sorted(out)


def brute_force_colorings(diagram, bq):
    """Every assignment of elements to semiarcs that satisfies every
    crossing relation, in lexicographic order."""
    cons = _constraints(diagram)
    return [
        col
        for col in itertools.product(bq.elements, repeat=diagram.n_semiarcs)
        if all(bq.through(col[a], col[b]) == (col[c], col[d]) for a, b, c, d in cons)
    ]


ORACLE_ALGEBRAS = (
    "swap3", "flip2", "core-3", "core-4", "core-5", "alexander-5-2", "alexander-7-3",
    "trivial-3",
)
SMALL_ALGEBRAS = ("swap3", "flip2", "core-3", "trivial-3")
# the highest order whose pair index fits in one byte, and orders past it,
# which the depth-first walk colors
WIDE_ALGEBRAS = ("core-15", "core-16", "core-17", "alexander-17-3")


def random_braid(rng, max_crossings=14):
    """A closure of 2 to 5 strands and at most max_crossings mixed-sign
    letters that uses every strand position."""
    strands = rng.randint(2, min(5, max_crossings + 1))
    letters = list(range(1, strands))
    extra = rng.randint(0, max_crossings - len(letters))
    letters += [rng.randrange(1, strands) for _ in range(extra)]
    rng.shuffle(letters)
    return braid_closure([x * rng.choice((1, -1)) for x in letters], strands=strands)


def random_gauss_knot(rng, max_crossings):
    """A one-component virtual knot: the O and U passages of every
    crossing in random order, each crossing with a random sign."""
    n = rng.randint(1, max_crossings)
    signs = [rng.choice("+-") for _ in range(n)]
    tokens = [(kind, k) for k in range(n) for kind in "OU"]
    rng.shuffle(tokens)
    return parse_gauss(" ".join("%s%d%s" % (kind, k + 1, signs[k]) for kind, k in tokens))


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS + WIDE_ALGEBRAS)
def test_colorings_match_reference_on_the_catalog(name):
    bq = builtin(name)
    for link in catalog_names():
        d = get_diagram(link)
        assert colorings(d, bq) == reference_colorings(d, bq), link


def test_colorings_match_reference_on_random_braids():
    rng = random.Random(8)
    for _ in range(300):
        d = random_braid(rng)
        bq = builtin(rng.choice(ORACLE_ALGEBRAS))
        assert colorings(d, bq) == reference_colorings(d, bq), (d.name, bq)


def test_colorings_match_reference_on_random_virtual_knots():
    rng = random.Random(9)
    for _ in range(500):
        d = random_gauss_knot(rng, 6)
        bq = builtin(rng.choice(ORACLE_ALGEBRAS))
        assert colorings(d, bq) == reference_colorings(d, bq), (gauss_string(d), bq)


@pytest.mark.parametrize("cap", (1, 7))
def test_lane_chunks_keep_the_colorings_and_their_order(monkeypatch, cap):
    rng = random.Random(13)
    cases = [(random_braid(rng), builtin(rng.choice(ORACLE_ALGEBRAS))) for _ in range(100)]
    found = [colorings(d, bq) for d, bq in cases]
    monkeypatch.setattr(homset, "LANE_CAP", cap)
    assert [colorings(d, bq) for d, bq in cases] == found


def test_lane_memory_is_bounded_by_the_cap():
    # under core-15 the closure of this 5-strand word reaches a level of
    # 15^4 = 50,625 lanes; in chunks of at most LANE_CAP lanes the search
    # peaks at about 0.45 MB, and in one chunk at 3.4 MB
    rng = random.Random(5)
    word = [rng.choice([1, 2, 3, 4, -1, -2, -3, -4]) for _ in range(20)]
    d = braid_closure(word)
    bq = builtin("core-15")
    homset._tables(bq)
    tracemalloc.start()
    try:
        found = colorings(d, bq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 15
    assert peak < 1_000_000


def test_empty_diagram_has_one_empty_coloring():
    for name in ("swap3", "core-17"):
        assert colorings(LinkDiagram([]), builtin(name)) == [()]


def test_colorings_match_brute_force_on_small_diagrams():
    rng = random.Random(10)
    small = [get_diagram(link) for link in catalog_names()]
    small = [d for d in small if len(d.crossings) <= 4]
    small += [random_braid(rng, 4) for _ in range(15)]
    small += [random_gauss_knot(rng, 4) for _ in range(15)]
    for d in small:
        for name in SMALL_ALGEBRAS:
            bq = builtin(name)
            assert colorings(d, bq) == brute_force_colorings(d, bq), (gauss_string(d), name)


# sha256 of the colorings below, recorded while each crossing still
# fired as two separate derive steps; any change to the colorings, or to
# their order, changes it
GOLDEN_COLORING_ALGEBRAS = ("swap3", "flip2", "core-3", "core-5", "alexander-5-2", "trivial-3")
GOLDEN_COLORING_DIAGRAMS = 200
GOLDEN_COLORING_DIGEST = "e92249b631af16a1f80daeadd1419a1d2d5b5e75eab5dbddf52d6b101e1fec51"


def golden_coloring_diagrams():
    for link in catalog_names():
        yield link, get_diagram(link)
    rng = random.Random(17)
    for i in range(GOLDEN_COLORING_DIAGRAMS):
        yield "braid %d" % i, random_braid(rng)
    rng = random.Random(18)
    for i in range(GOLDEN_COLORING_DIAGRAMS):
        yield "gauss %d" % i, random_gauss_knot(rng, 6)


def golden_coloring_digest():
    h = hashlib.sha256()
    diagrams = list(golden_coloring_diagrams())
    for name in GOLDEN_COLORING_ALGEBRAS:
        bq = builtin(name)
        for label, d in diagrams:
            h.update(("%s %s %r\n" % (name, label, colorings(d, bq))).encode())
    return h.hexdigest()


def test_colorings_match_golden_digest():
    assert golden_coloring_digest() == GOLDEN_COLORING_DIGEST


def test_colorings_never_overwrite_a_known_semiarc():
    # L7a3 has crossings that fire with three of their four semiarcs
    # known; deriving both targets of the rule there would overwrite the
    # known one and hide its clash from the check, and under core-3 turn
    # 3 colorings into 81.  L7a3 has no kink, so each single derive step
    # in its plan is such a crossing
    d = get_diagram("L7a3")
    plan = _plan(_constraints(d), d.n_semiarcs)
    assert any(check for _, _, check in plan)
    assert any(s == t for _, derive, _ in plan for _, _, s, t, _, _ in derive)
    assert len(colorings(d, core_cyclic(3))) == 3
    for name in ORACLE_ALGEBRAS:
        bq = builtin(name)
        assert colorings(d, bq) == reference_colorings(d, bq), name


def check_lookup_tables(bq):
    # every (x, y): each first table is one operation or an inverse,
    # checked by its defining equation, and the second table of each
    # fused firing is its two single lookups in a row
    size = homset._stride(bq.n)
    tables = homset._tables(bq)
    for x in bq.elements:
        for y in bq.elements:
            under, under_inv, over_inv, inv_1, inv_2, swap, u_oi, o_ui = (
                table[x * size + y] for table in tables)
            assert under == bq.under(x, y)
            assert bq.under(under_inv, y) == x
            assert bq.over(over_inv, y) == x
            assert bq.through(inv_1, inv_2) == (x, y)
            assert swap == bq.over(y, x)
            assert u_oi == bq.under(y, over_inv)
            assert o_ui == bq.over(y, under_inv)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_lookup_tables_match_the_operations(name):
    check_lookup_tables(builtin(name))


def test_lookup_tables_match_the_operations_on_affine_biquandles():
    affine = affine_tables()
    assert len(affine) == 52
    # over(x, y) reads y as well in 22 of them, so a table filled at
    # (y, x) where (x, y) was meant would show
    assert sum(any(len(set(row)) > 1 for row in bq.over_table) for bq in affine) == 22
    for bq in affine:
        check_lookup_tables(bq)


def test_colorings_match_reference_on_r1_kink_closures():
    # a kink's loop joins an in and an out semiarc of one crossing; when
    # the crossing fires from its other two, both targets are the loop,
    # which the first lookup derives and the second checks
    rng = random.Random(12)
    coincident = 0
    for _ in range(40):
        base = random_braid(rng, 8)
        d = r1_kink(base, rng.randrange(base.n_semiarcs), sign=rng.choice((1, -1)),
                    over_first=rng.random() < 0.5)
        plan = _plan(_constraints(d), d.n_semiarcs)
        # a single derive step whose target its level checks at the same pair
        coincident += any(s == t and (s, p, q) in [step[1:] for step in check]
                          for _, derive, check in plan for _, _, s, t, p, q in derive)
        bq = builtin(rng.choice(ORACLE_ALGEBRAS))
        assert colorings(d, bq) == reference_colorings(d, bq), (gauss_string(d), bq)
    assert coincident == 40


def test_plan_derives_each_semiarc_once_from_known_ones():
    rng = random.Random(11)
    diagrams = [get_diagram(link) for link in catalog_names()]
    diagrams += [random_braid(rng) for _ in range(50)]
    diagrams += [random_gauss_knot(rng, 6) for _ in range(50)]
    fused_tables = {
        (homset.UNDER, homset.OVER_SWAP),
        (homset.THROUGH_INV_1, homset.THROUGH_INV_2),
        (homset.OVER_INV, homset.UNDER_AT_OVER_INV),
        (homset.UNDER_INV, homset.OVER_AT_UNDER_INV),
    }
    for d in diagrams:
        known = set()
        fused = single = checks = 0
        for free, derive, check in _plan(_constraints(d), d.n_semiarcs):
            assert free == min(set(range(d.n_semiarcs)) - known)
            known.add(free)
            for first, second, s, t, p, q in derive:
                assert p in known and q in known and not {s, t} & known
                if s == t:
                    assert first == second
                    single += 1
                else:
                    assert (first, second) in fused_tables
                    fused += 1
                known |= {s, t}
            for _, target, p, q in check:
                assert {target, p, q} <= known
            checks += len(check)
        assert known == set(range(d.n_semiarcs))
        # a crossing fires once: as one fused step, or as two single
        # lookups of which each is a derive step or a check
        assert 2 * fused + single + checks == 2 * len(d.crossings)
