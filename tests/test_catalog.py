"""The bundled catalog, verified with an independent invariant.

The Kauffman bracket below is a skein state sum written here, sharing no
code with the coloring layers; normalized by the writhe it is an
invariant of oriented classical and virtual links (Kauffman, Virtual
knot theory, 1999).  With it the tests check the crossing numbers that
the names claim, that the entries are pairwise distinct up to mirror
image and component reversal, and that the diagram moves keep it.
"""

import itertools
from math import comb

import pytest

from knotquiver.catalog import catalog_names, get_code, get_diagram, load_catalog
from knotquiver.homset import counting_invariant
from knotquiver.algebra import swap3
from knotquiver.diagram import (
    Crossing,
    LinkDiagram,
    braid_closure,
    gauss_string,
    mirror,
    r1_kink,
    r2_poke,
    reverse_component,
)

EXPECTED_NAMES = [
    "2.1",
    "3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7",
    "3_1", "4_1",
    "L2a1", "L4a1", "L5a1",
    "L6a1", "L6a2", "L6a3", "L6a4", "L6a5", "L6n1",
    "L7a1", "L7a2", "L7a3", "L7a4", "L7a5", "L7a6", "L7a7",
    "L7n1", "L7n2",
]

# Vertical-flip partners: viewing one from behind gives the other, and
# every invariant in this file values them alike.
FLIP_PAIR = ("3.5", "3.6")


def test_names_complete():
    assert catalog_names() == EXPECTED_NAMES


def test_every_entry_parses():
    for name in catalog_names():
        d = get_diagram(name)
        assert d.crossings
        assert d.name == name


def test_component_counts():
    three_comp = {"L6a4", "L6a5", "L6n1", "L7a7"}
    for name in catalog_names():
        d = get_diagram(name)
        n = len(d.components())
        if name in three_comp:
            assert n == 3, name
        elif name.startswith("L"):
            assert n == 2, name
        else:
            assert n == 1, name


def test_formats():
    fmt, code = get_code("L2a1")
    assert fmt == "pd"
    fmt, code = get_code("2.1")
    assert fmt == "gauss"
    assert code == "O1+ O2+ U1+ U2+"


def test_crossing_numbers_from_names():
    for name in catalog_names():
        d = get_diagram(name)
        if name[0] == "L":
            assert len(d.crossings) == int(name[1])
        elif "." in name:
            assert len(d.crossings) == int(name.split(".")[0])
        else:
            assert len(d.crossings) == int(name.split("_")[0])


def test_unknown_name():
    with pytest.raises(KeyError):
        get_diagram("L99z9")


def test_raw_table_shape():
    for entry in load_catalog():
        assert set(entry) == {"name", "format", "code"}


def test_trefoil_counts():
    # swap3 admits only the constant colorings on the trefoil
    assert counting_invariant(get_diagram("3_1"), swap3()) == 3


# ---------------------------------------------------------------- bracket

# Ends of a crossing by slot: 0 under_in, 1 over_in, 2 under_out,
# 3 over_out.  Smoothing A joins ui~oo and oi~uo at a positive crossing
# and ui~oi, uo~oo at a negative one; smoothing B joins the other pairs.
SMOOTHINGS = {
    1: (((0, 3), (1, 2)), ((0, 1), (2, 3))),
    -1: (((0, 1), (2, 3)), ((0, 3), (1, 2))),
}


def bracket(diagram):
    """Bracket state sum as {exponent of A: coefficient}.

    A state with k + 1 circles adds A^(#A - #B) (-A^2 - A^-2)^k.  Circles
    are counted on the ends of the crossings, so abstract (virtual)
    diagrams need no planar embedding.
    """
    crossings = diagram.crossings
    ends = {}
    for i, c in enumerate(crossings):
        for slot, s in enumerate((c.under_in, c.over_in, c.under_out, c.over_out)):
            ends.setdefault(s, []).append(4 * i + slot)
    arcs = list(ends.values())
    total = {}
    for state in itertools.product((0, 1), repeat=len(crossings)):
        parent = list(range(4 * len(crossings)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        joins = arcs + [
            (4 * i + a, 4 * i + b)
            for i, (c, pick) in enumerate(zip(crossings, state))
            for a, b in SMOOTHINGS[c.sign][pick]
        ]
        for x, y in joins:
            parent[find(x)] = find(y)
        k = len({find(x) for x in range(len(parent))}) - 1
        shift = state.count(0) - state.count(1) + 2 * k
        for j in range(k + 1):
            total[shift - 4 * j] = total.get(shift - 4 * j, 0) + (-1) ** k * comb(k, j)
    return {e: c for e, c in total.items() if c}


def f_invariant(diagram):
    """(-A^3)^-w times the bracket, as sorted (exponent, coefficient) pairs."""
    w = diagram.writhe
    sign = -1 if w % 2 else 1
    return tuple(sorted((e - 3 * w, sign * c) for e, c in bracket(diagram).items()))


def is_alternating(diagram):
    passage = {}
    for c in diagram.crossings:
        passage[c.under_in] = "U"
        passage[c.over_in] = "O"
    return all(
        passage[cyc[i]] != passage[cyc[i - 1]]
        for cyc in diagram.components()
        for i in range(len(cyc))
    )


def affine_index(diagram):
    """Affine index polynomial of a knot diagram as sorted pairs; it
    vanishes on every classical knot."""
    cyc = diagram.components()[0]
    passage = {}
    for c in diagram.crossings:
        passage[c.under_in] = -c.sign
        passage[c.over_in] = c.sign
    label = {cyc[0]: 0}
    for prev, s in zip(cyc, cyc[1:]):
        label[s] = label[prev] + passage[prev]
    poly = {}
    for c in diagram.crossings:
        ind = label[c.over_in] - label[c.under_in] + c.sign
        poly[ind] = poly.get(ind, 0) + c.sign
        poly[0] = poly.get(0, 0) - c.sign
    return tuple(sorted((e, c) for e, c in poly.items() if c))


def symmetric_images(diagram):
    """The diagram with every subset of its components reversed, and the
    mirror image of each."""
    images = [diagram]
    for i in range(len(diagram.components())):
        images += [reverse_component(d, i) for d in images]
    return images + [mirror(d) for d in images]


def canonical_code(code):
    """Least rotation of a one-component Gauss code, crossings renumbered
    in order of appearance: equal for the same diagram read from another
    basepoint or with other crossing numbers."""
    toks = [(tok[0], int(tok[1:-1]), tok[-1]) for tok in code.split()]
    best = None
    for r in range(len(toks)):
        relabel = {}
        cand = tuple(
            (kind, relabel.setdefault(num, len(relabel) + 1), sign)
            for kind, num, sign in toks[r:] + toks[:r]
        )
        if best is None or cand < best:
            best = cand
    return best


def flip_diagram(diagram):
    """Vertical mirror: seen from behind, every over passage becomes the
    matching under passage, with signs kept."""
    return LinkDiagram([
        Crossing(c.sign, under_in=c.over_in, over_in=c.under_in,
                 under_out=c.over_out, over_out=c.under_out)
        for c in diagram.crossings
    ])


def code_orbit(diagram):
    return {canonical_code(gauss_string(img)) for img in symmetric_images(diagram)}


def distinctness_key(diagram):
    def key(d):
        ncomp = len(d.components())
        return (ncomp, f_invariant(d), affine_index(d) if ncomp == 1 else None)
    return frozenset(key(img) for img in symmetric_images(diagram))


def test_bracket_calibration():
    hopf = braid_closure([1, 1])
    tref = braid_closure([1, 1, 1])
    fig8 = braid_closure([1, -2, 1, -2])
    assert bracket(hopf) == {4: -1, -4: -1}
    assert dict(f_invariant(tref)) == {-16: -1, -12: 1, -4: 1}
    assert dict(f_invariant(fig8)) == {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}
    assert dict(f_invariant(hopf)) == {-2: -1, -10: -1}
    assert is_alternating(tref) and is_alternating(hopf)
    assert not is_alternating(braid_closure([1, 1, 2, 2]))


def test_crossing_numbers_by_bracket_span():
    # a reduced alternating diagram of c crossings has span 4c
    # (Kauffman-Murasugi-Thistlethwaite); a link with a non-alternating
    # minimal diagram stays below it
    spans = {}
    for name in catalog_names():
        if name[0] != "L":
            continue
        d = get_diagram(name)
        c = len(d.crossings)
        assert is_alternating(d) == (name[2] == "a"), name
        b = bracket(d)
        spans[name] = max(b) - min(b)
        if name[2] == "a":
            assert spans[name] == 4 * c, name
        else:
            assert spans[name] < 4 * c, name
    assert {n: s for n, s in spans.items() if "n" in n} == {
        "L6n1": 16, "L7n1": 20, "L7n2": 20}


def test_entries_pairwise_distinct():
    keys = {name: distinctness_key(get_diagram(name)) for name in catalog_names()}
    collisions = [
        (a, b) for a, b in itertools.combinations(catalog_names(), 2)
        if keys[a] == keys[b]
    ]
    assert collisions == [FLIP_PAIR]


def test_flip_partners_are_distinct_diagrams():
    first, second = (get_diagram(name) for name in FLIP_PAIR)
    orbit = code_orbit(second)
    assert code_orbit(first).isdisjoint(orbit)
    assert canonical_code(gauss_string(flip_diagram(first))) in orbit


# ---------------------------------------------------------------- moves


def test_moves_keep_f_invariant():
    for name in catalog_names():
        d = get_diagram(name)
        want = f_invariant(d)
        moved = [
            r1_kink(d, 1, sign=1), r1_kink(d, 0, sign=-1),
            r1_kink(d, 2, sign=1, over_first=True),
            r1_kink(d, 3, sign=-1, over_first=True),
            r2_poke(d, 0, 2), r2_poke(d, 3, 1),
        ]
        for v in moved:
            assert f_invariant(v) == want, "%s via %s" % (name, v.name)


def test_mirror_and_reverse_f_invariant():
    for name in catalog_names():
        d = get_diagram(name)
        f = f_invariant(d)
        assert f_invariant(mirror(d)) == tuple(sorted((-e, c) for e, c in f)), name
        if len(d.components()) == 1:
            assert f_invariant(reverse_component(d, 0)) == f, name
