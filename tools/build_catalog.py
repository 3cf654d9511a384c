#!/usr/bin/env python3
"""Build the bundled diagram catalog.

Searches small twist and braid constructions for oriented diagrams
whose quiver invariant rows match the expected table, certifies
distinctness and crossing numbers with an independent skein bracket,
enumerates the three-crossing virtual knots, and writes
src/knotquiver/data/catalog.json.

This script is frozen provenance of the committed catalog, not a
verifier of it.  The weight probes of the virtual battery come from
h2_generators, which since the universal-coefficient cocycle lattice
returns other (equally valid) generator vectors, core-4 over Z_2 among
them, than the ones the committed catalog was certified with; a rebuild
therefore probes with other vectors.

Run from the repository root:  python3 tools/build_catalog.py
"""

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knotquiver.algebra import (
    Biquandle,
    alexander_cyclic,
    constant_action_biquandle_z2,
    core_cyclic,
    swap3,
)
from knotquiver.cohomology import CoeffGroup, h2_generators, weight_multiset
from knotquiver.construct import braid_closure, pretzel_link, rational_link
from knotquiver.diagram import (
    Crossing,
    LinkDiagram,
    ValidationError,
    gauss_string,
    mirror,
    parse_gauss,
    pd_string,
    r1_kink,
    r2_poke,
    reverse_component,
)
from knotquiver.homset import chain_vector, colorings, counting_invariant
from knotquiver.polynomials import (
    edge_char_polynomial,
    edge_matrix_polynomial,
    path_char_polynomial,
    path_matrix_polynomial,
)
from knotquiver.quiver import DataVector, build_representation

Z3 = CoeffGroup(3)
VECTORS = [(0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)]
SIGMA = (2, 2, 1)
PHI1 = (0, 1, 0, 1, 0, 0)

VIRTUAL_VECTORS = [(1, 0), (0, 1)]
VIRTUAL_ENDOS = [(1, 2), (2, 1)]

# expected rows: name -> (chiE, pmE, chiP, pmP), with component count,
# crossing count and whether an alternating minimal diagram exists
EXPECTED = {
    "L2a1": ("5t^3-13t^2", "2y+13",
             "s^3t^3-27s^3t^2+2s^2t^3-12s^2t^2", "6xz^2+27z^3+12z^2"),
    "L4a1": ("9t^3-13t^2-4t", "4x^2+6y^2+4y+13",
             "5s^3t^3-39s^3t^2", "24x^2z^3+24xz^3+39z^3"),
    "L5a1": ("9t^3-24t^2", "2y^2+y+24",
             "5s^3t^3-108s^3t^2", "18x^2z^3+9xz^3+108z^3"),
    "L6a1": ("9t^3-15t^2-2t", "2x^2y^2+2x^2+6y^2+4y+13",
             "5s^3t^3-33s^3t^2", "30x^2z^3+24xz^3+33z^3"),
    "L6a2": ("5t^3-15t^2", "15",
             "s^3t^3-27s^3t^2+2s^2t^3-18s^2t^2", "27z^3+18z^2"),
    "L6a3": ("5t^3-15t^2", "15",
             "s^3t^3-27s^3t^2+2s^2t^3-18s^2t^2", "27z^3+18z^2"),
    "L6a4": ("27t^3-69t^2", "6y^2+6y+69",
             "19s^3t^3-405s^3t^2", "54x^2z^3+54xz^3+405z^3"),
    "L6a5": ("15t^3-21t^2-6t", "6x^2+12y^2+6y+21",
             "7s^3t^3-45s^3t^2+3s^2t^3-18s^2t^2",
             "36x^2z^3+9x^2z^2+36xz^3+45z^3+18z^2"),
    "L6n1": ("15t^3-24t^2-9t", "6x^2+15y^2+24",
             "7s^3t^3-63s^3t^2+3s^2t^3-18s^2t^2",
             "54x^2z^3+9x^2z^2+63z^3+18z^2"),
    "L7a1": ("9t^3-24t^2", "y^2+2y+24",
             "5s^3t^3-108s^3t^2", "9x^2z^3+18xz^3+108z^3"),
    "L7a2": ("9t^3-13t^2-2t", "2x^2y+2x^2+6y^2+4y+13",
             "5s^3t^3-33s^3t^2", "24x^2z^3+30xz^3+33z^3"),
    "L7a3": ("9t^3-23t^2", "2y^2+2y+23",
             "5s^3t^3-99s^3t^2", "18x^2z^3+18xz^3+99z^3"),
    "L7a4": ("9t^3-23t^2", "2y^2+2y+23",
             "5s^3t^3-99s^3t^2", "18x^2z^3+18xz^3+99z^3"),
    "L7a5": ("5t^3-13t^2", "2y+13",
             "s^3t^3-27s^3t^2+2s^2t^3-12s^2t^2", "6xz^2+27z^3+12z^2"),
    "L7a6": ("5t^3-13t^2", "2y+13",
             "s^3t^3-27s^3t^2+2s^2t^3-12s^2t^2", "6xz^2+27z^3+12z^2"),
    "L7a7": ("15t^3-34t^2-2t", "2x^2+6y^2+3y+34",
             "7s^3t^3-114s^3t^2+3s^2t^3-24s^2t^2",
             "30x^2z^3+3x^2z^2+21xz^3+114z^3+24z^2"),
    "L7n1": ("9t^3-15t^2-3t", "xy^2+xy+2x+2y^2+7y+14",
             "5s^3t^3-39s^3t^2", "15x^2z^3+33xz^3+39z^3"),
    "L7n2": ("9t^3-25t^2", "2y+25",
             "5s^3t^3-117s^3t^2", "18xz^3+117z^3"),
}

STRUCTURE = {
    "L2a1": (2, 2, True), "L4a1": (2, 4, True), "L5a1": (2, 5, True),
    "L6a1": (2, 6, True), "L6a2": (2, 6, True), "L6a3": (2, 6, True),
    "L6a4": (3, 6, True), "L6a5": (3, 6, True), "L6n1": (3, 6, False),
    "L7a1": (2, 7, True), "L7a2": (2, 7, True), "L7a3": (2, 7, True),
    "L7a4": (2, 7, True), "L7a5": (2, 7, True), "L7a6": (2, 7, True),
    "L7a7": (3, 7, True), "L7n1": (2, 7, False), "L7n2": (2, 7, False),
}


# ---------------------------------------------------------------- bracket

def _laurent_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def bracket(diagram):
    """Skein bracket state sum, a Laurent polynomial dict exp -> coeff.

    Smoothing channels per state: type A joins under_in to over_out and
    over_in to under_out on positive crossings (the oriented channel)
    and under_in to over_in on negative ones; type B is the complement.
    Works for abstract (virtual) diagrams: circles are counted
    combinatorially.
    """
    crossings = diagram.crossings
    n = len(crossings)
    # port = (crossing index, slot), slots 0..3 = ui, oi, uo, oo
    arcs = []  # (port, port) per semiarc
    where = {}
    for i, c in enumerate(crossings):
        for slot, s in enumerate((c.under_in, c.over_in, c.under_out, c.over_out)):
            where.setdefault(s, []).append((i, slot))
    for s, ends in where.items():
        arcs.append(tuple(ends))

    pos_a = ((0, 3), (1, 2))  # ui~oo, oi~uo
    pos_b = ((0, 1), (2, 3))
    neg_a = ((0, 1), (2, 3))  # ui~oi, uo~oo
    neg_b = ((0, 3), (1, 2))

    loop = {0: -1}
    loop_factor = {2: -1, -2: -1}  # -A^2 - A^-2

    total = {}
    for state in itertools.product((0, 1), repeat=n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        exp = 0
        for i, pick in enumerate(state):
            if crossings[i].sign > 0:
                pairs = pos_a if pick == 0 else pos_b
            else:
                pairs = neg_a if pick == 0 else neg_b
            exp += 1 if pick == 0 else -1
            for a, b in pairs:
                union(4 * i + a, 4 * i + b)
        for (i1, s1), (i2, s2) in arcs:
            union(4 * i1 + s1, 4 * i2 + s2)
        circles = len({find(4 * i + s) for i in range(n) for s in range(4)})
        term = {exp: 1}
        for _ in range(circles - 1):
            term = _laurent_mul(term, loop_factor)
        for e, c in term.items():
            c2 = total.get(e, 0) + c
            if c2:
                total[e] = c2
            else:
                total.pop(e, None)
    return total


def f_invariant(diagram):
    """Writhe-normalized bracket, an oriented link invariant."""
    w = diagram.writhe
    sign = -1 if w % 2 else 1
    return tuple(sorted((e - 3 * w, sign * c) for e, c in bracket(diagram).items()))


def bracket_span(diagram):
    b = bracket(diagram)
    return max(b) - min(b) if b else 0


def is_alternating(diagram):
    passage = {}
    for c in diagram.crossings:
        passage[c.under_in] = "U"
        passage[c.over_in] = "O"
    for cyc in diagram.components():
        kinds = [passage[s] for s in cyc]
        if any(kinds[i] == kinds[i - 1] for i in range(len(kinds))):
            return False
    return True


def calibrate():
    hopf = braid_closure([1, 1])
    assert bracket(hopf) == {4: -1, -4: -1}, bracket(hopf)
    tref = braid_closure([1, 1, 1])
    assert dict(f_invariant(tref)) == {-16: -1, -12: 1, -4: 1}, f_invariant(tref)
    fig8 = braid_closure([1, -2, 1, -2])
    assert dict(f_invariant(fig8)) == {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}
    assert dict(f_invariant(hopf)) == {-2: -1, -10: -1}
    assert is_alternating(tref) and is_alternating(hopf)
    assert not is_alternating(braid_closure([1, 1, 2, 2]))


# ---------------------------------------------------------------- battery

def quiver_row(diagram):
    dv = DataVector(swap3(), Z3, VECTORS, [SIGMA])
    q = build_representation(diagram, dv)
    return (
        edge_char_polynomial(q).render(),
        edge_matrix_polynomial(q).render(),
        path_char_polynomial(q).render(),
        path_matrix_polynomial(q).render(),
    )


def coloring_chains(diagram, bq):
    return [chain_vector(diagram, bq, col) for col in colorings(diagram, bq)]


COUNT_ALGS = None


def battery(diagram):
    """Oriented invariant tuple used to separate links."""
    global COUNT_ALGS
    if COUNT_ALGS is None:
        COUNT_ALGS = [
            core_cyclic(2), core_cyclic(3), core_cyclic(4), core_cyclic(5),
            alexander_cyclic(5, 2), swap3(),
        ]
    counts = tuple(counting_invariant(diagram, a) for a in COUNT_ALGS)
    weights = tuple(weight_multiset(Z3, PHI1, coloring_chains(diagram, swap3())))
    return (
        len(diagram.components()),
        counts,
        f_invariant(diagram),
        weights,
        quiver_row(diagram),
    )


def orientation_variants(diagram):
    """All component-reversal variants (mirror is a separate diagram)."""
    ncomp = len(diagram.components())
    out = []
    for mask in range(1 << ncomp):
        d = diagram
        for i in range(ncomp):
            if mask & (1 << i):
                d = reverse_component(d, i)
        out.append(d)
    return out


# ---------------------------------------------------------------- classical

def reference_l4():
    return LinkDiagram(
        [
            Crossing(1, under_in=0, over_in=7, under_out=1, over_out=4),
            Crossing(1, under_in=6, over_in=1, under_out=7, over_out=2),
            Crossing(1, under_in=2, over_in=5, under_out=3, over_out=6),
            Crossing(1, under_in=4, over_in=3, under_out=5, over_out=0),
        ]
    )


def classical_candidates():
    """Small constructions likely to cover all expected rows."""
    seen = {}

    def add(d):
        key = pd_string(d)
        if key not in seen:
            seen[key] = d

    def add_with_mirror(d):
        add(d)
        add(mirror(d, name=(d.name or "") + "-m"))

    add_with_mirror(reference_l4())
    # twist chains: odd length compositions, entries >= 1
    for total in range(2, 8):
        for k in range(1, total + 1, 2):
            for comp in itertools.product(range(1, total + 1), repeat=k):
                if sum(comp) != total:
                    continue
                try:
                    add_with_mirror(rational_link(list(comp)))
                except ValidationError:
                    pass
    # pretzels with signed twist columns
    for k in (3, 4):
        for total in range(3, 8):
            for comp in itertools.product(range(1, total + 1), repeat=k):
                if sum(comp) != total:
                    continue
                for signs in itertools.product((1, -1), repeat=k):
                    tw = [a * s for a, s in zip(comp, signs)]
                    try:
                        add(pretzel_link(tw))
                    except ValidationError:
                        pass
    # short braid closures on three strands
    for n in (2, 3, 4, 5, 6, 7):
        for word in itertools.product((1, -1, 2, -2), repeat=n):
            try:
                add(braid_closure(list(word)))
            except ValidationError:
                pass
    return list(seen.values())


def assign_classical():
    candidates = classical_candidates()
    print("classical candidates:", len(candidates))

    # group candidates into links: same unoriented diagram class key
    by_link = {}
    for d in candidates:
        ncomp = len(d.components())
        if ncomp < 2 or ncomp > 3 or len(d.crossings) > 7:
            continue
        variants = orientation_variants(d)
        bats = [battery(v) for v in variants]
        link_key = min(bats)
        rec = by_link.setdefault(link_key, {"diagrams": [], "batteries": set()})
        rec["diagrams"].extend(zip(variants, bats))
        rec["batteries"].update(bats)

    print("distinct oriented link classes:", len(by_link))

    def class_stats(rec):
        crossings = min(len(d.crossings) for d, _ in rec["diagrams"])
        alt = any(
            len(d.crossings) == crossings and is_alternating(d)
            for d, _ in rec["diagrams"]
        )
        span = bracket_span(rec["diagrams"][0][0])
        return crossings, alt, span

    assignment = {}
    used_links = {}
    for name in sorted(EXPECTED):
        row = EXPECTED[name]
        ncomp, crossings, alternating = STRUCTURE[name]
        hits = []
        for key, rec in by_link.items():
            min_cr, has_alt, span = class_stats(rec)
            if min_cr != crossings or has_alt != alternating:
                continue
            # reduced alternating diagrams realize bracket span 4n exactly;
            # anything non-alternating stays strictly below
            if alternating and span != 4 * crossings:
                continue
            if not alternating and span >= 4 * crossings:
                continue
            for d, bat in rec["diagrams"]:
                if bat[0] == ncomp and bat[4] == row:
                    hits.append((key, d, bat))
                    break
        fresh = [h for h in hits if h[0] not in used_links]
        if not fresh:
            print("  %s: NO MATCH (%d stale hits)" % (name, len(hits)))
            continue
        fresh.sort(key=lambda h: (len(h[1].crossings), pd_string(h[1])))
        key, d, bat = fresh[0]
        used_links[key] = name
        assignment[name] = d
        print("  %s <- %s (%d crossings)" % (name, d.name or "?", len(d.crossings)))
    return assignment, by_link, used_links


# ---------------------------------------------------------------- virtual

def linear_biquandle(m, a, b, c, d):
    """x under y -> a*x+b*y, x over y -> c*x+d*y on Z_m, 1-based classes."""
    under = [[((a * x + b * y - 1) % m) + 1 for y in range(1, m + 1)]
             for x in range(1, m + 1)]
    over = [[((c * x + d * y - 1) % m) + 1 for y in range(1, m + 1)]
            for x in range(1, m + 1)]
    return Biquandle(under, over)


def affine_index(diagram):
    """Kink-stable index polynomial for one-component diagrams; zero on
    anything realizable without virtual crossings."""
    cyc = diagram.components()[0]
    passage = {}
    for c in diagram.crossings:
        passage[c.under_in] = ("U", c.sign)
        passage[c.over_in] = ("O", c.sign)
    label = {cyc[0]: 0}
    for j in range(1, len(cyc)):
        kind, sign = passage[cyc[j - 1]]
        label[cyc[j]] = label[cyc[j - 1]] + (sign if kind == "O" else -sign)
    poly = {}
    for c in diagram.crossings:
        ind = label[c.over_in] - label[c.under_in] + c.sign
        for e, co in ((ind, c.sign), (0, -c.sign)):
            poly[e] = poly.get(e, 0) + co
            if not poly[e]:
                del poly[e]
    return tuple(sorted(poly.items()))


# Axiom-valid tables are not automatically stable under kink moves;
# every probe here is checked against moves by validate_probes below.
VIRTUAL_PROBES = (
    core_cyclic(3), core_cyclic(5), swap3(), alexander_cyclic(5, 2),
    alexander_cyclic(7, 3), alexander_cyclic(9, 2),
    linear_biquandle(6, 1, 0, 5, 2),
    linear_biquandle(7, 1, 0, 2, 6), linear_biquandle(7, 1, 0, 3, 5),
    linear_biquandle(8, 1, 0, 3, 6), linear_biquandle(8, 1, 0, 5, 4),
    linear_biquandle(8, 1, 0, 7, 2),
    linear_biquandle(9, 1, 0, 2, 8), linear_biquandle(9, 1, 0, 4, 6),
)


def _weight_probes():
    """Cocycle weight probes over algebras whose chain complex verifies."""
    probes = []
    for bq, mod in ((swap3(), 3), (core_cyclic(4), 2),
                    (linear_biquandle(6, 1, 0, 5, 2), 6),
                    (linear_biquandle(8, 1, 0, 3, 6), 8),
                    (linear_biquandle(9, 1, 0, 4, 6), 9)):
        grp = CoeffGroup(mod)
        for order, vec in h2_generators(bq, grp)[:2]:
            probes.append((bq, grp, tuple(vec)))
    return probes


WEIGHT_PROBES = _weight_probes()


def virtual_battery(diagram):
    bq = constant_action_biquandle_z2()
    dv = DataVector(bq, Z3, VIRTUAL_VECTORS, VIRTUAL_ENDOS)
    q = build_representation(diagram, dv)
    counts = tuple(counting_invariant(diagram, a) for a in VIRTUAL_PROBES)
    weights = tuple(
        tuple(weight_multiset(grp, phi, coloring_chains(diagram, wb)))
        for wb, grp, phi in WEIGHT_PROBES
    )
    return (
        counts,
        f_invariant(diagram),
        odd_writhe(diagram),
        affine_index(diagram),
        weights,
        (
            edge_char_polynomial(q).render(),
            edge_matrix_polynomial(q).render(),
            path_char_polynomial(q).render(),
            path_matrix_polynomial(q).render(),
        ),
    )


def flip_diagram(diagram):
    """Vertical mirror: viewing the diagram from behind swaps every over
    passage with the matching under passage, keeping signs and order."""
    parts = []
    for part in gauss_string(diagram).split(";"):
        toks = []
        for tok in part.split():
            toks.append(("U" if tok[0] == "O" else "O") + tok[1:])
        parts.append(" ".join(toks))
    return parse_gauss(" ; ".join(parts))


def validate_probes():
    """Reject any battery component that a kink or poke can change."""
    bases = [
        parse_gauss("O1+ O2+ U1+ U2+"),
        parse_gauss("O1+ U2- O3- U1+ O2- U3-"),
        braid_closure([1, -2, 1, -2]),
    ]
    for d in bases:
        ref = virtual_battery(d)
        variants = [
            r1_kink(d, 1, sign=1), r1_kink(d, 0, sign=-1),
            r1_kink(d, 2, sign=1, over_first=True),
            r1_kink(d, 3, sign=-1, over_first=True),
            r2_poke(d, 0, 2), r2_poke(d, 3, 1),
        ]
        for v in variants:
            got = virtual_battery(v)
            if got != ref:
                for i, (a, b) in enumerate(zip(ref, got)):
                    if a != b:
                        raise AssertionError(
                            "battery slot %d not move stable" % i)
    print("probe validation passed")


def odd_writhe(diagram):
    """Sum of signs over crossings whose chord ends interleave oddly."""
    toks = []
    for cyc in diagram.components():
        passage = {}
        for idx, c in enumerate(diagram.crossings):
            passage[c.under_in] = idx
            passage[c.over_in] = idx
        toks = [passage[s] for s in cyc]
        break  # knots only
    out = 0
    for idx, c in enumerate(diagram.crossings):
        a, b = [i for i, t in enumerate(toks) if t == idx]
        if (b - a) % 2 == 0:
            out += c.sign
    return out


def gauss_words_three():
    """All signed one-component codes on three crossings."""
    base = [1, 1, 2, 2, 3, 3]
    words = set()
    for perm in set(itertools.permutations(base)):
        words.add(perm)
    out = []
    for word in sorted(words):
        # choose which occurrence of each crossing is the overpass
        for over_first in itertools.product((True, False), repeat=3):
            kinds = []
            seen = {}
            for num in word:
                first = num not in seen
                seen[num] = True
                o_first = over_first[num - 1]
                kinds.append("O" if first == o_first else "U")
            for signs in itertools.product("+-", repeat=3):
                toks = [
                    "%s%d%s" % (k, n, signs[n - 1]) for k, n in zip(kinds, word)
                ]
                out.append(" ".join(toks))
    return out


def reduce_code(tokens):
    """Apply curl and poke removals until stable; tokens are
    (kind, num, sign) triples in cyclic order."""
    toks = list(tokens)
    changed = True
    while changed and toks:
        changed = False
        k = len(toks)
        # curl: both passages of a crossing adjacent
        for i in range(k):
            a, b = toks[i], toks[(i + 1) % k]
            if a[1] == b[1]:
                toks = [t for t in toks if t[1] != a[1]]
                changed = True
                break
        if changed:
            continue
        # poke: over pair adjacent and under pair adjacent, opposite signs
        for i in range(k):
            a, b = toks[i], toks[(i + 1) % k]
            if a[1] == b[1] or a[0] != "O" or b[0] != "O":
                continue
            if a[2] == b[2]:
                continue
            for j in range(k):
                c, d = toks[j], toks[(j + 1) % k]
                if c[0] == "U" and d[0] == "U" and {c[1], d[1]} == {a[1], b[1]}:
                    drop = {a[1], b[1]}
                    toks = [t for t in toks if t[1] not in drop]
                    changed = True
                    break
            if changed:
                break
    return toks


def parse_tokens(code):
    out = []
    for tok in code.split():
        out.append((tok[0], int(tok[1:-1]), tok[-1]))
    return out


def canonical_code(code):
    """Least rotation of the token list with crossings renumbered in order
    of first appearance; two codes agree iff they are the same diagram with
    a different basepoint or labelling."""
    toks = parse_tokens(code)
    k = len(toks)
    best = None
    for r in range(k):
        rot = toks[r:] + toks[:r]
        relabel = {}
        cand = []
        for kind, num, sign in rot:
            if num not in relabel:
                relabel[num] = len(relabel) + 1
            cand.append((kind, relabel[num], sign))
        cand = tuple(cand)
        if best is None or cand < best:
            best = cand
    return best


def enumerate_virtuals():
    known_small = set()
    for code in ("O1+ U1+", "O1- U1-"):
        known_small.add(virtual_battery(parse_gauss(code)))
    two_one = parse_gauss("O1+ O2+ U1+ U2+")
    known_small.add(virtual_battery(two_one))
    known_small.add(virtual_battery(mirror(two_one)))
    for word in ([1, 1, 1], [-1, -1, -1]):
        known_small.add(virtual_battery(braid_closure(word)))

    clusters = {}
    for code in gauss_words_three():
        toks = parse_tokens(code)
        if reduce_code(toks):
            pass
        else:
            continue  # reduces to nothing: unknot
        if len(reduce_code(toks)) < 6:
            continue  # reduces to fewer crossings
        d = parse_gauss(code)
        bat = virtual_battery(d)
        if bat in known_small:
            continue
        clusters.setdefault(bat, []).append(code)

    print("irreducible three-crossing clusters:", len(clusters))
    # merge clusters related by mirror image, orientation reversal or the
    # vertical mirror: tabulated knots are counted up to those symmetries
    partner_sets = {}
    for bat, codes in clusters.items():
        d = parse_gauss(codes[0])
        rd = reverse_component(d, 0)
        fd = flip_diagram(d)
        frd = flip_diagram(rd)
        partner_sets[bat] = {
            virtual_battery(v)
            for v in (mirror(d), rd, mirror(rd),
                      fd, mirror(fd), frd, mirror(frd))
        }

    def orbit_count(use_flip):
        seen = set()
        groups = []
        for bat in sorted(clusters):
            if bat in seen:
                continue
            group = {bat}
            frontier = [bat]
            while frontier:
                cur = frontier.pop()
                partners = partner_sets.get(cur, set())
                if not use_flip:
                    d = parse_gauss(clusters[cur][0])
                    rd = reverse_component(d, 0)
                    partners = {
                        virtual_battery(v)
                        for v in (mirror(d), rd, mirror(rd))
                    }
                for p in partners:
                    if p in clusters and p not in group:
                        group.add(p)
                        frontier.append(p)
            seen.update(group)
            groups.append(sorted(group))
        return groups

    plain = orbit_count(False)
    classes = orbit_count(True)
    print("classes without vertical mirror:", len(plain))
    print("classes with vertical mirror:", len(classes))
    return clusters, classes


def assign_virtuals(clusters):
    """Name the three-crossing knots.  Tables identify a diagram with its
    mirror image and its reverse but not with its vertical flip, so a
    cluster whose two rotation orbits are flip partners contributes two
    knots even though every probe here values them identically."""
    orbit_codes = {}
    orbit_bat = {}
    for bat, codes in clusters.items():
        for c in codes:
            o = canonical_code(c)
            orbit_codes.setdefault(o, []).append(c)
            orbit_bat[o] = bat

    parent = {o: o for o in orbit_codes}

    def find(o):
        while parent[o] != o:
            parent[o] = parent[parent[o]]
            o = parent[o]
        return o

    for o, codes in sorted(orbit_codes.items()):
        d = parse_gauss(codes[0])
        for img in (mirror(d), reverse_component(d, 0)):
            oc = canonical_code(gauss_string(img))
            if oc in parent:
                ra, rb = find(o), find(oc)
                if ra != rb:
                    parent[ra] = rb

    comps = {}
    for o in orbit_codes:
        comps.setdefault(find(o), []).append(o)

    zero, two = [], []
    for orbits in comps.values():
        pms = {orbit_bat[o][-1][3] for o in orbits}
        if pms == {"64z^4"}:
            zero.append(min(c for o in orbits for c in orbit_codes[o]))
        else:
            # pick the chirality whose path polynomial carries x^2y^2
            two.append(min(
                c for o in orbits for c in orbit_codes[o]
                if orbit_bat[o][-1][3] == "64x^2y^2z^4"
            ))
    zero.sort()
    two.sort()
    print("weight-zero knots: %d, weight-two knots: %d"
          % (len(zero), len(two)))
    if len(zero) != 4 or len(two) != 3:
        raise SystemExit("unexpected virtual knot counts")
    assignment = {}
    for name, code in zip(["3.1", "3.5", "3.6", "3.7"], zero):
        assignment[name] = code
    for name, code in zip(["3.2", "3.3", "3.4"], two):
        assignment[name] = code
    return assignment


# ---------------------------------------------------------------- output

def main():
    calibrate()
    print("bracket calibration passed")

    entries = []

    assignment, by_link, used = assign_classical()
    missing = sorted(set(EXPECTED) - set(assignment))
    if missing:
        print("UNMATCHED CLASSICAL NAMES:", missing)
    for name in sorted(assignment):
        entries.append(
            {"name": name, "format": "pd", "code": pd_string(assignment[name])}
        )

    # classical knots
    trefoil = braid_closure([1, 1, 1])
    fig8 = braid_closure([1, -2, 1, -2])
    entries.append({"name": "3_1", "format": "pd", "code": pd_string(trefoil)})
    entries.append({"name": "4_1", "format": "pd", "code": pd_string(fig8)})

    # virtual knots
    entries.append({"name": "2.1", "format": "gauss", "code": "O1+ O2+ U1+ U2+"})
    clusters, classes = enumerate_virtuals()
    vassign = assign_virtuals(clusters)
    for name in sorted(vassign):
        entries.append({"name": name, "format": "gauss", "code": vassign[name]})

    entries.sort(key=lambda e: e["name"])
    out = os.path.join(
        os.path.dirname(__file__), "..", "src", "knotquiver", "data", "catalog.json"
    )
    with open(out, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print("wrote %d entries to %s" % (len(entries), os.path.normpath(out)))


if __name__ == "__main__":
    main()
