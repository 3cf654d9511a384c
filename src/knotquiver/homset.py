"""Biquandle colorings of oriented diagrams and their chain vectors.

A coloring assigns an algebra element to every semiarc so that at each
positive crossing under_out = under(under_in, over_in) and
over_out = over(over_in, under_in), and at each negative crossing the
same relations hold with in and out swapped.  Colorings are stored as
tuples indexed by semiarc label.

The search runs a plan compiled once per diagram (see _plan).  Which
relation fires at a crossing depends only on which of its four
semiarcs are known, never on their colors, and so does the choice of
the next free semiarc.  A dry run over "known" flags therefore fixes
everything but the values: the semiarc chosen freely at each level, the
lookups that derive the semiarcs the choice forces, and the equations
left to check at the crossings it completes.  Each crossing belongs to
exactly one level and is verified there once.  A crossing that fires
with two known semiarcs derives the other two from one index into two
flat tables of the same shape (see _tables), so it costs one index
computation, not two.  The search assigns each free semiarc every
element in turn and does flat table lookups; a level writes the same
semiarcs on every visit, so backtracking undoes nothing.
"""

# the nine lookup tables of _tables, in this order: the six operations,
# then the second table of the fused firings from (p1, p2) and from
# (q2, p1) and (q1, p2)
(UNDER, OVER, UNDER_INV, OVER_INV, THROUGH_INV_1, THROUGH_INV_2,
 OVER_SWAP, UNDER_AT_OVER_INV, OVER_AT_UNDER_INV) = range(9)


def _constraints(diagram):
    # each crossing as (p1, p2, q1, q2) with (q1, q2) = through(p1, p2)
    cons = []
    for c in diagram.crossings:
        if c.sign > 0:
            cons.append((c.under_in, c.over_in, c.under_out, c.over_out))
        else:
            cons.append((c.under_out, c.over_out, c.under_in, c.over_in))
    return cons


def _plan(diagram):
    """The search plan: one (free, derive, check) triple per level.

    free is the lowest semiarc still unknown when the level starts.
    derive lists steps (first, second, s, t, p, q) that set s to
    first(p, q) and then t to second(p, q), in order; check lists steps
    (table, target, p, q) that must hold as equations, target =
    table(p, q).  Every semiarc but the free ones is derived exactly
    once, and never overwritten.

    A crossing (p1, p2, q1, q2) fires once two of its semiarcs fix the
    rest, in one of four forms: (p1, p2) by through, (q1, q2) by
    through_inv, (q2, p1) and (q1, p2) by one inverse and one forward
    lookup.  Each form states the crossing's relation in full as two
    single lookups.  When both of the other semiarcs are unknown and
    distinct, the firing is one fused step that reads both from the
    same index.  Otherwise each single lookup whose target is already
    known becomes a check, and one whose target is unknown a derive
    step (table, table, t, t, p, q) that writes t twice; this covers a
    crossing that fires with three of its semiarcs known, and an R1
    kink, whose two targets are the same semiarc.  A crossing that fires
    with all four known is checked in full, and one that fires with two
    known holds by construction.  Each crossing fires exactly once.
    """
    n = diagram.n_semiarcs
    cons = _constraints(diagram)
    touching = [[] for _ in range(n)]
    for idx, quad in enumerate(cons):
        for s in set(quad):
            touching[s].append(idx)
    known = [False] * n
    fired = [False] * len(cons)
    plan = []
    for free in range(n):
        if known[free]:
            continue
        known[free] = True
        derive, check = [], []
        stack = list(touching[free])
        while stack:
            idx = stack.pop()
            if fired[idx]:
                continue
            a, b, c, d = cons[idx]
            if known[a] and known[b]:
                fused = (UNDER, OVER_SWAP, c, d, a, b)
                steps = ((UNDER, c, a, b), (OVER, d, b, a))
            elif known[c] and known[d]:
                fused = (THROUGH_INV_1, THROUGH_INV_2, a, b, c, d)
                steps = ((THROUGH_INV_1, a, c, d), (THROUGH_INV_2, b, c, d))
            elif known[a] and known[d]:
                fused = (OVER_INV, UNDER_AT_OVER_INV, b, c, d, a)
                steps = ((OVER_INV, b, d, a), (UNDER, c, a, b))
            elif known[b] and known[c]:
                fused = (UNDER_INV, OVER_AT_UNDER_INV, a, d, c, b)
                steps = ((UNDER_INV, a, c, b), (OVER, d, b, a))
            else:
                continue
            fired[idx] = True
            s, t = fused[2], fused[3]
            if s != t and not known[s] and not known[t]:
                derive.append(fused)
                known[s] = known[t] = True
                new = (s, t)
            else:
                new = []
                for k, target, p, q in steps:
                    if known[target]:
                        check.append((k, target, p, q))
                    else:
                        known[target] = True
                        derive.append((k, k, target, target, p, q))
                        new.append(target)
            for target in new:
                stack.extend(touching[target])
        plan.append((free, derive, check))
    return plan


def _tables(bq):
    """The nine tables of the plan as flat lists: table[x * (n + 1) + y].

    The six operations under, over, under_inv, over_inv and the two
    halves of through_inv, then the second tables of the fused firings:
    over(y, x), under(y, over_inv(x, y)) and over(y, under_inv(x, y)).
    All nine are filled in one pass over the input pairs (a, b) of the
    operation tables.  Built once per Biquandle instance and kept on it,
    like the cochain complex; the tables are not expected to change
    after construction.
    """
    tables = getattr(bq, "_coloring_tables", None)
    if tables is None:
        size = bq.n + 1
        tables = [[0] * (size * size) for _ in range(9)]
        (under, over, under_inv, over_inv, through_inv_1, through_inv_2,
         over_swap, under_at_over_inv, over_at_under_inv) = tables
        # rows of under(a, -), over(a, -), under(-, a), over(-, a), with a
        # 0 in front so that they are indexed by the 1-based element b
        u_rows = [[0] + row for row in bq.under_table]
        o_rows = [[0] + row for row in bq.over_table]
        u_cols = [[0] + list(col) for col in zip(*bq.under_table)]
        o_cols = [[0] + list(col) for col in zip(*bq.over_table)]
        elements = bq.elements
        for a in elements:
            u_row, o_row, u_col, o_col = u_rows[a - 1], o_rows[a - 1], u_cols[a - 1], o_cols[a - 1]
            base = a * size
            for b in elements:
                # under(a, b), over(a, b), under(b, a), over(b, a)
                u, o, u_ba, o_ba = u_row[b], o_row[b], u_col[b], o_col[b]
                under[base + b] = u
                over[base + b] = o
                over_swap[base + b] = o_ba
                under_inv[u * size + b] = a
                over_inv[o * size + b] = a
                through_inv_1[u * size + o_ba] = a
                through_inv_2[u * size + o_ba] = b
                under_at_over_inv[o * size + b] = u_ba
                over_at_under_inv[u * size + b] = o_ba
        bq._coloring_tables = tables
    return tables


def colorings(diagram, bq):
    """All colorings in lexicographic order.

    Runs the plan of _plan: each level assigns every element to its free
    semiarc, derives the semiarcs that choice forces, two per index
    computation, and tests the level's check equations before going
    deeper.  Derived semiarcs lie past the level's free one, so
    colorings come out in lexicographic order of the free choices, which
    is the lexicographic order of the tuples.
    """
    size = bq.n + 1
    tables = _tables(bq)
    plan = [
        (
            free,
            [(tables[k1], tables[k2], s, t, p, q) for k1, k2, s, t, p, q in derive],
            [(tables[k], t, p, q) for k, t, p, q in check],
        )
        for free, derive, check in _plan(diagram)
    ]
    depth = len(plan)
    elements = bq.elements
    color = [0] * diagram.n_semiarcs
    out = []

    def search(level):
        if level == depth:
            out.append(tuple(color))
            return
        free, derive, check = plan[level]
        for v in elements:
            color[free] = v
            for first, second, s, t, p, q in derive:
                i = color[p] * size + color[q]
                color[s] = first[i]
                color[t] = second[i]
            for tab, t, p, q in check:
                if color[t] != tab[color[p] * size + color[q]]:
                    break
            else:
                search(level + 1)

    search(0)
    return out


def counting_invariant(diagram, bq):
    return len(colorings(diagram, bq))


def pair_basis(bq):
    """Nondegenerate element pairs (x, y), x != y, in lexicographic order."""
    return [
        (x, y) for x in bq.elements for y in bq.elements if x != y
    ]


def _pair_index(bq):
    """{pair: index} over pair_basis, built once per Biquandle instance
    and kept on it."""
    index = getattr(bq, "_pair_index", None)
    if index is None:
        index = bq._pair_index = {p: i for i, p in enumerate(pair_basis(bq))}
    return index


def chain_vector(diagram, bq, coloring):
    """Integer 2-chain of a coloring over the nondegenerate pair basis.

    Positive crossings contribute +(under_in color, over_out color),
    negative ones -(under_out color, over_in color); pairs with equal
    entries are degenerate and dropped.
    """
    index = _pair_index(bq)
    vec = [0] * len(index)
    for c in diagram.crossings:
        if c.sign > 0:
            pair = (coloring[c.under_in], coloring[c.over_out])
        else:
            pair = (coloring[c.under_out], coloring[c.over_in])
        if pair[0] != pair[1]:
            vec[index[pair]] += c.sign
    return vec


def push_forward(coloring, endo):
    """Apply an endomorphism (image tuple) to every semiarc color."""
    return tuple(endo[v - 1] for v in coloring)
