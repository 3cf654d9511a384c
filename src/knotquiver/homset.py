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
exactly one level and is verified there once.  The search assigns each
free semiarc every element in turn and does flat table lookups; a level
writes the same semiarcs on every visit, so backtracking undoes nothing.
"""

# the six operation tables of _tables, in this order
UNDER, OVER, UNDER_INV, OVER_INV, THROUGH_INV_1, THROUGH_INV_2 = range(6)


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
    derive lists steps (table, target, p, q) that set target to
    table(p, q), in order; check lists steps of the same form that must
    hold as equations.  Every semiarc but the free ones is derived
    exactly once, and never overwritten.

    A crossing (p1, p2, q1, q2) fires once two of its semiarcs fix the
    rest: (p1, p2) by through, (q1, q2) by through_inv, (p1, q2) and
    (p2, q1) by one inverse and one forward lookup.  The two steps of a
    firing state the crossing's relation in full, so a step whose target
    is already known becomes a check instead; a crossing that fires with
    all four known is checked in full, and one that fires with two known
    holds by construction.  Each crossing fires exactly once.
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
                steps = ((UNDER, c, a, b), (OVER, d, b, a))
            elif known[c] and known[d]:
                steps = ((THROUGH_INV_1, a, c, d), (THROUGH_INV_2, b, c, d))
            elif known[a] and known[d]:
                steps = ((OVER_INV, b, d, a), (UNDER, c, a, b))
            elif known[b] and known[c]:
                steps = ((UNDER_INV, a, c, b), (OVER, d, b, a))
            else:
                continue
            fired[idx] = True
            for step in steps:
                target = step[1]
                if known[target]:
                    check.append(step)
                else:
                    known[target] = True
                    derive.append(step)
                    stack.extend(touching[target])
        plan.append((free, derive, check))
    return plan


def _tables(bq):
    """The six operations as flat lists: table[x * (n + 1) + y].

    Built once per Biquandle instance and kept on it, like the cochain
    complex; the tables are not expected to change after construction.
    """
    tables = getattr(bq, "_coloring_tables", None)
    if tables is None:
        size = bq.n + 1
        tables = [[0] * (size * size) for _ in range(6)]
        for x in bq.elements:
            for y in bq.elements:
                values = (bq.under(x, y), bq.over(x, y), bq.under_inv(x, y), bq.over_inv(x, y))
                for table, v in zip(tables, values + bq.through_inv(x, y)):
                    table[x * size + y] = v
        bq._coloring_tables = tables
    return tables


def colorings(diagram, bq):
    """All colorings in lexicographic order.

    Runs the plan of _plan: each level assigns every element to its free
    semiarc, derives the semiarcs that choice forces by table lookups and
    tests the level's check equations before going deeper.  Derived
    semiarcs lie past the level's free one, so colorings come out in
    lexicographic order of the free choices, which is the lexicographic
    order of the tuples.
    """
    size = bq.n + 1
    tables = _tables(bq)
    plan = [
        (
            free,
            [(tables[k], t, p, q) for k, t, p, q in derive],
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
            for tab, t, p, q in derive:
                color[t] = tab[color[p] * size + color[q]]
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
