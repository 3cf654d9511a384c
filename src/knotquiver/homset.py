"""Biquandle colorings of oriented diagrams and their chain vectors.

A coloring assigns an algebra element to every semiarc so that at each
positive crossing under_out = under(under_in, over_in) and
over_out = over(over_in, under_in), and at each negative crossing the
same relations hold with in and out swapped.  Colorings are stored as
tuples indexed by semiarc label.

The search solves a list of crossing relations (p1, p2, q1, q2), each
saying (q1, q2) = through(p1, p2), over numbered slots (see solve).  A
diagram gives one relation per crossing over its semiarcs; an algebra
X gives one per pair (a, b) over its elements, (a, b, under(a, b),
over(b, a)), and the solutions over Y are then the homomorphisms
X -> Y (see algebra.homomorphisms).

The search runs a plan compiled once per relation list (see _plan),
and only once for a diagram, which keeps it (see _diagram_plan).
Which relation fires depends only on which of its four slots are
known, never on their values, and so does the choice of the next free
slot.  A dry run over "known" flags therefore fixes everything but the
values: the slot chosen freely at each level, the lookups that derive
the slots the choice forces, and the equations left to check at the
relations it completes.  Each relation belongs to exactly one level
and is verified there once.  Every slot but the free ones is derived,
so a solution is fixed by its values on the free slots (see
free_slots); the quiver finds the target of each arrow through them.
A relation that fires with two known slots derives the other two from
one index into two flat tables of the same shape (see _tables), so it
costs one index computation, not two.
The tables are read off the algebra's own relations, so the crossing
convention is written once for a diagram, in _constraints, and once
for an algebra, in Biquandle._relations.

Every partial solution of a level runs the same straight-line program,
so for algebras of order up to 15 the search runs a whole level at
once (see _lanes): each slot is a column of one byte per partial
solution, the pair index of a lookup is one byte, and a derive step or
a check is a few C-level calls on whole columns, bytes.translate among
them.  Above order 15 a depth-first walk (see _walk) runs the plan one
partial solution at a time.  Both iterate over the levels, so a plan
of thousands of levels needs no recursion.
"""

from itertools import compress
from operator import itemgetter

# the eight lookup tables of _tables, in this order: under, its and
# over's inverses and the two halves of through_inv, then the second
# table of the fused firings from (p1, p2), (q2, p1) and (q1, p2)
(UNDER, UNDER_INV, OVER_INV, THROUGH_INV_1, THROUGH_INV_2,
 OVER_SWAP, UNDER_AT_OVER_INV, OVER_AT_UNDER_INV) = range(8)


def _constraints(diagram):
    # each crossing as (p1, p2, q1, q2) with (q1, q2) = through(p1, p2)
    cons = []
    for c in diagram.crossings:
        if c.sign > 0:
            cons.append((c.under_in, c.over_in, c.under_out, c.over_out))
        else:
            cons.append((c.under_out, c.over_out, c.under_in, c.over_in))
    return cons


def _plan(cons, n):
    """The search plan for the relations cons over slots 0..n - 1: one
    (free, derive, check) triple per level.  cons may be a diagram's
    crossings (see _constraints) or an algebra's pairs.

    free is the lowest slot still unknown when the level starts.
    derive lists steps (first, second, s, t, p, q) that set s to
    first(p, q) and then t to second(p, q), in order; check lists steps
    (table, target, p, q) that must hold as equations, target =
    table(p, q).  Every slot but the free ones is derived exactly
    once, and never overwritten.

    A relation (p1, p2, q1, q2) fires once two of its slots fix the
    rest, in one of four forms: (p1, p2) by through, (q1, q2) by
    through_inv, (q2, p1) and (q1, p2) by one inverse and one forward
    lookup.  Each form is a step (first, second, s, t, p, q) that reads
    the two other slots s and t at the index of the known p and q.
    When s and t are unknown and distinct, the firing is that fused
    step.  Otherwise its two single lookups (first, s, p, q) and
    (second, t, p, q), at the same index, each become a check if their
    target is known and else a derive step (table, table, t, t, p, q)
    that writes t twice; this covers a relation that fires with three
    of its slots known, and an R1 kink or a diagonal pair (a, a), whose
    two targets are the same slot.  A relation that fires with all four
    known is checked in full, and one that fires with two known holds
    by construction.  Each relation fires exactly once.
    """
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
                step = (UNDER, OVER_SWAP, c, d, a, b)
            elif known[c] and known[d]:
                step = (THROUGH_INV_1, THROUGH_INV_2, a, b, c, d)
            elif known[a] and known[d]:
                step = (OVER_INV, UNDER_AT_OVER_INV, b, c, d, a)
            elif known[b] and known[c]:
                step = (UNDER_INV, OVER_AT_UNDER_INV, a, d, c, b)
            else:
                continue
            fired[idx] = True
            first, second, s, t, p, q = step
            if s != t and not known[s] and not known[t]:
                derive.append(step)
                known[s] = known[t] = True
                new = (s, t)
            else:
                new = []
                for k, target in ((first, s), (second, t)):
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


# up to order 15 the index x * 16 + y of a pair (x, y) is one byte
BYTE_STRIDE = 16


def _stride(n):
    """Table stride for an algebra of order n: a pair (x, y) sits at
    x * stride + y."""
    return BYTE_STRIDE if n < BYTE_STRIDE else n + 1


def _tables(bq):
    """The eight tables of the plan, flat: table[x * _stride(n) + y].

    Two per firing form of _plan, read at the index of its known pair:
    under(x, y) and over(y, x) at (p1, p2), the two halves of
    through_inv at (q1, q2), over_inv(x, y) and under(y, over_inv(x, y))
    at (q2, p1), and under_inv(x, y) and over(y, under_inv(x, y)) at
    (q1, p2).  All eight are filled in one pass over the algebra's
    relations (see Biquandle._relations): each relation writes its two
    other slots at the index of each of those four pairs.  Up to order
    15 they are 256-byte bytes objects, ready for bytes.translate, and
    lists above.  Built once per Biquandle instance and kept on it, like
    the cochain complex; the tables are not expected to change after
    construction.  The Biquandle's inverses and
    algebra.is_homomorphism read them too.
    """
    tables = getattr(bq, "_coloring_tables", None)
    if tables is None:
        size = _stride(bq.n)
        tables = [[0] * (size * size) for _ in range(8)]
        (under, under_inv, over_inv, through_inv_1, through_inv_2,
         over_swap, under_at_over_inv, over_at_under_inv) = tables
        for a, b, c, d in bq._relations:
            a, b, c, d = a + 1, b + 1, c + 1, d + 1
            i = a * size + b
            under[i], over_swap[i] = c, d
            i = c * size + d
            through_inv_1[i], through_inv_2[i] = a, b
            i = d * size + a
            over_inv[i], under_at_over_inv[i] = b, c
            i = c * size + b
            under_inv[i], over_at_under_inv[i] = a, d
        if size == BYTE_STRIDE:
            tables = [bytes(table) for table in tables]
        bq._coloring_tables = tables
    return tables


# most lanes one chunk of a level holds; a level whose parents would
# make more is searched in consecutive chunks of them
LANE_CAP = 1 << 12

# byte 0 -> 1, every other byte -> 0: marks the lanes no check failed in
_ZERO_LANES = bytes([1]) + bytes(255)


def _getter(idx):
    """A function reading the entries at idx from a sequence, as a tuple;
    itemgetter needs an index, and of one it returns a bare entry."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple([seq[i] for i in idx])


def _lanes(plan, n, n_slots):
    """Solutions by a level-synchronous search, for orders up to 15.

    A lane is one partial solution, and a slot's column holds its
    color in every lane, one byte per lane.  Level k makes n lanes from
    each lane that survived level k - 1, one per color of its free
    slot, in order; each derive step turns the columns of p and q
    into the byte indices p * 16 + q and translates them through its
    tables, and each check compares a translated column with its
    target's.  The lanes whose checks all hold survive.  A column is
    carried into the next level only while a later level reads it; the
    rest stay in their own level's lanes and are read once at the end,
    through the survivors each level keeps.  A level whose lanes would
    pass LANE_CAP takes its parents in consecutive chunks, one after the
    other down to the last level, which keeps the lexicographic order.
    """
    depth = len(plan)
    # the last level that reads each slot
    last = [0] * n_slots
    for level, (_, derive, check) in enumerate(plan):
        for _, _, _, _, p, q in derive:
            last[p] = last[q] = level
        for _, t, p, q in check:
            last[t] = last[p] = last[q] = level
    pattern = bytes(range(1, n + 1))
    chunk = max(1, LANE_CAP // n)
    from_bytes = int.from_bytes
    out = []
    # per level of the current chunk: (its own columns, its surviving
    # lanes or None for all, the first parent of the chunk)
    path = []
    # chunks to search: (level, carried columns, parent count, first parent)
    pending = [(0, {}, 1, 0)]
    while pending:
        level, carried, parents, start = pending.pop()
        stop = min(parents, start + chunk)
        if stop < parents:
            pending.append((level, carried, parents, stop))
        width = (stop - start) * n
        free, derive, check = plan[level]
        cols = {free: pattern * (stop - start)}
        for s, col in carried.items():
            wide = bytearray(width)
            part = col[start:stop]
            for k in range(n):
                wide[k::n] = part
            cols[s] = wide
        ints = {s: from_bytes(col, "little") for s, col in cols.items()}
        for first, second, s, t, p, q in derive:
            idx = ((ints[p] << 4) | ints[q]).to_bytes(width, "little")
            cols[s] = col = idx.translate(first)
            ints[s] = from_bytes(col, "little")
            if s != t:
                cols[t] = col = idx.translate(second)
                ints[t] = from_bytes(col, "little")
        bad = 0
        for table, t, p, q in check:
            idx = ((ints[p] << 4) | ints[q]).to_bytes(width, "little")
            bad |= ints[t] ^ from_bytes(idx.translate(table), "little")
        survivors = None
        if bad:
            flags = bad.to_bytes(width, "little").translate(_ZERO_LANES)
            survivors = list(compress(range(width), flags))
            if not survivors:
                continue
        del path[level:]
        path.append(([(s, col) for s, col in cols.items() if s not in carried],
                     survivors, start))
        if level + 1 < depth:
            live = [s for s in cols if last[s] > level]
            if survivors is None:
                nxt = {s: cols[s] for s in live}
            else:
                get = _getter(survivors)
                nxt = {s: bytes(get(cols[s])) for s in live}
            pending.append((level + 1, nxt, len(survivors) if survivors else width, 0))
            continue
        # read every column once, following each surviving lane up
        lanes = survivors if survivors is not None else range(width)
        colors = [None] * n_slots
        for level in range(depth - 1, -1, -1):
            own_cols, _, first_parent = path[level]
            get = _getter(lanes)
            for s, col in own_cols:
                colors[s] = get(col)
            if level:
                up = path[level - 1][1]
                lanes = [first_parent + j // n for j in lanes]
                if up is not None:
                    lanes = [up[i] for i in lanes]
        out.extend(zip(*colors))
    return out


def _walk(plan, size, elements, n_slots):
    """Solutions by a depth-first walk, one partial solution at a time:
    each level assigns every element to its free slot in turn,
    derives what that forces and tests its checks before going deeper.
    A level writes the same slots on every visit, so stepping back
    undoes nothing."""
    depth = len(plan)
    color = [0] * n_slots
    out = []
    values = [iter(elements)] + [None] * depth
    level = 0
    while level >= 0:
        v = next(values[level], 0)
        if not v:
            level -= 1
            continue
        free, derive, check = plan[level]
        color[free] = v
        for first, second, s, t, p, q in derive:
            i = color[p] * size + color[q]
            color[s] = first[i]
            color[t] = second[i]
        for tab, t, p, q in check:
            if color[t] != tab[color[p] * size + color[q]]:
                break
        else:
            if level + 1 == depth:
                out.append(tuple(color))
            else:
                level += 1
                values[level] = iter(elements)
    return out


def solve(cons, n, bq):
    """Every tuple of n elements of bq under which each relation of cons
    holds, in lexicographic order.

    Runs the plan of _plan, by lanes for algebras of order up to 15 and
    by a depth-first walk above.  Derived slots lie past their level's
    free one, so solutions come out in lexicographic order of the free
    choices, which is the lexicographic order of the tuples.
    """
    return _search(_plan(cons, n), n, bq)


def _search(compiled, n, bq):
    """The solutions of a plan of _plan over n slots, with bq's tables."""
    tables = _tables(bq)
    plan = [
        (
            free,
            [(tables[k1], tables[k2], s, t, p, q) for k1, k2, s, t, p, q in derive],
            [(tables[k], t, p, q) for k, t, p, q in check],
        )
        for free, derive, check in compiled
    ]
    if not plan:
        return [()]
    size = _stride(bq.n)
    if size == BYTE_STRIDE:
        return _lanes(plan, bq.n, n)
    return _walk(plan, size, bq.elements, n)


def _diagram_plan(diagram):
    """The plan of a diagram's crossings (see _constraints and _plan),
    compiled on first use and kept on the diagram, as _tables keeps an
    algebra's tables on it; the crossings are not expected to change
    after construction.  It does not depend on the algebra."""
    plan = getattr(diagram, "_coloring_plan", None)
    if plan is None:
        plan = diagram._coloring_plan = _plan(_constraints(diagram), diagram.n_semiarcs)
    return plan


def colorings(diagram, bq):
    """All colorings in lexicographic order."""
    return _search(_diagram_plan(diagram), diagram.n_semiarcs, bq)


def free_slots(diagram):
    """The semiarc chosen freely at each level of the diagram's plan, in
    order.  Every other semiarc is derived from these, so a coloring is
    fixed by its colors on them: distinct colorings differ there."""
    return [free for free, _, _ in _diagram_plan(diagram)]


def counting_invariant(diagram, bq):
    return len(colorings(diagram, bq))


def pair_basis(bq):
    """Nondegenerate element pairs (x, y), x != y, in lexicographic order."""
    return [
        (x, y) for x in bq.elements for y in bq.elements if x != y
    ]


def _pair_table(bq):
    """The pair_basis index of each pair (x, y) at x * (n + 1) + y, and
    p, the basis size, at every degenerate (x, x); built once per
    Biquandle instance and kept on it.  chain_vectors and the cochain
    complex (cohomology._Complex) both read it."""
    table = getattr(bq, "_chain_pairs", None)
    if table is None:
        stride = bq.n + 1
        pairs = pair_basis(bq)
        table = [len(pairs)] * (stride * stride)
        for k, (x, y) in enumerate(pairs):
            table[x * stride + y] = k
        bq._chain_pairs = table
    return table


def chain_vector(diagram, bq, coloring):
    """Integer 2-chain of a coloring over the nondegenerate pair basis.

    Each crossing contributes its sign times the pair of colors on the
    slots p1 and q2 of its relation (see _constraints): at a positive
    crossing +(under_in color, over_out color), at a negative one
    -(under_out color, over_in color); pairs with equal entries are
    degenerate and dropped.
    """
    return chain_vectors(diagram, bq, [coloring])[0]


def chain_vectors(diagram, bq, cols):
    """The chain_vector of every coloring in cols, in order.

    The crossings are read once, into the slots p1 and q2 of each
    relation and its sign.  A coloring then costs two itemgetter reads
    and, per crossing, one lookup in the algebra's pair table (see
    _pair_table), whose degenerate entry p is a spare last entry,
    dropped at the end.
    """
    flat = _pair_table(bq)
    size = bq.n * (bq.n - 1)
    stride = bq.n + 1
    cons = _constraints(diagram)
    first = _getter([p1 for p1, _, _, _ in cons])
    second = _getter([q2 for _, _, _, q2 in cons])
    signs = [c.sign for c in diagram.crossings]
    vectors = []
    for col in cols:
        vec = [0] * (size + 1)
        for x, y, sign in zip(first(col), second(col), signs):
            vec[flat[x * stride + y]] += sign
        del vec[size]
        vectors.append(vec)
    return vectors


def push_forward(coloring, endo):
    """Apply an endomorphism (image tuple) to every semiarc color; the
    reference that the quiver's arrows through the free slots are tested
    against."""
    return tuple(endo[v - 1] for v in coloring)
