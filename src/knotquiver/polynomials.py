"""Polynomials attached to quiver representations.

Two flavours of variable coexist:

* ordinary counting variables s, t, z whose exponents are plain
  integers, and
* group-exponent variables x, y, q whose exponents live in the
  coefficient group of the cocycles (integers mod m, or all of Z when
  m = 0), so exponents add modulo m under multiplication.

A term is keyed by its canonical form: a tuple of (variable, exponent)
pairs in VAR_PRECEDENCE order, each variable at most once, no zero
exponent, group exponents reduced mod m.  monomial and collect produce
polynomials in this form: monomial builds its key from an exponent
dict, and collect, the one place that sums like terms, takes keys
already in it.  The constructor takes keys of (variable, exponent)
pairs in any order and makes them canonical before it collects them.

Terms render without spaces, highest term first under the precedence
x > y > s > t > z; q-terms render in ascending order instead so small
weights read first.
"""

from collections import Counter
from itertools import chain, permutations, product

VAR_PRECEDENCE = ("x", "y", "s", "t", "z", "q")
GROUP_VARS = frozenset(("x", "y", "q"))


class LimitError(RuntimeError):
    """Raised when a search exceeds its work budget (see STEP_BUDGET)."""


# labeled extension steps the path search may take; read at call time.
# A step that leaves the tail's strongly connected component while the
# tail has an unused in-arrow is never taken, so it is never counted.
# The count is of the labeled trails the search would take without
# reusing the search below a component entry: a reuse adds the steps
# below the entry times the weight of the step into it.
STEP_BUDGET = 500_000


def _norm_exp(var, exp, modulus):
    if var in GROUP_VARS and modulus:
        return exp % modulus
    return exp


class GroupExponentPolynomial:
    """Integer-coefficient polynomial with group-valued exponents on x, y, q.

    terms maps canonical keys (see the module docstring), such as
    (("x", 2), ("z", 3)), to nonzero coefficients.  The constructor
    makes the keys it is given canonical, so (("z", 1), ("x", 1)) is
    stored as (("x", 1), ("z", 1)); collect and monomial build from
    canonical keys without that pass.  Sums, products and specialize
    build through collect, so render reads each key's variables in
    stored order.
    """

    __slots__ = ("terms", "modulus")

    def __init__(self, terms=None, modulus=0):
        canon = self.collect(
            ((_merge_keys((), key, modulus), c) for key, c in dict(terms or {}).items()),
            modulus)
        self.terms = canon.terms
        self.modulus = modulus

    @classmethod
    def _of(cls, terms, modulus):
        """A polynomial with terms as given: canonical keys, nonzero
        coefficients."""
        poly = cls.__new__(cls)
        poly.terms = terms
        poly.modulus = modulus
        return poly

    @classmethod
    def collect(cls, pairs, modulus=0):
        """The sum of the (key, coefficient) pairs: coefficients of equal
        keys added, zeros dropped.  Keys must be canonical."""
        terms = {}
        for key, c in pairs:
            terms[key] = terms.get(key, 0) + c
        return cls._of({k: c for k, c in terms.items() if c}, modulus)

    @classmethod
    def zero(cls, modulus=0):
        return cls._of({}, modulus)

    @classmethod
    def constant(cls, c, modulus=0):
        return cls._of({(): c} if c else {}, modulus)

    @classmethod
    def monomial(cls, coeff, exps, modulus=0):
        """exps: dict var -> exponent."""
        if not coeff:
            return cls._of({}, modulus)
        return cls._of({_make_key(exps, modulus): coeff}, modulus)

    def _join_modulus(self, other):
        a, b = self.modulus, other.modulus
        if a and b and a != b:
            raise ValueError("mixed exponent moduli %d and %d" % (a, b))
        return a or b

    def __add__(self, other):
        if isinstance(other, int):
            other = GroupExponentPolynomial.constant(other, self.modulus)
        m = self._join_modulus(other)
        return GroupExponentPolynomial.collect(chain(self.terms.items(), other.terms.items()), m)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, int):
            other = GroupExponentPolynomial.constant(other, self.modulus)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = GroupExponentPolynomial.constant(other, self.modulus)
        m = self._join_modulus(other)
        return GroupExponentPolynomial.collect(
            ((_merge_keys(k1, k2, m), c1 * c2)
             for k1, c1 in self.terms.items() for k2, c2 in other.terms.items()), m)

    __rmul__ = __mul__
    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, int):
            other = GroupExponentPolynomial.constant(other, self.modulus)
        if not isinstance(other, GroupExponentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def render(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=_render_order)
        parts = []
        for key in keys:
            c = self.terms[key]
            body = "".join(v if e == 1 else "%s^%d" % (v, e) for v, e in key)
            mag = abs(c)
            coef = "" if (mag == 1 and body) else str(mag)
            piece = coef + body
            if not parts:
                parts.append(("-" if c < 0 else "") + piece)
            else:
                parts.append(("-" if c < 0 else "+") + piece)
        return "".join(parts)

    __repr__ = render
    __str__ = render


def _make_key(exps, modulus):
    """The canonical key of a term with exponents exps, {var: exponent}."""
    items = []
    for v, e in exps.items():
        if v not in VAR_PRECEDENCE:
            raise ValueError("unknown variable %r" % v)
        e = _norm_exp(v, e, modulus)
        if e:
            items.append((v, e))
    items.sort(key=lambda p: VAR_PRECEDENCE.index(p[0]))
    return tuple(items)


def _merge_keys(k1, k2, modulus):
    exps = dict(k1)
    for v, e in k2:
        exps[v] = exps.get(v, 0) + e
    return _make_key(exps, modulus)


def _render_order(key):
    exps = dict(key)
    return (
        tuple(-exps.get(v, 0) for v in ("x", "y", "s", "t", "z")),
        exps.get("q", 0),
    )


def char_poly(mat):
    """det(t*I - mat) for a square integer matrix, exactly.

    Uses the trace recursion M_1 = A, M_k = A (M_{k-1} + c_{k-1} I),
    c_k = -tr(M_k) / k, with exact integer division; a nonzero remainder
    would signal a non-integer matrix and fail an assertion.  A step
    reads only the nonzero entries of each row of A, so it costs
    nnz(A) * n multiplications instead of n^3.  Once M_k and c_k are
    both zero every later step is too, so the recursion stops there:
    after two steps for a matrix of rank one.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
    rows = [[(l, a) for l, a in enumerate(row) if a] for row in mat]
    terms = {(("t", n),) if n else (): 1}
    work = mat
    c = 1
    for k in range(1, n + 1):
        if k > 1:
            # row i of A (M + cI) is the sum of a * (row l of M) over the
            # nonzero entries a = A[i][l], plus c times row i of A
            nxt = []
            for row in rows:
                acc = [0] * n
                for l, a in row:
                    acc = [x + a * y for x, y in zip(acc, work[l])]
                    acc[l] += a * c
                nxt.append(acc)
            work = nxt
        c, r = divmod(-sum(work[i][i] for i in range(n)), k)
        assert r == 0, "trace recursion left a nonzero remainder"
        if c:
            terms[(("t", n - k),) if k < n else ()] = c
        elif not any(map(any, work)):
            break
    return GroupExponentPolynomial._of(terms, 0)


def specialize(poly, ones=(), merge_xy_to_q=False):
    """Set each variable in `ones` to 1 and optionally merge x, y into q.

    Merging requires every term to carry equal x and y exponents; the
    common exponent becomes the q exponent.
    """
    drop = set(ones)
    pairs = []
    for key, c in poly.terms.items():
        exps = {v: e for v, e in key if v not in drop}
        if merge_xy_to_q:
            ex = exps.pop("x", 0)
            ey = exps.pop("y", 0)
            if ex != ey:
                raise ValueError("cannot merge x^%d with y^%d into q" % (ex, ey))
            if ex:
                exps["q"] = exps.get("q", 0) + ex
        pairs.append((_make_key(exps, poly.modulus), c))
    return GroupExponentPolynomial.collect(pairs, poly.modulus)


def maximal_paths(quiver):
    """All maximal non-repeating edge paths of a quiver, sorted.

    A path is a sequence of edges, each starting where the previous one
    ended and no edge used twice.  A path is maximal when it is not a
    subsequence (order preserving, not necessarily contiguous) of any
    other such path.

    The search runs over arrow classes: the arrows with equal source,
    target and matrix.  Such arrows can be swapped in any path, so it
    keeps a count of unused arrows per class and extends trails of
    classes.  A class trail with k_c steps in class c of n_c arrows
    stands for the product of n_c! / (n_c - k_c)! labeled trails, its
    weight; each maximal class path is expanded here into that many
    labeled paths.

    The search extends trails at the head only.  A dead end is a trail
    with no unused edge out of its head and none into its tail; every
    maximal path is one.  A dead end is maximal exactly when no vertex
    it visits lies on a cycle of unused edges: whatever a longer path
    inserts between two of its edges is a closed trail of unused edges
    at the vertex they share, and any such cycle can be inserted.  Both
    tests read only which classes have arrows left, so maximality is a
    property of the class trail.

    A trail can return to its tail only from the tail's strongly
    connected component.  So once a step leaves that component while
    the tail still has an unused in-arrow, that arrow stays unused and
    no extension is a dead end: the search never takes such a step.

    Nor does a trail that steps into another component ever come back,
    so what lies below that step depends only on the vertex it enters.
    The search below such an entry vertex runs once, and every later
    trail that enters there reuses it (see _class_paths).

    The budget counts the labeled trails the search would take without
    that reuse: an extension step is one edge pushed onto a labeled
    trail, and a class step adds its weight; a step the search skips is
    never counted, and a reuse adds the steps below the entry times the
    weight of the step into it.  The search raises LimitError once the
    steps pass STEP_BUDGET, naming step STEP_BUDGET + 1, which lies
    inside the class step that passed it; a reuse that would pass it
    searches live instead, so the count stops where it would without
    reuse.  Dead ends and maximal paths are counted in the same units.
    Every dead end follows a class step, and its test scans only the
    distinct vertices of the trail, so the budget bounds the whole
    search, the tests included.
    """
    members, roots, entries = _class_paths(quiver)
    found = []
    stack = [(path, entry) for path, _, entry in roots]
    while stack:
        path, entry = stack.pop()
        if entry is None:
            found.append(path)
        else:
            stack.extend((path + more, below) for more, _, below in entries[entry])
    out = []
    for path in found:
        # the places of each class on the path take its arrows in every
        # order, one labeled path per choice
        slots = {}
        for i, c in enumerate(path):
            slots.setdefault(c, []).append(i)
        labeled = list(path)
        for picks in product(*(permutations(members[c], len(at)) for c, at in slots.items())):
            for at, arrows in zip(slots.values(), picks):
                for i, e in zip(at, arrows):
                    labeled[i] = e
            out.append(tuple(labeled))
    out.sort()
    return out


def _class_paths(quiver):
    """The one trail search behind maximal_paths and path_polynomials.

    Returns (members, roots, entries).  members[c] lists the arrows of
    class c in index order.  roots holds (class path, weight, entry)
    triples: a maximal class path when entry is None, else a trail that
    ends with the step into vertex entry and goes on with each of
    entries[entry], a list of triples of the same shape that continue
    from there, weights counted from 1 at the entry.  entries runs from
    the innermost entry out, so an entry comes after every entry its
    list names.  The weight of a whole path is the product of the
    weights of its pieces: a piece never uses a class of another.

    The strongly connected components of the class graph are labelled
    once per call; a class step to a vertex outside the tail's component
    while the tail has an unused in-arrow is skipped before it is
    counted, since nothing below it is a dead end.  A step into another
    component, the crossing into w, is taken only when the tail has no
    unused in-arrow left, and the trail never comes back: the arrows
    below w are all unused, and whether the vertices before w lie on an
    unused cycle is fixed.  So the first crossing into w searches below
    w as its own part, with the part's dead ends kept when no vertex of
    the part lies on an unused cycle, and records that list with the
    steps, dead ends and maximal paths below w per unit weight.  A later
    crossing into w adds those counts times its weight and keeps the
    completions when its own part passes the same test.  The search
    state of the open parts is saved on a stack, so parts nest as deep
    as the chain of components, with no recursion.  See maximal_paths
    for what is searched and how the budget counts.
    """
    budget = STEP_BUDGET
    n = len(quiver.edges)
    # arrows with equal (source, target, matrix) form a class, numbered
    # in order of first arrow; vertices renumbered 0..V-1 so that
    # per-vertex state lives in lists
    index = {}
    by_key = {}
    members = []
    source, target = [], []
    for e, (src, tgt, mat) in enumerate(quiver.edges):
        key = (src, tgt, mat)
        c = by_key.get(key)
        if c is None:
            c = by_key[key] = len(members)
            members.append([])
            source.append(index.setdefault(src, len(index)))
            target.append(index.setdefault(tgt, len(index)))
        members[c].append(e)
    nc = len(members)
    nv = len(index)
    out_of = [[] for _ in range(nv)]
    for c in range(nc):
        out_of[source[c]].append(c)
    comp = _components(out_of, target)
    # cross[c]: class c steps into another component
    cross = [comp[source[c]] != comp[target[c]] for c in range(nc)]
    # unused arrows of each class, out of and into each vertex, and
    # visits by the trail
    left = [len(es) for es in members]
    free_out = [0] * nv
    free_in = [0] * nv
    for c in range(nc):
        free_out[source[c]] += left[c]
        free_in[target[c]] += left[c]
    visits = [0] * nv
    entries = {}
    counts = {}  # entry -> steps, dead ends and maximal paths below it
    # The open part: path holds its classes, weight[i] the labeled
    # trails that the whole trail up to path[:i] stands for, from mult,
    # the weight of the step into the part (1 for the root trails).
    # found and gained hold its kept paths and their labeled trails,
    # steps0 and dead0 the counts at its start, on_trail its distinct
    # vertices in order of first visit (the trail grows and shrinks at
    # the head, so a vertex leaves in reverse order).  clean: no vertex
    # before the part lies on an unused cycle; linked: no vertex of the
    # enclosing part does.  frames saves each enclosing part with the
    # step out of it.
    frames = []
    path = []
    weight = [1]
    mult = 1
    clean = linked = True
    roots = found = []
    on_trail = []
    steps = dead_ends = gained = steps0 = dead0 = 0
    exhausted = iter(())
    for first in range(nc):
        tail = source[first]
        visits[tail] += 1
        on_trail.append(tail)
        # iters[i] yields the classes that may follow path[:i]
        iters = [iter((first,))]
        while iters:
            for c in iters[-1]:
                k = left[c]
                # a trail that leaves the tail's component never uses
                # the tail's unused in-arrows: no dead end lies below
                if not k or cross[c] and free_in[tail]:
                    continue
                trails = weight[-1] * k
                steps += trails
                if steps > budget:
                    # the (budget + 1)-th labeled trail lies in this step;
                    # the maximal paths so far are the kept paths (gained)
                    # of the open parts that are clean
                    maximal = sum(f[7] for f in frames if f[4]) + (gained if clean else 0)
                    raise LimitError(
                        "maximal_paths: %d extension steps (budget %d), %d dead ends,"
                        " %d maximal so far, %d edges"
                        % (budget + 1, budget, dead_ends, maximal, n)
                    )
                v, w = source[c], target[c]
                if cross[c]:
                    below = counts.get(w)
                    if below is not None and steps + trails * below[0] <= budget:
                        steps += trails * below[0]
                        dead_ends += trails * below[1]
                        if below[2] and _off_unused_cycles(on_trail, free_out, free_in, out_of, target, left):
                            found.append((tuple(path) + (c,), trails, w))
                            gained += trails * below[2]
                        continue
                    # the first step into w opens a part
                    frames.append((c, path, weight, mult, clean, linked, found, gained, steps0, dead0, on_trail))
                    linked = _off_unused_cycles(on_trail, free_out, free_in, out_of, target, left)
                    clean = clean and linked
                    path = []
                    weight = [trails]
                    mult = trails
                    found = []
                    gained = 0
                    steps0 = steps
                    dead0 = dead_ends
                    on_trail = []
                else:
                    path.append(c)
                    weight.append(trails)
                left[c] = k - 1
                free_out[v] -= 1
                free_in[w] -= 1
                if not visits[w]:
                    on_trail.append(w)
                visits[w] += 1
                if free_out[w]:
                    iters.append(iter(out_of[w]))
                    break
                iters.append(exhausted)
                if free_in[tail]:
                    break
                dead_ends += trails
                if _off_unused_cycles(on_trail, free_out, free_in, out_of, target, left):
                    found.append((tuple(path), trails, None))
                    gained += trails
                break
            else:
                iters.pop()
                if path:
                    c = path.pop()
                    weight.pop()
                    w = target[c]
                    visits[w] -= 1
                    if not visits[w]:
                        on_trail.pop()
                elif frames:
                    # the part below w is done: record it per unit weight
                    # and go back to the part that stepped into it
                    w = target[frames[-1][0]]
                    kept = gained // mult
                    entries[w] = [(p, t // mult, x) for p, t, x in found]
                    counts[w] = ((steps - steps0) // mult, (dead_ends - dead0) // mult, kept)
                    trails, part_linked = mult, linked
                    c, path, weight, mult, clean, linked, found, gained, steps0, dead0, on_trail = frames.pop()
                    visits[w] = 0
                    if kept and part_linked:
                        found.append((tuple(path) + (c,), trails, w))
                        gained += trails * kept
                else:
                    # back before the first step: this root is done
                    break
                free_in[w] += 1
                free_out[source[c]] += 1
                left[c] += 1
        visits[tail] -= 1
        on_trail.pop()
    return members, roots, entries


def _components(out_of, target):
    """comp[v]: the label of vertex v's strongly connected component.

    Tarjan's algorithm with an explicit stack of (vertex, arrow
    iterator) frames, so it takes linear time and no recursion.  A
    vertex that is numbered but not yet labelled is on Tarjan's stack.
    """
    nv = len(out_of)
    comp = [-1] * nv
    order = [-1] * nv
    low = [0] * nv
    stack = []
    seen = labels = 0
    for root in range(nv):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        frames = [(root, iter(out_of[root]))]
        while frames:
            v, arrows = frames[-1]
            for c in arrows:
                w = target[c]
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    frames.append((w, iter(out_of[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = labels
                    labels += 1
    return comp


def _on_unused_cycle(v, out_of, target, left):
    """Whether a closed trail of unused arrows passes through vertex v."""
    seen = {v}
    stack = [v]
    while stack:
        for c in out_of[stack.pop()]:
            if left[c]:
                w = target[c]
                if w == v:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return False


def _off_unused_cycles(vertices, free_out, free_in, out_of, target, left):
    """Whether no vertex of vertices lies on a closed trail of unused arrows.

    A vertex on an unused cycle has unused arrows in and out, so at a
    dead end the head and the tail are never tried."""
    for u in vertices:
        if free_out[u] and free_in[u] and _on_unused_cycle(u, out_of, target, left):
            return False
    return True


def _char_sum(weighted, n):
    """Sum of w * det(t*I_n - M) * s^length over ((M, length), w) pairs, M
    an n x n matrix as its sorted nonzero entries; length 0 adds no
    factor.  M is zero outside the set U of rows and columns its entries
    use, so det(t*I_n - M) is t^(n - |U|) times char_poly of the U x U
    block, which runs once per distinct M."""
    chars = {}
    pairs = []
    for (mat, length), w in weighted:
        terms = chars.get(mat)
        if terms is None:
            used = sorted({i for ij, _ in mat for i in ij})
            entries = dict(mat)
            block = [[entries.get((i, j), 0) for j in used] for i in used]
            terms = chars[mat] = {}
            for k, c in char_poly(block).terms.items():
                e = n - len(used) + (k[0][1] if k else 0)  # times t^(n - |U|)
                terms[(("t", e),) if e else ()] = c
        s = (("s", length),) if length else ()
        pairs.extend((s + k, c * w) for k, c in terms.items())
    return GroupExponentPolynomial.collect(pairs)


def _entry_sum(weighted, modulus, row_var, col_var):
    """Sum of w * (entry polynomial of M) * z^length over ((M, length), w)
    pairs, M as its sorted nonzero entries; length 0 adds no factor.
    The entry polynomial sums a * row_var^i * col_var^j over the entries
    ((i, j), a).  It is linear in the matrix, so the weighted entries
    are added per (length, i, j) first, and each sum gets one key.  z
    follows x and y, so it goes last in each key."""
    sums = {}  # (length, i, j) -> weighted sum of the (i, j) entries of that length
    for (mat, length), w in weighted:
        for (i, j), a in mat:
            key = (length, i, j)
            sums[key] = sums.get(key, 0) + w * a
    return GroupExponentPolynomial.collect(
        (
            (_make_key({row_var: i, col_var: j}, modulus) + ((("z", length),) if length else ()), c)
            for (length, i, j), c in sums.items()
        ),
        modulus,
    )


def _mat_mul(a, b):
    """The product a * b of two matrices given as sorted nonzero entries,
    in the same form."""
    rows = {}  # row l of b as (column, value) pairs
    for (l, j), y in b:
        rows.setdefault(l, []).append((j, y))
    out = {}
    for (i, l), x in a:
        for j, y in rows.get(l, ()):
            out[i, j] = out.get((i, j), 0) + x * y
    return tuple(sorted(item for item in out.items() if item[1]))


def edge_char_polynomial(quiver):
    """Sum over edges of det(t*I - action matrix).

    Equal matrices have equal terms, so each distinct matrix counts
    once, times the number of edges that carry it.
    """
    counts = Counter(mat for _, _, mat in quiver.edges)
    return _char_sum((((mat, 0), k) for mat, k in counts.items()), quiver.modulus)


def edge_matrix_polynomial(quiver):
    """Sum over edges of the entry polynomial, x on rows and y on columns.

    The entry polynomial is linear in the matrix, so this is the entry
    polynomial of the summed edge matrices, each distinct matrix
    weighted once by the number of edges that carry it.
    """
    counts = Counter(mat for _, _, mat in quiver.edges)
    return _entry_sum((((mat, 0), k) for mat, k in counts.items()), quiver.modulus, "x", "y")


def path_polynomials(quiver):
    """(path characteristic polynomial, path matrix polynomial) from one
    search of the maximal paths.

    The characteristic polynomial sums det(t*I - product matrix) * s^length
    over the maximal paths, the matrix polynomial the entry polynomial of
    the product matrix times z^length; there x tracks the column label
    (where the path starts) and y the row label (where it ends).  The
    first edge acts first, so it is the rightmost factor of the product.

    The sum runs over maximal class paths (see maximal_paths): all the
    labeled paths of a class path have the same product and length, so
    its terms count once per labeled path, times its weight.  A matrix
    is its sorted nonzero entries, at most c^2 of them for a product of
    arrow matrices from c vectors, so it is hashed as it is, and the
    product of two matrices is formed once per pair.  Weights are
    tallied per (product, length): once per entry for the paths that
    continue from it (see _class_paths), then per root trail, where a
    trail that ends with a step into an entry takes each of the entry's
    (product, length) tallies times its own product, length and weight.
    The trails of a list come in the order of the search, so neighbours
    share prefixes, whose products stay on a stack.  The ((product,
    length), weight) tallies then go to the two sums the edge
    polynomials use too, _char_sum and _entry_sum.  The search and its
    budget are those of maximal_paths: the budget counts the labeled
    trails the search would take without reuse.
    """
    members, roots, entries = _class_paths(quiver)
    products = {}  # (a, b) -> a * b

    def times(a, b):
        # None stands for the empty product
        if a is None:
            return b
        p = products.get((a, b))
        if p is None:
            p = products[a, b] = _mat_mul(a, b)
        return p

    cls = [quiver.edges[es[0]][2] for es in members]
    tallies = {}  # entry -> {(product, length): labeled paths below it}

    def tally(found):
        out = {}
        prev = ()
        prefix = []  # prefix[i]: the product of the first i + 1 classes of prev
        for path, weight, at in found:
            shared = 0
            for a, b in zip(prev, path):
                if a != b:
                    break
                shared += 1
            del prefix[shared:]
            for c in path[shared:]:
                prefix.append(times(cls[c], prefix[-1]) if prefix else cls[c])
            prev = path
            p = prefix[-1] if prefix else None
            if at is None:
                key = (p, len(path))
                out[key] = out.get(key, 0) + weight
            else:
                for (q, length), count in tallies[at].items():
                    key = (times(q, p), len(path) + length)
                    out[key] = out.get(key, 0) + weight * count
        return out

    for at, found in entries.items():
        tallies[at] = tally(found)
    weighted = list(tally(roots).items())
    m = quiver.modulus
    return _char_sum(weighted, m), _entry_sum(weighted, m, "y", "x")


def path_char_polynomial(quiver):
    """Sum over maximal paths of det(t*I - product matrix) * s^length."""
    return path_polynomials(quiver)[0]


def path_matrix_polynomial(quiver):
    """Sum over maximal paths of the entry polynomial times z^length.

    For a path product matrix, x tracks the column label (where the
    path starts) and y the row label (where it ends).
    """
    return path_polynomials(quiver)[1]
