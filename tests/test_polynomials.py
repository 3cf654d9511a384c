import json
import random
import time
from collections import deque
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest

from knotquiver import polynomials
from knotquiver.algebra import builtin, core_cyclic
from knotquiver.catalog import catalog_names, get_diagram
from knotquiver.cohomology import CoeffGroup, evaluate, h2_generators, state_sum
from knotquiver.polynomials import (
    GROUP_VARS,
    VAR_PRECEDENCE,
    GroupExponentPolynomial as P,
    LimitError,
    char_poly,
    edge_char_polynomial,
    edge_matrix_polynomial,
    maximal_paths,
    path_polynomials,
    specialize,
)
from knotquiver.quiver import DataVector, build_representation

POOL_FILE = Path(__file__).resolve().parent.parent / "benchmark" / "paths_pool.json"


def mono(c, modulus=0, **exps):
    return P.monomial(c, exps, modulus)


def test_render_ordinary_vars():
    p = mono(9, t=3) + mono(-13, t=2) + mono(-4, t=1)
    assert p.render() == "9t^3-13t^2-4t"
    p = mono(1, s=3, t=3) + mono(-27, s=3, t=2) + mono(2, s=2, t=3) + mono(-12, s=2, t=2)
    assert p.render() == "s^3t^3-27s^3t^2+2s^2t^3-12s^2t^2"
    assert P.zero().render() == "0"
    assert (mono(-3, t=2)).render() == "-3t^2"


def test_render_group_vars_and_constants():
    p = mono(4, 3, x=2) + mono(6, 3, y=2) + mono(4, 3, y=1) + P.constant(13, 3)
    assert p.render() == "4x^2+6y^2+4y+13"
    p = mono(2, 3, x=2, y=2) + mono(2, 3, x=2) + mono(6, 3, y=2) + mono(4, 3, y=1) + P.constant(13, 3)
    assert p.render() == "2x^2y^2+2x^2+6y^2+4y+13"
    # q sorts ascending so small weights come first
    p = P.constant(8, 2) + mono(8, 2, q=1)
    assert p.render() == "8+8q"


def test_render_mixed_path_terms():
    p = mono(6, 3, x=1, z=2) + mono(27, 3, z=3) + mono(12, 3, z=2)
    assert p.render() == "6xz^2+27z^3+12z^2"


def test_group_exponents_wrap():
    assert mono(1, 3, x=5) == mono(1, 3, x=2)
    assert (mono(1, 3, x=1) * mono(1, 3, x=2)).render() == "1"
    assert (mono(2, 4, y=3) * mono(3, 4, y=3)).render() == "6y^2"
    with pytest.raises(ValueError):
        mono(1, 3, x=1) * mono(1, 4, x=1)


def test_constructor_makes_keys_canonical():
    # a key with its variables out of order, or a group exponent past the
    # modulus, is stored as monomial would build it
    zx = P({(("z", 1), ("x", 1)): 1}, 3)
    assert zx == P.monomial(1, {"x": 1, "z": 1}, 3)
    assert zx.render() == "xz"
    assert (zx + zx).render() == "2xz"
    assert P({(("x", 4),): 1}, 3) == mono(1, 3, x=1)
    assert P({(("z", 1), ("x", 1)): 1, (("x", 1), ("z", 1)): -1}, 3) == 0


def test_arithmetic():
    a = mono(2, t=1) + 3
    b = mono(1, t=1) - 1
    assert (a * b).render() == "2t^2+t-3"
    assert (a - a).render() == "0"


def reference_char_poly(mat):
    """det(t*I - mat) for a square integer matrix, exactly.

    Uses trace recursion with exact integer division; non-integer
    intermediate divisions would signal a non-integer matrix and raise.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
    coeffs = [1]  # c_0 = 1 for lambda^n
    work = [list(row) for row in mat]
    for k in range(1, n + 1):
        if k > 1:
            shifted = [row[:] for row in work]
            for i in range(n):
                shifted[i][i] += coeffs[-1]
            work = [
                [sum(mat[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
        tr = sum(work[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        assert r == 0, "trace recursion left a nonzero remainder"
        coeffs.append(q)
    out = P.zero()
    for k, c in enumerate(coeffs):
        out = out + P.monomial(c, {"t": n - k})
    return out


def sparse_matrix(rng, n):
    # the shape of the arrow matrices: 0 to 3 nonzero entries, and up to
    # 2^14 in size, the size of the entries of path products
    mat = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(0, 3)):
        mat[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1, 2 ** 14)
    return mat


def test_char_poly_against_cofactor_expansion():
    def det(mat):
        n = len(mat)
        if n == 0:
            return P.constant(1)
        if n == 1:
            return mat[0][0]
        out = P.zero()
        for j in range(n):
            if not mat[0][j]:
                continue
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            out = out + (term if j % 2 == 0 else -term)
        return out

    rng = random.Random(5)
    for trial in range(300):
        n = rng.randint(1, 6)
        if trial % 2:
            a = sparse_matrix(rng, n)
        else:
            bound = rng.choice((4, 2 ** 14))
            a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        sym = [
            [
                (mono(1, t=1) if i == j else P.zero()) - P.constant(a[i][j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        expected = det(sym)
        assert char_poly(a) == expected
        assert reference_char_poly(a) == expected


@pytest.mark.parametrize("mat", [[[1, 2]], [[1], [2]], [[1, 2], [3]], [[]]])
def test_char_poly_rejects_a_non_square_matrix(mat):
    with pytest.raises(ValueError, match="matrix must be square"):
        char_poly(mat)


def test_char_poly_known():
    assert char_poly([[3, 0, 0], [0, 0, 0], [0, 0, 0]]).render() == "t^3-3t^2"
    assert char_poly([[2, 0], [0, 3]]).render() == "t^2-5t+6"
    assert char_poly([]).render() == "1"


def test_matrix_poly_row_and_col_vars():
    # one loop: the edge polynomial puts x on rows, the path polynomial y
    q = quiver_of([(0, 0, [[1, 2], [0, 5]])])
    assert edge_matrix_polynomial(q).render() == "5xy+2y+1"
    assert path_polynomials(q)[1].render() == "5xyz+2xz+z"


def test_specialize_drop_and_merge():
    p = mono(6, 3, x=1, z=2) + mono(27, 3, z=3)
    assert specialize(p, ones=("z",)).render() == "6x+27"
    p = mono(8, 2, x=1, y=1) + P.constant(8, 2)
    assert specialize(p, merge_xy_to_q=True).render() == "8+8q"
    bad = mono(1, 3, x=2, y=1)
    with pytest.raises(ValueError):
        specialize(bad, merge_xy_to_q=True)


def sparse(rows):
    """A matrix given by its rows, as the program holds it: the sorted
    ((row, column), value) pairs of its nonzero entries."""
    return tuple(((i, j), a) for i, row in enumerate(rows) for j, a in enumerate(row) if a)


def dense(mat, n):
    """The n x n rows of a matrix the program holds as its nonzero entries."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), a in mat:
        rows[i][j] = a
    return rows


def matrix_poly(mat, row_labels, col_labels, modulus, row_var="x", col_var="y"):
    """Sum of the entries of dense rows as coeff * row_var^row_label *
    col_var^col_label."""
    return P.collect(
        ((polynomials._make_key({row_var: row_labels[j], col_var: col_labels[k]}, modulus), c)
         for j, row in enumerate(mat) for k, c in enumerate(row) if c),
        modulus,
    )


def quiver_of(edges, modulus=2):
    # arrow matrices are given as rows and stored as their nonzero
    # entries, as build_representation makes them; modulus is their size
    edges = [(src, tgt, mat if mat is None else sparse(mat)) for src, tgt, mat in edges]
    return SimpleNamespace(edges=edges, modulus=modulus)


def test_maximal_paths_chain():
    q = quiver_of([(0, 1, None), (1, 2, None)])
    assert maximal_paths(q) == [(0, 1)]


def test_maximal_paths_scattered_subsequence_filter():
    # two loops joined by a two-way bridge: the four full circuits are
    # maximal; shorter stuck paths like loop-bridge-bridge embed in them
    # as scattered subsequences and must be filtered out
    L1, S1, L2, S2 = 0, 1, 2, 3
    q = quiver_of([(0, 0, None), (0, 1, None), (1, 1, None), (1, 0, None)])
    paths = maximal_paths(q)
    assert sorted(paths) == sorted(
        [(L1, S1, L2, S2), (S1, L2, S2, L1), (L2, S2, L1, S1), (S2, L1, S1, L2)]
    )


def test_maximal_paths_disconnected_loops():
    q = quiver_of([(0, 0, None), (1, 1, None)])
    assert maximal_paths(q) == [(0,), (1,)]


def test_maximal_paths_has_no_edge_cap():
    q = quiver_of([(v, v, None) for v in range(100)])
    assert maximal_paths(q) == [(e,) for e in range(100)]


def bridge_quiver():
    # two loops joined by a two-way bridge: 4 maximal paths, 8 dead ends
    # and 22 trails, so the search takes 22 extension steps
    return quiver_of([(0, 0, None), (0, 1, None), (1, 1, None), (1, 0, None)])


def test_maximal_paths_limit_names_the_stage(monkeypatch):
    # the last step would reach the eighth dead end
    monkeypatch.setattr(polynomials, "STEP_BUDGET", 21)
    with pytest.raises(LimitError) as exc:
        maximal_paths(bridge_quiver())
    assert str(exc.value) == (
        "maximal_paths: 22 extension steps (budget 21), 7 dead ends,"
        " 4 maximal so far, 4 edges")


# ----------------------------------------------------- reference oracle


def reference_candidates(quiver):
    """Every dead end: a trail with no unused edge out of its head and
    none into its tail."""
    edges = list(range(len(quiver.edges)))
    by_source = {}
    for idx in edges:
        by_source.setdefault(quiver.edges[idx][0], []).append(idx)
    candidates = []
    stack = [((e,), frozenset((e,))) for e in edges]
    while stack:
        path, used = stack.pop()
        head = quiver.edges[path[-1]][1]
        exts = [e for e in by_source.get(head, ()) if e not in used]
        if exts:
            stack.extend((path + (e,), used | {e}) for e in exts)
            continue
        tail = quiver.edges[path[0]][0]
        if not any(e not in used and quiver.edges[e][1] == tail for e in edges):
            candidates.append(path)
    return candidates


def reference_maximal_paths(quiver):
    """The dead ends that are no scattered subsequence of another dead end
    (quadratic in the number of dead ends)."""

    def is_subseq(short, long_):
        if len(short) >= len(long_):
            return False
        it = iter(long_)
        return all(e in it for e in short)

    candidates = reference_candidates(quiver)
    return sorted(
        p for p in candidates
        if not any(is_subseq(p, q) for q in candidates if q is not p)
    )


def reference_path_polynomials(quiver, paths=None):
    """Both path polynomials, each product matrix built from scratch, as
    plain sums over labeled paths: those given, else the maximal paths
    of the reference."""
    m = quiver.modulus
    labels = range(m)
    chi, pm = P.zero(), P.zero(m)
    for path in reference_maximal_paths(quiver) if paths is None else paths:
        mat = None
        for e in path:
            step = dense(quiver.edges[e][2], m)
            if mat is None:
                mat = step
            else:
                cols = list(zip(*mat))
                mat = [[sum(map(mul, row, col)) for col in cols] for row in step]
        chi = chi + reference_char_poly(mat) * mono(1, s=len(path))
        pm = pm + matrix_poly(mat, labels, labels, m, row_var="y", col_var="x") * mono(
            1, m, z=len(path))
    return chi, pm


def assert_matches_reference(quiver):
    assert maximal_paths(quiver) == reference_maximal_paths(quiver)
    chi, pm = path_polynomials(quiver)
    ref_chi, ref_pm = reference_path_polynomials(quiver)
    assert chi.terms == ref_chi.terms
    assert pm.terms == ref_pm.terms
    assert (chi.modulus, pm.modulus) == (ref_chi.modulus, ref_pm.modulus)


def random_matrix(rng):
    # permutation matrices make paths of different lengths share products
    if rng.random() < 0.5:
        return rng.choice([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    return [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]


def random_quiver(rng):
    # 8 loops on one vertex give 40320 dead ends, which stalls the
    # quadratic reference, so a single vertex gets at most 5 edges
    nv = rng.randint(1, 4)
    ne = rng.randint(0, 7 if nv > 1 else 5)
    edges = [(rng.randrange(nv), rng.randrange(nv), random_matrix(rng)) for _ in range(ne)]
    return quiver_of(edges)


def test_maximal_paths_match_reference_on_random_multigraphs():
    rng = random.Random(2024)
    for _ in range(500):
        assert_matches_reference(random_quiver(rng))


CORE4_VECTORS = ((1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0))


def core4_quiver(link, endos):
    data = DataVector(core_cyclic(4), CoeffGroup(3), CORE4_VECTORS, endos)
    return build_representation(get_diagram(link), data)


@pytest.mark.parametrize("link,endos,paths", [
    ("L4a1", ((2, 4, 2, 4), (1, 1, 1, 1)), 120),
    ("L5a1", ((1, 1, 1, 1), (2, 2, 2, 2)), 56),
    ("L6a5", ((2, 1, 4, 3), (3, 4, 1, 2)), 128),
])
def test_maximal_paths_match_reference_on_core4_quivers(link, endos, paths):
    q = core4_quiver(link, endos)
    assert len(maximal_paths(q)) == paths
    assert_matches_reference(q)


def test_path_polynomials_match_labeled_sum_on_pool_quivers():
    # every 32nd quiver of the benchmark's pool: many parallel arrows and
    # classes with equal matrices, so class-step products repeat
    pool = json.loads(POOL_FILE.read_text())
    endos = [tuple(e) for e in pool["endos"]]
    for link, a, b, *_ in pool["entries"][::32]:
        q = core4_quiver(link, (endos[a], endos[b]))
        chi, pm = path_polynomials(q)
        ref_chi, ref_pm = reference_path_polynomials(q, maximal_paths(q))
        assert chi.terms == ref_chi.terms
        assert pm.terms == ref_pm.terms


def reference_trail_count(quiver):
    """The number of non-empty trails, one extension step each."""
    count = 0
    stack = [(e,) for e in range(len(quiver.edges))]
    while stack:
        path = stack.pop()
        count += 1
        head = quiver.edges[path[-1]][1]
        stack.extend(
            path + (e,) for e, (src, _, _) in enumerate(quiver.edges)
            if src == head and e not in path)
    return count


def reference_taken_trail_count(quiver):
    """The number of non-empty trails the search takes, one extension
    step each: a trail counts when, at each of its steps, the step's
    target reaches the tail or the tail has no unused in-arrow before
    that step."""
    edges = quiver.edges

    def reaches(v, goal):
        seen, queue = {v}, deque([v])
        while queue:
            u = queue.popleft()
            if u == goal:
                return True
            for src, tgt, _ in edges:
                if src == u and tgt not in seen:
                    seen.add(tgt)
                    queue.append(tgt)
        return False

    count = 0
    stack = [(e,) for e in range(len(edges))]
    while stack:
        path = stack.pop()
        tail, head = edges[path[0]][0], edges[path[-1]][1]
        if not reaches(head, tail) and any(
                tgt == tail and e not in path[:-1] for e, (_, tgt, _) in enumerate(edges)):
            continue
        count += 1
        stack.extend(
            path + (e,) for e, (src, _, _) in enumerate(edges)
            if src == head and e not in path)
    return count


def test_maximal_paths_budget_counts_steps(monkeypatch):
    q = bridge_quiver()
    steps = reference_trail_count(q)
    assert steps == 22
    assert len(reference_candidates(q)) == 8
    monkeypatch.setattr(polynomials, "STEP_BUDGET", steps)
    assert len(maximal_paths(q)) == 4
    monkeypatch.setattr(polynomials, "STEP_BUDGET", steps - 1)
    with pytest.raises(LimitError):
        maximal_paths(q)


def doubled_bridge_quiver():
    # every arrow of the bridge quiver twice: 4 classes of 2 parallel
    # arrows, 576 maximal paths, 1056 dead ends and 3188 trails
    return quiver_of([edge for edge in bridge_quiver().edges for _ in range(2)])


def test_maximal_paths_budget_counts_labeled_trails(monkeypatch):
    q = doubled_bridge_quiver()
    steps = reference_trail_count(q)
    assert steps == 3188
    monkeypatch.setattr(polynomials, "STEP_BUDGET", steps)
    assert maximal_paths(q) == reference_maximal_paths(q)
    monkeypatch.setattr(polynomials, "STEP_BUDGET", steps - 1)
    with pytest.raises(LimitError) as exc:
        maximal_paths(q)
    # the last class step stands for the last 8 trails, all dead ends
    assert str(exc.value) == (
        "maximal_paths: 3188 extension steps (budget 3187), 1048 dead ends,"
        " 576 maximal so far, 8 edges")


def random_parallel_quiver(rng):
    # a few arrows, each repeated 1 to 3 times with its matrix, so that
    # classes of parallel arrows sit beside arrows with their own matrix;
    # 5 arrows at most keep the quadratic reference fast
    nv = rng.randint(1, 3)
    edges = []
    while len(edges) < 5:
        edge = (rng.randrange(nv), rng.randrange(nv), random_matrix(rng))
        edges.extend([edge] * min(rng.randint(1, 3), 5 - len(edges)))
        if rng.random() < 0.3:
            break
    return quiver_of(edges)


def test_class_search_matches_reference_on_parallel_arrows(monkeypatch):
    rng = random.Random(7)
    for _ in range(300):
        q = random_parallel_quiver(rng)
        assert_matches_reference(q)
        steps = reference_taken_trail_count(q)
        monkeypatch.setattr(polynomials, "STEP_BUDGET", steps)
        path_polynomials(q)
        monkeypatch.setattr(polynomials, "STEP_BUDGET", steps - 1)
        with pytest.raises(LimitError, match="^maximal_paths: %d extension steps " % steps):
            maximal_paths(q)
        monkeypatch.undo()


def test_taken_trails_are_all_trails_on_strongly_connected_quivers():
    for q in (bridge_quiver(), doubled_bridge_quiver()):
        assert reference_taken_trail_count(q) == reference_trail_count(q)


def test_search_never_steps_out_of_the_tails_component(monkeypatch):
    # two loops a and b joined by a one-way bridge: a trail that starts
    # on the bridge leaves the tail's component while a is unused, so the
    # search takes a, a-bridge, a-bridge-b and b, not all 6 trails
    q = quiver_of([(0, 0, None), (0, 1, None), (1, 1, None)])
    assert (reference_taken_trail_count(q), reference_trail_count(q)) == (4, 6)
    monkeypatch.setattr(polynomials, "STEP_BUDGET", 4)
    assert maximal_paths(q) == reference_maximal_paths(q) == [(0, 1, 2)]
    monkeypatch.setattr(polynomials, "STEP_BUDGET", 3)
    with pytest.raises(LimitError, match="^maximal_paths: 4 extension steps "):
        maximal_paths(q)


def block_chain_quiver(rng):
    # 2 to 4 strongly connected blocks of 1 or 2 vertices (a two-cycle,
    # or a single vertex with or without a loop), each joined to later
    # blocks by one-way arrows, so that trails with different prefixes
    # step into the same vertex; every arrow may come as two parallel
    # copies, and all of them share two matrices
    mats = [random_matrix(rng) for _ in range(2)]
    blocks = []
    for _ in range(rng.randint(2, 4)):
        start = sum(map(len, blocks))
        blocks.append(range(start, start + rng.randint(1, 2)))
    arrows = []
    for block in blocks:
        a, b = block[0], block[-1]
        if a != b:
            arrows += [(a, b), (b, a)]
        elif rng.random() < 0.5:
            arrows.append((a, a))
    for i, block in enumerate(blocks[:-1]):
        for _ in range(rng.randint(1, 2)):
            later = blocks[rng.randint(i + 1, len(blocks) - 1)]
            arrows.append((rng.choice(block), rng.choice(later)))
    edges = []
    for arrow in arrows:
        edges += [arrow + (rng.choice(mats),)] * rng.choice((1, 1, 2))
    return quiver_of(edges)


def test_entry_reuse_matches_reference_on_block_chains(monkeypatch):
    rng = random.Random(21)
    reused = 0
    for _ in range(150):
        q = block_chain_quiver(rng)
        assert_matches_reference(q)
        steps = reference_taken_trail_count(q)
        monkeypatch.setattr(polynomials, "STEP_BUDGET", steps)
        path_polynomials(q)
        monkeypatch.setattr(polynomials, "STEP_BUDGET", steps - 1)
        with pytest.raises(LimitError, match="^maximal_paths: %d extension steps " % steps):
            maximal_paths(q)
        monkeypatch.undo()
        _, roots, entries = polynomials._class_paths(q)
        named = [at for found in (roots, *entries.values()) for _, _, at in found if at is not None]
        reused += len(named) > len(set(named))
    # most of these quivers name some entry from two trails
    assert reused > 75


def test_budget_trips_inside_a_reused_entry(monkeypatch):
    # vertices 0 and 1 feed the two-cycle 2-3 (1 by two parallel
    # arrows), and 2 and 3 feed the loop at 4: the first root records
    # the search below 2 and below 4, and the later trails into them
    # reuse it until a reuse would pass the budget
    q = quiver_of([(0, 2, None), (1, 2, None), (1, 2, None), (2, 3, None), (3, 2, None),
                   (3, 4, None), (2, 4, None), (4, 4, None)])
    steps = reference_taken_trail_count(q)
    assert steps == 34
    monkeypatch.setattr(polynomials, "STEP_BUDGET", steps)
    assert maximal_paths(q) == reference_maximal_paths(q)
    monkeypatch.setattr(polynomials, "STEP_BUDGET", steps - 1)
    with pytest.raises(LimitError, match="^maximal_paths: 34 extension steps "):
        maximal_paths(q)
    # the text the search gave before any reuse: the budget trips below
    # the second root's step into 2 and that trail's step into 4
    monkeypatch.setattr(polynomials, "STEP_BUDGET", 22)
    with pytest.raises(LimitError) as exc:
        maximal_paths(q)
    assert str(exc.value) == (
        "maximal_paths: 23 extension steps (budget 22), 5 dead ends,"
        " 4 maximal so far, 8 edges")


def test_budget_trips_below_a_prefix_on_an_unused_cycle(monkeypatch):
    # 0 feeds 1 on the two-cycle 1-2, and 1 feeds the loop at 3, which
    # feeds 4: the trail 0-1 that steps into 3 leaves 1 on an unused
    # cycle, so the dead ends below 3 are kept for 3 but not counted as
    # maximal for that trail; the text is the one the search gave before
    # any reuse
    q = quiver_of([(0, 1, None), (1, 2, None), (2, 1, None), (1, 3, None), (3, 3, None),
                   (3, 4, None)])
    monkeypatch.setattr(polynomials, "STEP_BUDGET", 10)
    with pytest.raises(LimitError) as exc:
        maximal_paths(q)
    assert str(exc.value) == (
        "maximal_paths: 11 extension steps (budget 10), 3 dead ends,"
        " 1 maximal so far, 6 edges")


def test_a_long_one_way_chain_needs_no_recursion():
    # every arrow steps into another component, so the parts nest 2999
    # deep
    q = quiver_of([(v, v + 1, [[1, 1], [0, 1]]) for v in range(2999)])
    assert maximal_paths(q) == [tuple(range(2999))]
    chi, pm = path_polynomials(q)
    assert chi.render() == "s^2999t^2-2s^2999t+s^2999"
    assert pm.render() == "xyz^2999+2999xz^2999+z^2999"


def class_search_weight(roots, entries):
    """The labeled maximal paths that _class_paths stands for: the weight
    of each root trail times the paths that continue from its entry."""
    below = {}
    for at, found in entries.items():
        below[at] = sum(weight * below.get(x, 1) for _, weight, x in found)
    return sum(weight * below.get(x, 1) for _, weight, x in roots)


def test_class_search_counts_the_pool_maximal_paths():
    # every 2nd quiver of the benchmark's pool, whose entries record the
    # maximal paths the unpruned search found
    pool = json.loads(POOL_FILE.read_text())
    endos = [tuple(e) for e in pool["endos"]]
    for link, a, b, paths, *_ in pool["entries"][::2]:
        _, roots, entries = polynomials._class_paths(core4_quiver(link, (endos[a], endos[b])))
        assert class_search_weight(roots, entries) == paths


def test_pool_characteristic_polynomials_factor_through_the_vectors():
    # every arrow matrix is P(w) P(u)^T with P(v) the m x c 0/1 matrix
    # of the vectors' labels at v, so det(tI_m - M) = t^(m-c) det(tI_c - X)
    # with X[phi][psi] = [phi(u) = psi(w)], and every edge and path
    # characteristic term carries t^(m-c)
    pool = json.loads(POOL_FILE.read_text())
    endos = [tuple(e) for e in pool["endos"]]
    coeff = CoeffGroup(3)
    m, c = coeff.modulus, len(CORE4_VECTORS)
    for link, a, b, *_ in pool["entries"][::16]:
        q = core4_quiver(link, (endos[a], endos[b]))
        for poly in (edge_char_polynomial(q), path_polynomials(q)[0]):
            assert all(dict(key).get("t", 0) >= m - c for key in poly.terms)
        labels = [[evaluate(coeff, phi, chain) for phi in CORE4_VECTORS] for chain in q.chains]
        for u, w, mat in q.edges:
            x = [[int(i == j) for j in labels[w]] for i in labels[u]]
            assert char_poly(dense(mat, m)) == char_poly(x) * mono(1, t=m - c)


def test_maximal_paths_cap_stops_a_dense_quiver_fast():
    # the shape of 2.1 under all 16 endomorphisms of core-4: 4 vertices
    # and 4 parallel arcs on every ordered pair, loops included; the
    # real step budget stops it
    q = quiver_of([(a, b, None) for a in range(4) for b in range(4) for _ in range(4)])
    assert len(q.edges) == 64
    start = time.perf_counter()
    with pytest.raises(LimitError):
        maximal_paths(q)
    assert time.perf_counter() - start < 2.0


def test_path_polynomials_stop_the_2_1_shape_at_the_budget():
    # the same shape with one matrix on every arrow: 16 classes of 4
    # parallel arrows, stopped after a few class steps
    identity = [[1, 0], [0, 1]]
    q = quiver_of(
        [(a, b, identity) for a in range(4) for b in range(4) for _ in range(4)])
    start = time.perf_counter()
    with pytest.raises(LimitError) as exc:
        path_polynomials(q)
    assert time.perf_counter() - start < 0.5
    assert str(exc.value).startswith("maximal_paths: 500001 extension steps (budget 500000)")


def test_maximal_paths_dead_end_test_scans_only_the_trail():
    # 6561 disjoint loops: 6561 steps and dead ends, each tested in O(1)
    q = quiver_of([(v, v, None) for v in range(6561)])
    start = time.perf_counter()
    assert len(maximal_paths(q)) == 6561
    assert time.perf_counter() - start < 0.5


# --------------------------------------------------- edge polynomials

def reference_edge_polynomials(quiver):
    """Both edge polynomials as plain sums of one term per edge."""
    m = quiver.modulus
    labels = range(m)
    chi, pm = P.zero(), P.zero(m)
    for _, _, mat in quiver.edges:
        mat = dense(mat, m)
        chi = chi + reference_char_poly(mat)
        pm = pm + matrix_poly(mat, labels, labels, m, row_var="x", col_var="y")
    return chi, pm


def assert_edge_polynomials_match_reference(quiver):
    chi, pm = edge_char_polynomial(quiver), edge_matrix_polynomial(quiver)
    ref_chi, ref_pm = reference_edge_polynomials(quiver)
    assert chi.terms == ref_chi.terms
    assert pm.terms == ref_pm.terms
    assert (chi.modulus, pm.modulus) == (ref_chi.modulus, ref_pm.modulus)


def test_edge_polynomials_match_reference_on_pool_quivers():
    # every fourth quiver of the benchmark's pool: core-4 over Z_3 on
    # catalog links with an endomorphism pair, many arrows per matrix
    pool = json.loads(POOL_FILE.read_text())
    endos = [tuple(e) for e in pool["endos"]]
    for link, a, b, *_ in pool["entries"][::4]:
        assert_edge_polynomials_match_reference(core4_quiver(link, (endos[a], endos[b])))


def test_edge_polynomials_match_reference_on_random_quivers():
    rng = random.Random(12)
    for _ in range(300):
        q = random_parallel_quiver(rng) if rng.random() < 0.5 else random_quiver(rng)
        assert_edge_polynomials_match_reference(q)
    assert_edge_polynomials_match_reference(quiver_of([]))


# ------------------------------------------------------ canonical keys

def assert_canonical(poly):
    """Every key lists its variables in VAR_PRECEDENCE order, each once,
    with a nonzero exponent, group exponents reduced mod the modulus;
    every coefficient is nonzero.  render relies on this form."""
    m = poly.modulus
    for key, c in poly.terms.items():
        assert c, poly.terms
        names = [v for v, _ in key]
        assert names == sorted(set(names), key=VAR_PRECEDENCE.index), key
        for v, e in key:
            assert e, key
            if m and v in GROUP_VARS:
                assert 0 < e < m, key


def test_collect_sums_like_terms_and_drops_zeros():
    key = (("x", 1), ("z", 2))
    p = P.collect([(key, 2), ((), 5), (key, 3), ((("t", 1),), 4), ((("t", 1),), -4)], 3)
    assert p.terms == {key: 5, (): 5} and p.modulus == 3
    assert P.collect([], 3) == P.zero(3)
    assert (mono(1, 3, x=1) * mono(1, 3, x=2) - 1).terms == {}


# (algebra, group, endomorphisms); the vectors are the H^2 generators
# and the first basis vector, so core-5 over Z_5, which has none, still
# gets a nonzero one
CANONICAL_CASES = [
    ("swap3", 3, ((2, 2, 1),)),
    ("core-4", 3, ((2, 4, 2, 4), (1, 1, 1, 1))),
    ("flip2", 3, ((1, 2), (2, 1))),
    ("core-5", 5, ((1, 3, 5, 2, 4), (1, 2, 3, 4, 5))),
]


@pytest.mark.parametrize("name,m,endos", CANONICAL_CASES)
def test_every_polynomial_has_canonical_keys(name, m, endos):
    bq, coeff = builtin(name), CoeffGroup(m)
    vectors = [vec for _, vec in h2_generators(bq, coeff)]
    vectors.append([1] + [0] * (bq.n * (bq.n - 1) - 1))
    data = DataVector(bq, coeff, vectors, endos)
    # under the identity alone a path's x and y exponents agree
    identity = DataVector(bq, coeff, vectors, (tuple(bq.elements),))
    links = catalog_names()
    assert len(links) == 28
    checked = 0
    for link in links:
        diagram = get_diagram(link)
        rq = build_representation(diagram, data)
        chi_edge, pm_edge = edge_char_polynomial(rq), edge_matrix_polynomial(rq)
        chi_path, pm_path = path_polynomials(rq)
        polys = [chi_edge, pm_edge, chi_path, pm_path]
        polys += [char_poly(dense(mat, m)) for mat in {mat for _, _, mat in rq.edges}]
        polys += [state_sum(coeff, vec, rq.chains) for vec in vectors]
        polys += [
            specialize(chi_path, ones=("s",)),
            specialize(pm_path, ones=("z",)),
            specialize(pm_edge, ones=("x",)),
            chi_edge + chi_path,
            pm_edge + pm_path,
            chi_edge * chi_path,
            pm_edge * pm_path,
            specialize(path_polynomials(build_representation(diagram, identity))[1],
                       ones=("z",), merge_xy_to_q=True),
        ]
        for poly in polys:
            assert_canonical(poly)
        checked += len(polys)
    assert checked > 28 * 13
