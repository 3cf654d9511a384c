import random
from dataclasses import dataclass

import pytest

from knotquiver.algebra import alexander_cyclic, builtin, core_cyclic
from knotquiver import cohomology
from knotquiver.cohomology import boundary_matrices
from knotquiver.intlinalg import identity, snf, transpose


# reference helpers, also used by test_cohomology.py; solve and
# quotient_structure are the H^2 construction the cohomology module used
# before it read lattice coordinates off v^-1, and they run on
# reference_snf, so they share no code with what they check


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def sparse_rows(mat):
    """The rows of a dense matrix as {column: value} dicts, the form snf
    takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


@dataclass
class ReferenceSmithForm:
    """u * mat * v = diag(diag), with u, u_inv, v and v_inv dense, and
    the row operations in the order they ran."""
    diag: list
    u: list
    u_inv: list
    v: list
    v_inv: list
    row_ops: list

    @property
    def rank(self):
        return sum(1 for d in self.diag if d)

    def apply_u(self, vec):
        return mat_vec(self.u, vec)


def reference_snf(mat, cancelled=None):
    """The dense Smith normal form that snf replaced: every row and
    column operation walks whole rows and columns, and applies itself to
    u and u_inv, or v and v_inv, as it runs.  snf must apply the same
    operations in the same order and return the same result.

    cancelled, when given, is a list that gets one entry per column
    operation that turns a nonzero entry of v or v_inv into zero."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [row[:] for row in mat]
    u = identity(m)
    u_inv = identity(m)
    v = identity(n)
    v_inv = identity(n)
    row_ops = []

    # a row operation E turns u into E u and u_inv into u_inv E^-1
    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]
        row_ops.append(("swap", i, j, 0))

    def row_add(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in u_inv:
            r[j] -= c * r[i]
        row_ops.append(("add", i, j, c))

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]
        row_ops.append(("neg", i, 0, 0))

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def col_add(i, j, c):
        # col_i += c * col_j
        before = [r[i] for r in v], v_inv[j]
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        v_inv[j] = [x - c * y for x, y in zip(v_inv[j], v_inv[i])]
        if cancelled is not None:
            after = [r[i] for r in v], v_inv[j]
            if any(x and not y for old, new in zip(before, after) for x, y in zip(old, new)):
                cancelled.append((i, j, c))

    def col_neg(i):
        for r in a:
            r[i] = -r[i]
        for r in v:
            r[i] = -r[i]
        v_inv[i] = [-x for x in v_inv[i]]

    t = 0
    size = min(m, n)
    while t < size:
        # the first entry of least nonzero size in row-major order; no
        # entry beats a unit, so the scan stops at the first one
        best = None
        pivot = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                w = abs(row[j])
                if w and (best is None or w < best):
                    best = w
                    pivot = (i, j)
                    if w == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            swapped = True
            while swapped:
                swapped = False
                for i in range(t + 1, m):
                    if a[i][t]:
                        q = a[i][t] // a[t][t]
                        if q:
                            row_add(i, t, -q)
                        if a[i][t]:
                            row_swap(t, i)
                            swapped = True
                for j in range(t + 1, n):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        if q:
                            col_add(j, t, -q)
                        if a[t][j]:
                            col_swap(t, j)
                            swapped = True
            # the first row whose remaining entries the pivot does not
            # divide; a unit pivot divides everything
            d = a[t][t]
            bad = None
            if d not in (1, -1):
                bad = next((i for i in range(t + 1, m)
                            if any(x % d for x in a[i][t + 1:])), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    diag = [a[i][i] for i in range(size)]
    return ReferenceSmithForm(diag, u, u_inv, v, v_inv, row_ops)


def solve(mat, rhs, res=None):
    """One integer solution x of mat @ x = rhs, or None."""
    if len(rhs) != len(mat):
        raise ValueError("rhs length %d does not match %d rows" % (len(rhs), len(mat)))
    if res is None:
        res = reference_snf(mat)
    m = len(mat)
    n = len(mat[0]) if m else 0
    c = res.apply_u(rhs)
    y = [0] * n
    for j in range(m):
        d = res.diag[j] if j < len(res.diag) else 0
        if d:
            if c[j] % d:
                return None
            y[j] = c[j] // d
        elif c[j]:
            return None
    return mat_vec(res.v, y)


def quotient_structure(basis_mat, gen_cols):
    """Structure of lattice(basis_mat columns) / lattice(gen_cols).

    basis_mat columns must be independent and every generator column
    must lie in their span.  Returns (factors, generators): invariant
    factors (0 marks a free summand) paired with ambient-coordinate
    generator columns.
    """
    k = len(basis_mat[0]) if basis_mat else 0
    res_b = reference_snf(basis_mat)
    coords = []
    for g in gen_cols:
        x = solve(basis_mat, g, res_b)
        if x is None:
            raise ValueError("generator outside the spanned lattice")
        coords.append(x)
    if not coords:
        factors = [0] * k
        gens = transpose(basis_mat)
        return factors, gens
    expr = transpose(coords)  # k x g
    res = reference_snf(expr)
    factors = [res.diag[i] if i < len(res.diag) else 0 for i in range(k)]
    new_basis = mat_mul(basis_mat, res.u_inv)
    gens = transpose(new_basis)
    return factors, gens




def kernel_basis(mat, ncols=None):
    """Basis columns of the integer kernel lattice {x : mat @ x = 0}.

    The returned lattice is saturated: any integer kernel vector is an
    integer combination of the basis.
    """
    if not mat:
        return identity(ncols or 0)
    n = len(mat[0])
    res = snf(sparse_rows(mat), n)
    return [
        [res.v[i][j] for i in range(n)]
        for j in range(res.rank, n)
    ]


def rank_mod_prime(mat, p):
    """Rank of mat over the field with p elements."""
    a = [[x % p for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    col = 0
    while rank < m and col < n:
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def is_diagonal(mat):
    return all(x == 0 for i, row in enumerate(mat) for j, x in enumerate(row) if i != j)


def assert_smith_factorization(mat):
    m, n = len(mat), len(mat[0])
    res = snf(sparse_rows(mat), n)
    d = mat_mul(mat_mul(res.u, mat), res.v)
    assert is_diagonal(d)
    for i in range(min(m, n)):
        assert d[i][i] == res.diag[i]
        assert res.diag[i] >= 0
    for i in range(min(m, n) - 1):
        if res.diag[i + 1]:
            assert res.diag[i] != 0
            assert res.diag[i + 1] % res.diag[i] == 0
    assert mat_mul(res.u, res.u_inv) == identity(m)
    assert mat_mul(res.v, res.v_inv) == identity(n)
    return res


def test_snf_factorization_random():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        assert_smith_factorization(random_matrix(rng, m, n))


def assert_same_results(res, ref):
    assert res.diag == ref.diag
    assert res.v == ref.v
    assert res.v_inv == ref.v_inv
    assert res.row_ops == ref.row_ops


def assert_same_smith_form(mat):
    ref = reference_snf(mat)
    res = snf(sparse_rows(mat), len(mat[0]) if mat else 0)
    assert_same_results(res, ref)
    return res, ref


def assert_no_row_transform(res):
    # a Smith form under a rank bound keeps no row log, and refuses u
    assert res.row_ops is None
    zero = [0] * res.nrows
    for read in (lambda: res.u, lambda: res.u_inv,
                 lambda: res.apply_u(zero), lambda: res.apply_u_inv(zero)):
        with pytest.raises(ValueError, match="rank bound"):
            read()


def test_snf_matches_dense_reference_random():
    # entries in {0, +-1, 2}, half of them zero, at most 12 x 8: dense
    # matrices with larger entries set off the entry growth of both
    rng = random.Random(23)
    for _ in range(400):
        m = rng.randint(1, 12)
        n = rng.randint(1, 8)
        res, ref = assert_same_smith_form(
            [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)])
        # replayed from the row log, against the reference's own
        assert (res.u, res.u_inv) == (ref.u, ref.u_inv)


def test_snf_matches_reference_where_column_operations_cancel_transform_entries():
    # v and v_inv are held sparse, so an entry that a column operation
    # cancels must leave them; entries in {0, +-2, 3, 4} make non-unit
    # pivots, whose repeated column operations cancel entries
    rng = random.Random(43)
    cancelling = 0
    for _ in range(200):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        mat = [[rng.choice((0, 0, 0, 0, 2, 3, -2, 4)) for _ in range(n)] for _ in range(m)]
        cancelled = []
        ref = reference_snf(mat, cancelled)
        res = snf(sparse_rows(mat), n)
        assert_same_results(res, ref)
        assert mat_mul(res.v, res.v_inv) == identity(n)
        cancelling += bool(cancelled)
    assert cancelling >= 40, cancelling


@pytest.mark.parametrize("name", [
    "swap3", "flip2", "trivial-3", "core-3", "core-4", "core-5", "core-6",
    "core-7", "core-8", "core-9", "alexander-5-2", "alexander-7-3", "alexander-7-5",
])
def test_snf_matches_dense_reference_on_coboundary_matrices(name):
    _, d3 = boundary_matrices(builtin(name))
    assert_same_smith_form(transpose(d3))


@pytest.mark.parametrize("name", [
    "swap3", "flip2", "trivial-3", "core-3", "core-4", "core-5", "core-6",
    "core-7", "core-8", "core-9", "alexander-5-2", "alexander-7-3", "alexander-7-5",
    "alexander-8-3",
])
def test_snf_of_sparse_coboundary_rows_matches_dense_rows(name):
    # snf reads sparse rows in place, and must leave the dicts it was
    # given as they were
    bq = builtin(name)
    cx = cohomology._Complex(bq)
    rows = list(cx.d3t)
    before = [dict(row) for row in rows]
    res = snf(rows, cx.npairs)
    assert rows == before
    # trivial-3 has an all-zero d3^T: only ncols gives v its size
    assert len(res.v) == len(res.v_inv) == cx.npairs
    if not any(rows):
        assert res.diag == [0] * min(len(rows), cx.npairs)
        assert res.v == res.v_inv == identity(cx.npairs) and res.row_ops == []


def planted_rank_matrix(rng, m, n, r):
    """B @ C with B m x r and C r x n, entries in {0, +-1}: rank at most r."""
    b = [[rng.choice((0, 0, 1, -1)) for _ in range(r)] for _ in range(m)]
    c = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(r)]
    return mat_mul(b, c) if r else [[0] * n for _ in range(m)]


class ReadRows(list):
    """A list of rows that records the indices read from it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def test_snf_with_exact_rank_bound_matches_reference():
    # tall matrices of planted rank, as d3^T is tall; the bound is the
    # exact rank, so the elimination stops before the rows past the
    # pivots' are brought in whenever the pivots come early
    rng = random.Random(29)
    stopped = 0
    for _ in range(300):
        m, n = rng.randint(1, 16), rng.randint(1, 8)
        mat = planted_rank_matrix(rng, m, n, rng.randint(0, 4))
        ref = reference_snf(mat)
        rows = ReadRows(sparse_rows(mat))
        res = snf(rows, n, ref.rank)
        assert (res.diag, res.v, res.v_inv) == (ref.diag, ref.v, ref.v_inv)
        assert_no_row_transform(res)
        stopped += len(rows.read) < m
    assert stopped >= 50, stopped


def test_snf_with_loose_rank_bound_is_complete():
    # diag, v and v_inv are whole under a bound above the rank; the row
    # log is not kept, whether or not every row entered
    rng = random.Random(31)
    for _ in range(200):
        m, n = rng.randint(1, 16), rng.randint(1, 8)
        mat = planted_rank_matrix(rng, m, n, rng.randint(0, 4))
        ref = reference_snf(mat)
        res = snf(sparse_rows(mat), n, ref.rank + rng.randint(1, 3))
        assert (res.diag, res.v, res.v_inv) == (ref.diag, ref.v, ref.v_inv)
        assert_no_row_transform(res)


def test_snf_stopped_at_its_bound_refuses_the_row_transform():
    mat = [[1, 0], [0, 1], [1, 1], [1, -1]]
    res = snf(sparse_rows(mat), 2, 2)
    assert res.diag == [1, 1]
    assert_no_row_transform(res)
    # a bound that lets the elimination bring in every row keeps no
    # row log either
    res, ref = snf(sparse_rows(mat), 2, 3), reference_snf(mat)
    assert (res.diag, res.v, res.v_inv) == (ref.diag, ref.v, ref.v_inv)
    assert_no_row_transform(res)


def test_snf_rejects_a_bound_below_the_rank_it_sees():
    # the scan brings in both rows (no unit), and the second is left
    # nonzero after one pivot
    with pytest.raises(ValueError, match="rank above rank_bound 1"):
        snf(sparse_rows([[2, 0], [0, 2]]), 2, 1)


def solve_through_u(res, rhs):
    """Reference for solve: u @ rhs formed with the explicit u."""
    c = mat_vec(res.u, rhs)
    y = [0] * len(res.v)
    for j, cj in enumerate(c):
        d = res.diag[j] if j < len(res.diag) else 0
        if d == 0:
            if cj:
                return None
        elif cj % d:
            return None
        else:
            y[j] = cj // d
    return mat_vec(res.v, y)


def test_snf_factorization_tall_sparse():
    # the coboundary matrices d3^T (80 x 20, at most six nonzero entries
    # per column of d3) are what the cohomology layer factors
    rng = random.Random(19)
    for bq in (core_cyclic(5), alexander_cyclic(5, 2)):
        _, d3 = boundary_matrices(bq)
        mat = transpose(d3)
        assert (len(mat), len(mat[0])) == (80, 20)
        res = assert_smith_factorization(mat)
        # solve replays the row-operation log on the right-hand side; it
        # must agree with solving through the explicit u
        for _ in range(10):
            rhs = [rng.randint(-4, 4) for _ in range(len(mat))]
            assert res.apply_u(rhs) == mat_vec(res.u, rhs)
            assert solve(mat, rhs, res) == solve_through_u(res, rhs)
        for _ in range(10):
            x0 = [rng.randint(-4, 4) for _ in range(len(mat[0]))]
            rhs = mat_vec(mat, x0)
            x = solve(mat, rhs, res)
            assert x == solve_through_u(res, rhs)
            assert mat_vec(mat, x) == rhs


def test_kernel_basis_annihilates_and_saturates():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        mat = random_matrix(rng, m, n)
        kb = kernel_basis(mat)
        for col in kb:
            assert mat_vec(mat, col) == [0] * m
        if kb:
            # random kernel vectors decompose integrally over the basis
            kmat = transpose(kb)
            coeffs = [rng.randint(-3, 3) for _ in kb]
            vec = mat_vec(kmat, coeffs)
            back = solve(kmat, vec)
            assert back is not None
            assert mat_vec(kmat, back) == vec


def test_kernel_of_empty_constraints_is_full():
    kb = kernel_basis([], ncols=3)
    assert transpose(kb) == identity(3)


def test_solve_roundtrip_and_failure():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = random_matrix(rng, m, n)
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(mat, x0)
        x = solve(mat, b)
        assert x is not None
        assert mat_vec(mat, x) == b
    assert solve([[2]], [1]) is None
    assert solve([[2, 4]], [3]) is None
    assert solve([[0], [0]], [0, 1]) is None


def test_quotient_structure_known_cases():
    # Z^2 / <2e1, 3e2> has invariant factors 1, 6
    factors, gens = quotient_structure(identity(2), [[2, 0], [0, 3]])
    assert sorted(f for f in factors if f != 1) == [6]
    # Z^2 / <2e1> = Z_2 + Z
    factors, gens = quotient_structure(identity(2), [[2, 0]])
    assert sorted(factors) == [0, 2]
    # generators reported in ambient coordinates, consistent with factors
    for f, g in zip(factors, gens):
        assert len(g) == 2


def test_quotient_structure_basis_change_invariance():
    rng = random.Random(17)
    base = identity(3)
    rels = [[2, 0, 0], [0, 4, 0]]
    ref, _ = quotient_structure(base, rels)
    # change ambient basis by a unimodular matrix: structure unchanged
    u = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    new_base = mat_mul(u, base)
    new_rels = [mat_vec(u, r) for r in rels]
    factors, _ = quotient_structure(new_base, new_rels)
    assert sorted(factors) == sorted(ref)


def test_quotient_structure_rejects_outside_vector():
    with pytest.raises(ValueError):
        quotient_structure([[2, 0], [0, 2]], [[1, 0]])


def test_rank_mod_prime():
    assert rank_mod_prime([[2, 4], [1, 2]], 3) == 1
    assert rank_mod_prime([[2, 4], [1, 2]], 2) == 1
    assert rank_mod_prime([[2, 0], [0, 2]], 3) == 2
    assert rank_mod_prime([[2, 0], [0, 2]], 2) == 0
    assert rank_mod_prime(identity(4), 5) == 4
