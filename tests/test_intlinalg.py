import random

from knotquiver.algebra import alexander_cyclic, core_cyclic
from knotquiver.cohomology import boundary_matrices
from knotquiver.intlinalg import (
    identity,
    mat_mul,
    mat_vec,
    quotient_structure,
    snf,
    solve,
    transpose,
)


# reference helpers, also used by test_cohomology.py


def kernel_basis(mat, ncols=None):
    """Basis columns of the integer kernel lattice {x : mat @ x = 0}.

    The returned lattice is saturated: any integer kernel vector is an
    integer combination of the basis.
    """
    if not mat:
        return identity(ncols or 0)
    res = snf(mat)
    n = len(mat[0])
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
    res = snf(mat)
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
    import pytest

    with pytest.raises(ValueError):
        quotient_structure([[2, 0], [0, 2]], [[1, 0]])


def test_rank_mod_prime():
    assert rank_mod_prime([[2, 4], [1, 2]], 3) == 1
    assert rank_mod_prime([[2, 4], [1, 2]], 2) == 1
    assert rank_mod_prime([[2, 0], [0, 2]], 3) == 2
    assert rank_mod_prime([[2, 0], [0, 2]], 2) == 0
    assert rank_mod_prime(identity(4), 5) == 4
