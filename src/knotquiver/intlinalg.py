"""Exact integer matrix routines: Smith form, kernels, lattice quotients.

Matrices are lists of row lists of Python ints, so everything here is
fraction free and exact at any size.
"""

from functools import cached_property


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    if not mat:
        return []
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    # each row of the product is a combination of the rows of b, so zero
    # entries of a cost nothing
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _replay_rows(ops, rows):
    """Apply logged row operations, in order, to a list of row lists."""
    for kind, i, j, c in ops:
        if kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "add":
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        else:
            rows[i] = [-x for x in rows[i]]
    return rows


class SNFResult:
    """u * mat * v is diagonal with entries diag, each dividing the next.

    The row operations are kept as a log in the order they were applied
    (("swap", i, j, 0), ("add", i, j, c) for row_i += c * row_j, and
    ("neg", i, 0, 0)).  u and u_inv are built from it on first access;
    apply_u multiplies a vector by u without forming it.
    """

    def __init__(self, diag, v, v_inv, row_ops, nrows):
        self.diag = diag
        self.v = v
        self.v_inv = v_inv
        self.row_ops = row_ops
        self.nrows = nrows

    @property
    def rank(self):
        return sum(1 for d in self.diag if d != 0)

    @cached_property
    def u(self):
        return _replay_rows(self.row_ops, identity(self.nrows))

    @cached_property
    def u_inv(self):
        # u = E_k ... E_1, so u_inv = E_1^-1 ... E_k^-1: the inverse
        # operations applied to the identity in reverse order
        inverse = [(kind, i, j, -c) for kind, i, j, c in reversed(self.row_ops)]
        return _replay_rows(inverse, identity(self.nrows))

    def apply_u(self, vec):
        """u @ vec."""
        x = list(vec)
        for kind, i, j, c in self.row_ops:
            if kind == "swap":
                x[i], x[j] = x[j], x[i]
            elif kind == "add":
                x[i] += c * x[j]
            else:
                x[i] = -x[i]
        return x


def snf(mat):
    """Smith normal form: diag, the column transform v and its inverse,
    and a log of the row operations (see SNFResult)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [row[:] for row in mat]
    v = identity(n)
    v_inv = identity(n)
    row_ops = []

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        row_ops.append(("swap", i, j, 0))

    def row_add(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        row_ops.append(("add", i, j, c))

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        row_ops.append(("neg", i, 0, 0))

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def col_add(i, j, c):
        # col_i += c * col_j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        v_inv[j] = [x - c * y for x, y in zip(v_inv[j], v_inv[i])]

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
    return SNFResult(diag, v, v_inv, row_ops, m)


def solve(mat, rhs, res=None):
    """One integer solution x of mat @ x = rhs, or None."""
    if len(rhs) != len(mat):
        raise ValueError("rhs length %d does not match %d rows" % (len(rhs), len(mat)))
    if res is None:
        res = snf(mat)
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
    res_b = snf(basis_mat)
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
    res = snf(expr)
    factors = [res.diag[i] if i < len(res.diag) else 0 for i in range(k)]
    new_basis = mat_mul(basis_mat, res.u_inv)
    gens = transpose(new_basis)
    return factors, gens
