"""Exact integer matrix routines: products and the Smith normal form.

Matrices are lists of row lists of Python ints, so everything here is
fraction free and exact at any size.
"""

from functools import cached_property
from heapq import heapify, heappop, heappush


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


def _replay_vec(ops, vec):
    """Apply logged row operations, in order, to a vector (a copy)."""
    x = list(vec)
    for kind, i, j, c in ops:
        if kind == "swap":
            x[i], x[j] = x[j], x[i]
        elif kind == "add":
            x[i] += c * x[j]
        else:
            x[i] = -x[i]
    return x


def _add_into(dst, src, c):
    # dst += c * src for {index: value} dicts, c nonzero
    for k, y in src.items():
        x = dst.get(k, 0) + c * y
        if x:
            dst[k] = x
        else:
            del dst[k]


class SNFResult:
    """u * mat * v is diagonal with entries diag, each dividing the next.

    The row operations are kept as a log in the order they were applied
    (("swap", i, j, 0), ("add", i, j, c) for row_i += c * row_j, and
    ("neg", i, 0, 0)).  u and u_inv are built from it on first access;
    apply_u and apply_u_inv multiply a vector by u and u_inv without
    forming them.  A Smith form that stopped at its rank bound keeps no
    log (row_ops is None): u, u_inv, apply_u and apply_u_inv then raise
    ValueError instead of returning part of u.

    snf builds its result with logged(), from a log of the column
    operations ((i, j, 0) for a swap of columns i and j, (i, j, c) for
    col_i += c * col_j), and v and v_inv are formed from it on first
    access: first the columns of v and the rows of v_inv as sparse
    {index: value} dicts (v_cols and v_inv_rows), each replayed from the
    log on its own, then the dense ones from those.  A caller that reads
    neither never pays for them.  SNFResult(diag, v, v_inv, row_ops,
    nrows) takes dense v and v_inv as they are.
    """

    def __init__(self, diag, v, v_inv, row_ops, nrows):
        self.diag = diag
        self.v = v
        self.v_inv = v_inv
        self.row_ops = row_ops
        self.nrows = nrows

    @classmethod
    def logged(cls, diag, ncols, col_ops, row_ops, nrows):
        res = cls.__new__(cls)
        res.diag = diag
        res.ncols = ncols
        res.col_ops = col_ops
        res.row_ops = row_ops
        res.nrows = nrows
        return res

    @cached_property
    def v_cols(self):
        cols = [{k: 1} for k in range(self.ncols)]
        for i, j, c in self.col_ops:
            if c:
                _add_into(cols[i], cols[j], c)
            else:
                cols[i], cols[j] = cols[j], cols[i]
        return cols

    @cached_property
    def v_inv_rows(self):
        # v_inv = (E_1 ... E_k)^-1: col_i += c * col_j on v is
        # row_j -= c * row_i on v_inv
        rows = [{k: 1} for k in range(self.ncols)]
        for i, j, c in self.col_ops:
            if c:
                _add_into(rows[j], rows[i], -c)
            else:
                rows[i], rows[j] = rows[j], rows[i]
        return rows

    @cached_property
    def v(self):
        n = len(self.v_cols)
        return [[col.get(r, 0) for col in self.v_cols] for r in range(n)]

    @cached_property
    def v_inv(self):
        n = len(self.v_inv_rows)
        return [[row.get(k, 0) for k in range(n)] for row in self.v_inv_rows]

    @property
    def rank(self):
        return sum(1 for d in self.diag if d != 0)

    def _log(self):
        if self.row_ops is None:
            raise ValueError("no row transform: the Smith form stopped at its rank bound")
        return self.row_ops

    @cached_property
    def u(self):
        # column k of u is u @ e_k
        return transpose([self.apply_u(e) for e in identity(self.nrows)])

    def _inverse_log(self):
        # u = E_k ... E_1, so u_inv = E_1^-1 ... E_k^-1: the inverse
        # operations in reverse order
        return [(kind, i, j, -c) for kind, i, j, c in reversed(self._log())]

    @cached_property
    def u_inv(self):
        return transpose([self.apply_u_inv(e) for e in identity(self.nrows)])

    def apply_u(self, vec):
        """u @ vec."""
        return _replay_vec(self._log(), vec)

    def apply_u_inv(self, vec):
        """u_inv @ vec."""
        return _replay_vec(self._inverse_log(), vec)


def rank_mod(mat, q):
    """Rank of an integer matrix over the field with q elements (q prime);
    at most its rank over the rationals."""
    rows = [[x % q for x in row] for row in mat]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, q)
        prow = [x * inv % q for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            c = rows[i][j]
            if c:
                rows[i] = [(x - c * y) % q for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def snf(mat, ncols=None, rank_bound=None):
    """Smith normal form: diag and logs of the column and row operations,
    from which the result forms v, its inverse and u (see SNFResult).

    mat is a list of dense rows, or, when ncols gives the column count,
    a list of sparse rows, one {column: value} dict each; mat is not
    modified.  Both forms of the same matrix give the same result.

    The matrix is held as one {column: value} dict per row of its
    nonzero entries, plus the set of rows with a nonzero in each column.
    A row operation touches only the nonzero entries of the pivot row,
    and a column operation only the rows with a nonzero in the pivot
    column.  The column operations go to a log, and the result forms v
    and v_inv from it only when they are read (SNFResult.logged).  The
    operations and their order are those of a dense elimination, so the
    output does not depend on the storage.

    A row enters the elimination only when the pivot scan first reaches
    it; the scan stops at the first row that holds a unit, and on sparse
    +-1 input it picks every pivot from the first few rows.  While each
    pivot is a unit, a step's row sweep clears the pivot column before
    its column operations run, so those touch the pivot row alone; a
    row that enters at step t is brought up to date by replaying steps
    0..t-1 in order: step s subtracts its pivot row, kept in original
    column labels, times the row's entry in the pivot column over the
    pivot.  The log is kept per step.  Rows enter in index order, so a
    late row's additions go at the end of each step's segment, where a
    dense elimination puts them, and before the step's "neg".  A step
    whose pivot is not a unit has had every row enter (no unit stopped
    the scan), and from then on each step runs as a dense one would.

    rank_bound, when given, is an upper bound on the rank of mat: the
    caller proves rank <= rank_bound.  The elimination stops after
    rank_bound pivots, since the rows left would all reduce to zero.
    diag, v and v_inv are those of the full elimination, but rows that
    never entered have no log entries, so row_ops is None unless every
    row entered.  Without a bound, or when the bound is not reached,
    the rows not yet entered enter at the end and the log is complete.
    A bound below the rank is caught only when a row that entered is
    left nonzero; it then raises ValueError.
    """
    m = len(mat)
    n = (len(mat[0]) if m else 0) if ncols is None else ncols
    rows = []  # the rows entered so far, {position: value} each
    cols = [set() for _ in range(n)]
    # label[k]: the original column now at position k; pos inverts it
    label = list(range(n))
    pos = list(range(n))
    col_log = []  # the column operations, (i, j, c), c = 0 for a swap
    log = []  # the row operations, one list per step
    negated = set()  # the steps that end with ("neg", t, 0, 0)
    pivots = []  # per step while rows are left out: (pivot, row by label)

    def enter():
        # bring in row len(rows): replay, by increasing step s, row +=
        # -q * (pivot row s) where q = (entry in column s) // pivot
        i = len(rows)
        src = mat[i]
        row = {j: x for j, x in (src.items() if ncols is not None else enumerate(src)) if x}
        t = len(pivots)
        due = [pos[k] for k in row if pos[k] < t]
        heapify(due)
        while due:
            s = heappop(due)
            # None when an earlier step cleared it, or s came up twice
            x = row.get(label[s])
            if x is None:
                continue
            d, prow = pivots[s]
            q = x // d
            for k, y in prow.items():
                z = row.get(k)
                if z is None:
                    row[k] = -q * y
                    if pos[k] < t:
                        heappush(due, pos[k])
                elif z - q * y:
                    row[k] = z - q * y
                else:
                    del row[k]
            log[s].append(("add", i, s, -q))
        if t:
            # no column has moved before the first step
            row = {pos[k]: x for k, x in row.items()}
        for k in row:
            cols[k].add(i)
        rows.append(row)

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        # a column with a nonzero in just one of the rows moves it over
        for k in rows[i].keys() ^ rows[j].keys():
            cols[k] ^= {i, j}
        log[-1].append(("swap", i, j, 0))

    def row_add(i, j, c):
        # row_i += c * row_j
        ri = rows[i]
        for k, y in rows[j].items():
            x = ri.get(k)
            if x is None:
                ri[k] = c * y
                cols[k].add(i)
            elif x + c * y:
                ri[k] = x + c * y
            else:
                del ri[k]
                cols[k].remove(i)
        log[-1].append(("add", i, j, c))

    def row_neg(i):
        rows[i] = {k: -x for k, x in rows[i].items()}
        negated.add(i)

    def col_swap(i, j):
        for r in cols[i] | cols[j]:
            row = rows[r]
            x = row.pop(i, 0)
            y = row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
        cols[i], cols[j] = cols[j], cols[i]
        col_log.append((i, j, 0))
        label[i], label[j] = label[j], label[i]
        pos[label[i]] = i
        pos[label[j]] = j

    def col_add(i, j, c):
        # col_i += c * col_j
        ci = cols[i]
        for r in cols[j]:
            row = rows[r]
            x = row.get(i, 0) + c * row[j]
            if x:
                row[i] = x
                ci.add(r)
            else:
                del row[i]
                ci.remove(r)
        col_log.append((i, j, c))

    # rows and columns before t are done: their only nonzero entry is on
    # the diagonal, so the rows from t on hold columns from t on only
    t = 0
    size = min(m, n)
    stop = size if rank_bound is None else min(size, rank_bound)
    while t < stop:
        log.append([])
        # the first entry of least nonzero size in row-major order; no
        # entry beats a unit, so the scan stops at the first row with one
        best = None
        pivot = None
        for i in range(t, m):
            if i == len(rows):
                enter()
            if rows[i]:
                w, j = min((abs(x), j) for j, x in rows[i].items())
                if best is None or w < best:
                    best = w
                    pivot = (i, j)
                    if w == 1:
                        break
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        if len(rows) < m:
            # a unit, since the scan stopped early: kept for late rows
            pivots.append((rows[t][t], {label[k]: x for k, x in rows[t].items()}))
        while True:
            # an operation on (i, t) or (t, j) leaves the entries of the
            # later rows in column t, and of row t in the later columns,
            # as they were, so each sweep can list its targets up front
            swapped = True
            while swapped:
                swapped = False
                for i in sorted(r for r in cols[t] if r > t):
                    q = rows[i][t] // rows[t][t]
                    if q:
                        row_add(i, t, -q)
                    if t in rows[i]:
                        row_swap(t, i)
                        swapped = True
                for j in sorted(k for k in rows[t] if k > t):
                    q = rows[t][j] // rows[t][t]
                    if q:
                        col_add(j, t, -q)
                    if j in rows[t]:
                        col_swap(t, j)
                        swapped = True
            # the first row whose remaining entries the pivot does not
            # divide; a unit pivot divides everything
            d = rows[t][t]
            bad = None
            if d not in (1, -1):
                bad = next((i for i in range(t + 1, m)
                            if any(x % d for x in rows[i].values())), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        if rows[t][t] < 0:
            row_neg(t)
        t += 1

    if rank_bound is None or t < rank_bound:
        while len(rows) < m:
            enter()
    elif any(rows[t:]):
        raise ValueError("rank above rank_bound %d" % rank_bound)
    row_ops = None
    if len(rows) == m:
        row_ops = []
        for s, ops in enumerate(log):
            row_ops += ops
            if s in negated:
                row_ops.append(("neg", s, 0, 0))
    diag = [rows[i][i] for i in range(t)] + [0] * (size - t)
    return SNFResult.logged(diag, n, col_log, row_ops, m)
