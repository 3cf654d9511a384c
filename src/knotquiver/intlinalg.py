"""Exact integer matrix routines: the Smith normal form.

Matrices are lists of row lists of Python ints, so everything here is
fraction free and exact at any size; snf alone takes its matrix as
sparse rows, one {column: value} dict per row.  Its row log, and with
it u, is kept only when no rank bound is given.
"""

from functools import cached_property
from heapq import heapify, heappop, heappush


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    if not mat:
        return []
    return [list(col) for col in zip(*mat)]


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

    The column operations come as a log, (i, j, 0) for a swap of columns
    i and j and (i, j, c) for col_i += c * col_j.  v and v_inv are
    formed from it on first access: first the columns of v and the rows
    of v_inv as sparse {index: value} dicts (v_cols and v_inv_rows), each
    replayed from the log on its own, then the dense ones from those.  A
    caller that reads neither never pays for them.

    The row operations come as a log in the order they were applied
    (("swap", i, j, 0), ("add", i, j, c) for row_i += c * row_j, and
    ("neg", i, 0, 0)).  u and u_inv are built from it on first access;
    apply_u and apply_u_inv multiply a vector by u and u_inv without
    forming them.  A Smith form under a rank bound keeps no row log
    (row_ops is None): u, u_inv, apply_u and apply_u_inv then raise
    ValueError.
    """

    def __init__(self, diag, ncols, col_ops, row_ops, nrows):
        self.diag = diag
        self.ncols = ncols
        self.col_ops = col_ops
        self.row_ops = row_ops
        self.nrows = nrows

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
            raise ValueError("no row transform: the Smith form ran under a rank bound")
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


def snf(rows, ncols, rank_bound=None):
    """Smith normal form of the matrix with the given rows, one
    {column: value} dict each, and ncols columns: diag and logs of the
    column and row operations, from which the result forms v, its
    inverse and u (see SNFResult).  rows is not modified.

    The matrix is held as one {column: value} dict per row of its
    nonzero entries, plus the set of rows with a nonzero in each column.
    A row operation touches only the nonzero entries of the pivot row,
    and a column operation only the rows with a nonzero in the pivot
    column.  The operations and their order are those of a dense
    elimination, so the output does not depend on the storage.

    Without a rank bound every row enters before the first step, and the
    row operations go to one log in the order they run.

    rank_bound, when given, is an upper bound on the rank of the matrix:
    the caller proves rank <= rank_bound.  The elimination stops after
    rank_bound pivots, since the rows left would all reduce to zero, and
    a row enters only when the pivot scan first reaches it; the scan
    stops at the first row that holds a unit, and on sparse +-1 input it
    picks every pivot from the first few rows.  While each pivot is a
    unit, a step's row sweep clears the pivot column before its column
    operations run, so those touch the pivot row alone; a row that
    enters at step t is brought up to date by replaying steps 0..t-1 in
    order: step s subtracts its pivot row, kept in original column
    labels, times the row's entry in the pivot column over the pivot.  A
    step whose pivot is not a unit has had every row enter (no unit
    stopped the scan), and from then on each step runs as a dense one
    would.  diag, v and v_inv are those of the full elimination; the
    result keeps no row log (row_ops is None).  A bound below the rank
    is caught only when a row that entered is left nonzero; it then
    raises ValueError.
    """
    m, n = len(rows), ncols
    held = []  # the rows entered so far, {position: value} each
    cols = [set() for _ in range(n)]
    # label[k]: the original column now at position k; pos inverts it
    label = list(range(n))
    pos = list(range(n))
    col_log = []  # the column operations, (i, j, c), c = 0 for a swap
    log = []  # the row operations, complete only without a rank bound
    pivots = []  # per step while rows are left out: (pivot, row by label)

    def enter():
        # bring in row len(held): replay, by increasing step s, row +=
        # -q * (pivot row s) where q = (entry in column s) // pivot
        row = {j: x for j, x in rows[len(held)].items() if x}
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
        if t:
            # no column has moved before the first step
            row = {pos[k]: x for k, x in row.items()}
        for k in row:
            cols[k].add(len(held))
        held.append(row)

    def row_swap(i, j):
        held[i], held[j] = held[j], held[i]
        # a column with a nonzero in just one of the rows moves it over
        for k in held[i].keys() ^ held[j].keys():
            cols[k] ^= {i, j}
        log.append(("swap", i, j, 0))

    def row_add(i, j, c):
        # row_i += c * row_j
        ri = held[i]
        for k, y in held[j].items():
            x = ri.get(k)
            if x is None:
                ri[k] = c * y
                cols[k].add(i)
            elif x + c * y:
                ri[k] = x + c * y
            else:
                del ri[k]
                cols[k].remove(i)
        log.append(("add", i, j, c))

    def row_neg(i):
        held[i] = {k: -x for k, x in held[i].items()}
        log.append(("neg", i, 0, 0))

    def col_swap(i, j):
        for r in cols[i] | cols[j]:
            row = held[r]
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
            row = held[r]
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
    if rank_bound is None:
        stop = size
        while len(held) < m:
            enter()
    else:
        stop = min(size, rank_bound)
    while t < stop:
        # the first entry of least nonzero size in row-major order; no
        # entry beats a unit, so the scan stops at the first row with one
        best = None
        pivot = None
        for i in range(t, m):
            if i == len(held):
                enter()
            if held[i]:
                w, j = min((abs(x), j) for j, x in held[i].items())
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
        if len(held) < m:
            # a unit, since the scan stopped early: kept for late rows
            pivots.append((held[t][t], {label[k]: x for k, x in held[t].items()}))
        while True:
            # an operation on (i, t) or (t, j) leaves the entries of the
            # later rows in column t, and of row t in the later columns,
            # as they were, so each sweep can list its targets up front
            swapped = True
            while swapped:
                swapped = False
                for i in sorted(r for r in cols[t] if r > t):
                    q = held[i][t] // held[t][t]
                    if q:
                        row_add(i, t, -q)
                    if t in held[i]:
                        row_swap(t, i)
                        swapped = True
                for j in sorted(k for k in held[t] if k > t):
                    q = held[t][j] // held[t][t]
                    if q:
                        col_add(j, t, -q)
                    if j in held[t]:
                        col_swap(t, j)
                        swapped = True
            # the first row whose remaining entries the pivot does not
            # divide; a unit pivot divides everything
            d = held[t][t]
            bad = None
            if d not in (1, -1):
                bad = next((i for i in range(t + 1, m)
                            if any(x % d for x in held[i].values())), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        if held[t][t] < 0:
            row_neg(t)
        t += 1

    if any(held[t:]):
        # only a rank bound stops the elimination with a nonzero row left
        raise ValueError("rank above rank_bound %d" % rank_bound)
    diag = [held[i][i] for i in range(t)] + [0] * (size - t)
    return SNFResult(diag, n, col_log, log if rank_bound is None else None, m)
