"""Finite biquandles and quandles presented by operation tables.

Elements are 1-based integers 1..n.  A biquandle carries two binary
operations, written here as under(x, y) for the strand passing under y
and over(x, y) for the strand passing over y.  Quandles are the special
case over(x, y) = x.

Tables are row-major: under_table[x-1][y-1] = under(x, y).
"""

from functools import cached_property

from .homset import (OVER_INV, OVER_SWAP, THROUGH_INV_1, THROUGH_INV_2, UNDER,
                     UNDER_INV, _stride, _tables, solve)


def check_axioms(under, over):
    """Return a list of human-readable axiom violations (empty if valid)."""
    problems = []
    n = len(under)
    for name, table in (("under", under), ("over", over)):
        if len(table) != n:
            problems.append("%s table has %d rows, expected %d" % (name, len(table), n))
            return problems
        for i, row in enumerate(table):
            if len(row) != n:
                problems.append("%s table row %d has length %d" % (name, i + 1, len(row)))
                return problems
            for v in row:
                if not (type(v) is int and 1 <= v <= n):
                    problems.append("%s table entry %r out of range 1..%d" % (name, v, n))
                    return problems

    # 0-based copies of the tables, and their transposes (column y of
    # under as one row: UT[y][x] = under(x, y)); messages add 1 back
    U = [[v - 1 for v in row] for row in under]
    O = [[v - 1 for v in row] for row in over]
    UT = [list(col) for col in zip(*U)]
    OT = [list(col) for col in zip(*O)]
    for x in range(n):
        if U[x][x] != O[x][x]:
            problems.append(
                "diagonal mismatch at x=%d: under(x,x)=%d, over(x,x)=%d"
                % (x + 1, U[x][x] + 1, O[x][x] + 1)
            )
    for y in range(n):
        if len(set(UT[y])) != n:
            problems.append("under(-, %d) is not a bijection" % (y + 1))
        if len(set(OT[y])) != n:
            problems.append("over(-, %d) is not a bijection" % (y + 1))
    pair_map = {(U[a][b], O[b][a]) for a in range(n) for b in range(n)}
    if len(pair_map) != n * n:
        problems.append("crossing map (a,b) -> (under(a,b), over(b,a)) is not a bijection")
    zs = range(n)
    for x in range(n):
        Ux, Ox = U[x], O[x]
        for y in range(n):
            # rows of under(under(x,y), -), over(under(x,y), -), over(over(x,y), -)
            UUxy, OUxy, OOxy = U[Ux[y]], O[Ux[y]], O[Ox[y]]
            Uy, Oy, UTy, OTy = U[y], O[y], UT[y], OT[y]
            for z, uzy, ozy, uxz, oxz, uyz, oyz in zip(zs, UTy, OTy, Ux, Ox, Uy, Oy):
                if UUxy[uzy] != U[uxz][oyz]:
                    problems.append("exchange law 1 fails at (%d,%d,%d)" % (x + 1, y + 1, z + 1))
                if OUxy[uzy] != U[oxz][oyz]:
                    problems.append("exchange law 2 fails at (%d,%d,%d)" % (x + 1, y + 1, z + 1))
                if OOxy[ozy] != O[oxz][uyz]:
                    problems.append("exchange law 3 fails at (%d,%d,%d)" % (x + 1, y + 1, z + 1))
    return problems


class Biquandle:
    """A finite biquandle; validates its axioms on construction."""

    def __init__(self, under, over, name=None, check=True):
        self.under_table = [list(row) for row in under]
        self.over_table = [list(row) for row in over]
        self.name = name
        if check:
            problems = check_axioms(self.under_table, self.over_table)
            if problems:
                extra = "" if len(problems) == 1 else " (and %d more)" % (len(problems) - 1)
                raise ValueError("not a biquandle: %s%s" % (problems[0], extra))

    @cached_property
    def _relations(self):
        """Every pair (a, b) as the crossing relation (a, b, under(a, b),
        over(b, a)) on 0-based slots, in row-major order of (a, b): a
        map is a homomorphism from this algebra exactly when it carries
        each to through of its images.  The one list every derived
        table reads: the coloring plan's tables (homset._tables) and
        the cochain complex (cohomology._Complex)."""
        over = self.over_table
        return [(a, b, u - 1, over[b][a] - 1)
                for a, row in enumerate(self.under_table) for b, u in enumerate(row)]

    @property
    def n(self):
        return len(self.under_table)

    @property
    def elements(self):
        return range(1, self.n + 1)

    def under(self, x, y):
        return self.under_table[x - 1][y - 1]

    def over(self, x, y):
        return self.over_table[x - 1][y - 1]

    # the inverses read the coloring plan's tables (see homset._tables),
    # built on first use: most loads never need them

    def under_inv(self, x, y):
        """The z with under(z, y) = x."""
        return _tables(self)[UNDER_INV][x * _stride(self.n) + y]

    def over_inv(self, x, y):
        """The z with over(z, y) = x."""
        return _tables(self)[OVER_INV][x * _stride(self.n) + y]

    def through(self, a, b):
        """Input pair (under, over) to output pair at a positive crossing."""
        return (self.under(a, b), self.over(b, a))

    def through_inv(self, c, d):
        """Output pair (under, over) back to the input pair."""
        i = c * _stride(self.n) + d
        tables = _tables(self)
        return (tables[THROUGH_INV_1][i], tables[THROUGH_INV_2][i])

    @property
    def is_quandle(self):
        return all(
            self.over_table[x][y] == x + 1 for x in range(self.n) for y in range(self.n)
        )

    def __eq__(self, other):
        if not isinstance(other, Biquandle):
            return NotImplemented
        return (
            self.under_table == other.under_table and self.over_table == other.over_table
        )

    def __repr__(self):
        label = self.name or "order %d" % self.n
        kind = "quandle" if self.is_quandle else "biquandle"
        return "<%s %s>" % (kind, label)


def quandle(under, name=None):
    n = len(under)
    over = [[x + 1] * n for x in range(n)]
    return Biquandle(under, over, name=name)


def _mod_rep(v, m):
    # 1..m representatives with m standing for the zero class
    return ((v - 1) % m) + 1


def trivial_quandle(n):
    if n < 1:
        raise ValueError("n must be positive")
    return quandle([[x + 1] * n for x in range(n)], name="trivial-%d" % n)


def core_cyclic(m):
    """Core quandle of the cyclic group: x . y = 2y - x mod m."""
    if m < 1:
        raise ValueError("m must be positive")
    under = [
        [_mod_rep(2 * y - x, m) for y in range(1, m + 1)] for x in range(1, m + 1)
    ]
    return quandle(under, name="core-%d" % m)


def alexander_cyclic(m, t):
    """Alexander quandle on Z_m: x . y = t*x + (1-t)*y, gcd(t, m) = 1."""
    import math

    if m < 1:
        raise ValueError("m must be positive")
    if math.gcd(t % m, m) != 1:
        raise ValueError("t must be a unit mod m")
    under = [
        [_mod_rep(t * x + (1 - t) * y, m) for y in range(1, m + 1)]
        for x in range(1, m + 1)
    ]
    return quandle(under, name="alexander-%d-%d" % (m, t))


def constant_action_biquandle_z2():
    """Order-2 biquandle where both operations flip the element."""
    flip = [[2, 2], [1, 1]]
    return Biquandle(flip, flip, name="flip2")


def swap3():
    """Order-3 quandle where 3 swaps 1 and 2 and everything else is inert."""
    return quandle([[1, 1, 2], [2, 2, 1], [3, 3, 3]], name="swap3")


# Loading an algebra checks its axioms over all N^3 triples, so builtin
# names stop here; the constructors themselves take any order.
MAX_BUILTIN_ORDER = 128


def _builtin_order(text):
    n = int(text)
    if n > MAX_BUILTIN_ORDER:
        raise ValueError("order %d is above the builtin cap of %d" % (n, MAX_BUILTIN_ORDER))
    return n


def builtin(name):
    """Look up a built-in algebra: trivial-N, core-M, alexander-M-T, swap3, flip2."""
    if name == "swap3":
        return swap3()
    if name == "flip2":
        return constant_action_biquandle_z2()
    parts = name.split("-")
    try:
        if parts[0] == "trivial" and len(parts) == 2:
            return trivial_quandle(_builtin_order(parts[1]))
        if parts[0] == "core" and len(parts) == 2:
            return core_cyclic(_builtin_order(parts[1]))
        if parts[0] == "alexander" and len(parts) == 3:
            return alexander_cyclic(_builtin_order(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise KeyError("bad algebra name %r: %s" % (name, exc))
    raise KeyError("unknown algebra %r" % name)


def homomorphisms(src, dst):
    """All maps f with f(under(x,y)) = under(f x, f y) and same for over,
    as tuples of 1-based images in lexicographic order.

    f is one exactly when it satisfies the crossing relation of every
    pair of src (see Biquandle._relations), so the coloring plan of
    homset solves them over dst like a diagram's crossings.
    """
    return solve(src._relations, src.n, dst)


def endomorphisms(bq):
    return homomorphisms(bq, bq)


def is_homomorphism(src, dst, images):
    """Whether images, the 1-based image of each element, is a
    homomorphism src -> dst: each relation (a, b, c, d) of src must
    hold under it, read at one index f(a) * stride + f(b) of the tables
    the coloring plan's (p1, p2) firing reads, under and over_swap."""
    if len(images) != src.n or any(y not in dst.elements for y in images):
        return False
    tables = _tables(dst)
    under, over_swap = tables[UNDER], tables[OVER_SWAP]
    size = _stride(dst.n)
    for a, b, c, d in src._relations:
        i = images[a] * size + images[b]
        if under[i] != images[c] or over_swap[i] != images[d]:
            return False
    return True
