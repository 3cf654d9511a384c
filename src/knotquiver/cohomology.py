"""Degree-2 cohomology of finite biquandles and cocycle invariants.

Chain groups use the nondegenerate bases: C1 = elements, C2 = pairs
(x, y) with x != y, C3 = triples (x, y, z) with x != y and y != z.
Boundaries:

    d2(x, y) = (x) + (y) - (under(x, y)) - (over(y, x))
    d3(x, y, z) = -(y, z) + (over(y, x), over(z, x)) + (x, z)
                  - (under(x, y), over(z, y)) - (x, y)
                  + (under(x, z), under(y, z))

with degenerate pairs dropped.  Both read the relations (x, y, c, d),
c = under(x, y) and d = over(y, x), of Biquandle._relations: d2(x, y)
= x + y - c - d, and d3(x, y, z) reads c and d of (x, y), (x, z) and
(y, z).  Cochains take values in Z (modulus 0) or Z_m; a 2-cochain is
a vector over the pair basis, and its coboundary is d3^T applied to it.

The complex is built once per algebra, in one pass over the triples,
and kept on the Biquandle instance: d2 as a dense matrix and d3 as six
pair indices per triple, the three terms with +1 and then the three
with -1 (see _Complex).  The cocycle test sums a cochain's entries at
those indices.  Everything else comes from one integral Smith form
u * d3^T * v = diag(d_i), computed on first use.  Its input, d3^T, is
a sequence of {pair index: coefficient} rows, one per triple, and each
row is expanded from its indices only when it is read, so the Smith
form expands only the rows it brings in (boundary_matrices reads them
all, to dense d2 and d3).  The Smith form stops at a proven bound on
the rank of d3^T: d2 @ d3 vanishes, so rank d3 <= p - rank d2, with
rank d2 over Q read off the Smith form of d2's rows (one more Smith
form per algebra, of n rows, kept as _Complex.d2_snf).  On a
connected quandle the bound is the rank (rational H^2 vanishes), and
the factorization stops once its pivots are found, without bringing in
the rows past them.  A bounded Smith form keeps no row log, so no u,
whether or not it stops early; nothing here reads it.
This is the universal-coefficient view: the cocycles over Z are the
columns of v past the rank, and the lifts to Z^p of the cocycles over
Z_m are spanned by the columns of v with column i scaled by
m / gcd(d_i, m).  The lattice coordinates of a
cochain come from v^-1, not from a second Smith form: entry i of
v^-1 x divided by m / gcd(d_i, m), or over Z the entries of v^-1 x
past the rank.  H^2 is the quotient of the lattice by the coboundaries
(the rows of d2, plus m * Z^p over Z_m); the one Smith form of their
coordinate matrix, u * X * w = diag, gives its invariant factors and
generators, and the class of a cocycle with coordinates x is u * x.
For X, v^-1 meets the rows of d2 through the at most four nonzeros of
each column of d2, and the coordinates of m * e_j are read off column j
of v^-1 (see _coboundary_coords).  v and v^-1 stay sparse throughout,
the second Smith form never forms its own, and only the generators of
order other than 1 are built.

Whether H^2 vanishes is known before that second Smith form, from the
two already made.  By the universal coefficient theorem H^2(C; A) is
Hom(H_2, A) + Ext(H_1, A), with H_1 = coker d2 (C_1 is the bottom of
the complex) and H_2 = ker d2 / im d3, whose torsion is that of coker
d3 and whose free rank is p - rank d2 - rank d3.  Over Z, Hom(H_2, Z)
is free of that rank and Ext(H_1, Z) is the torsion of coker d2; over
Z_m, each free summand adds a Z_m and each invariant factor d of d2
and of d3^T a Z_gcd(d, m).  So H^2 vanishes exactly when the free rank
is 0 and, over Z, every nonzero invariant factor of d2 is 1, or, over
Z_m, every nonzero invariant factor d of d2 and of d3^T has
gcd(d, m) = 1 (_h2_vanishes).  Then h2_generators returns no vectors
and every cocycle is a coboundary, without the Smith form of the
coboundaries' coordinates.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .homset import _pair_table, chain_vectors, colorings
from .intlinalg import snf
from .polynomials import GroupExponentPolynomial


@dataclass(frozen=True)
class CoeffGroup:
    """Z when modulus is 0, else Z_modulus."""

    modulus: int = 0

    @classmethod
    def parse(cls, text):
        t = text.strip().lower()
        if t in ("z", "int", "integers"):
            return cls(0)
        if t.startswith("z"):
            t = t[1:].lstrip("_-/")
        if t.isdigit() and int(t) >= 2:
            return cls(int(t))
        raise ValueError("cannot parse coefficient group %r" % text)

    def __str__(self):
        return "Z" if self.modulus == 0 else "Z_%d" % self.modulus

    def reduce(self, value):
        return value % self.modulus if self.modulus else value


def triple_basis(bq):
    return [
        (x, y, z)
        for x in bq.elements
        for y in bq.elements
        for z in bq.elements
        if x != y and y != z
    ]


def boundary_matrices(bq):
    """(d2, d3) as dense integer matrices, d3 expanded from every row of
    _Complex's d3^T; raises ValueError unless d2 @ d3 vanishes."""
    cx = _Complex(bq)
    d3 = [[0] * len(cx.d3t) for _ in range(cx.npairs)]
    for j, row in enumerate(cx.d3t):
        for p, c in row.items():
            d3[p][j] = c
    return cx.d2, d3


def _d3t_row(term, p):
    """The row of d3^T for one terms entry, {pair index: coefficient}:
    repeated pairs summed, zeros and the degenerate index p dropped."""
    row = {}
    for k, c in zip(term, (1, 1, 1, -1, -1, -1)):
        if k != p:
            row[k] = row.get(k, 0) + c
    return {k: c for k, c in row.items() if c}


class _D3tRows:
    """d3^T as a read-only sequence of {pair index: coefficient} rows,
    one per triple in triple_basis order.  Row i is expanded from
    terms[i] each time it is read and is not kept; len and truth read
    no row, and iteration goes through [i]."""

    def __init__(self, terms, p):
        self.terms = terms
        self.p = p

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        return _d3t_row(self.terms[i], self.p)


class _Complex:
    """The cochain complex of one biquandle, read off its relations in
    one pass over the pairs and one over the triples: d2 as a dense
    n x p matrix, the pair count p, d3 as terms, one tuple of six pair
    indices per triple in triple_basis order, and d3^T as a _D3tRows
    over them, whose rows are expanded only when read.  On first use it
    adds the nonzeros of each column of d2, the Smith forms of d2 and of
    d3^T, and H^2 per coefficient modulus.

    The Smith form of d3^T is told that its rank is at most p - rank d2,
    with rank d2 over Q from the Smith form of d2's rows, which is kept
    (d2_snf) for the invariant factors _h2_vanishes reads.  The check
    below makes the bound sound: d2 @ d3 = 0 puts the image of d3 in
    the kernel of d2.  The Smith form reads a row of d3^T only when
    it brings the row in, so rows past the pivots are never expanded.
    Its result forms the sparse columns of v and rows of v^-1, the only
    parts the cohomology reads, from its column log on first read.
    Being bounded, it keeps no row log and so no u.

    The slots of a terms entry are fixed: the first three pairs enter
    d3(x, y, z) with +1, the last three with -1,

        +(over(y, x), over(z, x)) +(x, z) +(under(x, z), under(y, z))
        -(y, z) -(under(x, y), over(z, y)) -(x, y)

    and index p stands for a degenerate pair, which d3 drops.  A pair
    may fill more than one slot; the terms then cancel or add up in
    arithmetic, as they do in the rows of d3t.

    Each triple is checked as it is built: the d2 columns of its pairs
    must sum to zero, or d2 @ d3 would not vanish.  For the check,
    column k of d2 is packed into one integer, the sum of
    d2[i][k] * 64**i, with a 0 at index p.  A column of d3 has at most
    six terms and a column of d2 four entries of +-1, so each entry of
    the image is at most 24 in size, and the packed image is zero only
    when the image is.
    """

    def __init__(self, bq):
        n = bq.n
        rels = bq._relations
        p = self.npairs = n * (n - 1)
        # index[x][y]: the basis index of the pair (x + 1, y + 1), or p
        # when x == y (a degenerate pair), row x of the chains' pair table
        flat, stride = _pair_table(bq), n + 1
        index = [flat[i + 1:i + stride] for i in range(stride, stride * stride, stride)]
        d2 = [[0] * p for _ in range(n)]
        packed = []
        for k, (x, y, c, d) in enumerate([r for r in rels if r[0] != r[1]]):
            col = ((x, 1), (y, 1), (c, -1), (d, -1))
            for i, v in col:
                d2[i][k] += v
            packed.append(sum(v << 6 * i for i, v in col))
        packed.append(0)
        # rows x of C and D: c = under(x, y) and d = over(y, x) of the
        # relations (x, y, c, d)
        C = [[c for _, _, c, _ in rels[x * n:x * n + n]] for x in range(n)]
        D = [[d for _, _, _, d in rels[x * n:x * n + n]] for x in range(n)]
        terms = []
        for x in range(n):
            Cx, Dx, ix = C[x], D[x], index[x]
            for y in range(n):
                if y == x:
                    continue
                Cy, Dy, iy = C[y], D[y], index[y]
                i_dxy, i_cxy, kxy = index[Dx[y]], index[Cx[y]], ix[y]
                for z in range(n):
                    if z == y:
                        continue
                    a, b, c = i_dxy[Dx[z]], ix[z], index[Cx[z]][Cy[z]]
                    d, e = iy[z], i_cxy[Dy[z]]
                    if packed[a] + packed[b] + packed[c] - packed[d] - packed[e] - packed[kxy]:
                        raise ValueError("boundary maps do not compose to zero for %r" % bq)
                    terms.append((a, b, c, d, e, kxy))
        self.d2 = d2
        self.terms = terms
        self.d3t = _D3tRows(terms, p)
        self.h2 = {}

    @cached_property
    def d2_cols(self):
        """The nonzeros of each column of d2, as (row, value) pairs: at
        most four per column."""
        return [[(i, c) for i, c in enumerate(col) if c] for col in zip(*self.d2)]

    @cached_property
    def d2_snf(self):
        """The Smith form of d2's rows: the rank bound of d3t_snf, and
        the invariant factors _h2_vanishes reads."""
        return snf([{k: c for k, c in enumerate(row) if c} for row in self.d2], self.npairs)

    @cached_property
    def d3t_snf(self):
        return snf(self.d3t, self.npairs, self.npairs - self.d2_snf.rank)


def _complex(bq):
    # built once per Biquandle instance and kept on it; the tables are
    # not expected to change after construction
    cx = getattr(bq, "_cochain_complex", None)
    if cx is None:
        cx = bq._cochain_complex = _Complex(bq)
    return cx


def check_length(bq, vec):
    """Raise ValueError unless vec is as long as the pair basis, the
    n(n - 1) pairs of distinct elements."""
    want = bq.n * (bq.n - 1)
    if len(vec) != want:
        raise ValueError("vector length %d, basis size %d" % (len(vec), want))


def _scales(res, m):
    # column i of v enters the lattice over Z_m scaled by m / gcd(d_i, m)
    diag = res.diag + [0] * (len(res.v_cols) - len(res.diag))
    return [m // gcd(d, m) for d in diag]


def _lattice_basis(res, m):
    """The cocycle_lattice basis as (scale, column of v) pairs, each
    column a {row: value} dict."""
    if m == 0:
        return [(1, col) for col in res.v_cols[res.rank:]]
    return list(zip(_scales(res, m), res.v_cols))


def cocycle_lattice(bq, coeff):
    """Basis columns of the lattice of integer vectors whose coboundary
    vanishes (mod m when the coefficient group is finite).

    With u * d3^T * v = diag(d_i), a cochain x is a cocycle mod m exactly
    when y = v^-1 x has d_i * y_i = 0 mod m for every i, that is when
    m / gcd(d_i, m) divides y_i (d_i = 0 past the rank).  Over Z, y_i
    must vanish below the rank and is free past it.
    """
    res = _complex(bq).d3t_snf
    out = []
    for s, col in _lattice_basis(res, coeff.modulus):
        vec = [0] * len(res.v_cols)
        for r, x in col.items():
            vec[r] = s * x
        out.append(vec)
    return out


def _to_lattice(y, rank, scales):
    """The cocycle_lattice coordinates of a vector from y = v^-1 vec,
    None outside the lattice.  Over Z (scales None) entries below the
    rank must vanish and those past it are the coordinates; over Z_m
    entry i is divided by the scale of lattice column i."""
    if scales is None:
        return None if any(y[:rank]) else y[rank:]
    if any(a % s for a, s in zip(y, scales)):
        return None
    return [a // s for a, s in zip(y, scales)]


def _lattice_coords(bq, coeff, vectors):
    """Coordinates of each vector over the cocycle_lattice basis, read
    off y = v^-1 vec; None for a vector outside the lattice, that is,
    one that is not a cocycle."""
    res = _complex(bq).d3t_snf
    m = coeff.modulus
    scales = _scales(res, m) if m else None
    return [_to_lattice([sum(x * vec[k] for k, x in row.items()) for row in res.v_inv_rows],
                        res.rank, scales)
            for vec in vectors]


def coboundary_generators(bq, coeff):
    # the coboundary of a 1-cochain is its pullback along d2, so the
    # image is generated by the rows of d2 viewed as pair vectors
    gens = [list(row) for row in _complex(bq).d2]
    p = _complex(bq).npairs
    if coeff.modulus:
        gens += [[coeff.modulus if i == j else 0 for i in range(p)] for j in range(p)]
    return gens


def _coboundary_coords(bq, coeff):
    """X, the matrix _h2 factors: column k holds the cocycle_lattice
    coordinates of coboundary generator k, as {column: value} rows, and
    its column count.  The first n generators are the rows of d2, so
    row i of Y = v^-1 d2^T holds entry i of y = v^-1 x for each of
    them; it is summed over the nonzeros of row i of v^-1, each meeting
    the at most four nonzeros of one column of d2, and each column of Y
    goes through _to_lattice.  Over Z_m, generator n + j is m * e_j,
    whose coordinate i is m * v^-1[i][j] / (m / gcd(d_i, m)) =
    gcd(d_i, m) * v^-1[i][j]."""
    cx = _complex(bq)
    res = cx.d3t_snf
    m = coeff.modulus
    n = len(cx.d2)
    d2_cols = cx.d2_cols
    scales = _scales(res, m) if m else None
    ys = []
    for v_inv_row in res.v_inv_rows:
        y = [0] * n
        for k, x in v_inv_row.items():
            for r, c in d2_cols[k]:
                y[r] += x * c
        ys.append(y)
    coords = [_to_lattice(y, res.rank, scales) for y in zip(*ys)]
    if None in coords:
        raise ValueError("generator outside the spanned lattice")
    rows = [{r: a for r, a in enumerate(row) if a} for row in zip(*coords)]
    if m:
        for row, s, v_inv_row in zip(rows, scales, res.v_inv_rows):
            row.update((n + j, m // s * x) for j, x in v_inv_row.items())
        return rows, n + len(rows)
    return rows, n


def _h2(bq, coeff):
    """H^2 as lattice / coboundaries, built once per Biquandle instance
    and modulus: (factors, res, generators).  res is the Smith form
    u * X * w of the coboundary generators' lattice coordinates X
    (_coboundary_coords); factors pads its diagonal with 0 (free
    summands) to the lattice rank, and column i of (lattice basis) *
    u^-1 generates summand i.  Only the summands of order other than 1
    are built, each from column i of u^-1 (u^-1 applied to e_i, without
    forming u^-1) and the sparse columns of v; w is never read."""
    memo = _complex(bq).h2
    m = coeff.modulus
    if m not in memo:
        cx = _complex(bq)
        basis = _lattice_basis(cx.d3t_snf, m)
        res = snf(*_coboundary_coords(bq, coeff))
        factors = res.diag + [0] * (len(basis) - len(res.diag))
        gens = []
        for i, f in enumerate(factors):
            if f == 1:
                continue
            unit = [0] * len(basis)
            unit[i] = 1
            rep = [0] * cx.npairs
            for c, (s, col) in zip(res.apply_u_inv(unit), basis):
                if c:
                    for r, x in col.items():
                        rep[r] += c * s * x
            gens.append((f, [coeff.reduce(x) for x in rep]))
        memo[m] = factors, res, gens
    return memo[m]


def _h2_vanishes(bq, coeff):
    """Whether H^2 over coeff is 0, by the universal coefficient theorem
    (see the module docstring), read off the Smith forms of d2 and d3^T
    alone."""
    cx = _complex(bq)
    d2, d3t = cx.d2_snf, cx.d3t_snf
    if cx.npairs - d2.rank - d3t.rank:
        return False
    m = coeff.modulus
    if m == 0:
        return all(d == 1 for d in d2.diag if d)
    return all(gcd(d, m) == 1 for d in d2.diag + d3t.diag if d)


def h2_generators(bq, coeff):
    """Generators of the second cohomology group.

    Returns a list of (order, vector) pairs, one per cyclic summand;
    order 0 marks a free summand (integer coefficients only).  Trivial
    summands are dropped.

    When the universal coefficient theorem says H^2 vanishes over coeff
    (_h2_vanishes: no free rank, and no invariant factor of d2, or over
    Z_m of d3^T, that shares a factor with the group), the list is empty
    and the Smith form of the coboundaries' coordinates is not made.
    """
    if _h2_vanishes(bq, coeff):
        return []
    return [(f, list(vec)) for f, vec in _h2(bq, coeff)[2]]


def is_cocycle(bq, coeff, vec):
    """Whether d3^T vec vanishes (mod m over Z_m), read triple by triple
    off the six pair indices of each; stops at the first triple where it
    does not.  vec is not modified."""
    check_length(bq, vec)
    m = coeff.modulus
    # a copy padded with a 0 at index p, the degenerate pair
    v = list(vec)
    v.append(0)
    for a, b, c, d, e, f in _complex(bq).terms:
        s = v[a] + v[b] + v[c] - v[d] - v[e] - v[f]
        if (s % m if m else s):
            return False
    return True


def _h2_class(bq, coeff, vec):
    """(order, coordinate) per summand of H^2, trivial ones included, for
    the class of vec; None when vec is not a cocycle.  When H^2 vanishes
    every cocycle is a coboundary, and a cocycle's class is [], read off
    is_cocycle without _h2."""
    check_length(bq, vec)
    if _h2_vanishes(bq, coeff):
        return [] if is_cocycle(bq, coeff, vec) else None
    factors, res, _ = _h2(bq, coeff)
    x = _lattice_coords(bq, coeff, [vec])[0]
    if x is None:
        return None
    return [(f, a % f if f else a) for f, a in zip(factors, res.apply_u(x))]


def is_coboundary(bq, coeff, vec):
    cls = _h2_class(bq, coeff, vec)
    return cls is not None and not any(a for _, a in cls)


def h2_coordinates(bq, coeff, vec):
    """Coordinates of a cocycle's class over the h2 generators, each
    reduced mod the generator's order."""
    cls = _h2_class(bq, coeff, vec)
    if cls is None:
        raise ValueError("vector is not a cocycle combination")
    return tuple(a for f, a in cls if f != 1)


def evaluate(coeff, phi, chain):
    """Pair a 2-cochain with an integer 2-chain."""
    return coeff.reduce(sum(map(operator.mul, phi, chain)))


def weight_multiset(coeff, phi, chains):
    """Sorted (weight, multiplicity) pairs of phi over the chain vectors."""
    counts = {}
    for chain in chains:
        w = evaluate(coeff, phi, chain)
        counts[w] = counts.get(w, 0) + 1
    return sorted(counts.items())


def state_sum(coeff, phi, chains):
    """One q^weight term per chain vector."""
    # a weight is reduced by coeff, so (("q", w),) is a canonical key
    pairs = [((("q", w),) if w else (), mult) for w, mult in weight_multiset(coeff, phi, chains)]
    return GroupExponentPolynomial.collect(pairs, coeff.modulus)


def cocycle_invariant(diagram, bq, coeff, phi):
    """State sum: one q^weight term per coloring."""
    chains = chain_vectors(diagram, bq, colorings(diagram, bq))
    return state_sum(coeff, phi, chains)
