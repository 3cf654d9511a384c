"""Degree-2 cohomology of finite biquandles and cocycle invariants.

Chain groups use the nondegenerate bases: C1 = elements, C2 = pairs
(x, y) with x != y, C3 = triples (x, y, z) with x != y and y != z.
Boundaries:

    d2(x, y) = (x) + (y) - (under(x, y)) - (over(y, x))
    d3(x, y, z) = -(y, z) + (over(y, x), over(z, x)) + (x, z)
                  - (under(x, y), over(z, y)) - (x, y)
                  + (under(x, z), under(y, z))

with degenerate pairs dropped.  Cochains take values in Z (modulus 0)
or Z_m; a 2-cochain is a vector over the pair basis, and its
coboundary is d3^T applied to it.

Everything comes from one integral Smith form u * d3^T * v = diag(d_i),
computed once per algebra and kept on the Biquandle instance together
with d2 and d3^T.  This is the universal-coefficient view: the
cocycles over Z are the columns of v past the rank, and the lifts to
Z^p of the cocycles over Z_m are spanned by the columns of v with
column i scaled by m / gcd(d_i, m).  The lattice coordinates of a
cochain come from v^-1, not from a second Smith form: entry i of
v^-1 x divided by m / gcd(d_i, m), or over Z the entries of v^-1 x
past the rank.  H^2 is the quotient of the lattice by the coboundaries
(the rows of d2, plus m * Z^p over Z_m); the one Smith form of their
coordinate matrix, u * X * w = diag, gives its invariant factors and
generators, and the class of a cocycle with coordinates x is u * x.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .homset import chain_vector, colorings, pair_basis
from .intlinalg import mat_mul, snf, transpose
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
    """(d2, d3) as integer matrices; checks that d2 @ d3 vanishes.

    The check sums, for each triple, the d2 columns of the pairs in its
    d3 column: at most six columns of at most four entries each.
    """
    pairs = pair_basis(bq)
    triples = triple_basis(bq)
    pair_index = {p: i for i, p in enumerate(pairs)}
    n = bq.n
    d2 = [[0] * len(pairs) for _ in range(n)]
    d2_cols = []  # d2_cols[j]: (row, coefficient) of the entries of column j
    for j, (x, y) in enumerate(pairs):
        col = (
            (x - 1, 1), (y - 1, 1), (bq.under(x, y) - 1, -1), (bq.over(y, x) - 1, -1)
        )
        for i, c in col:
            d2[i][j] += c
        d2_cols.append(col)
    d3 = [[0] * len(triples) for _ in range(len(pairs))]
    for j, (x, y, z) in enumerate(triples):
        terms = (
            (-1, (y, z)),
            (1, (bq.over(y, x), bq.over(z, x))),
            (1, (x, z)),
            (-1, (bq.under(x, y), bq.over(z, y))),
            (-1, (x, y)),
            (1, (bq.under(x, z), bq.under(y, z))),
        )
        image = [0] * n
        for c, pair in terms:
            if pair[0] != pair[1]:
                p = pair_index[pair]
                d3[p][j] += c
                for i, e in d2_cols[p]:
                    image[i] += c * e
        if any(image):
            raise ValueError("boundary maps do not compose to zero for %r" % bq)
    return d2, d3


class _Complex:
    """d2 and d3^T of one biquandle, the Smith form of d3^T (computed on
    first use), and H^2 per coefficient modulus."""

    def __init__(self, bq):
        self.d2, d3 = boundary_matrices(bq)
        self.d3t = transpose(d3)
        self.h2 = {}

    @cached_property
    def d3t_snf(self):
        return snf(self.d3t)


def _complex(bq):
    # built once per Biquandle instance and kept on it; the tables are
    # not expected to change after construction
    cx = getattr(bq, "_cochain_complex", None)
    if cx is None:
        cx = bq._cochain_complex = _Complex(bq)
    return cx


def check_length(bq, vec):
    """Raise ValueError unless vec is as long as the pair basis."""
    want = len(_complex(bq).d2[0])
    if len(vec) != want:
        raise ValueError("vector length %d, basis size %d" % (len(vec), want))


def _scales(res, m):
    # column i of v enters the lattice over Z_m scaled by m / gcd(d_i, m)
    diag = res.diag + [0] * (len(res.v) - len(res.diag))
    return [m // gcd(d, m) for d in diag]


def cocycle_lattice(bq, coeff):
    """Basis columns of the lattice of integer vectors whose coboundary
    vanishes (mod m when the coefficient group is finite).

    With u * d3^T * v = diag(d_i), a cochain x is a cocycle mod m exactly
    when y = v^-1 x has d_i * y_i = 0 mod m for every i, that is when
    m / gcd(d_i, m) divides y_i (d_i = 0 past the rank).  Over Z, y_i
    must vanish below the rank and is free past it.
    """
    res = _complex(bq).d3t_snf
    cols = transpose(res.v)
    m = coeff.modulus
    if m == 0:
        return cols[res.rank:]
    return [[x * s for x in col] for s, col in zip(_scales(res, m), cols)]


def _lattice_coords(bq, coeff, vectors):
    """Coordinates of each vector over the cocycle_lattice basis, read
    off y = v^-1 vec; None for a vector outside the lattice, that is,
    one that is not a cocycle."""
    res = _complex(bq).d3t_snf
    m = coeff.modulus
    scales = _scales(res, m) if m else None
    out = []
    # row r of the product is v^-1 @ vectors[r]
    for y in mat_mul(vectors, transpose(res.v_inv)):
        if m == 0:
            out.append(None if any(y[:res.rank]) else y[res.rank:])
        else:
            out.append(None if any(a % s for a, s in zip(y, scales))
                       else [a // s for a, s in zip(y, scales)])
    return out


def coboundary_generators(bq, coeff):
    # the coboundary of a 1-cochain is its pullback along d2, so the
    # image is generated by the rows of d2 viewed as pair vectors
    gens = [list(row) for row in _complex(bq).d2]
    p = len(pair_basis(bq))
    if coeff.modulus:
        gens += [[coeff.modulus if i == j else 0 for i in range(p)] for j in range(p)]
    return gens


def _h2(bq, coeff):
    """H^2 as lattice / coboundaries, built once per Biquandle instance
    and modulus: (factors, res, generators).  res is the Smith form
    u * X * w of the coboundary generators' lattice coordinates X;
    factors pads its diagonal with 0 (free summands) to the lattice
    rank, and column i of (lattice basis) * u^-1 generates summand i."""
    memo = _complex(bq).h2
    if coeff.modulus not in memo:
        lat = cocycle_lattice(bq, coeff)
        coords = _lattice_coords(bq, coeff, coboundary_generators(bq, coeff))
        if None in coords:
            raise ValueError("generator outside the spanned lattice")
        res = snf(transpose(coords))
        factors = res.diag + [0] * (len(lat) - len(res.diag))
        reps = mat_mul(transpose(res.u_inv), lat)
        gens = [(f, [coeff.reduce(x) for x in rep])
                for f, rep in zip(factors, reps) if f != 1]
        memo[coeff.modulus] = factors, res, gens
    return memo[coeff.modulus]


def h2_generators(bq, coeff):
    """Generators of the second cohomology group.

    Returns a list of (order, vector) pairs, one per cyclic summand;
    order 0 marks a free summand (integer coefficients only).  Trivial
    summands are dropped.
    """
    return [(f, list(vec)) for f, vec in _h2(bq, coeff)[2]]


def is_cocycle(bq, coeff, vec):
    check_length(bq, vec)
    for row in _complex(bq).d3t:
        s = sum(a * b for a, b in zip(row, vec))
        if coeff.reduce(s) != 0:
            return False
    return True


def _h2_class(bq, coeff, vec):
    """(order, coordinate) per summand of H^2, trivial ones included, for
    the class of vec; None when vec is not a cocycle."""
    check_length(bq, vec)
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
    return coeff.reduce(sum(a * b for a, b in zip(phi, chain)))


def weight_multiset(coeff, phi, chains):
    """Sorted (weight, multiplicity) pairs of phi over the chain vectors."""
    counts = {}
    for chain in chains:
        w = evaluate(coeff, phi, chain)
        counts[w] = counts.get(w, 0) + 1
    return sorted(counts.items())


def state_sum(coeff, phi, chains):
    """One q^weight term per chain vector."""
    out = GroupExponentPolynomial.zero(coeff.modulus)
    for w, mult in weight_multiset(coeff, phi, chains):
        out = out + GroupExponentPolynomial.monomial(mult, {"q": w}, coeff.modulus)
    return out


def cocycle_invariant(diagram, bq, coeff, phi):
    """State sum: one q^weight term per coloring."""
    chains = [chain_vector(diagram, bq, col) for col in colorings(diagram, bq)]
    return state_sum(coeff, phi, chains)
