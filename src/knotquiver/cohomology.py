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
column i scaled by m / gcd(d_i, m).  H^2 is the quotient of that
lattice by the coboundaries (the rows of d2, plus m * Z^p over Z_m),
again read off a Smith normal form.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .homset import chain_vector, colorings, pair_basis
from .intlinalg import (
    from_columns,
    mat_mul,
    quotient_structure,
    rank_mod_prime,
    snf,
    solve,
    transpose,
)
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
    """(d2, d3) as integer matrices; checks that d2 @ d3 vanishes."""
    pairs = pair_basis(bq)
    triples = triple_basis(bq)
    pair_index = {p: i for i, p in enumerate(pairs)}
    n = bq.n
    d2 = [[0] * len(pairs) for _ in range(n)]
    for j, (x, y) in enumerate(pairs):
        d2[x - 1][j] += 1
        d2[y - 1][j] += 1
        d2[bq.under(x, y) - 1][j] -= 1
        d2[bq.over(y, x) - 1][j] -= 1
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
        for c, pair in terms:
            if pair[0] != pair[1]:
                d3[pair_index[pair]][j] += c
    prod = mat_mul(d2, d3)
    if any(x for row in prod for x in row):
        raise ValueError("boundary maps do not compose to zero for %r" % bq)
    return d2, d3


class _Complex:
    """d2 and d3^T of one biquandle, and the Smith form of d3^T
    (computed on first use)."""

    def __init__(self, bq):
        self.d2, d3 = boundary_matrices(bq)
        self.d3t = transpose(d3)

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
    diag = res.diag + [0] * (len(cols) - len(res.diag))
    return [[x * (m // gcd(d, m)) for x in col] for d, col in zip(diag, cols)]


def coboundary_generators(bq, coeff):
    # the coboundary of a 1-cochain is its pullback along d2, so the
    # image is generated by the rows of d2 viewed as pair vectors
    gens = [list(row) for row in _complex(bq).d2]
    p = len(pair_basis(bq))
    if coeff.modulus:
        gens += [[coeff.modulus if i == j else 0 for i in range(p)] for j in range(p)]
    return gens


def cocycle_space(bq, coeff):
    """A basis of the space of 2-cocycles.

    For integer coefficients: a lattice basis.  For a finite modulus the
    reduction of the lattice basis is pruned to an independent set; this
    is a vector-space basis when the modulus is prime.
    """
    lat = cocycle_lattice(bq, coeff)
    m = coeff.modulus
    if m == 0:
        return lat
    reduced = [[x % m for x in v] for v in lat]
    out = []
    for v in reduced:
        if any(v) and rank_mod_prime(out + [v], m) > len(out):
            out.append(v)
    return out


def h2_generators(bq, coeff):
    """Generators of the second cohomology group.

    Returns a list of (order, vector) pairs, one per cyclic summand;
    order 0 marks a free summand (integer coefficients only).  Trivial
    summands are dropped.
    """
    lat = cocycle_lattice(bq, coeff)
    if not lat:
        return []
    basis_mat = from_columns(lat)
    gens = coboundary_generators(bq, coeff)
    factors, vectors = quotient_structure(basis_mat, gens)
    out = []
    for f, v in zip(factors, vectors):
        if f == 1:
            continue
        vec = [coeff.reduce(x) for x in v]
        out.append((f, vec))
    return out


def is_cocycle(bq, coeff, vec):
    for row in _complex(bq).d3t:
        s = sum(a * b for a, b in zip(row, vec))
        if coeff.reduce(s) != 0:
            return False
    return True


def is_coboundary(bq, coeff, vec):
    gens = coboundary_generators(bq, coeff)
    if not gens:
        return not any(vec)
    return solve(from_columns(gens), list(vec)) is not None


def h2_coordinates(bq, coeff, vec):
    """Coordinates of a cocycle's class over the h2 generators.

    Solves vec = sum(a_i * gen_i) + coboundary over the integers and
    returns each a_i reduced mod the generator's order.
    """
    gens = h2_generators(bq, coeff)
    cols = [g for _, g in gens] + coboundary_generators(bq, coeff)
    if not cols:
        return ()
    sol = solve(from_columns(cols), list(vec))
    if sol is None:
        raise ValueError("vector is not a cocycle combination")
    out = []
    for (order, _), a in zip(gens, sol):
        out.append(a % order if order else a)
    return tuple(out)


def evaluate(coeff, phi, chain):
    """Pair a 2-cochain with an integer 2-chain."""
    return coeff.reduce(sum(a * b for a, b in zip(phi, chain)))


def weight_multiset(diagram, bq, coeff, phi):
    """Sorted (weight, multiplicity) pairs over all colorings."""
    counts = {}
    for col in colorings(diagram, bq):
        w = evaluate(coeff, phi, chain_vector(diagram, bq, col))
        counts[w] = counts.get(w, 0) + 1
    return sorted(counts.items())


def cocycle_invariant(diagram, bq, coeff, phi):
    """State sum: one q^weight term per coloring."""
    out = GroupExponentPolynomial.zero(coeff.modulus)
    for w, mult in weight_multiset(diagram, bq, coeff, phi):
        out = out + GroupExponentPolynomial.monomial(mult, {"q": w}, coeff.modulus)
    return out


def cocycle_invariant_root_form(diagram, bq, coeff, phi):
    """The same multiset presented as factors (q - weight)^multiplicity."""
    return weight_multiset(diagram, bq, coeff, phi)
