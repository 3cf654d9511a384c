"""Quiver representations built on the coloring space of a diagram.

Vertices are the colorings of a fixed diagram.  For every chosen
endomorphism sigma of the coloring algebra there is one arrow per
vertex, pointing at the pushed-forward coloring.  Given a finite
coefficient group Z_m and a family of evaluation vectors (2-cochains
over the nondegenerate pair basis), each arrow carries an m x m
integer matrix: every vector phi routes the basis element indexed by
phi(chain of source) to the one indexed by phi(chain of target), so
each arrow matrix has total entry mass equal to the number of vectors.
A matrix is held as its nonzero entries: a sorted tuple of
((row, column), value) pairs, at most one per vector, so its size does
not grow with m.  It depends only on the evaluation labels at the
arrow's two ends, so it is built once per distinct (source labels,
target labels) pair, and every arrow with those labels holds the same
object.  The JSON form writes the same entries, as [row, column, value]
triples.

The evaluation vectors are deliberately not required to be cocycles:
the construction only uses that they are linear functionals on chains,
so any 2-cochain gives a well-defined quiver of the diagram.  Invariance
under diagram moves is another matter; the third Reidemeister move needs
the 2-cocycle condition.  Under swap3/Z_3 with endomorphism (2, 2, 1),
the closures of the isotopic braids s1 s2 s1 s1 s1 and s2 s1 s2 s1 s1
give the edge matrix polynomials 4x^2+2y^2+3 and x^2y+3x^2+2y^2+3 for
the non-cocycle vector (0, 0, 1, 0, 0, 0), but agree for the cocycle
(0, 1, 0, 1, 0, 0).  Over 60 words w drawn by random.Random(0), each of
1 to 6 letters from +-1, +-2, s1 s2 s1 w and s2 s1 s2 w differed for 10
words with that non-cocycle, for 11 with (0, 0, 0, 0, 0, 1), and for
none with the cocycle.
"""

import json
from collections import Counter
from dataclasses import dataclass

from .algebra import Biquandle, endomorphisms, is_homomorphism
from .cohomology import CoeffGroup, check_length, evaluate
from .homset import chain_vectors, colorings, push_forward


@dataclass(frozen=True)
class DataVector:
    """The inputs the representation depends on.

    algebra: source biquandle X
    coeff:   coefficient group for the evaluation vectors
    vectors: tuple of integer vectors over the nondegenerate pair basis
    endos:   tuple of endomorphism image tuples of X; None stands for
             all of Hom(X, X), solved here and not checked again,
             while maps that are given are each checked

    The ground ring of the representation is the integers.
    """

    algebra: Biquandle
    coeff: CoeffGroup
    vectors: tuple
    endos: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))
        for vec in self.vectors:
            check_length(self.algebra, vec)
        if self.endos is None:
            endos = tuple(endomorphisms(self.algebra))
        else:
            endos = tuple(tuple(e) for e in self.endos)
            for endo in endos:
                if not is_homomorphism(self.algebra, self.algebra, endo):
                    raise ValueError("map %r is not an endomorphism" % (endo,))
        object.__setattr__(self, "endos", endos)


@dataclass
class RepQuiver:
    """A coloring quiver decorated with one matrix per arrow.

    edges holds (source index, target index, matrix) triples so the
    polynomial layer can consume it directly; edge_endos records which
    endomorphism produced each arrow, in the same order.  A matrix is
    modulus x modulus, its rows and columns indexed by the labels
    0..modulus-1, and is held as a sorted tuple of ((row, column),
    value) pairs for its nonzero entries, hashed and read as it is;
    build_representation gives arrows whose ends carry equal label
    tuples the same matrix object.  The JSON form writes each matrix as
    the list of its nonzero entries, [row, column, value] in sorted
    order; from_json refuses an entry that is not such a triple of ints
    with a nonzero value at a distinct position in 0..modulus-1, and an
    edge whose source, target or endo is not an index of its list.
    """

    vertices: list  # coloring tuples, lexicographically sorted
    chains: list  # integer chain vector per vertex
    subspaces: list  # sorted tuple of distinct evaluation labels per vertex
    edges: list  # (source, target, matrix) with matrix its sorted nonzero entries
    edge_endos: list  # endomorphism index per edge
    endos: list  # endomorphism image tuples
    modulus: int

    def to_json(self):
        blob = {
            "modulus": self.modulus,
            "endos": [list(e) for e in self.endos],
            "vertices": [
                {
                    "coloring": list(col),
                    "chain": list(chain),
                    "subspace": list(sub),
                }
                for col, chain, sub in zip(self.vertices, self.chains, self.subspaces)
            ],
            "edges": [
                {
                    "source": src,
                    "target": tgt,
                    "endo": endo,
                    "matrix": [[i, j, a] for (i, j), a in mat],
                }
                for (src, tgt, mat), endo in zip(self.edges, self.edge_endos)
            ],
        }
        return json.dumps(blob, indent=1)

    @classmethod
    def from_json(cls, text):
        blob = json.loads(text)
        n = blob["modulus"]
        vertices, chains, subspaces = [], [], []
        for rec in blob["vertices"]:
            vertices.append(tuple(rec["coloring"]))
            chains.append(list(rec["chain"]))
            subspaces.append(tuple(rec["subspace"]))
        endos = [tuple(e) for e in blob["endos"]]
        edges, edge_endos = [], []
        for e, rec in enumerate(blob["edges"]):
            for key, size in (("source", len(vertices)), ("target", len(vertices)),
                              ("endo", len(endos))):
                if type(rec[key]) is not int or not 0 <= rec[key] < size:
                    raise ValueError("edge %d: %s %r is not an index below %d"
                                     % (e, key, rec[key], size))
            edges.append((rec["source"], rec["target"], _entries(rec["matrix"], n, e)))
            edge_endos.append(rec["endo"])
        return cls(
            vertices=vertices,
            chains=chains,
            subspaces=subspaces,
            edges=edges,
            edge_endos=edge_endos,
            endos=endos,
            modulus=n,
        )


def _entries(triples, n, e):
    """The matrix of edge e read from its JSON list of [row, column,
    value] triples, as its sorted nonzero entries.  Each triple must be
    three ints with a nonzero value at a distinct position in 0..n-1."""
    if type(triples) is not list:
        raise ValueError("edge %d: matrix %r is not a list of entries" % (e, triples))
    mat = {}
    for t in triples:
        if not (type(t) is list and len(t) == 3 and all(type(x) is int for x in t)
                and 0 <= t[0] < n and 0 <= t[1] < n and t[2] and (t[0], t[1]) not in mat):
            raise ValueError("edge %d: matrix entry %r is not [row, column, value]"
                             " with a nonzero value at a new position in 0..%d" % (e, t, n - 1))
        mat[t[0], t[1]] = t[2]
    return tuple(sorted(mat.items()))


def build_coloring_quiver(diagram, bq, endos):
    """Vertices and arrows only: colorings plus their push-forwards.

    Returns (colorings, arrows) with arrows as (source index, target
    index, endo index) triples ordered by source then endo.
    """
    cols = colorings(diagram, bq)
    index = {c: i for i, c in enumerate(cols)}
    arrows = []
    for i, col in enumerate(cols):
        for k, endo in enumerate(endos):
            image = push_forward(col, endo)
            if image not in index:
                raise ValueError("map %r does not preserve colorings" % (endo,))
            arrows.append((i, index[image], k))
    return cols, arrows


def build_representation(diagram, data):
    """The decorated quiver of a diagram under a data vector.

    Needs a finite coefficient group so the label set 0..m-1 is finite.
    """
    m = data.coeff.modulus
    if not m:
        raise ValueError("representation needs a finite coefficient group")
    cols, arrows = build_coloring_quiver(diagram, data.algebra, data.endos)
    chains = chain_vectors(diagram, data.algebra, cols)
    values = [
        tuple(evaluate(data.coeff, phi, chain) for phi in data.vectors) for chain in chains
    ]
    subspaces = [tuple(sorted(set(vals))) for vals in values]
    mats = {}  # (source labels, target labels) -> the matrix of every such arrow
    edges = []
    for src, tgt, _ in arrows:
        ends = (values[src], values[tgt])
        mat = mats.get(ends)
        if mat is None:
            # vector phi adds 1 at row phi(target), column phi(source)
            mat = mats[ends] = tuple(sorted(Counter(zip(ends[1], ends[0])).items()))
        edges.append((src, tgt, mat))
    return RepQuiver(
        vertices=cols,
        chains=chains,
        subspaces=subspaces,
        edges=edges,
        edge_endos=[k for _, _, k in arrows],
        endos=list(data.endos),
        modulus=m,
    )


def _transition_tables(quiver):
    # per endo index: vertex -> (target, matrix)
    tables = [dict() for _ in quiver.endos]
    for (src, tgt, mat), k in zip(quiver.edges, quiver.edge_endos):
        if src in tables[k]:
            raise ValueError("vertex %d has two arrows for map %d" % (src, k))
        tables[k][src] = (tgt, mat)
    return tables


def _match(sig1, sig2, t1, t2):
    """Whether a bijection sends each vertex v of the first quiver to one
    of signature sig1[v] in the second, and every arrow to an arrow of
    the same map.  The first quiver's vertices are placed breadth first
    along their arrows, from the lowest vertex not yet reached, so a
    vertex reached by an arrow from a placed one has one candidate
    image, and a vertex not reached has its whole signature class.  It
    backtracks over a stack of candidate iterators, one per placed
    vertex, and checks every arrow once the bijection is full.
    """
    n = len(sig1)
    maps = range(len(t1))
    pool = {}
    for j, sig in enumerate(sig2):
        pool.setdefault(sig, []).append(j)
    # (vertex, (map, placed vertex) of the arrow reaching it, or None)
    order, seen, head = [], [False] * n, 0
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            order.append((root, None))
        while head < len(order):
            p = order[head][0]
            head += 1
            for k in maps:
                v = t1[k][p][0]
                if not seen[v]:
                    seen[v] = True
                    order.append((v, (k, p)))
    match, used = [None] * n, [False] * n
    stack = [iter(pool[sig1[0]])]
    while stack:
        v = order[len(stack) - 1][0]
        if match[v] is not None:
            used[match[v]] = False
            match[v] = None
        for j in stack[-1]:
            if not used[j] and sig2[j] == sig1[v] and all(
                    match[t1[k][v][0]] in (None, t2[k][j][0]) for k in maps):
                break
        else:
            stack.pop()
            continue
        match[v] = j
        used[j] = True
        if len(stack) < n:
            v, link = order[len(stack)]
            stack.append(iter(pool[sig1[v]] if link is None else (t2[link[0]][match[link[1]]][0],)))
        elif all(match[t1[k][u][0]] == t2[k][match[u]][0] for k in maps for u in range(n)):
            return True
    return False


def quiver_isomorphic(q1, q2):
    """Vertex bijection respecting arrows, matrices and subspaces.

    Both quivers must use the same number of endomorphisms in the same
    order; arrows are matched per endomorphism index.  Vertex signatures
    (subspace, arrow matrices) that differ as multisets need no search.
    """
    if q1.modulus != q2.modulus or len(q1.endos) != len(q2.endos):
        return False
    if len(q1.vertices) != len(q2.vertices) or len(q1.edges) != len(q2.edges):
        return False
    n = len(q1.vertices)
    t1, t2 = _transition_tables(q1), _transition_tables(q2)
    if any(len(t) != n for t in t1 + t2):
        return False
    sig1, sig2 = ([(q.subspaces[i], tuple(t[i][1] for t in ts)) for i in range(n)]
                  for q, ts in ((q1, t1), (q2, t2)))
    if Counter(sig1) != Counter(sig2):
        return False
    return not n or _match(sig1, sig2, t1, t2)
