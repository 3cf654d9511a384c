"""Quiver representations built on the coloring space of a diagram.

Vertices are the colorings of a fixed diagram.  For every chosen
endomorphism sigma of the coloring algebra there is one arrow per
vertex, pointing at the pushed-forward coloring.  Given a finite
coefficient group Z_m and a family of evaluation vectors (2-cochains
over the nondegenerate pair basis), each arrow carries an m x m
integer matrix: every vector phi routes the basis element indexed by
phi(chain of source) to the one indexed by phi(chain of target), so
each arrow matrix has total entry mass equal to the number of vectors.

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
from dataclasses import dataclass, field

from .algebra import Biquandle, is_homomorphism
from .cohomology import CoeffGroup, check_length, evaluate
from .homset import chain_vectors, colorings, push_forward


@dataclass(frozen=True)
class DataVector:
    """The inputs the representation depends on.

    algebra: source biquandle X
    coeff:   coefficient group for the evaluation vectors
    vectors: tuple of integer vectors over the nondegenerate pair basis
    endos:   tuple of endomorphism image tuples of X

    The ground ring of the representation is the integers.
    """

    algebra: Biquandle
    coeff: CoeffGroup
    vectors: tuple
    endos: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))
        object.__setattr__(self, "endos", tuple(tuple(e) for e in self.endos))
        for vec in self.vectors:
            check_length(self.algebra, vec)
        for endo in self.endos:
            if not is_homomorphism(self.algebra, self.algebra, endo):
                raise ValueError("map %r is not an endomorphism" % (endo,))


@dataclass
class RepQuiver:
    """A coloring quiver decorated with one matrix per arrow.

    edges holds (source index, target index, matrix) triples so the
    polynomial layer can consume it directly; edge_endos records which
    endomorphism produced each arrow, in the same order.
    """

    vertices: list  # coloring tuples, lexicographically sorted
    chains: list  # integer chain vector per vertex
    subspaces: list  # sorted tuple of distinct evaluation labels per vertex
    edges: list  # (source, target, matrix) with matrix a list of rows
    edge_endos: list  # endomorphism index per edge
    endos: list  # endomorphism image tuples
    modulus: int
    labels: list = field(default_factory=list)

    def __post_init__(self):
        if not self.labels:
            self.labels = list(range(self.modulus))

    def to_json(self):
        blob = {
            "modulus": self.modulus,
            "labels": list(self.labels),
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
                    "matrix": [entry for row in mat for entry in row],
                }
                for (src, tgt, mat), endo in zip(self.edges, self.edge_endos)
            ],
        }
        return json.dumps(blob, indent=1)

    @classmethod
    def from_json(cls, text):
        blob = json.loads(text)
        n = len(blob["labels"])
        vertices, chains, subspaces = [], [], []
        for rec in blob["vertices"]:
            vertices.append(tuple(rec["coloring"]))
            chains.append(list(rec["chain"]))
            subspaces.append(tuple(rec["subspace"]))
        edges, edge_endos = [], []
        for rec in blob["edges"]:
            flat = rec["matrix"]
            if len(flat) != n * n:
                raise ValueError("edge matrix has %d entries, want %d" % (len(flat), n * n))
            mat = [flat[i * n : (i + 1) * n] for i in range(n)]
            edges.append((rec["source"], rec["target"], mat))
            edge_endos.append(rec["endo"])
        return cls(
            vertices=vertices,
            chains=chains,
            subspaces=subspaces,
            edges=edges,
            edge_endos=edge_endos,
            endos=[tuple(e) for e in blob["endos"]],
            modulus=blob["modulus"],
            labels=list(blob["labels"]),
        )


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
        [evaluate(data.coeff, phi, chain) for phi in data.vectors] for chain in chains
    ]
    subspaces = [tuple(sorted(set(vals))) for vals in values]
    edges, edge_endos = [], []
    for src, tgt, k in arrows:
        mat = [[0] * m for _ in range(m)]
        for row, col in zip(values[tgt], values[src]):
            mat[row][col] += 1
        edges.append((src, tgt, mat))
        edge_endos.append(k)
    return RepQuiver(
        vertices=cols,
        chains=chains,
        subspaces=subspaces,
        edges=edges,
        edge_endos=edge_endos,
        endos=list(data.endos),
        modulus=m,
    )


def _transition_tables(quiver):
    # per endo index: vertex -> (target, matrix as tuple of row tuples)
    tables = [dict() for _ in quiver.endos]
    for (src, tgt, mat), k in zip(quiver.edges, quiver.edge_endos):
        key = tuple(tuple(row) for row in mat)
        if src in tables[k]:
            raise ValueError("vertex %d has two arrows for map %d" % (src, k))
        tables[k][src] = (tgt, key)
    return tables


def quiver_isomorphic(q1, q2):
    """Vertex bijection respecting arrows, matrices and subspaces.

    Both quivers must use the same number of endomorphisms in the same
    order; arrows are matched per endomorphism index.
    """
    if q1.modulus != q2.modulus or len(q1.endos) != len(q2.endos):
        return False
    if len(q1.vertices) != len(q2.vertices) or len(q1.edges) != len(q2.edges):
        return False
    n = len(q1.vertices)
    t1, t2 = _transition_tables(q1), _transition_tables(q2)
    if any(len(t) != n for t in t1 + t2):
        return False

    def signature(quiver, tables, i):
        return (
            quiver.subspaces[i],
            tuple(tables[k][i][1] for k in range(len(tables))),
        )

    sig1 = [signature(q1, t1, i) for i in range(n)]
    pool = {}
    for j in range(n):
        pool.setdefault(signature(q2, t2, j), []).append(j)
    if sorted(pool) != sorted(set(sig1)):
        return False

    match = [None] * n
    used = [False] * n

    def consistent(i, j):
        # i and j share a signature, so their arrows carry equal matrices
        for k in range(len(t1)):
            tgt1, tgt2 = t1[k][i][0], t2[k][j][0]
            if match[tgt1] is not None and match[tgt1] != tgt2:
                return False
        return True

    def backtrack(i):
        if i == n:
            # full check of arrow structure under the completed bijection
            for k in range(len(t1)):
                for v in range(n):
                    if match[t1[k][v][0]] != t2[k][match[v]][0]:
                        return False
            return True
        for j in pool.get(sig1[i], ()):
            if used[j] or not consistent(i, j):
                continue
            match[i] = j
            used[j] = True
            if backtrack(i + 1):
                return True
            match[i] = None
            used[j] = False
        return False

    return backtrack(0)
