"""Seeded job lists for the three benchmark workloads.

A job is one `knotquiver` command line plus the facts the correctness
gate needs to check its output without trusting the program.  Every
input is generated here from the workload seed: inline PD codes of
braid closures, evaluation vectors, endomorphism lists and cocycle
vectors.  Making a job list does not import knotquiver, so the inputs
stay the same when the program changes.

Run `python3 benchmark/workloads.py --make-pool` to regenerate
`paths_pool.json` (a few minutes; it imports knotquiver from src/).
"""

import itertools
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "paths_pool.json")

WORKLOADS = ("report", "paths", "cohomology")
DEFAULT_SEED = 1

# the three published order-3 evaluation vectors and the two order-4 ones
SWAP3_VECTORS = [[0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]]
CORE4_VECTORS = [
    [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
]


@dataclass(frozen=True)
class Job:
    """One command line and what its output must satisfy.

    kind:   invariants, batch, check-h2 or check-vectors
    facts:  inputs the independent checks need (modulus, vector and
            endomorphism counts, expected maximal path count, ...)
    smoke:  part of the minimum-size job list
    """

    id: str
    argv: tuple
    kind: str
    facts: dict = field(default_factory=dict)
    smoke: bool = False


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------- algebras


def _mod_rep(v, m):
    return (v - 1) % m + 1


def quandle_table(name):
    """under(x, y) as a 1-based table for the quandles the workloads use."""
    if name == "swap3":
        return [[1, 1, 2], [2, 2, 1], [3, 3, 3]]
    parts = name.split("-")
    m = int(parts[1])
    t = int(parts[2]) if parts[0] == "alexander" else -1
    return [
        [_mod_rep(t * x + (1 - t) * y, m) for y in range(1, m + 1)]
        for x in range(1, m + 1)
    ]


def affine_endos(m):
    """All maps x -> a*x + b on Z_m, 1-based; endomorphisms of core-m."""
    return [
        tuple(_mod_rep(a * x + b, m) for x in range(1, m + 1))
        for a in range(m)
        for b in range(m)
    ]


def coboundary(table, f, modulus):
    """The 2-cochain (x, y) -> f(x) + f(y) - f(x.y) - f(y) of a quandle,
    over the nondegenerate pair basis; a cocycle by construction."""
    n = len(table)
    vec = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x != y:
                v = f[x - 1] - f[table[x - 1][y - 1] - 1]
                vec.append(v % modulus if modulus else v)
    return vec


# ------------------------------------------------------------------ braids


def braid_pd(word, strands):
    """PD code of a braid closure, with the knotquiver slot order
    Xp/Xm[under_in, over_in, under_out, over_out]."""
    current = list(range(strands))
    fresh = strands
    raw = []
    for letter in word:
        i = abs(letter) - 1
        a, b = current[i], current[i + 1]
        out1, out2 = fresh, fresh + 1
        fresh += 2
        if letter > 0:
            raw.append(("p", a, b, out1, out2))
            current[i], current[i + 1] = out2, out1
        else:
            raw.append(("m", b, a, out1, out2))
            current[i], current[i + 1] = out1, out2
    relabel = {current[p]: p for p in range(strands)}
    return " ".join(
        "X%s[%s]" % (sign, ",".join(str(relabel.get(s, s)) for s in slots))
        for sign, *slots in raw
    )


def braid_colorings(word, strands, table):
    """Colorings of a braid closure by a quandle: the color tuples at the
    top of the braid that the braid maps to themselves.  At +i the strand
    at position i passes under i+1, so (a, b) becomes (b, a.b); at -i
    the strand at i+1 passes under i, so (a, b) becomes (b ./ a, a)."""
    n = len(table)
    inv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            inv[table[x][y] - 1][y] = x + 1
    count = 0
    for top in itertools.product(range(1, n + 1), repeat=strands):
        col = list(top)
        for letter in word:
            i = abs(letter) - 1
            a, b = col[i], col[i + 1]
            if letter > 0:
                col[i], col[i + 1] = b, table[a - 1][b - 1]
            else:
                col[i], col[i + 1] = inv[b - 1][a - 1], a
        count += tuple(col) == top
    return count


def random_braid(rng, strands, crossings, table, max_colorings):
    """A random word in which every generator occurs, so no strand splits
    off, and whose closure has at most max_colorings colorings, so its
    quiver stays under the program's edge cap.  Returns (word, colorings)."""
    while True:
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)
        ]
        if len({abs(x) for x in word}) == strands - 1:
            count = braid_colorings(word, strands, table)
            if count <= max_colorings:
                return word, count


# ----------------------------------------------------------------- report

# (algebra, strands, crossings, vectors) slots; the seed draws the words
# and vectors, so the work per slot stays about the same from seed to
# seed.  The cost of a core-5 report grows with its vector count (one
# more coloring enumeration per vector).  Copies of one slot hold the
# median job (eight core-5 3/120/1) and the 90th percentile (six core-5
# 3/150/2): words of one length cost about the same on three strands.
# Five-strand closures are kept small: under core-5 their coloring
# search varies tenfold between words of one length.
REPORT_SLOTS = (
    [("swap3", 3, c, 3) for c in (30, 60, 90, 120, 150)]
    + [("swap3", 4, c, 3) for c in (30, 60, 90)]
    + [("swap3", 5, 30, 3), ("core-5", 3, 30, 1), ("core-5", 3, 60, 2), ("core-5", 3, 90, 1)]
    + [("core-5", 3, 120, 1)] * 8
    + [("swap3", 4, 150, 3), ("swap3", 5, 60, 3), ("core-5", 4, 30, 1)]
    + [("core-5", 3, 150, 2)] * 6
    + [("core-5", 4, 60, 2)]
)
CORE5_ENDOS = [e for e in affine_endos(5) if e != (1, 2, 3, 4, 5)]
EDGE_CAP = 64  # polynomials.maximal_paths refuses larger quivers


def _invariants(pd, quandle, modulus, vectors, endos):
    return (
        "invariants", "--link", pd, "--format", "pd", "--quandle", quandle,
        "--group", str(modulus), "--cocycles", _compact(vectors),
        "--endos", _compact([list(e) for e in endos]), "--json",
    )


def report_jobs(rng):
    jobs = []
    for i, (quandle, k, c, nvec) in enumerate(REPORT_SLOTS):
        word, count = random_braid(rng, k, c, quandle_table(quandle), EDGE_CAP)
        if quandle == "swap3":
            modulus, vectors, endo = 3, SWAP3_VECTORS, (2, 2, 1)
        else:
            modulus, endo = 5, rng.choice(CORE5_ENDOS)
            vectors = [[rng.randrange(5) for _ in range(20)] for _ in range(nvec)]
        jobs.append(Job(
            "%02d-%s-k%d-c%d" % (i, quandle, k, c),
            _invariants(braid_pd(word, k), quandle, modulus, vectors, [endo]),
            "invariants",
            {"modulus": modulus, "vectors": nvec, "endos": 1, "colorings": count},
            smoke=i in (0, 9),
        ))
    jobs.append(Job(
        "batch-swap3",
        ("batch", "--links", "all", "--quandle", "swap3", "--group", "3",
         "--cocycles", _compact(SWAP3_VECTORS), "--endos", "[[2,2,1]]", "--json"),
        "batch", {"modulus": 3, "vectors": 3, "endos": 1},
    ))
    vectors = [[rng.randrange(5) for _ in range(20)]]
    endo = rng.choice(CORE5_ENDOS)
    jobs.append(Job(
        "batch-core5",
        ("batch", "--links", "all", "--quandle", "core-5", "--group", "5",
         "--cocycles", _compact(vectors), "--endos", _compact([list(endo)]), "--json"),
        "batch", {"modulus": 5, "vectors": 1, "endos": 1},
        smoke=True,
    ))
    return jobs


# ------------------------------------------------------------------ paths

# Jobs per quiver class of paths_pool.json.  A class is (maximal paths,
# candidate trails, trails explored): quivers in one class cost the same
# to enumerate, so the seed changes the links and endomorphism pairs but
# not the work.  The counts put the median job (with the L4a1 example)
# and the 90th percentile in the middle of a class.  Classes of 368 paths
# and more (0.7 to 3 s per report) are left out: the 2.1 job covers the
# slow end.
PATHS_CLASSES = (
    ("60-60-471", 5),
    ("56-112-358", 5),
    ("120-120-1383", 4),
    ("120-202-745", 8),
    ("144-196-2681", 7),
    ("144-292-2657", 5),
)
ROADMAP_PAIR = ((2, 4, 2, 4), (1, 1, 1, 1))  # 32 edges, 120 maximal paths


def load_pool():
    with open(POOL_FILE) as fh:
        return json.load(fh)


def _core4(link, endos):
    return (
        "invariants", "--link", link, "--quandle", "core-4", "--group", "3",
        "--cocycles", _compact(CORE4_VECTORS),
        "--endos", _compact([list(e) for e in endos]), "--json",
    )


def paths_jobs(rng):
    pool = load_pool()
    endos = [tuple(e) for e in pool["endos"]]
    jobs = [
        Job("L4a1-roadmap", _core4("L4a1", ROADMAP_PAIR), "invariants",
            {"modulus": 3, "vectors": 2, "endos": 2, "colorings": 16, "paths": 120},
            smoke=True),
    ]
    by_class = {}
    for link, a, b, paths, candidates, trails in pool["entries"]:
        key = "%d-%d-%d" % (paths, candidates, trails)
        by_class.setdefault(key, []).append((link, a, b, paths))
    for n_class, (key, count) in enumerate(PATHS_CLASSES):
        for n, (link, a, b, paths) in enumerate(rng.sample(by_class[key], count)):
            jobs.append(Job(
                "%s-%d-%s" % (key, n, link),
                _core4(link, (endos[a], endos[b])), "invariants",
                {"modulus": 3, "vectors": 2, "endos": 2, "colorings": 16, "paths": paths},
                smoke=n_class == 0 and n == 0,
            ))
    # all 16 endomorphisms on the smallest virtual knot: the search stops at
    # the 200k path cap, so the expected outcome is a limit
    jobs.append(Job(
        "2.1-all-endos",
        ("invariants", "--link", "2.1", "--quandle", "core-4", "--group", "3",
         "--cocycles", _compact(CORE4_VECTORS), "--endos", "all-endomorphisms", "--json"),
        "invariants", {"limit": True},
    ))
    return jobs


# ------------------------------------------------------------- cohomology

# The three Z_7 jobs are the slowest of the list (about 1.5 s each), and
# the six vector checks cost about the same as each other, so the 90th
# percentile falls among the former and the median among the latter.
H2_CONFIGS = [
    ("swap3", "Z"), ("swap3", "3"),
    ("core-5", "Z"), ("core-5", "5"),
    ("core-7", "Z"), ("core-7", "7"),
    ("alexander-7-3", "Z"), ("alexander-7-3", "7"), ("alexander-7-5", "7"),
    ("core-9", "Z"),  # Z_9 takes about 16 s, so only Z
]
VECTOR_CHECKS = [("core-7", "7"), ("alexander-7-3", "7")] * 3
SMOKE_H2 = {("swap3", "3"), ("core-5", "Z")}


def cohomology_jobs(rng):
    jobs = []
    for quandle, group in H2_CONFIGS:
        modulus = 0 if group == "Z" else int(group)
        jobs.append(Job(
            "h2-%s-%s" % (quandle, group),
            ("check", "--quandle", quandle, "--group", group, "--cocycles", "h2-generators"),
            "check-h2", {"modulus": modulus},
            smoke=(quandle, group) in SMOKE_H2,
        ))
    for i, (quandle, group) in enumerate(VECTOR_CHECKS):
        modulus = int(group)
        table = quandle_table(quandle)
        vectors = []
        for _ in range(3):
            f = [rng.randint(-3, 3) for _ in range(len(table))]
            # adding multiples of m keeps the class mod m
            vectors.append([v + modulus * rng.randint(0, 2)
                            for v in coboundary(table, f, modulus)])
        jobs.append(Job(
            "cocycles-%d-%s-%s" % (i, quandle, group),
            ("check", "--quandle", quandle, "--group", group,
             "--cocycles", _compact(vectors)),
            "check-vectors", {"modulus": modulus, "vectors": 3},
            smoke=i == 0,
        ))
    return jobs


JOB_LISTS = {"report": report_jobs, "paths": paths_jobs, "cohomology": cohomology_jobs}


def make_jobs(workload, seed, smoke=False):
    """The job list of a workload; the same seed gives the same list.

    The smoke list is a subset of the full one with identical inputs, so
    the recorded expected outputs apply to both.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = JOB_LISTS[workload](rng)
    return [j for j in jobs if j.smoke] if smoke else jobs


# --------------------------------------------------------- pool generation


def trail_counts(edges):
    """(candidate trails, trails explored) of a quiver given as (source,
    target) pairs.  A trail uses no edge twice; a candidate has no unused
    edge leaving its head or entering its tail.  Both counts fix the cost
    of enumerating maximal paths."""
    out_edges, in_edges = {}, {}
    for i, (src, tgt) in enumerate(edges):
        out_edges.setdefault(src, []).append(i)
        in_edges.setdefault(tgt, []).append(i)
    stack = [((e,), frozenset((e,))) for e in range(len(edges))]
    explored = 0
    candidates = set()
    while stack:
        trail, used = stack.pop()
        explored += 1
        ext = [e for e in out_edges.get(edges[trail[-1]][1], ()) if e not in used]
        if ext:
            stack.extend((trail + (e,), used | {e}) for e in ext)
        elif all(e in used for e in in_edges.get(edges[trail[0]][0], ())):
            candidates.add(trail)
    return len(candidates), explored


def make_pool(src_dir):
    """Every (16-coloring classical link, pair of core-4 endomorphisms),
    as [link, a, b, maximal paths, candidate trails, trails explored]."""
    import sys

    sys.path.insert(0, src_dir)
    from knotquiver import (
        CoeffGroup, DataVector, build_representation, catalog_names,
        counting_invariant, endomorphisms, get_diagram, maximal_paths,
    )
    from knotquiver.algebra import core_cyclic

    bq = core_cyclic(4)
    endos = endomorphisms(bq)
    links = [
        n for n in catalog_names()
        if n.startswith("L") and counting_invariant(get_diagram(n), bq) == 16
    ]
    entries = []
    for link in links:
        diagram = get_diagram(link)
        for a, b in itertools.combinations_with_replacement(range(len(endos)), 2):
            data = DataVector(bq, CoeffGroup(3), CORE4_VECTORS, [endos[a], endos[b]])
            rq = build_representation(diagram, data)
            counts = trail_counts([(src, tgt) for src, tgt, _ in rq.edges])
            entries.append([link, a, b, len(maximal_paths(rq)), *counts])
    return {"endos": [list(e) for e in endos], "links": links, "entries": entries}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--make-pool", action="store_true",
                        help="regenerate paths_pool.json from the source tree")
    args = parser.parse_args()
    if args.make_pool:
        pool = make_pool(os.path.join(os.path.dirname(HERE), "src"))
        with open(POOL_FILE, "w") as fh:
            fh.write('{"endos":%s,\n"links":%s,\n"entries":[\n' % (
                _compact(pool["endos"]), _compact(pool["links"])))
            fh.write(",\n".join(_compact(e) for e in pool["entries"]))
            fh.write("\n]}\n")
