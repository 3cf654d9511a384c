"""Per-layer spans, recorded from outside the program.

Each public function in TRACED is replaced, in every knotquiver module
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent and the time its child spans covered.  A span's self
time is its duration minus that child time, so the self times of one
pass add up to the time spent inside `cli.main`.  Counters are recorded
at the same boundaries (colorings found, quiver edges, maximal paths,
limits hit, SNF input cells).

The wrappers are installed only for the duration of a traced pass; an
untraced pass runs the program unmodified.
"""

import contextlib
import sys
import time
from collections import defaultdict

# (module, function): the span is named module.function after the module
# that defines the function
TRACED = (
    ("cli", "main"),
    ("homset", "colorings"),
    ("homset", "chain_vector"),
    ("quiver", "build_representation"),
    ("polynomials", "maximal_paths"),
    ("polynomials", "edge_char_polynomial"),
    ("polynomials", "edge_matrix_polynomial"),
    ("polynomials", "path_char_polynomial"),
    ("polynomials", "path_matrix_polynomial"),
    ("polynomials", "char_poly"),
    ("cohomology", "h2_generators"),
    ("cohomology", "boundary_matrices"),
    ("cohomology", "is_cocycle"),
    ("cohomology", "cocycle_invariant"),
    ("intlinalg", "snf"),
    ("algebra", "endomorphisms"),
    ("diagram", "parse_pd"),
)


def _count_result(counts, name, args, result):
    if name == "homset.colorings":
        counts["homset.colorings.found"] += len(result)
    elif name == "quiver.build_representation":
        counts["quiver.edges"] += len(result.edges)
    elif name == "polynomials.maximal_paths":
        counts["polynomials.maximal_paths.paths"] += len(result)
    elif name == "intlinalg.snf":
        mat = args[0]
        counts["intlinalg.snf.cells"] += len(mat) * (len(mat[0]) if mat else 0)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "knotquiver" or name.startswith("knotquiver."))]


@contextlib.contextmanager
def patched(replacements):
    """Swap functions for replacements in every knotquiver module that
    refers to them; replacements maps original function -> substitute."""
    by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
    undo = []
    try:
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


def original(module, function):
    return getattr(sys.modules["knotquiver." + module], function)


class Tracer:
    """Spans and counters of traced passes, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child time]
        self.counts = defaultdict(int)
        self._stack = []

    def wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[name + ".raised." + type(exc).__name__] += 1
                raise
            finally:
                end = span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - span[1]
            _count_result(counts, name, args, result)
            return result

        return traced

    def tracing(self):
        """Context manager: every function in TRACED records spans."""
        return patched({
            original(mod, fn): self.wrapper("%s.%s" % (mod, fn), original(mod, fn))
            for mod, fn in TRACED
        })

    def table(self):
        """Per span name: calls, total seconds and self seconds."""
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, child in self.spans:
            row = rows[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return dict(rows)


def layer_metrics(tracer, passes, jobs_per_pass, traced_wall, untraced_wall):
    """The per-layer metrics of BENCHMARK.json, per pass over the job list."""
    table = tracer.table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0] / passes

    def self_s(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names) / passes

    def count(name):
        return counts.get(name, 0) / passes

    quivers = calls("quiver.build_representation")
    return {
        "homset.colorings.calls": (calls("homset.colorings"), "count"),
        "homset.colorings.self_s": (self_s("homset.colorings"), "s"),
        "homset.colorings.found": (count("homset.colorings.found"), "count"),
        "homset.colorings.per_job": (calls("homset.colorings") / jobs_per_pass, "count"),
        "homset.chain_vector.self_s": (self_s("homset.chain_vector"), "s"),
        "quiver.build_representation.calls": (quivers, "count"),
        "quiver.build_representation.self_s": (self_s("quiver.build_representation"), "s"),
        "quiver.edges": (count("quiver.edges"), "count"),
        "polynomials.maximal_paths.calls": (calls("polynomials.maximal_paths"), "count"),
        "polynomials.maximal_paths.self_s": (self_s("polynomials.maximal_paths"), "s"),
        "polynomials.maximal_paths.paths": (count("polynomials.maximal_paths.paths"), "count"),
        "polynomials.maximal_paths.limit": (
            count("polynomials.maximal_paths.raised.LimitError"), "count"),
        "polynomials.maximal_paths.per_quiver": (
            calls("polynomials.maximal_paths") / quivers if quivers else 0.0, "count"),
        "polynomials.path_polys.self_s": (
            self_s("polynomials.path_char_polynomial", "polynomials.path_matrix_polynomial"), "s"),
        "polynomials.edge_polys.self_s": (
            self_s("polynomials.edge_char_polynomial", "polynomials.edge_matrix_polynomial"), "s"),
        "polynomials.char_poly.calls": (calls("polynomials.char_poly"), "count"),
        "polynomials.char_poly.self_s": (self_s("polynomials.char_poly"), "s"),
        "cohomology.h2_generators.self_s": (self_s("cohomology.h2_generators"), "s"),
        "cohomology.boundary_matrices.calls": (calls("cohomology.boundary_matrices"), "count"),
        "cohomology.boundary_matrices.self_s": (self_s("cohomology.boundary_matrices"), "s"),
        "cohomology.is_cocycle.calls": (calls("cohomology.is_cocycle"), "count"),
        "cohomology.cocycle_invariant.self_s": (self_s("cohomology.cocycle_invariant"), "s"),
        "intlinalg.snf.calls": (calls("intlinalg.snf"), "count"),
        "intlinalg.snf.self_s": (self_s("intlinalg.snf"), "s"),
        "intlinalg.snf.cells": (count("intlinalg.snf.cells"), "count"),
        "algebra.endomorphisms.self_s": (self_s("algebra.endomorphisms"), "s"),
        "diagram.parse_pd.self_s": (self_s("diagram.parse_pd"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.self_sum_s": (self_s(*table), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
