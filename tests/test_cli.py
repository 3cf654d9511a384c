import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from knotquiver import homset
from knotquiver.algebra import core_cyclic, swap3
from knotquiver.catalog import catalog_names, get_diagram
from knotquiver.cli import load_algebra, main
from knotquiver.cohomology import CoeffGroup, boundary_matrices, cocycle_invariant, is_cocycle
from knotquiver.diagram import braid_closure, gauss_string, pd_string
from knotquiver.homset import counting_invariant
from knotquiver.quiver import RepQuiver
from knotquiver.polynomials import (
    edge_char_polynomial,
    edge_matrix_polynomial,
    path_char_polynomial,
    path_matrix_polynomial,
)

SWAP3_VECTORS = "[[0,1,0,1,0,0],[0,0,1,0,0,0],[0,0,0,0,0,1]]"
CORE4_COCYCLE = "[[1,0,1,0,0,0,0,0,0,0,0,0]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_builtin_ok(capsys):
    code, out, _ = run(capsys, "check", "--quandle", "swap3")
    assert code == 0
    assert "axioms: ok" in out


def test_check_broken_table(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "under": [[2, 1, 2], [2, 2, 1], [3, 3, 3]]}))
    code, out, _ = run(capsys, "check", "--quandle", str(bad))
    assert code == 1
    assert "axiom:" in out


def test_check_reports_non_cocycles(capsys):
    code, out, _ = run(
        capsys, "check", "--quandle", "swap3", "--group", "3",
        "--cocycles", SWAP3_VECTORS,
    )
    assert code == 1
    assert "cocycle 1 over Z_3: ok" in out
    assert "NOT a cocycle" in out


@pytest.mark.parametrize("vectors, length", [("[[]]", 0), ("[[0,1,0,1,0,0,0]]", 7)])
def test_check_rejects_wrong_vector_length(capsys, vectors, length):
    code, out, err = run(
        capsys, "check", "--quandle", "swap3", "--group", "3", "--cocycles", vectors,
    )
    assert code == 1
    assert out == ""
    assert err == "error: vector length %d, basis size 6\n" % length


# zero-order builtins: check used to die in check_length with an
# IndexError, and homset to print "colorings: 0" with status 0
ZERO_ORDER_ARGVS = [
    ["check", "--quandle", "core-0", "--group", "3", "--cocycles", "[[]]"],
    ["homset", "--link", "3_1", "--quandle", "core-0"],
    ["homset", "--link", "3_1", "--quandle", "trivial-0"],
]


@pytest.mark.parametrize("argv", ZERO_ORDER_ARGVS)
def test_zero_order_algebras_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    name = argv[argv.index("--quandle") + 1]
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad algebra name %r: " % name)


# builtin orders above algebra.MAX_BUILTIN_ORDER exit before any table is
# built; the axiom check is cubic in the order
OVERSIZE_ARGVS = [
    ["check", "--quandle", "core-1000", "--group", "3", "--cocycles", "[[]]"],
    ["homset", "--link", "3_1", "--quandle", "trivial-100000"],
    ["homset", "--link", "3_1", "--quandle", "alexander-1000-3"],
]


@pytest.mark.parametrize("argv", OVERSIZE_ARGVS)
def test_oversize_builtin_orders_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    name = argv[argv.index("--quandle") + 1]
    order = int(name.split("-")[1])
    assert code == 1
    assert out == ""
    assert err == "error: bad algebra name %r: order %d is above the builtin cap of 128\n" % (
        name, order)


def test_homset_catalog_link(capsys):
    code, out, _ = run(capsys, "homset", "--link", "L4a1", "--quandle", "core-4")
    assert code == 0
    assert out.strip() == "colorings: 16"


def test_homset_colors_a_plan_of_1200_levels(capsys):
    # the closure of s1^2 s2^2 ... s1199^2: one plan level per component,
    # colored by lanes under core-3 and by the depth-first walk under core-17
    d = braid_closure([i for i in range(1, 1200) for _ in range(2)])
    assert len(homset._plan(homset._constraints(d), d.n_semiarcs)) == 1200
    pd = pd_string(d)
    for quandle, count in (("core-3", 3), ("core-17", 17)):
        code, out, _ = run(capsys, "homset", "--link", pd, "--format", "pd", "--quandle", quandle)
        assert (code, out) == (0, "colorings: %d\n" % count)


@pytest.mark.parametrize("pd, message", [
    ("Xp[1,2,3]", "crossing term 'Xp[1,2,3]' needs 4 labels"),
    ("Xp[0,0,1,2] Xp[1,2,3,3]", "semiarc 0 used as input 2 times"),
])
def test_invariants_rejects_a_malformed_pd(capsys, pd, message):
    code, out, err = run(
        capsys, "invariants", "--link", pd, "--format", "pd",
        "--quandle", "swap3", "--group", "3", "--cocycles", SWAP3_VECTORS,
    )
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_homset_inline_gauss(capsys):
    code, out, _ = run(
        capsys, "homset",
        "--link", "O1+ U2+ O3+ U1+ O2+ U3+", "--format", "gauss",
        "--quandle", "swap3",
    )
    assert code == 0
    assert out.strip() == "colorings: 3"


def test_unknown_link_is_validation_failure(capsys):
    code, _, err = run(capsys, "homset", "--link", "L99z9", "--quandle", "swap3")
    assert code == 1
    assert "not in catalog" in err


def test_cocycle_invariant_state_sum(capsys):
    code, out, _ = run(
        capsys, "cocycle-invariant", "--link", "L4a1", "--quandle", "core-4",
        "--group", "Z", "--cocycles", CORE4_COCYCLE,
    )
    assert code == 0
    assert "phi_1: 8+8q" in out


def test_cocycle_invariant_json(capsys):
    code, out, _ = run(
        capsys, "cocycle-invariant", "--link", "L4a1", "--quandle", "core-4",
        "--group", "Z", "--cocycles", "[[1,0,1,0,0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0,0,0,0,0]]",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"phi_1": "8+8q", "phi_2": "16"}


def test_homset_without_link(capsys):
    code, out, err = run(capsys, "homset", "--quandle", "swap3")
    assert code == 1
    assert out == ""
    assert err == "error: no link given (--link)\n"


# options the verb would not read: check prints text and quiver JSON
# either way, and a coloring count has no coefficients
@pytest.mark.parametrize("argv", [
    ["check", "--quandle", "swap3", "--json"],
    ["quiver", "--link", "L4a1", "--quandle", "swap3", "--group", "3",
     "--cocycles", SWAP3_VECTORS, "--json"],
    ["homset", "--link", "L4a1", "--quandle", "swap3", "--group", "3"],
], ids=["check --json", "quiver --json", "homset --group"])
def test_options_a_verb_ignores_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


def test_quiver_json_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "quiver.json"
    code, _, _ = run(
        capsys, "quiver", "--link", "L4a1", "--quandle", "swap3",
        "--group", "3", "--cocycles", SWAP3_VECTORS,
        "--endos", "[[2,2,1]]", "--out", str(out_file),
    )
    assert code == 0
    rq = RepQuiver.from_json(out_file.read_text())
    assert edge_char_polynomial(rq).render() == "9t^3-13t^2-4t"
    assert edge_matrix_polynomial(rq).render() == "4x^2+6y^2+4y+13"
    assert path_char_polynomial(rq).render() == "5s^3t^3-39s^3t^2"
    assert path_matrix_polynomial(rq).render() == "24x^2z^3+24xz^3+39z^3"


def test_invariants_over_a_large_modulus_hold_no_m_by_m_matrix(capsys):
    # L4a1 under core-4 over Z_2048: every arrow matrix is 2048 x 2048
    # with at most two nonzero entries, and a dense one would take tens
    # of megabytes; the polynomials are those of the dense computation
    tracemalloc.start()
    try:
        code, out, _ = run(
            capsys, "invariants", "--link", "L4a1", "--quandle", "core-4", "--group", "2048",
            "--cocycles", "h2-generators", "--endos", "[[1,2,3,4],[2,4,2,4]]")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = out.splitlines()
    for line in [
        "chi_edge: 32t^2048-96t^2047+32t^2046",
        "pm_edge: 16x^1024y^1024+16xy+16y^1024+16y+64",
        "chi_path: 24s^6t^2048-32768s^6t^2047",
        "pm_path: 16384x^1024z^6+16384xz^6+32768z^6",
    ]:
        assert line in lines
    assert peak < 1_000_000, peak


def test_quiver_over_a_large_modulus_writes_only_nonzero_entries(capsys):
    # the same call as above over Z_256 through the `quiver` verb: a
    # dense matrix would write 65,536 numbers per arrow, 14.7 MB in all
    argv = ["--link", "L4a1", "--quandle", "core-4", "--group", "256",
            "--cocycles", "h2-generators", "--endos", "[[1,2,3,4],[2,4,2,4]]"]
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "quiver", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(out.encode()) < 16_384
    assert peak < 1_000_000, peak
    rq = RepQuiver.from_json(out)
    _, report, _ = run(capsys, "invariants", *argv)
    for fn, key in [
        (edge_char_polynomial, "chi_edge"),
        (edge_matrix_polynomial, "pm_edge"),
        (path_char_polynomial, "chi_path"),
        (path_matrix_polynomial, "pm_path"),
    ]:
        assert "%s: %s" % (key, fn(rq).render()) in report.splitlines()


def test_invariants_report(capsys):
    code, out, err = run(
        capsys, "invariants", "--link", "L4a1", "--quandle", "swap3",
        "--group", "3", "--cocycles", SWAP3_VECTORS, "--endos", "[[2,2,1]]",
    )
    assert code == 0
    assert "colorings: 9" in out
    assert "chi_edge: 9t^3-13t^2-4t" in out
    assert "pm_edge: 4x^2+6y^2+4y+13" in out
    assert "chi_path: 5s^3t^3-39s^3t^2" in out
    assert "pm_path: 24x^2z^3+24xz^3+39z^3" in out
    # two of the three vectors are not cocycles; the run proceeds anyway
    assert err.count("not a cocycle") == 2


def test_enumeration_cap_exit_code(capsys):
    code, _, err = run(
        capsys, "invariants", "--link", "L4a1", "--quandle", "core-4",
        "--group", "3", "--cocycles", CORE4_COCYCLE,
        "--endos", "all-endomorphisms",
    )
    assert code == 2
    assert "limit" in err


SRC = Path(__file__).resolve().parent.parent / "src"
SWAP3_ALL_ENDOS = ("--quandle", "swap3", "--group", "3", "--cocycles", "h2-generators")


def run_subprocess(*argv):
    # should the path search ever run unbounded again, the timeout fails
    # the test instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "knotquiver", *argv], env=env,
        capture_output=True, text=True, timeout=30,
    )


def test_step_budget_stops_swap3_all_endos():
    proc = run_subprocess("invariants", "--link", "3_1", *SWAP3_ALL_ENDOS)
    assert proc.returncode == 2
    assert proc.stderr.startswith("limit exceeded: maximal_paths: 500001 extension steps")


def test_step_budget_gives_batch_limit_rows():
    proc = run_subprocess("batch", "--links", "3_1,L2a1", *SWAP3_ALL_ENDOS)
    assert proc.returncode == 0
    rows = proc.stdout.strip().splitlines()
    assert [row.split("\t")[0] for row in rows] == ["3_1", "L2a1"]
    assert all(row.split("\t")[1].startswith("limit: maximal_paths: ") for row in rows)


def test_batch_rows(capsys):
    code, out, _ = run(
        capsys, "batch", "--links", "L2a1,L4a1", "--quandle", "swap3",
        "--group", "3", "--cocycles", SWAP3_VECTORS, "--endos", "[[2,2,1]]",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("L2a1\t5t^3-13t^2\t")
    assert lines[1].startswith("L4a1\t9t^3-13t^2-4t\t")


def test_batch_json_rows_match_table_rows(capsys):
    argv = ("batch", "--links", "L2a1,L4a1,L99z9", "--quandle", "swap3", "--group", "3",
            "--cocycles", SWAP3_VECTORS, "--endos", "[[2,2,1]]")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    table = [line.split("\t") for line in out.strip().splitlines()]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    rows = json.loads(out)
    keys = ("chi_edge", "pm_edge", "chi_path", "pm_path")
    assert [[row["link"], *(row[k] for k in keys)] for row in rows[:2]] == table[:2]
    # a name not in the catalog fails its own row, not the batch
    error = "error: link 'L99z9' not in catalog; pass an inline code with --format"
    assert rows[2] == {"link": "L99z9", "error": error}
    assert table[2] == ["L99z9", error]


def test_batch_limit_row(capsys):
    code, out, _ = run(
        capsys, "batch", "--links", "2.1", "--quandle", "core-4", "--group", "3",
        "--cocycles", CORE4_COCYCLE, "--endos", "all-endomorphisms",
    )
    assert code == 0
    assert out == (
        "2.1\tlimit: maximal_paths: 500001 extension steps (budget 500000), "
        "0 dead ends, 0 maximal so far, 64 edges\n"
    )


# (algebra, group, endomorphisms) batched over every catalog link with
# h2-generators, once with the fixed list and once with all
# endomorphisms; the second run of every algebra but flip2 ends each
# row in `limit`, so 140 limit rows and 196 results are pinned
GOLDEN_BATCH_CASES = [
    ("swap3", "3", "[[2,2,1]]"),
    ("flip2", "2", "[[2,1]]"),
    ("core-3", "3", "[[1,3,2],[1,1,1]]"),
    ("core-4", "3", "[[2,4,2,4],[1,1,1,1]]"),
    ("core-5", "5", "[[1,3,5,2,4]]"),
    ("alexander-5-2", "5", "[[1,2,3,4,5],[1,4,2,5,3]]"),
]
# sha256 of the 12 `batch --json` outputs, recorded before the path
# search learned to skip steps that leave the tail's strongly connected
# component; any change to a polynomial or a limit text changes it
GOLDEN_BATCH_DIGEST = "67d2508b2511c50af04430d602551d2f8862f710096c9992b083e7af1f69207b"
# sha256 of the 196 rows of those outputs that do not end in `limit`, one
# compact JSON line each in output order; a change that lets a limit row
# finish leaves this digest as it is, so only the rows it changes show
GOLDEN_BATCH_FINISHED_DIGEST = "55265dd11303668bdc8e028b99a90a721224de2a38bf16a9f7b2d199103e982e"


def test_batch_polynomials_match_golden_digest(capsys):
    digest, finished = hashlib.sha256(), hashlib.sha256()
    rows = 0
    for quandle, group, endos in GOLDEN_BATCH_CASES:
        for spec in (endos, "all-endomorphisms"):
            code, out, _ = run(
                capsys, "batch", "--links", "all", "--quandle", quandle, "--group", group,
                "--cocycles", "h2-generators", "--endos", spec, "--json")
            assert code == 0
            digest.update(out.encode())
            for row in json.loads(out):
                if not row.get("error", "").startswith("limit:"):
                    rows += 1
                    finished.update((json.dumps(row, separators=(",", ":")) + "\n").encode())
    assert rows == 196
    assert finished.hexdigest() == GOLDEN_BATCH_FINISHED_DIGEST
    assert digest.hexdigest() == GOLDEN_BATCH_DIGEST


# (algebra, group, endomorphisms) whose h2-generators are not empty, so
# that their matrix polynomials carry terms: core-6/Z_3 has 2 generators
# and core-4/Z_2 has 4; batched over every catalog link with the fixed
# list only, since all endomorphisms end every row in `limit`
GOLDEN_BATCH_H2_CASES = [
    ("core-6", "3", "[[1,3,5,1,3,5],[2,1,6,5,4,3]]"),
    ("core-4", "2", "[[1,3,1,3],[2,3,4,1]]"),
]
# sha256 of the 2 `batch --json` outputs, recorded while homomorphisms
# still closed a partial map by rescanning every known pair
GOLDEN_BATCH_H2_DIGEST = "7b26afcd258ca00f42e3bf18582104c385129bcbaf7ab997fe2e73c9ac2f70c2"


def test_batch_matrix_terms_match_golden_digest(capsys):
    digest = hashlib.sha256()
    for quandle, group, endos in GOLDEN_BATCH_H2_CASES:
        code, out, _ = run(
            capsys, "batch", "--links", "all", "--quandle", quandle, "--group", group,
            "--cocycles", "h2-generators", "--endos", endos, "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == len(catalog_names())
        assert all(row["pm_edge"] != "0" for row in rows), quandle
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_BATCH_H2_DIGEST


# (algebra, group) for the cocycle-invariant pin: flip2's over is not
# trivial, so which two semiarcs of a crossing are paired matters; 30
# of the 112 outputs carry q terms
GOLDEN_STATE_SUM_CASES = [("flip2", "2"), ("swap3", "3"), ("core-4", "2"), ("core-6", "3")]
# sha256 of the 112 `cocycle-invariant --json` outputs, recorded while
# chain_vectors chose its two semiarcs by the crossing's sign
GOLDEN_STATE_SUM_DIGEST = "b2e8bb209159ffdc8e01f95001da92fc4b988babde151fb4df706f2746bce91b"


def test_cocycle_invariants_match_golden_digest(capsys):
    digest = hashlib.sha256()
    with_q = 0
    for quandle, group in GOLDEN_STATE_SUM_CASES:
        for name in catalog_names():
            code, out, _ = run(
                capsys, "cocycle-invariant", "--link", name, "--quandle", quandle,
                "--group", group, "--cocycles", "h2-generators", "--json")
            assert code == 0
            with_q += "q" in out
            digest.update(out.encode())
    assert with_q == 30
    assert digest.hexdigest() == GOLDEN_STATE_SUM_DIGEST


# (algebra, group, cocycles, endomorphisms) for the quiver pin: swap3
# with the published vectors, and the algebras of the state-sum pin with
# their h2-generators and the endomorphisms of the batch pins
GOLDEN_QUIVER_CASES = [
    ("swap3", "3", SWAP3_VECTORS, "[[2,2,1]]"),
    ("flip2", "2", "h2-generators", "[[2,1]]"),
    ("core-4", "2", "h2-generators", "[[1,3,1,3],[2,3,4,1]]"),
    ("core-6", "3", "h2-generators", "[[1,3,5,1,3,5],[2,1,6,5,4,3]]"),
]
# sha256 of the 112 `quiver` outputs over the catalog and then the 2
# `batch --group-by pm_path` outputs of GOLDEN_BATCH_H2_CASES, recorded
# while the plan's tables were read off the operation tables; the
# quiver outputs enter it in their dense layout (see dense_layout)
GOLDEN_QUIVER_DIGEST = "e2a5c8761a47cef4504072a4a41d3a92d669d3a41b781acc5e0cef82bbde3a52"
# the same digest over the quiver outputs as written, each matrix the
# list of its nonzero entries
GOLDEN_QUIVER_ENTRIES_DIGEST = "87ec550801955a469553e3f7e32d3449075ff89e549bc82d04f3bb5d4d5a1a61"


def dense_layout(out):
    """A `quiver` output in the layout written when each matrix was held
    dense: "labels": 0..m-1 after "modulus", and each matrix as its m x m
    entries in one row-major list."""
    blob = json.loads(out)
    m = blob["modulus"]
    for rec in blob["edges"]:
        flat = [0] * (m * m)
        for i, j, a in rec["matrix"]:
            flat[i * m + j] = a
        rec["matrix"] = flat
    blob = {"modulus": m, "labels": list(range(m)), **blob}
    return json.dumps(blob, indent=1) + "\n"


def test_quivers_and_groupings_match_golden_digest(capsys):
    dense, raw = hashlib.sha256(), hashlib.sha256()
    for quandle, group, cocycles, endos in GOLDEN_QUIVER_CASES:
        for name in catalog_names():
            code, out, _ = run(
                capsys, "quiver", "--link", name, "--quandle", quandle, "--group", group,
                "--cocycles", cocycles, "--endos", endos)
            assert code == 0
            dense.update(dense_layout(out).encode())
            raw.update(out.encode())
    for quandle, group, endos in GOLDEN_BATCH_H2_CASES:
        code, out, _ = run(
            capsys, "batch", "--links", "all", "--quandle", quandle, "--group", group,
            "--cocycles", "h2-generators", "--endos", endos, "--group-by", "pm_path")
        assert code == 0
        dense.update(out.encode())
        raw.update(out.encode())
    assert dense.hexdigest() == GOLDEN_QUIVER_DIGEST
    assert raw.hexdigest() == GOLDEN_QUIVER_ENTRIES_DIGEST


def test_batch_classical_selects_the_l_named_links(capsys):
    code, out, _ = run(
        capsys, "batch", "--links", "classical", "--quandle", "swap3", "--group", "3",
        "--cocycles", SWAP3_VECTORS, "--endos", "[[2,2,1]]",
    )
    assert code == 0
    names = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert names == [n for n in catalog_names() if n.startswith("L")]
    assert "3_1" not in names and "4_1" not in names


def test_batch_empty_subset(capsys):
    code, out, _ = run(
        capsys, "batch", "--links", "", "--quandle", "swap3",
        "--group", "3", "--cocycles", SWAP3_VECTORS, "--endos", "[[2,2,1]]",
    )
    assert code == 0
    assert out.strip() == ""


def test_batch_groups_virtual_knots(capsys):
    code, out, _ = run(
        capsys, "batch", "--links", "virtual", "--quandle", "flip2",
        "--group", "3", "--cocycles", "[[1,0],[0,1]]",
        "--endos", "[[1,2],[2,1]]", "--group-by", "pm_path",
    )
    assert code == 0
    assert out.strip().splitlines() == [
        "64x^2y^2z^4: 3.2 3.3 3.4",
        "64xyz^4: 2.1",
        "64z^4: 3.1 3.5 3.6 3.7",
    ]


# (2, 2, 1) is an endomorphism of swap3, (1, 2, 2) is not
NON_ENDO = "[[2,2,1],[1,2,2]]"
NON_ENDO_ERROR = "error: map (1, 2, 2) is not an endomorphism\n"


@pytest.mark.parametrize("verb, link_args", [
    ("quiver", ("--link", "L4a1")),
    ("invariants", ("--link", "L4a1")),
    ("batch", ("--links", "L2a1,L4a1")),
])
def test_non_endomorphism_is_validation_failure(capsys, verb, link_args):
    code, out, err = run(
        capsys, verb, *link_args, "--quandle", "swap3", "--group", "3",
        "--cocycles", "[[0,1,0,1,0,0]]", "--endos", NON_ENDO,
    )
    assert code == 1
    assert out == ""
    assert err == NON_ENDO_ERROR


MALFORMED_COCYCLES = ("5", "[1,2]", '[[0,0,0,0,0,"a"]]', "[[0,0,0,0,0,0.5]]")


@pytest.mark.parametrize("cocycles", MALFORMED_COCYCLES)
@pytest.mark.parametrize("verb, link_args", [
    ("check", ()),
    ("invariants", ("--link", "L4a1", "--endos", "[[2,2,1]]")),
])
def test_malformed_cocycles_are_validation_failures(capsys, verb, link_args, cocycles):
    code, out, err = run(
        capsys, verb, *link_args, "--quandle", "swap3", "--group", "3",
        "--cocycles", cocycles,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("endos, message", [
    ("[1,2,3]", "error: --endos wants a JSON list of image lists, got [1,2,3]\n"),
    ("[[1,2,9]]", "error: map (1, 2, 9) is not an endomorphism\n"),
])
def test_malformed_endos_are_validation_failures(capsys, endos, message):
    code, out, err = run(
        capsys, "invariants", "--link", "L4a1", "--quandle", "swap3", "--group", "3",
        "--cocycles", "[[0,1,0,1,0,0]]", "--endos", endos,
    )
    assert code == 1
    assert out == ""
    assert err == message


def invariants_record(capsys, link, quandle, group, cocycles, endos):
    code, out, _ = run(
        capsys, "invariants", "--link", link, "--quandle", quandle,
        "--group", group, "--cocycles", cocycles, "--endos", endos, "--json",
    )
    assert code == 0
    return json.loads(out)


def assert_matches_separate_passes(record, link, bq, coeff, vectors):
    # the report reads the count and the state sums off the quiver's
    # colorings; the separate functions enumerate the colorings themselves
    d = get_diagram(link)
    assert record["colorings"] == counting_invariant(d, bq)
    phis = {k: v for k, v in record.items() if k.startswith("phi_")}
    assert phis == {
        "phi_%d" % (i + 1): cocycle_invariant(d, bq, coeff, vec).render()
        for i, vec in enumerate(vectors)
    }


@pytest.mark.parametrize("link", catalog_names())
def test_invariants_one_pass_swap3(capsys, link):
    record = invariants_record(capsys, link, "swap3", "3", SWAP3_VECTORS, "[[2,2,1]]")
    assert_matches_separate_passes(
        record, link, swap3(), CoeffGroup(3), json.loads(SWAP3_VECTORS))


@pytest.mark.parametrize("link", ["4_1", "L6a3", "L7a2", "L7a7", "L4a1", "3.2"])
def test_invariants_one_pass_core5(capsys, link):
    rng = random.Random(link)
    vectors = [[rng.randrange(5) for _ in range(20)] for _ in range(3)]
    record = invariants_record(
        capsys, link, "core-5", "5", json.dumps(vectors), "identity")
    assert_matches_separate_passes(
        record, link, core_cyclic(5), CoeffGroup(5), vectors)


def count_coloring_calls(monkeypatch):
    """Wrap homset.colorings in every knotquiver module that holds it."""
    calls = []
    original = homset.colorings

    def counting(diagram, bq):
        calls.append(diagram)
        return original(diagram, bq)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "knotquiver":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_one_coloring_enumeration_per_call(capsys, monkeypatch):
    calls = count_coloring_calls(monkeypatch)
    code, _, _ = run(
        capsys, "invariants", "--link", "L4a1", "--quandle", "swap3",
        "--group", "3", "--cocycles", SWAP3_VECTORS, "--endos", "[[2,2,1]]",
    )
    assert code == 0
    assert len(calls) == 1

    code, out, _ = run(
        capsys, "cocycle-invariant", "--link", "L4a1", "--quandle", "swap3",
        "--group", "3", "--cocycles", SWAP3_VECTORS,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    assert len(calls) == 2


# ---------------------------------------------------------------- table files


def write_table(tmp_path, blob):
    path = tmp_path / "table.json"
    path.write_text(blob if isinstance(blob, str) else json.dumps(blob))
    return str(path)


SWAP3_UNDER = [[1, 1, 2], [2, 2, 1], [3, 3, 3]]


@pytest.mark.parametrize("blob, message", [
    ([1, 2], "error: table file: top level is not a JSON object\n"),
    ("3", "error: table file: top level is not a JSON object\n"),
    ({"n": "x", "under": [[0]]}, 'error: table field "n" is not a positive integer: "x"\n'),
    ({"n": True, "under": [[1]]}, 'error: table field "n" is not a positive integer: true\n'),
    ({"n": 1.0, "under": [[1]]}, 'error: table field "n" is not a positive integer: 1.0\n'),
    ({"n": 0, "under": []}, 'error: table field "n" is not a positive integer: 0\n'),
    ({"under": [[1]]}, 'error: table field "n" is not a positive integer: null\n'),
    ({"n": 3}, 'error: table field "under" is not 3 lists of 3 integers\n'),
    ({"n": 3, "under": SWAP3_UNDER[:2]},
     'error: table field "under" is not 3 lists of 3 integers\n'),
    ({"n": 3, "under": [[1, 1, 2], [2, 2, 1], 3]},
     'error: table field "under" is not 3 lists of 3 integers\n'),
    ({"n": 3, "under": [[1, 1, 2], [2, 2, 1], [3, 3, True]]},
     'error: table field "under" is not 3 lists of 3 integers\n'),
    ({"n": 3, "under": SWAP3_UNDER, "over": [[1, 1, 1], [2, 2, 2], [3, 3]]},
     'error: table field "over" is not 3 lists of 3 integers\n'),
    ({"n": 3, "under": SWAP3_UNDER, "over": "x"},
     'error: table field "over" is not 3 lists of 3 integers\n'),
])
@pytest.mark.parametrize("verb", [("check",), ("homset", "--link", "3_1")])
def test_malformed_table_files_are_validation_failures(tmp_path, capsys, blob, message, verb):
    code, out, err = run(capsys, *verb, "--quandle", write_table(tmp_path, blob))
    assert (code, out, err) == (1, "", message)


def test_well_shaped_table_keeps_axiom_messages(tmp_path, capsys):
    # shaped right, wrong in range and in the axioms: check lists them
    path = write_table(tmp_path, {"n": 2, "under": [[1, 1], [2, 3]]})
    code, out, err = run(capsys, "check", "--quandle", path)
    assert (code, out, err) == (1, "axiom: under table entry 3 out of range 1..2\n", "")
    path = write_table(tmp_path, {"n": 3, "under": SWAP3_UNDER})
    code, out, _ = run(capsys, "homset", "--link", "3_1", "--quandle", path)
    assert (code, out) == (0, "colorings: 3\n")


# ---------------------------------------------------------------- fuzz

PD_CHARS = "0123456789pm-"
GAUSS_CHARS = "0123456789+-OU;"


def mutate(rng, text, chars):
    """text, a code of whitespace-separated tokens, after one to four random
    edits: a token dropped, doubled or swapped, or one character changed."""
    tokens = text.split()
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0 and len(tokens) > 1:
            del tokens[i]
        elif op == 1:
            tokens.insert(j, tokens[i])
        elif op == 2:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            k = rng.randrange(len(tokens[i]))
            tokens[i] = tokens[i][:k] + rng.choice(chars) + tokens[i][k + 1:]
    return " ".join(tokens)


def random_entry(rng, n):
    return rng.choice([rng.randint(-1, n + 1), True, 1.0, "1", None, [1]])


def random_rows(rng, n):
    if rng.random() < 0.1:
        return rng.choice([None, 3, "rows", {}, [1, 2]])
    rows = rng.randint(n - 1, n + 1) if rng.random() < 0.2 else n
    return [
        [random_entry(rng, n) if rng.random() < 0.15 else rng.randint(1, n)
         for _ in range(n if rng.random() < 0.9 else n + 1)]
        if rng.random() < 0.95 else rng.choice([None, 1, "row"])
        for _ in range(rows)
    ]


def random_table(rng):
    if rng.random() < 0.1:
        return rng.choice([[], "table", 3, None, [[1]], True])
    n = rng.randint(1, 3)
    blob = {"n": n if rng.random() < 0.8 else rng.choice([0, -1, "2", True, 2.0, None, [2]])}
    if rng.random() < 0.9:
        blob["under"] = random_rows(rng, n)
    if rng.random() < 0.5:
        blob["over"] = random_rows(rng, n) if rng.random() < 0.8 else None
    return blob


def fuzz_argvs(rng, tmp_path):
    names = catalog_names()
    report = ("--quandle", "core-3", "--group", "3", "--cocycles", "h2-generators",
              "--endos", "identity")
    for _ in range(400):
        d = get_diagram(rng.choice(names))
        for fmt, text in (("pd", mutate(rng, pd_string(d), PD_CHARS)),
                          ("gauss", mutate(rng, gauss_string(d), GAUSS_CHARS))):
            verb = ("invariants", *report) if rng.random() < 0.2 else (
                "homset", "--quandle", "swap3")
            yield [verb[0], "--link=" + text, "--format", fmt, *verb[1:]]
    for i in range(200):
        path = tmp_path / ("t%d.json" % i)
        path.write_text(json.dumps(random_table(rng)))
        yield ["check", "--quandle", str(path)]
        yield ["homset", "--link", "3_1", "--quandle", str(path)]
    for _ in range(100):
        group = rng.choice(["", "0", "1", "-3", "Z0", "Z_1", "2.5", "²", "z", " z_7 ",
                            "".join(rng.choice("Zz_-/0123456789 .x") for _ in range(3))])
        yield ["cocycle-invariant", "--link", "3_1", "--quandle", "swap3",
               "--group=" + group, "--cocycles", "[[0,1,0,1,0,0]]"]
    algebras = ["alexander-0-1", "alexander-4-2", "core-0", "trivial-0", "core--2", "swap4"]
    for _ in range(100):
        algebras.append("-".join(
            [rng.choice(["core", "trivial", "alexander", "swap", "flip", ""])]
            + [rng.choice(["", "0", "1", "3", "5", "x", "2.0", "٣", " 4"])
               for _ in range(rng.randint(0, 3))]))
    for name in algebras:
        yield ["homset", "--link", "3_1", "--quandle=" + name]
    yield from ZERO_ORDER_ARGVS
    yield from OVERSIZE_ARGVS


def test_cli_fuzz_exits_cleanly(tmp_path, capsys):
    # random codes, table files, groups and algebra names: every command
    # line ends in status 0, 1 or 2, and no exception escapes main
    codes, escaped = [], []
    for argv in fuzz_argvs(random.Random(20241), tmp_path):
        try:
            codes.append(main(argv))
        except (Exception, SystemExit) as exc:
            escaped.append((argv, repr(exc)))
    capsys.readouterr()
    assert escaped == []
    assert {0, 1} <= set(codes) <= {0, 1, 2}


# ---------------------------------------------------------------- shared parser


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    from knotquiver import cli

    built = []
    original = cli.build_parser.__wrapped__

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", functools.cache(counting))
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    out_file = str(tmp_path / "report.txt")
    swap3_args = ("--quandle", "swap3", "--group", "3", "--cocycles", SWAP3_VECTORS)
    core3_args = ("--quandle", "core-3", "--group", "3", "--cocycles", "h2-generators")
    sequence = [
        ["homset", "--link", "L4a1", "--quandle", "swap3", "--json"],
        ["homset", "--link", "L4a1", "--quandle", "swap3"],
        ["check", "--quandle", "swap3", "--group", "3", "--cocycles", SWAP3_VECTORS,
         "--out", out_file],
        ["check", "--quandle", "swap3", "--group", "3", "--cocycles", SWAP3_VECTORS],
        [],
        ["invariants", "--link", "L2a1", *core3_args, "--endos", "identity"],
        ["invariants", "--link", "L2a1", *core3_args],
        ["batch", "--links", "L2a1,L4a1", *swap3_args, "--endos", "[[2,2,1]]",
         "--group-by", "pm_edge"],
        ["batch", "--links", "L2a1,L4a1", *swap3_args, "--endos", "[[2,2,1]]"],
        ["quiver", "--link", "2.1", *swap3_args, "--endos", "identity"],
        ["homset", "--link", "L4a1"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        written = Path(out_file).read_text() if "--out" in argv else None
        if written is not None:
            os.remove(out_file)
        proc = subprocess.run(
            [sys.executable, "-m", "knotquiver", *argv], env=env,
            capture_output=True, text=True, timeout=30,
        )
        assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)
        if written is not None:
            assert written == Path(out_file).read_text()
            os.remove(out_file)
    assert len(built) == 1


# The output depends on the evaluation vectors only through their classes
# in H^2: the chain vector of a coloring is a cycle, so a coboundary
# evaluates to 0 on every coloring.  Each vector is shifted by the
# coboundary of a seeded 1-cochain f, taken from d2 for quandles and
# biquandles alike,
#
#     (delta f)(x, y) = f(x) + f(y) - f(under(x, y)) - f(over(y, x)),
#
# and stdout must not change.  d2 of flip2 vanishes, so flip2 has no
# nonzero coboundary to shift by (test_flip2_has_no_nonzero_coboundary).
# The order-3 biquandle under(x, y) = x + y, over(x, y) = -x on Z_3
# (0-based labels) has nonzero ones, and there the output does change:
# chain_vector weights a positive crossing by (under_in, over_out), while
# d2 cancels the boundary of (under_in, over_in), so 24 of its 54
# colorings of catalog links give chains that are not cycles.  The case
# is kept as a strict expected failure until the two conventions agree.
BIQUANDLE3 = {
    "n": 3,
    "under": [[(x + y) % 3 + 1 for y in range(3)] for x in range(3)],
    "over": [[-x % 3 + 1 for y in range(3)] for x in range(3)],
}
SHIFT_CASES = [
    ("swap3", 3, [[0, 1, 0, 1, 0, 0]], [[2, 2, 1]]),
    ("core-4", 3, [[1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]],
     [[2, 4, 2, 4], [1, 1, 1, 1]]),
    pytest.param("biquandle3", 3, [[0, 2, 1, 1, 2, 0]], [[1, 2, 3]], marks=pytest.mark.xfail(
        strict=True, reason="chain_vector and d2 pair a biquandle crossing differently")),
]


def coboundary_of(bq, f, m):
    return [(f[x - 1] + f[y - 1] - f[bq.under(x, y) - 1] - f[bq.over(y, x) - 1]) % m
            for x, y in homset.pair_basis(bq)]


def test_flip2_has_no_nonzero_coboundary():
    assert not any(map(any, boundary_matrices(load_algebra("flip2"))[0]))


@pytest.mark.parametrize("name,m,vectors,endos", SHIFT_CASES)
def test_output_depends_on_vectors_only_through_their_classes(tmp_path, capsys, name, m,
                                                              vectors, endos):
    spec = name
    if name == "biquandle3":
        spec = str(tmp_path / "biquandle3.json")
        Path(spec).write_text(json.dumps(BIQUANDLE3))
    bq = load_algebra(spec)
    coeff = CoeffGroup(m)
    rng = random.Random(sum(map(ord, name)))
    shifted = []
    for vec in vectors:
        assert is_cocycle(bq, coeff, vec)
        while True:
            delta = coboundary_of(bq, [rng.randrange(m) for _ in bq.elements], m)
            if any(delta):
                break
        assert is_cocycle(bq, coeff, delta)
        shifted.append([(a + b) % m for a, b in zip(vec, delta)])
    assert all(s != v for s, v in zip(shifted, vectors))
    common = ["--quandle", spec, "--group", str(m), "--json"]
    for link in catalog_names():
        outs = []
        for vecs in (vectors, shifted):
            cocycles = json.dumps(vecs)
            code, inv, _ = run(capsys, "invariants", "--link", link, *common,
                               "--cocycles", cocycles, "--endos", json.dumps(endos))
            assert code == 0
            code, state, _ = run(capsys, "cocycle-invariant", "--link", link, *common,
                                 "--cocycles", cocycles)
            assert code == 0
            outs.append((inv, state))
        assert outs[0] == outs[1], link
