"""Correctness gate for benchmark jobs.

Two kinds of check:

* On the default seed every job's outcome and a digest of its stdout
  must equal the value recorded in expected.json from the commit that
  introduced the benchmark.
* On any seed, cheap properties that follow from the mathematics, not
  from the program: the coloring count equals the number of color
  tuples a braid maps to themselves (counted in workloads.py), every
  state sum has mass equal to the coloring
  count, edges = colorings x endomorphisms (read as the leading t^m
  coefficient of chi_edge), the mass of pm_edge is edges x vectors, the
  t^m terms of chi_path count the maximal paths when the count is known,
  every H^2 order divides m, and every coboundary vector is reported as
  a cocycle.
"""

import hashlib
import json
import os
import re

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

_TERM = re.compile(r"([+-]?)(\d*)((?:[a-z](?:\^-?\d+)?)*)")
_FACTOR = re.compile(r"([a-z])(?:\^(-?\d+))?")
_COCYCLE_LINE = re.compile(r"cocycle (\d+) over (Z(?:_\d+)?): ok$")


def parse_poly(text):
    """A rendered polynomial as {monomial: coefficient}; a monomial is a
    sorted tuple of (variable, exponent) pairs."""
    out = {}
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m.end() == pos or not (m.group(2) or m.group(3)) or (pos and not m.group(1)):
            raise ValueError("cannot parse polynomial %r at %d" % (text, pos))
        coeff = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "-":
            coeff = -coeff
        key = tuple(sorted((v, int(e) if e else 1) for v, e in _FACTOR.findall(m.group(3))))
        out[key] = out.get(key, 0) + coeff
        pos = m.end()
    return out


def mass(poly):
    return sum(poly.values())


def top_count(poly, m):
    """Sum of the coefficients of the terms carrying t^m: one per monic
    degree-m characteristic polynomial in the sum."""
    return sum(c for key, c in poly.items() if ("t", m) in key)


def outcome(code, stdout, stderr):
    if code == 0:
        return "ok"
    if code == 2 and stderr.startswith("limit exceeded"):
        return "limit"
    return "error"


def digest(code, stdout):
    return hashlib.sha256(("%d\n%s" % (code, stdout)).encode()).hexdigest()[:16]


def _check_edges(rec, facts, problems, colorings=None):
    m = facts["modulus"]
    edges = top_count(parse_poly(rec["chi_edge"]), m)
    if colorings is not None and edges != colorings * facts["endos"]:
        problems.append("chi_edge counts %d edges, colorings x endos = %d"
                        % (edges, colorings * facts["endos"]))
    if edges % facts["endos"] or edges < facts["endos"]:
        problems.append("chi_edge counts %d edges for %d endomorphisms" % (edges, facts["endos"]))
    pm_mass = mass(parse_poly(rec["pm_edge"]))
    if pm_mass != edges * facts["vectors"]:
        problems.append("pm_edge mass %d, edges x vectors = %d"
                        % (pm_mass, edges * facts["vectors"]))


def _check_invariants(job, stdout, problems):
    rec = json.loads(stdout)
    facts = job.facts
    colorings = rec["colorings"]
    if "colorings" in facts and colorings != facts["colorings"]:
        problems.append("%d colorings, counted %d" % (colorings, facts["colorings"]))
    phis = [k for k in rec if k.startswith("phi_")]
    if len(phis) != facts["vectors"]:
        problems.append("%d state sums for %d vectors" % (len(phis), facts["vectors"]))
    for key in phis:
        if mass(parse_poly(rec[key])) != colorings:
            problems.append("%s has mass %d, colorings %d"
                            % (key, mass(parse_poly(rec[key])), colorings))
    _check_edges(rec, facts, problems, colorings)
    if "paths" in facts:
        found = top_count(parse_poly(rec["chi_path"]), facts["modulus"])
        if found != facts["paths"]:
            problems.append("chi_path counts %d maximal paths, expected %d"
                            % (found, facts["paths"]))


def _check_batch(job, stdout, problems):
    rows = json.loads(stdout)
    if not rows:
        problems.append("empty batch table")
    for row in rows:
        if "error" in row:
            problems.append("%s: %s" % (row["link"], row["error"]))
        else:
            _check_edges(row, job.facts, problems)


def _check_lines(job, stdout, problems, want):
    lines = stdout.splitlines()
    if not lines or lines[0] != "axioms: ok":
        problems.append("axioms not reported ok")
        return
    group = "Z_%d" % job.facts["modulus"] if job.facts["modulus"] else "Z"
    for i, line in enumerate(lines[1:], 1):
        m = _COCYCLE_LINE.match(line)
        if not m or int(m.group(1)) != i or m.group(2) != group:
            problems.append("unexpected line %r" % line)
    if want is not None and len(lines) - 1 != want:
        problems.append("%d cocycle lines, expected %d" % (len(lines) - 1, want))


def independent_problems(job, code, stdout, stderr, h2_orders=None):
    """Problems with one job's output that need no recorded value.

    h2_orders: the orders h2_generators returned for a check-h2 job,
    when they were recorded.
    """
    problems = []
    got = outcome(code, stdout, stderr)
    want = "limit" if job.facts.get("limit") else "ok"
    if got != want:
        return ["outcome %s, expected %s: %s" % (got, want, stderr.strip()[:200])]
    if got == "limit":
        return problems
    try:
        if job.kind == "invariants":
            _check_invariants(job, stdout, problems)
        elif job.kind == "batch":
            _check_batch(job, stdout, problems)
        elif job.kind == "check-h2":
            _check_lines(job, stdout, problems, None if h2_orders is None else len(h2_orders))
            m = job.facts["modulus"]
            for order in h2_orders or ():
                if m and (order == 0 or m % order):
                    problems.append("H2 order %d does not divide %d" % (order, m))
        elif job.kind == "check-vectors":
            _check_lines(job, stdout, problems, job.facts["vectors"])
    except (ValueError, KeyError, TypeError) as exc:
        problems.append("unreadable output: %r" % exc)
    return problems


def load_expected():
    try:
        with open(EXPECTED_FILE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def expected_problems(expected, job, code, stdout, stderr):
    """Mismatch against the recorded value of the job, if one exists."""
    want = expected.get(job.id)
    if want is None:
        return ["no recorded value for %s" % job.id]
    got = outcome(code, stdout, stderr)
    if got != want["outcome"]:
        return ["outcome %s, recorded %s" % (got, want["outcome"])]
    if got == "ok" and digest(code, stdout) != want["sha256"]:
        return ["output differs from the recorded value"]
    return []


def record(job, code, stdout, stderr):
    got = outcome(code, stdout, stderr)
    rec = {"outcome": got}
    if got == "ok":
        rec["sha256"] = digest(code, stdout)
    return rec
