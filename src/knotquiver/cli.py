"""Command line front end.

Verbs:

  check              validate an algebra table, optionally cocycle vectors
  homset             coloring count of a link by a finite algebra
  cocycle-invariant  state-sum polynomial of each cocycle
  quiver             decorated coloring quiver, emitted as JSON
  invariants         counting invariant, cocycle invariants and the four
                     quiver polynomials in one report
  batch              one row per link; optional grouping by equal values

Algebras are named builtins (swap3, flip2, core-M, alexander-M-T,
trivial-N) or paths to JSON files {"n": n, "under": rows, "over": rows}
with 1-based entries; a file without "over" is read as a quandle.

Exit status: 0 success, 1 validation failure, 2 the maximal-path search
ran past its step budget (polynomials.STEP_BUDGET) or the command line
itself is malformed (argparse usage errors, such as no verb).
"""

import argparse
import functools
import json
import os
import sys

from .algebra import Biquandle, builtin, check_axioms, endomorphisms
from .catalog import catalog_names, get_diagram
from .cohomology import CoeffGroup, check_length, h2_generators, is_cocycle, state_sum
from .diagram import parse_gauss, parse_pd
from .homset import chain_vectors, colorings, counting_invariant
from .polynomials import (
    LimitError,
    edge_char_polynomial,
    edge_matrix_polynomial,
    path_polynomials,
)
from .quiver import DataVector, build_representation


def read_table(path):
    """(under, over) of a JSON table file; without "over" it is a quandle.

    The shape is checked here, for every verb: a ValueError names the
    field that is not as the format says.  The entries' range and the
    axioms are left to check_axioms."""
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise ValueError("table file: top level is not a JSON object")
    n = blob.get("n")
    if type(n) is not int or n < 1:
        raise ValueError('table field "n" is not a positive integer: %s' % json.dumps(n))
    under, over = blob.get("under"), blob.get("over")
    if over is None:
        over = [[x] * n for x in range(1, n + 1)]
    for field, table in (("under", under), ("over", over)):
        if not (_int_lists(table) and len(table) == n
                and all(len(row) == n for row in table)):
            raise ValueError('table field "%s" is not %d lists of %d integers' % (field, n, n))
    return under, over


def load_algebra(spec):
    if os.path.exists(spec):
        under, over = read_table(spec)
        return Biquandle(under, over, name=os.path.basename(spec))
    try:
        return builtin(spec)
    except KeyError as exc:
        raise ValueError(str(exc.args[0]))


NOT_IN_CATALOG = "link %r not in catalog; pass an inline code with --format"


def load_link(args):
    name = args.link
    if name is None:
        raise ValueError("no link given (--link)")
    if name in catalog_names():
        return get_diagram(name)
    if args.format == "pd":
        return parse_pd(name)
    if args.format == "gauss":
        return parse_gauss(name)
    raise ValueError(NOT_IN_CATALOG % name)


def _int_lists(blob):
    """Whether a parsed JSON value is a list of lists of integers."""
    return isinstance(blob, list) and all(
        isinstance(v, list) and all(type(x) is int for x in v) for v in blob)


def parse_cocycles(spec, bq, coeff):
    """The vectors of --cocycles: 'h2-generators' or a JSON list of
    vectors, each as long as the pair basis."""
    if spec == "h2-generators":
        return [vec for _, vec in h2_generators(bq, coeff)]
    vectors = json.loads(spec)
    if not _int_lists(vectors):
        raise ValueError("--cocycles wants a JSON list of integer vectors, got %s" % spec)
    for vec in vectors:
        check_length(bq, vec)
    return vectors


def load_cocycles(args, bq, coeff):
    if args.cocycles is None:
        raise ValueError("no cocycles given (--cocycles)")
    vectors = parse_cocycles(args.cocycles, bq, coeff)
    for i, vec in enumerate(vectors):
        if not is_cocycle(bq, coeff, vec):
            # tolerated: any 2-cochain gives a well-defined quiver, it just
            # is not guaranteed to be a knot invariant
            print("note: vector %d is not a cocycle over %s" % (i + 1, coeff),
                  file=sys.stderr)
    return vectors


def load_endos(args, bq):
    spec = args.endos
    if spec is None or spec == "all-endomorphisms":
        return endomorphisms(bq)
    if spec == "identity":
        return [tuple(bq.elements)]
    endos = json.loads(spec)
    if not _int_lists(endos):
        raise ValueError("--endos wants a JSON list of image lists, got %s" % spec)
    # DataVector rejects a map that is not an endomorphism
    return [tuple(e) for e in endos]


def load_data(args):
    """The DataVector of --quandle, --group, --cocycles and --endos, read
    in that order, so the first bad input is the one reported."""
    bq = load_algebra(args.quandle)
    coeff = CoeffGroup.parse(args.group)
    return DataVector(bq, coeff, load_cocycles(args, bq, coeff), load_endos(args, bq))


def emit(text, args):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def four_polynomials(diagram, data):
    rq = build_representation(diagram, data)
    chi_path, pm_path = path_polynomials(rq)
    return rq, {
        "chi_edge": edge_char_polynomial(rq).render(),
        "pm_edge": edge_matrix_polynomial(rq).render(),
        "chi_path": chi_path.render(),
        "pm_path": pm_path.render(),
    }


def cmd_check(args):
    if os.path.exists(args.quandle):
        # every violation is listed, so the table is checked before a
        # Biquandle (which stops at the first) is built from it
        under, over = read_table(args.quandle)
        problems = check_axioms(under, over)
        bq = None if problems else Biquandle(under, over, check=False)
    else:
        # builtins are validated on construction
        bq, problems = load_algebra(args.quandle), []
    lines = []
    status = 0
    if problems:
        status = 1
        lines.extend("axiom: " + p for p in problems)
    else:
        lines.append("axioms: ok")
    if args.cocycles is not None and bq is not None:
        coeff = CoeffGroup.parse(args.group)
        vectors = parse_cocycles(args.cocycles, bq, coeff)
        for i, vec in enumerate(vectors):
            ok = is_cocycle(bq, coeff, vec)
            lines.append("cocycle %d over %s: %s" % (i + 1, coeff, "ok" if ok else "NOT a cocycle"))
            if not ok:
                status = 1
    emit("\n".join(lines), args)
    return status


def cmd_homset(args):
    d = load_link(args)
    bq = load_algebra(args.quandle)
    count = counting_invariant(d, bq)
    if args.json:
        emit(json.dumps({"link": d.name, "algebra": bq.name, "count": count}), args)
    else:
        emit("colorings: %d" % count, args)
    return 0


def cmd_cocycle_invariant(args):
    d = load_link(args)
    bq = load_algebra(args.quandle)
    coeff = CoeffGroup.parse(args.group)
    vectors = load_cocycles(args, bq, coeff)
    chains = chain_vectors(d, bq, colorings(d, bq))
    rows = [
        ("phi_%d" % (i + 1), state_sum(coeff, vec, chains).render())
        for i, vec in enumerate(vectors)
    ]
    if args.json:
        emit(json.dumps(dict(rows)), args)
    else:
        emit("\n".join("%s: %s" % row for row in rows), args)
    return 0


def cmd_quiver(args):
    d = load_link(args)
    rq = build_representation(d, load_data(args))
    emit(rq.to_json(), args)
    return 0


def cmd_invariants(args):
    d = load_link(args)
    data = load_data(args)
    rq, polys = four_polynomials(d, data)
    record = {
        "link": d.name,
        "algebra": data.algebra.name,
        "coefficients": str(data.coeff),
        "colorings": len(rq.vertices),
    }
    for i, vec in enumerate(data.vectors):
        record["phi_%d" % (i + 1)] = state_sum(data.coeff, vec, rq.chains).render()
    record.update(polys)
    if args.json:
        emit(json.dumps(record, indent=1), args)
    else:
        emit("\n".join("%s: %s" % (k, v) for k, v in record.items()), args)
    return 0


def _batch_subset(spec):
    names = catalog_names()
    if spec == "all":
        return names
    if spec == "classical":
        return [n for n in names if n.startswith("L")]
    if spec == "virtual":
        return [n for n in names if "." in n]
    return [n for n in spec.split(",") if n]


def cmd_batch(args):
    data = load_data(args)
    keys = ("chi_edge", "pm_edge", "chi_path", "pm_path")
    rows = []
    known = set(catalog_names())
    for name in _batch_subset(args.links):
        try:
            if name not in known:
                raise ValueError(NOT_IN_CATALOG % name)
            _, polys = four_polynomials(get_diagram(name), data)
            rows.append((name, polys, None))
        except LimitError as exc:
            rows.append((name, None, "limit: %s" % exc))
        except (KeyError, ValueError) as exc:
            rows.append((name, None, "error: %s" % exc))
    if args.group_by:
        groups = {}
        for name, polys, err in rows:
            value = polys[args.group_by] if polys else (err or "error")
            groups.setdefault(value, []).append(name)
        lines = ["%s: %s" % (v, " ".join(ns)) for v, ns in sorted(groups.items())]
        emit("\n".join(lines) if lines else "", args)
        return 0
    if args.json:
        blob = [
            {"link": name, **(polys or {"error": err})} for name, polys, err in rows
        ]
        emit(json.dumps(blob, indent=1), args)
        return 0
    lines = []
    for name, polys, err in rows:
        cells = [polys[k] for k in keys] if polys else [err]
        lines.append("\t".join([name] + cells))
    emit("\n".join(lines) if lines else "", args)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by later
    calls in the process: parse_args keeps no state between runs."""
    top = argparse.ArgumentParser(prog="knotquiver", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, link=True):
        if link:
            p.add_argument("--link", help="catalog name or inline diagram code")
            p.add_argument("--format", choices=("pd", "gauss"),
                           help="code format when --link is not a catalog name")
        p.add_argument("--quandle", required=True,
                       help="builtin algebra name or JSON table file")
        p.add_argument("--group", default="Z",
                       help="coefficient group: Z or an integer modulus")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("check", help="validate axioms and cocycles")
    common(p, link=False)
    p.add_argument("--cocycles", help="JSON vectors or 'h2-generators'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("homset", help="coloring count")
    common(p)
    p.set_defaults(func=cmd_homset)

    p = sub.add_parser("cocycle-invariant", help="state-sum polynomials")
    common(p)
    p.add_argument("--cocycles", required=True)
    p.set_defaults(func=cmd_cocycle_invariant)

    p = sub.add_parser("quiver", help="decorated quiver as JSON")
    common(p)
    p.add_argument("--cocycles", required=True)
    p.add_argument("--endos", help="JSON maps, 'all-endomorphisms' or 'identity'")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("invariants", help="full single-link report")
    common(p)
    p.add_argument("--cocycles", required=True)
    p.add_argument("--endos")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("batch", help="table over several links")
    common(p, link=False)
    p.add_argument("--links", default="all",
                   help="comma list of names, or all, classical (the L-named "
                        "links, not 3_1 or 4_1) or virtual")
    p.add_argument("--cocycles", required=True)
    p.add_argument("--endos")
    p.add_argument("--group-by", dest="group_by",
                   choices=("chi_edge", "pm_edge", "chi_path", "pm_path"),
                   help="collapse the table into value classes")
    p.set_defaults(func=cmd_batch)
    return top


def main(argv=None):
    """Run one command line; returns the exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LimitError as exc:
        print("limit exceeded: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
