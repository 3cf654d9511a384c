"""Bundled table of small link diagrams.

Classical prime links through seven crossings are stored as planar diagram
codes, the two smallest classical knots and the tabulated virtual knots
through three crossings as signed Gauss codes.  The test suite checks the
committed table: acceptance criterion 8 pins the quiver rows of the
classical links and criterion 9 the class split of the virtual knots;
tests/test_catalog.py checks the crossing numbers by the span of the
Kauffman bracket and that the entries are pairwise distinct up to mirror
image and component reversal, except the vertical-flip partners 3.5 and
3.6, which it tells apart by their Gauss codes.  The search script that
first built the table is kept in git history.
"""

import json
from importlib import resources

from .diagram import parse_gauss, parse_pd

_CACHE = None


def load_catalog():
    """Return the raw table as a list of {name, format, code} dicts."""
    global _CACHE
    if _CACHE is None:
        text = (
            resources.files("knotquiver")
            .joinpath("data/catalog.json")
            .read_text()
        )
        _CACHE = json.loads(text)
    return _CACHE


def catalog_names():
    return [entry["name"] for entry in load_catalog()]


def get_diagram(name):
    """Look up a named diagram.

    Raises KeyError for names not in the table.
    """
    fmt, code = get_code(name)
    return (parse_pd if fmt == "pd" else parse_gauss)(code, name=name)


def get_code(name):
    """The stored (format, code) pair for a named diagram."""
    for entry in load_catalog():
        if entry["name"] == name:
            return entry["format"], entry["code"]
    raise KeyError(name)
