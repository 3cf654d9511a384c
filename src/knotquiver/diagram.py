"""Oriented link diagrams as labelled crossing lists.

A diagram with c crossings has 2c semiarcs, the oriented segments
between consecutive crossing points, labelled 0..2c-1.  Each crossing
records its sign and the four semiarcs meeting it: the under strand
runs under_in -> under_out, the over strand over_in -> over_out.

Signs follow the right-hand convention: a crossing is positive when the
under direction equals the over direction rotated a quarter turn
counterclockwise.

Text formats
------------

PD strings: whitespace- or comma-separated crossing terms

    Xp[a,b,c,d]   positive crossing, semiarcs (under_in, over_in, under_out, over_out)
    Xm[a,b,c,d]   negative crossing, same slot meaning

Labels may be any integers; they are compressed to 0..2c-1 in order of
first appearance.

Gauss codes: tokens O<k><sign> / U<k><sign> read around each component,
components separated by ';'.  Token i of a component sits between
semiarc i-1 (incoming) and semiarc i (outgoing).  Each crossing number k
must occur exactly once as O and once as U, with equal signs.

Braid closures
--------------

braid_closure([1, -2, 1, -2]) closes a braid word on k strands: letter
+i crosses strand i under strand i+1 positively, -i strand i+1 under
strand i negatively.  Each letter takes the two labels at its positions
and hands out two fresh ones; closing identifies the labels at the
bottom with those at the top, and the labels are then compressed like a
PD string's.
"""

import re
from functools import partial
from itertools import repeat
from typing import NamedTuple


class ValidationError(ValueError):
    pass


class Crossing(NamedTuple):
    sign: int
    under_in: int
    over_in: int
    under_out: int
    over_out: int

    def inputs(self):
        return (self.under_in, self.over_in)

    def outputs(self):
        return (self.under_out, self.over_out)


class LinkDiagram:
    def __init__(self, crossings, name=None, check=True):
        self.crossings = list(crossings)
        self.name = name
        if check:
            problems = validate(self)
            if problems:
                raise ValidationError(problems[0])

    @property
    def n_semiarcs(self):
        return 2 * len(self.crossings)

    @property
    def writhe(self):
        return sum(c.sign for c in self.crossings)

    def successor(self):
        """Map semiarc -> next semiarc along the strand."""
        nxt = {}
        for c in self.crossings:
            nxt[c.under_in] = c.under_out
            nxt[c.over_in] = c.over_out
        return nxt

    def components(self):
        """Semiarc labels grouped into oriented cycles, sorted by minimum."""
        nxt = self.successor()
        seen = set()
        comps = []
        for start in sorted(nxt):
            if start in seen:
                continue
            cyc = []
            s = start
            while s not in seen:
                seen.add(s)
                cyc.append(s)
                s = nxt[s]
            comps.append(cyc)
        comps.sort(key=min)
        return comps

    def component_of(self):
        """Map semiarc -> component index."""
        out = {}
        for i, cyc in enumerate(self.components()):
            for s in cyc:
                out[s] = i
        return out

    def __repr__(self):
        return "<diagram %s: %d crossings, %d components>" % (
            self.name or "?",
            len(self.crossings),
            len(self.components()),
        )


def validate(diagram):
    problems = []
    crossings = diagram.crossings
    n = 2 * len(crossings)
    ins = {}
    outs = {}
    for idx, c in enumerate(crossings):
        if c.sign not in (1, -1):
            problems.append("crossing %d has sign %r" % (idx, c.sign))
        for s in (c.under_in, c.over_in, c.under_out, c.over_out):
            if not (isinstance(s, int) and 0 <= s < n):
                problems.append("crossing %d uses semiarc %r outside 0..%d" % (idx, s, n - 1))
                return problems
        for s in c.inputs():
            ins[s] = ins.get(s, 0) + 1
        for s in c.outputs():
            outs[s] = outs.get(s, 0) + 1
    for s in range(n):
        if ins.get(s, 0) != 1:
            problems.append("semiarc %d used as input %d times" % (s, ins.get(s, 0)))
        if outs.get(s, 0) != 1:
            problems.append("semiarc %d used as output %d times" % (s, outs.get(s, 0)))
    return problems


# tuple.__new__ builds a Crossing without the Python-level __new__ of a
# NamedTuple, so a batch of them is built at the speed of plain tuples
_crossing_of = partial(tuple.__new__, Crossing)


def _relabelled(signs, labels, name):
    """The diagram of crossings given by their signs and their labels,
    four per crossing in slot order, with the labels compressed to
    0..k-1 in order of first appearance.

    The diagram is valid exactly when the semiarcs 0..2c-1 occur once
    each among the inputs and once each among the outputs; validate
    runs only when that fails, to name the first fault.
    """
    index = dict(zip(dict.fromkeys(labels), range(len(labels))))
    slots = list(map(index.__getitem__, labels))
    crossings = list(map(_crossing_of, zip(
        signs, slots[0::4], slots[1::4], slots[2::4], slots[3::4])))
    semiarcs = list(range(len(slots) // 2))
    valid = (sorted(slots[0::4] + slots[1::4]) == semiarcs
             and sorted(slots[2::4] + slots[3::4]) == semiarcs)
    return LinkDiagram(crossings, name=name, check=not valid)


# the split keeps the sign letter and the body of every term; the body
# runs up to the first "]" since "]" is not one of its characters
_PD_TERM = re.compile(r"X([pm])\s*\[([-\d\s,]*)\]")
_PD_SIGN = {"p": 1, "m": -1}


def _bad_pd_term(text):
    """The error for the first term of a PD string whose body is not four
    comma-separated integers."""
    for m in _PD_TERM.finditer(text):
        fields = m.group(2).split(",")
        try:
            list(map(int, fields))
        except ValueError:
            return ValidationError("bad crossing term %r" % m.group(0))
        if len(fields) != 4:
            return ValidationError("crossing term %r needs 4 labels" % m.group(0))
    raise AssertionError("no bad term in %r" % text)


def parse_pd(text, name=None):
    """Parse a PD string of Xp[...]/Xm[...] terms.

    One split yields the text between the terms and each term's sign
    and body, and one int conversion reads every label.  Only a string
    that fails a check is read again, to name its first bad term.
    """
    parts = _PD_TERM.split(text)
    bodies = parts[2::3]
    if bodies:
        try:
            labels = list(map(int, ",".join(bodies).split(",")))
        except ValueError:
            labels = None
        if labels is None or list(map(str.count, bodies, repeat(","))) != [3] * len(bodies):
            raise _bad_pd_term(text)
    leftover = "".join(parts[::3]).replace(",", " ").strip()
    if leftover:
        raise ValidationError("unrecognized text in PD string: %r" % leftover.split()[0])
    if not bodies:
        raise ValidationError("empty PD string")
    return _relabelled(map(_PD_SIGN.__getitem__, parts[1::3]), labels, name)


def braid_closure(word, strands=None, name=None):
    """Close a braid word, e.g. [1, 1] for the Hopf link.

    Letters are nonzero ints: +i crosses strand i under strand i+1 with
    positive sign, -i crosses strand i+1 under strand i with negative
    sign.  Every strand must take part in at least one crossing, else
    the closure would have a split unknot component.
    """
    if not word:
        raise ValidationError("empty braid word")
    k = strands or (max(abs(x) for x in word) + 1)
    if any(x == 0 or abs(x) >= k for x in word):
        raise ValidationError("braid letters must be nonzero and below strand count")
    if set(range(1, k)) - {abs(x) for x in word}:
        raise ValidationError("unused strand position: closure would be split")
    current = list(range(k))  # semiarc label now occupying each position
    fresh = k
    raw = []
    for letter in word:
        i = abs(letter) - 1
        a, b = current[i], current[i + 1]
        out1, out2 = fresh, fresh + 1
        fresh += 2
        if letter > 0:
            # position i dives under position i+1, the strands swap places
            raw.append((1, a, b, out1, out2))
            current[i], current[i + 1] = out2, out1
        else:
            raw.append((-1, b, a, out1, out2))
            current[i], current[i + 1] = out1, out2
    # closing the braid identifies each final label with its initial one
    relabel = {current[p]: p for p in range(k)}
    labels = [relabel.get(s, s) for _, *arcs in raw for s in arcs]
    word_tag = "".join(("+" if x > 0 else "-") + str(abs(x)) for x in word)
    return _relabelled([sign for sign, *_ in raw], labels, name or "braid" + word_tag)


def pd_string(diagram):
    terms = []
    for c in diagram.crossings:
        kind = "p" if c.sign > 0 else "m"
        terms.append(
            "X%s[%d,%d,%d,%d]" % (kind, c.under_in, c.over_in, c.under_out, c.over_out)
        )
    return " ".join(terms)


_GAUSS_TOKEN = re.compile(r"([OU])\s*(\d+)\s*([+-])", re.IGNORECASE)


def parse_gauss(text, name=None):
    """Parse a Gauss code; see the module docstring for the grammar."""
    comps = [part for part in text.split(";") if part.strip()]
    if not comps:
        raise ValidationError("empty Gauss code")
    # assign semiarc labels around each component
    tokens = []  # (kind, number, sign, in_arc, out_arc)
    base = 0
    for comp in comps:
        found = _GAUSS_TOKEN.findall(comp)
        leftover = _GAUSS_TOKEN.sub("", comp).strip()
        if leftover:
            raise ValidationError("unrecognized text in Gauss code: %r" % leftover)
        if not found:
            raise ValidationError("component %r has no crossings" % comp.strip())
        k = len(found)
        for i, (kind, num, sgn) in enumerate(found):
            in_arc = base + (i - 1) % k
            out_arc = base + i
            tokens.append((kind.upper(), int(num), 1 if sgn == "+" else -1, in_arc, out_arc))
        base += k
    by_number = {}
    for tok in tokens:
        by_number.setdefault(tok[1], []).append(tok)
    crossings = []
    for num in sorted(by_number):
        toks = by_number[num]
        kinds = sorted(t[0] for t in toks)
        if len(toks) != 2 or kinds != ["O", "U"]:
            raise ValidationError(
                "crossing %d must appear exactly once as O and once as U" % num
            )
        o = next(t for t in toks if t[0] == "O")
        u = next(t for t in toks if t[0] == "U")
        if o[2] != u[2]:
            raise ValidationError("crossing %d has conflicting signs" % num)
        crossings.append(
            Crossing(o[2], under_in=u[3], over_in=o[3], under_out=u[4], over_out=o[4])
        )
    return LinkDiagram(crossings, name=name)


def gauss_string(diagram):
    """Serialize as a Gauss code, one token per crossing passage.

    Inverse of parse_gauss up to semiarc relabelling.
    """
    passage = {}
    for idx, c in enumerate(diagram.crossings):
        passage[c.under_in] = ("U", idx + 1, c.sign)
        passage[c.over_in] = ("O", idx + 1, c.sign)
    parts = []
    for cyc in diagram.components():
        toks = []
        for j in range(len(cyc)):
            kind, num, sign = passage[cyc[j - 1]]
            toks.append("%s%d%s" % (kind, num, "+" if sign > 0 else "-"))
        parts.append(" ".join(toks))
    return " ; ".join(parts)


def mirror(diagram, name=None):
    """Switch every crossing: overs become unders and signs flip."""
    out = [
        Crossing(
            -c.sign,
            under_in=c.over_in,
            over_in=c.under_in,
            under_out=c.over_out,
            over_out=c.under_out,
        )
        for c in diagram.crossings
    ]
    return LinkDiagram(out, name=name or _derived_name(diagram, "mirror"))


def reverse_component(diagram, comp_index, name=None):
    """Reverse the orientation of one component.

    Semiarcs on the component swap their in/out roles at each crossing;
    the sign flips when exactly one of the two strands is reversed.
    """
    comp_of = diagram.component_of()
    ncomp = len(diagram.components())
    if not (0 <= comp_index < ncomp):
        raise ValueError("component index %d out of range" % comp_index)
    out = []
    for c in diagram.crossings:
        u_rev = comp_of[c.under_in] == comp_index
        o_rev = comp_of[c.over_in] == comp_index
        sign = -c.sign if (u_rev != o_rev) else c.sign
        ui, uo = (c.under_out, c.under_in) if u_rev else (c.under_in, c.under_out)
        oi, oo = (c.over_out, c.over_in) if o_rev else (c.over_in, c.over_out)
        out.append(Crossing(sign, under_in=ui, over_in=oi, under_out=uo, over_out=oo))
    return LinkDiagram(out, name=name or _derived_name(diagram, "rev%d" % comp_index))


def _derived_name(diagram, suffix):
    return "%s-%s" % (diagram.name, suffix) if diagram.name else None


def _retarget_input(crossings, old_arc, new_arc):
    # redirect the unique crossing consuming old_arc to consume new_arc
    for i, c in enumerate(crossings):
        if c.under_in == old_arc:
            crossings[i] = c._replace(under_in=new_arc)
            return
        if c.over_in == old_arc:
            crossings[i] = c._replace(over_in=new_arc)
            return
    raise ValueError("no crossing consumes semiarc %d" % old_arc)


def r1_kink(diagram, semiarc, sign=1, over_first=False, name=None):
    """Insert a curl on a semiarc; the diagram gains one crossing.

    With over_first=False the walk enters the new crossing on the under
    channel first, otherwise on the over channel first.
    """
    crossings = list(diagram.crossings)
    n = diagram.n_semiarcs
    mid, tail = n, n + 1
    _retarget_input(crossings, semiarc, tail)
    if over_first:
        new = Crossing(sign, under_in=mid, over_in=semiarc, under_out=tail, over_out=mid)
    else:
        new = Crossing(sign, under_in=semiarc, over_in=mid, under_out=mid, over_out=tail)
    crossings.append(new)
    return LinkDiagram(crossings, name=name or _derived_name(diagram, "kink"))


def r2_poke(diagram, under_arc, over_arc, name=None):
    """Push semiarc under_arc beneath over_arc and back: two new crossings."""
    if under_arc == over_arc:
        raise ValueError("poke needs two distinct semiarcs")
    crossings = list(diagram.crossings)
    n = diagram.n_semiarcs
    mid_u, mid_o, tail_u, tail_o = n, n + 1, n + 2, n + 3
    _retarget_input(crossings, under_arc, tail_u)
    _retarget_input(crossings, over_arc, tail_o)
    crossings.append(
        Crossing(1, under_in=under_arc, over_in=over_arc, under_out=mid_u, over_out=mid_o)
    )
    crossings.append(
        Crossing(-1, under_in=mid_u, over_in=mid_o, under_out=tail_u, over_out=tail_o)
    )
    return LinkDiagram(crossings, name=name or _derived_name(diagram, "poke"))
