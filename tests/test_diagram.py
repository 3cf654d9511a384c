import hashlib
import random
import re

import pytest

from knotquiver import braid_closure
from knotquiver.algebra import core_cyclic
from knotquiver.catalog import catalog_names, get_diagram
from knotquiver.diagram import (
    Crossing,
    LinkDiagram,
    ValidationError,
    mirror,
    parse_gauss,
    parse_pd,
    pd_string,
    r1_kink,
    r2_poke,
    reverse_component,
    validate,
)
from knotquiver.homset import counting_invariant


def virtual_trefoil():
    return parse_gauss("O1+ O2+ U1+ U2+")


def test_parse_pd_roundtrip():
    d = parse_pd("Xp[0,7,1,4] Xp[6,1,7,2] Xp[2,5,3,6] Xp[4,3,5,0]")
    assert len(d.crossings) == 4
    assert parse_pd(pd_string(d)).crossings == d.crossings


def test_parse_pd_compresses_labels():
    d = parse_pd("Xp[10,30,20,40] Xp[20,40,10,30]")
    assert d.crossings[0] == Crossing(1, 0, 1, 2, 3)
    assert d.crossings[1] == Crossing(1, 2, 3, 0, 1)


def test_parse_pd_errors():
    with pytest.raises(ValidationError):
        parse_pd("")
    with pytest.raises(ValidationError):
        parse_pd("Xp[1,2,3]")
    with pytest.raises(ValidationError):
        parse_pd("Xq[1,2,3,4]")
    with pytest.raises(ValidationError):
        # semiarc 0 consumed twice
        parse_pd("Xp[0,0,1,2] Xp[1,2,3,3]")


TREFOIL_PD = "Xp[0,7,1,4] Xp[6,1,7,2] Xp[2,5,3,6] Xp[4,3,5,0]"


@pytest.mark.parametrize("text, message", [
    ("", "empty PD string"),
    ("Xp[1,2,3]", "crossing term 'Xp[1,2,3]' needs 4 labels"),
    ("Xp[1,-,2,3]", "bad crossing term 'Xp[1,-,2,3]'"),
    ("Xq[1,2,3,4]", "unrecognized text in PD string: 'Xq[1'"),
    (TREFOIL_PD + " junk", "unrecognized text in PD string: 'junk'"),
    ("Xp[0,0,1,2] Xp[1,2,3,3]", "semiarc 0 used as input 2 times"),
    # a bad term is named before any stray text, the first bad term first
    ("junk Xp[1,2,3,4] Xp[1,2] Xp[x]", "crossing term 'Xp[1,2]' needs 4 labels"),
    ("Xp[1,2,3,4,] Xp[1,2]", "bad crossing term 'Xp[1,2,3,4,]'"),
    # a short term and a long one together hold 8 labels
    ("Xp[1,2,3] Xp[4,3,4,1,2]", "crossing term 'Xp[1,2,3]' needs 4 labels"),
    (" , ", "empty PD string"),
])
def test_parse_pd_error_texts(text, message):
    with pytest.raises(ValidationError) as info:
        parse_pd(text)
    assert str(info.value) == message


# the term-by-term parser that parse_pd replaced, kept as its oracle
_REFERENCE_TERM = re.compile(r"X([pm])\s*\[\s*([-\d\s,]*?)\s*\]")


def reference_parse_pd(text, name=None):
    raw = []
    for m in _REFERENCE_TERM.finditer(text):
        sign = 1 if m.group(1) == "p" else -1
        try:
            parts = [int(p) for p in m.group(2).split(",")]
        except ValueError:
            raise ValidationError("bad crossing term %r" % m.group(0))
        if len(parts) != 4:
            raise ValidationError("crossing term %r needs 4 labels" % m.group(0))
        raw.append((sign, *parts))
    leftover = _REFERENCE_TERM.sub("", text).replace(",", " ").strip()
    if leftover:
        raise ValidationError("unrecognized text in PD string: %r" % leftover.split()[0])
    if not raw:
        raise ValidationError("empty PD string")
    seen = {}
    for sign, a, b, c, d in raw:
        for label in (a, b, c, d):
            if label not in seen:
                seen[label] = len(seen)
    out = [
        Crossing(sign, seen[a], seen[b], seen[c], seen[d])
        for sign, a, b, c, d in raw
    ]
    return LinkDiagram(out, name=name)


def parse_outcome(parse, text):
    try:
        return parse(text).crossings
    except ValidationError as exc:
        return "error: %s" % exc


SPACES = ["", " ", "  ", "\t", "\n"]
SEPARATORS = [" ", ",", ", ", " , ", ",,", "\n", "\t", ""]


def random_braid_word(rng):
    strands = rng.randint(2, 5)
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 40))]
    return word + [k for k in range(1, strands) if k not in map(abs, word)]


def restyled_pd(rng, d):
    """A PD string of d with fresh labels, shuffled terms and varied
    whitespace and separators."""
    pool = rng.sample(range(-10**4, 10**4), d.n_semiarcs)
    if rng.random() < 0.3:
        pool = [x * 10**30 + rng.randint(-9, 9) for x in pool]
    terms = []
    for c in d.crossings:
        labels = [pool[s] for s in (c.under_in, c.over_in, c.under_out, c.over_out)]
        body = ",".join(rng.choice(SPACES) + str(x) + rng.choice(SPACES) for x in labels)
        terms.append("X%s%s[%s]" % ("p" if c.sign > 0 else "m", rng.choice(SPACES), body))
    rng.shuffle(terms)
    text = rng.choice(SPACES)
    for term in terms:
        text += term + rng.choice(SEPARATORS)
    return text


def corrupted(rng, text):
    """text with one character dropped, inserted or replaced."""
    at = rng.randrange(len(text) + 1)
    char = rng.choice("Xpm[]-,5 x")
    kind = rng.randrange(3)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + char + text[at:]
    return text[:at] + char + text[at + 1:]


def test_parse_pd_matches_the_term_by_term_parser():
    rng = random.Random(23)
    messages = []
    for _ in range(300):
        text = restyled_pd(rng, braid_closure(random_braid_word(rng)))
        if rng.random() < 0.5:
            text = corrupted(rng, text)
        expected = parse_outcome(reference_parse_pd, text)
        assert parse_outcome(parse_pd, text) == expected, text
        if isinstance(expected, str):
            messages.append(expected)
    # the corruptions reach every kind of error but the empty string
    for kind in ("unrecognized text", "bad crossing term", "needs 4 labels", "uses semiarc"):
        assert any(kind in message for message in messages)


def test_parse_pd_rejects_exactly_what_validate_rejects():
    rng = random.Random(29)
    rejected = 0
    for _ in range(300):
        d = braid_closure(random_braid_word(rng))
        crossings = list(d.crossings)
        k = rng.randrange(len(crossings))
        slot = rng.randrange(1, 5)
        values = list(crossings[k])
        values[slot] = rng.randrange(d.n_semiarcs + 1)
        crossings[k] = Crossing(*values)
        problems = validate(LinkDiagram(crossings, check=False))
        text = pd_string(LinkDiagram(crossings, check=False))
        outcome = parse_outcome(parse_pd, text)
        assert outcome == parse_outcome(reference_parse_pd, text)
        assert isinstance(outcome, str) == bool(problems)
        rejected += bool(problems)
    assert 200 < rejected < 300


def test_crossing_is_an_immutable_record():
    c = Crossing(-1, 4, 5, 6, 7)
    assert c == Crossing(sign=-1, under_in=4, over_in=5, under_out=6, over_out=7)
    assert c == Crossing(-1, 4, over_in=5, under_out=6, over_out=7)
    assert (c.sign, c.under_in, c.over_in, c.under_out, c.over_out) == (-1, 4, 5, 6, 7)
    assert c.inputs() == (4, 5)
    assert c.outputs() == (6, 7)
    assert c != Crossing(1, 4, 5, 6, 7)
    assert hash(c) == hash(Crossing(-1, 4, 5, 6, 7))
    assert len({c, Crossing(-1, 4, 5, 6, 7), Crossing(-1, 4, 5, 7, 6)}) == 2
    for field in ("sign", "under_in", "over_out"):
        with pytest.raises(AttributeError):
            setattr(c, field, 0)
    with pytest.raises(TypeError):
        Crossing(1, 2, 3, 4)


def test_moves_on_the_catalog_stay_valid():
    for link in catalog_names():
        d = get_diagram(link)
        last = d.n_semiarcs - 1
        for sign in (1, -1):
            for over_first in (False, True):
                assert validate(r1_kink(d, last, sign=sign, over_first=over_first)) == []
        poked = r2_poke(d, 0, last)
        assert validate(poked) == []
        # the crossings that consumed 0 and last now consume the new tails
        assert 1 <= sum(a != b for a, b in zip(poked.crossings, d.crossings)) <= 2
        assert all(type(c) is Crossing for c in poked.crossings)


def test_parse_gauss_virtual_trefoil():
    d = virtual_trefoil()
    assert len(d.crossings) == 2
    assert d.crossings[0] == Crossing(1, under_in=1, over_in=3, under_out=2, over_out=0)
    assert d.crossings[1] == Crossing(1, under_in=2, over_in=0, under_out=3, over_out=1)
    assert len(d.components()) == 1


def test_parse_gauss_multicomponent():
    # Hopf link as a two-component Gauss code
    d = parse_gauss("O1+ U2+ ; U1+ O2+")
    assert len(d.crossings) == 2
    assert len(d.components()) == 2


def test_parse_gauss_errors():
    with pytest.raises(ValidationError):
        parse_gauss("O1+ U1+ O2+")
    with pytest.raises(ValidationError):
        parse_gauss("O1+ O1+ ")
    with pytest.raises(ValidationError):
        parse_gauss("O1+ U1- ")
    with pytest.raises(ValidationError):
        parse_gauss("O1+ banana U1+")


def test_validate_catches_bad_wiring():
    problems = validate(LinkDiagram([Crossing(1, 0, 1, 2, 3), Crossing(1, 0, 1, 2, 3)], check=False))
    assert problems


def test_mirror_is_involution_and_flips_signs():
    d = virtual_trefoil()
    m = mirror(d)
    assert [c.sign for c in m.crossings] == [-1, -1]
    assert mirror(m).crossings == d.crossings


def test_reverse_component_on_knot_keeps_writhe():
    t = braid_closure([1, 1, 1])
    r = reverse_component(t, 0)
    assert r.writhe == t.writhe == 3
    assert len(r.components()) == 1


def test_reverse_component_on_hopf_flips_writhe():
    h = braid_closure([1, 1])
    assert h.writhe == 2
    r = reverse_component(h, 1)
    assert r.writhe == -2
    assert reverse_component(r, 1).writhe == 2


def test_components_counts():
    assert len(braid_closure([1, 1]).components()) == 2
    assert len(braid_closure([1, 1, 1]).components()) == 1
    assert len(braid_closure([1, -2, 1, -2, 1, -2]).components()) == 3


def test_r1_kink_shapes():
    t = braid_closure([1, 1, 1])
    for over_first in (False, True):
        for sign in (1, -1):
            k = r1_kink(t, 2, sign=sign, over_first=over_first)
            assert len(k.crossings) == 4
            assert validate(k) == []
            assert len(k.components()) == 1
            assert k.writhe == t.writhe + sign


def test_r2_poke_shapes():
    h = braid_closure([1, 1])
    comp = h.component_of()
    # poke a strand of one component under the other
    arcs = sorted(comp)
    a = next(s for s in arcs if comp[s] == 0)
    b = next(s for s in arcs if comp[s] == 1)
    p = r2_poke(h, a, b)
    assert len(p.crossings) == 4
    assert validate(p) == []
    assert len(p.components()) == 2
    assert p.writhe == h.writhe
    with pytest.raises(ValueError):
        r2_poke(h, a, a)


def test_gauss_string_round_trip():
    from knotquiver.diagram import gauss_string

    cases = [
        parse_gauss("O1+ O2+ U1+ U2+"),
        braid_closure([1, 1, 1]),
        braid_closure([1, -2, 1, -2]),
    ]
    for d in cases:
        d2 = parse_gauss(gauss_string(d))
        assert len(d2.crossings) == len(d.crossings)
        assert sorted(c.sign for c in d2.crossings) == sorted(c.sign for c in d.crossings)
        assert [len(c) for c in d2.components()] == [len(c) for c in d.components()]
        assert gauss_string(d2) == gauss_string(d)


# sha256 of braid_closure's PD string and name, or its error text, on
# seeded words; recorded before braid_closure moved from its own module
# into diagram.py.  Any change to its labels, signs, names or messages
# changes it.
GOLDEN_BRAID_WORDS = 3000
GOLDEN_BRAID_DIGEST = "d6fff642cc3544779bffa886230b2afb3ca24e00760caf741741d25a3b1ccf3d"


def golden_braid_words(rng):
    for _ in range(GOLDEN_BRAID_WORDS):
        k = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, k - 1) for _ in range(rng.randint(0, 20))]
        if word and rng.random() < 0.05:
            # a zero or out-of-range letter, which must be rejected
            word[rng.randrange(len(word))] = rng.choice((0, k, -k))
        strands = k if rng.random() < 0.5 else None
        name = "w%d" % rng.randint(0, 99) if rng.random() < 0.2 else None
        yield word, strands, name


def golden_braid_digest():
    h = hashlib.sha256()
    for word, strands, name in golden_braid_words(random.Random(16)):
        try:
            d = braid_closure(word, strands=strands, name=name)
            line = "%s|%s" % (pd_string(d), d.name)
        except ValidationError as err:
            line = "error: %s" % err
        h.update(("%r %r %r -> %s\n" % (word, strands, name, line)).encode())
    return h.hexdigest()


def test_braid_closure_matches_golden_digest():
    assert golden_braid_digest() == GOLDEN_BRAID_DIGEST


def test_braid_closure_basics():
    h = braid_closure([1, 1])
    assert len(h.crossings) == 2
    assert len(h.components()) == 2
    assert h.writhe == 2
    assert validate(h) == []
    t = braid_closure([-1, -1, -1])
    assert t.writhe == -3
    assert len(t.components()) == 1


def test_braid_closure_rejects_bad_words():
    with pytest.raises(ValidationError):
        braid_closure([])
    with pytest.raises(ValidationError):
        braid_closure([1, 0])
    with pytest.raises(ValidationError):
        # strand 3 never crosses: split closure
        braid_closure([1, 1], strands=3)


def test_figure_eight_counts():
    f8 = braid_closure([1, -2, 1, -2])
    assert len(f8.components()) == 1
    assert counting_invariant(f8, core_cyclic(5)) == 25
    assert counting_invariant(f8, core_cyclic(3)) == 3
