import pytest

from knotquiver.algebra import core_cyclic
from knotquiver.diagram import ValidationError, braid_closure, validate
from knotquiver.homset import counting_invariant


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
