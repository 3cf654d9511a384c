import itertools

import pytest

from knotquiver.algebra import (
    Biquandle,
    alexander_cyclic,
    builtin,
    check_axioms,
    constant_action_biquandle_z2,
    core_cyclic,
    endomorphisms,
    homomorphisms,
    is_homomorphism,
    quandle,
    swap3,
    trivial_quandle,
)


def conjugation_quandle(mult, name=None):
    """Conjugation quandle x . y = y^-1 x y of a group given by its table."""
    n = len(mult)
    inv = [0] * n
    for x in range(n):
        for y in range(n):
            if mult[x][y] == 1:
                inv[x] = y + 1
    def times(a, b):
        return mult[a - 1][b - 1]
    under = [
        [times(times(inv[y - 1], x), y) for y in range(1, n + 1)]
        for x in range(1, n + 1)
    ]
    return quandle(under, name=name or "conj-%d" % n)


def s3_mult_table():
    perms = list(itertools.permutations(range(3)))
    index = {p: i + 1 for i, p in enumerate(perms)}
    def comp(p, q):
        return tuple(p[q[i]] for i in range(3))
    return [[index[comp(p, q)] for q in perms] for p in perms]


def test_axioms_pass_for_known_algebras():
    for bq in (
        core_cyclic(3),
        core_cyclic(4),
        swap3(),
        constant_action_biquandle_z2(),
        alexander_cyclic(5, 2),
        trivial_quandle(4),
        conjugation_quandle(s3_mult_table()),
    ):
        assert check_axioms(bq.under_table, bq.over_table) == []


def test_axioms_fail_for_mutations():
    base = core_cyclic(3)
    # break bijectivity
    bad = [row[:] for row in base.under_table]
    bad[0][1] = bad[1][1]
    assert check_axioms(bad, base.over_table)
    # break the diagonal
    bad = [row[:] for row in base.under_table]
    bad[0][0] = 2
    msgs = check_axioms(bad, base.over_table)
    assert any("diagonal" in m for m in msgs)
    # break an exchange law while keeping rows bijective: swap two columns
    bad = [[row[1], row[0], row[2]] for row in base.under_table]
    msgs = check_axioms(bad, base.over_table)
    assert msgs
    with pytest.raises(ValueError):
        Biquandle(bad, base.over_table)


def test_entry_range_checked():
    msgs = check_axioms([[1, 2], [9, 1]], [[1, 1], [2, 2]])
    assert any("out of range" in m for m in msgs)


@pytest.mark.parametrize("entry", [True, 1.0])
def test_non_integer_entry_rejected(entry):
    # both equal 1, but neither is an integer entry
    msgs = check_axioms([[1, 2], [2, entry]], [[1, 1], [2, 2]])
    assert msgs == ["under table entry %r out of range 1..2" % entry]


def test_inverses_and_through_map():
    for bq in (core_cyclic(5), swap3(), constant_action_biquandle_z2()):
        for x in bq.elements:
            for y in bq.elements:
                assert bq.under(bq.under_inv(x, y), y) == x
                assert bq.over(bq.over_inv(x, y), y) == x
                assert bq.through_inv(*bq.through(x, y)) == (x, y)


def test_quandle_flag():
    assert core_cyclic(3).is_quandle
    assert not constant_action_biquandle_z2().is_quandle


def test_builtin_lookup():
    assert builtin("core-3") == core_cyclic(3)
    assert builtin("swap3") == swap3()
    assert builtin("flip2") == constant_action_biquandle_z2()
    assert builtin("alexander-5-2") == alexander_cyclic(5, 2)
    with pytest.raises(KeyError):
        builtin("nope-7")


def test_homset_core3_exhaustive():
    q = core_cyclic(3)
    homs = homomorphisms(q, q)
    # brute-force oracle over all 27 maps
    expected = []
    for images in itertools.product(q.elements, repeat=3):
        if is_homomorphism(q, q, images):
            expected.append(images)
    assert homs == sorted(expected)
    assert len(homs) == 9
    constants = [h for h in homs if len(set(h)) == 1]
    bijections = [h for h in homs if len(set(h)) == 3]
    assert len(constants) == 3
    assert len(bijections) == 6
    assert len(constants) + len(bijections) == len(homs)


def test_endomorphisms_of_swap3():
    endos = endomorphisms(swap3())
    assert (2, 2, 1) in endos
    for f in endos:
        assert is_homomorphism(swap3(), swap3(), f)


def test_is_homomorphism_rejects_images_outside_the_algebra():
    # 9 is no element of swap3, so the map is not one, whatever the tables say
    assert not is_homomorphism(swap3(), swap3(), (1, 2, 9))
    assert not is_homomorphism(swap3(), swap3(), (0, 2, 1))


def test_endomorphisms_of_trivial():
    assert len(endomorphisms(trivial_quandle(2))) == 4
