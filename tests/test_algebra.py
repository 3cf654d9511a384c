import hashlib
import itertools
import math
import random

import pytest

from knotquiver import algebra
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


def reference_check_axioms(under, over):
    """check_axioms as it was before it read flat tables: every lookup
    goes through the u and o closures.  check_axioms must return the
    same messages in the same order."""
    problems = []
    n = len(under)
    for name, table in (("under", under), ("over", over)):
        if len(table) != n:
            problems.append("%s table has %d rows, expected %d" % (name, len(table), n))
            return problems
        for i, row in enumerate(table):
            if len(row) != n:
                problems.append("%s table row %d has length %d" % (name, i + 1, len(row)))
                return problems
            for v in row:
                if not (type(v) is int and 1 <= v <= n):
                    problems.append("%s table entry %r out of range 1..%d" % (name, v, n))
                    return problems

    def u(x, y):
        return under[x - 1][y - 1]

    def o(x, y):
        return over[x - 1][y - 1]

    for x in range(1, n + 1):
        if u(x, x) != o(x, x):
            problems.append(
                "diagonal mismatch at x=%d: under(x,x)=%d, over(x,x)=%d"
                % (x, u(x, x), o(x, x))
            )
    for y in range(1, n + 1):
        if len({u(x, y) for x in range(1, n + 1)}) != n:
            problems.append("under(-, %d) is not a bijection" % y)
        if len({o(x, y) for x in range(1, n + 1)}) != n:
            problems.append("over(-, %d) is not a bijection" % y)
    pair_map = {(u(a, b), o(b, a)) for a in range(1, n + 1) for b in range(1, n + 1)}
    if len(pair_map) != n * n:
        problems.append("crossing map (a,b) -> (under(a,b), over(b,a)) is not a bijection")
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for z in range(1, n + 1):
                if u(u(x, y), u(z, y)) != u(u(x, z), o(y, z)):
                    problems.append("exchange law 1 fails at (%d,%d,%d)" % (x, y, z))
                if o(u(x, y), u(z, y)) != u(o(x, z), o(y, z)):
                    problems.append("exchange law 2 fails at (%d,%d,%d)" % (x, y, z))
                if o(o(x, y), o(z, y)) != o(o(x, z), u(y, z)):
                    problems.append("exchange law 3 fails at (%d,%d,%d)" % (x, y, z))
    return problems




def relabel(table, perm):
    """The table of the same operation with element x renamed perm[x - 1]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x] - 1][perm[y] - 1] = perm[table[x][y] - 1]
    return out


def random_permutation_columns(rng, n):
    # every column a permutation: the bijection checks pass, and the
    # exchange laws are what fails
    cols = [rng.sample(range(1, n + 1), n) for _ in range(n)]
    return [[cols[y][x] for y in range(n)] for x in range(n)]


def constant_action(sigma):
    """under(x, y) = over(x, y) = sigma(x): a biquandle for every
    permutation sigma, and not a quandle unless sigma is the identity."""
    table = [[s] * len(sigma) for s in sigma]
    return Biquandle(table, table, name="constant-%s" % "".join(map(str, sigma)))


def test_check_axioms_matches_reference_on_random_tables():
    bases = [(bq.under_table, bq.over_table) for bq in (
        constant_action([2, 3, 1]), constant_action([2, 1, 4, 3]),
        core_cyclic(3), core_cyclic(4), core_cyclic(5), core_cyclic(6),
        alexander_cyclic(5, 2), alexander_cyclic(5, 3), alexander_cyclic(7, 3),
        trivial_quandle(1), trivial_quandle(2), trivial_quandle(4), swap3(),
        constant_action_biquandle_z2(), conjugation_quandle(s3_mult_table()),
    )]
    rng = random.Random(4096)
    tally = {"valid": 0, "broken": 0, "biquandle": 0}
    for _ in range(2400):
        kind = rng.randrange(5)
        if kind < 2:
            under, over = rng.choice(bases)
            perm = rng.sample(range(1, len(under) + 1), len(under))
            under, over = relabel(under, perm), relabel(over, perm)
            if kind == 1:
                # one to three entries changed, in either table
                for _ in range(rng.randint(1, 3)):
                    table = rng.choice((under, over))
                    n = len(table)
                    table[rng.randrange(n)][rng.randrange(n)] = rng.randint(1, n)
        else:
            n = rng.randint(1, 4)
            if kind == 2:
                under = [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]
            else:
                under = random_permutation_columns(rng, n)
            if rng.random() < 0.5:
                over = [[x + 1] * n for x in range(n)]
            else:
                over = random_permutation_columns(rng, n)
            if kind == 4:
                # shape and range faults
                table = rng.choice((under, over))
                fault = rng.randrange(3)
                if fault == 0:
                    table[rng.randrange(n)][rng.randrange(n)] = rng.choice((0, n + 1, True))
                elif fault == 1:
                    table[rng.randrange(n)].append(1)
                else:
                    table.append([1] * n)
        want = reference_check_axioms(under, over)
        assert check_axioms(under, over) == want
        tally["broken" if want else "valid"] += 1
        if not want and any(o != [x + 1] * len(o) for x, o in enumerate(over)):
            tally["biquandle"] += 1
    assert min(tally.values()) >= 50, tally


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
        # the inverses read the coloring tables, built on first use, not
        # on load
        assert "_coloring_tables" not in vars(bq)
        for x in bq.elements:
            for y in bq.elements:
                assert bq.under(bq.under_inv(x, y), y) == x
                assert bq.over(bq.over_inv(x, y), y) == x
                assert bq.through_inv(*bq.through(x, y)) == (x, y)


def test_quandle_flag():
    assert core_cyclic(3).is_quandle
    assert not constant_action_biquandle_z2().is_quandle


@pytest.mark.parametrize("make", [core_cyclic, trivial_quandle])
@pytest.mark.parametrize("order", [0, -2])
def test_zero_and_negative_orders_rejected(make, order):
    with pytest.raises(ValueError, match="must be positive"):
        make(order)


def test_builtin_lookup():
    assert builtin("core-3") == core_cyclic(3)
    assert builtin("swap3") == swap3()
    assert builtin("flip2") == constant_action_biquandle_z2()
    assert builtin("alexander-5-2") == alexander_cyclic(5, 2)
    with pytest.raises(KeyError):
        builtin("nope-7")
    for name in ("core-0", "trivial-0", "alexander-0-1"):
        with pytest.raises(KeyError, match="^.bad algebra name"):
            builtin(name)


def test_builtin_orders_capped(monkeypatch):
    with pytest.raises(KeyError, match="^.bad algebra name 'core-129': .* cap of 128"):
        builtin("core-129")
    monkeypatch.setattr(algebra, "MAX_BUILTIN_ORDER", 5)
    assert builtin("core-5") == core_cyclic(5)
    assert builtin("alexander-5-2") == alexander_cyclic(5, 2)
    for name in ("core-6", "trivial-6", "alexander-7-3"):
        with pytest.raises(KeyError, match="builtin cap of 5"):
            builtin(name)


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


# every builtin of order up to 21, core-17 to core-21 among them, which
# the depth-first walk of the coloring plan searches
GOLDEN_ENDO_ALGEBRAS = (
    ["swap3", "flip2", "trivial-2", "trivial-3", "trivial-4"]
    + ["core-%d" % m for m in range(3, 22)]
    + ["alexander-5-2", "alexander-5-3", "alexander-7-3", "alexander-7-5",
       "alexander-11-2", "alexander-13-2"]
)
# Hom(X, Y) between different algebras, of equal and different orders
GOLDEN_HOM_PAIRS = (
    ("core-3", "core-6"), ("core-6", "core-3"), ("swap3", "core-3"),
    ("core-4", "swap3"), ("flip2", "trivial-2"), ("trivial-2", "swap3"),
    ("core-5", "alexander-5-2"), ("alexander-5-2", "core-5"),
    ("core-3", "core-18"), ("core-9", "core-3"), ("flip2", "swap3"),
)
# sha256 of the lists above, recorded while homomorphisms still closed a
# partial map by rescanning every known pair
GOLDEN_HOM_DIGEST = "7feb7e9b36c0565b6f48b0299b76e417cc942cf5d914fafbe9ff2b6fd445e84a"


def golden_hom_digest():
    h = hashlib.sha256()
    for name in GOLDEN_ENDO_ALGEBRAS:
        h.update(("%s %r\n" % (name, endomorphisms(builtin(name)))).encode())
    for src, dst in GOLDEN_HOM_PAIRS:
        homs = homomorphisms(builtin(src), builtin(dst))
        h.update(("%s %s %r\n" % (src, dst, homs)).encode())
    return h.hexdigest()


def test_homomorphisms_match_golden_digest():
    assert golden_hom_digest() == GOLDEN_HOM_DIGEST


def brute_force_homomorphisms(src, dst):
    """Every map src -> dst, tried over all dst.n ** src.n of them, that
    keeps both operations as the tables spell them out: f(under(x, y)) =
    under(f x, f y) and f(over(x, y)) = over(f x, f y).  In
    lexicographic order; is_homomorphism is not used."""
    pairs = [
        (x, y, src.under_table[x][y] - 1, src.over_table[x][y] - 1)
        for x in range(src.n) for y in range(src.n)
    ]
    under, over = dst.under_table, dst.over_table
    return [
        f for f in itertools.product(dst.elements, repeat=src.n)
        if all(f[u] == under[f[x] - 1][f[y] - 1] and f[o] == over[f[x] - 1][f[y] - 1]
               for x, y, u, o in pairs)
    ]


def affine_tables():
    """The biquandles under(x, y) = ax + by + e, over(x, y) = cx + dy + f
    on Z_n, n = 2, 3, 4, that check_axioms accepts, without duplicates.
    a and c are units, or under(-, y) and over(-, y) would not be
    bijections."""
    found = {}
    for n in (2, 3, 4):
        units = [t for t in range(n) if math.gcd(t, n) == 1]
        for a, b, c, d, e, f in itertools.product(units, range(n), units, range(n),
                                                  range(n), range(n)):
            under = [[(a * x + b * y + e) % n + 1 for y in range(n)] for x in range(n)]
            over = [[(c * x + d * y + f) % n + 1 for y in range(n)] for x in range(n)]
            key = (str(under), str(over))
            if key not in found and not check_axioms(under, over):
                found[key] = Biquandle(under, over, name="affine-%d-%d%d%d%d%d%d" % (
                    n, a, b, c, d, e, f), check=False)
    return list(found.values())


ORACLE_ALGEBRAS = ("swap3", "flip2", "trivial-2", "trivial-3", "trivial-4", "core-3",
                   "core-4", "core-5", "alexander-5-2", "alexander-5-3")


def test_homomorphisms_match_brute_force():
    algebras = [builtin(name) for name in ORACLE_ALGEBRAS]
    for src in algebras:
        for dst in algebras:
            if dst.n ** src.n <= 1024:
                expected = brute_force_homomorphisms(src, dst)
                assert homomorphisms(src, dst) == expected, (src, dst)
                assert accepted_maps(src, dst) == expected, (src, dst)
    affine = affine_tables()
    assert len(affine) == 52
    rng = random.Random(26)
    for src, dst in zip(rng.sample(affine, 12), rng.sample(affine, 12)):
        for pair in ((src, src), (src, dst)):
            expected = brute_force_homomorphisms(*pair)
            assert homomorphisms(*pair) == expected, pair
            assert accepted_maps(*pair) == expected, pair


def accepted_maps(src, dst):
    """The maps src -> dst that is_homomorphism accepts, among all
    dst.n ** src.n of them, in lexicographic order."""
    return [f for f in itertools.product(dst.elements, repeat=src.n)
            if is_homomorphism(src, dst, f)]


@pytest.mark.parametrize("n", [17, 33])
def test_is_homomorphism_on_list_tables(n):
    # past order 15 the tables are lists of stride n + 1: every affine map
    # x -> ax + b of core-n passes, and fails once one image is changed
    bq = core_cyclic(n)
    for a in range(n):
        for b in range(n):
            f = [(a * x + b) % n + 1 for x in range(n)]
            assert is_homomorphism(bq, bq, f), (a, b)
            x = (a + b) % n
            f[x] = f[x] % n + 1
            assert not is_homomorphism(bq, bq, f), (a, b)


def test_core_endomorphisms_are_the_affine_maps():
    # x -> ax + b for every a and b in Z_n, so n^2 of them; past order 15
    # the depth-first walk searches
    for n in list(range(3, 18)) + [24, 32, 33]:
        affine = {tuple((a * x + b) % n + 1 for x in range(n))
                  for a in range(n) for b in range(n)}
        assert len(affine) == n * n
        assert endomorphisms(core_cyclic(n)) == sorted(affine), n
