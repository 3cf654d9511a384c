"""End-to-end value checks for every advertised capability.

Three published claims are kept here verbatim as named constants, and
each is asserted to be false by an argument carried out in the test
itself, independent of the function under test:

* 4b: the two integral evaluation vectors of the order-4 core quandle
  are not independent in H^2; their difference is the coboundary of
  the indicator 1-cochain of element 1.
* 4c: two of the three published order-3 evaluation vectors break the
  mod-3 2-cocycle identity, each at listed triples.
* 7: the published edge-polynomial pair of the first batch example
  breaks the entry-mass and trace relations every edge pair obeys;
  the path pair is matched exactly.

Each test also asserts that the program agrees with the refutation.
"""

import itertools
import random
import re
from collections import Counter
from functools import lru_cache

from knotquiver.algebra import (
    Biquandle,
    check_axioms,
    constant_action_biquandle_z2,
    core_cyclic,
    swap3,
)
from knotquiver.catalog import catalog_names, get_diagram
from knotquiver.cohomology import (
    CoeffGroup,
    boundary_matrices,
    coboundary_generators,
    cocycle_invariant,
    h2_generators,
    is_coboundary,
    is_cocycle,
)
from knotquiver.diagram import mirror, r1_kink, r2_poke
from knotquiver.homset import chain_vector, colorings, counting_invariant, pair_basis
from knotquiver.polynomials import (
    GroupExponentPolynomial,
    char_poly,
    edge_char_polynomial,
    edge_matrix_polynomial,
    maximal_paths,
    path_char_polynomial,
    path_matrix_polynomial,
    specialize,
)
from knotquiver.quiver import DataVector, build_representation, quiver_isomorphic

from test_polynomials import dense

Z = CoeffGroup(0)
Z3 = CoeffGroup(3)

SWAP3_VECTORS = [
    [0, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
]
CORE4_VECTORS = [
    [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
]
FLIP2_VECTORS = [[1, 0], [0, 1]]

# chain vectors of the 16 core-4 colorings of L4a1 (criterion 2)
L4A1_CORE4_CHAINS = (
    [(0,) * 12] * 4
    + [(1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1)] * 4
    + [(0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0)] * 4
    + [(0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0)] * 2
    + [(0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0)] * 2
)


@lru_cache(maxsize=None)
def classical_data():
    return DataVector(swap3(), Z3, tuple(map(tuple, SWAP3_VECTORS)), ((2, 2, 1),))


@lru_cache(maxsize=None)
def virtual_data():
    return DataVector(
        constant_action_biquandle_z2(), Z3, tuple(map(tuple, FLIP2_VECTORS)),
        ((1, 2), (2, 1)),
    )


@lru_cache(maxsize=None)
def first_batch_data():
    return DataVector(core_cyclic(4), Z3, tuple(map(tuple, CORE4_VECTORS)),
                      ((2, 4, 2, 4), (1, 1, 1, 1)))


def four_strings(diagram, data):
    rq = build_representation(diagram, data)
    return (
        edge_char_polynomial(rq).render(),
        edge_matrix_polynomial(rq).render(),
        path_char_polynomial(rq).render(),
        path_matrix_polynomial(rq).render(),
    )


# 1. coloring count of the four-crossing two-component link


def test_criterion_01_homset_count():
    assert counting_invariant(get_diagram("L4a1"), core_cyclic(4)) == 16


# 2. multiset of chain vectors in the lexicographic pair basis


def test_criterion_02_chain_multiset():
    d = get_diagram("L4a1")
    bq = core_cyclic(4)
    chains = sorted(tuple(chain_vector(d, bq, c)) for c in colorings(d, bq))
    assert chains == sorted(L4A1_CORE4_CHAINS)


# 3. state-sum polynomial of the first integral cocycle


def test_criterion_03_cocycle_invariant():
    poly = cocycle_invariant(get_diagram("L4a1"), core_cyclic(4), Z, CORE4_VECTORS[0])
    assert poly.render() == "8+8q"
    assert specialize(poly, ones=("q",)).render() == "16"


# 4a. order-2 biquandle: zero differentials, free rank-2 cohomology


def test_criterion_04a_flip2_cohomology():
    bq = constant_action_biquandle_z2()
    d2, d3 = boundary_matrices(bq)
    assert all(v == 0 for row in d2 for v in row)
    assert all(v == 0 for row in d3 for v in row)
    for m in (2, 3, 5):
        assert h2_generators(bq, CoeffGroup(m)) == [(m, [1, 0]), (m, [0, 1])]


# 4b. the two integral vectors are cocycles and not coboundaries, but the
# published claim that their classes in H^2(core-4; Z) are independent is
# false.  With the indicator 1-cochain chi_1 of element 1 and
# (delta f)(x, y) = f(x) - f(x . y), x . y = 2y - x mod 4, the difference
# v1 - v2 equals delta chi_1: +1 on (1,2) and (1,4), -1 on (3,2) and (3,4),
# 0 elsewhere.  So v1 and v2 are one class.

CORE4_PUBLISHED_INDEPENDENT = True


def test_criterion_04b_core4_independence():
    bq = core_cyclic(4)
    v1, v2 = CORE4_VECTORS
    for v in (v1, v2):
        assert is_cocycle(bq, Z, v)
        assert not is_coboundary(bq, Z, v)

    def chi1(x):
        return int(x == 1)

    delta_chi1 = [chi1(x) - chi1(bq.under(x, y)) for x, y in pair_basis(bq)]
    support = {p: c for p, c in zip(pair_basis(bq), delta_chi1) if c}
    assert support == {(1, 2): 1, (1, 4): 1, (3, 2): -1, (3, 4): -1}
    diff = [a - b for a, b in zip(v1, v2)]
    assert diff == delta_chi1
    independent = not is_coboundary(bq, Z, diff)
    assert independent != CORE4_PUBLISHED_INDEPENDENT, (
        "v1 - v2 is the coboundary of chi_1, so the two vectors are one class"
    )


# 4c. the published claim is that all three SWAP3_VECTORS are mod-3
# 2-cocycles: phi(x,y) + phi(x.y, z) = phi(x,z) + phi(x.z, y.z) for every
# triple.  Only the first is.  Vector 3 is phi(3,2) = 1 and 0 elsewhere;
# at (3,1,3) the left side is phi(3,1) + phi(3,3) = 0 but the right side is
# phi(3,3) + phi(3, 1.3) = phi(3,2) = 1.  The test checks the identity over
# all 27 triples and pins the failing ones.

SWAP3_FAILING_TRIPLES = [
    [],
    [(1, 2, 3), (1, 3, 1), (2, 1, 3), (2, 3, 1)],
    [(3, 1, 3), (3, 2, 3)],
]


def quandle_cocycle_failures(bq, modulus, vec):
    """Triples (x, y, z) at which the quandle 2-cocycle identity fails."""
    phi = dict(zip(pair_basis(bq), vec))

    def ev(x, y):
        return phi.get((x, y), 0)  # degenerate pairs (x, x) carry 0

    u = bq.under
    return [
        (x, y, z)
        for x, y, z in itertools.product(bq.elements, repeat=3)
        if (ev(x, y) + ev(u(x, y), z) - ev(x, z) - ev(u(x, z), u(y, z))) % modulus
    ]


def test_criterion_04c_swap3_cocycles():
    bq = swap3()
    assert bq.is_quandle
    for i, (vec, want) in enumerate(zip(SWAP3_VECTORS, SWAP3_FAILING_TRIPLES)):
        bad = quandle_cocycle_failures(bq, 3, vec)
        assert bad == want, "vector %d fails at %r" % (i + 1, bad)
        assert is_cocycle(bq, Z3, vec) == (not bad), "vector %d" % (i + 1)


# 5. the worked representation: exact arrow matrices and subspace labels


def test_criterion_05_worked_representation():
    rq = build_representation(get_diagram("L4a1"), classical_data())
    assert len(rq.vertices) == 9
    mats = sorted(tuple(map(tuple, dense(mat, 3))) for _, _, mat in rq.edges)
    leaf = ((0, 1, 1), (0, 0, 0), (1, 0, 0))
    mid = ((2, 0, 1), (0, 0, 0), (0, 0, 0))
    const = ((3, 0, 0), (0, 0, 0), (0, 0, 0))
    assert mats == sorted([leaf] * 4 + [mid] * 2 + [const] * 3)
    assert {(0, 1, 2), (0, 2)} <= set(rq.subspaces)


# 6. the four polynomials of the worked example, plus its path census


def test_criterion_06_four_polynomials():
    rq = build_representation(get_diagram("L4a1"), classical_data())
    assert edge_char_polynomial(rq).render() == "9t^3-13t^2-4t"
    assert edge_matrix_polynomial(rq).render() == "4x^2+6y^2+4y+13"
    assert path_char_polynomial(rq).render() == "5s^3t^3-39s^3t^2"
    assert path_matrix_polynomial(rq).render() == "24x^2z^3+24xz^3+39z^3"
    paths = maximal_paths(rq)
    assert len(paths) == 5
    assert all(len(p) == 3 for p in paths)


# 7. first batch example: core-4 over Z_3 with both CORE4_VECTORS and the
# endomorphisms (2,4,2,4) and (1,1,1,1).  The path pair matches the
# published values exactly.  The published edge pair contradicts itself.
# Every arrow matrix is 3x3 with entry mass 2 (one unit per vector), and
# there are 16 colorings x 2 endomorphisms = 32 arrows, so the matrix
# polynomial at x = y = 1 must be 64, not 35.  Minus the t^2 coefficient of
# the char polynomial is the sum of the traces, which must equal the sum of
# the diagonal (x^j y^j) coefficients of the matrix polynomial: 30 against
# 32.  The true pair follows from the criterion-2 chains: the endomorphism
# images are colorings by {2, 4} or by {1}, whose chains vanish on both
# vectors, so every arrow matrix lives in row 0 and only the source labels
# vary.

PUBLISHED_EDGE_PAIR = ("32t^3-30t^2", "3y+32")


def poly_terms(text):
    """A rendered polynomial as {((var, exp), ...): coefficient}."""
    out = {}
    for term in re.split(r"(?=[+-])", text):
        if not term:
            continue
        sign, digits, mono = re.fullmatch(r"([+-]?)(\d*)((?:[a-z](?:\^\d+)?)*)", term).groups()
        key = tuple((v, int(e or 1)) for v, e in re.findall(r"([a-z])(?:\^(\d+))?", mono))
        out[key] = out.get(key, 0) + (-1 if sign == "-" else 1) * int(digits or 1)
    return out


def edge_pair_relations(char_text, matrix_text, arrows, vectors):
    """Whether an edge pair obeys the (mass, trace) relations.

    mass: the matrix polynomial at x = y = 1 is arrows x vectors;
    trace: minus the t^2 coefficient of the 3x3 char polynomials equals
    the sum of the diagonal x^j y^j coefficients.
    """
    char, mat = poly_terms(char_text), poly_terms(matrix_text)
    diagonal = sum(
        c for k, c in mat.items() if dict(k).get("x", 0) == dict(k).get("y", 0)
    )
    return (
        sum(mat.values()) == arrows * vectors,
        -char.get((("t", 2),), 0) == diagonal,
    )


def test_criterion_07_first_batch_example():
    data = first_batch_data()
    chi_e, pm_e, chi_p, pm_p = four_strings(get_diagram("L4a1"), data)
    assert chi_p == "60s^7t^3-1536s^7t^2+22s^6t^3-384s^6t^2+16s^5t^3+22s^4t^3-96s^4t^2"
    assert pm_p == "6144xz^7+1024xz^6+512xz^5+256xz^4+1536z^7+384z^6+96z^4"

    m, nvec, nendo = data.coeff.modulus, len(data.vectors), len(data.endos)
    arrows = len(L4A1_CORE4_CHAINS) * nendo
    assert edge_pair_relations(*PUBLISHED_EDGE_PAIR, arrows, nvec) == (False, False)
    assert edge_pair_relations(chi_e, pm_e, arrows, nvec) == (True, True)

    # every target coloring uses the colors of one endomorphism image, and
    # both vectors vanish on every pair of such colors
    index = {p: i for i, p in enumerate(pair_basis(data.algebra))}
    for endo in data.endos:
        for pair in itertools.permutations(set(endo), 2):
            assert all(vec[index[pair]] == 0 for vec in data.vectors)
    # so each arrow matrix M is zero outside row 0, M[0][label] counts the
    # source labels, det(tI - M) = t^2 (t - M[0][0]) and its matrix terms
    # are M[0][k] y^k
    char, mat = Counter(), Counter()
    for chain in L4A1_CORE4_CHAINS:
        row0 = Counter(sum(a * b for a, b in zip(vec, chain)) % m for vec in data.vectors)
        char[(("t", 3),)] += nendo
        char[(("t", 2),)] -= nendo * row0[0]
        for k, c in row0.items():
            mat[(("y", k),) if k else ()] += nendo * c
    assert poly_terms(chi_e) == {k: c for k, c in char.items() if c}
    assert poly_terms(pm_e) == {k: c for k, c in mat.items() if c}
    assert (chi_e, pm_e) != PUBLISHED_EDGE_PAIR


# 8. both classical tables, all 18 rows.  Vectors 2 and 3 of SWAP3_VECTORS
# are the non-cocycles of 4c, so these rows pin values of the catalog
# diagrams, not link invariants.


CLASSICAL_TABLE = {
    "L2a1": ("5t^3-13t^2", "2y+13",
             "s^3t^3-27s^3t^2+2s^2t^3-12s^2t^2", "6xz^2+27z^3+12z^2"),
    "L4a1": ("9t^3-13t^2-4t", "4x^2+6y^2+4y+13",
             "5s^3t^3-39s^3t^2", "24x^2z^3+24xz^3+39z^3"),
    "L5a1": ("9t^3-24t^2", "2y^2+y+24",
             "5s^3t^3-108s^3t^2", "18x^2z^3+9xz^3+108z^3"),
    "L6a1": ("9t^3-15t^2-2t", "2x^2y^2+2x^2+6y^2+4y+13",
             "5s^3t^3-33s^3t^2", "30x^2z^3+24xz^3+33z^3"),
    "L6a2": ("5t^3-15t^2", "15",
             "s^3t^3-27s^3t^2+2s^2t^3-18s^2t^2", "27z^3+18z^2"),
    "L6a3": ("5t^3-15t^2", "15",
             "s^3t^3-27s^3t^2+2s^2t^3-18s^2t^2", "27z^3+18z^2"),
    "L6a4": ("27t^3-69t^2", "6y^2+6y+69",
             "19s^3t^3-405s^3t^2", "54x^2z^3+54xz^3+405z^3"),
    "L6a5": ("15t^3-21t^2-6t", "6x^2+12y^2+6y+21",
             "7s^3t^3-45s^3t^2+3s^2t^3-18s^2t^2",
             "36x^2z^3+9x^2z^2+36xz^3+45z^3+18z^2"),
    "L6n1": ("15t^3-24t^2-9t", "6x^2+15y^2+24",
             "7s^3t^3-63s^3t^2+3s^2t^3-18s^2t^2",
             "54x^2z^3+9x^2z^2+63z^3+18z^2"),
    "L7a1": ("9t^3-24t^2", "y^2+2y+24",
             "5s^3t^3-108s^3t^2", "9x^2z^3+18xz^3+108z^3"),
    "L7a2": ("9t^3-13t^2-2t", "2x^2y+2x^2+6y^2+4y+13",
             "5s^3t^3-33s^3t^2", "24x^2z^3+30xz^3+33z^3"),
    "L7a3": ("9t^3-23t^2", "2y^2+2y+23",
             "5s^3t^3-99s^3t^2", "18x^2z^3+18xz^3+99z^3"),
    "L7a4": ("9t^3-23t^2", "2y^2+2y+23",
             "5s^3t^3-99s^3t^2", "18x^2z^3+18xz^3+99z^3"),
    "L7a5": ("5t^3-13t^2", "2y+13",
             "s^3t^3-27s^3t^2+2s^2t^3-12s^2t^2", "6xz^2+27z^3+12z^2"),
    "L7a6": ("5t^3-13t^2", "2y+13",
             "s^3t^3-27s^3t^2+2s^2t^3-12s^2t^2", "6xz^2+27z^3+12z^2"),
    "L7a7": ("15t^3-34t^2-2t", "2x^2+6y^2+3y+34",
             "7s^3t^3-114s^3t^2+3s^2t^3-24s^2t^2",
             "30x^2z^3+3x^2z^2+21xz^3+114z^3+24z^2"),
    "L7n1": ("9t^3-15t^2-3t", "xy^2+xy+2x+2y^2+7y+14",
             "5s^3t^3-39s^3t^2", "15x^2z^3+33xz^3+39z^3"),
    "L7n2": ("9t^3-25t^2", "2y+25",
             "5s^3t^3-117s^3t^2", "18xz^3+117z^3"),
}


def test_criterion_08_classical_tables():
    for name, expected in CLASSICAL_TABLE.items():
        got = four_strings(get_diagram(name), classical_data())
        assert got == expected, "%s: %r" % (name, got)


# 9. virtual knots: the two-crossing values, mirror detection, and the
# three-class split of the three-crossing table


def test_criterion_09_virtual_values():
    d = get_diagram("2.1")
    got = four_strings(d, virtual_data())
    assert got == ("4t^3-8t^2", "8xy", "4s^4t^3-64s^4t^2", "64xyz^4")
    got_m = four_strings(mirror(d), virtual_data())
    assert got_m == ("4t^3-8t^2", "8x^2y^2", "4s^4t^3-64s^4t^2", "64x^2y^2z^4")


def test_criterion_09_three_class_table():
    classes = {}
    for name in catalog_names():
        if "." not in name:
            continue
        rq = build_representation(get_diagram(name), virtual_data())
        classes.setdefault(path_matrix_polynomial(rq).render(), set()).add(name)
    assert classes == {
        "64z^4": {"3.1", "3.5", "3.6", "3.7"},
        "64xyz^4": {"2.1"},
        "64x^2y^2z^4": {"3.2", "3.3", "3.4"},
    }


# 10. stability of every output under a kink and a stabilization move


def _full_profile(diagram, data, phi):
    rq = build_representation(diagram, data)
    return (
        counting_invariant(diagram, data.algebra),
        cocycle_invariant(diagram, data.algebra, data.coeff, phi).render(),
        edge_char_polynomial(rq).render(),
        edge_matrix_polynomial(rq).render(),
        path_char_polynomial(rq).render(),
        path_matrix_polynomial(rq).render(),
    ), rq


def test_criterion_10_move_invariance():
    for name in catalog_names():
        if "." in name:
            data, phi = virtual_data(), FLIP2_VECTORS[0]
        else:
            data, phi = classical_data(), SWAP3_VECTORS[0]
        base = get_diagram(name)
        want, rq0 = _full_profile(base, data, phi)
        for variant in (r1_kink(base, 0, 1), r2_poke(base, 0, 1)):
            got, rq1 = _full_profile(variant, data, phi)
            assert got == want, "%s via %s" % (name, variant.name)
            assert quiver_isomorphic(rq0, rq1)


# 11. special cases: identity endomorphism reduces the path matrix
# polynomial to the state sum, coboundaries to the bare count


def test_criterion_11_state_sum_recovery():
    d = get_diagram("L4a1")
    bq = core_cyclic(4)
    data = DataVector(bq, Z3, (tuple(CORE4_VECTORS[0]),), (tuple(bq.elements),))
    rq = build_representation(d, data)
    assert len(rq.edges) == 16
    paths = maximal_paths(rq)
    assert len(paths) == 16 and all(len(p) == 1 for p in paths)
    poly = specialize(path_matrix_polynomial(rq), ones=("z",), merge_xy_to_q=True)
    assert poly.render() == "8+8q"
    assert poly == cocycle_invariant(d, bq, Z3, CORE4_VECTORS[0])

    # with a coboundary vector every weight vanishes
    cob = coboundary_generators(bq, Z)[0]
    assert is_coboundary(bq, Z, cob)
    data2 = DataVector(bq, Z3, (tuple(cob),), (tuple(bq.elements),))
    rq2 = build_representation(d, data2)
    poly2 = specialize(path_matrix_polynomial(rq2), ones=("z",), merge_xy_to_q=True)
    assert poly2.render() == "16"


# 12. property suites: axiom checker on positives and mutants, the
# characteristic polynomial against a cofactor oracle, differentials
# composing to zero, and arrow entry mass


def test_criterion_12_axiom_checker():
    for bq in (swap3(), core_cyclic(4), constant_action_biquandle_z2()):
        assert check_axioms(bq.under_table, bq.over_table) == []
    good = swap3()
    broken1 = [list(r) for r in good.under_table]
    broken1[0][0] = 2  # breaks the diagonal condition
    assert check_axioms(broken1, good.over_table)
    broken2 = [list(r) for r in core_cyclic(4).under_table]
    broken2[0][1] = broken2[1][1]  # breaks column bijectivity
    assert check_axioms(broken2, core_cyclic(4).over_table)
    flip = constant_action_biquandle_z2()
    broken3 = [list(r) for r in flip.over_table]
    broken3[0][0] = 1  # diagonal mismatch against under
    assert check_axioms(flip.under_table, broken3)


def _oracle_char_poly(mat):
    # det(tI - M) by cofactor expansion over coefficient lists
    n = len(mat)

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def padd(a, b):
        out = [0] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, x in enumerate(b):
            out[i] += x
        return out

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = [0]
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = pmul(rows[0][j], det(minor))
            if j % 2:
                term = [-c for c in term]
            total = padd(total, term)
        return total

    entries = [
        [[-mat[i][j], 1] if i == j else [-mat[i][j]] for j in range(n)]
        for i in range(n)
    ]
    coeffs = det(entries)
    out = GroupExponentPolynomial.zero()
    for k, c in enumerate(coeffs):
        if c:
            out = out + GroupExponentPolynomial.monomial(c, {"t": k})
    return out


def test_criterion_12_char_poly_oracle():
    rng = random.Random(20240814)
    for _ in range(100):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert char_poly(mat) == _oracle_char_poly(mat), mat


def test_criterion_12_differentials_compose_to_zero():
    for bq in (
        swap3(),
        core_cyclic(3),
        core_cyclic(4),
        core_cyclic(5),
        constant_action_biquandle_z2(),
    ):
        boundary_matrices(bq)  # raises when d2 @ d3 != 0


def test_criterion_12_arrow_entry_mass():
    jobs = [
        (get_diagram("L4a1"), classical_data()),
        (get_diagram("2.1"), virtual_data()),
        (get_diagram("L4a1"), first_batch_data()),
    ]
    for diagram, data in jobs:
        rq = build_representation(diagram, data)
        for _, _, mat in rq.edges:
            assert sum(sum(row) for row in dense(mat, rq.modulus)) == len(data.vectors)
