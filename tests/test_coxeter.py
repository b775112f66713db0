"""Group construction: classification, BFS tables, weak order."""

import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bicox.coxeter as coxeter
from bicox.cache import VERSION, load_table, save_table
from bicox.coxeter import (
    CoxeterMatrix,
    GroupTable,
    _merge_equal,
    _validate,
    build_group,
    classify,
    classify_spec,
    descent_walk,
    length_order,
    lowest_bits,
    parse_type_spec,
    popcount_table,
)
from bicox.errors import CapacityError, InternalCheckError, NotFiniteError

from conftest import build, down_reach, inverses, mult, serialize_v1, word


# --- oracles ---------------------------------------------------------------


def closure_leq_oracle(table):
    """Transitive closure of two-sided cover relations, from the definition.

    Covers are found by checking l(v) = l(u) + 1 and (v*u^-1 in S or
    u^-1*v in S) with explicit products; independent of the descent tables.
    """
    gens = {table.generator_id(s) for s in range(table.rank)}
    order = table.order
    inverse = inverses(table)
    covers_below = [[] for _ in range(order)]
    for u in range(order):
        for v in range(order):
            if table.length[v] != table.length[u] + 1:
                continue
            vu = mult(table, v, int(inverse[u]))
            uv = mult(table, int(inverse[u]), v)
            if vu in gens or uv in gens:
                covers_below[v].append(u)
    reach = [0] * order
    for v in sorted(range(order), key=lambda x: int(table.length[x])):
        acc = 1 << v
        for u in covers_below[v]:
            acc |= reach[u]
        reach[v] = acc
    return reach


def signed_permutation_count(n):
    """Brute-force count of signed permutations of {1..n}."""
    count = 0
    for _ in itertools.permutations(range(n)):
        for _ in itertools.product((1, -1), repeat=n):
            count += 1
    return count


# --- classification --------------------------------------------------------


def test_rank2_classification():
    assert classify(CoxeterMatrix([[1, 3], [3, 1]])).canonical_name == "A2"
    assert classify(CoxeterMatrix([[1, 4], [4, 1]])).canonical_name == "B2"
    assert classify(CoxeterMatrix([[1, 7], [7, 1]])).canonical_name == "I2(7)"
    with pytest.raises(NotFiniteError):
        classify(CoxeterMatrix([[1, 0], [0, 1]]))


def test_f4_matrix_classifies():
    mat = CoxeterMatrix(
        [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
    )
    assert classify(mat).canonical_name == "F4"


@pytest.mark.parametrize(
    "spec",
    ["A1", "A2", "A3", "A5", "B2", "B3", "B6", "D4", "D5", "E6", "E7", "E8",
     "F4", "H3", "H4", "I2(5)", "I2(6)", "I2(9)"],
)
def test_standard_matrices_round_trip(spec):
    system = classify_spec(spec)
    assert system.canonical_name == spec


def test_relabeling_invariance():
    import random

    rng = random.Random(7)
    for spec in ["B4", "D5", "E6", "H4", "F4", "A4"]:
        mat = parse_type_spec(spec)
        n = mat.rank
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[mat.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert classify(CoxeterMatrix(rows)).canonical_name == spec


@st.composite
def coxeter_matrices(draw):
    """Symmetric matrices of rank at most 6 with bonds in {0, 2, ..., 7},
    half of them 2 so that finite components are common."""
    n = draw(st.integers(1, 6))
    bond = st.one_of(st.just(2), st.sampled_from([0, 2, 3, 4, 5, 6, 7]))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(bond)
    return CoxeterMatrix(rows)


@settings(deadline=None, max_examples=400)
@given(coxeter_matrices())
def test_classify_accepts_exactly_the_positive_definite(matrix):
    """A Coxeter group is finite exactly when its cosine Gram matrix, 1 on
    the diagonal and -cos(pi/m) elsewhere (-1 for m = 0), is positive
    definite; the smallest eigenvalue of an accepted one is about 0.0055."""
    m = np.array(matrix.entries, dtype=float)
    gram = np.where(m == 0, -1.0, -np.cos(np.pi / np.where(m == 0, 1.0, m)))
    np.fill_diagonal(gram, 1.0)
    smallest = np.linalg.eigvalsh(gram)[0]
    try:
        classify(matrix)
    except NotFiniteError:
        assert smallest < 1e-6
    else:
        assert smallest > 1e-6


@settings(deadline=None, max_examples=400)
@given(st.text(alphabet="ABDEFGHI0123456789()x~", max_size=14))
@example("A99999")
@example("A16xA1")
@example("I2(5)xI2(5)xI2(5)xI2(5)xI2(5)xI2(5)xI2(5)xI2(5)xA1")
@example("A15~")
@example("A\u0663")  # ARABIC-INDIC DIGIT THREE
@example("A\uff13")  # FULLWIDTH DIGIT THREE
@example("I2(\u0663)")
@example("A3\n")
@example("A3xx")
@example("xA3")
def test_fuzzed_type_specs_raise_only_typed_errors(spec):
    """Type strings parse, or raise ValueError, NotFiniteError or
    CapacityError; no matrix over the maximum rank is ever built."""
    built = []
    original = coxeter.CoxeterMatrix.__init__

    def guarded(self, entries):
        original(self, entries)
        built.append(self.rank)

    coxeter.CoxeterMatrix.__init__ = guarded
    try:
        classify(parse_type_spec(spec))
    except (ValueError, NotFiniteError, CapacityError):
        pass
    finally:
        coxeter.CoxeterMatrix.__init__ = original
    assert max(built, default=0) <= coxeter.MAX_RANK


NOT_SPECS = ["A\u0663", "A\uff13", "I2(\u0663)", "A3\n", "A3xx", "xA3", "A3x"]


@pytest.mark.parametrize("spec", NOT_SPECS)
def test_type_specs_take_ascii_digits_and_whole_factors(spec):
    """Only ASCII digits are ranks and bonds, nothing may follow a factor,
    and an empty factor is refused; the error names the whole spec."""
    with pytest.raises(ValueError, match=re.escape(f"cannot parse type spec {spec!r}")):
        parse_type_spec(spec)


def test_reducible_classification():
    system = classify_spec("B4xA1")
    assert system.canonical_name == "B4xA1"
    assert system.order == 384 * 2


@pytest.mark.parametrize(
    "rows",
    [
        # affine A2: a 3-cycle
        [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
        # bond 6 in rank 3 (affine G2)
        [[1, 3, 2], [3, 1, 6], [2, 6, 1]],
        # two bonds of order 4 on a path (affine C3)
        [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
        # interior bond 4 on a rank-5 path
        [[1, 3, 2, 2, 2], [3, 1, 4, 2, 2], [2, 4, 1, 3, 2],
         [2, 2, 3, 1, 3], [2, 2, 2, 3, 1]],
        # bond 5 in the middle of a rank-4 path
        [[1, 3, 2, 2], [3, 1, 5, 2], [2, 5, 1, 3], [2, 2, 3, 1]],
        # a 5-chain hanging off a bond 5 (H5 does not exist)
        [[1, 5, 2, 2, 2], [5, 1, 3, 2, 2], [2, 3, 1, 3, 2],
         [2, 2, 3, 1, 3], [2, 2, 2, 3, 1]],
        # degree-4 vertex (affine D4)
        [[1, 3, 3, 3, 3], [3, 1, 2, 2, 2], [3, 2, 1, 2, 2],
         [3, 2, 2, 1, 2], [3, 2, 2, 2, 1]],
        # two branch vertices
        [[1, 3, 2, 2, 2, 2], [3, 1, 3, 3, 2, 2], [2, 3, 1, 2, 2, 2],
         [2, 3, 2, 1, 3, 3], [2, 2, 2, 3, 1, 2], [2, 2, 2, 3, 2, 1]],
        # branch with arm lengths (2,2,2) (affine E6):
        # path 0-1-2-3-4 with a second branch 2-5-6
        [[1, 3, 2, 2, 2, 2, 2], [3, 1, 3, 2, 2, 2, 2], [2, 3, 1, 3, 2, 3, 2],
         [2, 2, 3, 1, 3, 2, 2], [2, 2, 2, 3, 1, 2, 2], [2, 2, 3, 2, 2, 1, 3],
         [2, 2, 2, 2, 2, 3, 1]],
    ],
)
def test_infinite_components_rejected(rows):
    mat = CoxeterMatrix(rows)
    with pytest.raises(NotFiniteError):
        classify(mat)


def test_affine_spec_parsing():
    with pytest.raises(NotFiniteError):
        classify_spec("A1~")
    with pytest.raises(NotFiniteError):
        classify_spec("A2~")
    with pytest.raises(ValueError):
        parse_type_spec("B4~")
    with pytest.raises(ValueError):
        parse_type_spec("A0")
    with pytest.raises(ValueError):
        parse_type_spec("Z9")
    assert classify_spec("G2").canonical_name == "I2(6)"


def test_not_finite_error_names_component():
    rows = [[1, 3, 2, 2], [3, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]]
    with pytest.raises(NotFiniteError) as err:
        classify(CoxeterMatrix(rows))
    assert err.value.component == (2, 3)


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix([[1, 3], [4, 1]])
    with pytest.raises(ValueError):
        CoxeterMatrix([[2, 3], [3, 1]])
    with pytest.raises(ValueError):
        CoxeterMatrix([[1, 1], [1, 1]])


@pytest.mark.parametrize("entry", [3.9, 3.5, 2.000001, "3", np.float64(4.5), float("inf")])
def test_matrix_refuses_an_entry_that_is_not_an_integer(entry):
    with pytest.raises(ValueError, match="is not an integer"):
        CoxeterMatrix([[1, entry], [entry, 1]])


def test_matrix_accepts_integral_entries_of_any_integer_type():
    """Numpy integers and integral floats are taken as their ints."""
    for entry in (np.int64(3), np.int32(3), np.uint8(3), 3.0):
        matrix = CoxeterMatrix([[np.int8(1), entry], [entry, 1]])
        assert matrix.entries == ((1, 3), (3, 1))
        assert all(type(x) is int for row in matrix.entries for x in row)
        assert classify(matrix).canonical_name == "A2"


# --- orders and table invariants -------------------------------------------


@pytest.mark.parametrize(
    "spec, order",
    [
        ("A1", 2),
        ("A2", 6),
        ("A3", 24),
        ("A4", 120),
        ("B2", 8),
        ("B3", 48),
        ("D4", 192),
        ("F4", 1152),
        ("H3", 120),
        ("I2(6)", 12),
        ("I2(7)", 14),
        ("B4xA1", 768),
    ],
)
def test_orders(spec, order):
    assert build(spec).order == order


def irreducible_degrees(factor):
    """Degrees of the basic invariants, from the classification tables."""
    if factor.startswith("I2("):
        return [2, int(factor[3:-1])]
    family, n = factor[0], int(factor[1:])
    if family == "A":
        return list(range(2, n + 2))
    if family == "B":
        return list(range(2, 2 * n + 1, 2))
    if family == "D":
        return list(range(2, 2 * n - 1, 2)) + [n]
    return {
        "E6": [2, 5, 6, 8, 9, 12],
        "E7": [2, 6, 8, 10, 12, 14, 18],
        "E8": [2, 8, 12, 14, 18, 20, 24, 30],
        "F4": [2, 6, 8, 12],
        "H3": [2, 6, 10],
        "H4": [2, 12, 20, 30],
    }[factor]


DEGREE_SPECS = [
    "A1", "A2", "B2", "I2(5)", "I2(9)", "I2(12)", "H3", "H4", "F4", "D5", "E6",
    "B4xA1", "I2(9)xH3xA3", "A2xI2(5)xB3",
]


@pytest.mark.parametrize("spec", DEGREE_SPECS)
def test_length_distribution_matches_degrees(spec, tables):
    """The Poincare polynomial is the product of [d]_q over the degrees d."""
    poly = [1]
    for factor in spec.split("x"):
        for d in irreducible_degrees(factor):
            out = [0] * (len(poly) + d - 1)
            for i, c in enumerate(poly):
                for j in range(d):
                    out[i + j] += c
            poly = out
    assert np.bincount(tables(spec).length).tolist() == poly


CLASSIFIED_IRREDUCIBLES = (
    [f"A{n}" for n in range(1, coxeter.MAX_RANK + 1)]
    + [f"B{n}" for n in range(2, coxeter.MAX_RANK + 1)]
    + [f"D{n}" for n in range(4, coxeter.MAX_RANK + 1)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(5, 31)]
)


@pytest.mark.parametrize("spec", CLASSIFIED_IRREDUCIBLES)
def test_degrees_give_order_and_positive_roots(spec):
    (component,) = classify_spec(spec).components
    label = component.label
    assert str(label) == spec
    assert list(label.degrees) == irreducible_degrees(spec)
    assert math.prod(label.degrees) == label.order
    assert sum(d - 1 for d in label.degrees) == label.root_count // 2


@pytest.mark.parametrize("spec", ["A1", "I2(7)", "G2", "B4", "D5", "E8", "H4", "I2(9)xH3xA3"])
def test_positive_roots(spec):
    """Half the roots, the simple ones among them, and each s negates only
    its own simple root among them: that pins the positive system."""
    identity, sigma, positive = coxeter._root_permutations(classify_spec(spec))
    assert 2 * positive.sum() == len(positive)
    assert positive[list(identity)].all()
    for s, root in enumerate(identity):
        others = np.flatnonzero(positive)
        others = others[others != root]
        assert positive[sigma[s, others]].all()
        assert not positive[sigma[s, root]]


def test_validate_rejects_a_wrong_degree_product(a3, monkeypatch):
    """(2, 2, 5) has the 6 positive roots of A3 but product 20, not 24."""
    monkeypatch.setattr(coxeter.TypeLabel, "degrees", property(lambda self: (2, 2, 5)))
    with pytest.raises(InternalCheckError, match="length distribution"):
        _validate(a3)


def test_b4_order_matches_signed_permutations():
    assert build("B4").order == signed_permutation_count(4)


def test_capacity_budget():
    with pytest.raises(CapacityError):
        build("A4", budget=100)
    with pytest.raises(CapacityError):
        build_group(classify_spec("E8"))  # over the default budget


# SHA-256 of the version-1 cache blob of build_group(spec), written by
# conftest.serialize_v1, recorded from the per-element dict BFS that the
# length-layered closure replaced: ids, arrays and blobs are unchanged.  The
# last two were recorded from the packed uint64 keys that the shared
# closure, coxeter._layers, replaced.
GOLDEN_DIGESTS = {
    "A1": "7d1416701f487915bb876261c4a5318a8582fa0eb072f509244be1e20327f047",
    "A3": "3c8a514c94dbba51a7f231134d6fedadca40d3b6f423473d84804b5e7900b0f4",
    "B3": "b03d3e1befb86e04a6169c14f520aa90fd4897173c096d7bfbe63203aae40992",
    "H3": "6426ad8f27ecaa406ab3d4a6b10bdaa7d00a20e1b7e74841c0e9d8865f300ec2",
    "I2(7)": "5d9f1663e957f061afe8b8b7794a0b47033c7e1651dfc09051ad163c9892e441",
    "A4": "01041668ca5f6dfda09b08fb511e254e900aa67a0b592b24ed6ea8f4c1f256aa",
    "B4": "ea2fc7fa835ec552e3737f9fde5fc39c24719b017c2ccb70fadec2dc971d12d3",
    "D4": "45b3eef7f401cc3ce68eeedcaa3f88926d86f38686b7f06794ed764af321ce02",
    "F4": "b72bc55e4d8ce88fa3384bc5167ef0c8f9fbd78a3be7bd906915035d2249d1c9",
    "H4": "a31e19e16fa5c6bde6c64fe6266ee40552aed2b1894c786370b8e74f6bccdd7b",
    "A1xA1xA1": "d511730a06a1e3d732a0cbd3bf89e866b27fe96319782544fe70a2f2600e2c83",
    "D4xD4": "c235023bd4ef954e6bfb89671a7899bfb101928436f0c9c2ccd8593c9237bf44",
    "H3xI2(7)xA3": "bc031484fe7762d84e464e504746e4187869c32409e249c6f6289730f1b8ce16",
    "E6": "dc64e41ea816efffddca659ad8c1627a8a882659c83e190cc8959b6e82644601",
    "I2(9)xH3xA3": "f7e23db9eed66ef34dc9a7de460a57d5dc2854ce5413947765f587b5ef8395d4",
    # Rank 9: the closure's keys take two uint64 words.
    "A3xA3xA3": "dbe4567469dee20af9f11cb45df511497a4b7e220fa496481dd0c827d77e3df5",
    # 412 roots: sigma is uint16.
    "I2(200)xA3": "4b719c5319198934e7a8f88be281e0818bcbbe769b7813c255ae1137d16ff620",
}


@pytest.mark.parametrize("spec", list(GOLDEN_DIGESTS))
def test_build_group_bytes_unchanged(spec, tables):
    assert hashlib.sha256(serialize_v1(tables(spec))).hexdigest() == GOLDEN_DIGESTS[spec]


# SHA-256 of the version-2 cache file of build_group(spec): the version-1
# blob above without the longest-element id and the inverse table.
SAVED_DIGESTS = {
    "A1": "cbe43bf8f364af259b867e8d77eda119f930a686431964627cc01fdf92511a90",
    "A3": "87b475d26351bd006c7cd028a100270c73d91852f8bbf7b18583902b4d2419f5",
    "B3": "eb41cd39b9284213bd78adc7b59100db07d6d4dd99add161c9d493cece3ffa34",
    "H3": "6688acb3de70389f0e79f9ee1a34ae9fd0df037fbb692f8efbfb6f7b7bcc42d4",
    "I2(7)": "48949222610a5cef7bfb5030f82ba10d3ee65af5837ae0569d03ad92ccb22cf5",
    "A4": "ed7717f368d3de1bf8d6923ee1d82c9e05672219fd101061ee285391a56efb12",
    "B4": "c73efc40a32f5743eabc5a0ce24f7d1478b1627eab2ac0267387dba84871f7cf",
    "D4": "287e20f7b829befe901d99c335e514032d27604842298d1e15a864cc118bf37e",
    "F4": "ae9b139a426ce6e4085e1ded2d0a7a26bc2097f56428ccd8d45bf32abdf91ea8",
    "H4": "8b062fc6127171664f4b7125e1612fc452e73c5652dee0514c4c78dfdc0ad847",
    "A1xA1xA1": "3347119506f4551466c3089f5e44bfcd2aff00f0090a30e3ad161f31e8132f32",
    "D4xD4": "27be4d352c4770bb0fb7931d8f898401cefcf2466093bd02f1137b3fa57f12c3",
    "H3xI2(7)xA3": "5f95e6df05215003f9c034149f17d43dbd608a96f2a7f0dc408626d3a7560541",
    "E6": "4f67544e0af864d84dca46f9fb9493116294c1c802a582d9510c1ff6d53ad7a1",
    "I2(9)xH3xA3": "3203690e1bedff2bea695bf70553a2b4317b8d1892f4cd8e22b736927919525d",
    "A3xA3xA3": "7a5feb3c45898f7fe6ce2a1c9f93bb061e845536bd355e7e805e2f0f165073ca",
    "I2(200)xA3": "acd62168addfd7ee085d322d3608a6f3236ae82d90c368331665aa1043576ead",
}


@pytest.mark.parametrize("spec", list(GOLDEN_DIGESTS))
def test_saved_file_bytes_unchanged(spec, tables, tmp_path):
    """The streamed writer puts the golden blob on disk, and the loader's
    arrays are copies that own their memory."""
    assert VERSION == 2
    path = save_table(tables(spec), tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_DIGESTS[spec]
    loaded = load_table(path)
    for field in ("length", "left_mult", "right_mult", "des_left", "des_right"):
        arr = getattr(loaded, field)
        assert arr.flags.owndata  # so it cannot alias the file's bytes
        assert np.array_equal(arr, getattr(tables(spec), field))


def test_lengths_past_int16_survive_the_cache(tmp_path, tables):
    """I2(40000) has a longest length of 40000, past int16: it builds, and
    the cache (which stores lengths past 255 in 4 bytes) loads it back."""
    table = tables("I2(40000)")
    assert int(table.length[table.longest]) == 40000
    loaded = load_table(save_table(table, tmp_path))
    assert loaded.length.dtype == table.length.dtype == coxeter.LENGTH_DTYPE
    assert np.array_equal(loaded.length, table.length)
    assert loaded.longest == table.longest


def descents_by_length(table, mult):
    """Descent masks from the definition: bit s when l(mult[w, s]) < l(w)."""
    bits = 1 << np.arange(table.rank, dtype=np.int64)
    below = table.length[mult] < table.length[:, None]
    return (below * bits).sum(axis=1)


# A3xA3xA3 has rank 9, so its masks have bits past the first byte.
@pytest.mark.parametrize("spec", list(GOLDEN_DIGESTS))
def test_descents_match_lengths(spec, tables):
    table = tables(spec)
    for mult, masks in ((table.left_mult, table.des_left), (table.right_mult, table.des_right)):
        assert masks.dtype == np.uint16
        assert np.array_equal(masks, descents_by_length(table, mult))


def test_save_table_holds_less_than_its_blob(tables, tmp_path):
    """Saving streams the table's arrays instead of building the blob."""
    table = tables("E6")
    tracemalloc.start()
    try:
        path = save_table(table, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("spec", list(GOLDEN_DIGESTS))
def test_golden_groups_pass_the_degree_clause(spec, tables):
    _validate(tables(spec))


def test_a_wide_group_is_refused_by_the_budget_alone(monkeypatch):
    """A8xA4 (43,545,600 elements) has no key-width limit: over the default
    budget it is refused by that budget, and with a larger one it reaches
    the root closure."""

    class Enumerating(Exception):
        pass

    def enumerate_roots(system):
        raise Enumerating

    monkeypatch.setattr(coxeter, "_root_permutations", enumerate_roots)
    refused = "^A8xA4 has 43545600 elements, over the budget of 10000000$"
    with pytest.raises(CapacityError, match=refused):
        build("A8xA4")
    with pytest.raises(Enumerating):
        build("A8xA4", budget=10**8)


def merge_reference(rows, descents, k):
    """What ``_merge_equal`` returns, by a dict over the rows' first k entries."""
    index, firsts, merged, where = {}, [], [], []
    for row, mask in zip(rows.tolist(), descents.tolist()):
        key = tuple(row[:k])
        if key not in index:
            index[key] = len(firsts)
            firsts.append(row)
            merged.append(0)
        merged[index[key]] |= mask
        where.append(index[key])
    return firsts, merged, where


# Keys of 3, 8 and 8 bytes take one uint64 word; 11, 10 and 18 bytes take more.
@pytest.mark.parametrize(
    "dtype, k",
    [(np.uint8, 3), (np.uint8, 8), (np.uint16, 4), (np.uint8, 11), (np.uint16, 5), (np.uint16, 9)],
)
def test_merge_equal_matches_dict_reference(dtype, k):
    """Distinct rows in order of first occurrence, each the whole row of its
    first copy, with the copies' descents ORed and every input row's index."""
    rng = np.random.default_rng(k)
    top = np.iinfo(dtype).max
    for size in (1, 2, 60, 3000):
        # Few distinct keys, so rows repeat; the two extra columns are not
        # part of the key and differ between copies.
        keys = rng.integers(0, top, (max(1, size // 4), k), dtype=dtype, endpoint=True)
        rows = np.hstack([
            keys[rng.integers(0, len(keys), size)],
            rng.integers(0, top, (size, 2), dtype=dtype, endpoint=True),
        ])
        descents = rng.integers(0, 1 << 16, size)
        got_rows, got_descents, got_where = _merge_equal(rows, descents, k)
        want_rows, want_descents, want_where = merge_reference(rows, descents, k)
        assert got_rows.dtype == dtype
        assert got_rows.tolist() == want_rows
        assert got_descents.tolist() == want_descents
        assert got_where.tolist() == want_where


def relabeled(table, new_to_old, length):
    """``table`` with element ``new_to_old[k]`` renamed k, and the lengths
    ``length`` (indexed by old id) in place of its own."""
    old = np.asarray(new_to_old)
    new = np.empty_like(old)
    new[old] = np.arange(len(old))
    return GroupTable(
        system=table.system,
        order=table.order,
        length=np.asarray(length, dtype=coxeter.LENGTH_DTYPE)[old],
        left_mult=new[table.left_mult[old]].astype(np.int32),
        right_mult=new[table.right_mult[old]].astype(np.int32),
        des_left=table.des_left[old],
        des_right=table.des_right[old],
    )


def test_validate_accepts_an_order_preserving_relabeling(a2):
    _validate(relabeled(a2, [0, 2, 1, 4, 3, 5], a2.length))


def test_table_id_zero_has_length_zero():
    """A1xA1 = {e, s, t, st} with lengths 2, 1, 1, 2: each generator still
    changes length by one, the maximum is the 2 positive roots, and
    renaming s and t first keeps the ids sorted, but id 0 has length 1.
    Constructing that table fails."""
    table = build("A1xA1")
    with pytest.raises(InternalCheckError, match="id 0 has length 1"):
        relabeled(table, [1, 2, 0, 3], 2 - table.length % 2)


def test_table_ids_sorted_by_length(a2):
    """A2 with a length-1 and a length-2 id swapped: constructing it fails."""
    new_to_old = [0, 1, 3, 2, 4, 5]
    assert list(a2.length[new_to_old]) == [0, 1, 2, 1, 2, 3]
    with pytest.raises(InternalCheckError, match="not weakly sorted"):
        relabeled(a2, new_to_old, a2.length)


def test_validate_rejects_a_length_jump(a2):
    """A2 with the longest length raised to 4: ids stay sorted, but every
    generator takes the longest element two lengths down."""
    bad = relabeled(a2, range(6), [0, 1, 1, 2, 2, 4])
    with pytest.raises(InternalCheckError, match="something other than 1"):
        _validate(bad)


def test_validate_longest_length_is_positive_root_count():
    """A1xA1 with length the parity of l(w): sorted, e first, every step
    +-1, but the longest length is 1 where 2 roots are positive."""
    table = build("A1xA1")
    bad = relabeled(table, [0, 3, 1, 2], table.length % 2)
    with pytest.raises(InternalCheckError, match="2 positive roots"):
        _validate(bad)


def test_bfs_invariants(a3):
    lengths = a3.length
    assert lengths[0] == 0
    assert int(a3.des_left[0]) == 0 and int(a3.des_right[0]) == 0
    assert all(lengths[i] <= lengths[i + 1] for i in range(a3.order - 1))
    assert int(lengths.max()) == 6
    assert int(a3.des_right[a3.longest]) == a3.full_mask
    assert int(a3.des_left[a3.longest]) == a3.full_mask


def test_max_length_a2(a2):
    assert int(a2.length.max()) == 3


def test_descent_characterization(b3):
    for w in range(b3.order):
        for s in range(b3.rank):
            down = b3.length[b3.right_mult[w, s]] < b3.length[w]
            assert bool(b3.des_right[w] >> s & 1) == bool(down)
            down_l = b3.length[b3.left_mult[w, s]] < b3.length[w]
            assert bool(b3.des_left[w] >> s & 1) == bool(down_l)


def test_descents_a2_examples(a2):
    s1, s2 = a2.generator_id(0), a2.generator_id(1)
    s1s2 = int(a2.left_mult[s2, 0])
    assert int(a2.des_left[s1s2]) == 0b01
    assert int(a2.des_right[s1s2]) == 0b10
    assert int(a2.des_left[0]) == 0 and int(a2.des_right[0]) == 0
    assert int(a2.des_left[a2.longest]) == 0b11
    assert int(a2.des_right[a2.longest]) == 0b11
    assert {s1, s2} == {1, 2}  # generators are the two length-1 elements


def test_inverse_descent_symmetry(b3):
    assert np.array_equal(b3.des_left, b3.des_right[inverses(b3)])


@pytest.mark.parametrize("side", ["des_left", "des_right"])
def test_validate_rejects_a_flipped_descent_bit(side, b3):
    """B3 with one descent bit flipped on an element other than e and w0:
    the masks no longer match the multiplication, and _validate says so."""
    w = b3.order // 2
    masks = getattr(b3, side).copy()
    masks[w] ^= 1 << 1
    bad = dataclasses.replace(b3, **{side: masks})
    with pytest.raises(InternalCheckError, match=f"{side[4:]} descents disagree"):
        _validate(bad)


def test_table_stores_no_inverse_and_derives_w0(tables):
    """A table holds only what a command reads: no inverse, and w0 is the
    last id, the one element of the top length."""
    assert {f.name for f in dataclasses.fields(GroupTable)} == {
        "system", "order", "length", "left_mult", "right_mult", "des_left", "des_right",
    }
    for spec in ("A1", "B3", "I2(7)", "A1xA1xA1"):
        table = tables(spec)
        assert table.longest == table.order - 1
        assert np.flatnonzero(table.length == table.length.max()).tolist() == [table.longest]


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_longest_element_identities(spec, tables):
    table = tables(spec)
    w0 = table.longest
    full = table.full_mask
    gens = [table.generator_id(s) for s in range(table.rank)]
    conj = []
    for s in range(table.rank):
        image = mult(table, mult(table, w0, gens[s]), w0)
        conj.append(gens.index(image))
    for w in range(table.order):
        w0w = mult(table, w0, w)
        assert int(table.des_right[w0w]) == full ^ int(table.des_right[w])
        expect = 0
        mask = int(table.des_left[w])
        for s in range(table.rank):
            if mask >> s & 1:
                expect |= 1 << conj[s]
        assert int(table.des_left[w0w]) == full ^ expect


# --- weak order -------------------------------------------------------------


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "I2(5)"])
def test_leq_two_sided_against_closure_oracle(spec, tables):
    """The down-reach reference of the two-sided weak order is the closure
    of its covers."""
    table = tables(spec)
    assert down_reach(table) == closure_leq_oracle(table)


def test_leq_examples(a2):
    s1, s2 = a2.generator_id(0), a2.generator_id(1)
    s1s2 = int(a2.left_mult[s2, 0])
    reach = down_reach(a2)
    for v in range(a2.order):
        assert reach[v] & 1  # e <= v
    assert not reach[s2] >> s1 & 1
    assert reach[s1s2] >> s2 & 1


def test_length_order(a2, tables):
    order = length_order(a2)
    assert order[0] == 0 and order[-1] == a2.longest
    lengths = [int(a2.length[w]) for w in order]
    assert lengths == sorted(lengths)
    # linear extension property against the exact order
    reach = down_reach(a2)
    pos = {w: i for i, w in enumerate(order)}
    for v in range(a2.order):
        for u in range(a2.order):
            if reach[v] >> u & 1 and u != v:
                assert pos[u] < pos[v]
    assert length_order(tables("A1")) == [0, 1]


# --- words and products -----------------------------------------------------


def test_words_are_reduced(b3):
    """The descent walk from w reads a reduced word of w: the reference one."""
    letter, shorter = descent_walk(b3)
    for w in range(b3.order):
        letters, x = [], w
        while x:
            letters.append(int(letter[x]))
            x = int(shorter[x])
        assert tuple(letters) == word(b3, w)
        assert len(letters) == int(b3.length[w])
        for s in reversed(letters):
            x = int(b3.left_mult[x, s])
        assert x == w


def test_word_walk_is_bounded(a2):
    """A left_mult column that sends s1s2 back to itself would make the
    descent walk cycle; the walk refuses it."""
    s1s2 = int(a2.left_mult[a2.generator_id(1), 0])
    left = a2.left_mult.copy()
    left[s1s2, 0] = s1s2
    bad = dataclasses.replace(a2, left_mult=left)
    with pytest.raises(InternalCheckError, match=f"element {s1s2}: .* not e"):
        descent_walk(bad)


def test_mult(b3):
    inverse = inverses(b3)
    for w in range(b3.order):
        assert mult(b3, w, int(inverse[w])) == 0
        assert mult(b3, 0, w) == w
        assert mult(b3, w, 0) == w
    for s in range(b3.rank):
        for w in range(b3.order):
            assert mult(b3, b3.generator_id(s), w) == int(b3.left_mult[w, s])
            assert mult(b3, w, b3.generator_id(s)) == int(b3.right_mult[w, s])


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 16])
def test_popcount_and_lowest_bit_tables_match_python_ints(n):
    """Both lookup arrays are uint8, one entry per n-bit mask, equal to
    the bit count and the index of the lowest set bit (0 for the empty
    mask) that Python ints give."""
    counts, lowest = popcount_table(n), lowest_bits(n)
    assert counts.dtype == lowest.dtype == np.uint8
    masks = range(1 << n)
    assert counts.tolist() == [bin(m).count("1") for m in masks]
    assert lowest.tolist() == [(m & -m).bit_length() - 1 if m else 0 for m in masks]
