"""Balls-in-boxes: faces of type-A complexes as contingency tables."""

import copy
import itertools
import math

import pytest

from bicox.complexes import Face, TwoSidedComplex
from bicox.contingency import (
    ContingencyTable,
    KWayTable,
    SymmetricGroupFaces,
    enumerate_tables,
    kway_maximal_count,
    lower_covers,
    ordered_set_partition,
    refinement_leq,
    upper_covers,
    verify_refinement_isomorphism,
)
from bicox.errors import CapacityError

from conftest import build, minimal_rep


CENTER_7 = ContingencyTable.from_display(
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 3, 0, 1]]
)

UPPER_COVERS_7 = [
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 3, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 3, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 3, 0, 0]],
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 2, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 2, 0, 0]],
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 2, 0, 0], [0, 1, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 2, 0, 1], [0, 1, 0, 0]],
    [[1, 0, 0, 0], [0, 0, 1, 1], [0, 3, 0, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 1, 2, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 2, 1, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 0, 1, 0, 1], [0, 3, 0, 1, 0]],
    [[1, 0, 0, 0, 0], [0, 0, 1, 1, 0], [0, 3, 0, 0, 1]],
]

LOWER_COVERS_7 = [
    [[1, 0, 1, 1], [0, 3, 0, 1]],
    [[1, 0, 0, 0], [0, 3, 1, 2]],
    [[1, 0, 0], [0, 1, 1], [3, 0, 1]],
    [[1, 0, 0], [0, 1, 1], [0, 3, 1]],
    [[1, 0, 0], [0, 0, 2], [0, 3, 1]],
]


@pytest.fixture(scope="module")
def s7_model():
    return SymmetricGroupFaces(build("A6"))


@pytest.fixture(scope="module")
def s3_model(tables):
    return SymmetricGroupFaces(tables("A2"))


# --- the table type -----------------------------------------------------------


def test_table_validation():
    with pytest.raises(ValueError, match="zero row sum"):
        ContingencyTable(((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="zero column sum"):
        ContingencyTable(((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="negative entry"):
        ContingencyTable(((1, -1), (0, 1)))
    with pytest.raises(ValueError, match="ragged rows"):
        ContingencyTable(((1,), (1, 1)))
    with pytest.raises(ValueError, match="ragged rows"):
        ContingencyTable(((1, 1), ()))
    with pytest.raises(ValueError, match="at least one row and column"):
        ContingencyTable(((),))


def test_display_round_trip():
    rows = [[1, 0], [0, 2]]
    table = ContingencyTable.from_display(rows)
    assert table.display() == rows
    assert table.cells == ((0, 2), (1, 0))


# --- face <-> table -------------------------------------------------------------


def test_wrong_type_rejected(tables):
    with pytest.raises(ValueError):
        SymmetricGroupFaces(tables("B3"))
    with pytest.raises(ValueError):
        SymmetricGroupFaces(build("A1xA1"))


def test_fig_balls_in_boxes(s7_model):
    w = s7_model.id_of((7, 1, 4, 2, 5, 3, 6))
    gens_l, gens_r = 0b010111, 0b100110
    u = minimal_rep(s7_model.table, gens_l, w, gens_r)
    assert s7_model.one_line(u) == (7, 1, 2, 3, 5, 4, 6)
    table = s7_model.face_to_table(Face(gens_l, u, gens_r))
    assert table == CENTER_7
    assert s7_model.table_to_face(CENTER_7) == Face(gens_l, u, gens_r)


def test_bottom_face_maps_to_single_box(s3_model):
    full = s3_model.table.full_mask
    assert s3_model.face_to_table(Face(full, 0, full)).display() == [[3]]
    assert s3_model.table_to_face(ContingencyTable(((3,),))) == Face(full, 0, full)


def test_facet_maps_to_permutation_matrix(s3_model):
    s1 = s3_model.table.generator_id(0)
    table = s3_model.face_to_table(Face(0, s1, 0))
    assert table.display() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    identity = s3_model.face_to_table(Face(0, 0, 0))
    assert identity.display() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


@pytest.mark.parametrize("spec", ["A1", "A2", "A3"])
def test_round_trip_all_faces(spec, tables):
    model = SymmetricGroupFaces(tables(spec))
    cx = TwoSidedComplex.build(model.table)
    for face in cx.as_faces(cx.faces):
        assert model.table_to_face(model.face_to_table(face)) == face


# --- covers ---------------------------------------------------------------------


def test_cover_counts_and_sets():
    ups = upper_covers(CENTER_7)
    downs = lower_covers(CENTER_7)
    assert len(ups) == 12
    assert len(downs) == 5
    assert set(ups) == {ContingencyTable.from_display(t) for t in UPPER_COVERS_7}
    assert set(downs) == {ContingencyTable.from_display(t) for t in LOWER_COVERS_7}


def test_minimum_covers():
    n = 4
    box = ContingencyTable(((n,),))
    assert lower_covers(box) == []
    ups = upper_covers(box)
    assert len(ups) == 2 * (n - 1)
    expected = set()
    for a in range(1, n):
        expected.add(ContingencyTable(((a,), (n - a,))))
        expected.add(ContingencyTable(((a, n - a),)))
    assert set(ups) == expected


def transposed(table):
    """Reference transpose, entry by entry."""
    return ContingencyTable(
        tuple(tuple(row[j] for row in table.cells) for j in range(table.cols))
    )


def covers_through_transpose(table):
    """Reference covers: row merges and splits, then the column ones as row
    moves on the transpose, transposed back; first occurrences kept."""
    def row_moves(tab):
        cells = tab.cells
        merges = [
            ContingencyTable(
                cells[:k] + (tuple(a + b for a, b in zip(cells[k], cells[k + 1])),) + cells[k + 2 :]
            )
            for k in range(tab.rows - 1)
        ]
        splits = []
        for k in range(tab.rows):
            for low in itertools.product(*(range(x + 1) for x in cells[k])):
                high = tuple(a - b for a, b in zip(cells[k], low))
                if any(low) and any(high):
                    splits.append(ContingencyTable(cells[:k] + (low, high) + cells[k + 1 :]))
        return merges, splits

    merges, splits = row_moves(table)
    col_merges, col_splits = row_moves(transposed(table))
    downs = merges + [transposed(t) for t in col_merges]
    ups = list(dict.fromkeys(splits + [transposed(t) for t in col_splits]))
    return downs, ups


def test_covers_match_the_transpose_reference():
    """Column merges and splits built from the rows equal, in order, the
    ones made on the transpose, on every table of total at most 4."""
    checked = 0
    for n in range(1, 5):
        for table in enumerate_tables(n):
            downs, ups = covers_through_transpose(table)
            assert lower_covers(table) == downs, table
            assert upper_covers(table) == ups, table
            assert table.transpose() == transposed(table)
            assert table.col_sums() == transposed(table).row_sums()
            checked += 1
    assert checked == 1 + 5 + 33 + 281  # faces of the complexes of S_1 to S_4


def test_permutation_matrices_are_maximal(s3_model):
    table = s3_model.face_to_table(Face(0, 3, 0))
    assert upper_covers(table) == []


# --- refinement order -----------------------------------------------------------


def test_refinement_minimum():
    box = ContingencyTable(((3,),))
    for table in enumerate_tables(3):
        assert refinement_leq(box, table)


def test_refinement_covers():
    for cover in upper_covers(CENTER_7):
        assert refinement_leq(CENTER_7, cover)
        assert not refinement_leq(cover, CENTER_7)


def test_refinement_incomparable():
    t1 = ContingencyTable(((2, 1),))
    t2 = ContingencyTable(((1, 2),))
    assert not refinement_leq(t1, t2)
    assert not refinement_leq(t2, t1)
    with pytest.raises(ValueError):
        refinement_leq(t1, ContingencyTable(((1, 1),)))


def test_refinement_matches_transitive_covers():
    tables3 = enumerate_tables(3)
    above = {t: set(upper_covers(t)) for t in tables3}
    reach = {t: {t} for t in tables3}
    for t in sorted(tables3, key=lambda t: -t.order_rank):
        for cover in above[t]:
            reach[t] |= reach[cover]
    for t1 in tables3:
        for t2 in tables3:
            assert refinement_leq(t1, t2) == (t2 in reach[t1])


# --- the isomorphism ------------------------------------------------------------


def test_enumerate_tables_count():
    assert len(enumerate_tables(3)) == 33


@pytest.mark.parametrize("n", [2, 3, 4])
def test_refinement_isomorphism(n, tables):
    assert verify_refinement_isomorphism(TwoSidedComplex.build(tables(f"A{n - 1}")))


def test_refinement_isomorphism_compares_ranks(tables):
    cx = TwoSidedComplex.build(tables("A2"))
    bad = copy.copy(cx)
    bad.ranks = lambda packed: cx.ranks(packed) + 1
    assert not verify_refinement_isomorphism(bad)


# --- ordered set partitions -------------------------------------------------------


def test_ordered_set_partition_example():
    table = ContingencyTable.from_display(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )
    assert ordered_set_partition(table) == (
        frozenset({4, 5}),
        frozenset({3, 6}),
        frozenset({1}),
        frozenset({2}),
    )


def test_ordered_set_partition_identity():
    n = 4
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    table = ContingencyTable(tuple(tuple(r) for r in rows))
    assert ordered_set_partition(table) == tuple(
        frozenset({i + 1}) for i in range(n)
    )
    column = ContingencyTable(((1,),) * n)
    assert ordered_set_partition(column) == (frozenset(range(1, n + 1)),)


def test_ordered_set_partition_wrong_shape():
    with pytest.raises(ValueError):
        ordered_set_partition(ContingencyTable(((2, 0), (0, 1))))


# --- k-way tables ----------------------------------------------------------------


def test_kway_table_validation():
    KWayTable((2, 2), (1, 0, 0, 1))
    with pytest.raises(ValueError):
        KWayTable((2, 2), (1, 0, 1, 0))  # zero marginal on axis 1
    with pytest.raises(ValueError):
        KWayTable((2, 2), (1, 0, 0))
    with pytest.raises(ValueError):
        KWayTable((4,), (1, 1, 1, 1))


def test_kway_marginals():
    table = KWayTable((2, 2, 2), (1, 0, 0, 1, 0, 1, 1, 0))
    assert table.total == 4
    for axis in range(3):
        for index in range(2):
            assert table.marginal(axis, index) == 2


@pytest.mark.parametrize(
    "k, n",
    [(2, 3), (2, 4), (3, 2), (3, 3)],
)
def test_kway_maximal_counts(k, n):
    assert kway_maximal_count(k, n) == math.factorial(n) ** (k - 1)


def test_kway_capacity():
    with pytest.raises(CapacityError):
        kway_maximal_count(4, 4)
