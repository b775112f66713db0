"""Balls-in-boxes: faces of type-A complexes as contingency tables."""

import copy
import itertools
import math

import numpy as np
import pytest

import bicox.contingency
import contingency_objects
from bicox.complexes import TwoSidedComplex
from bicox.contingency import SymmetricGroupFaces, verify_refinement_isomorphism
from bicox.errors import CapacityError, InternalCheckError

from conftest import Face, as_faces, build, is_minimal_rep, minimal_rep, one_line
from contingency_objects import (
    ContingencyTable,
    col_sums,
    cols,
    enumerate_tables,
    face_to_table,
    from_display,
    id_of,
    kway_maximal_count,
    lower_covers,
    order_rank,
    ordered_set_partition,
    refinement_leq,
    row_sums,
    rows,
    table_to_face,
    transpose,
    upper_covers,
)


CENTER_7 = from_display(
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
    table = from_display(rows)
    assert table.display() == rows
    assert table.cells == ((0, 2), (1, 0))


# --- face <-> table -------------------------------------------------------------


def test_wrong_type_rejected(tables):
    with pytest.raises(ValueError):
        SymmetricGroupFaces(tables("B3"))
    with pytest.raises(ValueError):
        SymmetricGroupFaces(build("A1xA1"))


def test_fig_balls_in_boxes(s7_model):
    w = id_of(s7_model, (7, 1, 4, 2, 5, 3, 6))
    gens_l, gens_r = 0b010111, 0b100110
    u = minimal_rep(s7_model.table, gens_l, w, gens_r)
    assert one_line(s7_model.table, u) == (7, 1, 2, 3, 5, 4, 6)
    table = face_to_table(s7_model, Face(gens_l, u, gens_r))
    assert table == CENTER_7
    assert table_to_face(s7_model, CENTER_7) == Face(gens_l, u, gens_r)


def test_bottom_face_maps_to_single_box(s3_model):
    full = s3_model.table.full_mask
    assert face_to_table(s3_model, Face(full, 0, full)).display() == [[3]]
    assert table_to_face(s3_model, ContingencyTable(((3,),))) == Face(full, 0, full)


def test_facet_maps_to_permutation_matrix(s3_model):
    s1 = s3_model.table.generator_id(0)
    table = face_to_table(s3_model, Face(0, s1, 0))
    assert table.display() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    identity = face_to_table(s3_model, Face(0, 0, 0))
    assert identity.display() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def bar_blocks(bar_mask, n):
    """Reference: consecutive 1-based blocks of [n] cut at the barred gaps."""
    blocks = []
    start = 1
    for s in range(n - 1):
        if bar_mask >> s & 1:
            blocks.append(range(start, s + 2))
            start = s + 2
    blocks.append(range(start, n + 1))
    return blocks


def canonical_bars(model, gens):
    """The canonical gaps (generator k cuts after letter k + 1) outside ``gens``."""
    vertices = model.table.system.components[0].vertices
    return sum(1 << k for k, v in enumerate(vertices) if not gens >> v & 1)


def reference_face_to_table(model, face):
    """Reference drawing: balls counted box by box through block ranges."""
    perm = one_line(model.table, face.w)
    row_blocks = bar_blocks(canonical_bars(model, face.left), model.n)
    col_blocks = bar_blocks(canonical_bars(model, face.right), model.n)
    row_of = {value: r for r, block in enumerate(row_blocks) for value in block}
    cells = [[0] * len(col_blocks) for _ in row_blocks]
    for c, block in enumerate(col_blocks):
        for i in block:
            cells[row_of[perm[i - 1]]][c] += 1
    return ContingencyTable(tuple(tuple(row) for row in cells))


def reference_table_to_face(model, table):
    """Reference sorting: each box gets a run of its row block's values."""
    vertices = model.table.system.components[0].vertices
    full = model.table.full_mask

    def bars(sums):
        return sum(1 << (cut - 1) for cut in itertools.accumulate(sums[:-1]))

    def gens(bar_mask):
        return full ^ sum(1 << v for k, v in enumerate(vertices) if bar_mask >> k & 1)

    row_bars, col_bars = bars(row_sums(table)), bars(col_sums(table))
    row_blocks = bar_blocks(row_bars, model.n)
    box_values = [[None] * cols(table) for _ in range(rows(table))]
    for r, block in enumerate(row_blocks):
        nxt = block.start
        for c in range(cols(table)):
            box_values[r][c] = range(nxt, nxt + table.cells[r][c])
            nxt += table.cells[r][c]
    perm = [v for c in range(cols(table)) for r in range(rows(table)) for v in box_values[r][c]]
    face = Face(gens(row_bars), id_of(model, perm), gens(col_bars))
    if not is_minimal_rep(model.table, face.left, face.w, face.right):
        raise InternalCheckError("sorted representative is not minimal")
    return face


@pytest.mark.parametrize("spec", ["A1", "A2", "A3"])
def test_drawing_matches_reference(spec, tables):
    model = SymmetricGroupFaces(tables(spec))
    cx = TwoSidedComplex.build(model.table)
    for face in as_faces(cx, cx.faces):
        table = face_to_table(model, face)
        assert table == reference_face_to_table(model, face)
        assert table_to_face(model, table) == reference_table_to_face(model, table) == face


@pytest.mark.parametrize("spec", ["A1", "A2", "A3"])
def test_round_trip_all_faces(spec, tables):
    model = SymmetricGroupFaces(tables(spec))
    cx = TwoSidedComplex.build(model.table)
    for face in as_faces(cx, cx.faces):
        assert table_to_face(model, face_to_table(model, face)) == face


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5"])
def test_drawn_matches_reference(spec, tables):
    """What ``bicox export`` prints is the reference drawing, on every face
    of S_2 to S_6 (37,277 faces for S_6), in the order of the faces."""
    model = SymmetricGroupFaces(tables(spec))
    cx = TwoSidedComplex.build(model.table)
    expected = [reference_face_to_table(model, face).display() for face in as_faces(cx, cx.faces)]
    assert model.drawn(cx.faces) == expected
    assert model.drawn(cx.faces[::-1]) == expected[::-1]


def test_drawn_fig_balls_in_boxes(s7_model):
    table = s7_model.table
    gens_l, gens_r = 0b010111, 0b100110
    u = minimal_rep(table, gens_l, id_of(s7_model, (7, 1, 4, 2, 5, 3, 6)), gens_r)
    packed = np.array([(gens_l << table.rank | gens_r) * table.order + u])
    assert s7_model.drawn(packed) == [CENTER_7.display()]


def printed_balls(drawn):
    """(rows, cols) of the balls of each printed table, row 0 at the bottom."""
    balls = [
        [(len(t) - 1 - r, c) for r, row in enumerate(t) for c, x in enumerate(row) for _ in range(x)]
        for t in drawn
    ]
    return np.array(balls)[..., 0], np.array(balls)[..., 1]


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5"])
def test_drawn_tables_are_the_checked_keys(spec, tables, monkeypatch):
    """The key of each printed table's balls is the one that the isomorphism
    check compares for its face: the first keys the check builds."""
    cx = TwoSidedComplex.build(tables(spec))
    drawn = SymmetricGroupFaces(cx.table).drawn(cx.faces)
    keys, compared = bicox.contingency._keys, []
    monkeypatch.setattr(
        bicox.contingency, "_keys", lambda rows, cols: compared.append(keys(rows, cols)) or compared[-1]
    )
    assert verify_refinement_isomorphism(cx)
    assert np.array_equal(keys(*printed_balls(drawn)), compared[0])
    assert compared[0].tolist() == [cells_key(t[::-1]) for t in drawn]


# --- covers ---------------------------------------------------------------------


def test_cover_counts_and_sets():
    ups = upper_covers(CENTER_7)
    downs = lower_covers(CENTER_7)
    assert len(ups) == 12
    assert len(downs) == 5
    assert set(ups) == {from_display(t) for t in UPPER_COVERS_7}
    assert set(downs) == {from_display(t) for t in LOWER_COVERS_7}


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
        tuple(tuple(row[j] for row in table.cells) for j in range(cols(table)))
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
            for k in range(rows(tab) - 1)
        ]
        splits = []
        for k in range(rows(tab)):
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
            assert transpose(table) == transposed(table)
            assert col_sums(table) == row_sums(transposed(table))
            checked += 1
    assert checked == 1 + 5 + 33 + 281  # faces of the complexes of S_1 to S_4


def test_permutation_matrices_are_maximal(s3_model):
    table = face_to_table(s3_model, Face(0, 3, 0))
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
    for t in sorted(tables3, key=lambda t: -order_rank(t)):
        for cover in above[t]:
            reach[t] |= reach[cover]
    for t1 in tables3:
        for t2 in tables3:
            assert refinement_leq(t1, t2) == (t2 in reach[t1])


# --- the isomorphism ------------------------------------------------------------


def test_enumerate_tables_count():
    assert len(enumerate_tables(3)) == 33


def tables_by_product_filter(n):
    """Reference enumeration: each row among all c-tuples of its sum's range,
    filtered by their sum, then tables with a zero column dropped."""
    out = []
    for r in range(1, n + 1):
        for row_sums in itertools.product(range(1, n + 1), repeat=r):
            if sum(row_sums) != n:
                continue
            for c in range(1, n + 1):
                choices = [
                    [
                        low
                        for low in itertools.product(range(total + 1), repeat=c)
                        if sum(low) == total
                    ]
                    for total in row_sums
                ]
                for rows in itertools.product(*choices):
                    if all(sum(row[j] for row in rows) >= 1 for j in range(c)):
                        out.append(ContingencyTable(tuple(rows)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_tables_matches_product_filter(n):
    assert enumerate_tables(n) == tables_by_product_filter(n)


def reference_isomorphism(cx):
    """The isomorphism check on ContingencyTable objects, every cover built
    and validated as a table."""
    model = bicox.contingency.SymmetricGroupFaces(cx.table)
    faces = as_faces(cx, cx.faces)
    tabs = [face_to_table(model, face) for face in faces]
    if len(set(tabs)) != len(faces):
        return False
    for face, tab, rank in zip(faces, tabs, cx.ranks(cx.faces).tolist()):
        if table_to_face(model, tab) != face or order_rank(tab) != rank:
            return False
    if set(tabs) != set(enumerate_tables(model.n)):
        return False
    low, high = cx.cover_edges(cx.faces)
    complex_edges = {(tabs[i], tabs[j]) for i, j in zip(low.tolist(), high.tolist())}
    split_edges = {(tab, above) for tab in tabs for above in upper_covers(tab)}
    merge_edges = {(below, tab) for tab in tabs for below in lower_covers(tab)}
    return complex_edges == split_edges == merge_edges


def cells_isomorphism(cx):
    """The isomorphism check on plain cells, face by face: each split or
    merge is looked up among the faces' cells by its tuple, and one that is
    missing there gives an edge (i, None) that the complex does not have."""
    model = bicox.contingency.SymmetricGroupFaces(cx.table)
    faces = as_faces(cx, cx.faces)
    tabs = [contingency_objects.cells_of(model, face) for face in faces]
    position = {cells: i for i, cells in enumerate(tabs)}
    if len(position) != len(faces):
        return False
    for face, cells, rank in zip(faces, tabs, cx.ranks(cx.faces).tolist()):
        if contingency_objects.face_of(model, cells) != face or len(cells) + len(cells[0]) - 2 != rank:
            return False
    if position.keys() != set(contingency_objects.table_cells(model.n)):
        return False
    low, high = cx.cover_edges(cx.faces)
    complex_edges = set(zip(low.tolist(), high.tolist()))
    row_splits = {}
    split_edges = {
        (i, position.get(above))
        for i, cells in enumerate(tabs)
        for above in contingency_objects.splits(cells, row_splits)
    }
    merge_edges = {
        (position.get(below), i)
        for i, cells in enumerate(tabs)
        for below in contingency_objects.merges(cells)
    }
    return complex_edges == split_edges == merge_edges


def shift_rank(cx, monkeypatch):
    bad = copy.copy(cx)
    bad.ranks = lambda packed: cx.ranks(packed) + 1
    return bad


def drop_cover_edge(cx, monkeypatch):
    low, high = cx.cover_edges(cx.faces)
    bad = copy.copy(cx)
    bad.cover_edges = lambda packed: (low[1:], high[1:])
    return bad


def add_cover_edge(cx, monkeypatch):
    """The first cover edge once more, upside down."""
    low, high = cx.cover_edges(cx.faces)
    bad = copy.copy(cx)
    bad.cover_edges = lambda packed: (np.append(low, high[0]), np.append(high, low[0]))
    return bad


def swap_one_line(cx, monkeypatch):
    """The model draws s1 with the permutation of s2 and back: on cells
    through the reference one-line notation, on arrays through the model's."""
    a, b = (cx.table.generator_id(k) for k in range(2))
    perm, fill = contingency_objects.one_line, bicox.contingency._one_line_array

    def swapped(table, position):
        perms = fill(table, position)
        perms[[a, b]] = perms[[b, a]]
        return perms

    monkeypatch.setattr(
        contingency_objects, "one_line", lambda table, w: perm(table, {a: b, b: a}.get(w, w))
    )
    monkeypatch.setattr(bicox.contingency, "_one_line_array", swapped)
    return cx


def remove_table(cx, monkeypatch):
    """The enumeration loses its last table."""
    cells, keys = contingency_objects.table_cells, bicox.contingency._table_keys
    monkeypatch.setattr(contingency_objects, "table_cells", lambda n: list(cells(n))[:-1])
    monkeypatch.setattr(bicox.contingency, "_table_keys", lambda n: keys(n)[:-1])
    return cx


def replace_table(cx, monkeypatch):
    """The enumeration's last table becomes its first once more: as many
    tables, not the same ones."""
    cells, keys = contingency_objects.table_cells, bicox.contingency._table_keys

    def again(every):
        return every[:-1] + every[:1]

    monkeypatch.setattr(contingency_objects, "table_cells", lambda n: again(list(cells(n))))
    monkeypatch.setattr(
        bicox.contingency, "_table_keys", lambda n: np.array(again(keys(n).tolist()))
    )
    return cx


def last_of_each(along):
    """``along`` without the last move of each table."""

    def fewer(x, y):
        source, moved = along(x, y)
        keep = np.append(source[1:] == source[:-1], False)[: len(source)]
        return source[keep], moved[keep]

    return fewer


def drop_split(cx, monkeypatch):
    """Every table loses its last split: on cells its last one, on arrays
    its last row split and its last column split."""
    cells, along = contingency_objects.splits, bicox.contingency._splits_along
    monkeypatch.setattr(
        contingency_objects, "splits", lambda c, row_splits: cells(c, row_splits)[:-1]
    )
    monkeypatch.setattr(bicox.contingency, "_splits_along", last_of_each(along))
    return cx


def drop_merge(cx, monkeypatch):
    """Every table loses its last merge: on cells its last one, on arrays
    its last row merge and its last column merge."""
    cells, along = contingency_objects.merges, bicox.contingency._merges_along
    monkeypatch.setattr(contingency_objects, "merges", lambda c: cells(c)[:-1])
    monkeypatch.setattr(bicox.contingency, "_merges_along", last_of_each(along))
    return cx


def missort_one_box(cx, monkeypatch):
    """The sorting map sends the one-box table to a face with no right
    generators."""
    sort, sort_all = contingency_objects.face_of, SymmetricGroupFaces._faces_of

    def missorted(model, cells):
        face = sort(model, cells)
        return face._replace(right=0) if cells == ((model.n,),) else face

    def all_missorted(self, rows, column_major, by_col):
        left, u, right = sort_all(self, rows, column_major, by_col)
        one_box = ~rows.any(axis=1) & ~by_col.any(axis=1)
        return left, u, np.where(one_box, 0, right)

    monkeypatch.setattr(contingency_objects, "face_of", missorted)
    monkeypatch.setattr(SymmetricGroupFaces, "_faces_of", all_missorted)
    return cx


def refuse_minimal(cx, monkeypatch):
    """No sorted representative passes the descent test."""
    free = bicox.contingency.descent_free
    monkeypatch.setattr(contingency_objects, "is_minimal_rep", lambda *args: False)
    monkeypatch.setattr(
        bicox.contingency, "descent_free", lambda table: [np.zeros_like(m) for m in free(table)]
    )
    return cx


CORRUPTIONS = [
    shift_rank,
    drop_cover_edge,
    add_cover_edge,
    swap_one_line,
    remove_table,
    replace_table,
    drop_split,
    drop_merge,
    missort_one_box,
    refuse_minimal,
]


def outcome(check, cx):
    try:
        return check(cx)
    except InternalCheckError as err:
        return str(err)


@pytest.mark.parametrize(
    "spec, corrupt",
    [(spec, None) for spec in ["A1", "A2", "A3", "A4"]]
    + [
        (spec, corrupt)
        for spec in ["A1", "A2", "A3"]
        for corrupt in CORRUPTIONS
        if not (spec == "A1" and corrupt is swap_one_line)  # A1 has one generator
    ],
)
def test_isomorphism_matches_object_reference(spec, corrupt, tables, monkeypatch):
    """The array check, the cells check and the object check all accept the
    complexes of S_2 to S_5, and each corruption makes all three return
    False, or raise the minimality error, on S_2 to S_4."""
    cx = TwoSidedComplex.build(tables(spec))
    expected = True
    if corrupt is not None:
        cx = corrupt(cx, monkeypatch)
        expected = "sorted representative is not minimal" if corrupt is refuse_minimal else False
    assert outcome(reference_isomorphism, cx) == expected
    assert outcome(cells_isomorphism, cx) == expected
    assert outcome(verify_refinement_isomorphism, cx) == expected


def test_refinement_isomorphism_on_a5(tables):
    """The complex of S_6, 37,277 faces."""
    assert verify_refinement_isomorphism(TwoSidedComplex.build(tables("A5")))


def cells_key(cells):
    """Reference key of a table given by its cells: the balls' cells
    row << 3 | col, ascending, 6 bits each, first highest."""
    balls = sorted(
        r << 3 | c for r, row in enumerate(cells) for c, x in enumerate(row) for _ in range(x)
    )
    return sum(cell << 6 * (len(balls) - 1 - k) for k, cell in enumerate(balls))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_table_keys_match_the_table_cells(n):
    keys = bicox.contingency._table_keys(n)
    assert sorted(keys.tolist()) == sorted(map(cells_key, contingency_objects.table_cells(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_array_moves_are_the_cells_moves(n):
    """For every table of total n, the array splits and merges are the
    cells ones, each once."""
    contingency = bicox.contingency
    every = list(contingency_objects.table_cells(n))
    rows, cols = contingency._balls(np.array([cells_key(c) for c in every], dtype=np.int64), n)
    column_major = np.argsort(cols, axis=1, kind="stable")
    by_col = np.take_along_axis(cols, column_major, axis=1)
    by_col_rows = np.take_along_axis(rows, column_major, axis=1)
    for along, moves in [
        (contingency._splits_along, lambda cells: contingency_objects.splits(cells, {})),
        (contingency._merges_along, contingency_objects.merges),
    ]:
        source, keys = contingency._covers(along, rows, cols, by_col, by_col_rows)
        expected = [(i, cells_key(move)) for i, cells in enumerate(every) for move in moves(cells)]
        assert sorted(zip(source.tolist(), keys.tolist())) == sorted(expected)


def test_one_line_is_the_left_action(tables):
    """Every w's permutation is distinct, and s*w is w's with the values of
    the canonical generator s swapped, for every s and w of A4."""
    model = SymmetricGroupFaces(tables("A4"))
    perms = {one_line(model.table, w) for w in range(model.table.order)}
    assert len(perms) == model.table.order
    vertices = model.table.system.components[0].vertices
    for k, s in enumerate(vertices):
        swap = {k + 1: k + 2, k + 2: k + 1}
        for w in range(model.table.order):
            expected = tuple(swap.get(v, v) for v in one_line(model.table, w))
            assert one_line(model.table, int(model.table.left_mult[w, s])) == expected
            assert id_of(model, expected) == model.table.left_mult[w, s]


@pytest.mark.parametrize(
    "perm", [(2, 3, 4), (1, 1, 2, 3, 4), (), (1, 2, 3), (1, 2, 4, 3, 0), (1, 2, 19, 4), (1, 1, 3, 4)]
)
def test_id_of_refuses_what_is_no_permutation(perm, tables):
    """On S_4, a tuple of another length, or with values that are not 1 to
    4, is no element, even where its packed 4-bit code would be a
    permutation's: (2, 3, 4) packs as the identity, (1, 2, 19, 4) as
    (1, 3, 2, 4)."""
    model = SymmetricGroupFaces(tables("A3"))
    with pytest.raises(KeyError):
        id_of(model, perm)


def test_table_to_face_checks_total(s3_model):
    with pytest.raises(ValueError, match="table total 2, expected 3"):
        table_to_face(s3_model, ContingencyTable(((1,), (1,))))


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
    table = from_display(
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


@pytest.mark.parametrize(
    "k, n",
    [(2, 3), (2, 4), (3, 2), (3, 3)],
)
def test_kway_maximal_counts(k, n):
    assert kway_maximal_count(k, n) == math.factorial(n) ** (k - 1)


def test_kway_capacity():
    with pytest.raises(CapacityError):
        kway_maximal_count(4, 4)
