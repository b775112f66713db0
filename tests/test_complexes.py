"""The two-sided complex: structure, topology, and the embedded complex."""

import copy
import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

import bicox.complexes
import bicox.cosets
from bicox.complexes import (
    ShellingReport,
    TwoSidedComplex,
    check_table_gate,
    euler_characteristic,
    face_labels,
    facet_walls,
    hasse_dot,
    sigma_ideal,
    verify_balanced,
    verify_boolean,
    verify_facet_count,
    verify_partition,
    verify_pseudomanifold,
    verify_shelling,
    verify_sigma_embedding,
    verify_thin,
    verify_wall_rows,
    verify_weak_order_monotone,
)
from bicox.cli import main
from bicox.cosets import minimal_rep_table
from bicox.coxeter import length_order
from bicox.errors import CapacityError, InternalCheckError

from conftest import Face, as_faces, closure_count, closure_labels, down_reach, word
from test_cosets import coset_oracle


@pytest.fixture(scope="module")
def complexes(tables):
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = TwoSidedComplex.build(tables(spec))
        return cache[spec]

    return get


def dim_counts(cx):
    dims, counts = np.unique(cx.ranks(cx.faces) - 1, return_counts=True)
    return dict(zip(dims.tolist(), counts.tolist()))


# --- references for the face order -------------------------------------------


def restriction(table, w):
    """The minimum face represented by w: (Asc_L(w), w, Asc_R(w))."""
    full = table.full_mask
    return Face(full ^ int(table.des_left[w]), w, full ^ int(table.des_right[w]))


def submasks(mask):
    """All submasks of ``mask`` in increasing numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def face_rank(n, face):
    """Poset rank |S-I| + |S-J|; the dimension of the face is rank - 1."""
    return 2 * n - face.left.bit_count() - face.right.bit_count()


def leq(cx, low, high):
    """Face order: reverse containment of index sets and cosets."""
    if low.left & high.left != high.left or low.right & high.right != high.right:
        return False
    return int(cx.reps[low.left, low.right, high.w]) == low.w


def lower_interval(cx, face):
    """All faces below ``face`` (inclusive), one per pair of supersets of
    its index sets."""
    full = cx.table.full_mask
    return [
        Face(gens_l, int(cx.reps[gens_l, gens_r, face.w]), gens_r)
        for gens_l in (face.left | extra for extra in submasks(full ^ face.left))
        for gens_r in (face.right | extra for extra in submasks(full ^ face.right))
    ]


# --- face enumeration --------------------------------------------------------


def test_a2_face_counts(complexes):
    cx = complexes("A2")
    assert len(cx.faces) == 33
    assert dim_counts(cx) == {-1: 1, 0: 4, 1: 10, 2: 12, 3: 6}


def test_a1_face_counts(complexes):
    cx = complexes("A1")
    assert dim_counts(cx) == {-1: 1, 0: 2, 1: 2}


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "B3"])
def test_facet_count_is_group_order(spec, complexes):
    assert verify_facet_count(complexes(spec))


@pytest.mark.parametrize("spec", ["A1", "A2", "B2xA1"])
def test_row_is_the_run_of_faces_with_that_index_pair(spec, complexes):
    cx = complexes(spec)
    x, w = np.divmod(cx.faces, cx.table.order)
    for gens in range(1 << 2 * cx.rank):
        assert np.array_equal(cx.row(gens), w[x == gens])


def test_row_of_an_empty_row_is_empty(complexes):
    """Past the last index pair, and in row 0 of a face list without its
    facets, there are no faces."""
    cx = complexes("A2")
    assert cx.row(1 << 2 * cx.rank).shape == (0,)
    no_facets = TwoSidedComplex(cx.table, cx.faces[cx.table.order:], cx.reps)
    assert no_facets.row(0).shape == (0,)
    assert len(no_facets.row(1)) == len(cx.row(1))
    assert not verify_facet_count(no_facets)


@pytest.mark.parametrize(
    "check",
    [verify_balanced, verify_pseudomanifold, verify_facet_count, sigma_ideal, verify_sigma_embedding],
)
def test_row_readers_build_nothing_the_size_of_the_faces(check, complexes):
    """Each reads the rows it needs as slices of the sorted faces: on A1^8
    (390,625 faces, 3.1 MB) none allocates a sixteenth of them."""
    cx = complexes("A1xA1xA1xA1xA1xA1xA1xA1")
    tracemalloc.start()
    try:
        result = check(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 3**8 if check is sigma_ideal else result
    assert peak < cx.faces.nbytes / 16


def test_build_face_count_mismatch_raises(tables, monkeypatch):
    monkeypatch.setattr(bicox.complexes, "face_count", lambda table: 34)
    with pytest.raises(InternalCheckError):
        TwoSidedComplex.build(tables("A2"))


def test_face_budget(tables, monkeypatch):
    monkeypatch.setattr(bicox.complexes, "TABLE_GATE", 10)
    with pytest.raises(CapacityError):
        TwoSidedComplex.build(tables("A3"))


@pytest.mark.parametrize("spec", ["A3", "I2(300)", "I2(40000)"])
def test_table_gate_counts_the_bytes_of_reps(spec, tables, monkeypatch):
    """The gate admits a table of exactly its bytes and refuses one byte
    less, with uint8, uint16 and uint32 entries."""
    table = tables(spec)
    size = minimal_rep_table(table).nbytes
    monkeypatch.setattr(bicox.complexes, "TABLE_GATE", size)
    check_table_gate(table)
    monkeypatch.setattr(bicox.complexes, "TABLE_GATE", size - 1)
    with pytest.raises(CapacityError) as refused:
        check_table_gate(table)
    assert str(refused.value) == f"{spec} has {size} table bytes, over the budget of {size - 1}"


def test_build_holds_less_than_half_the_faces_beside_the_complex(tables):
    """The build fills one face array a block at a time, beside a table of
    representatives built from two one-sided tables of narrow ids: on A1^8
    its traced peak over the finished complex stays under half the faces."""
    table = tables("A1xA1xA1xA1xA1xA1xA1xA1")
    tracemalloc.start()
    try:
        cx = TwoSidedComplex.build(table)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < cx.faces.nbytes / 2


def test_faces_are_packed_table_positions(complexes):
    cx = complexes("A3")
    order = cx.table.order
    assert cx.faces.dtype == np.int64 and not cx.faces.flags.writeable
    assert (np.diff(cx.faces) > 0).all()
    flat = cx.reps.reshape(-1, order)
    for face, packed in zip(as_faces(cx, cx.faces), cx.faces.tolist()):
        x = face.left << cx.rank | face.right
        assert packed == x * order + face.w
        assert flat[x, face.w] == face.w


def test_faces_of_element_partition(complexes):
    """The faces represented by w are the boolean interval [R_w, F_w] above
    restriction(w), so these intervals partition the faces."""
    cx = complexes("B2")
    table = cx.table
    by_element = {}
    for face in as_faces(cx, cx.faces):
        by_element.setdefault(face.w, []).append(face)
    assert sorted(by_element) == list(range(table.order))
    for w, interval in by_element.items():
        bottom = restriction(table, w)
        assert set(interval) == {
            Face(gens_l, w, gens_r)
            for gens_l in submasks(bottom.left)
            for gens_r in submasks(bottom.right)
        }
        assert all(leq(cx, bottom, f) for f in interval)


# --- the face order ----------------------------------------------------------


@pytest.mark.parametrize("spec", ["A2", "A3"])
def test_leq_matches_coset_containment_oracle(spec, complexes):
    cx = complexes(spec)
    table = cx.table
    faces = as_faces(cx, cx.faces)
    cosets = {f: frozenset(coset_oracle(table, f.left, f.w, f.right)) for f in faces}
    for f in faces:
        for g in faces:
            expected = (
                f.left & g.left == g.left
                and f.right & g.right == g.right
                and cosets[f] >= cosets[g]
            )
            assert leq(cx, f, g) == expected


def test_leq_examples(complexes):
    cx = complexes("A2")
    bottom = Face(0b11, 0, 0b11)
    for f in as_faces(cx, cx.faces):
        assert leq(cx, bottom, f)
    s1, s2 = 1, 2
    w0 = cx.table.longest
    assert leq(cx, Face(0b10, s1, 0b10), Face(0, w0, 0))
    assert not leq(cx, Face(0, s1, 0), Face(0, s2, 0))
    assert not leq(cx, Face(0, s2, 0), Face(0, s1, 0))


def test_lower_interval_examples(complexes):
    cx = complexes("A2")
    w0 = cx.table.longest
    assert len(lower_interval(cx, Face(0, w0, 0))) == 16
    bottom = Face(0b11, 0, 0b11)
    assert lower_interval(cx, bottom) == [bottom]
    got = set(lower_interval(cx, Face(0b01, 0, 0b10)))
    assert got == {
        Face(0b01, 0, 0b10),
        Face(0b11, 0, 0b10),
        Face(0b01, 0, 0b11),
        Face(0b11, 0, 0b11),
    }


def test_restriction(a2):
    assert restriction(a2, 0) == Face(0b11, 0, 0b11)
    s1s2 = int(a2.left_mult[2, 0])
    assert restriction(a2, s1s2) == Face(0b10, s1s2, 0b01)
    w0 = a2.longest
    assert restriction(a2, w0) == Face(0, w0, 0)


def walls_of_facet(table, w):
    """The codimension-one faces of the facet (0, w, 0), from facet_walls."""
    n, full = table.rank, table.full_mask
    walls = facet_walls(table)[:, w].tolist()
    return {Face(1 << bit >> n, u, 1 << bit & full) for bit, u in enumerate(walls)}


def test_codim_one_of_facet(a2, tables):
    s1 = 1
    assert set(walls_of_facet(a2, 0)) == {
        Face(0, 0, 0b01),
        Face(0, 0, 0b10),
        Face(0b01, 0, 0),
        Face(0b10, 0, 0),
    }
    assert set(walls_of_facet(a2, s1)) == {
        Face(0b01, 0, 0),
        Face(0, 0, 0b01),
        Face(0b10, s1, 0),
        Face(0, s1, 0b10),
    }
    a1 = tables("A1")
    assert set(walls_of_facet(a1, 1)) == {Face(0b01, 0, 0), Face(0, 0, 0b01)}


def down_covers_by_loop(cx, face):
    """Reference covers: one face per index addable to I, then to J."""
    out = []
    for s in range(cx.rank):
        gens_l = face.left | 1 << s
        if gens_l != face.left:
            out.append(Face(gens_l, int(cx.reps[gens_l, face.right, face.w]), face.right))
    for s in range(cx.rank):
        gens_r = face.right | 1 << s
        if gens_r != face.right:
            out.append(Face(face.left, int(cx.reps[face.left, gens_r, face.w]), gens_r))
    return out


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B3", "H3", "I2(5)", "A1xA1xA1"])
def test_covers_match_loop(spec, complexes):
    cx = complexes(spec)
    covers = cx.covers(cx.faces)
    assert covers.dtype == np.int64 and covers.shape == (len(cx.faces), 2 * cx.rank)
    for face, row in zip(as_faces(cx, cx.faces), covers):
        assert as_faces(cx, row[row >= 0]) == down_covers_by_loop(cx, face)
        present = [face.left >> s & 1 for s in range(cx.rank)]
        present += [face.right >> s & 1 for s in range(cx.rank)]
        assert (row < 0).tolist() == [bool(bit) for bit in present]


def test_cover_edges_stay_inside_the_chosen_faces(complexes):
    cx = complexes("A2")
    chosen = cx.faces[::-1][:20]  # not in ascending order
    faces = as_faces(cx, chosen)
    expected = [
        (faces.index(g), j)
        for j, f in enumerate(faces)
        for g in down_covers_by_loop(cx, f)
        if g in faces
    ]
    low, high = cx.cover_edges(chosen)
    assert expected and list(zip(low.tolist(), high.tolist())) == expected
    assert [len(ends) for ends in cx.cover_edges(cx.faces[:0])] == [0, 0]


# --- structural suite --------------------------------------------------------


def weak_order_by_reach(cx):
    """Reference monotonicity: reps[X, w] <= w for every table entry, read
    off the down-reach bitmasks."""
    reach = down_reach(cx.table)
    rows = cx.reps.reshape(-1, cx.table.order).tolist()
    return all(reach[w] >> u & 1 for row in rows for w, u in enumerate(row))


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "I2(5)"])
def test_structural_suite_exhaustive(spec, complexes):
    cx = complexes(spec)
    assert verify_boolean(cx)
    assert verify_balanced(cx)
    assert verify_partition(cx)
    assert verify_weak_order_monotone(cx) and weak_order_by_reach(cx)
    assert verify_facet_count(cx)
    assert verify_sigma_embedding(cx)


def test_structural_suite_exhaustive_rank4(complexes):
    cx = complexes("D4")
    assert verify_boolean(cx)
    assert verify_balanced(cx)
    assert verify_weak_order_monotone(cx) and weak_order_by_reach(cx)
    assert verify_facet_count(cx)
    assert verify_sigma_embedding(cx)


def with_entry(cx, gens_l, gens_r, w, value):
    """A copy of ``cx`` whose table has one entry changed."""
    bad = copy.copy(cx)
    bad.reps = cx.reps.copy()
    bad.reps[gens_l, gens_r, w] = value
    return bad


def verify_shelling_by_length(cx):
    return verify_shelling(cx, length_order(cx.table))


@pytest.mark.parametrize("spec", ["A2", "I2(5)"])
def test_every_single_entry_corruption_fails_weak_order(spec, complexes):
    """Boolean and the wall rows pin every entry to its coset's minimal
    element, so every wrong value in every entry fails."""
    cx = complexes(spec)
    for gens_l, gens_r, w in np.ndindex(cx.reps.shape):
        for value in range(cx.table.order):
            if value != cx.reps[gens_l, gens_r, w]:
                bad = with_entry(cx, gens_l, gens_r, w, value)
                assert not verify_weak_order_monotone(bad), (gens_l, gens_r, w, value)


def test_every_entry_corruption_fails_weak_order_at_rank_3(complexes):
    """At rank 3 the cover identity runs over bits 4 and 5 too: every wrong
    value in every entry of A1xA1xA1, and one wrong value in every entry
    of A3, fails."""
    cx = complexes("A1xA1xA1")
    for gens_l, gens_r, w in np.ndindex(cx.reps.shape):
        for value in range(cx.table.order):
            if value != cx.reps[gens_l, gens_r, w]:
                bad = with_entry(cx, gens_l, gens_r, w, value)
                assert not verify_weak_order_monotone(bad), (gens_l, gens_r, w, value)
    cx = complexes("A3")
    shifts = np.random.default_rng(3).integers(1, cx.table.order, cx.reps.shape)
    for where in np.ndindex(cx.reps.shape):
        value = (int(cx.reps[where]) + int(shifts[where])) % cx.table.order
        assert not verify_weak_order_monotone(with_entry(cx, *where, value)), (where, value)


def with_rows(cx, rows):
    """A copy of ``cx`` whose table is ``rows``, reshaped to (I, J, w)."""
    bad = copy.copy(cx)
    bad.reps = rows.reshape(cx.reps.shape)
    return bad


def relabelled(cx, bit):
    """A copy of ``cx`` whose rows X holding ``bit`` are relabelled through
    the swap of s2 with the last element that has its descent sets."""
    table = cx.table
    s2 = table.generator_id(1)
    same = (table.des_left == table.des_left[s2]) & (table.des_right == table.des_right[s2])
    other = int(np.flatnonzero(same)[-1])
    assert other != s2
    swap = np.arange(table.order)
    swap[[s2, other]] = other, s2
    rows = cx.reps.reshape(1 << 2 * cx.rank, -1).copy()
    holds = np.arange(len(rows)) >> bit & 1 == 1
    rows[holds] = swap[rows[holds][:, swap]]
    return with_rows(cx, rows)


@pytest.mark.parametrize("bit", range(6))
def test_boolean_checks_the_cover_identity_across_every_bit_of_rank_3(bit, complexes):
    """Relabelling only the rows X that hold ``bit`` through a swap that
    keeps descent sets keeps every entry minimal, and keeps the cover
    identity across every other bit; across ``bit`` it breaks."""
    assert not verify_boolean(relabelled(complexes("A3"), bit))


@pytest.mark.parametrize("gather", [1, 7, 64])
def test_gathers_in_small_blocks_agree_with_one_block(gather, complexes, monkeypatch):
    """Blocks of rows, and of rows within a pair of rows X and X + bit,
    cover the whole table: in small blocks the table and the checks come
    out as in one block, and corruptions late in the table are seen.
    Identity rows on the downward-closed index pairs {0, 1 << 5} keep every
    cover identity and break minimality; relabelling the rows that hold
    bit 0, or bit 5, keeps minimality and breaks the cover identity across
    that bit.  Shelling reports, along the length order and with w0 first,
    are those of one block on every one of these tables."""
    cx = complexes("A3")
    identity = cx.reps.reshape(64, -1).copy()
    identity[1 << 5] = np.arange(cx.table.order)
    corrupt = (with_rows(cx, identity), relabelled(cx, 0), relabelled(cx, 5))
    by_length = length_order(cx.table)
    orders = (by_length, [cx.table.longest] + [w for w in by_length if w != cx.table.longest])
    one_block = [verify_shelling(c, order) for c in (cx,) + corrupt for order in orders]
    monkeypatch.setattr(bicox.cosets, "GATHER", gather)
    assert np.array_equal(minimal_rep_table(cx.table), cx.reps)
    assert verify_boolean(cx) and verify_balanced(cx) and verify_sigma_embedding(cx)
    for bad in corrupt:
        assert not verify_boolean(bad)
    assert [verify_shelling(c, order) for c in (cx,) + corrupt for order in orders] == one_block
    assert one_block[0].ok and not one_block[1].ok


def test_balanced_reads_each_vertex_row_alone(complexes):
    """The vertex of color (S - s3, S) below the facet (0, w0, 0) is
    (S - s3, e, S); s1 in its place is minimal in other rows, not in this."""
    cx = complexes("A3")
    table = cx.table
    bad = with_entry(cx, 0b011, 0b111, table.longest, table.generator_id(0))
    assert verify_balanced(cx) and not verify_balanced(bad)


def test_boolean_needs_the_wall_rows(complexes):
    """Relabelling the table through a swap of s2 and another element with
    the same descent sets keeps every boolean clause; only the wall rows
    tell, and the relabelled entries are not all below their elements."""
    cx = complexes("A3")
    table = cx.table
    s2 = table.generator_id(1)
    same = (table.des_left == table.des_left[s2]) & (table.des_right == table.des_right[s2])
    other = int(np.flatnonzero(same)[-1])
    assert other != s2
    swap = np.arange(table.order)
    swap[[s2, other]] = other, s2
    bad = copy.copy(cx)
    bad.reps = swap[cx.reps[..., swap]]
    assert verify_boolean(bad)
    assert not verify_wall_rows(bad)
    assert not verify_weak_order_monotone(bad) and not weak_order_by_reach(bad)


BOOLEAN_CHECKS = [verify_boolean, verify_weak_order_monotone, verify_shelling_by_length]
ORDER_CHECKS = BOOLEAN_CHECKS + [verify_sigma_embedding, verify_thin]


def thin_by_pairs(cx):
    """Reference thinness below the top: both orders of adding two indices
    x != y to a face reach the same representative."""
    flat = cx.reps.reshape(1 << 2 * cx.rank, -1)
    packed, w = np.divmod(cx.faces, cx.table.order)
    for x in range(2 * cx.rank):
        for y in range(x):
            both = 1 << x | 1 << y
            sel = packed & both == 0
            low, ws = packed[sel], w[sel]
            via_x = flat[low | both, flat[low | 1 << x, ws]]
            via_y = flat[low | both, flat[low | 1 << y, ws]]
            if not np.array_equal(via_x, via_y):
                return False
    return True


@pytest.mark.parametrize(
    "spec, where, value, failing",
    [
        # reps[0, {s1}, s1] is e, the minimal element of s1 W_{s1} = {e, s1}
        ("A3", (0, 0b001, "s1"), "w0", ORDER_CHECKS),
        ("A3", (0, 0b001, "s1"), "s2", ORDER_CHECKS),  # minimal, in another coset
        ("A3", (0, 0b001, "s1"), "s1", ORDER_CHECKS),
        # the minimum is (S, e, S)
        ("A3", (0b111, 0b111, "w0"), "s1", BOOLEAN_CHECKS),
        # the vertex (S - s1, e, S)
        ("A3", (0b110, 0b111, "w0"), "s1", [verify_balanced] + BOOLEAN_CHECKS),
        # in A2 only the covers adding a left (then a right) index see these
        ("A2", (0, 0b01, "s1"), "s2", BOOLEAN_CHECKS),
        ("A2", (0b01, 0, "s1"), "s2", BOOLEAN_CHECKS),
    ],
    ids=["non-minimal", "other-coset", "same-coset", "minimum", "vertex", "left-cover", "right-cover"],
)
def test_corrupt_table_entry_fails(spec, where, value, failing, complexes):
    cx = complexes(spec)
    table = cx.table
    name = {"s1": table.generator_id(0), "s2": table.generator_id(1), "w0": table.longest}
    gens_l, gens_r, w = where
    bad = with_entry(cx, gens_l, gens_r, name[w], name[value])
    for check in failing:
        assert check(cx)
        assert not check(bad), check.__name__
    assert thin_by_pairs(cx) and verify_thin(cx)
    if not thin_by_pairs(bad):  # the derived check is no weaker than the pair loop
        assert not verify_thin(bad)
    assert weak_order_by_reach(cx) and verify_weak_order_monotone(cx)
    if not weak_order_by_reach(bad):  # nor than the down-reach reference
        assert not verify_weak_order_monotone(bad)


@pytest.mark.parametrize(
    "replacement, failing",
    [
        (  # the packed face (0, w0, {s1}), in sorted position
            lambda cx: 1 * cx.table.order + cx.table.longest,
            [verify_partition, verify_sigma_embedding],
        ),
        (lambda cx: cx.faces[0], [verify_partition]),  # a face listed twice
    ],
    ids=["not-minimal", "repeated"],
)
def test_wrong_face_list_fails(replacement, failing, complexes):
    cx = complexes("A3")
    bad = copy.copy(cx)
    bad.faces = np.sort(np.append(cx.faces[:-1], replacement(cx)))
    for check in failing:
        assert check(cx)
        assert not check(bad), check.__name__


def test_non_minimal_face_with_the_right_counts_fails(complexes):
    """(0, w0, {s1}) in place of the facet (0, w0, 0): every element still
    represents as many faces as its interval has, but w0 is not minimal."""
    cx = complexes("A3")
    w0 = cx.table.longest
    bad = copy.copy(cx)
    bad.faces = np.sort(np.append(cx.faces[cx.faces != w0], cx.table.order + w0))
    assert verify_partition(cx)
    assert not verify_partition(bad)


def patch_fixed_points(monkeypatch, entries):
    """Build every complex from a table with some entries changed:
    ``entries`` maps (I, J, w) to the new entry, elements named "e", "s1"
    or "s2"."""

    def corrupted(table):
        reps = minimal_rep_table(table).copy()
        name = {"e": 0, "s1": table.generator_id(0), "s2": table.generator_id(1)}
        for (gens_l, gens_r, w), value in entries.items():
            reps[gens_l, gens_r, name[w]] = name[value]
        return reps

    monkeypatch.setattr(bicox.complexes, "minimal_rep_table", corrupted)


def test_an_extra_fixed_point_fails_the_build(tables, tmp_path, capsys, monkeypatch):
    """reps[0, {s1}, s1] = s1 makes one more fixed point than the interval
    sizes allow: the faces are read from the table, so the build refuses
    it, and ``bicox verify`` reports the complex as failed."""
    patch_fixed_points(monkeypatch, {(0, 0b001, "s1"): "s1"})
    with pytest.raises(InternalCheckError, match="enumerated 282 faces"):
        TwoSidedComplex.build(tables("A3"))
    assert main(["verify", "--type", "A3", "--cache-dir", str(tmp_path)]) == 1
    assert "\nFAIL complex  (enumerated 282 faces" in capsys.readouterr().out


@pytest.mark.parametrize("gens_l, gens_r", [(0, 0b001), (0b001, 0)], ids=["right", "left"])
def test_a_count_preserving_swap_of_fixed_points_fails_partition_and_boolean(
    gens_l, gens_r, tables, monkeypatch
):
    """The extra fixed point (0, s1, {s1}) and the lost one (0, s2, {s1}),
    or their mirrors ({s1}, s1, 0) and ({s1}, s2, 0), keep the count the
    build checks; partition sees the non-minimal face and boolean the
    table entries."""
    patch_fixed_points(monkeypatch, {(gens_l, gens_r, "s1"): "s1", (gens_l, gens_r, "s2"): "e"})
    cx = TwoSidedComplex.build(tables("A3"))
    assert (gens_l << cx.rank | gens_r) * cx.table.order + cx.table.generator_id(0) in cx.faces
    assert not verify_partition(cx)
    assert not verify_boolean(cx)


def test_partition_holds_less_than_half_a_byte_per_table_entry(complexes):
    """Faces are checked against the descent sets a block at a time, with
    no whole-table array beside ``reps``; A1^8's 390,625 faces take six
    blocks, and (S, s1, S) in place of the minimum (S, e, S), in the last
    one, is seen, as is the list without the minimum."""
    cx = complexes("A1xA1xA1xA1xA1xA1xA1xA1")
    tracemalloc.start()
    try:
        ok = verify_partition(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < cx.reps.size / 2
    bad = copy.copy(cx)
    bad.faces = cx.faces.copy()
    bad.faces[-1] += cx.table.generator_id(0)
    assert not verify_partition(bad)
    bad.faces = cx.faces[:-1]
    assert not verify_partition(bad)


# --- topology ----------------------------------------------------------------


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "I2(7)"])
def test_shelling_along_length_order(spec, complexes):
    cx = complexes(spec)
    report = verify_shelling(cx, length_order(cx.table))
    assert report.ok
    assert report.first_impure is None


def shelling_by_walk(cx, order):
    """Reference shelling check: walks face sets facet by facet.

    The boundary of each new facet is intersected with the union of all
    earlier boundaries and compared with the union of the closed lower
    intervals under its descent-type walls; the intersection must also be
    nonempty and pure of codimension one (each face strictly below another).
    """
    table = cx.table
    codim1_rank = 2 * cx.rank - 1
    prior = set()
    first_mismatch = None
    first_impure = None
    for k, w in enumerate(order, start=1):
        boundary = set(lower_interval(cx, Face(0, w, 0)))
        boundary.discard(Face(0, w, 0))
        got = boundary & prior
        expected = set()
        des_l, des_r = int(table.des_left[w]), int(table.des_right[w])
        for s in range(cx.rank):
            if des_l >> s & 1:
                expected.update(lower_interval(cx, Face(1 << s, int(table.left_mult[w, s]), 0)))
            if des_r >> s & 1:
                expected.update(lower_interval(cx, Face(0, int(table.right_mult[w, s]), 1 << s)))
        if got != expected and first_mismatch is None:
            first_mismatch = k
        if k > 1 and first_impure is None:
            impure = not got or any(
                face_rank(cx.rank, f) != codim1_rank
                and not any(g != f and leq(cx, f, g) for g in got)
                for f in got
            )
            if impure:
                first_impure = k
        prior |= boundary
    return ShellingReport(first_mismatch is None, first_mismatch, first_impure, len(order))


def shelling_orders(table, seed):
    """The length order, ten shuffles and ten orders with a few adjacent swaps."""
    rng = random.Random(seed)
    base = length_order(table)
    orders = [base]
    for _ in range(10):
        orders.append(rng.sample(base, len(base)))
    for _ in range(10):
        order = list(base)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(order) - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        orders.append(order)
    return orders


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "H3", "I2(5)"])
def test_shelling_matches_walk(spec, complexes):
    cx = complexes(spec)
    outcomes = set()
    for order in shelling_orders(cx.table, seed=sum(map(ord, spec))):
        report = verify_shelling(cx, order)
        assert report == shelling_by_walk(cx, order), order
        outcomes.add(report.ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "H3", "I2(5)"])
def test_shelling_matches_walk_in_one_row_blocks(spec, complexes, monkeypatch):
    """With GATHER = 7 a block holds one row (three for A1), so the wall row
    1 << b and the rows holding bit b are read in different blocks."""
    monkeypatch.setattr(bicox.cosets, "GATHER", 7)
    test_shelling_matches_walk(spec, complexes)


def test_shelling_holds_a_quarter_of_the_table_at_most(complexes, monkeypatch):
    """One pass over blocks of rows, with no (2^n, |W|) array per left mask:
    on H4 with one row per block the check traces under a quarter of the
    7.4 MB table."""
    cx = complexes("H4")
    order = length_order(cx.table)
    monkeypatch.setattr(bicox.cosets, "GATHER", 4096)
    tracemalloc.start()
    try:
        report = verify_shelling(cx, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.first_impure is None
    assert peak < cx.reps.nbytes / 4


def test_shelling_rejects_bad_order(complexes):
    cx = complexes("A2")
    w0_first = [cx.table.longest] + [w for w in range(6) if w != cx.table.longest]
    report = verify_shelling(cx, w0_first)
    assert not report.ok
    assert report.first_mismatch == 1
    assert report.first_impure == 2


def test_shelling_disjoint_facets_are_impure(complexes):
    """A table in which the facet of s shares no face with that of e: the
    intersection is empty, which counts as impure."""
    cx = complexes("A1")
    bad = copy.copy(cx)
    bad.reps = cx.reps.copy()
    bad.reps[..., 1] = 1
    report = verify_shelling(bad, [0, 1])
    assert report == shelling_by_walk(bad, [0, 1])
    assert (report.first_mismatch, report.first_impure) == (2, 2)


def test_shelling_rejects_non_permutation(complexes):
    cx = complexes("A2")
    with pytest.raises(ValueError):
        verify_shelling(cx, [0, 1, 2])


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2"])
def test_thin_pseudomanifold_euler(spec, complexes):
    cx = complexes(spec)
    assert verify_thin(cx)
    assert verify_pseudomanifold(cx)
    assert euler_characteristic(cx) == 0


def test_thin_needs_pseudomanifold(complexes, monkeypatch):
    cx = complexes("A2")
    monkeypatch.setattr(bicox.complexes, "verify_pseudomanifold", lambda cx: False)
    assert verify_boolean(cx) and not verify_thin(cx)


def test_euler_characteristic_a2_by_dimension(complexes):
    counts = dim_counts(complexes("A2"))
    assert counts[0] - counts[1] + counts[2] - counts[3] == 0


def euler_by_ranks(cx):
    """Reference Euler characteristic: each face's sign by its own rank."""
    rank = cx.ranks(cx.faces)
    return int(np.sum(np.where(rank % 2 == 1, 1, -1)[rank >= 1]))


def test_euler_characteristic_builds_nothing_the_size_of_the_faces(complexes):
    """It counts the faces of every row from the 4^8 + 1 row starts: on A1^8
    that is under the 3.1 MB of faces, where ranking every face took 9.8 MB."""
    cx = complexes("A1xA1xA1xA1xA1xA1xA1xA1")
    tracemalloc.start()
    try:
        chi = euler_characteristic(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi == 0
    assert peak < cx.faces.nbytes


@pytest.mark.parametrize("spec", ["A2", "B3"])
@pytest.mark.parametrize("row", [0, 0b000111, 0b101110, "last"])
def test_euler_characteristic_of_a_face_list_missing_one_face(spec, row, complexes):
    """One face dropped from row X moves the sum by the sign of its rank;
    the empty face, in the last row, counts for nothing."""
    cx = complexes(spec)
    n = cx.rank
    row = (1 << 2 * n) - 1 if row == "last" else row % (1 << 2 * n)
    drop = np.searchsorted(cx.faces, row * cx.table.order + cx.row(row)[-1])
    bad = copy.copy(cx)
    bad.faces = np.delete(cx.faces, drop)
    rank = 2 * n - bin(row).count("1")
    assert euler_characteristic(bad) == euler_by_ranks(bad) == (0 if rank == 0 else (-1) ** rank)


def test_wall_lies_in_two_specific_facets(complexes):
    cx = complexes("A2")
    wall = Face(0b01, 0, 0)  # ({s1}, e, empty)
    containing = [w for w in range(6) if wall in walls_of_facet(cx.table, w)]
    assert containing == [0, 1]  # the facets of e and s1


# --- the classical complex inside ----------------------------------------------


def test_sigma_ideal_a2(complexes):
    cx = complexes("A2")
    assert len(sigma_ideal(cx)) == 13


def test_sigma_ideal_a1(complexes):
    assert len(sigma_ideal(complexes("A1"))) == 3


def test_sigma_ideal_facets_a3(complexes):
    cx = complexes("A3")
    ideal = sigma_ideal(cx)
    top = [f for f in as_faces(cx, ideal) if f.right == 0]
    assert len(top) == 24


def test_classical_complex_face_count(complexes):
    """S4: the ideal has one face per left coset w W_K, every K, which is
    the sum over K of |W| / |W_K|."""
    cx = complexes("A3")
    table = cx.table
    cosets = sum(closure_count(table, 0, gens) for gens in range(table.full_mask + 1))
    assert cosets == len(sigma_ideal(cx)) == 24 + 12 * 3 + (4 + 6 + 4) + 1


def left_cosets(table, gens):
    """[w]: the coset w.W_K of K = ``gens`` as a frozenset of ids, found by
    walking ``right_mult`` over the generators in K from each unreached w."""
    letters = [s for s in range(table.rank) if gens >> s & 1]
    coset_of = [None] * table.order
    for u in range(table.order):
        if coset_of[u] is None:
            coset, todo = {u}, [u]
            while todo:
                w = todo.pop()
                for x in (int(table.right_mult[w, s]) for s in letters):
                    if x not in coset:
                        coset.add(x)
                        todo.append(x)
            for w in coset:
                coset_of[w] = frozenset(coset)
    return coset_of


def sigma_by_pairs(cx):
    """Reference embedding: the ideal's faces (0, u, K) go one-to-one onto
    all left cosets u.W_K, and f <= g, a ``reps`` lookup, exactly when
    coset(f) contains coset(g), over every pair of the ideal."""
    by_gens = [left_cosets(cx.table, gens) for gens in range(cx.table.full_mask + 1)]
    ideal = as_faces(cx, sigma_ideal(cx))
    cosets = [by_gens[f.right][f.w] for f in ideal]
    if len(set(cosets)) != len(ideal) or set(cosets) != set().union(*map(set, by_gens)):
        return False
    reps = cx.reps[0].tolist()
    return all(
        (f.right & g.right == g.right and reps[f.right][g.w] == f.w) == (high >= low)
        for f, high in zip(ideal, cosets)
        for g, low in zip(ideal, cosets)
    )


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "I2(5)"])
def test_sigma_embedding_agrees_with_the_pairwise_reference(spec, complexes):
    cx = complexes(spec)
    assert sigma_by_pairs(cx) and verify_sigma_embedding(cx)


def cases(test):
    """The argument tuples of a test's parametrize mark."""
    (mark,) = test.pytestmark
    return mark.args[1]


@pytest.mark.parametrize("spec, where, value, failing", cases(test_corrupt_table_entry_fails))
def test_sigma_reference_agrees_on_each_corrupt_entry(spec, where, value, failing, complexes):
    cx = complexes(spec)
    table = cx.table
    name = {"s1": table.generator_id(0), "s2": table.generator_id(1), "w0": table.longest}
    gens_l, gens_r, w = where
    bad = with_entry(cx, gens_l, gens_r, name[w], name[value])
    assert sigma_by_pairs(bad) == verify_sigma_embedding(bad)


@pytest.mark.parametrize("replacement, failing", cases(test_wrong_face_list_fails))
def test_sigma_reference_agrees_on_each_wrong_face_list(replacement, failing, complexes):
    cx = complexes("A3")
    bad = copy.copy(cx)
    bad.faces = np.sort(np.append(cx.faces[:-1], replacement(cx)))
    assert sigma_by_pairs(bad) == verify_sigma_embedding(bad)


@pytest.mark.parametrize("spec", ["A3", "B3"])
@pytest.mark.parametrize("what", ["entry", "face"])
def test_sigma_reference_agrees_on_seeded_corruptions(spec, what, complexes):
    """50 single changes each: an entry of a (0, K) row of the table set to
    a random element, or an ideal face replaced by a random pair (0, u, K)."""
    cx = complexes(spec)
    rng = random.Random(f"{spec}-{what}")
    order, ideal = cx.table.order, len(sigma_ideal(cx))
    verdicts = []
    for _ in range(50):
        gens, w, value = (rng.randrange(n) for n in (cx.table.full_mask + 1, order, order))
        if what == "entry":
            bad = with_entry(cx, 0, gens, w, value)
        else:
            bad = copy.copy(cx)
            bad.faces = cx.faces.copy()
            bad.faces[rng.randrange(ideal)] = gens * order + w
            bad.faces.sort()
        verdicts.append(verify_sigma_embedding(bad))
        assert sigma_by_pairs(bad) == verdicts[-1]
    assert not all(verdicts)


def test_sigma_embedding_fails_on_a_closure_with_two_classes_merged(complexes, monkeypatch):
    """Labelling two cosets of W_{s1} alike fails the check."""
    cx = complexes("A3")
    closure = bicox.complexes.right_coset_minima

    def merged(table, gens_r):
        labels = closure(table, gens_r)
        return np.where(labels == np.unique(labels)[1], 0, labels) if gens_r == 0b001 else labels

    monkeypatch.setattr(bicox.complexes, "right_coset_minima", merged)
    assert not verify_sigma_embedding(cx)


def test_sigma_embedding_sees_a_merge_that_the_table_and_faces_follow(complexes, monkeypatch):
    """The cosets {e, s1} and {s2, s2.s1} of W_{s1} labelled alike, with
    reps[0, {s1}] sending both to e and the face (0, s2, {s1}) dropped: the
    row and its entries agree with the closure, and only s2, which keeps e
    in the merged class, tells."""
    cx = complexes("A3")
    s2 = cx.table.generator_id(1)
    closure = bicox.complexes.right_coset_minima

    def merged(table, gens_r):
        labels = closure(table, gens_r)
        return np.where(labels == labels[s2], 0, labels) if gens_r == 0b001 else labels

    bad = copy.copy(cx)
    bad.reps = cx.reps.copy()
    bad.reps[0, 0b001][bad.reps[0, 0b001] == s2] = 0
    bad.faces = cx.faces[cx.faces != 0b001 * cx.table.order + s2]
    assert verify_sigma_embedding(cx) and not verify_sigma_embedding(bad)
    monkeypatch.setattr(bicox.complexes, "right_coset_minima", merged)
    assert not verify_sigma_embedding(bad)


def sigma_by_coset_labels(cx):
    """Reference for the embedding's three clauses per K, on cosets
    numbered 0, 1, ... by :func:`~conftest.closure_labels`: (1) the
    sorted numbers of row K's faces are every number once, (2) a bincount
    of the row holds each reps[0, K, w], numbered like w, and (3) one
    gather per generator s keeps every number for s in K and none outside."""
    table = cx.table
    for gens in range(table.full_mask + 1):
        labels, g, down = closure_labels(table, 0, gens), cx.row(gens), cx.reps[0, gens]
        if not (
            np.array_equal(np.sort(labels[g]), np.arange(labels.max() + 1))
            and np.bincount(g, minlength=table.order).take(down).all()
            and np.array_equal(labels.take(down), labels)
            and all(
                ((labels.take(table.right_mult[:, s]) == labels) == (gens >> s & 1)).all()
                for s in range(table.rank)
            )
        ):
            return False
    return True


SIGMA_CORRUPTIONS = ["entry", "dropped face", "added non-face", "swapped right_mult"]


def sigma_corrupted(cx, kind, rng):
    """One seeded corruption of ``kind``: an entry of a (0, K) row of the
    table set to a random element, one face of the ideal dropped, one
    non-face (0, w, K) added, or two entries of a right_mult column swapped."""
    table, ideal = cx.table, sigma_ideal(cx)
    gens, w, value = (rng.randrange(n) for n in (table.full_mask + 1, table.order, table.order))
    if kind == "entry":
        return with_entry(cx, 0, gens, w, value)
    bad = copy.copy(cx)
    if kind == "swapped right_mult":
        right = table.right_mult.copy()
        s = rng.randrange(table.rank)
        right[[w, value], s] = right[[value, w], s]
        bad.table = dataclasses.replace(table, right_mult=right)
    elif kind == "dropped face":
        bad.faces = np.delete(cx.faces, rng.randrange(len(ideal)))
    else:
        non_faces = np.setdiff1d(np.arange((table.full_mask + 1) * table.order), ideal)
        bad.faces = np.sort(np.append(cx.faces, non_faces[rng.randrange(len(non_faces))]))
    return bad


@pytest.mark.parametrize("kind", SIGMA_CORRUPTIONS)
@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "H3", "A2xA1", "I2(5)", "A1xA1xA1", "D4"])
def test_sigma_embedding_agrees_with_coset_labels_on_seeded_corruptions(spec, kind, complexes):
    """40 seeded corruptions of each kind per group: the check on
    right-coset minima gives the reference's verdict every time."""
    cx = complexes(spec)
    rng = random.Random(f"sigma-{spec}-{kind}")
    verdicts = []
    for _ in range(40):
        bad = sigma_corrupted(cx, kind, rng)
        verdicts.append(verify_sigma_embedding(bad))
        assert sigma_by_coset_labels(bad) == verdicts[-1]
    assert not all(verdicts)


# --- export -------------------------------------------------------------------


def test_hasse_dot_a2(complexes):
    dot = hasse_dot(complexes("A2"))
    assert dot.count("label=") == 33
    assert "(12|e|12)" in dot
    assert "(-|s1s2s1|-)" in dot


@pytest.mark.parametrize("spec", ["B3", "H3"])
def test_face_labels_spell_the_reference_words(spec, complexes):
    """Each facet (0, w, 0) is labelled by the reference reduced word of w,
    whichever order the faces come in."""
    cx = complexes(spec)
    facets = np.arange(cx.table.order)  # X = 0 packs (0, w, 0) as w
    expected = [
        "(-|" + ("".join(f"s{s + 1}" for s in word(cx.table, w)) or "e") + "|-)"
        for w in range(cx.table.order)
    ]
    assert face_labels(cx, facets) == expected
    assert face_labels(cx, facets[::-1]) == expected[::-1]


def test_hasse_dot_a1(complexes):
    dot = hasse_dot(complexes("A1"))
    assert dot.count("label=") == 5
    assert dot.count("->") == 6


def test_hasse_dot_deterministic(complexes):
    cx = complexes("A2")
    assert hasse_dot(cx) == hasse_dot(cx)


def test_hasse_dot_rank_range(complexes):
    cx = complexes("A2")
    dot = hasse_dot(cx, min_rank=3, max_rank=4)
    assert dot.count("label=") == 12 + 6
