"""Double cosets: minimal representatives, closures, quotient counts."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from bicox.cosets import (
    _character_counts,
    _descent_counts,
    _supports,
    descent_free,
    double_quotient_size,
    minimal_rep_table,
    rep_dtype,
    right_coset_minima,
    verify_double_quotients,
)
from bicox.enumeration import flag_f
from bicox.errors import InternalCheckError

from conftest import (
    build,
    close,
    closure_count,
    closure_labels,
    double_coset,
    down_reach,
    is_minimal_rep,
    minimal_rep,
    mult,
    numbered,
    one_line,
)


# --- oracles ---------------------------------------------------------------


def subgroup(table, gens_mask):
    """The standard parabolic subgroup as an element set, by closure."""
    members = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for s in range(table.rank):
                if gens_mask >> s & 1:
                    y = int(table.left_mult[x, s])
                    if y not in members:
                        members.add(y)
                        new.append(y)
        frontier = new
    return members


def coset_oracle(table, gens_l, w, gens_r):
    """W_I w W_J as an explicit product set, independent of the closure code."""
    return {
        mult(table, a, mult(table, w, b))
        for a in subgroup(table, gens_l)
        for b in subgroup(table, gens_r)
    }


def coset_orbits(table, masks, gens_r):
    """``(coset, orbit)``: each element's right coset x.W_J, numbered by
    least id, and for the i-th left mask I of ``masks`` the row ``orbit[i]``
    labelling each coset with the least coset of its W_I-orbit.

    The right cosets are closed over J's ``right_mult`` columns.  Then s
    acts on the coset of least id u as the coset of s.u, and the orbits of
    every W_I are closed together on a len(masks) x [W : W_J] array of flat
    indices, where s moves an entry of row I only when s is in I.
    """
    steps = [table.right_mult[:, s] for s in range(table.rank) if gens_r >> s & 1]
    labels = close(np.arange(table.order), steps)
    least = np.flatnonzero(labels == np.arange(table.order))
    coset = numbered(labels)
    masks = np.asarray(masks)
    flat = np.arange(len(masks) * len(least)).reshape(len(masks), -1)
    steps = []
    for s in range(table.rank):
        moved = masks >> s & 1 == 1
        if moved.any():
            step = flat.copy()
            step[moved] += coset[table.left_mult[least, s]] - flat[0]
            steps.append(step.ravel())
    return coset, close(flat.ravel(), steps).reshape(flat.shape) - flat[:, :1]


def sweep_labels(table, gens_l, gens_r):
    """Entry x: the number of W_I x W_J, read from W_I's orbits on the
    right cosets of W_J (:func:`coset_orbits`): cosets are numbered by
    least id, so the least coset of an orbit holds the least id of its
    double coset."""
    coset, orbit = coset_orbits(table, [gens_l], gens_r)
    return numbered(orbit[0])[coset]


def sweep_counts(table, gens_r):
    """Entry I: the number of double cosets W_I w W_J, every I at once: the
    cosets that are the least of their W_I-orbit (:func:`coset_orbits`)."""
    _, orbit = coset_orbits(table, np.arange(table.full_mask + 1), gens_r)
    return np.count_nonzero(orbit == np.arange(orbit.shape[1]), axis=1)


def pair_loop(table, gens_l, gens_r):
    """|^I W^J| by :func:`double_quotient_size`, checked against
    :func:`closure_count`: the per-pair oracle that the all-pairs check
    replaced.  Raises :class:`InternalCheckError` where they differ."""
    by_descents = double_quotient_size(table, gens_l, gens_r)
    by_sweep = closure_count(table, gens_l, gens_r)
    if by_descents != by_sweep:
        raise InternalCheckError(
            f"double quotient count mismatch for I={gens_l:b}, J={gens_r:b}: "
            f"descent filter {by_descents}, coset sweep {by_sweep}"
        )
    return by_descents


def sweep_check(table, f):
    """The sweep reference of the double-quotient oracle: whether the descent
    filter, :func:`sweep_counts` and ``f[S - I][S - J]`` agree at every pair."""
    by_descents = _descent_counts(table)
    by_sweep = np.array([sweep_counts(table, gens_r) for gens_r in range(table.full_mask + 1)]).T
    by_f = np.asarray(f)[::-1, ::-1]
    return np.array_equal(by_sweep, by_descents) and np.array_equal(by_f, by_descents)


def id_by_one_line(table, perm):
    for w in range(table.order):
        if one_line(table, w) == tuple(perm):
            return w
    raise AssertionError(f"no element with one-line {perm}")


# --- exhaustive small-rank properties ----------------------------------------


@pytest.mark.parametrize("spec", ["A2", "B2", "A3"])
def test_minimal_rep_exhaustive(spec, tables):
    table = tables(spec)
    full = table.full_mask
    reach = down_reach(table)
    for gens_l in range(full + 1):
        for gens_r in range(full + 1):
            seen_cosets = {}
            for w in range(table.order):
                u = minimal_rep(table, gens_l, w, gens_r)
                assert is_minimal_rep(table, gens_l, u, gens_r)
                coset = frozenset(coset_oracle(table, gens_l, w, gens_r))
                assert u in coset
                # idempotence and uniqueness of the canonical form per coset
                assert minimal_rep(table, gens_l, u, gens_r) == u
                assert seen_cosets.setdefault(coset, u) == u
            for coset, u in seen_cosets.items():
                members = sorted(coset, key=lambda x: int(table.length[x]))
                # unique minimal-length member, strictly shortest
                assert members[0] == u
                if len(members) > 1:
                    assert table.length[members[0]] < table.length[members[1]]
                minimal_members = [
                    v for v in coset if is_minimal_rep(table, gens_l, v, gens_r)
                ]
                assert minimal_members == [u]
                for v in coset:
                    assert reach[v] >> u & 1


@pytest.mark.parametrize("spec", ["A2", "B2", "A3"])
def test_coset_closure_matches_oracle_and_partitions(spec, tables):
    table = tables(spec)
    full = table.full_mask
    for gens_l in range(full + 1):
        for gens_r in range(full + 1):
            reps = {
                minimal_rep(table, gens_l, w, gens_r) for w in range(table.order)
            }
            covered = set()
            for u in reps:
                coset = double_coset(table, gens_l, u, gens_r)
                assert coset == coset_oracle(table, gens_l, u, gens_r)
                assert not coset & covered
                covered |= coset
            assert covered == set(range(table.order))
            assert double_quotient_size(table, gens_l, gens_r) == len(reps)


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_quotient_counting_methods_agree(spec, tables):
    table = tables(spec)
    full = table.full_mask
    for gens_l in range(full + 1):
        for gens_r in range(full + 1):
            a = double_quotient_size(table, gens_l, gens_r)
            b = closure_count(table, gens_l, gens_r)
            assert a == b


@pytest.mark.parametrize(
    "spec",
    ["A1", "A2", "A3", "B2", "B3", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "F4"],
)
def test_minimal_rep_table_matches_scalar(spec, tables):
    table = tables(spec)
    reps = minimal_rep_table(table)
    full = table.full_mask
    assert reps.shape == (full + 1, full + 1, table.order)
    assert not reps.flags.writeable
    for gens_l in range(full + 1):
        for gens_r in range(full + 1):
            expected = [minimal_rep(table, gens_l, w, gens_r) for w in range(table.order)]
            assert reps[gens_l, gens_r].tolist() == expected, (gens_l, gens_r)


@pytest.mark.parametrize("spec", ["A2xA1", "I2(5)xA1", "I2(5)xA2", "A1xA1xA1xA1"])
def test_minimal_rep_table_matches_the_left_first_reference(spec, tables):
    """The scalar reference steps across left descents first, an order the
    table never takes (it takes right minima, then their left minima); on
    products the two agree entry by entry, in the narrowest id type."""
    table = tables(spec)
    reps = minimal_rep_table(table)
    assert reps.dtype == rep_dtype(table.order) and not reps.flags.writeable
    masks, ids = range(table.full_mask + 1), range(table.order)
    expected = [[[minimal_rep(table, i, w, j) for w in ids] for j in masks] for i in masks]
    assert reps.tolist() == expected


@pytest.mark.parametrize("spec, share", [("A1xA1xA1xA1xA1xA1xA1xA1", 8), ("H4", 2)])
def test_minimal_rep_table_holds_little_beside_its_result(spec, share, tables):
    """Beside the finished table the build holds its two one-sided tables
    of 2^n x |W| ids and one block of gather indices: on A1^8 under an
    eighth of the table, on H4 under half."""
    table = tables(spec)
    tracemalloc.start()
    try:
        reps = minimal_rep_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - reps.nbytes < reps.nbytes / share


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A4", "D4", "F4", "H4"])
def test_minimal_rep_table_matches_closure_labels(spec, tables):
    """The least id of each closure-labelled coset, which is its shortest
    element since ids are length-sorted, is the table's representative."""
    table = tables(spec)
    reps = minimal_rep_table(table)
    for gens_l in range(table.full_mask + 1):
        for gens_r in range(table.full_mask + 1):
            labels = closure_labels(table, gens_l, gens_r)
            least = np.unique(labels, return_index=True)[1]
            assert np.array_equal(least[labels], reps[gens_l, gens_r]), (gens_l, gens_r)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A4", "D4", "F4", "I2(5)xA1"])
def test_right_coset_minima_are_the_minimal_representatives(spec, tables):
    """The least id of each right coset x.W_J, which is its shortest
    element since ids are length-sorted, is the table's reps[0, J, x]."""
    table = tables(spec)
    reps = minimal_rep_table(table)
    for gens_r in range(table.full_mask + 1):
        assert np.array_equal(right_coset_minima(table, gens_r), reps[0, gens_r]), gens_r


def test_descent_counts_hold_no_float64_copy(tables):
    """H4's (16, 14,400) indicators are multiplied in four blocks of at
    most 4,096 ids, in float32: the counts are every pair's descent
    filter, and the product holds under 2 MiB."""
    table = tables("H4")
    tracemalloc.start()
    try:
        counts = _descent_counts(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    masks = range(table.full_mask + 1)
    assert counts.tolist() == [[double_quotient_size(table, i, j) for j in masks] for i in masks]


def test_character_counts_hold_no_subgroup_rows(tables):
    """H4's 16 subgroups W_J are counted from one support per element,
    with no (16, 14,400) array of rows: the count holds under 2 MiB."""
    table = tables("H4")
    tracemalloc.start()
    try:
        num, den = _character_counts(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert np.array_equal(num // den, _descent_counts(table)) and not (num % den).any()


@pytest.mark.parametrize("spec", ["A3", "F4", "H4", "I2(101)xA1"])
def test_character_counts_are_the_same_by_blocks_of_classes(spec, tables, monkeypatch):
    """Cut into blocks of one class each, the class counts are summed to
    the same num and den as in one block."""
    import bicox.cosets

    table = tables(spec)
    num, den = _character_counts(table)
    monkeypatch.setattr(bicox.cosets, "GATHER", 1)
    by_class = _character_counts(table)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(by_class, (num, den)))


def test_descent_free_masks_in_the_descent_dtype(tables):
    """The masks take the uint16 of the descent masks, so on H4 the two
    (16, 14,400) answers are built with no int64 array beside them; each
    row is the mask missing the descent set, as Python ints say."""
    table = tables("H4")
    tracemalloc.start()
    try:
        free_l, free_r = descent_free(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_400_000
    for free, des in ((free_l, table.des_left), (free_r, table.des_right)):
        for mask in range(table.full_mask + 1):
            assert free[mask].tolist() == [int(d) & mask == 0 for d in des.tolist()]


def test_coset_sweeps_read_no_descent_set(a3):
    """The per-pair closure count and the all-masks sweep give the descent
    filter's counts on A3, and the same counts with both descent masks
    zeroed: neither reference reads a descent set."""
    masks = range(a3.full_mask + 1)
    expected = np.array(
        [[double_quotient_size(a3, gens_l, gens_r) for gens_r in masks] for gens_l in masks]
    )
    assert verify_double_quotients(a3, expected[::-1, ::-1])
    blind = dataclasses.replace(
        a3, des_left=np.zeros_like(a3.des_left), des_right=np.zeros_like(a3.des_right)
    )
    for table in (a3, blind):
        for gens_l in masks:
            for gens_r in masks:
                assert closure_count(table, gens_l, gens_r) == expected[gens_l, gens_r]
        for gens_r in masks:
            assert sweep_counts(table, gens_r).tolist() == expected[:, gens_r].tolist()


ALL_PAIRS_SPECS = ["A3", "B3", "H3", "F4", "I2(5)xA2", "A1xA1xA1xA1"]


@pytest.mark.parametrize("spec", ALL_PAIRS_SPECS)
def test_all_pairs_counts_match_per_pair_counts(spec, tables):
    """Each J's counts for every I at once equal the per-pair sweep and the
    descent filter, and the all-pairs check accepts them and nothing else."""
    table = tables(spec)
    masks = range(table.full_mask + 1)
    by_sweep = np.array([sweep_counts(table, gens_r) for gens_r in masks]).T
    for gens_l in masks:
        for gens_r in masks:
            assert by_sweep[gens_l, gens_r] == closure_count(table, gens_l, gens_r)
            assert by_sweep[gens_l, gens_r] == double_quotient_size(table, gens_l, gens_r)
    f = flag_f(table)  # f[S - I][S - J] = |^I W^J|
    assert np.array_equal(by_sweep[::-1, ::-1], f)
    assert verify_double_quotients(table, f)
    for cell in [(0, 0), (table.full_mask, 0), (1, table.full_mask)]:
        wrong = np.array(f)
        wrong[cell] += 1
        assert verify_double_quotients(table, wrong) is False


@pytest.mark.parametrize("spec", ALL_PAIRS_SPECS)
def test_coset_labels_match_closure_reference(spec, tables):
    """The sweep's labels through W/W_J equal the plain closure's."""
    table = tables(spec)
    for gens_l in range(table.full_mask + 1):
        for gens_r in range(table.full_mask + 1):
            expected = closure_labels(table, gens_l, gens_r)
            assert np.array_equal(sweep_labels(table, gens_l, gens_r), expected), (gens_l, gens_r)


def test_corrupt_right_mult_column_fails_oracle(a3):
    """Swapping two entries of one right_mult column merges two cosets of
    W_{s}, which only the closure sees; the descent filter does not."""
    right = a3.right_mult.copy()
    right[[0, 2], 0] = right[[2, 0], 0]
    bad = dataclasses.replace(a3, right_mult=right)
    full = a3.full_mask
    failed = []
    for gens_l in range(full + 1):
        for gens_r in range(full + 1):
            try:
                pair_loop(bad, gens_l, gens_r)
            except InternalCheckError:
                failed.append((gens_l, gens_r))
    assert (0, 0b001) in failed


def descent_flipped(table):
    """``table`` with s1's left descent cleared: the counts of every pair
    (I, J) with s1 in I move, and the first such pair is (1, 0)."""
    des_left = table.des_left.copy()
    des_left[table.generator_id(0)] ^= 1
    return dataclasses.replace(table, des_left=des_left)


def test_all_pairs_check_fails_where_the_pair_loop_does(a3):
    """On a descent-flipped table the all-pairs check raises at the pair a
    loop over :func:`pair_loop` (I outer, J inner) raises at first, with
    the same counts, also when a wrong f entry comes later in that order; a
    wrong f entry at an earlier pair is a plain False, as in that loop.  A
    swapped right_mult column raises before any pair."""
    bad = descent_flipped(a3)
    masks = range(a3.full_mask + 1)
    expected = np.array(
        [[double_quotient_size(bad, gens_l, gens_r) for gens_r in masks] for gens_l in masks]
    )
    failures = []
    for gens_l in masks:
        for gens_r in masks:
            try:
                pair_loop(bad, gens_l, gens_r)
            except InternalCheckError as err:
                failures.append(((gens_l, gens_r), str(err)))
    assert failures[0][0] == (1, 0)
    first = failures[0][1].replace("coset sweep", "permutation characters")
    assert first.endswith("I=1, J=0: descent filter 13, permutation characters 12")
    full = a3.full_mask
    f = expected[::-1, ::-1].copy()  # the flag f-table's complement order
    with pytest.raises(InternalCheckError) as caught:
        verify_double_quotients(bad, f)
    assert str(caught.value) == first
    f[full ^ 1, full ^ 1] += 1  # the pair (1, 1): after (1, 0) with I outer
    with pytest.raises(InternalCheckError) as caught:
        verify_double_quotients(bad, f)
    assert str(caught.value) == first
    f[full ^ 0, full ^ 0] += 1  # the pair (0, 0), before every other
    assert verify_double_quotients(bad, f) is False
    swapped = swap_entries(a3, "right_mult", 0, 0, 2)
    with pytest.raises(InternalCheckError, match="does not divide"):
        verify_double_quotients(swapped, flag_f(swapped))


def swap_entries(table, name, s, x, y):
    """``table`` with entries x and y of column s of ``name`` swapped."""
    column = getattr(table, name).copy()
    column[[x, y], s] = column[[y, x], s]
    return dataclasses.replace(table, **{name: column})


def left_s1_times_s3(table):
    """``table`` with s1.x read as s1.x.s3.  It commutes with x -> x.s1, so
    (s.x).s = s.(x.s) still holds and every class size divides |W|; the
    support clause, supp(s.x) within supp(x) | {s}, is the first to fail."""
    left = table.left_mult.copy()
    left[:, 0] = table.right_mult[table.left_mult[:, 0], 2]
    return dataclasses.replace(table, left_mult=left)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda a3: swap_entries(a3, "right_mult", 0, 0, 2),
         "the conjugacy class of element 0 has 7 elements, which does not divide |W| = 24"),
        (lambda a3: swap_entries(a3, "right_mult", 0, 1, 2),
         "(s.x).s differs from s.(x.s) for s = 0, x = 0"),
        (left_s1_times_s3, "supp(s.x) is not within supp(x) | {s} for s = 0, x = 0"),
    ],
    ids=["class-size", "associativity", "support"],
)
def test_character_count_consistency_clauses(a3, corrupt, message):
    bad = corrupt(a3)
    with pytest.raises(InternalCheckError) as caught:
        verify_double_quotients(bad, flag_f(bad))
    assert str(caught.value) == message


def test_non_integer_count_is_a_reduced_fraction(a3, monkeypatch):
    import bicox.cosets

    counts = bicox.cosets._character_counts(a3)
    num, den = (part.copy() for part in counts)
    num[0, 0], den[0, 0] = 50, 4
    monkeypatch.setattr(bicox.cosets, "_character_counts", lambda table: (num, den))
    with pytest.raises(InternalCheckError) as caught:
        verify_double_quotients(a3, flag_f(a3))
    assert str(caught.value).endswith("I=0, J=0: descent filter 24, permutation characters 25/2")


def test_character_counts_read_the_support_pass(a3, monkeypatch):
    """The oracle takes each W_J from ``_supports``: the support of s1
    widened by s2 there makes it raise or return False."""
    import bicox.cosets

    supports = bicox.cosets._supports
    s1 = a3.generator_id(0)

    def widened(table):
        supp = supports(table).copy()
        supp[s1] |= 0b010
        return supp

    assert verify_double_quotients(a3, flag_f(a3))
    monkeypatch.setattr(bicox.cosets, "_supports", widened)
    try:
        assert not verify_double_quotients(a3, flag_f(a3))
    except InternalCheckError:
        pass


@pytest.mark.parametrize("spec", ALL_PAIRS_SPECS + ["I2(101)"])
def test_supports_give_every_parabolic_subgroup(spec, tables):
    """{w : supp(w) within J} is W_J, the right coset of e in the closure
    reference, for every J, also on the table with no descents: the
    support pass reads no descent set."""
    table = tables(spec)
    blind = dataclasses.replace(
        table, des_left=np.zeros_like(table.des_left), des_right=np.zeros_like(table.des_right)
    )
    for supp in (_supports(table), _supports(blind)):
        for gens_r in range(table.full_mask + 1):
            expected = closure_labels(table, 0, gens_r) == 0
            assert np.array_equal(supp | gens_r == gens_r, expected), gens_r


def test_support_pass_needs_a_shorter_right_neighbour(a3):
    """A3 with ids 1 and 23 swapped in both multiplication tables, and the
    lengths left in place, is still a group, so its classes pass; but
    element 1's right neighbours all have larger ids, so the support pass
    raises naming it before following any step."""
    swap = np.arange(a3.order)
    swap[[1, 23]] = [23, 1]

    def relabelled(mult):
        return swap[mult][swap].astype(mult.dtype)

    bad = dataclasses.replace(
        a3, left_mult=relabelled(a3.left_mult), right_mult=relabelled(a3.right_mult)
    )
    assert (bad.right_mult[1] > 1).all()
    with pytest.raises(InternalCheckError) as caught:
        _character_counts(bad)
    assert str(caught.value) == (
        "element 1 is not e, but its least right neighbour 20 is not one shorter"
    )


@pytest.mark.parametrize("spec", ALL_PAIRS_SPECS + ["I2(101)"])
def test_character_counts_match_sweep_and_descents(spec, tables):
    """Mackey's formula gives whole counts equal to the sweep's and the
    descent filter's, also on I2(101), whose class of reflections is one
    conjugation path of 101 elements, and on the table with no descents."""
    table = tables(spec)
    num, den = _character_counts(table)
    assert not (num % den).any()
    by_sweep = np.array([sweep_counts(table, gens_r) for gens_r in range(table.full_mask + 1)]).T
    assert np.array_equal(num // den, by_sweep)
    assert np.array_equal(num // den, _descent_counts(table))
    blind = dataclasses.replace(
        table, des_left=np.zeros_like(table.des_left), des_right=np.zeros_like(table.des_right)
    )
    blind_num, blind_den = _character_counts(blind)
    assert np.array_equal(blind_num, num) and np.array_equal(blind_den, den)


def corrupted(table, rng):
    """One seeded corruption: two entries of a left_mult or right_mult
    column swapped, one overwritten, or one descent bit flipped."""
    kind = int(rng.integers(3))
    if kind < 2:
        name = ("left_mult", "right_mult")[int(rng.integers(2))]
        s, x, y = int(rng.integers(table.rank)), *rng.integers(table.order, size=2)
        if kind == 0:
            return swap_entries(table, name, s, x, y)
        column = getattr(table, name).copy()
        column[x, s] = y
        return dataclasses.replace(table, **{name: column})
    name = ("des_left", "des_right")[int(rng.integers(2))]
    des = getattr(table, name).copy()
    des[rng.integers(table.order)] ^= np.uint16(1 << int(rng.integers(table.rank)))
    return dataclasses.replace(table, **{name: des})


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(5)xA1", "A1xA1xA1"])
def test_character_oracle_fails_every_table_the_sweep_fails(spec, tables):
    """On 200 seeded corruptions per group, every table that the sweep
    reference fails also fails the oracle, by a raise or by False."""
    table = tables(spec)
    rng = np.random.default_rng(sum(map(ord, spec)))
    swept = missed = 0
    for _ in range(200):
        bad = corrupted(table, rng)
        f = flag_f(bad)
        if sweep_check(bad, f):
            continue
        swept += 1
        try:
            missed += verify_double_quotients(bad, f)
        except InternalCheckError:
            pass
    assert missed == 0
    assert swept > 150  # most corruptions change some count


# --- pinned examples ---------------------------------------------------------


def test_a2_examples(a2):
    s1 = a2.generator_id(0)
    s2 = a2.generator_id(1)
    s1s2 = int(a2.left_mult[s2, 0])
    # fixed points and canonical forms
    for w in range(a2.order):
        assert minimal_rep(a2, 0, w, 0) == w
    assert minimal_rep(a2, 0b01, s1, 0b01) == 0
    # membership tests
    assert is_minimal_rep(a2, 0b01, 0, 0b10)
    assert not is_minimal_rep(a2, 0b01, s1, 0)
    s2s1 = int(a2.left_mult[s1, 1])
    assert is_minimal_rep(a2, 0b01, s2s1, 0b10)
    # coset contents
    assert double_coset(a2, 0b01, 0, 0b10) == {0, s1, s2, s1s2}
    for w in range(a2.order):
        assert double_coset(a2, 0, w, 0) == {w}
    assert double_coset(a2, 0b11, 0, 0b11) == set(range(6))
    # quotient sizes
    assert double_quotient_size(a2, 0b01, 0b10) == 2
    assert double_quotient_size(a2, 0, 0) == a2.order
    assert double_quotient_size(a2, 0b10, 0b10) == 2


def test_s7_minimal_representative():
    table = build("A6")
    w = id_by_one_line(table, (7, 1, 4, 2, 5, 3, 6))
    gens_l = 0b010111  # {s1, s2, s3, s5}
    gens_r = 0b100110  # {s2, s3, s6}
    u = minimal_rep(table, gens_l, w, gens_r)
    assert one_line(table, u) == (7, 1, 2, 3, 5, 4, 6)


def test_one_line_descent_convention(a3):
    """Right descents of the one-line word match the table's descent sets."""
    for w in range(a3.order):
        perm = one_line(a3, w)
        mask = 0
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                mask |= 1 << i
        assert mask == int(a3.des_right[w])
    perms = {one_line(a3, w) for w in range(a3.order)}
    assert perms == set(itertools.permutations(range(1, 5)))
