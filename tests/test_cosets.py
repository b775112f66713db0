"""Double cosets: minimal representatives, closures, quotient counts."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from bicox.cosets import (
    coset_labels,
    count_cosets_by_sweep,
    count_minimal_by_descents,
    descent_free,
    double_quotient_size,
    is_minimal_rep,
    minimal_rep_table,
    sweep_counts,
    verify_double_quotients,
)
from bicox.enumeration import flag_f
from bicox.errors import InternalCheckError

from conftest import build, double_coset, down_reach, minimal_rep, mult, word


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


def closure_labels(table, gens_l, gens_r):
    """Reference double-coset numbers, by least id: every element closed at
    once over the columns s.x (s in I) and x.s (s in J), with no quotient."""
    neighbours = [table.left_mult[:, s] for s in range(table.rank) if gens_l >> s & 1]
    neighbours += [table.right_mult[:, s] for s in range(table.rank) if gens_r >> s & 1]
    labels = np.arange(table.order)
    while True:
        lower = labels.copy()
        for column in neighbours:
            lower = np.minimum(lower, labels[column])
        lower = lower[lower]
        if np.array_equal(lower, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = lower


def one_line(table, w):
    """One-line notation for an element of an A-type table (values 1-based)."""
    perm = list(range(1, table.rank + 2))
    for s in word(table, w):
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
    return tuple(perm)


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
            a = count_minimal_by_descents(table, gens_l, gens_r)
            b = count_cosets_by_sweep(table, gens_l, gens_r)
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


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A4", "D4", "F4", "H4"])
def test_minimal_rep_table_matches_closure_labels(spec, tables):
    """The least id of each closure-labelled coset, which is its shortest
    element since ids are length-sorted, is the table's representative."""
    table = tables(spec)
    reps = minimal_rep_table(table)
    for gens_l in range(table.full_mask + 1):
        for gens_r in range(table.full_mask + 1):
            labels = coset_labels(table, gens_l, gens_r)
            least = np.unique(labels, return_index=True)[1]
            assert np.array_equal(least[labels], reps[gens_l, gens_r]), (gens_l, gens_r)


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


def test_coset_sweep_needs_no_minimal_rep(a3, monkeypatch):
    import bicox.cosets

    def never(*args):
        raise AssertionError("the sweep oracle called minimal_rep_table or is_minimal_rep")

    monkeypatch.setattr(bicox.cosets, "minimal_rep_table", never)
    monkeypatch.setattr(bicox.cosets, "is_minimal_rep", never)
    expected = np.array(
        [
            [count_minimal_by_descents(a3, gens_l, gens_r) for gens_r in range(a3.full_mask + 1)]
            for gens_l in range(a3.full_mask + 1)
        ]
    )
    for gens_l in range(a3.full_mask + 1):
        for gens_r in range(a3.full_mask + 1):
            assert count_cosets_by_sweep(a3, gens_l, gens_r) == expected[gens_l, gens_r]
    # the all-pairs path, and its sweep reads no descent set either
    assert verify_double_quotients(a3, expected[::-1, ::-1])
    blind = dataclasses.replace(
        a3, des_left=np.zeros_like(a3.des_left), des_right=np.zeros_like(a3.des_right)
    )
    for gens_r in range(a3.full_mask + 1):
        assert sweep_counts(blind, gens_r).tolist() == expected[:, gens_r].tolist()


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
            assert by_sweep[gens_l, gens_r] == count_cosets_by_sweep(table, gens_l, gens_r)
            assert by_sweep[gens_l, gens_r] == count_minimal_by_descents(table, gens_l, gens_r)
    f = flag_f(table)  # f[S - I][S - J] = |^I W^J|
    assert np.array_equal(by_sweep[::-1, ::-1], f)
    assert verify_double_quotients(table, f)
    for cell in [(0, 0), (table.full_mask, 0), (1, table.full_mask)]:
        wrong = np.array(f)
        wrong[cell] += 1
        assert verify_double_quotients(table, wrong) is False


@pytest.mark.parametrize("spec", ALL_PAIRS_SPECS)
def test_coset_labels_match_closure_reference(spec, tables):
    table = tables(spec)
    for gens_l in range(table.full_mask + 1):
        for gens_r in range(table.full_mask + 1):
            expected = closure_labels(table, gens_l, gens_r)
            assert np.array_equal(coset_labels(table, gens_l, gens_r), expected), (gens_l, gens_r)


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
                double_quotient_size(bad, gens_l, gens_r)
            except InternalCheckError:
                failed.append((gens_l, gens_r))
    assert (0, 0b001) in failed


def test_all_pairs_check_fails_where_the_pair_loop_does(a3):
    """On a corrupt right_mult column the all-pairs check raises the text a
    loop over double_quotient_size (I outer, J inner) raises first, also
    when a wrong f entry comes later in that order; a wrong f entry at an
    earlier pair is a plain False, as in that loop."""
    right = a3.right_mult.copy()
    right[[0, 2], 0] = right[[2, 0], 0]
    bad = dataclasses.replace(a3, right_mult=right)
    masks = range(a3.full_mask + 1)
    expected = np.array(
        [[count_minimal_by_descents(bad, gens_l, gens_r) for gens_r in masks] for gens_l in masks]
    )
    failures = []
    for gens_l in masks:
        for gens_r in masks:
            try:
                double_quotient_size(bad, gens_l, gens_r)
            except InternalCheckError as err:
                failures.append(((gens_l, gens_r), str(err)))
    assert failures[0][0] == (0, 0b001)
    full = a3.full_mask
    f = expected[::-1, ::-1].copy()  # the flag f-table's complement order
    with pytest.raises(InternalCheckError) as caught:
        verify_double_quotients(bad, f)
    assert str(caught.value) == failures[0][1]
    f[full ^ 1, full ^ 0] += 1  # the pair (1, 0): after (0, 1) with I outer
    with pytest.raises(InternalCheckError) as caught:
        verify_double_quotients(bad, f)
    assert str(caught.value) == failures[0][1]
    f[full ^ 0, full ^ 0] += 1  # the pair (0, 0), before every other
    assert verify_double_quotients(bad, f) is False


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
