"""Flag counts, Eulerian matrices, reciprocity, and gamma expansions."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bicox.enumeration as enumeration
from bicox.cosets import double_quotient_size
from bicox.enumeration import (
    GammaTable,
    _submask_sums,
    _subset_transform,
    eulerian_from_flag,
    eulerian_symmetric,
    flag_f,
    flag_h,
    flag_h_from_f,
    gamma_basis_coeffs,
    gamma_expansion,
    reciprocity_holds,
    two_sided_eulerian,
)
from bicox.errors import CapacityError, GammaBasisError

from conftest import closure_count
from expected_tables import EULERIAN, GAMMA, grid_entries


# --- independent permutation-group oracles -----------------------------------


def census_from_cayley_graph(identity, n_gens, right_act, left_act):
    """Two-sided Eulerian matrix of a group given by explicit generator
    actions, with lengths from scratch by BFS of the right Cayley graph."""
    lengths = {identity: 0}
    frontier = [identity]
    while frontier:
        new = []
        for w in frontier:
            for s in range(n_gens):
                v = right_act(w, s)
                if v not in lengths:
                    lengths[v] = lengths[w] + 1
                    new.append(v)
        frontier = new
    matrix = [[0] * (n_gens + 1) for _ in range(n_gens + 1)]
    for w, lw in lengths.items():
        dl = sum(lengths[left_act(w, s)] < lw for s in range(n_gens))
        dr = sum(lengths[right_act(w, s)] < lw for s in range(n_gens))
        matrix[dl][dr] += 1
    return matrix


def swap_positions(w, i):
    out = list(w)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def type_a_census(n):
    """Symmetric group S_{n+1} with adjacent transpositions."""
    identity = tuple(range(1, n + 2))

    def left_act(w, s):
        a, b = s + 1, s + 2
        return tuple(b if x == a else a if x == b else x for x in w)

    return census_from_cayley_graph(identity, n, swap_positions, left_act)


def type_b_census(n):
    """Signed permutations; the last generator negates the last slot."""
    identity = tuple(range(1, n + 1))

    def right_act(w, s):
        if s < n - 1:
            return swap_positions(w, s)
        return w[:-1] + (-w[-1],)

    def left_act(w, s):
        if s < n - 1:
            a, b = s + 1, s + 2
            table = {a: b, b: a, -a: -b, -b: -a}
            return tuple(table.get(x, x) for x in w)
        return tuple(-x if abs(x) == n else x for x in w)

    return census_from_cayley_graph(identity, n, right_act, left_act)


def type_d_census(n):
    """Even-signed permutations; the last generator swaps and negates the
    last two slots."""
    identity = tuple(range(1, n + 1))

    def right_act(w, s):
        if s < n - 1:
            return swap_positions(w, s)
        return w[:-2] + (-w[-1], -w[-2])

    def left_act(w, s):
        if s < n - 1:
            a, b = s + 1, s + 2
            table = {a: b, b: a, -a: -b, -b: -a}
        else:
            a, b = n - 1, n
            table = {a: -b, -b: a, b: -a, -a: b}
        return tuple(table.get(x, x) for x in w)

    return census_from_cayley_graph(identity, n, right_act, left_act)


def permutation_flag_h(n):
    """Exact descent-pair census of S_{n+1} straight from one-line words."""
    size = 1 << n
    h = [[0] * size for _ in range(size)]
    for w in itertools.permutations(range(1, n + 2)):
        des_r = sum(1 << i for i in range(n) if w[i] > w[i + 1])
        inv = sorted(range(n + 1), key=lambda i: w[i])
        des_l = sum(1 << i for i in range(n) if inv[i] > inv[i + 1])
        h[des_l][des_r] += 1
    return h


# --- flag tables --------------------------------------------------------------


def test_flag_h_a2_descent_table(a2):
    h = flag_h(a2)
    expected = {
        (0, 0): 1,
        (0b01, 0b01): 1,
        (0b10, 0b10): 1,
        (0b01, 0b10): 1,
        (0b10, 0b01): 1,
        (0b11, 0b11): 1,
    }
    for gens_l in range(4):
        for gens_r in range(4):
            assert h[gens_l][gens_r] == expected.get((gens_l, gens_r), 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flag_h_matches_permutation_census(n, tables):
    assert flag_h(tables(f"A{n}")) == permutation_flag_h(n)


def test_flag_f_a2_values(a2):
    f = flag_f(a2)
    expected = {
        (0, 0): 1,
        (1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 1,
        (3, 0): 1, (0, 3): 1,
        (1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2,
        (3, 1): 3, (3, 2): 3, (1, 3): 3, (2, 3): 3,
        (3, 3): 6,
    }
    for (gens_l, gens_r), value in expected.items():
        assert f[gens_l][gens_r] == value


@pytest.mark.parametrize("spec", ["A2", "B2", "A3"])
def test_flag_f_equals_double_quotient_sizes(spec, tables):
    table = tables(spec)
    full = table.full_mask
    f = flag_f(table)
    for gens_l in range(full + 1):
        for gens_r in range(full + 1):
            pair = (table, full ^ gens_l, full ^ gens_r)
            assert f[gens_l][gens_r] == double_quotient_size(*pair)
            assert f[gens_l][gens_r] == closure_count(*pair)


def test_flag_f_corners(a3):
    f = flag_f(a3)
    assert f[0][0] == 1
    assert f[a3.full_mask][a3.full_mask] == a3.order


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "D4", "H3"])
def test_inclusion_exclusion_inverts_flag_f(spec, tables):
    table = tables(spec)
    assert flag_h_from_f(flag_f(table), table.rank) == flag_h(table)


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "D4", "H3"])
def test_reciprocity(spec, tables):
    table = tables(spec)
    assert reciprocity_holds(flag_f(table), flag_h(table), table.rank)


def test_reciprocity_rejects_corrupted_table(a2):
    f = flag_f(a2)
    h = flag_h(a2)
    f[1][1] += 1
    assert not reciprocity_holds(f, h, a2.rank)


def submask_sum_by_loops(h, n):
    """f[I][J] = sum of h[I'][J'] over I' <= I, J' <= J, cell by cell."""
    size = 1 << n
    return [
        [
            sum(h[a][b] for a in range(size) if a & ~i == 0 for b in range(size) if b & ~j == 0)
            for j in range(size)
        ]
        for i in range(size)
    ]


@st.composite
def h_tables(draw, low=0):
    n = draw(st.integers(1, 4))
    size = 1 << n
    row = st.lists(st.integers(low, 10**6), min_size=size, max_size=size)
    return n, draw(st.lists(row, min_size=size, max_size=size))


@settings(deadline=None)
@given(h_tables(), st.data())
def test_flag_layer_on_arbitrary_tables(nh, data):
    n, h = nh
    f = submask_sum_by_loops(h, n)
    assert reciprocity_holds(f, h, n)
    assert flag_h_from_f(f, n) == h
    cell = st.integers(0, (1 << n) - 1)
    i, j = data.draw(cell), data.draw(cell)
    delta = data.draw(st.sampled_from([-1, 1]))
    bad_f = [row[:] for row in f]
    bad_f[i][j] += delta
    assert not reciprocity_holds(bad_f, h, n)
    bad_h = [row[:] for row in h]
    bad_h[i][j] += delta
    assert not reciprocity_holds(f, bad_h, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subset_transform_matches_submask_sums(n):
    rng = np.random.default_rng(n)
    values = rng.integers(-10**6, 10**6, size=(1 << n, 1 << n), dtype=np.int64)
    forward = _subset_transform(values, n, inverse=False)
    assert np.array_equal(forward, _submask_sums(values))
    assert np.array_equal(_subset_transform(forward, n, inverse=True), values)


def signed_submask_sum_by_loops(f, n):
    """h[I][J] = sum of (-1)^(|I - I'| + |J - J'|) f[I'][J'] over I' <= I, J' <= J."""
    size = 1 << n
    sign = [(-1) ** bin(m).count("1") for m in range(size)]
    return [
        [
            sum(
                sign[i ^ a] * sign[j ^ b] * f[a][b]
                for a in range(size) if a & ~i == 0
                for b in range(size) if b & ~j == 0
            )
            for j in range(size)
        ]
        for i in range(size)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_submask_sums_match_the_cell_by_cell_sums(n):
    rng = np.random.default_rng(100 + n)
    values = rng.integers(-10**6, 10**6, size=(1 << n, 1 << n), dtype=np.int64)
    plain = _submask_sums(values)
    assert plain.dtype == np.int64
    assert plain.tolist() == submask_sum_by_loops(values.tolist(), n)
    signed = _submask_sums(values, signed=True)
    assert signed.tolist() == signed_submask_sum_by_loops(values.tolist(), n)
    assert np.array_equal(_submask_sums(plain, signed=True), values)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_submask_sums_are_exact_up_to_the_float_bound(n):
    # The largest entry whose 4^n-fold sums stay below 2^53, in both signs.
    peak = ((1 << 53) - 1) >> 2 * n
    size = 1 << n
    values = np.full((size, size), peak, dtype=np.int64)
    values[::2] = -peak
    assert _submask_sums(values).tolist() == submask_sum_by_loops(values.tolist(), n)
    assert _submask_sums(values, signed=True).tolist() == signed_submask_sum_by_loops(
        values.tolist(), n
    )
    for signed in (False, True):
        with pytest.raises(CapacityError, match="2\\^53"):
            _submask_sums(values * 2, signed=signed)


# Ranks 1 to 4 cover equal Kronecker factors (n even), unequal ones (n odd)
# and an empty high half (n = 1).
@settings(deadline=None)
@given(h_tables(low=-10**6))
def test_factored_submask_sums_match_the_loops(nv):
    n, values = nv
    arr = np.array(values, dtype=np.int64)
    assert _submask_sums(arr).tolist() == submask_sum_by_loops(values, n)
    assert _submask_sums(arr, signed=True).tolist() == signed_submask_sum_by_loops(values, n)


def dense_submask_sums(values, n, signed):
    """Z @ values @ Z.T with the whole 2^n x 2^n zeta matrix, in int64."""
    masks = np.arange(1 << n)
    zeta = ((masks[None, :] & ~masks[:, None]) == 0).astype(np.int64)
    if signed:
        parity = np.array([(-1) ** bin(m).count("1") for m in masks], dtype=np.int64)
        zeta *= np.outer(parity, parity)
    return zeta @ values @ zeta.T


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_factored_submask_sums_match_the_dense_product(n):
    rng = np.random.default_rng(200 + n)
    values = rng.integers(-10**6, 10**6, size=(1 << n, 1 << n), dtype=np.int64)
    for signed in (False, True):
        got = _submask_sums(values, signed=signed)
        assert got.dtype == np.int64
        assert np.array_equal(got, dense_submask_sums(values, n, signed))


def test_reciprocity_traced_peak_at_rank_8(tables):
    table = tables("D4xD4")
    f, h = flag_f(table), flag_h(table)
    tracemalloc.start()
    try:
        assert reciprocity_holds(f, h, table.rank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**20


@settings(deadline=None)
@given(h_tables(low=-10**6))
def test_subset_transform_matches_the_loops(nv):
    n, values = nv
    forward = _subset_transform(values, n, inverse=False)
    assert forward.tolist() == submask_sum_by_loops(values, n)
    assert _subset_transform(forward, n, inverse=True).tolist() == values


@pytest.mark.parametrize("entry", [2**52, -(2**52), 2**62])
def test_submask_sums_refuse_sums_past_2_to_the_53(entry):
    values = np.zeros((2, 2), dtype=np.int64)
    values[1, 0] = entry
    with pytest.raises(CapacityError):
        _submask_sums(values)
    with pytest.raises(CapacityError):
        reciprocity_holds(values.tolist(), values.tolist(), 1)


@pytest.mark.parametrize("which", ["f", "h"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_reciprocity_rejects_every_single_cell_corruption(which, delta, a3):
    f, h = flag_f(a3), flag_h(a3)
    size = 1 << a3.rank
    for i, j in itertools.product(range(size), repeat=2):
        bad = [row[:] for row in (f if which == "f" else h)]
        bad[i][j] += delta
        pair = (bad, h) if which == "f" else (f, bad)
        assert not reciprocity_holds(*pair, a3.rank), (i, j)


def test_reciprocity_rejects_tables_of_another_rank(a2, a3):
    assert not reciprocity_holds(flag_f(a2), flag_h(a2), a3.rank)
    assert not reciprocity_holds(flag_f(a3), flag_h(a2), a2.rank)


def test_reciprocity_at_rank_8(tables):
    table = tables("D4xD4")
    f, h, n = flag_f(table), flag_h(table), table.rank
    assert reciprocity_holds(f, h, n)
    assert _submask_sums(np.array(h)).tolist() == f
    assert _submask_sums(np.array(f), signed=True).tolist() == h
    for cell in [(0, 0), (37, 200), (255, 255)]:
        bad = [row[:] for row in f]
        bad[cell[0]][cell[1]] -= 1
        assert not reciprocity_holds(bad, h, n)
        bad = [row[:] for row in h]
        bad[cell[0]][cell[1]] += 1
        assert not reciprocity_holds(f, bad, n)


@pytest.mark.parametrize("inverse", [False, True])
def test_subset_transform_leaves_its_input_alone(inverse):
    values = np.arange(16, dtype=np.int64).reshape(4, 4)
    values.flags.writeable = False
    out = _subset_transform(values, 2, inverse=inverse)
    assert np.array_equal(values, np.arange(16).reshape(4, 4))
    assert out.flags.writeable and not np.shares_memory(out, values)


def test_reciprocity_does_not_use_the_transform(a3, monkeypatch):
    f, h = flag_f(a3), flag_h(a3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the reciprocity oracle called _subset_transform")

    monkeypatch.setattr(enumeration, "_subset_transform", forbidden)
    assert reciprocity_holds(f, h, a3.rank)


# --- Eulerian matrices ---------------------------------------------------------


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B2", "B3", "F4"])
def test_eulerian_matches_reference(spec, tables):
    assert two_sided_eulerian(tables(spec)) == EULERIAN[spec]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type_a_census_oracle(n, tables):
    assert two_sided_eulerian(tables(f"A{n}")) == type_a_census(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type_b_census_oracle(n, tables):
    assert two_sided_eulerian(tables(f"B{n}")) == type_b_census(n)


def test_type_d_census_oracle(tables):
    assert two_sided_eulerian(tables("D4")) == type_d_census(4)


@pytest.mark.parametrize("spec", ["A1", "A2", "A4", "B3", "D4", "H3", "I2(7)", "A7", "D4xD4"])
def test_eulerian_from_flag_agrees(spec, tables):
    table = tables(spec)
    assert eulerian_from_flag(flag_f(table), table.rank) == two_sided_eulerian(table)


@pytest.mark.parametrize("shape", [(16, 15), (15, 16), (16,), (8, 8), (16, 16, 1), (32, 32)])
def test_eulerian_from_flag_refuses_a_wrong_shape(shape):
    with pytest.raises(ValueError):
        eulerian_from_flag(np.ones(shape, dtype=np.int64).tolist(), 4)


def test_dihedral_eulerian(tables):
    assert two_sided_eulerian(tables("I2(7)")) == [[1, 0, 0], [0, 12, 0], [0, 0, 1]]


@pytest.mark.parametrize("spec", list(EULERIAN))
def test_reference_matrices_are_symmetric(spec):
    assert eulerian_symmetric(EULERIAN[spec])


def test_symmetry_negative_control():
    bad = [row[:] for row in EULERIAN["A3"]]
    bad[1][2] += 1
    assert not eulerian_symmetric(bad)


def classical_eulerian_number(n, k):
    """Descent count distribution of S_n by the alternating-sum formula."""
    return sum(
        (-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2)
    )


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_row_sums_are_one_sided_eulerian(rank, tables):
    table = tables(f"A{rank}")
    matrix = two_sided_eulerian(table)
    row_sums = [sum(row) for row in matrix]
    assert row_sums == [
        classical_eulerian_number(rank + 1, k) for k in range(rank + 1)
    ]
    assert sum(row_sums) == table.order
    # and the marginal really is the left-descent census
    direct = [0] * (rank + 1)
    for w in range(table.order):
        direct[int(table.des_left[w]).bit_count()] += 1
    assert row_sums == direct


def test_flag_h_mass(b3):
    h = flag_h(b3)
    assert sum(sum(row) for row in h) == b3.order
    assert h[0][0] == 1


def test_inclusion_exclusion_rejects_corrupt_input(a2):
    from bicox.errors import InternalCheckError

    f = flag_f(a2)
    f[1][1] -= 10
    with pytest.raises(InternalCheckError):
        flag_h_from_f(f, a2.rank)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_h_specialization(spec, tables):
    """The antidiagonal sums of the census count elements by total descents."""
    table = tables(spec)
    census = two_sided_eulerian(table)
    coeffs = [0] * (2 * table.rank + 1)
    for i, row in enumerate(census):
        for j, count in enumerate(row):
            coeffs[i + j] += count
    direct = [0] * (2 * table.rank + 1)
    for w in range(table.order):
        total = int(table.des_left[w]).bit_count() + int(table.des_right[w]).bit_count()
        direct[total] += 1
    assert coeffs == direct


# --- gamma expansion ------------------------------------------------------------


def fraction_gamma_reference(matrix):
    """Gamma coefficients by Gauss-Jordan elimination over the rationals,
    pivoting the unknowns in lexicographic (a, b) order; None when the
    basis does not reproduce the matrix with integer coefficients."""
    n = len(matrix) - 1
    unknowns = [(a, b) for a in range(n // 2 + 1) for b in range(n - 2 * a + 1)]
    columns = [gamma_basis_coeffs(n, a, b) for a, b in unknowns]
    rows = [
        [Fraction(col[i][j]) for col in columns] + [Fraction(matrix[i][j])]
        for i in range(n + 1)
        for j in range(n + 1)
    ]
    for c in range(len(unknowns)):
        pivot = next(k for k in range(c, len(rows)) if rows[k][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for k in range(len(rows)):
            if k != c and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[c])]
    if any(row[-1] for row in rows[len(unknowns):]):
        return None
    if any(rows[k][-1].denominator != 1 for k in range(len(unknowns))):
        return None
    return {key: int(rows[k][-1]) for k, key in enumerate(unknowns)}


GAMMA_SPECS = ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "F4", "H3", "H4",
               "I2(5)", "I2(6)", "I2(7)"]


@pytest.mark.parametrize("spec", GAMMA_SPECS)
def test_gamma_matches_fraction_reference(spec, tables):
    census = two_sided_eulerian(tables(spec))
    assert gamma_expansion(census).entries == fraction_gamma_reference(census)


@pytest.mark.parametrize("spec", list(EULERIAN))
def test_gamma_matches_fraction_reference_on_goldens(spec):
    assert gamma_expansion(EULERIAN[spec]).entries == fraction_gamma_reference(EULERIAN[spec])


def gamma_matrix(n, entries):
    total = [[0] * (n + 1) for _ in range(n + 1)]
    for (a, b), value in entries.items():
        coeffs = gamma_basis_coeffs(n, a, b)
        for i in range(n + 1):
            for j in range(n + 1):
                total[i][j] += value * coeffs[i][j]
    return total


@st.composite
def gamma_dicts(draw):
    n = draw(st.integers(0, 8))
    keys = [(a, b) for a in range(n // 2 + 1) for b in range(n - 2 * a + 1)]
    values = st.integers(-10**12, 10**12)
    return n, {key: draw(values) for key in keys}


@settings(deadline=None)
@given(gamma_dicts(), st.data())
def test_gamma_recovers_random_coefficients(n_entries, data):
    n, entries = n_entries
    matrix = gamma_matrix(n, entries)
    assert gamma_expansion(matrix).entries == entries
    cell = st.integers(0, n)
    i, j = data.draw(cell), data.draw(cell)
    delta = data.draw(st.sampled_from([-1, 1]))
    bad = [row[:] for row in matrix]
    bad[i][j] += delta
    if n % 2 == 0 and i == j == n // 2:
        # the centre cell alone is (xy)^(n/2), the basis element (n/2, 0)
        shifted = dict(entries)
        shifted[(n // 2, 0)] += delta
        assert gamma_expansion(bad).entries == shifted
    else:
        with pytest.raises(GammaBasisError, match="reconstruction"):
            gamma_expansion(bad)


def corruption_verdict(matrix, i, j, delta):
    """What gamma_expansion says of ``matrix`` with cell (i, j) moved by delta.

    The basis spans the bisymmetric matrices, and the unknowns are read at
    the pivot cells (a, a + b), those with i <= j <= n - i.  Off the pivots
    the coefficients do not move and the residual is delta at (i, j) alone.
    On one, the coefficients rebuild the matrix with all of (i, j)'s orbit
    under transpose and antipode moved by delta, so the residual is -delta
    on the rest of the orbit; the centre cell is an orbit of its own, the
    basis element (xy)^(n/2).
    """
    n = len(matrix) - 1
    orbit = {(i, j), (j, i), (n - i, n - j), (n - j, n - i)}
    if orbit == {(i, j)}:
        entries = dict(gamma_expansion(matrix).entries)
        entries[(n // 2, 0)] += delta
        return entries
    if not i <= j <= n - i:
        return f"gamma reconstruction leaves {delta} at cell ({i}, {j})"
    first = min(orbit - {(i, j)})
    return f"gamma reconstruction leaves {-delta} at cell ({first[0]}, {first[1]})"


@pytest.mark.parametrize("spec", ["F4", "D4xD4"])
def test_gamma_verdicts_on_every_single_cell_corruption(spec, tables):
    matrix = EULERIAN[spec] if spec in EULERIAN else two_sided_eulerian(tables(spec))
    n = len(matrix) - 1
    for i, j, delta in itertools.product(range(n + 1), range(n + 1), (-1, 1)):
        bad = [row[:] for row in matrix]
        bad[i][j] += delta
        try:
            got = gamma_expansion(bad).entries
        except GammaBasisError as error:
            got = str(error)
        assert got == corruption_verdict(matrix, i, j, delta), (i, j, delta)


def test_gamma_guard_rejects_a_non_triangular_basis(monkeypatch):
    def swapped(n, a, b):
        return gamma_basis_coeffs(n, a, 1 - b) if a == 0 and b < 2 else gamma_basis_coeffs(n, a, b)

    monkeypatch.setattr(enumeration, "gamma_basis_coeffs", swapped)
    with pytest.raises(GammaBasisError, match="unitriangular"):
        gamma_expansion(EULERIAN["A2"])


def test_gamma_basis_coeffs():
    # (x + y)(1 + xy) over n = 2: x + y + x^2 y + x y^2
    assert gamma_basis_coeffs(2, 0, 1) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert gamma_basis_coeffs(2, 1, 0) == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]


def test_gamma_a2(a2):
    gamma = gamma_expansion(two_sided_eulerian(a2))
    assert gamma.entries[(0, 0)] == 1
    assert gamma.entries[(1, 0)] == 2
    assert all(v == 0 for k, v in gamma.entries.items() if k not in {(0, 0), (1, 0)})
    assert gamma.as_grid() == [[1, 0], [0, 2]]


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B2", "B3", "F4"])
def test_gamma_matches_reference(spec, tables):
    gamma = gamma_expansion(two_sided_eulerian(tables(spec)))
    assert grid_entries(gamma.as_grid()) == grid_entries(GAMMA[spec])
    assert not gamma.negative_entries()


def test_gamma_reference_grids_reconstruct():
    """The pinned gamma grids reproduce the pinned Eulerian matrices."""
    for spec, grid in GAMMA.items():
        n = len(EULERIAN[spec]) - 1
        entries = {(a, row - a): value for (row, a), value in grid_entries(grid).items()}
        assert gamma_matrix(n, entries) == EULERIAN[spec], spec


def test_gamma_dihedral(tables):
    gamma = gamma_expansion(two_sided_eulerian(tables("I2(7)")))
    assert gamma.entries[(0, 0)] == 1
    assert gamma.entries[(1, 0)] == 10  # 2m - 4


@pytest.mark.parametrize("spec", ["H3", "H4", "I2(5)", "I2(6)"])
def test_gamma_nonnegative_observed(spec, tables):
    gamma = gamma_expansion(two_sided_eulerian(tables(spec)))
    assert not gamma.negative_entries()


def test_gamma_rejects_asymmetric_input():
    with pytest.raises(GammaBasisError, match=r"leaves 5 at cell \(1, 0\)"):
        gamma_expansion([[1, 0], [5, 1]])


@pytest.mark.parametrize(
    "matrix, shape",
    [
        ([[1, 0], [0]], "ragged with row lengths [2, 1]"),
        ([[1, 0, 0], [0, 1, 0]], "2 x 3"),
        ([[1], [0]], "2 x 1"),
    ],
)
@pytest.mark.parametrize("check", [gamma_expansion, eulerian_symmetric])
def test_eulerian_matrix_shape_is_checked(check, matrix, shape):
    with pytest.raises(ValueError, match=re.escape(f"is square, not {shape}") + "$"):
        check(matrix)


def test_gamma_negative_entries_reported_not_raised():
    table = GammaTable(n=2, entries={(0, 0): 1, (1, 0): -2})
    assert table.negative_entries() == {(1, 0): -2}
