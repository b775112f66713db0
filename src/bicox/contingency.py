"""Contingency-table model of the two-sided complex for symmetric groups.

A face (I, w, J) of the complex of S_n is drawn as balls in boxes: a ball in
column i, row w(i) (rows counted bottom to top), horizontal bars in the row
gaps indexed by S-I and vertical bars in the column gaps indexed by S-J.
Counting balls per box gives a nonnegative integer array with total n and
positive row and column sums, i.e. a two-way contingency table, and this is
a poset isomorphism onto refinement order: adding a bar splits a row or a
column, removing one merges two adjacent ones.

:func:`verify_refinement_isomorphism` checks this exhaustively: every face
makes the round trip through its table, with as many bars as its rank; the
tables are distinct and are exactly those of an independent enumeration;
and the complex's cover edges equal both the split edges and the merge
edges of the tables.  It works on whole arrays.  A table is one int64
key, its n balls' cells row << 3 | col sorted and packed 6 bits each
(:func:`_keys`), so n <= 8.  The faces become keys through
:meth:`SymmetricGroupFaces.balls`, which gathers their one-line
permutations against the block of each letter.  A key decodes
from its cells alone: in row-major order ball k takes the value k + 1, a
stable argsort by column gives the permutation, found among the sorted
one-line codes, and the steps in row and column give the bar masks
(:meth:`SymmetricGroupFaces._faces_of`).  :func:`_table_keys` enumerates
the tables by placing balls, never reading the faces.  Merges and splits
move the balls of a line (:func:`_merges_along`, :func:`_splits_along`),
and each is looked up among the face keys by ``searchsorted``; one that is
no face's key gives an edge that no cover has.  ``bicox verify`` runs it
on A_m for m <= 3 (S_2 to S_4).  ``bicox export`` prints the tables of
:meth:`SymmetricGroupFaces.drawn`, which counts the same balls per box, so
it draws the map that the check checks.  The per-face model, with its
table objects, the sorting map from a table back to its face, refinement
order with its covers and the direct enumeration, lives in the tests,
where the per-face checks on plain cells and on table objects are
references for this one.

Row 0 of the balls is the bottom row, to match the picture; a drawn table
is printed top row first.
"""

from __future__ import annotations

import numpy as np

from .complexes import TwoSidedComplex
from .coxeter import GroupTable, descent_walk, layer_bounds, popcount_table
from .errors import CapacityError, InternalCheckError
from .cosets import descent_free


class SymmetricGroupFaces:
    """Bridges a type-A group table and the contingency-table picture.

    The group must be irreducible of type A; its elements are handled in
    one-line notation through the canonical generator numbering of the
    component (generator k is the adjacent transposition of k+1, k+2).
    The one-line permutations are one (|W|, n) array, filled by
    :func:`_one_line_array`, and each is found by its code
    (:func:`_perm_codes`) among the sorted codes.
    """

    def __init__(self, table: GroupTable):
        if not table.system.is_irreducible("A"):
            raise ValueError(
                f"contingency model needs an irreducible type-A group, got "
                f"{table.system.canonical_name}"
            )
        self.table = table
        self.n = table.rank + 1  # letters being permuted
        vertices = np.array(table.system.components[0].vertices)
        position = np.empty(table.rank, dtype=np.intp)
        position[vertices] = np.arange(table.rank)
        self._one_line = _one_line_array(table, position)
        codes = _perm_codes(self._one_line - 1)
        self._sorter = np.argsort(codes)
        self._codes = codes[self._sorter]
        # [gens, letter - 1]: the block of each letter when [n] is cut at the
        # gaps outside the generator mask; [bars]: the generators outside the
        # canonical bar mask
        masks = np.arange(table.full_mask + 1)
        self._block_of = np.zeros((len(masks), self.n), dtype=np.int8)
        self._block_of[:, 1:] = np.cumsum(~masks[:, None] >> vertices & 1, axis=1)
        self._gens_of = table.full_mask ^ (masks[:, None] >> np.arange(table.rank) & 1) @ (
            1 << vertices
        )

    def balls(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of packed faces (I, w, J): for each face and letter
        i, the row block of the value w(i), when [n] is cut at the gaps
        outside I, and the column block of i, when cut at the gaps outside
        J.  Row 0 is the bottom row."""
        x, w = np.divmod(packed, self.table.order)
        left, right = x >> self.table.rank, x & self.table.full_mask
        return self._block_of[left[:, None], self._one_line[w] - 1], self._block_of[right]

    def drawn(self, packed: np.ndarray) -> list[list[list[int]]]:
        """The table of each packed face as printed, top row first: its
        :meth:`balls` counted into an (F, n, n) grid, each face's grid cut
        to its rows and columns."""
        rows, cols = self.balls(packed)
        n, count = self.n, len(packed)
        cells = (np.arange(count)[:, None] * n + rows) * n + cols
        grid = np.bincount(cells.ravel(), minlength=count * n * n).reshape(count, n, n)
        tops, rights = rows.max(axis=1, initial=0).tolist(), cols[:, -1].tolist()
        return [g[top::-1, : right + 1].tolist() for g, top, right in zip(grid, tops, rights)]

    def _faces_of(self, rows: np.ndarray, column_major: np.ndarray, by_col: np.ndarray):
        """(I, u, J) arrays of the faces that tables sort to, from their
        balls in row-major order: their ``rows``, and the stable argsort by
        column ``column_major`` with the columns ``by_col`` it sorts.  Ball
        k takes the value k + 1, so the one-line permutation is
        ``column_major`` + 1, and a bar cuts each gap where the row, or the
        column in column-major order, steps up.  u is -1 where no element
        has that permutation."""
        gaps = 1 << np.arange(self.n - 1)
        row_bars = (rows[:, 1:] != rows[:, :-1]) @ gaps
        col_bars = (by_col[:, 1:] != by_col[:, :-1]) @ gaps
        u = _find(self._codes, self._sorter, _perm_codes(column_major))
        return self._gens_of[row_bars], u, self._gens_of[col_bars]


def _one_line_array(table: GroupTable, position: np.ndarray) -> np.ndarray:
    """[w]: the one-line permutation of w, filled one length layer at a time
    along the :func:`~bicox.coxeter.descent_walk`: w is s*x for x one
    shorter, and with s the canonical generator k = ``position[s]``, s*x is
    x with the values k+1 and k+2 swapped."""
    letter, shorter = descent_walk(table)
    perms = np.empty((table.order, table.rank + 1), dtype=np.int8)
    perms[0] = np.arange(1, table.rank + 2)
    bounds = layer_bounds(table)
    for a, b in zip(bounds[1:-1], bounds[2:]):
        x = perms[shorter[a:b]]
        low = position[letter[a:b], None] + 1
        perms[a:b] = x + (x == low) - (x == low + 1)
    return perms


def _perm_codes(values: np.ndarray) -> np.ndarray:
    """One int64 per row of 0-based values, 4 bits each, first value highest."""
    values = np.asarray(values, dtype=np.int64)
    return values @ (np.int64(1) << 4 * np.arange(values.shape[-1] - 1, -1, -1))


def _find(ordered: np.ndarray, sorter: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For keys sorted by ``sorter`` into ``ordered``, the index of each
    query among the keys, -1 where it is absent."""
    at = np.minimum(np.searchsorted(ordered, queries), len(ordered) - 1)
    return np.where(ordered[at] == queries, sorter[at], -1)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, by one sort.  With numpy 2.4,
    ``np.unique`` takes 70 us on A3's 1,110 edges where this takes 7 us
    (two shared cores); with it, the ``verify_warm`` benchmark ran 1.4%
    slower and peaked 0.5 MB higher, in 10 of 10 paired runs."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])[: len(values)]]


def _table_keys(n: int) -> np.ndarray:
    """The key of every table with total n, by placing its balls in
    row-major order, never reading the faces: the first in row 0, each next
    one in the last one's row at a column no further left, or in the next
    row at any column, so that no row is empty.  A partial table is dropped
    once the columns it skips below its last used one outnumber the balls
    still to place, so the columns of every table are a prefix 0..c-1."""
    cols = np.arange(n)
    holes = np.zeros(1 << n, dtype=np.intp)  # [mask]: unused columns below its highest
    holes[1:] = np.repeat(cols, 1 << cols) + 1 - popcount_table(n)[1:]
    key, row, col, used = cols.astype(np.int64), np.zeros(n, dtype=np.int64), cols, 1 << cols
    for left in range(n - 2, -1, -1):  # balls still to place after this one
        moved = used[:, None] | 1 << cols  # [table, column of the next ball]
        fits = holes[moved] <= left
        at, down, col = np.nonzero(np.stack([fits & (col[:, None] <= cols), fits], axis=1))
        row = row[at] + down
        key, used = key[at] << 6 | row << 3 | col, moved[at, col]
    return key


def _keys(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """[table]: its balls' cells row << 3 | col, sorted ascending and packed
    6 bits each, first cell highest, into one int64."""
    cells = np.sort(rows << 3 | cols, axis=1)
    key = cells[:, 0].astype(np.int64)
    for column in cells.T[1:]:
        key = key << 6 | column
    return key


def _balls(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the cells of each key, in row-major order."""
    cells = (keys[:, None] >> 6 * np.arange(n - 1, -1, -1) & 63).astype(np.int8)
    return cells >> 3, cells & 7


def _repeat(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(source, k): each index i repeated counts[i] times, with k from 0 to
    counts[i] - 1."""
    source = np.repeat(np.arange(len(counts)), counts)
    return source, np.arange(len(source)) - (np.cumsum(counts) - counts)[source]


def _merges_along(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(source, x'): every merge of coordinate x (rows, or columns in
    column-major order, ascending in each table) of lines k and k + 1: the
    balls above line k move down one."""
    source, k = _repeat(x[:, -1])
    moved = x[source]
    return source, moved - (moved > k[:, None])


def _splits_along(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(source, x'): every split of one line of coordinate x (rows, or
    columns in column-major order, ascending in each table, with y the other
    coordinate) into two: a nonempty proper subset of the line's balls moves
    up one with the balls above the line.  Balls in one cell are alike, so
    the subset is a suffix of each run of equal cells.  The subsets, as
    masks over ball positions, depend only on where x steps up and where
    cells repeat, and are listed once per such pattern."""
    n = x.shape[1]
    gaps = 1 << np.arange(n - 1)
    bars = (x[:, 1:] != x[:, :-1]) @ gaps
    same = ((x[:, 1:] == x[:, :-1]) & (y[:, 1:] == y[:, :-1])) @ gaps
    patterns, kind = np.unique(bars << n | same, return_inverse=True)
    bar, rep = patterns[:, None] >> n, patterns[:, None] & (1 << n) - 1
    mask = np.arange(1, 1 << n)
    high = np.repeat(1 << np.arange(n), 1 << np.arange(n))  # [mask - 1]: its top ball
    low = mask & -mask
    span = 2 * high - low  # every ball from the lowest to the highest of mask
    whole = (mask == span) & ((bar << 1 | 1) & low > 0) & ((bar | 1 << n - 1) & high > 0)
    ok = (bar & span - high == 0) & ((mask & rep) << 1 & ~mask == 0) & ~whole
    per_pattern, chosen = np.nonzero(ok)
    count = np.bincount(per_pattern, minlength=len(patterns))
    source, k = _repeat(count[kind])
    chosen = chosen[(np.cumsum(count) - count)[kind[source]] + k]
    moved = x[source]
    line = moved[np.arange(len(source)), np.log2(low).astype(np.intp)[chosen]]
    up = (mask[:, None] >> np.arange(n) & 1).astype(np.int8)  # [mask - 1, ball]
    return source, moved + (moved > line[:, None]) + up[chosen]


def _covers(along, rows, cols, by_col, by_col_rows) -> tuple[np.ndarray, np.ndarray]:
    """(source, key) of the moves of ``along`` on the rows, then on the
    columns."""
    source, moved = along(rows, cols)
    across, shifted = along(by_col, by_col_rows)
    keys = [_keys(moved, cols[source]), _keys(by_col_rows[across], shifted)]
    return np.concatenate([source, across]), np.concatenate(keys)


def verify_refinement_isomorphism(cx: TwoSidedComplex) -> bool:
    """Whether the faces of a type-A complex map bijectively and
    order-isomorphically onto tables (see the module docstring).

    Each table is one int64 key (:func:`_keys`) of the faces'
    :meth:`SymmetricGroupFaces.balls`, for all faces at once.  The round
    trip decodes each key from its cells alone
    (:meth:`SymmetricGroupFaces._faces_of`); as in a loop over the faces,
    the first face that is not minimal for its masks, or that comes back
    other than it went or with another rank, decides: a non-minimal one
    raises, any other returns False.  Surjectivity compares the sorted keys
    with :func:`_table_keys`.  The splits and merges of every table are
    looked up among the face keys; an absent one becomes an edge -1 that
    no cover has.  The complex, split and merge edges are compared as sets,
    each a sorted array of distinct low * F + high over the F faces.
    """
    model = SymmetricGroupFaces(cx.table)
    n, order = model.n, cx.table.order
    if n > 8:
        raise CapacityError(f"a contingency key holds at most 8 balls, not {n}")
    count = len(cx.faces)
    x, w = np.divmod(cx.faces, order)
    left, right = x >> cx.rank, x & cx.table.full_mask
    keys = _keys(*model.balls(cx.faces))
    sorter = np.argsort(keys)
    ordered = keys[sorter]
    if (ordered[1:] == ordered[:-1]).any():
        return False
    rows, cols = _balls(keys, n)
    column_major = np.argsort(cols, axis=1, kind="stable")
    by_col = np.take_along_axis(cols, column_major, axis=1)
    by_col_rows = np.take_along_axis(rows, column_major, axis=1)
    gens_l, u, gens_r = model._faces_of(rows, column_major, by_col)
    free_l, free_r = descent_free(cx.table)
    minimal = free_l[gens_l, u] & free_r[gens_r, u]
    # the rank and the table both count the bars
    back = (gens_l == left) & (u == w) & (gens_r == right)
    back &= rows[:, -1] + by_col[:, -1] == cx.ranks(cx.faces)
    stop = np.flatnonzero(~(minimal & back))
    if len(stop):
        if not minimal[stop[0]]:
            raise InternalCheckError("sorted representative is not minimal")
        return False
    if not np.array_equal(_distinct(_table_keys(n)), ordered):
        return False
    low, high = cx.cover_edges(cx.faces)
    edges = [_distinct(low * count + high)]
    for along, up in [(_splits_along, True), (_merges_along, False)]:
        source, moved = _covers(along, rows, cols, by_col, by_col_rows)
        other = _find(ordered, sorter, moved)
        low, high = (source, other) if up else (other, source)
        edges.append(_distinct(np.where(other < 0, -1, low * count + high)))
    return np.array_equal(edges[0], edges[1]) and np.array_equal(edges[1], edges[2])
