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
tables are distinct and are exactly those :func:`enumerate_tables` lists;
and the complex's cover edges equal both the split edges and the merge
edges of the tables.  It works on plain cells (the tuples of rows that
:class:`ContingencyTable` wraps) and finds each split or merge among the
faces' cells by its tuple, with no table object built per cover.  That
keeps the check as strong: a cover that is not a valid table is no face's
cells, all of which are enumerated tables, so its edge cannot match.
``bicox verify`` runs it on A_m for m <= 3 (S_2 to S_4).

Tables store their rows bottom to top to match the picture; display and
serialization emit the top row first.  A short k-way generalization is
included, enough to count maximal tables.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .complexes import Face, TwoSidedComplex
from .coxeter import GroupTable, descent_walk
from .errors import CapacityError, InternalCheckError
from .cosets import is_minimal_rep

Cells = tuple[tuple[int, ...], ...]  # a table's rows, bottom to top


@dataclass(frozen=True)
class ContingencyTable:
    """Nonnegative integer array, positive margins; rows bottom to top."""

    cells: Cells

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise ValueError("table must have at least one row and column")
        if min(map(len, self.cells)) != max(map(len, self.cells)):
            raise ValueError("ragged rows")
        if min(map(min, self.cells)) < 0:
            raise ValueError("negative entry")
        if min(map(sum, self.cells)) < 1:
            raise ValueError("zero row sum")
        if min(map(sum, zip(*self.cells))) < 1:
            raise ValueError("zero column sum")

    @classmethod
    def from_display(cls, rows_top_first) -> "ContingencyTable":
        return cls(tuple(tuple(r) for r in reversed(list(rows_top_first))))

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.cells)

    @property
    def order_rank(self) -> int:
        """Rank in refinement order: the number of bars."""
        return (self.rows - 1) + (self.cols - 1)

    def display(self) -> list[list[int]]:
        """Rows as printed, top row first."""
        return [list(row) for row in reversed(self.cells)]

    def row_sums(self) -> list[int]:
        return [sum(row) for row in self.cells]

    def col_sums(self) -> list[int]:
        return [sum(col) for col in zip(*self.cells)]

    def transpose(self) -> "ContingencyTable":
        return ContingencyTable(tuple(zip(*self.cells)))


def _block_index(bar_mask: int, n: int) -> tuple[int, ...]:
    """The 0-based block of each letter 1..n (at index letter - 1) when [n]
    is cut into consecutive blocks at the barred gaps."""
    return tuple(itertools.accumulate((bar_mask >> s & 1 for s in range(n - 1)), initial=0))


class SymmetricGroupFaces:
    """Bridges a type-A group table and the contingency-table picture.

    The group must be irreducible of type A; its elements are handled in
    one-line notation through the canonical generator numbering of the
    component (generator k is the adjacent transposition of k+1, k+2).
    The one-line permutations are filled once, in ascending ids along the
    :func:`~bicox.coxeter.descent_walk`: for s the canonical generator k,
    s*x is x with the values k+1 and k+2 swapped.
    """

    def __init__(self, table: GroupTable):
        if not table.system.is_irreducible("A"):
            raise ValueError(
                f"contingency model needs an irreducible type-A group, got "
                f"{table.system.canonical_name}"
            )
        self.table = table
        self.n = table.rank + 1  # letters being permuted
        component = table.system.components[0]
        self._position = {v: k for k, v in enumerate(component.vertices)}
        letter, shorter = descent_walk(table)
        perms = [tuple(range(1, self.n + 1))]
        for s, x in zip(letter[1:].tolist(), shorter[1:].tolist()):
            a = self._position[s] + 1
            swap = {a: a + 1, a + 1: a}
            perms.append(tuple(swap.get(v, v) for v in perms[x]))
        self._one_line = perms
        self._index = {p: w for w, p in enumerate(perms)}
        # per generator mask, the block of each letter when [n] is cut at the
        # gaps outside it; per canonical bar mask, the generators outside it
        full = table.full_mask
        self._block_of = [
            _block_index(self._canonical_mask(full ^ gens), self.n) for gens in range(full + 1)
        ]
        self._gens_of = [full ^ self._global_mask(bars) for bars in range(full + 1)]

    def one_line(self, w: int) -> tuple[int, ...]:
        return self._one_line[w]

    def id_of(self, perm) -> int:
        return self._index[tuple(perm)]

    def _canonical_mask(self, mask: int) -> int:
        return sum(1 << k for v, k in self._position.items() if mask >> v & 1)

    def _global_mask(self, mask: int) -> int:
        return sum(1 << v for v, k in self._position.items() if mask >> k & 1)

    def face_to_table(self, face: Face) -> ContingencyTable:
        """Count balls per box: rows cut by S-I, columns cut by S-J."""
        return ContingencyTable(self._cells_of(face))

    def _cells_of(self, face: Face) -> Cells:
        rows = self._block_of[face.left]
        cols = self._block_of[face.right]
        cells = [[0] * (cols[-1] + 1) for _ in range(rows[-1] + 1)]
        for c, value in zip(cols, self._one_line[face.w]):
            cells[rows[value - 1]][c] += 1
        return tuple(map(tuple, cells))

    def table_to_face(self, table: ContingencyTable) -> Face:
        """Sort the balls of each box left-to-right and bottom-to-top."""
        return self._face_of(table.cells)

    def _face_of(self, cells: Cells) -> Face:
        row_sums = list(map(sum, cells))
        col_sums = list(map(sum, zip(*cells)))
        total = sum(row_sums)
        if total != self.n:
            raise ValueError(f"table total {total}, expected {self.n}")
        # a bar after each row or column but the last, at its running total
        row_bars = sum(1 << (cut - 1) for cut in itertools.accumulate(row_sums[:-1]))
        col_bars = sum(1 << (cut - 1) for cut in itertools.accumulate(col_sums[:-1]))
        # each row block hands out its values in order to its boxes from the
        # left; reading columns left to right, each from the bottom, is a
        # stable sort of the values by column
        column_of = [c for row in cells for c, count in enumerate(row) for _ in range(count)]
        perm = [value for _, value in sorted(zip(column_of, range(1, total + 1)))]
        u = self.id_of(perm)
        face = Face(self._gens_of[row_bars], u, self._gens_of[col_bars])
        if not is_minimal_rep(self.table, face.left, face.w, face.right):
            raise InternalCheckError("sorted representative is not minimal")
        return face


# ---------------------------------------------------------------------------
# Refinement order on tables


def lower_covers(table: ContingencyTable) -> list[ContingencyTable]:
    """Merge each adjacent row pair and each adjacent column pair."""
    return [ContingencyTable(merged) for merged in _merges(table.cells)]


def _merges(cells: Cells) -> list[Cells]:
    """Row merges, then column merges, of ``cells``."""
    out = [
        cells[:k] + (tuple(map(operator.add, cells[k], cells[k + 1])),) + cells[k + 2 :]
        for k in range(len(cells) - 1)
    ]
    out += [
        tuple(row[:k] + (row[k] + row[k + 1],) + row[k + 2 :] for row in cells)
        for k in range(len(cells[0]) - 1)
    ]
    return out


def _row_splits(vector: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (low, high) with low + high = vector and neither all zero, in
    the lexicographic order of low: all of ``itertools.product``'s tuples
    but its first (zero) and last (the vector itself)."""
    lows = list(itertools.product(*(range(x + 1) for x in vector)))[1:-1]
    return [(low, tuple(map(operator.sub, vector, low))) for low in lows]


def upper_covers(table: ContingencyTable) -> list[ContingencyTable]:
    """Split one row (or column) into two in every possible way."""
    return [ContingencyTable(split) for split in _splits(table.cells, {})]


def _splits(cells: Cells, row_splits: dict) -> list[Cells]:
    """Row splits, then column splits, of ``cells``; ``row_splits`` memoizes
    :func:`_row_splits` by vector for the caller.

    No split repeats: two splits of rows k < k' agree at row k only if the
    low part of row k is the whole row.  Row and column splits differ in
    shape.
    """

    def pairs(vector):
        if vector not in row_splits:
            row_splits[vector] = _row_splits(vector)
        return row_splits[vector]

    out = [cells[:k] + pair + cells[k + 1 :] for k, row in enumerate(cells) for pair in pairs(row)]
    columns = tuple(zip(*cells))
    out += [
        tuple(zip(*(columns[:k] + pair + columns[k + 1 :])))
        for k, column in enumerate(columns)
        for pair in pairs(column)
    ]
    return out


def _grouping(coarse_sums: list[int], fine_sums: list[int]) -> list[int] | None:
    """Consecutive group sizes of fine parts matching coarse parts, if any."""
    sizes = []
    k = 0
    for target in coarse_sums:
        acc = 0
        size = 0
        while acc < target:
            if k >= len(fine_sums):
                return None
            acc += fine_sums[k]
            k += 1
            size += 1
        if acc != target:
            return None
        sizes.append(size)
    return sizes if k == len(fine_sums) else None


def refinement_leq(coarse: ContingencyTable, fine: ContingencyTable) -> bool:
    """Whether ``fine`` refines ``coarse``: consecutive row and column
    blocks of ``fine`` aggregate cell-by-cell to ``coarse``."""
    if coarse.total != fine.total:
        raise ValueError("tables must have equal totals")
    row_sizes = _grouping(coarse.row_sums(), fine.row_sums())
    col_sizes = _grouping(coarse.col_sums(), fine.col_sums())
    if row_sizes is None or col_sizes is None:
        return False
    merged = []
    k = 0
    for size in row_sizes:
        block = fine.cells[k : k + size]
        k += size
        merged.append([sum(col) for col in zip(*block)])
    aggregated = []
    for row in merged:
        out_row = []
        j = 0
        for size in col_sizes:
            out_row.append(sum(row[j : j + size]))
            j += size
        aggregated.append(tuple(out_row))
    return tuple(aggregated) == coarse.cells


def ordered_set_partition(table: ContingencyTable) -> tuple[frozenset[int], ...]:
    """Blocks of an n-row table (each row sum 1), one per column: the rows
    with a nonzero entry, counted bottom to top."""
    if any(total != 1 for total in table.row_sums()):
        raise ValueError("ordered set partitions need every row sum equal to 1")
    blocks = []
    for j in range(table.cols):
        blocks.append(
            frozenset(r + 1 for r in range(table.rows) if table.cells[r][j])
        )
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Independent enumeration and the order isomorphism


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _weak_compositions(total: int, parts: int):
    """Tuples of ``parts`` nonnegative ints summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_tables(n: int) -> list[ContingencyTable]:
    """All contingency tables with total n, by direct enumeration."""
    return [ContingencyTable(cells) for cells in _table_cells(n)]


def _table_cells(n: int) -> Iterator[Cells]:
    """The cells of every table with total n: row sums a composition of n,
    each row a weak composition of its sum, no column all zero.

    Rows are chosen in turn, in the order of ``itertools.product``, and a
    partial table is dropped as soon as its zero columns outnumber what the
    rows still to come can fill: min(sum, c) columns each.
    """
    rows_of = {
        (total, c): [(row, sum(1 << j for j, x in enumerate(row) if x))
                     for row in _weak_compositions(total, c)]
        for total in range(1, n + 1)
        for c in range(1, n + 1)
    }
    for r in range(1, n + 1):
        for row_sums in _compositions(n, r):
            for c in range(1, n + 1):
                choices = [rows_of[total, c] for total in row_sums]
                fill = [sum(min(t, c) for t in row_sums[d:]) for d in range(r + 1)]
                yield from _column_positive(choices, fill, (), (1 << c) - 1)


def _column_positive(choices, fill, rows, zero):
    """The tables that extend ``rows`` by one of ``choices[d]`` per later
    row d, each choice a row and its support mask, with no column zero;
    ``zero`` is the mask of columns still zero, and ``fill[d]`` the most
    of them rows d and on can fill."""
    d = len(rows)
    if d == len(choices):
        yield rows
        return
    for row, support in choices[d]:
        left = zero & ~support
        if left.bit_count() <= fill[d + 1]:
            yield from _column_positive(choices, fill, rows + (row,), left)


def verify_refinement_isomorphism(cx: TwoSidedComplex) -> bool:
    """Whether the faces of a type-A complex map bijectively and
    order-isomorphically onto tables (see the module docstring).

    Splits and merges are not validated as tables one by one: each one is
    looked up among the faces' cells, and one that is missing there gives
    an edge (i, None) that the complex does not have.
    """
    model = SymmetricGroupFaces(cx.table)
    faces = cx.as_faces(cx.faces)
    tabs = [model._cells_of(face) for face in faces]
    position = {cells: i for i, cells in enumerate(tabs)}
    if len(position) != len(faces):
        return False
    for face, cells, rank in zip(faces, tabs, cx.ranks(cx.faces).tolist()):
        # the rank and the table both count the bars
        if model._face_of(cells) != face or len(cells) + len(cells[0]) - 2 != rank:
            return False
    if position.keys() != set(_table_cells(model.n)):
        return False
    low, high = cx.cover_edges(cx.faces)
    complex_edges = set(zip(low.tolist(), high.tolist()))
    row_splits = {}
    split_edges = {
        (i, position.get(above))
        for i, cells in enumerate(tabs)
        for above in _splits(cells, row_splits)
    }
    merge_edges = {
        (position.get(below), i) for i, cells in enumerate(tabs) for below in _merges(cells)
    }
    return complex_edges == split_edges == merge_edges


# ---------------------------------------------------------------------------
# k-way tables


@dataclass(frozen=True)
class KWayTable:
    """Flat k-dimensional array of nonnegative ints with positive marginals."""

    shape: tuple[int, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.shape) < 2:
            raise ValueError("need at least two axes")
        if math.prod(self.shape) != len(self.cells):
            raise ValueError("cell count does not match shape")
        if any(x < 0 for x in self.cells):
            raise ValueError("negative entry")
        for axis in range(len(self.shape)):
            for index in range(self.shape[axis]):
                if self.marginal(axis, index) < 1:
                    raise ValueError(f"zero marginal on axis {axis} slice {index}")

    def strides(self) -> tuple[int, ...]:
        out = []
        acc = 1
        for size in reversed(self.shape):
            out.append(acc)
            acc *= size
        return tuple(reversed(out))

    def marginal(self, axis: int, index: int) -> int:
        strides = self.strides()
        total = 0
        for flat, value in enumerate(self.cells):
            if (flat // strides[axis]) % self.shape[axis] == index:
                total += value
        return total

    @property
    def total(self) -> int:
        return sum(self.cells)


def kway_maximal_count(k: int, n: int) -> int:
    """The number of maximal k-way tables of n objects (unit marginals).

    Maximal tables have shape n^k with entries 0/1; enumerated by brute
    force over the placements of n ones.
    """
    if k < 2 or n < 1 or n**k > 64 or n > 4:
        raise CapacityError(f"k-way maximal enumeration limited to small (k, n), got ({k}, {n})")
    cells = list(itertools.product(range(n), repeat=k))
    count = 0
    for chosen in itertools.combinations(range(len(cells)), n):
        coords = [cells[i] for i in chosen]
        if all(
            len({c[axis] for c in coords}) == n for axis in range(k)
        ):
            count += 1
    return count
