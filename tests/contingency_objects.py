"""The per-face contingency-table model, a reference for the array check
and the drawing of :mod:`bicox.contingency`: tables as
:class:`ContingencyTable` objects or as plain cells, the drawing of one face
and the sorting map from a table back to its face, refinement order with
its covers, the direct enumeration of the tables of total n, ordered set
partitions and the count of maximal k-way tables.

It shares no drawing or lookup code with the array model: a face is drawn
from the word-based :func:`conftest.one_line` and blocks of letters built
here, a permutation's element is found through a dict built from the same
``one_line``, and the sorted representative is tested by the scalar
:func:`conftest.is_minimal_rep`.  Only the sorting map's conversion of bar
masks to generator masks reads the model's ``_gens_of``.
"""

import functools
import itertools
import operator
from dataclasses import dataclass

from bicox.errors import CapacityError, InternalCheckError

from conftest import Face, is_minimal_rep, one_line

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

    def display(self) -> list[list[int]]:
        """Rows as printed, top row first."""
        return [list(row) for row in reversed(self.cells)]


# --- tables ---------------------------------------------------------------------


def from_display(rows_top_first) -> ContingencyTable:
    return ContingencyTable(tuple(tuple(r) for r in reversed(list(rows_top_first))))


def rows(table: ContingencyTable) -> int:
    return len(table.cells)


def cols(table: ContingencyTable) -> int:
    return len(table.cells[0])


def total(table: ContingencyTable) -> int:
    return sum(sum(row) for row in table.cells)


def order_rank(table: ContingencyTable) -> int:
    """Rank in refinement order: the number of bars."""
    return (rows(table) - 1) + (cols(table) - 1)


def row_sums(table: ContingencyTable) -> list[int]:
    return [sum(row) for row in table.cells]


def col_sums(table: ContingencyTable) -> list[int]:
    return [sum(col) for col in zip(*table.cells)]


def transpose(table: ContingencyTable) -> ContingencyTable:
    return ContingencyTable(tuple(zip(*table.cells)))


# --- face -> table ----------------------------------------------------------------


def blocks_of(model, gens) -> list[int]:
    """The block of each letter 1..n, from 0, when [n] is cut at the
    canonical gaps (generator k of the component cuts after letter k + 1)
    of the generators outside ``gens``."""
    vertices = model.table.system.components[0].vertices
    return list(itertools.accumulate((not gens >> v & 1 for v in vertices), initial=0))


def cells_of(model, face: Face) -> Cells:
    """Count balls per box: rows cut by S-I, columns cut by S-J."""
    rows, cols = blocks_of(model, face.left), blocks_of(model, face.right)
    cells = [[0] * (cols[-1] + 1) for _ in range(rows[-1] + 1)]
    for c, value in zip(cols, one_line(model.table, face.w)):
        cells[rows[value - 1]][c] += 1
    return tuple(map(tuple, cells))


def face_to_table(model, face: Face) -> ContingencyTable:
    return ContingencyTable(cells_of(model, face))


# --- table -> face ----------------------------------------------------------------


@functools.cache
def _ids(model) -> dict:
    """[one-line permutation]: its element, for each element of ``model``;
    built once per model, which the cache keeps for the session."""
    return {one_line(model.table, w): w for w in range(model.table.order)}


def id_of(model, perm) -> int:
    """The element of ``model`` with one-line permutation ``perm``; KeyError
    for a tuple that is no element's permutation."""
    return _ids(model)[tuple(perm)]


def table_to_face(model, table: ContingencyTable) -> Face:
    """Sort the balls of each box left-to-right and bottom-to-top."""
    return face_of(model, table.cells)


def face_of(model, cells: Cells) -> Face:
    row_cuts = list(itertools.accumulate(map(sum, cells)))
    col_cuts = list(itertools.accumulate(map(sum, zip(*cells))))
    if row_cuts[-1] != model.n:
        raise ValueError(f"table total {row_cuts[-1]}, expected {model.n}")
    # a bar after each row or column but the last, at its running total
    row_bars = sum(1 << (cut - 1) for cut in row_cuts[:-1])
    col_bars = sum(1 << (cut - 1) for cut in col_cuts[:-1])
    # each row block hands out its values in order to its boxes from the
    # left; reading columns left to right, each from the bottom, is a
    # stable sort of the values by column
    column_of = [c for row in cells for c, count in enumerate(row) for _ in range(count)]
    perm = [value for _, value in sorted(zip(column_of, range(1, model.n + 1)))]
    face = Face(int(model._gens_of[row_bars]), id_of(model, perm), int(model._gens_of[col_bars]))
    if not is_minimal_rep(model.table, face.left, face.w, face.right):
        raise InternalCheckError("sorted representative is not minimal")
    return face


# --- refinement order ---------------------------------------------------------------


def lower_covers(table: ContingencyTable) -> list[ContingencyTable]:
    """Merge each adjacent row pair and each adjacent column pair."""
    return [ContingencyTable(merged) for merged in merges(table.cells)]


def merges(cells: Cells) -> list[Cells]:
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
    return [ContingencyTable(split) for split in splits(table.cells, {})]


def splits(cells: Cells, row_splits: dict) -> list[Cells]:
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
    if total(coarse) != total(fine):
        raise ValueError("tables must have equal totals")
    row_sizes = _grouping(row_sums(coarse), row_sums(fine))
    col_sizes = _grouping(col_sums(coarse), col_sums(fine))
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
    if any(s != 1 for s in row_sums(table)):
        raise ValueError("ordered set partitions need every row sum equal to 1")
    return tuple(
        frozenset(r + 1 for r in range(rows(table)) if table.cells[r][j])
        for j in range(cols(table))
    )


# --- direct enumeration ---------------------------------------------------------------


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _weak_compositions(n: int, parts: int):
    """Tuples of ``parts`` nonnegative ints summing to ``n``, in
    lexicographic order."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, parts - 1):
            yield (first,) + rest


def enumerate_tables(n: int) -> list[ContingencyTable]:
    """All contingency tables with total n, by direct enumeration."""
    return [ContingencyTable(cells) for cells in table_cells(n)]


def table_cells(n: int):
    """The cells of every table with total n: row sums a composition of n,
    each row a weak composition of its sum, no column all zero.

    Rows are chosen in turn, in the order of ``itertools.product``, and a
    partial table is dropped as soon as its zero columns outnumber what the
    rows still to come can fill: min(sum, c) columns each.
    """
    rows_of = {
        (s, c): [(row, sum(1 << j for j, x in enumerate(row) if x))
                 for row in _weak_compositions(s, c)]
        for s in range(1, n + 1)
        for c in range(1, n + 1)
    }
    for r in range(1, n + 1):
        for sums in _compositions(n, r):
            for c in range(1, n + 1):
                choices = [rows_of[s, c] for s in sums]
                fill = [sum(min(s, c) for s in sums[d:]) for d in range(r + 1)]
                yield from _column_positive(choices, fill, (), (1 << c) - 1)


def _column_positive(choices, fill, prefix, zero):
    """The tables that extend the rows ``prefix`` by one of ``choices[d]``
    per later row d, each choice a row and its support mask, with no column
    zero; ``zero`` is the mask of columns still zero, and ``fill[d]`` the
    most of them rows d and on can fill."""
    d = len(prefix)
    if d == len(choices):
        yield prefix
        return
    for row, support in choices[d]:
        left = zero & ~support
        if left.bit_count() <= fill[d + 1]:
            yield from _column_positive(choices, fill, prefix + (row,), left)


# --- k-way tables -----------------------------------------------------------------------


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
        if all(len({c[axis] for c in coords}) == n for axis in range(k)):
            count += 1
    return count
