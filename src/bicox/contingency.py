"""Contingency-table model of the two-sided complex for symmetric groups.

A face (I, w, J) of the complex of S_n is drawn as balls in boxes: a ball in
column i, row w(i) (rows counted bottom to top), horizontal bars in the row
gaps indexed by S-I and vertical bars in the column gaps indexed by S-J.
Counting balls per box gives a nonnegative integer array with total n and
positive row and column sums, i.e. a two-way contingency table, and this is
a poset isomorphism onto refinement order: adding a bar splits a row or a
column, removing one merges two adjacent ones.

Tables store their rows bottom to top to match the picture; display and
serialization emit the top row first.  A short k-way generalization is
included, enough to count maximal tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .complexes import Face, TwoSidedComplex
from .coxeter import GroupTable, descent_walk
from .errors import CapacityError, InternalCheckError
from .cosets import is_minimal_rep


@dataclass(frozen=True)
class ContingencyTable:
    """Nonnegative integer array, positive margins; rows bottom to top."""

    cells: tuple[tuple[int, ...], ...]

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


def _blocks(bar_mask: int, n: int) -> list[range]:
    """Consecutive 1-based blocks of [n] cut at the barred gaps."""
    blocks = []
    start = 1
    for s in range(n - 1):
        if bar_mask >> s & 1:
            blocks.append(range(start, s + 2))
            start = s + 2
    blocks.append(range(start, n + 1))
    return blocks


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
        full = self.table.full_mask
        perm = self.one_line(face.w)
        row_blocks = _blocks(self._canonical_mask(full ^ face.left), self.n)
        col_blocks = _blocks(self._canonical_mask(full ^ face.right), self.n)
        row_of = {value: r for r, block in enumerate(row_blocks) for value in block}
        cells = [[0] * len(col_blocks) for _ in row_blocks]
        for c, block in enumerate(col_blocks):
            for i in block:
                cells[row_of[perm[i - 1]]][c] += 1
        return ContingencyTable(tuple(tuple(row) for row in cells))

    def table_to_face(self, table: ContingencyTable) -> Face:
        """Sort the balls of each box left-to-right and bottom-to-top."""
        if table.total != self.n:
            raise ValueError(f"table total {table.total}, expected {self.n}")
        # a bar after each row or column but the last, at its running total
        row_bars = sum(1 << (cut - 1) for cut in itertools.accumulate(table.row_sums()[:-1]))
        col_bars = sum(1 << (cut - 1) for cut in itertools.accumulate(table.col_sums()[:-1]))
        row_blocks = _blocks(row_bars, self.n)
        # each box receives a run of consecutive values from its row block
        box_values = [[None] * table.cols for _ in range(table.rows)]
        for r, block in enumerate(row_blocks):
            nxt = block.start
            for c in range(table.cols):
                count = table.cells[r][c]
                box_values[r][c] = range(nxt, nxt + count)
                nxt += count
        perm = []
        for c in range(table.cols):
            for r in range(table.rows):
                perm.extend(box_values[r][c])
        u = self.id_of(perm)
        full = self.table.full_mask
        face = Face(
            full ^ self._global_mask(row_bars), u, full ^ self._global_mask(col_bars)
        )
        if not is_minimal_rep(self.table, face.left, face.w, face.right):
            raise InternalCheckError("sorted representative is not minimal")
        return face


# ---------------------------------------------------------------------------
# Refinement order on tables


def lower_covers(table: ContingencyTable) -> list[ContingencyTable]:
    """Merge each adjacent row pair and each adjacent column pair."""
    out = []
    cells = table.cells
    for k in range(table.rows - 1):
        merged = tuple(a + b for a, b in zip(cells[k], cells[k + 1]))
        out.append(ContingencyTable(cells[:k] + (merged,) + cells[k + 2 :]))
    for k in range(table.cols - 1):
        out.append(
            ContingencyTable(
                tuple(row[:k] + (row[k] + row[k + 1],) + row[k + 2 :] for row in cells)
            )
        )
    return out


def _row_splits(vector: tuple[int, ...]):
    for low in itertools.product(*(range(x + 1) for x in vector)):
        if not any(low):
            continue
        high = tuple(a - b for a, b in zip(vector, low))
        if not any(high):
            continue
        yield low, high


def upper_covers(table: ContingencyTable) -> list[ContingencyTable]:
    """Split one row (or column) into two in every possible way."""
    cells = table.cells
    splits = [
        cells[:k] + (low, high) + cells[k + 1 :]
        for k in range(table.rows)
        for low, high in _row_splits(cells[k])
    ]
    splits += [
        tuple(row[:k] + pair + row[k + 1 :] for row, pair in zip(cells, zip(low, high)))
        for k in range(table.cols)
        for low, high in _row_splits(tuple(row[k] for row in cells))
    ]
    return [ContingencyTable(split) for split in dict.fromkeys(splits)]  # first of repeats


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


def enumerate_tables(n: int) -> list[ContingencyTable]:
    """All contingency tables with total n, by direct enumeration."""
    out = []
    for r in range(1, n + 1):
        for row_sums in _compositions(n, r):
            for c in range(1, n + 1):
                choices = [
                    list(
                        low
                        for low in itertools.product(
                            *(range(total + 1) for _ in range(c))
                        )
                        if sum(low) == total
                    )
                    for total in row_sums
                ]
                for rows in itertools.product(*choices):
                    if all(
                        sum(row[j] for row in rows) >= 1 for j in range(c)
                    ):
                        out.append(ContingencyTable(tuple(rows)))
    return out


def verify_refinement_isomorphism(cx: TwoSidedComplex) -> bool:
    """Whether the faces of a type-A complex map bijectively and
    order-isomorphically onto tables.

    Checks round trips, surjectivity against :func:`enumerate_tables`, and
    that the cover relations computed on each side (:meth:`TwoSidedComplex.covers`
    in the complex; splits and merges on tables) produce the same edges.
    """
    model = SymmetricGroupFaces(cx.table)
    faces = cx.as_faces(cx.faces)
    tabs = [model.face_to_table(face) for face in faces]
    if len(set(tabs)) != len(faces):
        return False
    for face, tab, rank in zip(faces, tabs, cx.ranks(cx.faces).tolist()):
        if model.table_to_face(tab) != face or tab.order_rank != rank:  # both count the bars
            return False
    if set(tabs) != set(enumerate_tables(model.n)):
        return False
    low, high = cx.cover_edges(cx.faces)
    complex_edges = {(tabs[i], tabs[j]) for i, j in zip(low.tolist(), high.tolist())}
    split_edges = {(tab, above) for tab in tabs for above in upper_covers(tab)}
    merge_edges = {(below, tab) for tab in tabs for below in lower_covers(tab)}
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
