"""The two-sided Coxeter complex as an explicit simplicial poset.

Faces are triples (I, w, J) with I, J generator subsets and w the minimal
representative of the double coset W_I w W_J, ordered by

    (I, w, J) <= (I', w', J')   iff   I >= I', J >= J', and
                                      W_I w W_J >= W_I' w' W_J'.

The last condition reduces, given the first two, to ``reps[I, J, w'] == w``,
one lookup in the table of :func:`~bicox.cosets.minimal_rep_table`, which
the complex builds once: its fixed points are the faces, and the covers and
every check go through it.  A face of rank r behaves like an (r-1)-simplex:
the interval below it is boolean of size 2^r.  There is one facet (0, w, 0)
per group element, one minimum (S, e, S), and the classical Coxeter complex
sits inside as the upper order ideal of faces with empty left subset.

Faces are stored packed: (I, w, J) is X * |W| + w with X = I << n | J, its
flat position in ``reps`` reshaped to (4^n, |W|), and the complex is the
ascending array of the fixed points of ``reps``.  Every reader of the
faces, the checks, the labels and the exports alike, takes them packed
and reads (I, w, J) back through :func:`unpack`, and the covers of
packed faces are one array of table gathers, :meth:`TwoSidedComplex.covers`.
Every gather over ``reps`` is a flat ``take`` on the raveled table, row X
starting at X * |W|.  The build, boolean and shelling read the table in
ascending blocks of rows (:func:`~bicox.cosets.blocks`), so no index array
is the size of the table.

Besides construction this module carries the verification suite: boolean
lower intervals, balanced coloring, interval partition, weak-order
monotonicity, shelling along a facet order, thinness, the pseudomanifold
property, the Euler characteristic, and the embedding of the classical
complex.  Every check covers the whole complex, most as whole-array
checks over the table, reads a row X of faces only through
:meth:`TwoSidedComplex.row` or counts all rows from their starts, and
holds at most one coset closure.  Thinness and weak-order monotonicity are
not checked on their own: thinness follows from the boolean intervals and
the pseudomanifold property, and weak-order monotonicity from the boolean
intervals and the table's single-index rows being the facet walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coxeter import GroupTable, check_budget, descent_walk, popcount_table
from .cosets import blocks, descent_free, minimal_rep_table, rep_dtype, right_coset_minima
from .errors import InternalCheckError

# most bytes of a table of minimal representatives: A7's 1,321,205,760, and
# every table of at most 2^28 entries, none over 4 bytes each
TABLE_GATE = 5 << 28


def facet_walls(table: GroupTable) -> np.ndarray:
    """[bit, w]: the representative of the wall X = 1 << bit of the facet
    (0, w, 0), with X = I << n | J.  On the left it is s.w when s is a left
    descent of w and w otherwise, on the right w.s or w; read from the
    descent masks and multiplication columns, not from ``reps``."""
    gens = np.arange(table.rank)[:, None]
    ids = np.arange(table.order)
    right = np.where(table.des_right >> gens & 1, table.right_mult.T, ids)
    left = np.where(table.des_left >> gens & 1, table.left_mult.T, ids)
    return np.concatenate([right, left])


def interval_sizes(table: GroupTable) -> np.ndarray:
    """[w]: the number of faces represented by w.  They form the boolean
    interval [R_w, F_w], of size 2^(ascents of w)."""
    n = table.rank
    pop = popcount_table(n)
    return np.int64(1) << (2 * n - pop[table.des_left].astype(np.int64) - pop[table.des_right])


def face_count(table: GroupTable) -> int:
    """Total number of faces, from the interval partition."""
    return int(interval_sizes(table).sum())


def check_table_gate(table: GroupTable) -> None:
    """Refuse (:class:`CapacityError`) a ``reps`` of over :data:`TABLE_GATE`
    bytes: 4^n * |W| entries, never fewer than the double-quotient oracle
    closes, each of :func:`~bicox.cosets.rep_dtype`."""
    size = 4**table.rank * table.order * rep_dtype(table.order).itemsize
    check_budget(table.system.canonical_name, size, TABLE_GATE, "table bytes")


def unpack(table: GroupTable, packed: np.ndarray) -> tuple[np.ndarray, ...]:
    """(I, w, J) of faces packed as X * |W| + w with X = I << n | J."""
    x, w = np.divmod(packed, table.order)
    return x >> table.rank, w, x & table.full_mask


class TwoSidedComplex:
    """All faces of the two-sided complex of a finite Coxeter group, packed
    as X * |W| + w in ascending order, and the table ``reps[I, J, w]`` of
    minimal representatives whose fixed points they are, which orders them.
    Row X of the faces is one run of ``faces``, read by :meth:`row`."""

    def __init__(self, table: GroupTable, faces: np.ndarray, reps: np.ndarray):
        self.table = table
        self.faces = faces
        self.reps = reps

    @classmethod
    def build(cls, table: GroupTable) -> "TwoSidedComplex":
        """The fixed points reps[X, w] == w, a block of rows at a time, into
        one array; their number must be the sum of the interval sizes, read
        from the descent sets, and is counted to the end past that sum."""
        check_table_gate(table)
        total = face_count(table)
        reps = minimal_rep_table(table)
        flat, ids = reps.reshape(-1, table.order), np.arange(table.order)
        faces, count = np.empty(total, dtype=np.int64), 0
        for rows in blocks(len(flat), table.order):
            found = np.flatnonzero(flat[rows] == ids)
            if count + len(found) <= total:
                faces[count : count + len(found)] = found + rows.start * table.order
            count += len(found)
        if count != total:
            raise InternalCheckError(
                f"enumerated {count} faces, the interval sizes sum to {total}"
            )
        faces.flags.writeable = False
        return cls(table, faces, reps)

    @property
    def rank(self) -> int:
        return self.table.rank

    def row(self, x: int) -> np.ndarray:
        """The w of the faces (X, w), ascending: ``faces`` from X * |W| up to
        (X + 1) * |W|, a slice found by two searches, minus X * |W|."""
        low, high = np.searchsorted(self.faces, np.array([x, x + 1]) * self.table.order)
        return self.faces[low:high] - x * self.table.order

    def ranks(self, packed: np.ndarray) -> np.ndarray:
        """The poset rank of each packed face."""
        n = self.rank
        return 2 * n - popcount_table(2 * n)[packed // self.table.order].astype(np.intp)

    def covers(self, packed: np.ndarray) -> np.ndarray:
        """[face, index]: the packed face covered by each face across each
        index, left indices first and then right ones; -1 where the index
        is already in I or J."""
        n, order = self.rank, self.table.order
        x, w = np.divmod(packed[:, None], order)
        bits = 1 << (np.arange(2 * n) + n) % (2 * n)  # I is the high half of X
        below = (x | bits) * order
        return np.where(x & bits, -1, below + self.reps.ravel().take(below + w))

    def cover_edges(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(low, high): positions in ``packed`` of every cover with both ends
        in it, packed[low] covered by packed[high], in the order of high and
        then of :meth:`covers`' columns."""
        sorter = np.argsort(packed)
        covers = self.covers(packed)
        at = np.searchsorted(packed, covers, sorter=sorter)
        low = sorter[np.minimum(at, len(packed) - 1)]
        high, col = np.nonzero(packed[low] == covers)
        return low[high, col], high


# ---------------------------------------------------------------------------
# Structural verification


def verify_boolean(cx: TwoSidedComplex) -> bool:
    """Lower intervals are boolean: ordered exactly like pairs of supersets.

    The faces below (I, w, J) are (X', reps[X', w]) over the index pairs
    X' >= (I, J), so every lower interval is boolean once (a) each table
    entry is a minimal representative, and is w exactly when w is minimal,
    and (b) reps[X'][reps[X''][w]] == reps[X'][w] whenever X'' <= X'.
    Chained along covers, (b) follows from its cover case X' = X'' + x,
    which is checked for every element of W.

    Both run over blocks of rows (:func:`~bicox.cosets.blocks`).  For the
    cover case the table is viewed as (-1, 2, 2^bit, |W|), which puts rows
    X and X + bit side by side without copying either, and row X + bit is
    read by a flat ``take`` on the raveled table, where row X starts at
    X * |W|.
    """
    n, order = cx.rank, cx.table.order
    flat = cx.reps.reshape(1 << 2 * n, order)
    raveled = flat.ravel()
    free_l, free_r = descent_free(cx.table)
    packed, ids = np.arange(len(flat)), np.arange(order)
    starts = packed * order
    for rows in blocks(len(flat), order):
        x = packed[rows]
        minimal = free_l[x >> n] & free_r[x & cx.table.full_mask]
        if not np.array_equal(flat[rows] == ids, minimal):
            return False
        if not minimal.ravel().take(starts[: len(x), None] + flat[rows]).all():
            return False
    for bit in range(2 * n):
        span = 1 << bit
        pairs = flat.reshape(-1, 2, span, order)  # [:, 0] rows X, [:, 1] rows X + bit
        high_at = starts.reshape(-1, 2, span, 1)[:, 1]
        for above in blocks(len(pairs), span * order):
            for within in blocks(span, order):
                got = raveled.take(high_at[above, within] + pairs[above, 0, within])
                if not np.array_equal(got, pairs[above, 1, within]):
                    return False
    return True


def verify_balanced(cx: TwoSidedComplex) -> bool:
    """Every face has distinctly colored vertices whose colors union to
    (S-I, S-J).  The vertices below (X, w) are (V, reps[V, w]) for the
    one-index colors V = full ^ 1 << b with b not in X, so this holds when
    every entry of the table's row V is in the faces' row V.  That reads
    reps[V, w] for every w, not only for the faces lacking b, and is no
    weaker: the facet (0, w, 0) lacks every index."""
    n, order = cx.rank, cx.table.order
    flat = cx.reps.reshape(1 << 2 * n, -1)
    for vertex in ((1 << 2 * n) - 1) ^ (1 << np.arange(2 * n)):
        if not np.bincount(cx.row(vertex), minlength=order).take(flat[vertex]).all():
            return False
    return True


def verify_partition(cx: TwoSidedComplex) -> bool:
    """The faces, read from the table, agree with the descent sets, so the
    intervals [R_w, F_w] partition them: they are distinct pairs (X, u) with
    u minimal for X by :func:`descent_free`, read a block at a time, and as
    many as the interval sizes sum to.  Each u is minimal for as many X as
    its interval has elements, so then each u represents its whole interval."""
    faces = cx.faces
    free_l, free_r = descent_free(cx.table)
    for part in blocks(len(faces), 1):
        gens_l, w, gens_r = unpack(cx.table, faces[part])
        if not (free_l[gens_l, w] & free_r[gens_r, w]).all():
            return False
    return (faces[1:] > faces[:-1]).all() and len(faces) == face_count(cx.table)


def verify_wall_rows(cx: TwoSidedComplex) -> bool:
    """The single-index rows of the table are the facet walls: reps[1 << bit]
    equals that row of :func:`facet_walls`, which reads the descent masks
    and multiplication columns, not ``reps``."""
    flat = cx.reps.reshape(1 << 2 * cx.rank, -1)
    return np.array_equal(flat[1 << np.arange(2 * cx.rank)], facet_walls(cx.table))


def verify_weak_order_monotone(cx: TwoSidedComplex) -> bool:
    """Comparable faces have weak-order comparable representatives.

    Every pair (X, w) occurs in the lower interval of the facet (0, w, 0),
    so this is reps[X, w] <= w in the two-sided weak order for every table
    entry.  It follows from :func:`verify_boolean` and :func:`verify_wall_rows`
    (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, 2.4).  The wall rows
    make reps[{x}] take w and w' to the same entry, for w' = s.w when x is
    a left index s and w' = w.s when x is a right one.  Boolean's cover
    identity, chained from {x} up to X, gives reps[X, w] == reps[X,
    reps[{x}, w]] == reps[X, w'] for every x in X, so reps[X] is constant on
    each double coset.  By boolean's clause (a) the coset's minimal element
    m has reps[X, m] == m, so every entry of the coset is m.  If w != m, some
    s in I is a left descent of w or some s in J a right one, and s.w or w.s
    is shorter, in the same coset and below w; by induction on length,
    m <= w.
    """
    return verify_boolean(cx) and verify_wall_rows(cx)


def verify_facet_count(cx: TwoSidedComplex) -> bool:
    """Top-dimensional faces are in bijection with the group: row 0, the
    faces (0, w, 0), is every w."""
    return np.array_equal(cx.row(0), np.arange(cx.table.order))


# ---------------------------------------------------------------------------
# Topology: shelling, thinness, pseudomanifold, Euler characteristic


@dataclass
class ShellingReport:
    ok: bool
    first_mismatch: int | None  # 1-indexed facet position, or None
    first_impure: int | None
    facets_checked: int

    def __bool__(self) -> bool:
        return self.ok


def verify_shelling(cx: TwoSidedComplex, order: list[int]) -> ShellingReport:
    """Shelling check along the given facet order, in Bjorner's sense.

    The boundary faces of the facet (0, w, 0) are (X, reps[X, w]) over the
    packed index pairs X = I << n | J other than 0, and such a face lies in
    an earlier facet exactly when an earlier w' has reps[X, w'] ==
    reps[X, w].  At each position these X must be the descent walls of w:
    the X with I meeting Des_L(w) or J meeting Des_R(w), read from
    :func:`~bicox.cosets.descent_free`.  The report also records where the
    intersection is first empty or not pure of codimension one (it has a
    face that lies in none of its codimension-one faces), which is the raw
    shelling condition.

    One pass reads ascending blocks of rows (:func:`~bicox.cosets.blocks`),
    row 0 too: its face is the facet itself, met before it by none and in
    no wall.  A face met in row X is impure when no bit b of X has its wall,
    row 1 << b, met earlier; ``atoms`` gathers those bits.  Row 1 << b comes
    no later than any row holding b, so each block takes its atoms first.
    """
    table = cx.table
    n, size = cx.rank, table.order
    if sorted(order) != list(range(size)):
        raise ValueError("order must be a permutation of all facet representatives")
    pos = np.empty(size, dtype=np.min_scalar_type(size))
    pos[np.asarray(order, dtype=np.intp)] = np.arange(size)
    flat = cx.reps.reshape(1 << 2 * n, size)
    free_l, free_r = descent_free(table)
    packed = np.arange(len(flat), dtype=np.min_scalar_type(len(flat) - 1))  # X, 2n bits
    parts = blocks(len(flat), size)
    starts = np.arange(len(packed[parts[0]]))[:, None] * size  # row i of a block at i * |W|
    tiled = np.tile(pos, len(starts))  # np.minimum.at errs on a 2-D index with broadcast values
    atoms = np.zeros(size, dtype=packed.dtype)  # [w]: bit b when row 1 << b met earlier
    mismatch, impure = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    for rows in parts:
        x = packed[rows]
        at = (starts[: len(x)] + flat[rows]).ravel()
        first = np.full(at.size, size, dtype=pos.dtype)  # [i * |W| + u]: first position
        np.minimum.at(first, at, tiled[: at.size])
        got = (first.take(at) < tiled[: at.size]).reshape(len(x), size)
        del at, first  # so that no two blocks' gathers are held at once
        mismatch |= (got == (free_l[x >> n] & free_r[x & table.full_mask])).any(0)
        wall = x & x - 1 == 0  # the rows 1 << b, and row 0, which adds no bit
        atoms |= np.bitwise_or.reduce(x[wall, None] * got[wall], axis=0)
        impure |= (got & (x[:, None] & atoms == 0)).any(0)
    impure |= atoms == 0  # no wall met: nothing met, or the loop saw it impure
    impure[pos == 0] = False

    def first_of(bad: np.ndarray) -> int | None:
        return int(pos[bad].min()) + 1 if bad.any() else None

    return ShellingReport(
        ok=not mismatch.any(),
        first_mismatch=first_of(mismatch),
        first_impure=first_of(impure),
        facets_checked=len(order),
    )


def verify_thin(cx: TwoSidedComplex) -> bool:
    """Every rank-2 interval of the face poset, with a top element adjoined
    above the facets, has exactly four elements.

    This follows from :func:`verify_boolean` and :func:`verify_pseudomanifold`
    (Bjorner, "Posets, regular CW complexes and Bruhat order", 1984: in a
    simplicial poset every interval below a face is boolean).  A face two
    covers below (X, w) adds two indices x != y to X, and the two orders of
    adding them are the only paths to it.  Boolean checks the cover identity
    reps[X+x][reps[X][w]] == reps[X+x][w] for every X, bit and w, faces or
    not.  Applied once with X+x and bit y, and once with X+y and bit x, it
    makes both paths equal reps[X+x+y][w], so the interval is a diamond.
    The intervals that end at the adjoined top are a codimension-one face
    and the top, and have four elements when that face lies in exactly two
    facets, which is the pseudomanifold property.
    """
    return verify_boolean(cx) and verify_pseudomanifold(cx)


def verify_pseudomanifold(cx: TwoSidedComplex) -> bool:
    """Every codimension-one face lies in exactly two facets.

    The wall X = 1 << bit of each facet comes from :func:`facet_walls`; each
    face (1 << bit, u), read from :meth:`~TwoSidedComplex.row`, must be that
    wall of two facets, and no other u may be hit.
    """
    order = cx.table.order
    for bit, walls in enumerate(facet_walls(cx.table)):
        expected = np.zeros(order, dtype=np.intp)
        expected[cx.row(1 << bit)] = 2
        if not np.array_equal(np.bincount(walls, minlength=order), expected):
            return False
    return True


def euler_characteristic(cx: TwoSidedComplex) -> int:
    """Alternating sum of face counts by dimension, empty face excluded: the
    faces of row X, between X * |W| and the next row start, have rank 2n - |X|."""
    starts = np.arange((1 << 2 * cx.rank) + 1) * cx.table.order
    count = np.diff(np.searchsorted(cx.faces, starts))[:-1]  # the last row is (S, e, S)
    return int(np.where(popcount_table(2 * cx.rank)[:-1] % 2, count, -count).sum())


# ---------------------------------------------------------------------------
# The classical Coxeter complex inside


def sigma_ideal(cx: TwoSidedComplex) -> np.ndarray:
    """The upper order ideal above (0, e, S), a copy of the classical Coxeter
    complex: all faces with empty left set, which are rows 0 to 2^n - 1, a
    prefix of ``faces`` (a view, not a copy)."""
    return cx.faces[: np.searchsorted(cx.faces, (cx.table.full_mask + 1) * cx.table.order)]


def verify_sigma_embedding(cx: TwoSidedComplex) -> bool:
    """The ideal above (0, e, S) is order-isomorphic to the classical
    complex, built independently from left cosets under reverse inclusion.
    For each K, with each w labelled by the least id of its coset w.W_K
    (:func:`~bicox.cosets.right_coset_minima`), on arrays of length |W|:
    (1) the faces (0, u, K) of row K hit each least id once: the mask of
    their labels is the mask of the least ids, and there are as many faces
    as least ids; (2) each reps[0, K, w] is a face of row K labelled like
    w; and (3) w -> w.s, one gather for every s, keeps every label for s in
    K and none for s outside K.  By (1) and (2), reps[0, K, u'] == u iff u'
    is in u.W_K, so (0, u, K) <= (0, u', K') iff K >= K' and u' in u.W_K,
    iff u.W_K >= u'.W_K', so f <= g iff coset(f) >= coset(g) for all N^2
    pairs of the ideal.  Comparing every K with every K' is no stronger:
    its K' = 0 row, all of W under the identity labelling, is (2); rows
    K' != 0 reread the same entries and compare closures, and a W_K' coset
    lies in a W_K coset iff K' <= K, which (3) keeps on each closure alone.

    The check holds one K at a time: all K at once would hold (2^n, |W|)
    arrays, as large as the ideal itself, and is slower from H4 on.
    """
    table = cx.table
    ids = np.arange(table.order)
    moves = table.right_mult.T.astype(np.intp, order="C")  # [s, w]: w.s
    bits = np.arange(table.full_mask + 1) >> np.arange(table.rank)[:, None] & 1 == 1
    for gens in range(table.full_mask + 1):
        labels, g, down = right_coset_minima(table, gens), cx.row(gens), cx.reps[0, gens]
        least = labels == ids
        seen, hit = np.zeros_like(least), np.zeros_like(least)
        seen[labels.take(g)], hit[g] = True, True
        if not (
            np.array_equal(seen, least)
            and len(g) == np.count_nonzero(least)
            and hit.take(down).all()
            and np.array_equal(labels.take(down), labels)
            and ((labels.take(moves) == labels) == bits[:, gens, None]).all()
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# DOT export


def face_labels(cx: TwoSidedComplex, packed: np.ndarray) -> list[str]:
    """Labels (I|w|J) of packed faces: masks as 1-based digits ("-" when
    empty), w as a reduced word ("e" for the identity).  Each mask string
    is built once, and so is each element's word, in ascending ids along
    the :func:`~bicox.coxeter.descent_walk` as s + the word of s.w."""
    n, full = cx.rank, cx.table.full_mask
    gens_l, w, gens_r = unpack(cx.table, packed)
    masks = ["".join(str(s + 1) for s in range(n) if x >> s & 1) or "-" for x in range(full + 1)]
    letter, shorter = descent_walk(cx.table)
    top = int(w.max(initial=0)) + 1
    words = [""]
    for s, x in zip(letter[1:top].tolist(), shorter[1:top].tolist()):
        words.append(f"s{s + 1}" + words[x])
    return [
        f"({masks[i]}|{words[u] or 'e'}|{masks[j]})"
        for i, u, j in zip(gens_l.tolist(), w.tolist(), gens_r.tolist())
    ]


def rank_sorted(
    cx: TwoSidedComplex, packed: np.ndarray, min_rank: int, max_rank: int | None
) -> np.ndarray:
    """The packed faces of rank min_rank to max_rank (None: the top rank
    2n) in (rank, packed) order, which is (rank, I, J, w)."""
    rank = cx.ranks(packed)
    top = 2 * cx.rank if max_rank is None else max_rank
    keep = (min_rank <= rank) & (rank <= top)
    return packed[keep][np.lexsort((packed[keep], rank[keep]))]


def hasse_dot(
    cx: TwoSidedComplex,
    min_rank: int = 0,
    max_rank: int | None = None,
    faces: np.ndarray | None = None,
    label: Callable[[np.ndarray], list[str]] | None = None,
    name: str = "hasse",
) -> str:
    """Hasse diagram of the face poset (or a rank range, or an upward-closed
    subset of packed faces such as the classical-complex ideal) in DOT format.

    One node per face, in :func:`rank_sorted` order, one edge per cover,
    in a digraph named ``name``.  ``label`` maps the chosen packed faces,
    in that order, to their node labels; by default they are
    :func:`face_labels`.
    """
    chosen = rank_sorted(cx, cx.faces if faces is None else faces, min_rank, max_rank)
    labels = face_labels(cx, chosen) if label is None else label(chosen)
    low, high = cx.cover_edges(chosen)
    nodes = [f"n{i}" for i in range(len(chosen))]
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines.extend(f'  {node} [label="{text}"];' for node, text in zip(nodes, labels))
    lines.extend(f"  {nodes[a]} -> {nodes[b]};" for a, b in zip(low.tolist(), high.tolist()))
    lines.append("}")
    return "\n".join(lines)
