"""Parabolic double cosets via their minimal-length representatives.

For subsets I, J of the generators, each double coset W_I w W_J contains a
unique element u of minimal length, characterized by Des_L(u) being disjoint
from I and Des_R(u) disjoint from J; moreover u lies below every coset member
in the two-sided weak order.  Cosets are therefore canonicalized as triples
(I, u, J) with u minimal, and never stored as element sets.  That test for
every mask at once is :func:`descent_free`, which the checks in
:mod:`bicox.complexes` read.  The embedding check of :mod:`bicox.complexes`
reads :func:`right_coset_minima`, the right cosets x.W_J closed over the
columns x.s (s in J) of ``right_mult``, each element labelled with the
least id of its coset.

:func:`verify_double_quotients` checks every pair (I, J) at once: the
descent filter |^I W^J|, which is the flag f-table entry f[S - I][S - J]
(the subset-sum kernel behind :func:`bicox.enumeration.flag_f`), against
Mackey's formula for permutation characters (Geck-Pfeiffer,
*Characters of Finite Coxeter Groups and Iwahori-Hecke Algebras*, 2000),
which reads no descent set:

    |W_I\\W/W_J| = <1^W_I, 1^W_J>
                = sum over conjugacy classes C of
                  |C & W_I| |C & W_J| |W| / (|C| |W_I| |W_J|).

By Tits' characterization W_J is the set of w whose support, the
generators in any reduced word of w, lies in J.  One pass gives every
support (:func:`_supports`): supp(w) = supp(x) | {s} for x = w.s, w's
least-id right neighbour, read from ``right_mult`` and the id order.  So
every |C & W_J| comes from one count over (support, class) with no
closure per J, and the classes are closed over x -> s.(x.s) by
:func:`_close`.  The numerators are exact: every partial sum is an
integer of at most |W|^2.  Clauses keep the count from accepting tables
that are no group's: a class size must divide |W|; (s.x).s = s.(x.s) for
every x and s; every w other than e must have its least right neighbour
one shorter, so the support pass leads down to e; and supp(s.x) must lie
within supp(x) | {s} for every x and s, which makes each W_J closed
under left multiplication by J.  The oracle never reads the table of
representatives, so ``bicox verify`` gives it its own gate past the
complex's table gate, on 4^n |W|: a bound on the 4^n |classes|
multiply-adds of the class product.

The table of minimal representatives, :func:`minimal_rep_table`, is the
left minima of the right minima: min(W_I w W_J) = min(W_I.min(w.W_J)).
Both one-sided tables, 2^n x |W| ids each, are filled together one length
layer at a time by one flat ``take``, and each entry of the table is then
one gather.  Its fixed points are the faces of :mod:`bicox.complexes`,
whose checks gather from it over :func:`blocks` of rows.

All functions are pure over an immutable :class:`~bicox.coxeter.GroupTable`
and safe for concurrent use.  Generator subsets are bitmasks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .coxeter import GroupTable, layer_bounds
from .enumeration import _census, _subset_transform
from .errors import InternalCheckError


GATHER = 1 << 16  # table entries per flat gather: its intp index stays in cache


def blocks(count: int, width: int) -> list[slice]:
    """Slices of range(count), about GATHER // width items each and at
    least one, for gathers whose index holds ``width`` entries per item."""
    step = max(1, GATHER // width)
    return [slice(start, start + step) for start in range(0, count, step)]


def rep_dtype(order: int) -> np.dtype:
    """The narrowest unsigned type that holds every id of a group of
    ``order`` elements: the type of :func:`minimal_rep_table`."""
    return np.min_scalar_type(order - 1)


def _step_down(table: GroupTable, ids: np.ndarray) -> np.ndarray:
    """(2 * 2^n, |W|) in the dtype of ``ids``: row J below 2^n sends w to
    w.s for its lowest right descent s in J, row 2^n + I to s.w for its
    lowest left descent s in I, and w with no such descent to w.

    A mask with lowest bit s sends w across s where s is a descent of w,
    else as the mask without s does; masks are filled from the highest
    lowest bit down, so that one is always filled first.
    """
    n, order = table.rank, len(ids)
    down = np.empty((2 << n, order), dtype=ids.dtype)
    sides = ((table.right_mult, table.des_right), (table.left_mult, table.des_left))
    for rows, (mult, des) in zip((down[: 1 << n], down[1 << n :]), sides):
        rows[0] = ids
        for s in reversed(range(n)):
            grid = rows.reshape(-1, 2 << s, order)  # [:, 0] lacks bit s, [:, 1 << s] adds it
            across = mult[:, s].astype(ids.dtype)
            grid[:, 1 << s] = np.where(des >> s & 1 == 1, across, grid[:, 0])
    return down


def minimal_rep_table(table: GroupTable) -> np.ndarray:
    """Read-only ``reps[I, J, w]``: the minimal element of W_I w W_J, every I, J, w.

    The table is ``left[I, right[J, w]]``, where ``right[J, w]`` is the
    least element of w.W_J and ``left[I, u]`` the least of W_I.u
    (Björner-Brenti, *Combinatorics of Coxeter Groups*, 2005, §2.4;
    Geck-Pfeiffer §2.1).  Let u = min(w.W_J) and v = min(W_I.u).  Then
    u = x.v with x in W_I and l(u) = l(x) + l(v).  If some t in J were a
    right descent of v, then l(u.t) <= l(x) + l(v.t) < l(u), and t would
    be a right descent of u, which it is not.  So v has no left descent in
    I and no right descent in J, and v lies in W_I w W_J: it is the
    coset's minimal element.

    Both one-sided tables are one (2 * 2^n, |W|) array ``least``: rows
    below 2^n are ``right`` and the rest ``left``.  Its step table sends w
    across its lowest right (resp. left) descent in the mask, and
    ``least`` is filled from it one length layer at a time by one flat
    ``take``; then ``reps`` gathers ``left`` over ``right``, a block of
    right masks at a time.  Reads only ``left_mult``, ``right_mult``,
    both descent masks and the id order, never a coset closure.  Holds
    4^n * |W| ids of :func:`rep_dtype`, as many bytes as
    ``check_table_gate`` admits.
    """
    n, order, dtype = table.rank, table.order, rep_dtype(table.order)
    ids = np.arange(order, dtype=dtype)
    down = _step_down(table, ids)
    least = np.empty_like(down)
    least[...] = ids
    flat = least.ravel()
    starts = np.arange(2 << n)[:, None] * order
    bounds = layer_bounds(table)
    for a, b in zip(bounds[1:-1], bounds[2:]):  # e is its own entry everywhere
        least[:, a:b] = flat.take(starts + down[:, a:b])
    del down
    left, right = least[1 << n :], least[: 1 << n]
    reps = np.empty((1 << n, 1 << n, order), dtype=dtype)
    for gens_r in blocks(1 << n, order):
        at = right[gens_r].astype(np.intp)
        for row, out in zip(left, reps[:, gens_r]):
            row.take(at, out=out, mode="clip")  # ids are in range; "raise" would buffer out
    reps.flags.writeable = False
    return reps


def descent_free(table: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """(free_l, free_r): [mask, w] whether Des_L(w), resp. Des_R(w), misses the mask."""
    masks = np.arange(table.full_mask + 1, dtype=table.des_left.dtype)[:, None]
    return (masks & table.des_left) == 0, (masks & table.des_right) == 0


def _close(labels: np.ndarray, steps) -> np.ndarray:
    """Each entry's least label reachable through the index arrays ``steps``.

    ``labels`` starts as the identity on its own indices.  Neighbour minima,
    one step after another, and pointer jumps lower the labels until none
    moves; labels only decrease, so this ends for any steps.  On return
    every entry whose label is itself is the least of its class.
    """
    while True:
        lower = labels
        for step in steps:
            lower = np.minimum(lower, lower.take(step))
        lower = lower.take(lower)
        if np.array_equal(lower, labels):
            return labels
        labels = lower


def right_coset_minima(table: GroupTable, gens_r: int) -> np.ndarray:
    """Entry x: the least id in the right coset x.W_J, closed by
    :func:`_close` over J's ``right_mult`` columns and not renumbered."""
    steps = [table.right_mult[:, s] for s in range(table.rank) if gens_r >> s & 1]
    return _close(np.arange(table.order), steps)


def _numbered(labels: np.ndarray) -> np.ndarray:
    """Closed labels renumbered 0, 1, ... in the order of their least entries."""
    return (np.cumsum(labels == np.arange(len(labels))) - 1)[labels]


def _supports(table: GroupTable) -> np.ndarray:
    """Entry w: supp(w), the mask of the generators in a reduced word of w.

    Each w other than e steps to x = w.s, its least-id right neighbour,
    and supp(w) = supp(x) | {s}; the steps are followed by pointer
    doubling, reading only ``right_mult`` and the id order.  Raises
    :class:`InternalCheckError` naming w where x is not one shorter (and
    so, ids being sorted by length, not below w), before any doubling:
    the steps might then never reach e.
    """
    right, length = table.right_mult, table.length
    letter = right.argmin(axis=1)
    up = np.take_along_axis(right, letter[:, None], axis=1)[:, 0].astype(np.intp)
    stuck = np.flatnonzero(length[up[1:]] != length[1:] - 1)
    if len(stuck):
        w = stuck[0] + 1
        raise InternalCheckError(
            f"element {w} is not e, but its least right neighbour {up[w]} is not one shorter"
        )
    supp = np.left_shift(1, letter).astype(table.des_right.dtype)
    supp[0] = up[0] = 0
    while up.any():
        supp |= supp.take(up)
        up = up.take(up)
    return supp


def _character_counts(table: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """(num, den): |W_I\\W/W_J| = num[I, J] / den[I, J], every pair at
    once, by Mackey's formula (see the module docstring), reading only the
    multiplication tables and the id order.

    W_J is {w : supp(w) within J} (:func:`_supports`), so every |C & W_J|
    comes from a ``bincount`` over (support, class), summed over the
    submasks of J in place; the classes C are closed over x -> s.(x.s).
    The count, its subset sum and its share of the product are taken one
    of :func:`blocks` of classes at a time, ids sorted by class where
    there are several, so no (2^n, classes) array is held.  Each term
    |C & W_I| |W| / |C| is at most |W|, so every partial sum of num is an
    integer of at most |W| |W_J| <= |W|^2: exact in float64 below 2^26
    elements, where the products are taken by BLAS, and in int64 past
    them.  Raises :class:`InternalCheckError` on a class size
    that does not divide |W|, on (s.x).s != s.(x.s), on a support pass
    that does not lead down to e, or on supp(s.x) not within
    supp(x) | {s}.
    """
    n, order, left, right = table.rank, table.order, table.left_mult, table.right_mult
    steps = [left[right[:, s], s] for s in range(n)]
    classes = _numbered(_close(np.arange(order), steps))
    sizes = np.bincount(classes)
    uneven = np.flatnonzero(order % sizes)
    if len(uneven):
        least = int(np.argmax(classes == uneven[0]))
        raise InternalCheckError(
            f"the conjugacy class of element {least} has {sizes[uneven[0]]} elements, "
            f"which does not divide |W| = {order}"
        )
    for s, step in enumerate(steps):
        moved = np.flatnonzero(right[left[:, s], s] != step)
        if len(moved):
            raise InternalCheckError(f"(s.x).s differs from s.(x.s) for s = {s}, x = {moved[0]}")
    supp = _supports(table)
    for s in range(n):
        wide = np.flatnonzero(supp.take(left[:, s]) & ~(supp | 1 << s))
        if len(wide):
            raise InternalCheckError(
                f"supp(s.x) is not within supp(x) | {{s}} for s = {s}, x = {wide[0]}"
            )
    exact = np.float64 if order < 1 << 26 else np.int64  # |W|^2 below 2^53
    key = classes << n | supp  # (class, support) of each id
    spans = blocks(len(sizes), 1 << n)
    if len(spans) > 1:
        key.sort()  # so each block of classes is one slice
    ends = np.cumsum(sizes)
    num = np.zeros((1 << n, 1 << n), dtype=exact)
    orders = np.zeros(1 << n, dtype=np.int64)
    for span in spans:
        size, end = sizes[span], ends[span]
        at = key[end[0] - size[0] : end[-1]] - (span.start << n)
        meet = np.bincount(at, minlength=len(size) << n).reshape(len(size), 1 << n)
        meet = np.ascontiguousarray(meet.T, dtype=exact)  # |C & W_J| once J's submasks are in
        for s in range(n):
            half = meet.reshape(-1, 2, 1 << s, len(size))
            half[:, 1] += half[:, 0]
        orders += meet.sum(axis=1).astype(np.int64)
        num += (meet * (order // size)) @ meet.T
    return num.astype(np.int64), np.outer(orders, orders)


def double_quotient_size(table: GroupTable, gens_l: int, gens_r: int) -> int:
    """|^I W^J|: the w with Des_L(w) disjoint from I and Des_R(w) disjoint
    from J, one per double coset W_I w W_J.

    :func:`verify_double_quotients` checks this count for every pair at
    once against Mackey's formula for permutation characters.
    """
    ok = (table.des_left & np.uint16(gens_l)) == 0
    ok &= (table.des_right & np.uint16(gens_r)) == 0
    return int(np.count_nonzero(ok))


def verify_double_quotients(table: GroupTable, f) -> bool:
    """Whether the flag f-table entry ``f[S - I][S - J]`` is |^I W^J| for
    every pair I, J.

    Two counts are made for all pairs at once: the descent filter, read
    from the table's own f-table (f[S - I][S - J] counts the w with Des_L(w)
    within S - I and Des_R(w) within S - J, one per double coset), and
    |W_I\\W/W_J| = sum over classes C of |C & W_I| |C & W_J| |W| / (|C|
    |W_I| |W_J|) (:func:`_character_counts`), which reads no descent set
    and is exact, every partial sum being an integer of at most |W|^2.
    Neither holds a (2^n, |W|) array.  A caller's ``f`` that is not the
    table's own gives False.  Before any pair, every class size must
    divide |W|, and three consistency clauses must hold: (s.x).s = s.(x.s)
    for every x and s; every w other than e has its least right neighbour
    one shorter; and supp(s.x) lies within supp(x) | {s} for every x and
    s.  Else :class:`InternalCheckError` is raised.  Pairs are scanned I
    outer, J inner; at the first pair where anything disagrees, a count
    mismatch or a non-integer count (printed as a reduced p/q) raises
    :class:`InternalCheckError`, and otherwise the answer is False.
    """
    by_descents = _subset_transform(_census(table), table.rank, inverse=False)[::-1, ::-1]
    num, den = _character_counts(table)
    by_characters, rest = np.divmod(num, den)
    bad = (rest != 0) | (by_characters != by_descents)
    bad |= by_descents != np.asarray(f)[::-1, ::-1]
    if not bad.any():
        return True
    pair = divmod(int(np.argmax(bad)), table.full_mask + 1)
    if rest[pair] or by_characters[pair] != by_descents[pair]:
        count = Fraction(int(num[pair]), int(den[pair]))
        raise InternalCheckError(
            f"double quotient count mismatch for I={pair[0]:b}, J={pair[1]:b}: "
            f"descent filter {by_descents[pair]}, permutation characters {count}"
        )
    return False
