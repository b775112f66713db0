"""Parabolic double cosets via their minimal-length representatives.

For subsets I, J of the generators, each double coset W_I w W_J contains a
unique element u of minimal length, characterized by Des_L(u) being disjoint
from I and Des_R(u) disjoint from J; moreover u lies below every coset member
in the two-sided weak order.  Cosets are therefore canonicalized as triples
(I, u, J) with u minimal, and never stored as element sets.

Counting them is checked two ways that share no code:
:func:`count_minimal_by_descents` filters W by descent sets, and
:func:`coset_labels` closes every coset at once, labelling each element
with the least id it reaches through the columns s.x (s in I) and x.s
(s in J) of the multiplication tables.

All functions are pure over an immutable :class:`~bicox.coxeter.GroupTable`
and safe for concurrent use.  Generator subsets are bitmasks.
"""

from __future__ import annotations

import numpy as np

from .coxeter import GroupTable, layer_bounds, lowest_bits
from .errors import InternalCheckError


def minimal_rep_table(table: GroupTable) -> np.ndarray:
    """Read-only ``reps[I, J, w]``: the minimal element of W_I w W_J, every I, J, w.

    Filled one length layer at a time: an entry is w when Des_L(w) misses I
    and Des_R(w) misses J, else the entry of the shorter s.w or w.s.  Holds
    4^n * |W| ids in the narrowest unsigned type, so it suits small groups.
    """
    n, order = table.rank, table.order
    masks = np.arange(1 << n)
    lowest = lowest_bits(n)
    ids = np.arange(order)

    def step_down(mult, des):
        """(2^n, |W|): w across its lowest descent in the mask, else w."""
        hit = masks[:, None] & des.astype(np.intp)
        return np.where(hit != 0, mult[ids, lowest[hit]], ids)

    down_l = step_down(table.left_mult, table.des_left)
    down_r = step_down(table.right_mult, table.des_right)
    reps = np.empty((1 << n, 1 << n, order), dtype=np.min_scalar_type(order - 1))
    reps[...] = ids
    bounds = layer_bounds(table)
    for a, b in zip(bounds[1:-1], bounds[2:]):  # e is its own entry everywhere
        dl = down_l[:, None, a:b]
        shorter = np.where(dl != ids[a:b], dl, down_r[None, :, a:b])
        reps[:, :, a:b] = reps[masks[:, None, None], masks[None, :, None], shorter]
    reps.flags.writeable = False
    return reps


def is_minimal_rep(table: GroupTable, gens_l: int, w: int, gens_r: int) -> bool:
    """Whether w is the minimal representative of W_I w W_J."""
    return (
        int(table.des_left[w]) & gens_l == 0
        and int(table.des_right[w]) & gens_r == 0
    )


def count_minimal_by_descents(table: GroupTable, gens_l: int, gens_r: int) -> int:
    """|{w : Des_L(w) disjoint from I, Des_R(w) disjoint from J}|."""
    ok = (table.des_left & np.uint16(gens_l)) == 0
    ok &= (table.des_right & np.uint16(gens_r)) == 0
    return int(np.count_nonzero(ok))


def coset_labels(table: GroupTable, gens_l: int, gens_r: int) -> np.ndarray:
    """Entry x: the number of the double coset W_I x W_J, numbered in the
    order of their least ids.

    Each element is labelled with the least id reachable from it through the
    columns s.x (s in I) and x.s (s in J), by repeated neighbour minima and
    pointer jumps; labels only decrease, so this ends on any table.  No
    descent set or minimal representative is used.
    """
    steps = [table.left_mult[:, s] for s in range(table.rank) if gens_l >> s & 1]
    steps += [table.right_mult[:, s] for s in range(table.rank) if gens_r >> s & 1]
    neighbours = np.array(steps, dtype=np.intp).reshape(len(steps), table.order)
    labels = np.arange(table.order)
    while True:
        lower = np.minimum(labels, labels[neighbours].min(axis=0, initial=table.order))
        lower = lower[lower]
        if np.array_equal(lower, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = lower


def count_cosets_by_sweep(table: GroupTable, gens_l: int, gens_r: int) -> int:
    """Number of double cosets W_I w W_J, from :func:`coset_labels`."""
    return int(coset_labels(table, gens_l, gens_r).max()) + 1


def double_quotient_size(table: GroupTable, gens_l: int, gens_r: int) -> int:
    """|^I W^J|, computed by two independent methods that must agree.

    Raises :class:`InternalCheckError` if the descent-filter count and the
    coset-partition count differ (would signal an implementation bug).
    """
    by_descents = count_minimal_by_descents(table, gens_l, gens_r)
    by_sweep = count_cosets_by_sweep(table, gens_l, gens_r)
    if by_descents != by_sweep:
        raise InternalCheckError(
            f"double quotient count mismatch for I={gens_l:b}, J={gens_r:b}: "
            f"descent filter {by_descents}, coset sweep {by_sweep}"
        )
    return by_descents
