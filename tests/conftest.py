import hashlib
import struct
from typing import NamedTuple

import numpy as np
import pytest

from bicox.cache import MAGIC, _parts
from bicox.coxeter import build_group, classify_spec, descent_walk, layer_bounds


def build(spec: str, **kwargs):
    return build_group(classify_spec(spec), **kwargs)


@pytest.fixture(scope="session")
def tables():
    """Shared cache of built groups, keyed by type spec."""
    cache = {}

    def get(spec: str):
        if spec not in cache:
            cache[spec] = build(spec)
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def a2(tables):
    return tables("A2")


@pytest.fixture(scope="session")
def a3(tables):
    return tables("A3")


@pytest.fixture(scope="session")
def b3(tables):
    return tables("B3")


# --- references ------------------------------------------------------------


class Face(NamedTuple):
    """A face (I, w, J): generator bitmasks around a minimal representative."""

    left: int
    w: int
    right: int


def as_faces(cx, packed):
    """Packed faces X * |W| + w, X = I << n | J, as :class:`Face` tuples,
    in the given order."""
    n, full = cx.rank, cx.table.full_mask
    pairs, w = np.divmod(np.asarray(packed), cx.table.order)
    return [Face(x >> n, u, x & full) for x, u in zip(pairs.tolist(), w.tolist())]


def down_reach(table):
    """For each v, the bitmask of all u with u <= v in the two-sided weak
    order: v's own bit and the masks of s.v and v.s over its descents.
    Ids are length-sorted, so covers point to masks already built."""
    reach = [0] * table.order
    for v in range(table.order):
        acc = 1 << v
        for side, mask in (
            (table.left_mult, int(table.des_left[v])),
            (table.right_mult, int(table.des_right[v])),
        ):
            while mask:
                s = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                acc |= reach[int(side[v, s])]
        reach[v] = acc
    return reach


def minimal_rep(table, gens_l, w, gens_r):
    """Reference minimal element of W_I w W_J for I = gens_l, J = gens_r:
    steps down across left descents in I and right descents in J until
    there are none, lowest generator first."""
    left, right = table.left_mult, table.right_mult
    des_l, des_r = table.des_left, table.des_right
    while True:
        hit = int(des_l[w]) & gens_l
        if hit:
            w = int(left[w, (hit & -hit).bit_length() - 1])
            continue
        hit = int(des_r[w]) & gens_r
        if not hit:
            return w
        w = int(right[w, (hit & -hit).bit_length() - 1])


def is_minimal_rep(table, gens_l, w, gens_r):
    """Whether w is the minimal representative of W_I w W_J: no left
    descent in I and no right descent in J."""
    return int(table.des_left[w]) & gens_l == 0 and int(table.des_right[w]) & gens_r == 0


def close(labels, steps):
    """Reference closure: entry x lowered to the least label reachable from
    x through the index arrays ``steps``, by neighbour minima and pointer
    jumps until no label moves."""
    while True:
        lower = labels.copy()
        for step in steps:
            lower = np.minimum(lower, labels[step])
        lower = lower[lower]
        if np.array_equal(lower, labels):
            return labels
        labels = lower


def numbered(labels):
    """Closed labels renumbered 0, 1, ... in the order of their least entries."""
    return np.unique(labels, return_inverse=True)[1]


def closure_labels(table, gens_l, gens_r):
    """Reference double-coset numbers, by least id: every element closed at
    once over the columns s.x (s in I) and x.s (s in J), with no quotient
    and no descent set."""
    steps = [table.left_mult[:, s] for s in range(table.rank) if gens_l >> s & 1]
    steps += [table.right_mult[:, s] for s in range(table.rank) if gens_r >> s & 1]
    return numbered(close(np.arange(table.order), steps))


def closure_count(table, gens_l, gens_r):
    """|W_I\\W/W_J| from :func:`closure_labels`."""
    return int(closure_labels(table, gens_l, gens_r).max()) + 1


def double_coset(table, gens_l, u, gens_r):
    """All elements of W_I u W_J, read from the closure labels."""
    labels = closure_labels(table, gens_l, gens_r)
    return set(np.flatnonzero(labels == labels[u]).tolist())


def word(table, w):
    """Reference reduced word for w (generator indices, leftmost letter
    first): strips the lowest left descent length(w) times, down to e."""
    letters = []
    for _ in range(int(table.length[w])):
        mask = int(table.des_left[w])
        s = (mask & -mask).bit_length() - 1
        letters.append(s)
        w = int(table.left_mult[w, s])
    assert w == 0, "stripping left descents did not reach e"
    return tuple(letters)


def mult(table, u, v):
    """Reference product u*v, through a reduced word for u."""
    x = v
    for s in reversed(word(table, u)):
        x = int(table.left_mult[x, s])
    return x


def one_line(table, w):
    """One-line notation for an element of an A-type table (values 1-based)."""
    perm = list(range(1, table.rank + 2))
    for s in word(table, w):
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
    return tuple(perm)


# --- cache files -------------------------------------------------------------


def serialize(table):
    """The cache blob of ``table``, as ``cache.save_table`` writes it."""
    return b"".join(_parts(table))


def inverses(table):
    """w^-1 for every w, one length layer at a time along the descent walk:
    w = s*x gives w^-1 = x^-1*s."""
    letter, shorter = descent_walk(table)
    inverse = np.zeros(table.order, dtype=np.int32)
    bounds = layer_bounds(table)
    for a, b in zip(bounds[1:-1], bounds[2:]):
        inverse[a:b] = table.right_mult[inverse[shorter[a:b]], letter[a:b]]
    return inverse


def serialize_v1(table, longest=None):
    """The version-1 cache blob of ``table``, the layout written before
    version 2: the header holds the longest-element id (``longest``, by
    default the last id) before the length width, and the :func:`inverses`
    follow the right multiplication."""
    name = table.system.canonical_name.encode()
    n, order = table.rank, table.order
    len_width = 1 if int(table.length.max()) < 256 else 4
    mask_dtype = "<u1" if n <= 8 else "<u2"
    parts = [MAGIC, struct.pack("<IH", 1, len(name)), name, struct.pack("<IQ", n, order)]
    parts += [struct.pack(f"<{n}I", *row) for row in table.system.matrix.entries]
    parts.append(struct.pack("<IB", order - 1 if longest is None else longest, len_width))
    parts.append(table.length.astype(f"<u{len_width}"))
    for ids in (table.left_mult, table.right_mult, inverses(table)):
        parts.append(ids.astype("<i4"))
    for masks in (table.des_left, table.des_right):
        parts.append(masks.astype(mask_dtype))
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()
