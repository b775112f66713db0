import numpy as np
import pytest

from bicox.cosets import coset_labels
from bicox.coxeter import build_group, classify_spec


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


def double_coset(table, gens_l, u, gens_r):
    """All elements of W_I u W_J, read from the closure labels."""
    labels = coset_labels(table, gens_l, gens_r)
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
