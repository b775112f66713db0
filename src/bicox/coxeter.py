"""Finite Coxeter groups as fully enumerated multiplication tables.

A Coxeter system (W, S) is encoded by its Coxeter matrix m with m(s,s) = 1
and m(s,t) = m(t,s) >= 2 (the value 0 stands for an infinite bond).  A system
is accepted only if every connected component of its diagram matches one of
the finite types A_n, B_n, D_n, E6, E7, E8, F4, H3, H4 or I2(m); anything
else raises :class:`NotFiniteError`.

Accepted groups are enumerated one length layer at a time, by array
operations over the whole layer.  Each s*w lies one layer above or below w;
the ones below are already known, since s*(s*w) = w was found from the
layer below, and the others, sorted and deduplicated, form the next layer.
New elements take dense ids in order of first occurrence in (w, s) order,
which is exactly the discovery order of a breadth-first search of the left
Cayley graph, so ids are weakly sorted by length and id 0 is the identity.
The finished :class:`GroupTable` stores, per element: length, left and
right multiplication by each generator, the inverse, and both descent sets
as bitmasks over the generator indices.  All downstream code works from
this table alone and never sees the representation used during the search;
every recursion down its length layers follows one :func:`descent_walk`.

During the search W acts by permutation on its roots, one array
``sigma[s, root]`` over the disjoint union of the components' roots: a
rank-2 component with bond m permutes the 2m roots of the regular 2m-gon,
and every other component is closed exactly over Z[phi] (phi the golden
ratio) from its Cartan matrix.  An element w is identified by the root
indices of the images of the simple roots under w, one row of bytes per
element; deduplicating a layer sorts those rows as zero-padded uint64
words, so no rank or root count is too wide for a key.  The same closure,
:func:`_layers`, also walks the parabolic subgroups and their cosets for
the table-free census of :mod:`bicox.enumeration`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InternalCheckError, NotFiniteError

DEFAULT_BUDGET = 10**7
MAX_RANK = 16  # descent masks are uint16, and the cache stores them in 2 bytes
LENGTH_DTYPE = np.int32  # lengths are below the order, and ids are int32

# Degrees of each exceptional type, from the classification tables; the
# families A, B, D and I2 have formulas.
_EXCEPTIONAL = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
}


@dataclass(frozen=True)
class TypeLabel:
    """An irreducible finite type: family letter, rank, and bond for I2(m).
    Its order and root count come from its degrees d: the order is their
    product and the root count twice the sum of d - 1."""

    family: str
    rank: int
    bond: int | None = None

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.bond})"
        return f"{self.family}{self.rank}"

    @property
    def order(self) -> int:
        """Group order of this irreducible type."""
        return math.prod(self.degrees)

    @property
    def root_count(self) -> int:
        """Number of roots of this irreducible type."""
        return 2 * sum(d - 1 for d in self.degrees)

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants: their product is the order and
        the Poincare polynomial is the product of 1 + q + ... + q^(d-1)."""
        n = self.rank
        if self.family == "A":
            return tuple(range(2, n + 2))
        if self.family == "B":
            return tuple(range(2, 2 * n + 1, 2))
        if self.family == "D":
            return tuple(range(2, 2 * n - 1, 2)) + (n,)
        if self.family == "I2":
            return (2, self.bond)
        return _EXCEPTIONAL[str(self)]


@dataclass(frozen=True)
class Component:
    """One irreducible factor with its generators in canonical (Bourbaki)
    diagram order: ``vertices[k]`` is the global index of node k+1."""

    label: TypeLabel
    vertices: tuple[int, ...]


def _integer(x) -> int:
    """x as an int; ``ValueError`` for a value that ``int`` would change,
    such as 3.9, rather than truncate it, or cannot convert, such as inf."""
    try:
        value = int(x)
    except OverflowError:  # an infinite float
        value = None
    if value != x:
        raise ValueError(f"Coxeter matrix entry {x!r} is not an integer")
    return value


class CoxeterMatrix:
    """Symmetric matrix of bond orders m(s,t); 0 encodes an infinite bond."""

    def __init__(self, entries):
        rows = tuple(tuple(map(_integer, row)) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("Coxeter matrix must be square and nonempty")
        for i in range(n):
            if rows[i][i] != 1:
                raise ValueError(f"m({i},{i}) must be 1")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
                if rows[i][j] == 1 or rows[i][j] < 0:
                    raise ValueError(f"m({i},{j}) must be 0 or >= 2")
        self.rank = n
        self.entries = rows

    def __eq__(self, other) -> bool:
        return isinstance(other, CoxeterMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"CoxeterMatrix({list(map(list, self.entries))})"


@dataclass(frozen=True)
class CoxeterSystem:
    """A Coxeter matrix together with its finite-type decomposition."""

    matrix: CoxeterMatrix
    components: tuple[Component, ...]

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def order(self) -> int:
        result = 1
        for comp in self.components:
            result *= comp.label.order
        return result

    @property
    def canonical_name(self) -> str:
        return "x".join(str(c.label) for c in self.components)

    def is_irreducible(self, family: str | None = None) -> bool:
        if len(self.components) != 1:
            return False
        return family is None or self.components[0].label.family == family


# ---------------------------------------------------------------------------
# Classification


def classify(matrix: CoxeterMatrix) -> CoxeterSystem:
    """Decompose ``matrix`` into irreducible finite types.

    Raises :class:`NotFiniteError` naming the offending diagram component if
    any component is affine or indefinite.
    """
    n = matrix.rank
    m = matrix.entries
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in range(n):
                if not seen[u] and m[v][u] != 2:
                    seen[u] = True
                    stack.append(u)
        components.append(_classify_component(m, sorted(comp)))
    components.sort(key=lambda c: c.vertices)
    return CoxeterSystem(matrix=matrix, components=tuple(components))


def _classify_component(m, verts: list[int]) -> Component:
    def fail(why: str):
        raise NotFiniteError(
            f"component {verts} is not of finite type: {why}", tuple(verts)
        )

    k = len(verts)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if m[u][v] == 0:
                fail(f"infinite bond between {u} and {v}")
    if k == 1:
        return Component(TypeLabel("A", 1), (verts[0],))
    if k == 2:
        u, v = verts
        bond = m[u][v]
        if bond == 3:
            return Component(TypeLabel("A", 2), (u, v))
        if bond == 4:
            return Component(TypeLabel("B", 2), (u, v))
        return Component(TypeLabel("I2", 2, bond), (u, v))

    edges = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if m[u][v] >= 3
    ]
    if any(m[u][v] >= 6 for u, v in edges):
        fail("bond of order >= 6 in a component of rank >= 3")
    if len(edges) != k - 1:
        fail("diagram contains a cycle")
    adj = {v: [] for v in verts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degrees = {v: len(adj[v]) for v in verts}
    if max(degrees.values()) > 3:
        fail("diagram vertex of degree > 3")
    branch_points = [v for v in verts if degrees[v] == 3]
    if len(branch_points) > 1:
        fail("more than one branch point")

    if branch_points:
        if any(m[u][v] != 3 for u, v in edges):
            fail("branched diagram with a bond of order > 3")
        b = branch_points[0]
        arms = []
        for start in adj[b]:
            arm = [start]
            prev = b
            while degrees[arm[-1]] == 2:
                nxt = next(x for x in adj[arm[-1]] if x != prev)
                prev = arm[-1]
                arm.append(nxt)
            arms.append(arm)
        arms.sort(key=lambda a: (len(a), a[0]))
        lengths = tuple(len(a) for a in arms)
        if lengths[0] == 1 and lengths[1] == 1:
            leaves = sorted([arms[0][0], arms[1][0]])
            chain = list(reversed(arms[2])) + [b]
            return Component(TypeLabel("D", k), tuple(chain + leaves))
        if lengths == (1, 2, 2) and k == 6:
            label = TypeLabel("E", 6)
        elif lengths == (1, 2, 3) and k == 7:
            label = TypeLabel("E", 7)
        elif lengths == (1, 2, 4) and k == 8:
            label = TypeLabel("E", 8)
        else:
            fail(f"branched diagram with arm lengths {lengths}")
        short, mid, long_arm = arms
        # Bourbaki: node 2 is the short arm, 1-3 the middle arm, 4 the branch.
        order = [mid[1], short[0], mid[0], b] + long_arm
        return Component(label, tuple(order))

    ends = [v for v in verts if degrees[v] == 1]
    path = [min(ends)]
    prev = None
    while len(path) < k:
        nxt = next(x for x in adj[path[-1]] if x != prev)
        prev = path[-1]
        path.append(nxt)
    labels = [m[path[i]][path[i + 1]] for i in range(k - 1)]
    special = [(i, lab) for i, lab in enumerate(labels) if lab != 3]
    if not special:
        return Component(TypeLabel("A", k), tuple(path))
    if len(special) > 1:
        fail("path diagram with more than one bond of order > 3")
    pos, bond = special[0]
    if bond == 4:
        if k == 4 and pos == 1:
            return Component(TypeLabel("F", 4), tuple(path))
        if pos == k - 2:
            return Component(TypeLabel("B", k), tuple(path))
        if pos == 0:
            return Component(TypeLabel("B", k), tuple(reversed(path)))
        fail("interior bond of order 4")
    if bond == 5:
        if k in (3, 4) and pos == 0:
            return Component(TypeLabel("H", k), tuple(path))
        if k in (3, 4) and pos == k - 2:
            return Component(TypeLabel("H", k), tuple(reversed(path)))
        fail("bond of order 5 outside H3/H4")
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Standard matrices and type-spec parsing


def standard_matrix(label: TypeLabel) -> CoxeterMatrix:
    """The Coxeter matrix of ``label`` in Bourbaki numbering."""
    n = label.rank
    edges: list[tuple[int, int, int]] = []
    if label.family in ("A", "B", "H", "F"):
        for i in range(n - 1):
            edges.append((i, i + 1, 3))
        if label.family == "B":
            edges[-1] = (n - 2, n - 1, 4)
        elif label.family == "H":
            edges[0] = (0, 1, 5)
        elif label.family == "F":
            edges[1] = (1, 2, 4)
    elif label.family == "D":
        for i in range(n - 3):
            edges.append((i, i + 1, 3))
        edges.append((n - 3, n - 2, 3))
        edges.append((n - 3, n - 1, 3))
    elif label.family == "E":
        edges = [(0, 2, 3), (1, 3, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)]
        for i in range(6, n):
            edges.append((i - 1, i, 3))
    elif label.family == "I2":
        edges = [(0, 1, label.bond)]
    else:
        raise ValueError(f"unknown family {label.family!r}")
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for u, v, bond in edges:
        rows[u][v] = rows[v][u] = bond
    return CoxeterMatrix(rows)


# ASCII digits only, and \Z, not $, so no trailing newline slips through.
_TYPE_RE = re.compile(r"^([ABDEFH])([0-9]+)(~?)\Z|^I2\(([0-9]+)\)(~?)\Z|^(G)(2)(~?)\Z")

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "H": (3, 4),
}


def parse_type_spec(spec: str) -> CoxeterMatrix:
    """Parse a type string like ``"A3"``, ``"B4xA1"``, or ``"I2(7)"``.

    An ``~`` suffix on an A-family factor builds its affine extension (so
    e.g. ``"A1~"`` classifies as not finite).  ``"G2"`` is accepted as an
    alias for ``"I2(6)"``.  Raises :class:`CapacityError` when the ranks of
    the parts sum to over :data:`MAX_RANK`, before building any matrix.
    """
    parts = [(part, _TYPE_RE.match(part)) for part in spec.replace(" ", "").split("x")]
    for part, match in parts:
        if not match:
            factor = f"factor {part!r}" if part else "an empty factor"
            raise ValueError(f"cannot parse type spec {spec!r}: {factor}")
    # I2(m) and G2 match no family group; an affine A_n~ has n + 1 nodes.
    check_rank(sum(2 if m[1] is None else int(m[2]) + len(m[3]) for _, m in parts))
    blocks = []
    for part, match in parts:
        if match.group(4) is not None:
            bond, affine = int(match.group(4)), match.group(5)
            if bond < 2:
                raise ValueError(f"I2 bond must be >= 2 in {part!r}")
            if affine:
                raise ValueError(f"affine suffix not supported for {part!r}")
            blocks.append(standard_matrix(TypeLabel("I2", 2, bond)).entries)
            continue
        if match.group(6) is not None:
            if match.group(8):
                raise ValueError(f"affine suffix not supported for {part!r}")
            blocks.append(standard_matrix(TypeLabel("I2", 2, 6)).entries)
            continue
        family, rank, affine = match.group(1), int(match.group(2)), match.group(3)
        lo, hi = _RANK_RANGE[family]
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"rank {rank} out of range for family {family}")
        if affine:
            if family != "A":
                raise ValueError(f"affine suffix only supported for A-family, got {part!r}")
            blocks.append(_affine_a_entries(rank))
            continue
        blocks.append(standard_matrix(TypeLabel(family, rank)).entries)
    total = sum(len(b) for b in blocks)
    rows = [[1 if i == j else 2 for j in range(total)] for i in range(total)]
    offset = 0
    for block in blocks:
        k = len(block)
        for i in range(k):
            for j in range(k):
                rows[offset + i][offset + j] = block[i][j]
        offset += k
    return CoxeterMatrix(rows)


def _affine_a_entries(rank: int):
    if rank == 1:
        return ((1, 0), (0, 1))
    k = rank + 1
    rows = [[1 if i == j else 2 for j in range(k)] for i in range(k)]
    for i in range(k):
        j = (i + 1) % k
        rows[i][j] = rows[j][i] = 3
    return tuple(tuple(r) for r in rows)


def classify_spec(spec: str) -> CoxeterSystem:
    """Parse and classify a type string in one step."""
    return classify(parse_type_spec(spec))


def parabolic(system: CoxeterSystem, gens) -> CoxeterSystem:
    """The standard parabolic subsystem on the generators ``gens`` (a
    nonempty sequence of indices), renumbered 0, 1, ... in that order."""
    m = system.matrix.entries
    return classify(CoxeterMatrix([[m[a][b] for b in gens] for a in gens]))


# ---------------------------------------------------------------------------
# The root-permutation action used during enumeration

# Cartan entries -2cos(pi/m) as a + b*phi, as (entry on the lower diagram
# index, entry on the higher); bond 4 puts its short root on the lower index.
_CARTAN = {
    2: ((0, 0), (0, 0)),
    3: ((-1, 0), (-1, 0)),
    4: ((-2, 0), (-1, 0)),
    5: ((0, -1), (0, -1)),
}


def _root_permutations(system: CoxeterSystem):
    """W's permutation action on the disjoint union of its components' roots.

    Returns ``(identity, sigma, positive)``: ``identity[s]`` is the index of
    the simple root of generator s, ``sigma[s, r]`` is the index of s
    applied to root r, and ``positive[r]`` tells whether root r is positive.
    A rank-2 component with bond m acts on the 2m roots of the regular
    2m-gon; any other component is closed over Z[phi] from its Cartan
    matrix.  Raises :class:`InternalCheckError` when a component's root
    count disagrees with its type.
    """
    m = system.matrix.entries
    n = system.rank
    identity = [0] * n
    blocks = []  # (generators, first root, their rows of sigma there)
    positive: list[bool] = []
    offset = 0
    for comp in system.components:
        verts = comp.vertices
        k = len(verts)
        if k == 2:
            # Root j sits at angle j*pi/m, the simple roots are 0 and m-1,
            # the positive ones are 0..m-1, and the reflection in root a
            # sends j to 2a + m - j.
            bond = m[verts[0]][verts[1]]
            count = 2 * bond
            simple = [0, bond - 1]
            local = [[(2 * a + bond - j) % count for j in range(count)] for a in simple]
            positive.extend(j < bond for j in range(count))
        else:
            # A vector is a flat tuple (a_0, b_0, a_1, b_1, ...) of
            # coordinates a_i + b_i*phi in the simple roots; phi^2 = phi + 1.
            # Row i of the Cartan matrix is nonzero at i and its neighbours.
            form = [
                [(j, 2, 0) if i == j else (j, *_CARTAN[m[verts[i]][verts[j]]][i > j])
                 for j in range(k) if i == j or m[verts[i]][verts[j]] != 2]
                for i in range(k)
            ]

            def reflect(i, vec):
                """s_i(vec), or None when s_i fixes vec."""
                da = db = 0
                for j, ka, kb in form[i]:
                    va, vb = vec[2 * j], vec[2 * j + 1]
                    da += ka * va + kb * vb
                    db += ka * vb + kb * va + kb * vb
                if not (da or db):
                    return None
                out = list(vec)
                out[2 * i] -= da
                out[2 * i + 1] -= db
                return tuple(out)

            roots = [tuple(int(x == 2 * i) for x in range(2 * k)) for i in range(k)]
            index = {vec: r for r, vec in enumerate(roots)}
            local = [[] for _ in range(k)]
            # roots grows while it is read: a breadth-first closure.
            for r, vec in enumerate(roots):
                for i, row in enumerate(local):
                    img = reflect(i, vec)
                    if img is None:
                        row.append(r)
                        continue
                    new = index.setdefault(img, len(roots))
                    if new == len(roots):
                        roots.append(img)
                    row.append(new)
            count = len(roots)
            simple = list(range(k))
            # A root's coordinates share one sign, so their sum has it too.
            phi = (1 + math.sqrt(5)) / 2
            positive.extend(sum(vec[0::2]) + phi * sum(vec[1::2]) > 0 for vec in roots)
        if count != comp.label.root_count:
            raise InternalCheckError(
                f"{comp.label}: root closure produced {count} roots, "
                f"expected {comp.label.root_count}"
            )
        for i, v in enumerate(verts):
            identity[v] = offset + simple[i]
        blocks.append((verts, offset, local))
        offset += count
    sigma = np.tile(np.arange(offset, dtype=np.min_scalar_type(offset - 1)), (n, 1))
    for verts, start, local in blocks:
        sigma[verts, start : start + len(local[0])] = np.array(local) + start
    return tuple(identity), sigma, np.array(positive, dtype=bool)


def _layers(simple, sigma, positive, keep=(), images=()):
    """One length layer at a time from e, the u in the group that the rows
    of ``sigma`` generate with u(alpha_t) > 0 for every t in ``keep``.

    ``simple`` holds each row's simple root, and ``keep`` indexes it.
    Yields ``(rows, descents, links)``: ``rows[i]`` holds u(r), in
    ``sigma``'s dtype, for the roots r of ``simple`` and then of
    ``images``, ``descents[i]`` is u's left descent mask, and ``links`` is
    ``(i, s, j)``, three arrays of links "s times row i of the previous
    layer is row j" in (i, s) order (empty for e).  Rows are numbered in
    order of their first link, as a breadth-first search would find them.
    For s not a left descent, s*u is one longer; with ``keep`` = J it is in
    W^J exactly when kept (else s*u = u*t, by Deodhar's lemma).  An element
    is known by its images of the simple roots, and its left descents are
    the s that lead to it from the layer below, since s*u stays kept when
    l(s*u) < l(u).
    """
    n = len(sigma)
    bits = 1 << np.arange(n)
    rows = np.concatenate([simple, images]).astype(sigma.dtype)[None, :]
    descents = np.zeros(1, dtype=np.intp)
    links = (np.zeros(0, dtype=np.intp),) * 3
    while True:
        yield rows, descents, links
        moved = sigma.take(rows, axis=1)  # [s, i]: s applied to each image of u_i
        up = descents[:, None] & bits == 0  # [i, s]
        if len(keep):
            up &= np.logical_and.reduce(positive[moved[:, :, keep]], axis=2).T
        i, s = np.divmod(np.flatnonzero(up), n)
        if not len(i):
            return
        children = moved.reshape(-1, rows.shape[1]).take(s * len(rows) + i, axis=0)
        rows, descents, j = _merge_equal(children, 1 << s, len(simple))
        links = i, s, j


def _merge_equal(rows, descents, k):
    """The distinct ``rows[:, :k]`` in order of first occurrence, the
    ``descents`` of each one's copies ORed, and for each input row the
    index of its distinct row.

    The rows' bytes, zero-padded to uint64 words, are sorted, and a first
    copy is the minimum index of its run.  One word is sorted by numpy's
    unstable argsort, several times faster than ``np.lexsort``, which
    sorts two or more.
    """
    width = k * rows.itemsize
    packed = np.zeros((len(rows), -(-width // 8) * 8), dtype=np.uint8)
    packed[:, :width] = rows[:, :k].view(np.uint8)
    words = packed.view(np.uint64)
    new = np.empty(len(rows), dtype=bool)
    new[0] = True
    if words.shape[1] == 1:
        words = words[:, 0]
        order = words.argsort()
        words = words.take(order)
        np.not_equal(words[1:], words[:-1], out=new[1:])
    else:
        order = np.lexsort(words.T)
        words = words.take(order, axis=0)
        np.any(words[1:] != words[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    by_first = first.argsort()
    rank = np.empty(len(starts), dtype=np.intp)
    rank[by_first] = np.arange(len(starts))
    where = np.empty(len(rows), dtype=np.intp)
    where[order] = rank[new.cumsum() - 1]
    merged = np.bitwise_or.reduceat(descents.take(order), starts)
    return rows.take(first[by_first], axis=0), merged[by_first], where


# ---------------------------------------------------------------------------
# The group table


@dataclass(frozen=True)
class GroupTable:
    """Immutable enumeration of a finite Coxeter group.

    Multiplication tables are id-valued: ``left_mult[w, s]`` is s*w and
    ``right_mult[w, s]`` is w*s.  Descent sets are bitmasks over generator
    indices.  Id 0 is e and ids are weakly sorted by length, so each layer
    is a run of ids; every construction checks this (else
    :class:`InternalCheckError`).  The table is safe for concurrent readers.
    """

    system: CoxeterSystem
    order: int
    length: np.ndarray
    left_mult: np.ndarray
    right_mult: np.ndarray
    inverse: np.ndarray
    des_left: np.ndarray
    des_right: np.ndarray
    longest: int

    def __post_init__(self):
        for arr in (
            self.length, self.left_mult, self.right_mult,
            self.inverse, self.des_left, self.des_right,
        ):
            arr.flags.writeable = False
        if self.length[0] != 0:
            raise InternalCheckError(f"id 0 has length {self.length[0]}, not 0")
        if not np.all(np.diff(self.length) >= 0):
            raise InternalCheckError("ids are not weakly sorted by length")

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def full_mask(self) -> int:
        return (1 << self.rank) - 1

    def generator_id(self, s: int) -> int:
        """Element id of the generator with index s."""
        return int(self.left_mult[0, s])

    def __repr__(self) -> str:
        return f"GroupTable({self.system.canonical_name}, order={self.order})"


def check_rank(rank: int) -> None:
    """Raise :class:`CapacityError` when ``rank`` exceeds :data:`MAX_RANK`."""
    if rank > MAX_RANK:
        raise CapacityError(f"rank {rank} is over the maximum of {MAX_RANK}")


def count_text(count: int, unit: str) -> str:
    """``count`` followed by ``unit``, as "a 4301-digit number of" ``unit``
    when the count has more digits than Python will convert to a string."""
    try:
        return f"{count} {unit}"
    except ValueError:
        digits = int(math.log10(count)) + 1
        digits += (count >= 10**digits) - (count < 10 ** (digits - 1))
        return f"a {digits}-digit number of {unit}"


def check_budget(name: str, count: int, budget: int, unit: str = "elements") -> None:
    """Raise :class:`CapacityError` when ``count`` exceeds ``budget``."""
    if count > budget:
        raise CapacityError(
            f"{name} has {count_text(count, unit)}, over the budget of {budget}"
        )


def build_group(system: CoxeterSystem, budget: int = DEFAULT_BUDGET) -> GroupTable:
    """Enumerate the group of ``system`` into a :class:`GroupTable`.

    Raises :class:`CapacityError` before enumerating when the rank exceeds
    :data:`MAX_RANK` or the classified order exceeds ``budget`` (default
    10**7 elements).
    """
    check_rank(system.rank)
    order = system.order
    check_budget(system.canonical_name, order, budget)
    n = system.rank
    identity, sigma, positive = _root_permutations(system)
    length = np.empty(order, dtype=LENGTH_DTYPE)
    left = np.full((order, n), -1, dtype=np.int32)
    des_left = np.empty(order, dtype=np.uint16)
    # Layer by layer, the previous one holding ids [start, end): each link
    # s*w = x gives both left[w, s] = x and left[x, s] = w.
    layers = [0]
    start = end = 0
    for rows, descents, (i, s, j) in _layers(identity, sigma, positive):
        nxt = end + len(rows)
        if nxt > order:
            raise InternalCheckError(f"closure exceeds classified order {order}")
        left[start + i, s] = end + j
        left[end + j, s] = start + i
        des_left[end:nxt] = descents
        length[end:nxt] = len(layers) - 1
        layers.append(nxt)
        start, end = end, nxt
    if end != order:
        raise InternalCheckError(
            f"closure found {end} elements, classified order is {order}"
        )

    # Each layer from the one below along the descent walk w = s*x:
    # w*t = s*(x*t) and w^-1 = x^-1*s.
    letter, shorter = _descent_walk(length, left, des_left)
    right = np.zeros((order, n), dtype=np.int32)
    inverse = np.zeros(order, dtype=np.int32)
    right[0] = left[0]
    for a, b in zip(layers[1:], layers[2:]):
        s, x = letter[a:b], shorter[a:b]
        right[a:b] = left[right[x], s[:, None]]
        inverse[a:b] = right[inverse[x], s]
    # Ids are weakly sorted by length, so s is a right descent of w exactly
    # when w*s has an id below the first id of w's layer.
    floor = np.repeat(np.array(layers[:-1], dtype=np.int32), np.diff(layers))
    des_right = _descent_masks(right, floor)

    if length[-2] == length[-1]:  # ids are sorted by length, so w0 is the last
        raise InternalCheckError("longest element is not unique")
    table = GroupTable(
        system=system,
        order=order,
        length=length,
        left_mult=left,
        right_mult=right,
        inverse=inverse,
        des_left=des_left,
        des_right=des_right,
        longest=order - 1,
    )
    _validate(table)
    return table


def _descent_masks(mult: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """uint16 masks of the s with ``mult[w, s] < floor[w]``, bit s for s."""
    packed = np.packbits(mult < floor[:, None], axis=1, bitorder="little")
    masks = packed[:, 0].astype(np.uint16)
    if packed.shape[1] > 1:
        masks |= packed[:, 1].astype(np.uint16) << 8
    return masks


def _validate(table: GroupTable) -> None:
    ar = np.arange(table.order, dtype=np.int32)  # the dtype of the ids it is compared with
    length = table.length
    for s in range(table.rank):
        if not np.array_equal(table.left_mult[table.left_mult[:, s], s], ar):
            raise InternalCheckError(f"left generator {s} is not an involution")
        if not np.array_equal(table.right_mult[table.right_mult[:, s], s], ar):
            raise InternalCheckError(f"right generator {s} is not an involution")
        # One generator column at a time, so no (order x rank) temporary.
        if not np.all(np.abs(length[table.right_mult[:, s]] - length) == 1):
            raise InternalCheckError("a generator changed length by something other than 1")
    if not np.array_equal(table.des_left, table.des_right[table.inverse]):
        raise InternalCheckError("left descents disagree with inverse right descents")
    if int(table.des_right[table.longest]) != table.full_mask:
        raise InternalCheckError("longest element is missing a right descent")
    poincare = poincare_coefficients(table.system.components)
    counts = np.bincount(table.length)
    if not np.array_equal(counts, poincare):
        raise InternalCheckError(
            f"length distribution {counts.tolist()} is not {poincare.tolist()}, the product "
            f"of 1 + q + ... + q^(d-1) over degrees that give {len(poincare) - 1} positive roots"
        )


def poincare_coefficients(components) -> np.ndarray:
    """Elements of each length in the product of ``components``: the product
    of 1 + q + ... + q^(d-1) over their classified degrees, not any closure."""
    poincare = np.ones(1, dtype=np.int64)
    for d in (d for comp in components for d in comp.label.degrees):
        poincare = np.convolve(poincare, np.ones(d, dtype=np.int64))
    return poincare


# ---------------------------------------------------------------------------
# Queries on a built table


def length_order(table: GroupTable) -> list[int]:
    """All element ids sorted by length, ties broken by id: the ids in order.
    Every cover of the two-sided weak order raises length by one, so this is
    a linear extension of that order."""
    return list(range(table.order))


def layer_bounds(table: GroupTable) -> np.ndarray:
    """The first id of each length, then the order."""
    return np.searchsorted(table.length, np.arange(int(table.length[-1]) + 2))


def descent_walk(table: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """``(letter, shorter)``: for each w other than e, its lowest left
    descent s and s*w, which has a smaller id (entry 0 is 0 and e).

    Following ``shorter`` from w spells a reduced word of w down to e.
    Raises :class:`InternalCheckError` when some w other than e has no left
    descent or s*w is not one shorter.
    """
    return _descent_walk(table.length, table.left_mult, table.des_left)


def _descent_walk(length, left_mult, des_left):
    letter = lowest_bits(left_mult.shape[1])[des_left]
    shorter = left_mult[np.arange(len(length)), letter]
    shorter[0] = 0
    bare = np.flatnonzero(des_left[1:] == 0)
    if len(bare):
        raise InternalCheckError(f"element {bare[0] + 1} is not e but has no left descent")
    stuck = np.flatnonzero(length[shorter[1:]] != length[1:] - 1)
    if len(stuck):
        w = stuck[0] + 1
        raise InternalCheckError(
            f"element {w}: stripping its lowest left descent gives {shorter[w]}, "
            "not one shorter, so the walk stops there, not e"
        )
    return letter, shorter


def popcount_table(n: int) -> np.ndarray:
    """Lookup array of popcounts for all n-bit masks, as uint8, doubled in
    place once per bit: the masks from 2^k to 2^(k+1) - 1 count one more
    than those below 2^k."""
    counts = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        np.add(counts[: 1 << k], 1, out=counts[1 << k : 2 << k])
    return counts


def lowest_bits(n: int) -> np.ndarray:
    """Lookup array of the index of the lowest set bit of all n-bit masks,
    0 for the empty mask."""
    masks = np.arange(1 << n)
    return popcount_table(n)[np.maximum((masks & -masks) - 1, 0)]
