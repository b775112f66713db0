"""Exact face and descent enumeration for a finite group table.

All counts here are exact integers, and so is the gamma change of basis: the
basis is unitriangular, so it is solved by integer forward substitution.  A
subset-indexed table is a 2^n x 2^n int64 array indexed by generator
bitmasks, returned to callers as lists of Python ints.

The two tables of interest are

    f[I][J] = number of faces with color (I, J)
            = |{w : Des_L(w) <= I and Des_R(w) <= J}|,
    h[I][J] = |{w : Des_L(w) = I and Des_R(w) = J}|,

related by subset sums one way and by inclusion-exclusion the other.  Both
are the fast zeta transform over the 2n bits of the flat index I * 2^n + J:
for each bit in turn, every entry with the bit set gains (or, inverting,
loses) the entry with the bit cleared.  The coarse specialization of
h by descent counts is the two-sided Eulerian matrix, which is symmetric,
anti-diagonally symmetric, and (conjecturally) expands with nonnegative
coefficients in the basis

    (xy)^a (x+y)^b (1+xy)^(n-2a-b),   0 <= 2a + b <= n.

The Eulerian matrix can also be counted without any table or subset-level
census, by walking one maximal parabolic subgroup and its cosets per
component (:func:`factorize` and :func:`factor_eulerian`); that is how the
CLI gets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .coxeter import (
    DEFAULT_BUDGET,
    CoxeterSystem,
    GroupTable,
    _layers,
    _root_permutations,
    check_budget,
    check_rank,
    parabolic,
    poincare_coefficients,
    popcount_table,
)
from .errors import CapacityError, GammaBasisError, InternalCheckError

Table2D = list[list[int]]


def _census(table: GroupTable) -> np.ndarray:
    size = 1 << table.rank
    joint = table.des_left.astype(np.int64) * size + table.des_right
    return np.bincount(joint, minlength=size * size).reshape(size, size)


def _subset_transform(values: np.ndarray, n: int, inverse: bool) -> np.ndarray:
    """Subset sums over both indices, or with ``inverse`` their Moebius inverse.

    Works on one int64 copy, one bit of the flat index I * 2^n + J at a
    time: viewed as (-1, 2, 2^k), the second half of each block holds the
    entries with bit k set, and gains (or loses) the first half in place.
    Only the n high bits (those of I) are passed over directly, so every
    block is at least 2^n entries wide; the bits of J are passed over the
    same way on a contiguous transposed copy, which is returned transposed
    back (a view, laid out in Fortran order).
    """
    step = np.subtract if inverse else np.add

    def high_passes(out):
        for k in range(n, 2 * n):
            block = out.reshape(-1, 2, 1 << k)
            step(block[:, 1], block[:, 0], out=block[:, 1])
        return out

    out = high_passes(np.array(values, dtype=np.int64, order="C"))
    return high_passes(out.T.copy()).T


def flag_h(table: GroupTable) -> Table2D:
    """Census of descent-set pairs: h[I][J] counts w with these exact sets."""
    return _census(table).tolist()


def flag_f(table: GroupTable) -> Table2D:
    """f[I][J] = |{w : Des_L(w) <= I, Des_R(w) <= J}| for all subset pairs.

    Equal to the size of the double quotient on the complementary subsets;
    computed from the descent census by a double subset-sum transform so a
    single pass over the group covers all 4^n pairs.
    """
    return _subset_transform(_census(table), table.rank, inverse=False).tolist()


def flag_h_from_f(f: Table2D, n: int) -> Table2D:
    """Inclusion-exclusion inverse of :func:`flag_f`.

    Raises :class:`InternalCheckError` if any entry comes out negative,
    which would mean the input was not a valid f-table.
    """
    h = _subset_transform(f, n, inverse=True)
    if (h < 0).any():
        raise InternalCheckError("inclusion-exclusion produced a negative entry")
    return h.tolist()


def _submask_sums(values: np.ndarray, signed: bool = False) -> np.ndarray:
    """out[I][J] = sum of values[I'][J'] over I' <= I and J' <= J, by definition.

    With ``signed`` each term is multiplied by (-1)^(|I - I'| + |J - J'|),
    which is the Moebius inverse of the plain sums.  Both are the matrix
    product Z @ values @ Z.T of the zeta matrix Z[I, I'] = 1 when I' <= I
    (conjugated by the parity signs, D Z D, when ``signed``), done in float64
    by BLAS and returned as int64.

    Z is never built.  Split each index into its a = floor(n/2) high bits and
    b = n - a low bits: I' <= I exactly when both halves are submasks, so
    Z = Z_a (x) Z_b (Kronecker), and D = D_a (x) D_b gives the same split of
    D Z D.  Z_a is the leading 2^a x 2^a block of Z_b, signs included, so
    one 2^b x 2^b matrix serves all four index axes (I high, I low, J high,
    J low), each contracted by one matmul on a reshaped view: (2^a + 2^b)
    * 4^n multiply-adds, against 2 * 8^n for the dense product.

    Exactness: each factor holds only 0 and +-1, and each matmul contracts
    one axis, so the terms it adds up are signed sums over disjoint sets of
    entries (they differ on that axis).  Hence every partial sum of every
    matmul, in any order, is a signed sum of a subset of the entries: an
    integer of magnitude at most 4^n * max|values|, exact in float64 below
    2^53.  Over that bound this raises :class:`CapacityError` instead of
    rounding.  Every table that can exist is under it: entries are at most
    |W| <= 10^7, and 4^14 * 10^7 < 2^53, while a 4^n-cell table past
    n = 14 does not fit in memory.
    """
    size = len(values)
    n = size.bit_length() - 1
    peak = max(-int(values.min()), int(values.max()))
    if peak << 2 * n >= 1 << 53:
        raise CapacityError(
            f"submask sums of a rank-{n} table with an entry of {peak} "
            "can pass 2^53, where float64 is no longer exact"
        )
    high, low = 1 << n // 2, 1 << n - n // 2
    masks = np.arange(low)
    zeta = ((masks[None, :] & ~masks[:, None]) == 0).astype(np.float64)  # Z_b
    if signed:
        parity = 1.0 - 2 * (popcount_table(n - n // 2) & 1)
        zeta *= np.outer(parity, parity)
    lead = zeta[:high, :high]  # Z_a
    out = values.astype(np.float64).reshape(-1, low) @ zeta.T  # J low
    out = np.matmul(lead, out.reshape(size, high, low))  # J high
    out = lead @ out.reshape(high, -1)  # I high
    out = np.matmul(zeta, out.reshape(high, low, size))  # I low
    return out.reshape(size, size).astype(np.int64)


def reciprocity_holds(f: Table2D, h: Table2D, n: int) -> bool:
    """The subset-level f<->h identities, both directions.

    These are the coefficient forms of evaluating one polynomial at
    x_i/(1 +- x_i) times the product of (1 +- x_i) factors.  Independent of
    :func:`flag_f` and :func:`flag_h_from_f`: f is the submask sum Z h Z^T
    of h, and h is the signed sum (D Z D) f (D Z D)^T, with the parity
    diagonal D = diag((-1)^|I|); see :func:`_submask_sums` for why float64
    products are exact here.
    """
    f_arr = np.asarray(f, dtype=np.int64)
    h_arr = np.asarray(h, dtype=np.int64)
    if f_arr.shape != (1 << n, 1 << n) or h_arr.shape != f_arr.shape:
        return False
    return np.array_equal(_submask_sums(h_arr), f_arr) and np.array_equal(
        _submask_sums(f_arr, signed=True), h_arr
    )


def two_sided_eulerian(group: GroupTable | Factorization) -> Table2D:
    """(n+1) x (n+1) census of (number of left, number of right) descents.

    A :class:`GroupTable` is counted element by element.  A
    :class:`Factorization` is counted one component at a time by
    :func:`factor_eulerian`, with no subset-level census; the matrix of a
    product is the 2D convolution of its components' matrices, taken in
    Python ints.
    """
    if isinstance(group, GroupTable):
        n = group.rank
        pop = popcount_table(n).astype(np.int64)
        joint = pop[group.des_left] * (n + 1) + pop[group.des_right]
        return np.bincount(joint, minlength=(n + 1) ** 2).reshape(n + 1, n + 1).tolist()
    total = np.ones((1, 1), dtype=object)
    for factor in group.factors:
        part = factor_eulerian(factor).astype(object)
        grown = np.zeros((len(total) + len(part) - 1,) * 2, dtype=object)
        for (i, j), count in np.ndenumerate(total):
            grown[i : i + len(part), j : j + len(part)] += count * part
        total = grown
    return total.tolist()


def eulerian_from_flag(f: Table2D, n: int) -> Table2D:
    """The Eulerian matrix recovered from the f-table alone:

        sum over I, J of f[I][J] x^|I| y^|J| (1-x)^(n-|I|) (1-y)^(n-|J|).

    f is grouped by (|I|, |J|) in int64, exactly: its rows and then its
    columns are taken in order of popcount, and each run of one popcount is
    summed by ``np.add.reduceat``.  The grouped matrix is then changed to
    the x^i y^j basis by B[i][p] = (-1)^(i-p) C(n-p, i-p) in Python ints:
    its partial sums can pass int64.  Raises ``ValueError`` unless f is
    2^n x 2^n.
    """
    size = 1 << n
    f_arr = np.asarray(f, dtype=np.int64)
    if f_arr.shape != (size, size):
        raise ValueError(f"an f-table of rank {n} is {size} x {size}, not {f_arr.shape}")
    pop = popcount_table(n)
    order = np.argsort(pop, kind="stable")
    starts = np.searchsorted(pop[order], np.arange(n + 1))
    by_rows = np.add.reduceat(f_arr[order], starts, axis=0)
    grouped = np.add.reduceat(by_rows[:, order], starts, axis=1)
    sizes = range(n + 1)
    basis = np.array(
        [[(-1) ** (i - p) * comb(n - p, i - p) if i >= p else 0 for p in sizes]
         for i in sizes],
        dtype=object,
    )
    return (basis @ grouped.astype(object) @ basis.T).tolist()


def _square_size(matrix: Table2D) -> int:
    """The number of rows of a square matrix; ``ValueError`` naming the
    shape of any other."""
    lengths = [len(row) for row in matrix]
    if lengths == [len(lengths)] * len(lengths):
        return len(lengths)
    shape = f"{len(lengths)} x {lengths[0]}"
    if len(set(lengths)) > 1:
        shape = f"ragged with row lengths {lengths}"
    raise ValueError(f"an Eulerian matrix is square, not {shape}")


def eulerian_symmetric(matrix: Table2D) -> bool:
    """Both Eulerian symmetries: transpose and antipodal.  Raises
    ``ValueError`` unless the matrix is square."""
    n = _square_size(matrix) - 1
    for i in range(n + 1):
        for j in range(n + 1):
            if matrix[i][j] != matrix[j][i]:
                return False
            if matrix[i][j] != matrix[n - i][n - j]:
                return False
    return True


# ---------------------------------------------------------------------------
# The census by parabolic factorization


@dataclass(frozen=True)
class ParabolicFactor:
    """An irreducible group W split at one node d, with J = S - {d}.

    Every w is uniquely u*v with u in W^J (no right descent in J) and v in
    W_J, and l(w) = l(u) + l(v) (Bjorner-Brenti, *Combinatorics of Coxeter
    Groups*, 2.4).  ``system`` is the irreducible group alone, generators
    numbered 0..k-1.  :func:`factor_eulerian` walks both W_J and W^J over
    W's roots; no table is built.  ``subgroup`` is W_J, classified from
    ``system`` and ``node`` when not given, and None when J is empty.
    """

    system: CoxeterSystem
    node: int
    subgroup: CoxeterSystem | None = None

    def __post_init__(self):
        if self.subgroup is None and self.system.rank > 1:
            object.__setattr__(self, "subgroup", _maximal_parabolic(self.system, self.node))


@dataclass(frozen=True)
class Factorization:
    """A group as its irreducible components, each one :class:`ParabolicFactor`."""

    system: CoxeterSystem
    factors: tuple[ParabolicFactor, ...]

    @property
    def order(self) -> int:
        return self.system.order


def _maximal_parabolic(system: CoxeterSystem, node: int) -> CoxeterSystem | None:
    """W_J for J = S - {node}, or None when J is empty."""
    rest = [t for t in range(system.rank) if t != node]
    return parabolic(system, rest) if rest else None


def cheapest_node(system: CoxeterSystem) -> int:
    """The node of the irreducible ``system`` to split at.

    It minimizes |W_J| (the elements to walk) plus |W^J| * 2^(k-1) (one
    left-descent lookup per coset), from the classified orders alone;
    ties go to the lowest node.  Each coset also counts one key per cell
    (Des_L(v), v(alpha_d)) of W_J (at most |W_J|, 972 for E8 over D7,
    whose W_J has 322,560 elements); the model leaves that term out, since
    only the walk of W_J finds the cells.
    """
    return _cheapest_split(system).node


def _cheapest_split(system: CoxeterSystem) -> ParabolicFactor:
    """``system`` split at its :func:`cheapest_node`, carrying the chosen
    W_J: each maximal parabolic is classified once, to price it."""
    k = system.rank
    subs = [_maximal_parabolic(system, node) for node in range(k)]

    def cost(node):
        order = 1 if subs[node] is None else subs[node].order
        return order + system.order // order * 2 ** (k - 1)

    node = min(range(k), key=cost)
    return ParabolicFactor(system, node, subs[node])


def _within_default_budget(name: str, count: int, unit: str) -> None:
    check_budget(name, count, DEFAULT_BUDGET, unit)


def factorize(system: CoxeterSystem, admit=_within_default_budget) -> Factorization:
    """Split each component of ``system`` at its :func:`cheapest_node`.

    Raises :class:`CapacityError` when the rank is over the maximum.  Then
    ``admit(name, count, unit)`` sees each component's roots and cosets
    |W^J|, and after all of them each W_J's elements, and raises
    :class:`CapacityError` to refuse one (by default, each must be within
    :data:`DEFAULT_BUDGET`).  Nothing is enumerated here.
    """
    check_rank(system.rank)
    parts = [parabolic(system, sorted(comp.vertices)) for comp in system.components]
    factors = [_cheapest_split(part) for part in parts]
    subs = [factor.subgroup for factor in factors]
    for part, sub in zip(parts, subs):
        name = part.canonical_name
        admit(name, part.components[0].label.root_count, "roots")
        if sub is not None:
            admit(f"{name} over {sub.canonical_name}", part.order // sub.order, "cosets")
    for sub in filter(None, subs):
        admit(sub.canonical_name, sub.order, "elements")
    return Factorization(system, tuple(factors))


def _runs(layers, size):
    """The ``(rows, descents)`` of ``layers`` joined into runs of at least
    ``size`` rows, and what is left as the last run."""
    held, count = [], 0
    for rows, descents, _ in layers:
        held.append((rows, descents))
        count += len(descents)
        if count >= size:
            yield tuple(map(np.concatenate, zip(*held)))
            held, count = [], 0
    if held:
        yield tuple(map(np.concatenate, zip(*held)))


def factor_eulerian(factor: ParabolicFactor) -> np.ndarray:
    """The (k+1) x (k+1) int64 matrix of (|Des_L|, |Des_R|) over W, as
    :func:`two_sided_eulerian` counts it from W's table, summed one coset u
    of W^J at a time.

    For w = u*v: t in J is a right descent of w exactly when of v, since u
    keeps the positive roots of W_J positive; d is one exactly when
    u(v(alpha_d)) < 0.  Left descents follow Deodhar's lemma on
    beta = u^-1(alpha_s): s is one when beta < 0, exactly when t is one of
    v when beta = alpha_t with t in J, and never otherwise (Geck-Pfeiffer,
    *Characters of Finite Coxeter Groups*, 2.1).  So |Des_L(w)| is
    |Des_L(u)| + |Des_L(v) & T_u|, where T_u holds the t in J with u(alpha_t)
    simple, and the two parts never overlap.  Hence v matters only through
    its cell (Des_L(v), v(alpha_d)) and |Des_R(v)|:
    :func:`bicox.coxeter._layers`, the closure that also builds every group
    table, walks W_J over one root closure into counts C[cell, |Des_R(v)|],
    and then W^J.  Each coset gives one key (left count, d bit, cell) per
    cell, a batch of cosets is one bincount into G, and the matrix is
    G[:, 0] @ C plus G[:, 1] @ C one column to the right, all in int64:
    every partial sum is at most |W|, which is under 2^61 for B16, the
    largest irreducible group of rank 3 to 16, and 2m for I2(m), whose 2m
    roots are held in memory.  W_J's layer sizes must be the Poincare
    coefficients of its degrees, and |W^J| * |W_J| must be |W|.
    """
    system, d = factor.system, factor.node
    k = system.rank
    simple, sigma, positive = _root_permutations(system)
    simple = np.array(simple)
    rest = np.delete(np.arange(k), d)
    pop = popcount_table(k).astype(np.intp)
    sub = factor.subgroup
    sizes = poincare_coefficients(sub.components if sub else ()).tolist()
    seen = []

    def checked(layers):  # W_J's layers while their sizes are the Poincare ones
        for layer in layers:
            seen.append(len(layer[1]))
            if seen != sizes[: len(seen)]:
                return
            yield layer

    # W_J as its distinct (Des_L(v), v(alpha_d), |Des_R(v)|) and their counts,
    # folded every 2^16 elements or more.
    found = []
    walk = _layers(simple[rest], sigma[rest], positive, (), simple[d : d + 1])
    for images, descents in _runs(checked(walk), 1 << 16):
        right = np.count_nonzero(~positive[images[:, :-1]], axis=1)
        kind = (descents * len(positive) + images[:, -1]) * k + right
        found.append(np.unique(kind, return_counts=True))
    if seen != sizes:
        raise InternalCheckError(f"W_J has {seen} elements by length, its degrees give {sizes}")
    kinds, counts = map(np.concatenate, zip(*found))
    cells, cell = np.unique(kinds // k, return_inverse=True)
    by_cell = np.zeros((len(cells), k), dtype=np.int64)  # C
    np.add.at(by_cell, (cell, kinds % k), counts)
    # Each cell picks one column of two small per-coset tables: of lefts by
    # its Des_L(v), and of highs by its point of the orbit of alpha_d.
    masks, mask_at = np.unique(cells // len(positive), return_inverse=True)
    orbit, orbit_at = np.unique(cells % len(positive), return_inverse=True)
    is_simple = np.zeros(len(positive), dtype=bool)
    is_simple[simple] = True
    width = len(cells)
    cell_keys = np.arange(width)
    order, order_j, cosets = system.order, sum(sizes), 0
    by_coset = np.zeros(2 * (k + 1) * width, dtype=np.int64)  # G
    # Cosets per bincount: at least 2(k+1), so the keys outnumber G's cells,
    # and enough for about 2^18 keys, so that short layers share the
    # per-call cost.
    batch = max(2 * (k + 1), (1 << 18) // width)
    for coset_images, descents in _runs(_layers(simple, sigma, positive, rest, orbit), batch):
        cosets += len(descents)
        if cosets * order_j > order:
            break
        moves = is_simple[coset_images[:, rest]] @ (1 << np.arange(k - 1))  # T_u, bit j: rest[j]
        lefts = (pop[descents, None] + pop[masks & moves[:, None]]) * (2 * width)
        highs = (~positive[coset_images[:, k:]]) * width  # d in Des_R(u*v)
        for a in range(0, len(lefts), batch):
            keys = lefts[a : a + batch].take(mask_at, axis=1)
            keys += highs[a : a + batch].take(orbit_at, axis=1)
            keys += cell_keys
            by_coset += np.bincount(keys.ravel(), minlength=len(by_coset))
    if cosets * order_j != order:
        raise InternalCheckError(
            f"{cosets} cosets of {order_j} elements, classified order {order}"
        )
    by_coset = by_coset.reshape(k + 1, 2, width)
    out = np.zeros((k + 1, k + 1), dtype=np.int64)
    out[:, :k] = by_coset[:, 0] @ by_cell
    out[:, 1:] += by_coset[:, 1] @ by_cell
    return out


# ---------------------------------------------------------------------------
# Gamma expansion


@dataclass
class GammaTable:
    """Coefficients gamma[(a, b)] of the symmetric binomial-type basis.

    The printed-grid layout puts gamma_{a,b} in row a + b, column a; this
    pairing is pinned by the forced rank-2 expansion (gamma_{0,0} = 1,
    gamma_{1,0} = |W| - 4 for rank 2) and is what :meth:`as_grid` emits.
    """

    n: int
    entries: dict[tuple[int, int], int]

    def negative_entries(self) -> dict[tuple[int, int], int]:
        return {k: v for k, v in self.entries.items() if v < 0}

    def as_grid(self) -> list[list[int]]:
        support = [k for k, v in self.entries.items() if v] or [(0, 0)]
        rows = max(a + b for a, b in support) + 1
        cols = max(a for a, b in support) + 1
        grid = [[0] * cols for _ in range(rows)]
        for (a, b), value in self.entries.items():
            if value:
                grid[a + b][a] = value
        return grid


def gamma_basis_coeffs(n: int, a: int, b: int) -> Table2D:
    """Coefficient matrix of (xy)^a (x+y)^b (1+xy)^(n-2a-b) in x^i y^j."""
    c = n - 2 * a - b
    out = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(b + 1):
        for t in range(c + 1):
            out[a + k + t][a + (b - k) + t] += comb(b, k) * comb(c, t)
    return out


def gamma_expansion(matrix: Table2D) -> GammaTable:
    """Solve for the gamma coefficients of a two-sided Eulerian matrix.

    The basis is unitriangular.  In lexicographic (a, b) order, basis (a, b)
    has coefficient exactly 1 at cell (a, a + b), its pivot cell: the lowest
    power of x in it is x^a, taken only from 1 in (x + y)^b and in
    (1 + xy)^c.  Every later unknown has 0 there: x^a needs a' <= a, and
    a' = a leaves y^(a+b') only, so b' = b.  The triangular pattern is
    checked on the pivot cells (it proves the basis independent).  Then
    gamma_{a,b} is the matrix at its pivot cell less the earlier unknowns'
    coefficients there, by forward substitution in Python ints over the
    pivot cells alone.  All (n+1)^2 cells are then rebuilt from the
    coefficients by one object-dtype dot product and compared with the
    matrix (the reconstruction check).  Either failure raises
    :class:`GammaBasisError`, the second naming the first cell, in
    row-major order, where the matrix and its reconstruction differ.
    Negative coefficients are reported as data, not errors.  Raises
    ``ValueError`` unless the matrix is square.
    """
    n = _square_size(matrix) - 1
    unknowns = [(a, b) for a in range(n // 2 + 1) for b in range(n - 2 * a + 1)]
    columns = np.array([gamma_basis_coeffs(n, a, b) for a, b in unknowns], dtype=object)
    columns = columns.reshape(len(unknowns), n + 1, n + 1)
    rows = [a for a, _ in unknowns]
    cols = [a + b for a, b in unknowns]
    pivots = columns[:, rows, cols].astype(np.int64)  # [column, pivot cell]
    if not np.array_equal(np.tril(pivots), np.eye(len(unknowns))):
        raise GammaBasisError("gamma basis is not unitriangular at its pivot cells")
    target = np.array(matrix, dtype=object)
    at_pivots = pivots.tolist()
    values = []
    for r, cell in enumerate(zip(rows, cols)):
        earlier = sum(value * at_pivots[c][r] for c, value in enumerate(values))
        values.append(int(target[cell]) - earlier)
    rebuilt = np.dot(np.array(values, dtype=object), columns.reshape(len(unknowns), (n + 1) ** 2))
    residual = target - rebuilt.reshape(n + 1, n + 1)
    nonzero = np.argwhere(residual != 0)
    if len(nonzero):
        i, j = nonzero[0]
        raise GammaBasisError(f"gamma reconstruction leaves {residual[i, j]} at cell ({i}, {j})")
    return GammaTable(n=n, entries=dict(zip(unknowns, values)))
