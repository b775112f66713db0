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

The same census can be counted without any table, by walking one maximal
parabolic subgroup and its cosets per component (:func:`factorize` and
:func:`factor_census`); that is how the CLI gets the Eulerian matrix.
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

    Works in place on one int64 copy: viewed as (-1, 2, 2^k), the second half
    of each block holds the entries with bit k of the flat index set.
    """
    out = np.array(values, dtype=np.int64)
    step = np.subtract if inverse else np.add
    for k in range(2 * n):
        block = out.reshape(-1, 2, 1 << k)
        step(block[:, 1], block[:, 0], out=block[:, 1])
    return out


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
    by BLAS and returned as int64.  Z holds only 0 and +-1, so every partial
    sum of either product, in any order, is an integer of magnitude at most
    4^n * max|values|; below 2^53 each one is exact in float64.  Over that
    bound this raises :class:`CapacityError` instead of rounding.  Every
    table that can exist is under it: entries are at most |W| <= 10^7, and
    4^14 * 10^7 < 2^53, while a 4^n-cell table past n = 14 does not fit in
    memory.
    """
    size = len(values)
    n = size.bit_length() - 1
    peak = max(-int(values.min()), int(values.max()))
    if peak << 2 * n >= 1 << 53:
        raise CapacityError(
            f"submask sums of a rank-{n} table with an entry of {peak} "
            "can pass 2^53, where float64 is no longer exact"
        )
    masks = np.arange(size)
    zeta = ((masks[None, :] & ~masks[:, None]) == 0).astype(np.float64)
    if signed:
        parity = 1.0 - 2 * (popcount_table(n) & 1)
        zeta *= np.outer(parity, parity)
    return (zeta @ values @ zeta.T).astype(np.int64)


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
    :func:`factor_census`; the matrix of a product is the 2D convolution of
    its components' matrices, taken in Python ints.
    """
    if isinstance(group, GroupTable):
        n = group.rank
        pop = popcount_table(n).astype(np.int64)
        joint = pop[group.des_left] * (n + 1) + pop[group.des_right]
        return np.bincount(joint, minlength=(n + 1) ** 2).reshape(n + 1, n + 1).tolist()
    total = np.ones((1, 1), dtype=object)
    for factor in group.factors:
        sizes = _by_size(factor.system.rank)
        part = (sizes @ factor_census(factor) @ sizes.T).astype(object)
        grown = np.zeros((len(total) + len(part) - 1,) * 2, dtype=object)
        for (i, j), count in np.ndenumerate(total):
            grown[i : i + len(part), j : j + len(part)] += count * part
        total = grown
    return total.tolist()


def _by_size(n: int) -> np.ndarray:
    """(n+1) x 2^n int64 indicator of |I| = i, to group a subset index by size."""
    return (popcount_table(n)[None, :] == np.arange(n + 1)[:, None]).astype(np.int64)


def eulerian_from_flag(f: Table2D, n: int) -> Table2D:
    """The Eulerian matrix recovered from the f-table alone:

        sum over I, J of f[I][J] x^|I| y^|J| (1-x)^(n-|I|) (1-y)^(n-|J|).

    f is grouped by (|I|, |J|), then changed to the x^i y^j basis by
    B[i][p] = (-1)^(i-p) C(n-p, i-p) in Python ints: its partial sums can pass int64.
    """
    sizes = range(n + 1)
    onehot = _by_size(n)
    grouped = onehot @ np.asarray(f, dtype=np.int64) @ onehot.T
    basis = np.array(
        [[(-1) ** (i - p) * comb(n - p, i - p) if i >= p else 0 for p in sizes]
         for i in sizes],
        dtype=object,
    )
    return (basis @ grouped.astype(object) @ basis.T).tolist()


def eulerian_symmetric(matrix: Table2D) -> bool:
    """Both Eulerian symmetries: transpose and antipodal."""
    n = len(matrix) - 1
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
    numbered 0..k-1.  :func:`factor_census` walks both W_J and W^J over
    W's roots; no table is built.
    """

    system: CoxeterSystem
    node: int


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
    ties go to the lowest node.  Each coset also gathers and counts W_J's
    distinct descent kinds (at most |W_J|, 67,696 for E8 over D7); the
    model leaves that term out, since only the walk of W_J finds them.
    """
    k = system.rank

    def cost(node):
        sub = _maximal_parabolic(system, node)
        order = 1 if sub is None else sub.order
        return order + system.order // order * 2 ** (k - 1)

    return min(range(k), key=cost)


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
    factors = [ParabolicFactor(part, cheapest_node(part)) for part in parts]
    subs = [_maximal_parabolic(f.system, f.node) for f in factors]
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


def factor_census(factor: ParabolicFactor) -> np.ndarray:
    """The 2^k x 2^k census of (Des_L, Des_R) over W, as :func:`_census`
    counts it from W's table, summed one coset u of W^J at a time.

    For w = u*v: t in J is a right descent of w exactly when of v, since u
    keeps the positive roots of W_J positive; d is one exactly when
    u(v(alpha_d)) < 0.  Left descents follow Deodhar's lemma on
    beta = u^-1(alpha_s): s is one when beta < 0, exactly when t is one of
    v when beta = alpha_t with t in J, and never otherwise (Geck-Pfeiffer,
    *Characters of Finite Coxeter Groups*, 2.1).  So
    :func:`bicox.coxeter._layers`, the closure that also builds every group
    table, walks W_J over one root closure into its distinct (Des_L(v),
    v(alpha_d), Des_R(v)) and their counts, and then W^J; each coset is a
    gather over those kinds, through a 2^(k-1) lookup from Des_L(v), and a
    batch of cosets is one bincount.  W_J's layer sizes must be the Poincare
    coefficients of its degrees, and |W^J| * |W_J| must be |W|.
    """
    system, d = factor.system, factor.node
    k = system.rank
    simple, sigma, positive = _root_permutations(system)
    simple = np.array(simple)
    rest = np.delete(np.arange(k), d)
    bits = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 1)) & 1  # bit j: rest[j]
    sub = _maximal_parabolic(system, d)
    sizes = poincare_coefficients(sub.components if sub else ()).tolist()
    # W_J as its distinct (Des_L(v), v(alpha_d), Des_R(v)) and their counts.
    seen, found = [], []
    for images, descents, _ in _layers(simple[rest], sigma[rest], positive, (), simple[d : d + 1]):
        seen.append(len(images))
        if seen != sizes[: len(seen)]:
            break
        des_right = ~positive[images[:, :-1]] @ (1 << np.arange(k - 1))
        kind = (descents * len(positive) + images[:, -1]) << (k - 1) | des_right
        found.append(np.unique(kind, return_counts=True))
    if seen != sizes:
        raise InternalCheckError(f"W_J has {seen} elements by length, its degrees give {sizes}")
    kinds, where = np.unique(np.concatenate([kinds for kinds, _ in found]), return_inverse=True)
    counts = np.bincount(where, weights=np.concatenate([counts for _, counts in found]))
    cell = kinds >> (k - 1)
    orbit, at = np.unique(cell % len(positive), return_inverse=True)
    cell = cell // len(positive) * len(orbit) + at
    right = (bits << rest).sum(axis=1)[kinds & (len(bits) - 1)]  # in W's numbering
    order, order_j, cosets = system.order, sum(sizes), 0
    # Counts are whole numbers summing to |W| < 2^53: exact in float64.
    census = np.zeros(1 << 2 * k)
    # Cosets per bincount: enough that the keys outnumber the census cells,
    # so adding the census-sized result costs no more than the keys do, and
    # at least 4096 keys, so that short layers share the per-call cost.
    batch = -(-max(len(census), 4096) // len(kinds))
    weights = np.tile(counts, batch)
    for coset_images, descents in _runs(_layers(simple, sigma, positive, rest, orbit), batch):
        cosets += len(descents)
        if cosets * order_j > order:
            break
        # moves[i, j]: the bit of s with u_i(alpha_rest[j]) = alpha_s, or 0.
        moves = ((coset_images[:, rest, None] == simple) << np.arange(k)).sum(axis=2)
        lefts = (descents[:, None] | moves @ bits.T) << k
        highs = (~positive[coset_images[:, k:]]).astype(np.intp) << d  # d in Des_R(u*v)
        for a in range(0, len(lefts), batch):
            left, high = lefts[a : a + batch], highs[a : a + batch]
            lookup = (left[:, :, None] + high[:, None, :]).reshape(len(left), -1)
            keys = (np.take(lookup, cell, axis=1) + right).ravel()
            census += np.bincount(keys, weights=weights[: len(keys)], minlength=len(census))
    if cosets * order_j != order:
        raise InternalCheckError(
            f"{cosets} cosets of {order_j} elements, classified order {order}"
        )
    return census.astype(np.int64).reshape(1 << k, 1 << k)


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
    has coefficient exactly 1 at cell (a, a + b): the lowest power of x in
    it is x^a, taken only from 1 in (x + y)^b and in (1 + xy)^c.  Every
    later unknown has 0 there: x^a needs a' <= a, and a' = a leaves y^(a+b')
    only, so b' = b.  Hence gamma_{a,b} is the residual at (a, a + b) once
    the earlier unknowns' columns are subtracted, all in Python ints.  The
    triangular pattern is checked on the coefficients (it proves the basis
    independent), and the residual must end at zero in all (n+1)^2 cells
    (the reconstruction check); either failure raises
    :class:`GammaBasisError`.  Negative coefficients are reported as data,
    not errors.
    """
    n = len(matrix) - 1
    unknowns = [(a, b) for a in range(n // 2 + 1) for b in range(n - 2 * a + 1)]
    columns = np.array([gamma_basis_coeffs(n, a, b) for a, b in unknowns], dtype=object)
    pivots = np.array([[col[a, a + b] for a, b in unknowns] for col in columns])  # [col, cell]
    if not np.array_equal(np.tril(pivots), np.eye(len(unknowns))):
        raise GammaBasisError("gamma basis is not unitriangular at its pivot cells")
    residual = np.array(matrix, dtype=object)
    entries = {}
    for (a, b), column in zip(unknowns, columns):
        entries[a, b] = value = int(residual[a, a + b])
        residual -= value * column
    nonzero = np.argwhere(residual != 0)
    if len(nonzero):
        i, j = nonzero[0]
        raise GammaBasisError(f"gamma reconstruction leaves {residual[i, j]} at cell ({i}, {j})")
    return GammaTable(n=n, entries=entries)
