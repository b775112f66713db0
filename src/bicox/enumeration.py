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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .coxeter import GroupTable, popcount_table
from .errors import GammaBasisError, InternalCheckError

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


def _submask_sums(values: np.ndarray) -> np.ndarray:
    """out[I][J] = sum of values[I'][J'] over I' <= I and J' <= J, by definition."""
    masks = np.arange(len(values))

    def rows(x):
        return np.stack([x[(masks & ~i) == 0].sum(axis=0) for i in masks])

    return rows(rows(values).T).T


def reciprocity_holds(f: Table2D, h: Table2D, n: int) -> bool:
    """The subset-level f<->h identities, both directions.

    These are the coefficient forms of evaluating one polynomial at
    x_i/(1 +- x_i) times the product of (1 +- x_i) factors.  Independent of
    :func:`flag_f` and :func:`flag_h_from_f`: f is the submask sum S of h,
    and h is S conjugated by the parity diagonal D = diag((-1)^|I|).
    """
    # Each sum has at most 4^n terms of size at most |W|; |W| <= 10^7 and
    # n <= 16 give |sum| < 4^16 * 10^7 < 2^63, so int64 is exact.
    f_arr = np.asarray(f, dtype=np.int64)
    h_arr = np.asarray(h, dtype=np.int64)
    if not np.array_equal(_submask_sums(h_arr), f_arr):
        return False
    parity = 1 - 2 * (popcount_table(n).astype(np.int64) & 1)
    signs = np.outer(parity, parity)
    return bool(np.array_equal(signs * _submask_sums(signs * f_arr), h_arr))


def two_sided_eulerian(table: GroupTable) -> Table2D:
    """(n+1) x (n+1) census of (number of left, number of right) descents."""
    n = table.rank
    pop = popcount_table(n).astype(np.int64)
    joint = pop[table.des_left] * (n + 1) + pop[table.des_right]
    return np.bincount(joint, minlength=(n + 1) ** 2).reshape(n + 1, n + 1).tolist()


def eulerian_from_flag(f: Table2D, n: int) -> Table2D:
    """The Eulerian matrix recovered from the f-table alone:

        sum over I, J of f[I][J] x^|I| y^|J| (1-x)^(n-|I|) (1-y)^(n-|J|).

    f is grouped by (|I|, |J|), then changed to the x^i y^j basis by
    B[i][p] = (-1)^(i-p) C(n-p, i-p) in Python ints: its partial sums can pass int64.
    """
    sizes = range(n + 1)
    onehot = (popcount_table(n)[None, :] == np.array(sizes)[:, None]).astype(np.int64)
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


def h_specialization(matrix: Table2D) -> list[int]:
    """Coefficients of the one-variable h-polynomial, by total descents."""
    n = len(matrix) - 1
    out = [0] * (2 * n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            out[i + j] += matrix[i][j]
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
