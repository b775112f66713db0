"""Exact face and descent enumeration for a finite group table.

All counts here are exact integers; the gamma change of basis runs over
exact rationals.  Subset-indexed tables are dense 2^n x 2^n arrays of Python
ints indexed by generator bitmasks.

The two tables of interest are

    f[I][J] = number of faces with color (I, J)
            = |{w : Des_L(w) <= I and Des_R(w) <= J}|,
    h[I][J] = |{w : Des_L(w) = I and Des_R(w) = J}|,

related by subset sums one way and by inclusion-exclusion the other.  The
coarse specialization of h by descent counts is the two-sided Eulerian
matrix, which is symmetric, anti-diagonally symmetric, and (conjecturally)
expands with nonnegative coefficients in the basis

    (xy)^a (x+y)^b (1+xy)^(n-2a-b),   0 <= 2a + b <= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .coxeter import GroupTable, popcount_table
from .errors import GammaBasisError, InternalCheckError

Table2D = list[list[int]]


def flag_h(table: GroupTable) -> Table2D:
    """Census of descent-set pairs: h[I][J] counts w with these exact sets."""
    n = table.rank
    size = 1 << n
    joint = table.des_left.astype(np.int64) * size + table.des_right
    counts = np.bincount(joint, minlength=size * size)
    return [
        [int(x) for x in counts[row * size : (row + 1) * size]]
        for row in range(size)
    ]


def _zeta_2d(values: Table2D, n: int, sign: int) -> Table2D:
    """Subset-sum transform over both indices; sign -1 inverts it."""
    size = 1 << n
    out = [row[:] for row in values]
    for bit in range(n):
        step = 1 << bit
        for gens_l in range(size):
            if gens_l & step:
                src = gens_l ^ step
                row, other = out[gens_l], out[src]
                for gens_r in range(size):
                    row[gens_r] += sign * other[gens_r]
    for bit in range(n):
        step = 1 << bit
        for gens_l in range(size):
            row = out[gens_l]
            for gens_r in range(size):
                if gens_r & step:
                    row[gens_r] += sign * row[gens_r ^ step]
    return out


def flag_f(table: GroupTable) -> Table2D:
    """f[I][J] = |{w : Des_L(w) <= I, Des_R(w) <= J}| for all subset pairs.

    Equal to the size of the double quotient on the complementary subsets;
    computed from the descent census by a double subset-sum transform so a
    single pass over the group covers all 4^n pairs.
    """
    return _zeta_2d(flag_h(table), table.rank, +1)


def flag_h_from_f(f: Table2D, n: int) -> Table2D:
    """Inclusion-exclusion inverse of :func:`flag_f`.

    Raises :class:`InternalCheckError` if any entry comes out negative,
    which would mean the input was not a valid f-table.
    """
    h = _zeta_2d(f, n, -1)
    if any(x < 0 for row in h for x in row):
        raise InternalCheckError("inclusion-exclusion produced a negative entry")
    return h


def reciprocity_holds(f: Table2D, h: Table2D, n: int) -> bool:
    """The subset-level f<->h identities, both directions.

    These are the coefficient forms of evaluating one polynomial at
    x_i/(1 +- x_i) times the product of (1 +- x_i) factors.
    """
    size = 1 << n
    for gens_l in range(size):
        for gens_r in range(size):
            total = 0
            sub_l = gens_l
            while True:
                sub_r = gens_r
                while True:
                    total += h[sub_l][sub_r]
                    if sub_r == 0:
                        break
                    sub_r = (sub_r - 1) & gens_r
                if sub_l == 0:
                    break
                sub_l = (sub_l - 1) & gens_l
            if total != f[gens_l][gens_r]:
                return False
    return _zeta_2d(f, n, -1) == h


def two_sided_eulerian(table: GroupTable) -> Table2D:
    """(n+1) x (n+1) census of (number of left, number of right) descents."""
    n = table.rank
    pop = popcount_table(n).astype(np.int64)
    joint = pop[table.des_left] * (n + 1) + pop[table.des_right]
    counts = np.bincount(joint, minlength=(n + 1) * (n + 1))
    return [
        [int(x) for x in counts[i * (n + 1) : (i + 1) * (n + 1)]]
        for i in range(n + 1)
    ]


def eulerian_from_flag(f: Table2D, n: int) -> Table2D:
    """The Eulerian matrix recovered from the f-table alone:

        sum over I, J of f[I][J] x^|I| y^|J| (1-x)^(n-|I|) (1-y)^(n-|J|).
    """
    by_size = [[0] * (n + 1) for _ in range(n + 1)]
    for gens_l in range(1 << n):
        pl = gens_l.bit_count()
        row = f[gens_l]
        for gens_r in range(1 << n):
            by_size[pl][gens_r.bit_count()] += row[gens_r]
    out = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(n + 1):
            c = by_size[p][q]
            if not c:
                continue
            for i in range(p, n + 1):
                coeff_x = (-1) ** (i - p) * comb(n - p, i - p)
                for j in range(q, n + 1):
                    coeff_y = (-1) ** (j - q) * comb(n - q, j - q)
                    out[i][j] += c * coeff_x * coeff_y
    return out


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

    Exact Gaussian elimination over the rationals, pivoting the unknowns in
    lexicographic (a, b) order; the per-rank pivot sweep doubles as a
    computational check that the basis is linearly independent.  Raises
    :class:`GammaBasisError` if the basis fails to span or the solution is
    not integral.  Negative coefficients are reported as data, not errors.
    """
    n = len(matrix) - 1
    unknowns = [(a, b) for a in range(n // 2 + 1) for b in range(n - 2 * a + 1)]
    columns = [gamma_basis_coeffs(n, a, b) for a, b in unknowns]
    cells = [(i, j) for i in range(n + 1) for j in range(n + 1)]
    rows = [
        [Fraction(col[i][j]) for col in columns] + [Fraction(matrix[i][j])]
        for i, j in cells
    ]
    pivot_rows: list[int] = []
    r = 0
    for c in range(len(unknowns)):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            raise GammaBasisError(
                f"gamma basis is linearly dependent at unknown {unknowns[c]}"
            )
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivot_rows.append(r)
        r += 1
    for k in range(r, len(rows)):
        if rows[k][-1]:
            raise GammaBasisError(
                f"gamma basis does not span: residual {rows[k][-1]} remains"
            )
    solution = {}
    for idx, key in enumerate(unknowns):
        value = rows[idx][-1]
        if value.denominator != 1:
            raise GammaBasisError(f"gamma coefficient {key} is not integral: {value}")
        solution[key] = int(value)
    reconstructed = [[0] * (n + 1) for _ in range(n + 1)]
    for key, value in solution.items():
        coeffs = columns[unknowns.index(key)]
        for i in range(n + 1):
            for j in range(n + 1):
                reconstructed[i][j] += value * coeffs[i][j]
    if reconstructed != matrix:
        raise GammaBasisError("gamma reconstruction failed to reproduce the input")
    return GammaTable(n=n, entries=solution)
