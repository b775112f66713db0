"""The factorized two-sided Eulerian matrices of types A, B and I2 against
closed forms that share no code with the Coxeter machinery: each expected
matrix is a binomial sum in Python ints.

For a series of rank r, sum over i, j >= 0 of S[i][j] s^i t^j equals
E(s, t) / ((1 - s)^p (1 - t)^p), and the (r+1) x (r+1) corner of S
determines E:

    E[a][b] = sum over i <= a, j <= b of
              (-1)^(a-i+b-j) C(p, a-i) C(p, b-j) S[i][j].

A12 and B11 are opt-in with the rank-8 exceptional group: set RUN_E8=1
(about 23 s and 490 MB on two cores, most of it for the walks of A5xA6
and A9xA1, their W_J).
"""

import os
from math import comb

import pytest

from bicox.coxeter import classify_spec
from bicox.enumeration import factorize, two_sided_eulerian


def from_series(series, rank, power):
    """E from its series S[i][j] = ``series(i, j)`` over ((1-s)(1-t))^power.

    One row and column more than E needs are computed; they must vanish,
    or the series and the power do not belong to a rank-``rank`` matrix.
    """
    size = rank + 2
    s = [[series(i, j) for j in range(size)] for i in range(size)]
    e = [
        [
            sum(
                (-1) ** (a - i + b - j) * comb(power, a - i) * comb(power, b - j) * s[i][j]
                for i in range(a + 1)
                for j in range(b + 1)
            )
            for b in range(size)
        ]
        for a in range(size)
    ]
    assert e[-1] == [0] * size and [row[-1] for row in e] == [0] * size
    return [row[:-1] for row in e[:-1]]


def type_a(r):
    """A_r = S_{r+1} (Garsia-Gessel, "Permutation statistics and partitions",
    Adv. Math. 31, 1979): S[i][j] = C((i+1)(j+1) + r, r+1), the
    (i+1) x (j+1) contingency tables with entry sum r+1; p = r + 2."""
    return from_series(lambda i, j: comb((i + 1) * (j + 1) + r, r + 1), r, r + 2)


def type_b(r):
    """B_r, the signed permutations: S[i][j] = C(2ij + i + j + r, r), p = r + 1.

    This is the type-B analogue of the Garsia-Gessel series.  It is
    attributed to M. Visontai, "Some remarks on the joint distribution of
    descents and inverse descents", Electron. J. Combin. 20(1), 2013, #P52;
    that attribution was not checked against the paper.  What is confirmed
    is the identity itself, here, for B2-B9 (B11 opt-in) against the
    factorized route, whose margins the one-sided Eulerian oracle checks.
    """
    return from_series(lambda i, j: comb(2 * i * j + i + j + r, r), r, r + 1)


def dihedral(m):
    """I2(m): e and w0 in the corners, the other 2m - 2 have one descent
    on each side."""
    return [[1, 0, 0], [0, 2 * m - 2, 0], [0, 0, 1]]


def closed_form(spec):
    """The closed form of "A<r>", "B<r>" or "I2(<m>)"."""
    if spec.startswith("I2("):
        return dihedral(int(spec[3:-1]))
    return {"A": type_a, "B": type_b}[spec[0]](int(spec[1:]))


def factorized(spec):
    return two_sided_eulerian(factorize(classify_spec(spec)))


@pytest.mark.parametrize(
    "spec",
    [f"A{r}" for r in range(1, 11)] + [f"B{r}" for r in range(2, 10)]
    + [f"I2({m})" for m in (5, 8, 9, 12000)],
)
def test_closed_form(spec):
    assert factorized(spec) == closed_form(spec)


def test_closed_forms_meet_at_rank_two():
    """A2 = I2(3) and B2 = I2(4): the three forms agree where they overlap."""
    assert type_a(2) == dihedral(3)
    assert type_b(2) == dihedral(4)


@pytest.mark.parametrize("power", [6, 8])
def test_a_wrong_power_is_rejected(power):
    """A5's series over any power but 7 leaves a row past rank 5."""
    with pytest.raises(AssertionError):
        from_series(lambda i, j: comb((i + 1) * (j + 1) + 5, 6), 5, power)


@pytest.mark.parametrize("spec", ["A5", "B4", "I2(9)"])
@pytest.mark.parametrize("delta", [1, -1])
def test_one_changed_cell_is_rejected(spec, delta):
    """Negative control: the comparison fails once any one cell moves by one."""
    matrix, expected = factorized(spec), closed_form(spec)
    assert matrix == expected
    for a in range(len(matrix)):
        for b in range(len(matrix)):
            bad = [row[:] for row in matrix]
            bad[a][b] += delta
            assert bad != expected, (a, b)


@pytest.mark.skipif(not os.environ.get("RUN_E8"), reason="set RUN_E8=1 to enable")
@pytest.mark.parametrize("spec", ["A12", "B11"])
def test_rank_past_ten(spec):
    assert factorized(spec) == closed_form(spec)
