"""The Eulerian matrix by parabolic factorization, against the one a group
table gives and against the one-sided Eulerian numbers from the classified
orders alone.

The rank-8 exceptional group is opt-in: set RUN_E8=1 (about 5 s and
120 MB on two cores, most of it for the route through E7's 2,903,040
elements).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bicox
import bicox.cli
import bicox.coxeter
import bicox.enumeration
from bicox.cli import main
from bicox.coxeter import CoxeterMatrix, classify, classify_spec, parabolic
from bicox.enumeration import (
    Factorization,
    ParabolicFactor,
    cheapest_node,
    eulerian_symmetric,
    factor_eulerian,
    factorize,
    gamma_expansion,
    two_sided_eulerian,
)
from bicox.errors import CapacityError, InternalCheckError

from expected_tables import EULERIAN, GAMMA, grid_entries

GOLDEN_UP_TO_RANK_6 = [spec for spec in EULERIAN if spec != "E7"]
PRODUCTS = ["A1", "A1xA1", "A1xA1xA1", "B4xA1", "I2(9)xH3xA3", "D4xD4"]


def components(system):
    """Each component as its own system, in the order of its vertices."""
    return [parabolic(system, sorted(comp.vertices)) for comp in system.components]


def one_node(system, node):
    """The group of the irreducible ``system`` through its split at ``node``."""
    return Factorization(system, (ParabolicFactor(system, node),))


# --- the table's matrix as the oracle ---------------------------------------------


@pytest.mark.parametrize("spec", GOLDEN_UP_TO_RANK_6)
def test_every_node_matches_table_census(spec, tables):
    system = classify_spec(spec)
    expected = two_sided_eulerian(tables(spec))
    for node in range(system.rank):
        got = factor_eulerian(ParabolicFactor(system, node))
        assert got.dtype == np.int64
        assert got.tolist() == expected, (spec, node)


@pytest.mark.parametrize("spec", PRODUCTS)
def test_every_node_of_a_product_matches_table_census(spec, tables):
    system = classify_spec(spec)
    expected = two_sided_eulerian(tables(spec))
    parts = components(system)
    chosen = [ParabolicFactor(p, cheapest_node(p)) for p in parts]
    for i, part in enumerate(parts):
        for node in range(part.rank):
            factors = list(chosen)
            factors[i] = ParabolicFactor(part, node)
            got = two_sided_eulerian(Factorization(system, tuple(factors)))
            assert got == expected, (spec, i, node)
    assert two_sided_eulerian(factorize(system)) == expected


@pytest.fixture
def no_tables(monkeypatch):
    """Every ``build_group`` raises; returns the names the root closure ran on."""

    def never(system, budget=None):
        raise AssertionError(f"built the table of {system.canonical_name}")

    for module in (bicox.coxeter, bicox.enumeration, bicox.cli):
        monkeypatch.setattr(module, "build_group", never, raising=False)
    closed = []
    real = bicox.coxeter._root_permutations

    def counted(system):
        closed.append(system.canonical_name)
        return real(system)

    for module in (bicox.coxeter, bicox.enumeration):
        monkeypatch.setattr(module, "_root_permutations", counted)
    return closed


def test_rank_one_builds_no_table(no_tables):
    admitted = []
    group = factorize(classify_spec("A1xA1"), admit=lambda *work: admitted.append(work))
    assert [(f.system.canonical_name, f.node) for f in group.factors] == [("A1", 0)] * 2
    assert admitted == [("A1", 2, "roots")] * 2  # no cosets and no W_J: J is empty
    assert two_sided_eulerian(group) == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    assert no_tables == ["A1", "A1"]


@pytest.mark.parametrize("spec", ["H4", "D6", "B6", "E6", "I2(9)xH3xA3", "D7", "E7"])
def test_tables_builds_no_table(spec, no_tables, tmp_path, capsys):
    """``bicox tables`` runs one root closure per component and no group table."""
    assert main(["tables", "--type", spec, "--format", "json", "--cache-dir", str(tmp_path)]) == 0
    matrix = json.loads(capsys.readouterr().out)["eulerian"]
    if spec in EULERIAN:
        assert matrix == EULERIAN[spec]
    assert_one_sided_sums(spec, matrix)
    assert eulerian_symmetric(matrix)
    assert no_tables == [part.canonical_name for part in components(classify_spec(spec))]
    assert not list(tmp_path.iterdir())


def corrupting(corrupt, chosen):
    """``_merge_equal`` that drops or repeats the first child of the first
    layer for which ``chosen(k, rows)`` holds, and the list it records it in."""
    real = bicox.coxeter._merge_equal
    done = []

    def corrupted(rows, descents, k):
        rows, descents, where = real(rows, descents, k)
        if chosen(k, rows) and not done:
            done.append(len(rows))
            if corrupt == "drop":  # links to the dropped child go astray
                keep, where = slice(1, None), where - 1
            else:
                keep, where = np.r_[0, 0 : len(rows)], where + 1
            rows, descents = rows[keep], descents[keep]
        return rows, descents, where

    return corrupted, done


@pytest.mark.parametrize("corrupt", ["drop", "repeat"])
def test_a_corrupt_parabolic_layer_fails_the_poincare_check(corrupt, monkeypatch):
    """Dropping or repeating one child of one layer of W_J (D5 in E6) is
    caught by the layer sizes from W_J's classified degrees, and one of a
    layer of A3 by ``build_group``'s closure size."""
    # The walk of D5 has k = 5; the one of W^J has k = 6.
    corrupted, done = corrupting(corrupt, lambda k, rows: k == 5)
    monkeypatch.setattr(bicox.coxeter, "_merge_equal", corrupted)
    with pytest.raises(InternalCheckError, match="its degrees give"):
        factor_eulerian(ParabolicFactor(classify_spec("E6"), 0))
    assert done

    corrupted, done = corrupting(corrupt, lambda k, rows: len(rows) > 1)
    monkeypatch.setattr(bicox.coxeter, "_merge_equal", corrupted)
    with pytest.raises(InternalCheckError, match="closure (found|exceeds)"):
        bicox.coxeter.build_group(classify_spec("A3"))
    assert done == [3]


@pytest.mark.parametrize("corrupt", ["drop", "repeat", "forget"])
def test_a_corrupt_coset_walk_fails_the_coset_count(corrupt, monkeypatch):
    """Dropping or repeating one coset of W^J (E6 over D5, 27 cosets) is
    caught by |W^J| * |W_J| = |W|.  Forgetting every coset's left descents
    lets s*u walk back down as well as up, so the layers never end; the
    walk stops once it passes |W| / |W_J| cosets."""
    if corrupt == "forget":
        real = bicox.coxeter._merge_equal

        def corrupted(rows, descents, k):
            rows, descents, where = real(rows, descents, k)
            return rows, descents * (k != 6), where

    else:
        corrupted, _ = corrupting(corrupt, lambda k, rows: k == 6)
    monkeypatch.setattr(bicox.coxeter, "_merge_equal", corrupted)
    with pytest.raises(InternalCheckError, match="cosets of 1920 elements, classified order 51840"):
        factor_eulerian(ParabolicFactor(classify_spec("E6"), 0))


@pytest.mark.parametrize(
    "spec, parabolic_name",
    [("H4", "H3"), ("D7", "A6"), ("E8", "D7"), ("E7", "D6"), ("E6", "D5"), ("A3", "A2")],
)
def test_cheapest_node(spec, parabolic_name):
    system = classify_spec(spec)
    node = cheapest_node(system)
    rest = [t for t in range(system.rank) if t != node]
    assert parabolic(system, rest).canonical_name == parabolic_name


@pytest.mark.parametrize("spec", ["A3", "H4", "E6", "D7", "B6", "E8"])
def test_a_tables_job_classifies_each_maximal_parabolic_once(spec, monkeypatch, capsys):
    """The spec, the component and each of its k maximal parabolics are
    classified once each: the chosen W_J is carried to the count, not
    classified again."""
    k = classify_spec(spec).rank
    calls = []
    real = bicox.coxeter.classify

    def counted(matrix):
        calls.append(matrix.rank)
        return real(matrix)

    for module in (bicox.coxeter, bicox.cli):
        monkeypatch.setattr(module, "classify", counted)
    assert main(["tables", "--type", spec]) == 0
    capsys.readouterr()
    assert len(calls) <= k + 2, calls
    assert calls.count(k - 1) == k


def test_factor_carries_its_maximal_parabolic():
    system = classify_spec("E6")
    chosen = factorize(system).factors[0]
    assert chosen.subgroup.canonical_name == "D5"
    assert ParabolicFactor(system, chosen.node) == chosen
    assert ParabolicFactor(classify_spec("A1"), 0).subgroup is None


def test_factorize_builds_only_parabolic_tables(no_tables):
    """The element counts ``admit`` sees are those of the W_J alone, each
    after every component's roots and cosets; nothing is enumerated."""
    admitted = []
    group = factorize(classify_spec("I2(9)xH3xA3"), admit=lambda *work: admitted.append(work))
    assert admitted == [
        ("I2(9)", 18, "roots"), ("I2(9) over A1", 9, "cosets"),
        ("H3", 30, "roots"), ("H3 over I2(5)", 12, "cosets"),
        ("A3", 12, "roots"), ("A3 over A2", 4, "cosets"),
        ("A1", 2, "elements"), ("I2(5)", 10, "elements"), ("A2", 6, "elements"),
    ]
    assert group.order == 51840
    assert no_tables == []


def test_factorize_refuses_rank_17_before_building(no_tables):
    def never(*work):
        raise AssertionError(f"admitted {work}")

    # A1^17 from its matrix: the spec parser would refuse the rank itself.
    a1_17 = classify(CoxeterMatrix([[1 if i == j else 2 for j in range(17)] for i in range(17)]))
    with pytest.raises(CapacityError, match="rank 17"):
        factorize(a1_17, admit=never)
    assert no_tables == []


# --- an oracle that shares no code with either census ---------------------------


def one_sided_eulerian(system):
    """How many w have j right descents, for each j.

    By inclusion-exclusion over |{w : Des_R(w) <= K}| = |W| / |W_{S - K}|,
    the orders taken from the classification of each submatrix: no table,
    no roots.
    """
    n, m = system.rank, system.matrix.entries

    def quotient(kept):
        rest = [s for s in range(n) if not kept >> s & 1]
        if not rest:
            return system.order
        sub = classify(CoxeterMatrix([[m[a][b] for b in rest] for a in rest]))
        return system.order // sub.order

    sizes = [quotient(kept) for kept in range(1 << n)]
    out = [0] * (n + 1)
    for mask in range(1 << n):
        sub = mask
        while True:
            out[mask.bit_count()] += (-1) ** (mask & ~sub).bit_count() * sizes[sub]
            if not sub:
                break
            sub = (sub - 1) & mask
    return out


def assert_one_sided_sums(spec, matrix):
    expected = one_sided_eulerian(classify_spec(spec))
    assert [sum(col) for col in zip(*matrix)] == expected, spec
    assert [sum(row) for row in matrix] == expected, spec


@pytest.mark.parametrize("spec", list(EULERIAN))
def test_golden_margins_are_one_sided_eulerian(spec):
    assert_one_sided_sums(spec, EULERIAN[spec])


@pytest.mark.parametrize(
    "spec", ["B6", "H4", "D7", "I2(9)xH3xA3", "A1", "E7", "B8", "D8", "B9", "D9"]
)
def test_factorized_margins_are_one_sided_eulerian(spec):
    assert_one_sided_sums(spec, two_sided_eulerian(factorize(classify_spec(spec))))


def test_one_sided_oracle_negative_control():
    bad = [row[:] for row in EULERIAN["D5"]]
    bad[1][2] += 1
    bad[2][1] -= 1
    with pytest.raises(AssertionError):
        assert_one_sided_sums("D5", bad)


# --- E7 in tier-1, E8 opt-in ---------------------------------------------------------


@pytest.mark.parametrize("parabolic_name, node", [("D6", 0), ("E6", 6)])
def test_e7_through_two_nodes(parabolic_name, node):
    system = classify_spec("E7")
    assert parabolic(system, [t for t in range(7) if t != node]).canonical_name == parabolic_name
    matrix = two_sided_eulerian(one_node(system, node))
    assert matrix == EULERIAN["E7"]
    assert grid_entries(gamma_expansion(matrix).as_grid()) == grid_entries(GAMMA["E7"])


@pytest.mark.skipif(not os.environ.get("RUN_E8"), reason="set RUN_E8=1 to enable")
def test_e8_through_d7_and_e7():
    system = classify_spec("E8")
    over_d7 = two_sided_eulerian(one_node(system, 0))
    assert two_sided_eulerian(factorize(system)) == over_d7
    over_e7 = two_sided_eulerian(one_node(system, 7))
    assert over_e7 == over_d7
    assert sum(map(sum, over_d7)) == 696_729_600
    assert eulerian_symmetric(over_d7)
    assert_one_sided_sums("E8", over_d7)
    gamma = gamma_expansion(over_d7)
    assert not gamma.negative_entries()
    assert gamma.entries[4, 0] == 17_111_296


# The child's own peak RSS in MB.  VmHWM starts afresh at exec, while
# ru_maxrss on Linux keeps the parent's resident size at the fork.
TABLES_CHILD = """
import sys
from bicox.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(int(peak.split()[1]) // 1024, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.environ.get("RUN_E8"), reason="set RUN_E8=1 to enable")
def test_e8_tables_command(tmp_path):
    """``bicox tables --type E8`` exits 0 in under 30 s and 200 MB, cache untouched."""
    env = dict(os.environ, PYTHONPATH=str(Path(bicox.__file__).parents[1]))
    argv = ["tables", "--type", "E8", "--format", "json", "--cache-dir", str(tmp_path / "c")]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", TABLES_CHILD, *argv], env=env, capture_output=True, text=True
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30
    assert int(proc.stderr.split()[-1]) < 200  # peak RSS in MB
    payload = json.loads(proc.stdout)
    assert payload["order"] == 696_729_600
    assert payload["eulerian"] == two_sided_eulerian(one_node(classify_spec("E8"), 0))
    assert not (tmp_path / "c").exists()
