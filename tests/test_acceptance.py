"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The optional stress
reproduction of the rank-7 exceptional group is enabled by setting RUN_E7=1
(about 5 s and 360 MB on two cores).
"""

import math
import os
import time
from contextlib import contextmanager

import pytest

from bicox.complexes import (
    TwoSidedComplex,
    euler_characteristic,
    verify_balanced,
    verify_boolean,
    verify_facet_count,
    verify_partition,
    verify_pseudomanifold,
    verify_shelling,
    verify_sigma_embedding,
    verify_thin,
    verify_weak_order_monotone,
)
from bicox.contingency import SymmetricGroupFaces, verify_refinement_isomorphism
from bicox.cosets import double_quotient_size
from bicox.coxeter import length_order
from bicox.enumeration import (
    eulerian_from_flag,
    flag_f,
    flag_h,
    gamma_expansion,
    reciprocity_holds,
    two_sided_eulerian,
)

from conftest import (
    Face,
    closure_count,
    double_coset,
    down_reach,
    is_minimal_rep,
    minimal_rep,
    one_line,
)
from contingency_objects import (
    face_to_table,
    from_display,
    id_of,
    kway_maximal_count,
    lower_covers,
    ordered_set_partition,
    upper_covers,
)
from expected_tables import EULERIAN, GAMMA, grid_entries
from test_contingency import CENTER_7, LOWER_COVERS_7, UPPER_COVERS_7


RANK3_GROUPS = ["A1", "A2", "A3", "B2", "B3", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]
RANK4_GROUPS = ["A4", "B4", "D4", "F4"]


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number}: PASS  {description}  [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def complexes(tables):
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = TwoSidedComplex.build(tables(spec))
        return cache[spec]

    return get


def test_criterion_1_classical_eulerian_tables(tables):
    with criterion(1, "Eulerian matrices for A1-A4, B2-B4, D4-D6 (exact)"):
        start = time.monotonic()
        for spec in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "D5", "D6"]:
            assert two_sided_eulerian(tables(spec)) == EULERIAN[spec], spec
        assert time.monotonic() - start < 10.0


def test_criterion_2_exceptional_eulerian_tables(tables):
    with criterion(2, "Eulerian matrices for F4 and E6 (exact, timed)"):
        start = time.monotonic()
        assert two_sided_eulerian(tables("F4")) == EULERIAN["F4"]
        assert time.monotonic() - start < 1.0
        start = time.monotonic()
        assert two_sided_eulerian(tables("E6")) == EULERIAN["E6"]
        assert time.monotonic() - start < 60.0


@pytest.mark.skipif(not os.environ.get("RUN_E7"), reason="set RUN_E7=1 to enable")
def test_criterion_2_stress_e7(tables):
    with criterion(2, "stress: Eulerian and gamma tables for the rank-7 group"):
        table = tables("E7")
        assert two_sided_eulerian(table) == EULERIAN["E7"]
        gamma = gamma_expansion(EULERIAN["E7"])
        assert grid_entries(gamma.as_grid()) == grid_entries(GAMMA["E7"])


def test_criterion_3_gamma_tables(tables):
    with criterion(3, "gamma tables for the same groups (exact, nonnegative)"):
        for spec in [
            "A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "D5", "D6", "F4", "E6",
        ]:
            gamma = gamma_expansion(two_sided_eulerian(tables(spec)))
            assert grid_entries(gamma.as_grid()) == grid_entries(GAMMA[spec]), spec
            assert not gamma.negative_entries(), spec


def test_criterion_4_rank2_worked_example(tables):
    with criterion(4, "rank-2 worked example: f coefficients, descents, h"):
        a2 = tables("A2")
        f = flag_f(a2)
        expected_f = {
            (0, 0): 1,
            (1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 1,
            (3, 0): 1, (0, 3): 1,
            (1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2,
            (3, 1): 3, (3, 2): 3, (1, 3): 3, (2, 3): 3,
            (3, 3): 6,
        }
        for gens_l in range(4):
            for gens_r in range(4):
                assert f[gens_l][gens_r] == expected_f.get((gens_l, gens_r), 0)
        descents = sorted(
            (int(a2.des_left[w]), int(a2.des_right[w])) for w in range(6)
        )
        assert descents == sorted(
            [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1), (3, 3)]
        )
        assert two_sided_eulerian(a2) == [[1, 0, 0], [0, 4, 0], [0, 0, 1]]


def test_criterion_5_structural_suite(tables, complexes):
    with criterion(5, "structural suite: exhaustive rank <= 3 and rank 4"):
        for spec in RANK3_GROUPS + ["B4"]:
            cx = complexes(spec)
            assert verify_boolean(cx), spec
            assert verify_balanced(cx), spec
            assert verify_partition(cx), spec
            assert verify_weak_order_monotone(cx), spec
            assert verify_facet_count(cx), spec
            assert verify_sigma_embedding(cx), spec


def test_criterion_6_topology_suite(tables, complexes):
    with criterion(6, "topology: thin, pseudomanifold, Euler 0, full shelling"):
        start = time.monotonic()
        for spec in RANK3_GROUPS + RANK4_GROUPS:
            cx = complexes(spec)
            assert verify_thin(cx), spec
            assert verify_pseudomanifold(cx), spec
            assert euler_characteristic(cx) == 0, spec
        # face-level shelling: required at rank <= 3, affordable at rank 4 too
        for spec in RANK3_GROUPS + RANK4_GROUPS:
            cx = complexes(spec)
            report = verify_shelling(cx, length_order(cx.table))
            assert report.ok, spec
        assert time.monotonic() - start < 120.0


def test_criterion_7_double_coset_oracles(tables):
    with criterion(7, "double-quotient counts agree on all subset pairs, rank <= 4"):
        for spec in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3", "H4"]:
            table = tables(spec)
            full = table.full_mask
            for gens_l in range(full + 1):
                for gens_r in range(full + 1):
                    a = double_quotient_size(table, gens_l, gens_r)
                    b = closure_count(table, gens_l, gens_r)
                    assert a == b, (spec, gens_l, gens_r)
        # uniqueness and below-all-members, exhaustive on rank <= 3
        for spec in ["A2", "A3", "B2", "B3", "H3", "I2(6)"]:
            table = tables(spec)
            full = table.full_mask
            reach = down_reach(table)
            for gens_l in range(full + 1):
                for gens_r in range(full + 1):
                    seen = set()
                    for w in range(table.order):
                        if w in seen:
                            continue
                        u = minimal_rep(table, gens_l, w, gens_r)
                        coset = double_coset(table, gens_l, u, gens_r)
                        seen |= coset
                        members = [
                            v
                            for v in coset
                            if is_minimal_rep(table, gens_l, v, gens_r)
                        ]
                        assert members == [u], (spec, gens_l, gens_r)
                        if len(coset) > 1:
                            runner_up = min(
                                int(table.length[v]) for v in coset - {u}
                            )
                            assert int(table.length[u]) < runner_up
                        for v in coset:
                            assert reach[v] >> u & 1


def test_criterion_8_reciprocity(tables):
    with criterion(8, "f<->h reciprocity and Eulerian-from-flag, rank <= 4 plus E6"):
        for spec in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3",
                     "H4", "I2(7)", "E6"]:
            table = tables(spec)
            f = flag_f(table)
            h = flag_h(table)
            assert reciprocity_holds(f, h, table.rank), spec
            assert eulerian_from_flag(f, table.rank) == two_sided_eulerian(table), spec


def test_criterion_9_contingency_model(tables, complexes):
    with criterion(9, "contingency model: golden tables, covers, isomorphism"):
        start = time.monotonic()
        model = SymmetricGroupFaces(tables("A6"))
        w = id_of(model, (7, 1, 4, 2, 5, 3, 6))
        gens_l, gens_r = 0b010111, 0b100110
        u = minimal_rep(model.table, gens_l, w, gens_r)
        assert one_line(model.table, u) == (7, 1, 2, 3, 5, 4, 6)
        assert face_to_table(model, Face(gens_l, u, gens_r)) == CENTER_7

        ups = upper_covers(CENTER_7)
        downs = lower_covers(CENTER_7)
        assert len(ups) == 12 and len(downs) == 5
        assert set(ups) == {from_display(t) for t in UPPER_COVERS_7}
        assert set(downs) == {from_display(t) for t in LOWER_COVERS_7}

        for n in (2, 3, 4):
            assert verify_refinement_isomorphism(complexes(f"A{n - 1}")), n

        partition_table = from_display(
            [[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0],
             [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        assert ordered_set_partition(partition_table) == (
            frozenset({4, 5}), frozenset({3, 6}), frozenset({1}), frozenset({2}),
        )

        for k, n in [(2, 3), (2, 4), (3, 2), (3, 3)]:
            assert kway_maximal_count(k, n) == math.factorial(n) ** (k - 1)
        assert time.monotonic() - start < 60.0
