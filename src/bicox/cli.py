"""Command-line front end.

Subcommands: ``build`` (enumerate a group into the cache), ``verify`` (run
the structural, topological, and enumerative check suite), ``tables`` (emit
the two-sided Eulerian matrix and gamma table, by parabolic factorization
and without the cache), and ``export`` (Hasse diagrams and contingency
tables as DOT/JSON).

Exit codes: 0 success, 1 verification failure, 2 usage, configuration or
file-system error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import lru_cache, partial
from pathlib import Path

from . import cache as cache_mod
from .complexes import (
    TwoSidedComplex,
    check_table_gate,
    euler_characteristic,
    face_count,
    face_labels,
    hasse_dot,
    rank_sorted,
    sigma_ideal,
    verify_balanced,
    verify_boolean,
    verify_facet_count,
    verify_partition,
    verify_pseudomanifold,
    verify_shelling,
    verify_sigma_embedding,
    verify_wall_rows,
)
from .contingency import SymmetricGroupFaces, verify_refinement_isomorphism
from .cosets import verify_double_quotients
from .coxeter import (
    DEFAULT_BUDGET,
    build_group,
    check_budget,
    classify,
    count_text,
    length_order,
    parse_type_spec,
)
from .enumeration import (
    eulerian_from_flag,
    eulerian_symmetric,
    factorize,
    flag_f,
    flag_h,
    flag_h_from_f,
    gamma_expansion,
    reciprocity_holds,
    two_sided_eulerian,
)
from .errors import BicoxError, CacheError, CapacityError, InternalCheckError, NotFiniteError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

HEAVY_ORDER = 1_000_000
FACE_BUDGET = 500_000  # most faces export draws
ORACLE_GATE = 5 * 10**10  # most oracle cost, 4^n |W| (E7: 4.8e10): its 4^n |classes| at least


def default_cache_dir() -> Path:
    env = os.environ.get("BICOX_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bicox"


def check_capacity(args, name: str, count: int, unit: str = "elements") -> None:
    """Refuse ``count`` over 10^6 without ``--allow-heavy``, then over ``--budget``."""
    if count > HEAVY_ORDER and not args.allow_heavy:
        raise CapacityError(
            f"{name} has {count_text(count, unit)}; pass --allow-heavy to build it"
        )
    check_budget(name, count, args.budget, unit)


def get_table(args, system):
    """(table, cache path, whether the cache held it) for ``system``, the
    classified ``--type``."""
    check_capacity(args, system.canonical_name, system.order)  # before any file name
    path = cache_mod.cache_path(args.cache_dir, system.canonical_name)
    if path.exists():
        table = cache_mod.load_table(path)
        if table.system.matrix != system.matrix:
            raise CacheError(f"cache file {path} was built from a different matrix")
        return table, path, True
    table = build_group(system, budget=args.budget)
    cache_mod.save_table(table, args.cache_dir)
    return table, path, False


def get_factorization(args):
    """The type's parabolic factorization, without the cache.

    ``--budget`` and ``--allow-heavy`` apply to each component's roots,
    its cosets and the elements of its maximal parabolic subgroup, not to
    the group itself.
    """
    return factorize(classify(parse_type_spec(args.type)), partial(check_capacity, args))


def emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)


# ---------------------------------------------------------------------------
# verify


def run_verification(table):
    """All checks as (name, status, detail); statuses PASS/FAIL/SKIP/FLAG.

    A check that raises :class:`InternalCheckError` is recorded as FAIL with
    the error text, and the remaining checks still run.  The double-quotient
    oracle is SKIP, with the gate's text, past :data:`ORACLE_GATE`
    multiply-adds, counted as 4^n |W|, a bound on its class product's
    4^n |classes|: it never reads the table of representatives.
    Over the table gate (:func:`~bicox.complexes.check_table_gate`) the
    complex is a SKIP line with that gate's text, which ends the report.
    """
    n = table.rank
    results = []

    def record(name, ok, detail=""):
        results.append((name, "PASS" if ok else "FAIL", detail))
        return results[-1][1]

    def check(name, run, detail=""):
        try:
            ok = run()
        except InternalCheckError as err:
            ok, detail = False, str(err)
        return record(name, ok, detail)

    f = flag_f(table)
    h = flag_h(table)
    subset_pairs, cells = f"all {4 ** n} subset pairs", f"all {(n + 1) ** 2} cells"
    record("inclusion-exclusion", flag_h_from_f(f, n) == h, subset_pairs)
    record("reciprocity", reciprocity_holds(f, h, n), subset_pairs)
    census = two_sided_eulerian(table)
    record("eulerian-from-flag", eulerian_from_flag(f, n) == census, cells)
    record("eulerian-symmetries", eulerian_symmetric(census), cells)
    try:
        gamma = gamma_expansion(census)
        record("gamma-reconstruction", True, f"{len(gamma.entries)} unknowns, {cells}")
        negatives = gamma.negative_entries()
        if negatives:
            results.append(("gamma-nonnegative", "FLAG", f"negative entries {negatives}"))
        else:
            record("gamma-nonnegative", True, f"all {len(gamma.entries)} coefficients")
    except BicoxError as err:
        record("gamma-reconstruction", False, str(err))

    cost = 4**n * table.order  # at least the class product's 4^n |classes|
    try:
        check_budget(table.system.canonical_name, cost, ORACLE_GATE, "oracle multiply-adds")
    except CapacityError as err:
        results.append(("double-quotient-oracle", "SKIP", str(err)))
    else:
        check("double-quotient-oracle", lambda: verify_double_quotients(table, f), subset_pairs)
    try:
        check_table_gate(table)
    except CapacityError as err:
        return results + [("complex", "SKIP", str(err))]

    try:
        cx = TwoSidedComplex.build(table)
    except InternalCheckError as err:
        record("complex", False, str(err))
        return results
    every_face = f"all {len(cx.faces)} faces"
    every_facet = f"all {table.order} facets"
    boolean = check("boolean-intervals", lambda: verify_boolean(cx), every_face)
    check("balanced-coloring", lambda: verify_balanced(cx), every_face)
    check("interval-partition", lambda: verify_partition(cx), every_face)
    # weak order is boolean and the wall rows (see verify_weak_order_monotone)
    record("weak-order-monotone", boolean == "PASS" and verify_wall_rows(cx), every_face)
    check("facet-count", lambda: verify_facet_count(cx), every_facet)
    pairs = f"all {len(sigma_ideal(cx))}^2 ideal pairs"
    check("sigma-embedding", lambda: verify_sigma_embedding(cx), pairs)
    manifold = check("pseudomanifold", lambda: verify_pseudomanifold(cx), every_facet)
    # thin is boolean and pseudomanifold (see verify_thin), listed before the latter
    results.insert(-1, ("thin", "PASS" if boolean == manifold == "PASS" else "FAIL", every_face))
    check("euler-characteristic", lambda: euler_characteristic(cx) == 0, every_face)
    report = verify_shelling(cx, length_order(table))
    if report.ok:
        record("shelling", True, every_facet)
    else:
        impure = report.first_impure or "none"
        where = f"first mismatch at facet {report.first_mismatch}, first impure at facet {impure}"
        record("shelling", False, where)
    if table.system.is_irreducible("A") and n <= 3:
        # each face of rank r covers r faces
        edges = f"{every_face}, {int(cx.ranks(cx.faces).sum())} cover edges"
        check("contingency-isomorphism", lambda: verify_refinement_isomorphism(cx), edges)
    return results


def cmd_verify(args) -> int:
    system = classify(parse_type_spec(args.type))  # refused before the table is read or built
    check_capacity(args, system.canonical_name, system.order)
    check_budget(system.canonical_name, 4**system.rank, args.budget, "subset pairs")
    table, _, _ = get_table(args, system)
    results = run_verification(table)
    if args.format == "json":
        emit(
            args,
            json.dumps(
                {
                    "type": table.system.canonical_name,
                    "order": table.order,
                    "checks": [
                        {"name": name, "status": status, "detail": detail}
                        for name, status, detail in results
                    ],
                },
                indent=2,
            ),
        )
    else:
        lines = [f"{table.system.canonical_name}: order {table.order}"]
        for name, status, detail in results:
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"{status:4} {name}{suffix}")
        emit(args, "\n".join(lines))
    failed = any(status == "FAIL" for _, status, _ in results)
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# tables


def _matrix_text(matrix) -> str:
    width = max(len(str(x)) for row in matrix for x in row)
    return "\n".join(" ".join(f"{x:>{width}}" for x in row) for row in matrix)


def _matrix_csv(matrix, corner: str) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([corner] + list(range(len(matrix[0]))))
    for i, row in enumerate(matrix):
        writer.writerow([i] + list(row))
    return out.getvalue().rstrip("\n")


def cmd_tables(args) -> int:
    group = get_factorization(args)
    census = two_sided_eulerian(group)
    gamma = gamma_expansion(census)
    grid = gamma.as_grid()
    if args.format == "json":
        payload = {
            "type": group.system.canonical_name,
            "order": group.order,
            "eulerian": census,
            "gamma": {
                "entries": sorted(
                    [a, b, v] for (a, b), v in gamma.entries.items() if v
                ),
                "grid": grid,
            },
        }
        emit(args, json.dumps(payload, indent=2))
    elif args.format == "csv":
        emit(
            args,
            _matrix_csv(census, "descents")
            + "\n\n"
            + _matrix_csv(grid, "a+b\\a"),
        )
    else:
        emit(
            args,
            f"{group.system.canonical_name}: order {group.order}\n"
            "two-sided Eulerian matrix:\n"
            + _matrix_text(census)
            + "\ngamma table (row a+b, column a):\n"
            + _matrix_text(grid),
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    """Every export keeps the faces of rank --min-rank to --max-rank, a
    range refused when negative or inverted; only the contingency tables
    have a json form."""
    if args.format == "json" and args.what != "contingency":
        raise ValueError(f"--what {args.what} is exported as DOT only, not json")
    if args.min_rank < 0:
        raise ValueError(f"--min-rank must be nonnegative, got {args.min_rank}")
    if args.max_rank is not None and args.max_rank < args.min_rank:
        raise ValueError(f"--max-rank {args.max_rank} is below --min-rank {args.min_rank}")
    table, _, _ = get_table(args, classify(parse_type_spec(args.type)))
    if args.what == "contingency":
        model = SymmetricGroupFaces(table)  # ValueError unless type A, before any complex
    check_budget(table.system.canonical_name, face_count(table), FACE_BUDGET, "faces")
    cx = TwoSidedComplex.build(table)
    ranks = {"min_rank": args.min_rank, "max_rank": args.max_rank}
    if args.what == "hasse":
        emit(args, hasse_dot(cx, **ranks))
    elif args.what == "sigma":
        emit(args, hasse_dot(cx, faces=sigma_ideal(cx), **ranks))
    elif args.format == "dot":
        def labels(packed):
            return [json.dumps(t, separators=(",", ":")) for t in model.drawn(packed)]

        emit(args, hasse_dot(cx, label=labels, name="tables", **ranks))
    else:
        packed = rank_sorted(cx, cx.faces, args.min_rank, args.max_rank)
        entries = [
            {"face": text, "table": drawn}
            for text, drawn in zip(face_labels(cx, packed), model.drawn(packed))
        ]
        emit(args, json.dumps(entries, indent=2))
    return EXIT_OK


def cmd_build(args) -> int:
    table, path, hit = get_table(args, classify(parse_type_spec(args.type)))
    status = "cached" if hit else "built"
    print(
        f"{status} {table.system.canonical_name}: order {table.order}, "
        f"max length {int(table.length.max())}, cache {path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every caller, who
    must not change it: each parse fills a fresh namespace, so one call's
    options never reach the next."""
    parser = argparse.ArgumentParser(
        prog="bicox",
        description="Finite Coxeter groups and their two-sided Coxeter complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, help='type spec, e.g. "A3", "B4xA1", "I2(7)"')
        p.add_argument("--cache-dir", default=None, help="cache directory (or $BICOX_CACHE_DIR)")
        p.add_argument(
            "--budget", type=positive_int, default=DEFAULT_BUDGET, help="element budget"
        )
        p.add_argument("--allow-heavy", action="store_true", help="permit very large groups")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p_build = sub.add_parser("build", help="enumerate a group and cache its table")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_tables = sub.add_parser("tables", help="emit Eulerian and gamma tables")
    common(p_tables)
    p_tables.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_tables.set_defaults(func=cmd_tables)

    p_export = sub.add_parser("export", help="export Hasse diagrams or contingency tables")
    common(p_export)
    p_export.add_argument("--what", choices=["hasse", "sigma", "contingency"], required=True)
    p_export.add_argument("--format", choices=["dot", "json"], default="dot")
    p_export.add_argument("--min-rank", type=int, default=0)
    p_export.add_argument("--max-rank", type=int, default=None)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.cache_dir is None:
        args.cache_dir = default_cache_dir()
    try:
        return args.func(args)
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except (NotFiniteError, CacheError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BicoxError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
