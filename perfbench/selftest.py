"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the output oracle catches what it must (a wrong Eulerian
entry, a FAIL, a PASS -> SKIP change, a non-zero exit, a failed identity)
and lets through what it must (SKIP -> PASS, added JSON fields); that a
wrong answer injected into a real job is counted; that two seeds and a
traced run give identical outputs; that the metric names agree with
``BENCHMARK.json``; and that the benchmark refuses to run without the
``bicox`` source.  Takes about three and a half minutes on two cores.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import record  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())["jobs"]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def ok(content: dict) -> dict:
    return {"exit": 0, **copy.deepcopy(content)}


def test_oracle_rules() -> None:
    tables = EXPECTED["tables_cold"]["E6"]
    check(worker.judge(ok(tables), tables) == [], "recorded E6 content is judged wrong")
    wrong = ok(tables)
    wrong["eulerian"][2][3] += 1
    check(worker.judge(wrong, tables), "a wrong Eulerian entry passes")
    wrong = ok(tables)
    wrong["gamma"][1][2] -= 1
    check(worker.judge(wrong, tables), "a wrong gamma entry passes")
    extra = ok(tables)
    extra["generated_by"] = "a newer bicox"
    check(worker.judge(extra, tables) == [], "an added field counts as a failure")
    check(worker.judge({"exit": 2, "stderr": "boom"}, tables), "a non-zero exit passes")

    verify = EXPECTED["verify_warm"]["A4"]
    names = [name for name, _ in verify["checks"]]
    check(dict(verify["checks"])["shelling"] == "SKIP", "A4 shelling was expected to SKIP")
    check(worker.judge(ok(verify), verify) == [], "recorded A4 content is judged wrong")
    failed = ok(verify)
    failed["checks"][names.index("thin")][1] = "FAIL"
    check(worker.judge(failed, verify), "a FAIL status passes")
    skipped = ok(verify)
    skipped["checks"][names.index("boolean-intervals")][1] = "SKIP"
    check(worker.judge(skipped, verify), "a PASS -> SKIP change passes")
    missing = ok(verify)
    del missing["checks"][names.index("thin")]
    check(worker.judge(missing, verify), "a missing check passes")
    upgraded = ok(verify)
    upgraded["checks"][names.index("shelling")][1] = "PASS"
    upgraded["checks"].append(["new-check", "PASS"])
    check(worker.judge(upgraded, verify) == [], "SKIP -> PASS or a new check counts as a failure")
    new_fail = ok(verify)
    new_fail["checks"].append(["new-check", "FAIL"])
    check(worker.judge(new_fail, verify), "a FAIL in a new check passes")

    census = EXPECTED["census_warm"]["A7"]
    broken = ok(census)
    broken["identities"]["reciprocity"] = False
    check(worker.judge(broken, census), "a failed identity passes")


def test_injected_wrong_table() -> None:
    """A real tables job given a wrong Eulerian matrix is counted as failed.

    One wrong entry makes the gamma expansion fail, so the command exits 1;
    a doubled matrix still expands, so only the content comparison sees it.
    """
    from bicox import cli

    original = cli.two_sided_eulerian

    def one_off(table):
        matrix = original(table)
        matrix[1][1] += 1
        return matrix

    def doubled(table):
        return [[2 * x for x in row] for row in original(table)]

    work = HERE / "out" / "selftest-inject"
    for corrupt, expect in ((one_off, "exit code 1"), (doubled, "eulerian differs")):
        shutil.rmtree(work, ignore_errors=True)
        cli.two_sided_eulerian = corrupt
        try:
            got = worker.job_tables("H4", work)
        finally:
            cli.two_sided_eulerian = original
            shutil.rmtree(work, ignore_errors=True)
        problems = worker.judge(got, EXPECTED["tables_cold"]["H4"])
        check(any(expect in p for p in problems),
              f"{corrupt.__name__}: expected {expect!r}, got {problems}")


def test_names_match_benchmark_json() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
          "end_to_end metrics differ from run.py")
    check([{k: m[k] for k in ("name", "unit", "better")} for m in bench["per_layer"]]
          == spans.per_layer_spec(), "per_layer metrics differ from spans.py")
    check([w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS),
          "workloads differ from workloads.json")
    for name, info in worker.WORKLOADS.items():
        check([j["type"] for j in info["jobs"]] == list(EXPECTED[name]),
              f"{name}: jobs differ from expected.json")
        check(all(d in spans.TARGETS for d in info["dominant"]), f"{name}: unknown dominant layer")


def test_cross_checked_tables() -> None:
    known = record.known_tables()
    recorded = json.loads((HERE / "expected.json").read_text())["cross_checked"]
    check(sorted(recorded) == sorted(record.CROSS_CHECKED), "cross-checked groups changed")
    for spec, matrix in recorded.items():
        check(matrix == known[spec], f"{spec}: recorded Eulerian matrix is not the known one")
    for name in ("tables_cold", "census_warm"):
        for spec, content in EXPECTED[name].items():
            if spec in known:
                check(content["eulerian"] == known[spec], f"{spec}: recorded table is wrong")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    check(proc.returncode == 0, f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    check(summary["correct"] and summary["failed"] == 0, f"{workload} seed {seed}: {summary}")
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def test_seeds_and_tracing_agree() -> None:
    for workload in worker.WORKLOADS:
        digests = []
        for seed, trace in ((1, 0), (2, 0), (3, 1)):
            result = bench(workload, seed, trace)
            for p in result["passes"]:
                digests.append(p["digests"])
            if trace:
                check(any(p["traced"] for p in result["passes"])
                      and any(not p["traced"] for p in result["passes"]),
                      f"{workload}: a traced run needs traced and untraced passes")
        check(all(d == digests[0] for d in digests), f"{workload}: outputs differ between runs")


def test_refuses_without_source() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "tables_cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "the benchmark ran without the bicox source")
    check(not proc.stdout.strip(), f"it printed a result anyway: {proc.stdout!r}")


def main() -> int:
    tests = [test_oracle_rules, test_injected_wrong_table, test_names_match_benchmark_json,
             test_cross_checked_tables, test_refuses_without_source, test_seeds_and_tracing_agree]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
