"""The bicox benchmark: time to a correct answer for three workloads.

    python3 perfbench/run.py --workload tables_cold|verify_warm|census_warm|all \
        --seed N --seconds S --trace 0|1

Each workload runs in its own child process (``worker.py``) with one BLAS
thread; the parent only starts it, waits and reports.  Times are scaled to a
reference interpreter speed measured between the jobs (see ``worker.py``);
the raw medians are printed beside them and kept in the result file.  Set-up is repeated in
``SETUPS`` fresh processes (the last one goes on to the timed passes) and
reported as their median.  The child repeats the workload's job list in
passes, in an order drawn from the seed, stops at the pass boundary nearest
to ``--seconds``, and judges every job against the content recorded in ``expected.json``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
``spans.py`` instead.  The full result, with provenance and per-pass
samples, is written under ``perfbench/out/``.  The exit code is 0 when the
workload ran (its failures are counted in the JSON), and non-zero when it
could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
DEADLINE_S = 170  # every run must end within 180 s

with open(HERE / "workloads.json") as fh:
    WORKLOADS = list(json.load(fh)["workloads"])

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_ratio", "ratio"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, work: Path, result: Path, setup_only: bool, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", str(result),
        "--spawned-at", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{args.workload}: worker did not finish within {DEADLINE_S} s")
    if code != 0:
        raise SystemExit(f"{args.workload}: worker exited with code {code}")
    return json.loads(result.read_text())


def run_workload(args, deadline: float) -> tuple[dict, dict]:
    """One workload: the summary JSON object and the full result record."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}-{args.workload}"
    try:
        setups = [spawn(args, work / f"setup-{i}", OUT / f"{stem}.setup{i}.json", True, deadline)
                  for i in range(SETUPS - 1)]
        record = spawn(args, work / "run", OUT / f"{stem}.json", False, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for i in range(SETUPS - 1):
            (OUT / f"{stem}.setup{i}.json").unlink(missing_ok=True)
    setups.append({key: record[key] for key in ("setup_s", "ref_setup_s")})
    timed = [p for p in record["passes"] if not p["traced"]]
    attempted, failed = record["attempted"], record["failed"]
    record["setup_samples"] = setups

    def metric(samples, key):
        """Median in reference seconds, with the raw median beside it."""
        return {"value": statistics.median(x["ref_" + key] for x in samples), "unit": "s",
                "samples": len(samples), "raw_median": statistics.median(x[key] for x in samples)}

    record["end_to_end"] = {
        "setup_s": metric(setups, "setup_s"),
        "wall_s": metric(timed, "wall_s"),
        "cpu_s": metric(timed, "cpu_s"),
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB", "samples": 1},
        "correct_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio",
                          "samples": attempted},
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "samples": attempted},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in layer_rows(record["layers"])}
    else:
        metrics = {name: {"value": record["end_to_end"][name]["value"], "unit": unit}
                   for name, unit in END_TO_END}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    return summary, record


def layer_rows(layers: dict):
    for spec in per_layer_spec():
        yield spec["name"], layers[spec["name"]], spec["unit"]


def print_report(args, record: dict) -> None:
    passes = record["passes"]
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"{record['attempted']} jobs, trace {args.trace}")
    for name, metric in record["end_to_end"].items():
        if args.trace and name in ("wall_s", "cpu_s"):
            continue  # traced passes are not timed for the end-to-end metrics
        raw = f", raw {metric['raw_median']:.4f}" if "raw_median" in metric else ""
        print(f"  {name:14} {metric['value']:12.4f} {metric['unit']:6} "
              f"(n={metric['samples']}{raw})")
    if args.trace:
        for name, value, unit in layer_rows(record["layers"]):
            if value:
                print(f"  {name:48} {value:14.6g} {unit}")
    for spec, fails in record["failures"].items():
        print(f"  FAILED {spec}: {fails[0]['problems']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bicox" / "__init__.py").is_file():
        print(f"error: no bicox source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (HERE / "expected.json").is_file():
        print("error: perfbench/expected.json is missing; see record.py", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    start = time.monotonic()
    summaries = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        deadline = start + DEADLINE_S * (names.index(name) + 1)
        summaries[name], record = run_workload(one, deadline)
        print_report(one, record)
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{key}": value for name, s in summaries.items()
                        for key, value in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
