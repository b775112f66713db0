"""One workload in one process: set up, run timed passes, judge the outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and one BLAS/OpenMP thread.  Writes a JSON result file and exits 0
whenever the workload ran (failed jobs are counted in the result, not
raised); exits non-zero when set-up itself fails or ``bicox`` is not the
checkout's own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE --spawned-at T [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

with open(HERE / "workloads.json") as fh:
    WORKLOADS = json.load(fh)["workloads"]


class SpeedSampler:
    """Measures how fast the interpreter runs while a workload runs.

    The machine this benchmark was built on is shared: identical passes took
    from 5.1 to 9.6 s within eight minutes, with CPU time growing as much as
    wall time, so neither clock alone is steady.  Every ``INTERVAL_S`` of wall
    time a SIGALRM handler times a fixed pure-Python loop; ``REF_S`` over its
    time is the speed at that moment (1.0 at the loop's best on that box).
    A time multiplied by the mean speed over the interval it covers is its
    length at full speed: the "reference seconds" the benchmark reports.

    The handler's own time (about 2% of a pass) is counted in ``busy_s`` so
    that callers can subtract it.  It keeps running sums rather than a list:
    a list growing through the C allocator at random moments pinned freed
    heap memory and raised ``tables_cold``'s peak RSS by 35 MB.
    """

    INTERVAL_S = 0.05
    LOOPS = 20_000
    REF_S = 0.0007  # fastest run of the loop on a 2-core x86-64 VM, Python 3.11

    def __init__(self):
        self.count = 0
        self.speed_sum = 0.0
        self.busy_s = 0.0

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(self.LOOPS):
            total += i & 7
        took = time.perf_counter() - start
        self.count += 1
        self.speed_sum += self.REF_S / took
        self.busy_s += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return self.count, self.speed_sum, self.busy_s

    def since(self, mark) -> tuple[float | None, float]:
        """Mean speed since ``mark`` (None without a sample) and handler seconds."""
        count, speed_sum, busy_s = mark
        n = self.count - count
        return ((self.speed_sum - speed_sum) / n if n else None), self.busy_s - busy_s


def content_digest(content) -> str:
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()[:16]


def _gamma_entries(entries) -> list:
    return sorted([a, b, v] for (a, b), v in entries.items() if v)


def call_cli(argv) -> tuple[int, str, str]:
    """In-process ``bicox`` command: exit code, stdout and stderr."""
    from bicox import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Jobs.  Each returns the job's mathematical content; formatting is dropped.


def job_tables(spec: str, cache_dir: Path) -> dict:
    code, out, err = call_cli(
        ["tables", "--type", spec, "--format", "json", "--cache-dir", str(cache_dir)])
    if code != 0:
        return {"exit": code, "stderr": err[-500:]}
    payload = json.loads(out)
    return {"exit": code, "eulerian": payload["eulerian"],
            "gamma": sorted(payload["gamma"]["entries"])}


def job_verify(spec: str, cache_dir: Path) -> dict:
    code, out, err = call_cli(
        ["verify", "--type", spec, "--format", "json", "--cache-dir", str(cache_dir)])
    try:
        checks = [[c["name"], c["status"]] for c in json.loads(out)["checks"]]
    except (ValueError, KeyError, TypeError):
        return {"exit": code, "stderr": err[-500:]}
    return {"exit": code, "checks": checks}


def job_census(table_path: Path) -> dict:
    from bicox import cache, enumeration as en

    table = cache.load_table(table_path)
    n = table.rank
    f = en.flag_f(table)
    h = en.flag_h(table)
    inclusion_exclusion = en.flag_h_from_f(f, n) == h
    reciprocity = en.reciprocity_holds(f, h, n)
    census = en.two_sided_eulerian(table)
    from_flag = en.eulerian_from_flag(f, n) == census
    symmetric = en.eulerian_symmetric(census)
    gamma = en.gamma_expansion(census)
    return {
        "exit": 0,
        "eulerian": census,
        "gamma": _gamma_entries(gamma.entries),
        "identities": {
            "inclusion-exclusion": inclusion_exclusion,
            "reciprocity": reciprocity,
            "eulerian-from-flag": from_flag,
            "eulerian-symmetries": symmetric,
        },
    }


# ---------------------------------------------------------------------------
# The output oracle


def judge(got: dict, expected: dict) -> list[str]:
    """Why ``got`` is wrong against the content recorded at the seed commit.

    Empty when it is right.  Only mathematical content is compared: the exit
    code, the Eulerian matrix, the gamma entries, the library identities and
    the verify check statuses.  A FAIL anywhere, a recorded check that is
    missing, and a check that passed at the seed but now SKIPs or FLAGs are
    all wrong; SKIP -> PASS is allowed.
    """
    problems = []
    if got.get("exit") != 0:
        problems.append(f"exit code {got.get('exit')}: {got.get('stderr', '')!r}")
        return problems
    for key in ("eulerian", "gamma", "identities"):
        if key in expected and got.get(key) != expected[key]:
            problems.append(f"{key} differs from the recorded content")
    if "checks" in expected:
        status = dict(map(tuple, got.get("checks", [])))
        for name, now in status.items():
            if now == "FAIL":
                problems.append(f"check {name} FAIL")
        for name, then in expected["checks"]:
            now = status.get(name)
            if now is None:
                problems.append(f"check {name} missing (was {then})")
            elif then == "PASS" and now != "PASS" and now != "FAIL":
                problems.append(f"check {name} {then} -> {now}")
    return problems


# ---------------------------------------------------------------------------
# Set-up and passes


class Workload:
    """A workload's job list and the state its set-up leaves behind."""

    def __init__(self, name: str, work: Path):
        self.kind = WORKLOADS[name]["kind"]
        self.specs = [job["type"] for job in WORKLOADS[name]["jobs"]]
        self.work = work
        self.warm_cache = work / "cache"
        self.paths: dict[str, Path] = {}

    def setup(self) -> None:
        """Import the library and, for warm workloads, build the cache."""
        import numpy  # noqa: F401  (set-up covers every import a pass needs)
        import bicox
        from bicox import cache, cli, coxeter  # noqa: F401

        source = Path(bicox.__file__).resolve()
        if ROOT / "src" not in source.parents:
            raise SystemExit(f"bicox imported from {source}, not from this checkout")
        if self.kind == "tables":
            return
        for spec in self.specs:
            code, _, err = call_cli(["build", "--type", spec, "--cache-dir", str(self.warm_cache)])
            if code != 0:
                raise SystemExit(f"set-up build of {spec} failed ({code}): {err}")
            name = coxeter.classify(coxeter.parse_type_spec(spec)).canonical_name
            self.paths[spec] = cache.cache_path(self.warm_cache, name)

    def run_pass(self, order: list[str], index: int, sampler: SpeedSampler,
                 tracer=None) -> tuple[dict, dict]:
        """Run every job once in ``order``.

        Returns each job's content, and its wall seconds, CPU seconds (both
        without the sampler's share) and mean speed.
        """
        cold = self.work / f"pass-{index}"
        contents, times = {}, {}
        for spec in order:
            mark = sampler.mark()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.job = spec
            try:
                if self.kind == "tables":
                    contents[spec] = job_tables(spec, cold)
                elif self.kind == "verify":
                    contents[spec] = job_verify(spec, self.warm_cache)
                else:
                    contents[spec] = job_census(self.paths[spec])
            except Exception:  # a job that raises is a failed job, not a failed run
                contents[spec] = {"exit": None, "stderr": traceback.format_exc()[-2000:]}
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            speed, busy = sampler.since(mark)
            if speed is None:  # a job shorter than the sampling interval
                mark = sampler.mark()
                sampler.sample()
                speed, _ = sampler.since(mark)
            times[spec] = (wall - busy, cpu - busy, speed)
        shutil.rmtree(cold, ignore_errors=True)
        return contents, times


def provenance(seed: int) -> dict:
    import numpy

    def git_commit():
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if not ref.startswith("ref: "):
                return ref
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        except OSError:
            pass
        return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bicox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": " ".join(platform.uname()[i] for i in (0, 2, 4)),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler: SpeedSampler) -> int:
    workload = Workload(args.workload, args.work)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at - sampler.busy_s
    for _ in range(5):  # a short set-up may see no timer sample at all
        sampler.sample()
    setup_speed, _ = sampler.since((0, 0.0, 0.0))
    setup = {"setup_s": setup_s, "ref_setup_s": setup_s * setup_speed}
    if args.setup_only:
        args.result.write_text(json.dumps(setup))
        return 0

    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)["jobs"][args.workload]
    tracer = Tracer(lambda: time.perf_counter() - sampler.busy_s) if args.trace else None

    rng = random.Random(args.seed)
    passes, first, failures = [], {}, {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        index = len(passes)
        # In a traced run, passes alternate traced / untraced, so the same
        # process gives both the per-layer split and the tracing overhead.
        traced = tracer is not None and index % 2 == 0
        order = rng.sample(workload.specs, len(workload.specs))
        gc.collect()
        if traced:
            tracer.pass_index = index
            tracer.install()
        try:
            contents, times = workload.run_pass(order, index, sampler, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        for spec in order:
            got = contents[spec]
            problems = judge(got, expected[spec])
            first.setdefault(spec, got)
            if got != first[spec]:
                problems.append(f"content differs from pass 0 (traced={traced})")
            attempted += 1
            if problems:
                failed += 1
                failures.setdefault(spec, []).append({"pass": index, "problems": problems})
        passes.append({
            "index": index, "traced": traced, "order": order,
            "wall_s": sum(wall for wall, _, _ in times.values()),
            "cpu_s": sum(cpu for _, cpu, _ in times.values()),
            "ref_wall_s": sum(wall * speed for wall, _, speed in times.values()),
            "ref_cpu_s": sum(cpu * speed for _, cpu, speed in times.values()),
            "jobs": {spec: dict(zip(("wall_s", "cpu_s", "speed"), times[spec]))
                     for spec in workload.specs},
            "digests": {spec: content_digest(contents[spec]) for spec in workload.specs},
        })
        # Stop at the pass boundary nearest to --seconds, so that a run
        # measures about that long whatever the pass length.  Two passes at
        # least: a traced run needs one of each kind, and peak memory grows
        # from the first pass to the second.
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + passes[-1]["wall_s"] / 2 >= args.seconds:
            break

    result = {
        "workload": args.workload,
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pass_count": len(passes),
        "passes": passes,
        "provenance": provenance(args.seed),
    }
    if tracer is not None:
        spans_path = args.result.with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = spans_path.name
        result["layers"] = tracer.metrics(
            {p["index"]: (p["ref_wall_s"], p["ref_wall_s"] / p["wall_s"])
             for p in passes if p["traced"]},
            [p["ref_wall_s"] for p in passes if not p["traced"]],
            WORKLOADS[args.workload]["dominant"],
        )
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
