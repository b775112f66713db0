"""Record the output oracle ``expected.json`` from the current source.

    PYTHONPATH=src python3 perfbench/record.py

Runs every job of every workload once and stores its mathematical content:
the Eulerian matrix and gamma entries for ``tables_cold`` and
``census_warm`` (plus the library identities of the latter), and each
check's name and status for ``verify_warm``.  Before writing, it checks
the rank, order and face count that ``workloads.json`` states for each
group, and compares every Eulerian matrix it can against the known tables
in ``tests/expected_tables.py``, including those of the ``verify_warm``
groups, which are computed here for that purpose only.

The file was recorded at the seed commit and is the reference every later
commit is judged against; record it again only when the mathematical
content is meant to change.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys

import worker

CROSS_CHECKED = ["A3", "A4", "F4", "D6", "E6"]


def known_tables() -> dict:
    path = worker.ROOT / "tests" / "expected_tables.py"
    spec = importlib.util.spec_from_file_location("expected_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EULERIAN


def main() -> int:
    from bicox.complexes import face_count
    from bicox.coxeter import build_group, classify_spec
    from bicox.enumeration import two_sided_eulerian

    known = known_tables()
    work = worker.HERE / "out" / "record-work"
    shutil.rmtree(work, ignore_errors=True)
    jobs, eulerian = {}, {}
    try:
        for name, info in worker.WORKLOADS.items():
            for job in info["jobs"]:
                table = build_group(classify_spec(job["type"]))
                facts = {"rank": table.rank, "order": table.order,
                         "faces": face_count(table)}
                stated = {key: job[key] for key in facts}
                if stated != facts:
                    raise SystemExit(f"workloads.json says {job['type']} has {stated}, "
                                     f"the library gives {facts}")
                eulerian[job["type"]] = two_sided_eulerian(table)
            workload = worker.Workload(name, work / name)
            workload.setup()
            sampler = worker.SpeedSampler()
            contents, _ = workload.run_pass(workload.specs, 0, sampler)
            for spec, got in contents.items():
                if got.get("exit") != 0:
                    raise SystemExit(f"{name} {spec} did not succeed: {got}")
                if "identities" in got and not all(got["identities"].values()):
                    raise SystemExit(f"{name} {spec}: an identity failed: {got}")
                if any(status == "FAIL" for _, status in got.get("checks", [])):
                    raise SystemExit(f"{name} {spec}: a check failed: {got}")
                if "eulerian" in got and got["eulerian"] != eulerian[spec]:
                    raise SystemExit(f"{name} {spec}: output disagrees with the library")
                got.pop("exit")
            jobs[name] = contents
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for spec in CROSS_CHECKED:
        if eulerian[spec] != known[spec]:
            raise SystemExit(f"{spec}: Eulerian matrix disagrees with tests/expected_tables.py")
    out = {
        "provenance": worker.provenance(0),
        "cross_checked": {spec: eulerian[spec] for spec in CROSS_CHECKED},
        "jobs": jobs,
    }
    (worker.HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {worker.HERE / 'expected.json'}; cross-checked {', '.join(CROSS_CHECKED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
