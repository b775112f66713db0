"""Per-module timing of ``bicox`` from outside, by wrapping public functions.

A :class:`Tracer` replaces each function named in :data:`TARGETS` with a
wrapper that records a span (name, start, end, parent span, pass, job and a
few counters) in memory.  The wrapper is installed everywhere the function
is looked up: in its defining module and in every ``bicox`` module that
imported it by name (``bicox.cli`` imports most of them), so calls made by
the CLI, by the library and by the benchmark's own jobs are all seen.  No
``bicox`` source is changed, and :meth:`Tracer.uninstall` restores the
originals, so traced and untraced passes can alternate in one process.

Self times are derived afterwards from the span list: a span's duration
minus the durations of its direct children (the process is single-threaded,
so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter


def _faces_attrs(args, kwargs, result):
    """Faces handed to a complex check: the sample when one is passed."""
    faces = kwargs.get("faces")
    if faces is None:
        return {"faces": len(args[0].faces)}
    return {"faces": len(faces), "draws": len(faces), "distinct": len(set(faces))}


# Layer-qualified name -> (module, attribute, counters derived from a call).
TARGETS = {
    "coxeter.build_group": (
        "bicox.coxeter", "build_group", lambda a, k, r: {"elements": r.order}),
    "coxeter.classify": ("bicox.coxeter", "classify", None),
    "cache.save_table": (
        "bicox.cache", "save_table", lambda a, k, r: {"bytes": Path(r).stat().st_size}),
    "cache.load_table": (
        "bicox.cache", "load_table",
        lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}),
    "cli.main": ("bicox.cli", "main", None),
    "cli.get_table": ("bicox.cli", "get_table", lambda a, k, r: {"hit": bool(r[2])}),
    "enumeration.flag_f": ("bicox.enumeration", "flag_f", None),
    "enumeration.flag_h": ("bicox.enumeration", "flag_h", None),
    "enumeration.flag_h_from_f": ("bicox.enumeration", "flag_h_from_f", None),
    "enumeration.reciprocity_holds": (
        "bicox.enumeration", "reciprocity_holds",
        lambda a, k, r: {"pairs": 9 ** k.get("n", a[-1])}),
    "enumeration.two_sided_eulerian": ("bicox.enumeration", "two_sided_eulerian", None),
    "enumeration.eulerian_from_flag": ("bicox.enumeration", "eulerian_from_flag", None),
    "enumeration.eulerian_symmetric": ("bicox.enumeration", "eulerian_symmetric", None),
    "enumeration.gamma_expansion": ("bicox.enumeration", "gamma_expansion", None),
    "cosets.double_quotient_size": (
        "bicox.cosets", "double_quotient_size",
        lambda a, k, r: {"elements_swept": a[0].order}),
    "complexes.build": (
        "bicox.complexes", "TwoSidedComplex.build",
        lambda a, k, r: {"faces": len(r.faces)}),
    **{
        f"complexes.{name}": ("bicox.complexes", name, _faces_attrs)
        for name in (
            "verify_boolean",
            "verify_balanced",
            "verify_partition",
            "verify_weak_order_monotone",
            "verify_facet_count",
            "verify_sigma_embedding",
            "verify_thin",
            "verify_pseudomanifold",
            "euler_characteristic",
            "verify_shelling",
        )
    },
    "contingency.verify_refinement_isomorphism": (
        "bicox.contingency", "verify_refinement_isomorphism", None),
}

COMPLEX_CHECKS = [name for name, (_, _, attrs) in TARGETS.items() if attrs is _faces_attrs]

# Derived per-layer metrics beyond <target>.s/.calls/.errors: name -> (unit, better).
DERIVED = {
    "coxeter.build_group.elements": ("count", "higher"),
    "coxeter.build_group.elements_per_s": ("1/s", "higher"),
    "cache.save_table.bytes": ("B", "lower"),
    "cache.load_table.bytes": ("B", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "enumeration.reciprocity_holds.pairs": ("count", "lower"),
    "cosets.double_quotient_size.elements_swept": ("count", "lower"),
    "complexes.build.faces": ("count", "higher"),
    "complexes.faces_checked": ("count", "higher"),
    "complexes.sample_distinct_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.dominant_self_share": ("ratio", "lower"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for target in TARGETS:
        out.append({"name": f"{target}.s", "unit": "s", "better": "lower"})
        out.append({"name": f"{target}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{target}.errors", "unit": "count", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics.

    ``clock`` times the spans; the benchmark passes one that leaves out the
    speed sampler's own time, as its job times do.
    """

    def __init__(self, clock=perf_counter):
        # Each span: [name, start, end, parent index or None, pass, job, counters].
        self.spans: list[list] = []
        self.clock = clock
        self.pass_index: int | None = None
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.pass_index, self.job, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = clock()
                span[6]["error"] = type(err).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if attrs is not None:
                span[6].update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "bicox" or key.startswith("bicox.")]
        for name, (module_name, attr, attrs) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self._wrap(name, original.__func__, attrs))
                self._patches.append((cls, method, original))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, pass_index, job, attrs) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "pass": pass_index, "job": job, **attrs,
                }) + "\n")

    def metrics(self, traced: dict[int, tuple[float, float]], untraced_walls: list[float],
                dominant: list[str]) -> dict[str, float]:
        """Per-layer metrics: the median over traced passes of per-pass sums.

        ``traced`` maps each traced pass to its wall time in reference
        seconds and the factor that converts raw seconds to them;
        ``untraced_walls`` are the reference wall times of untraced passes;
        ``dominant`` names the targets whose self time should make up most
        of a pass on this workload.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_pass = {p: {} for p in traced}

        def add(p, key, value):
            per_pass[p][key] = per_pass[p].get(key, 0.0) + value

        for i, (name, start, end, parent, p, job, attrs) in enumerate(self.spans):
            if p not in per_pass:
                continue
            scale = traced[p][1]
            add(p, f"{name}.s", (end - start - child_time[i]) * scale)
            add(p, f"{name}.calls", 1)
            add(p, f"{name}.errors", 1 if "error" in attrs else 0)
            add(p, f"{name}.total_s", (end - start) * scale)
            for key, value in attrs.items():
                if key != "error":
                    add(p, f"{name}.{key}", value)
            if name == "cache.load_table" and (
                parent is None or self.spans[parent][0] != "cli.get_table"
            ):
                add(p, "lookups", 1)  # a library caller reading the cache: a hit
                add(p, "hits", 1)
            elif name == "cli.get_table" and "hit" in attrs:
                add(p, "lookups", 1)
            if name in COMPLEX_CHECKS:
                add(p, "complexes.faces_checked", attrs["faces"])
                add(p, "draws", attrs.get("draws", 0))
                add(p, "distinct", attrs.get("distinct", 0))

        def ratio(num, den):
            return num / den if den else 0.0

        walls = {p: wall for p, (wall, _) in traced.items()}
        rows = []
        for p, sums in per_pass.items():
            # Counters summed per pass are already named as their metric.
            row = {spec["name"]: sums.get(spec["name"], 0.0) for spec in per_layer_spec()}
            row["coxeter.build_group.elements_per_s"] = ratio(
                sums.get("coxeter.build_group.elements", 0),
                sums.get("coxeter.build_group.total_s", 0.0))
            row["cache.hit_ratio"] = ratio(
                sums.get("hits", 0) + sums.get("cli.get_table.hit", 0),
                sums.get("lookups", 0))
            row["complexes.sample_distinct_ratio"] = ratio(
                sums.get("distinct", 0), sums.get("draws", 0))
            row["trace.dominant_self_share"] = ratio(
                sum(sums.get(f"{t}.s", 0.0) for t in dominant), walls[p])
            rows.append(row)
        out = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
        out["trace.overhead_ratio"] = (
            statistics.median(walls.values()) / statistics.median(untraced_walls) - 1.0
        )
        return out
