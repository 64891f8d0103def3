"""The traced run: per-layer spans and counters for one workload.

The traced run happens in the benchmark's own process, apart from the timed
subprocess runs.  Each job runs twice in turn, once plain and once with the
package's public functions wrapped, alternating which goes first; lru
caches are cleared before every run so each job starts cold, as a fresh
process would.  The difference between the two totals is the tracing
overhead.  A job's output is checked on both runs.

A wrapper records a span: its name, start, end, parent span and job id.
Spans stay in memory and are written to ``perfbench/work/spans-*.json``
when the run ends.  A span's self time is its duration minus the duration
of its child spans (calls are nested and single-threaded, so children never
overlap).  Per-element helpers that the N^3 and |G| loops call, such as
``is_pq_admissible`` and ``canonicalize``, are not wrapped: a span per call
would cost more than the work it measures, so their time stays in the
caller's self time.

Layers are the package's modules; the ``kernels`` metrics cover the module
``_kernels`` (metric names may not start with an underscore).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from types import ModuleType

from fusioncover import _kernels, cli, cover_search, minimal_model, two_group_cover

import run
import theorem_job

START_PROBES = 5

# Unwrapped originals the counters call while the wrappers are installed.
_fusion_tensor = minimal_model.fusion_tensor
_multiplicity_profile = cover_search.multiplicity_profile

# Public functions wrapped in each layer, by module.  ``_kernels`` lists the
# entry points that two_group_cover and cover_search call through the
# module attribute.
WRAPPED = {
    minimal_model: ("sectors", "kac_table", "fusion_tensor", "verlinde_algebra"),
    two_group_cover: ("canonical_cover", "verify_cover", "partition_algebra",
                      "is_isomorphic_to_verlinde"),
    cover_search: ("multiplicity_profile", "verify_abelian_cover", "search_cyclic_covers"),
    _kernels: ("scan_pairs_xor", "scan_pairs_group", "scan_stats", "first_uncovered_triple"),
    cli: ("parse_group_file", "cmd_kac", "cmd_fusion", "cmd_cover_verify", "cmd_cover_search"),
}
# Methods wrapped on their class: (class, method, span name).
WRAPPED_METHODS = (
    (cover_search.LabeledGroup, "from_kac_labels", "cover_search.from_kac_labels"),
    (cli.OutputDocument, "emit", "cli.emit"),
)

LAYERS = ("cli", "minimal_model", "two_group_cover", "cover_search", "kernels")

# Bytes the numpy kernels move per pair, computed from the arrays they
# materialise: XOR - g1 ^ g2, its sector, the sum, the int64 index (written,
# then read by the scatter and the gather), the uint8 realized write,
# admissibility gather and bad mask.  The group kernel adds per factor the
# int64 digit sum and its remainder, and the int64 dot product.
XOR_BYTES_PER_PAIR = 8 * 6 + 3
GROUP_BYTES_PER_FACTOR = 8 * 3

UNITS = {
    "cli.start_ms": "ms",
    "cli.parse_group_file_ms": "ms",
    "cli.group_file_lines": "count",
    "cli.render_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.output_bytes": "B",
    "cli.self_share": "ratio",
    "minimal_model.fusion_tensor_ms": "ms",
    "minimal_model.fusion_tensor_cells": "count",
    "minimal_model.fusion_tensor_cells_per_s": "cells/s",
    "minimal_model.kac_table_ms": "ms",
    "minimal_model.self_share": "ratio",
    "two_group_cover.canonical_cover_ms": "ms",
    "two_group_cover.verify_cover_self_ms": "ms",
    "two_group_cover.partition_algebra_self_ms": "ms",
    "two_group_cover.is_isomorphic_ms": "ms",
    "two_group_cover.rescanned_pairs": "count",
    "two_group_cover.self_share": "ratio",
    "cover_search.search_ms": "ms",
    "cover_search.orders_tried": "count",
    "cover_search.orders_skipped": "count",
    "cover_search.covers_found": "count",
    "cover_search.verify_abelian_cover_self_ms": "ms",
    "cover_search.self_share": "ratio",
    "kernels.scan_xor_ms": "ms",
    "kernels.scan_xor_pairs": "count",
    "kernels.scan_xor_pairs_per_s": "pairs/s",
    "kernels.scan_group_ms": "ms",
    "kernels.scan_group_pairs": "count",
    "kernels.scan_group_pairs_per_s": "pairs/s",
    "kernels.scan_bytes_computed": "B",
    "kernels.witness_share": "ratio",
    "kernels.witness_pairs_needed": "count",
    "kernels.witness_pairs_total": "count",
    "kernels.first_uncovered_triple_ms": "ms",
    "kernels.self_share": "ratio",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.unattributed_share": "ratio",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.verified: set[tuple[str, bytes]] = set()

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper recording a span around ``fn``; ``before``/``after``
        hooks update counters outside the span's own interval."""

        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after:
                after(result, token, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ---------------------------------------------------------

    def _fusion_before(self, params):
        return _fusion_tensor.cache_info().misses

    def _fusion_after(self, tensor, misses, params):
        if _fusion_tensor.cache_info().misses > misses:
            self.counts["fusion_tensor_cells"] += tensor.n ** 3

    def _parse_after(self, lg, token, path, params):
        with open(path) as f:
            self.counts["group_file_lines"] += sum(1 for _ in f)

    def _emit_after(self, text, token, doc):
        self.counts["output_bytes"] += len(text.encode())

    def _verify_after(self, cert, token, cm, *args, **kwargs):
        self.verified.add((self.job, cm.sector_indices.tobytes()))

    def _partition_after(self, w, token, cm, *args, **kwargs):
        if (self.job, cm.sector_indices.tobytes()) in self.verified:
            self.counts["rescanned_pairs"] += len(cm.sector_indices) ** 2

    def _search_after(self, covers, token, tensor, max_order, *args, **kwargs):
        bound = sum(_multiplicity_profile(tensor).values())
        skipped = min(max_order, max(0, bound - 1))
        self.counts["orders_skipped"] += skipped
        self.counts["orders_tried"] += max_order - skipped
        self.counts["covers_found"] += len(covers)

    def _scan_after(self, kind: str, size: int, bytes_per_pair: int, result, d_flat):
        (g1, g2), _ = result
        pairs = size * size
        self.counts[f"scan_{kind}_pairs"] += pairs
        self.counts["scan_bytes"] += pairs * bytes_per_pair
        if g1 >= 0 and not d_flat.all():
            self.counts["witness_pairs_needed"] += g1 * size + g2 + 1
            self.counts["witness_pairs_total"] += pairs

    def _scan_xor_after(self, result, token, sec, n, d_flat, *args, **kwargs):
        self._scan_after("xor", len(sec), XOR_BYTES_PER_PAIR, result, d_flat)

    def _scan_group_after(self, result, token, digits, radices, sec, n, d_flat, *a, **k):
        per_pair = XOR_BYTES_PER_PAIR + GROUP_BYTES_PER_FACTOR * len(radices)
        self._scan_after("group", len(sec), per_pair, result, d_flat)

    def hooks(self, name: str):
        return {
            "minimal_model.fusion_tensor": (self._fusion_before, self._fusion_after),
            "cli.parse_group_file": (None, self._parse_after),
            "cli.emit": (None, self._emit_after),
            "two_group_cover.verify_cover": (None, self._verify_after),
            "two_group_cover.partition_algebra": (None, self._partition_after),
            "cover_search.search_cyclic_covers": (None, self._search_after),
            "_kernels.scan_pairs_xor": (None, self._scan_xor_after),
            "_kernels.scan_pairs_group": (None, self._scan_group_after),
        }.get(name, (None, None))


def _short(module: ModuleType) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Patch:
    """Swaps every binding of the wrapped functions for its wrapper, in the
    package's modules and the theorem driver, and swaps them back."""

    def __init__(self, tracer: Tracer):
        self.undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fusioncover"]
        modules.append(theorem_job)
        for module, names in WRAPPED.items():
            for fname in names:
                original = getattr(module, fname)
                name = f"{_short(module)}.{fname}"
                wrapper = tracer.wrap(name, original, *tracer.hooks(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self.undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for cls, method, name in WRAPPED_METHODS:
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapper = classmethod(tracer.wrap(name, raw.__func__, *tracer.hooks(name)))
            else:
                wrapper = tracer.wrap(name, raw, *tracer.hooks(name))
            self.undo.append((cls, method, raw))
            setattr(cls, method, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)


def _cached_functions() -> list:
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "fusioncover"]
    return [f for m in mods for f in vars(m).values() if hasattr(f, "cache_clear")]


def start_ms(env: dict) -> float:
    """Median time for a fresh interpreter to start and import fusioncover."""
    times = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fusioncover"], cwd=run.ROOT, env=env,
                       check=True, timeout=run.JOB_TIMEOUT_S)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _run_once(job, cached) -> tuple[float, str | None]:
    for f in cached:
        f.cache_clear()
    t0 = time.perf_counter()
    try:
        code, stdout = run.run_in_process(job)
    except Exception as e:  # a crash is a failed job, not a failed benchmark
        return time.perf_counter() - t0, f"crashed: {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    return elapsed, run.check_output(job, code, stdout)


def traced_run(setup_: "run.Setup"):
    """Per-layer metrics for one workload; returns (metrics, results, extra)."""
    tracer = Tracer()
    cached = _cached_functions()
    results = []
    untraced = traced = 0.0
    for i, job in enumerate(setup_.jobs):
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                tracer.job = job.id
                patch = Patch(tracer)
                try:
                    dt, error = _run_once(job, cached)
                finally:
                    patch.restore()
                traced += dt
            else:
                dt, error = _run_once(job, cached)
                untraced += dt
            results.append(run.JobResult(job.id, dt * 1e3, 0, error))

    metrics = layer_metrics(tracer, traced)
    metrics["cli.start_ms"] = start_ms(setup_.env)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics = {name: metrics[name] for name in UNITS}

    out = run.WORKDIR / f"spans-{setup_.info['workload']}-{setup_.info['seed']}.json"
    out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                               "spans": tracer.spans}))
    return metrics, results, {"spans_file": str(out.relative_to(run.ROOT))}


def layer_metrics(tracer: Tracer, traced_s: float) -> dict:
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        total[span[0]] += span[2] - span[1]
        self_time[span[0]] += span[2] - span[1]
        if span[3] is not None:
            parent = tracer.spans[span[3]]
            self_time[parent[0]] -= span[2] - span[1]

    def ms(name: str, table=total) -> float:
        return table.get(name, 0.0) * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counts
    layer_self = defaultdict(float)
    for name, t in self_time.items():
        module = name.split(".")[0]
        layer_self["kernels" if module == "_kernels" else module] += t
    m = {
        "cli.parse_group_file_ms": ms("cli.parse_group_file"),
        "cli.group_file_lines": c["group_file_lines"],
        "cli.render_ms": sum(ms(f"cli.{n}", self_time) for n in
                             ("cmd_kac", "cmd_fusion", "cmd_cover_verify", "cmd_cover_search")),
        "cli.emit_ms": ms("cli.emit"),
        "cli.output_bytes": c["output_bytes"],
        "minimal_model.fusion_tensor_ms": ms("minimal_model.fusion_tensor"),
        "minimal_model.fusion_tensor_cells": c["fusion_tensor_cells"],
        "minimal_model.fusion_tensor_cells_per_s": ratio(
            c["fusion_tensor_cells"], total["minimal_model.fusion_tensor"]),
        "minimal_model.kac_table_ms": ms("minimal_model.kac_table"),
        "two_group_cover.canonical_cover_ms": ms("two_group_cover.canonical_cover"),
        "two_group_cover.verify_cover_self_ms": ms("two_group_cover.verify_cover", self_time),
        "two_group_cover.partition_algebra_self_ms": ms(
            "two_group_cover.partition_algebra", self_time),
        "two_group_cover.is_isomorphic_ms": ms("two_group_cover.is_isomorphic_to_verlinde"),
        "two_group_cover.rescanned_pairs": c["rescanned_pairs"],
        "cover_search.search_ms": ms("cover_search.search_cyclic_covers"),
        "cover_search.orders_tried": c["orders_tried"],
        "cover_search.orders_skipped": c["orders_skipped"],
        "cover_search.covers_found": c["covers_found"],
        "cover_search.verify_abelian_cover_self_ms": ms(
            "cover_search.verify_abelian_cover", self_time),
        "kernels.scan_xor_ms": ms("_kernels.scan_pairs_xor"),
        "kernels.scan_xor_pairs": c["scan_xor_pairs"],
        "kernels.scan_xor_pairs_per_s": ratio(c["scan_xor_pairs"], total["_kernels.scan_pairs_xor"]),
        "kernels.scan_group_ms": ms("_kernels.scan_pairs_group"),
        "kernels.scan_group_pairs": c["scan_group_pairs"],
        "kernels.scan_group_pairs_per_s": ratio(
            c["scan_group_pairs"], total["_kernels.scan_pairs_group"]),
        "kernels.scan_bytes_computed": c["scan_bytes"],
        "kernels.witness_share": ratio(c["witness_pairs_needed"], c["witness_pairs_total"]),
        "kernels.witness_pairs_needed": c["witness_pairs_needed"],
        "kernels.witness_pairs_total": c["witness_pairs_total"],
        "kernels.first_uncovered_triple_ms": ms("_kernels.first_uncovered_triple"),
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(layer_self[layer], traced_s)
    m["trace.unattributed_share"] = ratio(traced_s - sum(layer_self.values()), traced_s)
    return m
