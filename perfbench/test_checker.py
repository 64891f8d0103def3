"""Self-test of the benchmark's checker: it passes right outputs and counts
wrong ones.

    python3 -m pytest perfbench -q

A short run of each workload must pass its checks; a wrong reference, a
wrong predicted witness and a job killed by its timeout must each count as
a failed job.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Jobs that finish in well under a second each, per workload.
SHORT = {
    "sweep": ("sweep/2-3", "sweep/3-4", "sweep/4-5", "sweep/5-8"),
    "refute": ("refute/7-10/vacuum", "refute/z2file", "refute/mixedfile"),
    "abelian": ("abelian/ising_z4/json", "abelian/tricritical_z12/text",
                "abelian/search/4-5", "abelian/pullback/ising"),
    "tables": ("tables/kac/3-4/golden", "tables/fusion/4-5/golden", "tables/kac/16-17/json",
               "tables/fusion/11-12/json"),
}


@pytest.fixture(scope="module")
def prepared():
    return {w: run.setup(w, seed=7) for w in workloads.WORKLOADS}


def short(setup_: run.Setup, workload: str) -> run.Setup:
    jobs = [j for j in setup_.jobs if j.id in SHORT[workload]]
    assert len(jobs) == len(SHORT[workload])
    return dataclasses.replace(setup_, jobs=jobs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_passes(prepared, workload):
    _, results, _ = run.measure(short(prepared[workload], workload), passes=1)
    assert run.error_rate(results)["failed"] == 0, [r.error for r in results]


def test_pass_count_depends_on_seconds_only():
    for workload in workloads.WORKLOADS:
        assert run.pass_count(workload, 0) == workloads.MIN_PASSES
        assert run.pass_count(workload, 30) >= workloads.MIN_PASSES


def test_latencies_are_each_jobs_median_run(prepared):
    base = short(prepared["sweep"], "sweep")
    metrics, results, extra = run.measure(base, passes=3)
    assert len(results) == 3 * len(base.jobs)
    latency = sorted(sorted(v)[1] for v in extra["job_ms_samples"].values())
    assert metrics["wall_s"] == sum(latency) / 1e3
    assert metrics["job_ms_p50"] == (latency[1] + latency[2]) / 2
    assert latency[2] <= metrics["job_ms_tail"] <= latency[3]


def test_same_seed_same_inputs():
    a = run.setup("refute", seed=11).info
    b = run.setup("refute", seed=11).info
    c = run.setup("refute", seed=12).info
    assert a["jobs_sha256"] == b["jobs_sha256"] != c["jobs_sha256"]
    assert a["input_files_sha256"] == b["input_files_sha256"] != c["input_files_sha256"]


def _with_bad(setup_: run.Setup, job_id: str, spoil) -> run.Setup:
    jobs = []
    for job in setup_.jobs:
        if job.id == job_id:
            job = copy.deepcopy(job)
            spoil(job.expect)
        jobs.append(job)
    return dataclasses.replace(setup_, jobs=jobs)


def test_wrong_reference_counts_as_failure(prepared):
    base = short(prepared["tables"], "tables")
    bad = _with_bad(base, "tables/kac/16-17/json", lambda e: e.update(sha256="0" * 64))
    _, results, _ = run.measure(bad, passes=1)
    errors = run.error_rate(results)
    assert errors["failed"] == 1 and errors["attempted"] == len(base.jobs)
    assert errors["value"] == 1 / len(base.jobs)


def test_wrong_golden_table_counts_as_failure(prepared):
    base = short(prepared["tables"], "tables")
    bad = _with_bad(base, "tables/kac/3-4/golden", lambda e: e.update(text=e["text"] + " "))
    _, results, _ = run.measure(bad, passes=1)
    assert run.error_rate(results)["failed"] == 1


def test_wrong_witness_counts_as_failure(prepared):
    base = short(prepared["refute"], "refute")

    def shift(expect):
        expect["witness"]["g2"] += 1

    _, results, _ = run.measure(_with_bad(base, "refute/z2file", shift), passes=1)
    assert [r.id for r in results if r.error] == ["refute/z2file"]


def test_timeout_counts_as_failure(prepared, monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.01)
    base = short(prepared["sweep"], "sweep")
    _, results, _ = run.measure(base, passes=1)
    errors = run.error_rate(results)
    assert errors["failed"] == errors["attempted"] == len(base.jobs)
    assert all("timed out" in r.error for r in results)


def test_traced_run_reports_every_layer_metric(prepared):
    base = short(prepared["refute"], "refute")
    metrics, results, _ = tracing.traced_run(base)
    assert set(metrics) == set(tracing.UNITS)
    assert run.error_rate(results)["failed"] == 0
    assert metrics["kernels.scan_group_pairs"] > 0
    assert 0 < metrics["kernels.witness_share"] < 1
    assert metrics["kernels.witness_pairs_total"] > 0
