"""The fusioncover benchmark: seeded CLI workloads with checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0
    for w in sweep refute abelian tables; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 24 --trace 0; done

Run it from the root of a source checkout; it needs ``src/fusioncover`` and
``tests/golden`` there and nothing installed.  One closed-loop client runs
the workload's jobs one at a time, each as a fresh ``python`` subprocess, so
every job pays interpreter start, ``import fusioncover`` and cold caches,
as a CLI user does.  The client makes whole passes over the job list; their
number is ``--seconds`` over the workload's nominal pass time
(``workloads.PASS_S``), at least two, so every job runs the same number of
times k in every run of a workload whatever the host's speed.

Workloads (see ``workloads.py`` for the inputs):

* ``sweep``   - the canonical cover theorem for every coprime p + q <= 18;
  the two p + q = 18 scans dominate, most jobs are start-up.
* ``refute``  - seeded corruptions that must FAIL with a predicted witness;
  the scan is used to find a first witness, not to count.
* ``abelian`` - group files and cover search: the general-group kernel,
  the group-file parser and the backtracking search, no XOR scan.
* ``tables``  - ``kac`` and ``fusion`` tables up to N = 120: the fusion
  tensor and rendering, no scan at all.

With ``--trace 0`` the last line reports the end-to-end metrics.  Each
job's latency is the median of its k runs, and the timings are taken over
those per-job latencies, so every job weighs the same in every run.  The
timings are scaled to a fixed host speed with a reference process timed in
the same run (see ``CALIBRATION``):

* ``wall_s``      - one pass over the job list, the sum of the latencies;
* ``job_ms_p50``  - their median;
* ``job_ms_tail`` - their 90th percentile, interpolated between jobs (a
  workload has 7 to 34 jobs, so a percentile with ten jobs beyond it would
  sit at or below the median);
* ``peak_rss_mb`` - the largest resident set of any job run;
* ``setup_s``     - the median of the set-up repeats around the timed loop.

With ``--trace 1`` it reports per-layer metrics from a separate in-process
run (see ``tracing.py``).  A job that crashes, times out, exits with the wrong
code or prints a wrong output counts as failed; the line before the last
is a JSON record of the seed, input digests, environment and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKDIR = BENCH / "work"

# Set-up runs this many times before the timed loop and again after it; the
# samples straddle the run so one slow stretch of the host moves the median
# less.
SETUP_REPEATS = 4
# The slowest job takes about 4 s at the seed commit.
JOB_TIMEOUT_S = 30.0
# Jobs not started by this point of a run count as failed, so even a run of
# hanging jobs ends inside three minutes.
RUN_DEADLINE_S = 130.0
TAIL_PERCENTILE = 90

# The host is a share of a busy machine whose speed drifts by up to a third
# within minutes, and the drift moves every job alike.  So the client also
# times a reference process that starts Python and imports numpy but none of
# the package: before each set-up and before a job whenever CALIBRATION_EVERY_S
# have passed since the last one.  Timings are reported at a fixed host
# speed, multiplied by CALIBRATION_MS over the run's mean reference time
# (the mean of the middle 80 % of samples: single samples fall on a few
# levels some 50 ms apart, which a median would jump between).  A change to
# the package does not move the reference, so it moves the scaled timings as
# much as the raw ones; the raw timings are in the record line.  On a 2-core
# x86-64 sandbox, means of kac and fusion job latencies over 22 s windows
# tracked the reference with correlation 0.98-0.99; their spread across
# windows fell from 15-20 % to 4-5 % of the median when divided by it, while
# a loop timed inside the client did not track them (correlation 0.1-0.3).
CALIBRATION = ("-c", "import numpy")
# About the reference's mean time on that sandbox.
CALIBRATION_MS = 150.0
CALIBRATION_EVERY_S = 1.5


def reference_ms(samples: list[float]) -> float:
    """Mean of the middle 80 % of the reference times."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def calibrate(env: dict) -> float:
    """Time one reference process, in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *CALIBRATION], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1e3


# Thread caps for every job and for the in-process traced run.
THREAD_CAPS = {var: "2" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                    "VECLIB_MAXIMUM_THREADS")}
# Imports every module a job loads, so set-up compiles their bytecode.
ENV_PROBE = (
    "import json, os, sys, numpy, fusioncover, fusioncover.cli\n"
    "from fusioncover import _kernels\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
    " 'numba': _kernels.HAVE_NUMBA, 'backend': _kernels.active_backend(),"
    " 'nproc': os.cpu_count()}))\n"
)


def job_env() -> dict:
    """The pinned environment every job runs in."""
    env = dict(os.environ, **THREAD_CAPS)
    env.pop("FUSIONCOVER_BACKEND", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def job_command(job) -> list[str]:
    if job.kind == "cli":
        return [sys.executable, "-m", "fusioncover.cli", *job.args]
    return [sys.executable, str(BENCH / "theorem_job.py"), *job.args]


@dataclass
class JobResult:
    id: str
    ms: float
    rss_kb: int
    error: str | None


def run_job(job, env: dict, timeout: float | None = None) -> JobResult:
    """Run one job as a subprocess; time it from launch to exit and check it."""
    timeout = JOB_TIMEOUT_S if timeout is None else timeout
    out_path, err_path = WORKDIR / "job.stdout", WORKDIR / "job.stderr"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job_command(job), cwd=ROOT, env=env, stdout=out, stderr=err)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ms = (time.perf_counter() - t0) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        return JobResult(job.id, ms, usage.ru_maxrss, f"timed out after {timeout} s")
    stdout = out_path.read_text()
    error = check_output(job, proc.returncode, stdout, err_path)
    return JobResult(job.id, ms, usage.ru_maxrss, error)


def check_output(job, code: int, stdout: str, err_path: Path | None = None) -> str | None:
    import workloads

    if code < 0:
        return f"killed by signal {-code}"
    error = workloads.check(job, code, stdout)
    if error and err_path is not None:
        tail = err_path.read_text()[-300:].strip()
        if tail:
            error += f" (stderr: {tail})"
    return error


def run_in_process(job) -> tuple[int, str]:
    """Run a job's entry point inside this process; returns (exit code, stdout)."""
    from fusioncover import cli
    import theorem_job

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            if job.kind == "cli":
                code = cli.main(list(job.args))
            else:
                code = theorem_job.main(list(job.args))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


@dataclass
class Setup:
    jobs: list
    env: dict
    info: dict


def setup(workload: str, seed: int) -> Setup:
    """Generate the seeded inputs, warm the bytecode cache, load references."""
    import workloads

    refs = json.loads((BENCH / "references.json").read_text())
    writer = workloads.InputWriter(ROOT, WORKDIR / "inputs" / f"{workload}-{seed}")
    jobs = workloads.build_jobs(workload, seed, refs, writer)
    env = job_env()
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True,
    )
    info = {
        "seed": seed,
        "workload": workload,
        "jobs": len(jobs),
        "jobs_sha256": workloads.jobs_digest(jobs),
        "input_files_sha256": writer.digests,
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "environment": json.loads(probe.stdout),
    }
    return Setup(jobs, env, info)


def source_commit() -> str | None:
    """The checked-out commit, when the checkout is a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """Digest of the package sources, which identifies the code without git."""
    import workloads

    parts = []
    for path in sorted((ROOT / "src" / "fusioncover").glob("*.py")):
        parts.append(path.name + "\0" + path.read_text())
    return workloads.sha256("\0".join(parts))


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run of ``seconds`` makes: fixed by the arguments alone."""
    import workloads

    return max(workloads.MIN_PASSES, round(seconds / workloads.PASS_S[workload]))


def measure(setup_: Setup, passes: int) -> tuple[dict, list[JobResult], dict]:
    """Closed loop: ``passes`` whole passes over the job list."""
    start = time.perf_counter()
    results: list[JobResult] = []
    pass_s: list[float] = []
    calibration: list[float] = []
    calibrated = start
    for _ in range(passes):
        t0 = time.perf_counter()
        for job in setup_.jobs:
            if time.perf_counter() - start > RUN_DEADLINE_S:
                results.append(JobResult(job.id, 0.0, 0, "not started before the run deadline"))
                continue
            if time.perf_counter() - calibrated >= CALIBRATION_EVERY_S:
                calibration.append(calibrate(setup_.env))
                calibrated = time.perf_counter()
            results.append(run_job(job, setup_.env))
        pass_s.append(time.perf_counter() - t0)
    # Each job's latency is the median of its runs that passed their check.
    per_job: dict[str, list[float]] = {}
    for r in results:
        per_job.setdefault(r.id, [])
        if r.error is None:
            per_job[r.id].append(r.ms)
    latency = [statistics.median(v) for v in per_job.values() if v] or [0.0]
    metrics = {
        "wall_s": sum(latency) / 1e3,
        "job_ms_p50": statistics.median(latency),
        "job_ms_tail": tail_latency(latency),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
    }
    extra = {
        "passes": pass_s,
        "job_ms_tail_percentile": TAIL_PERCENTILE,
        "job_ms_tail_jobs": len(latency),
        "job_ms_samples": per_job,
        "calibration_ms": calibration,
    }
    return metrics, results, extra


def tail_latency(latencies: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile, interpolated between samples."""
    if len(latencies) < 2:
        return latencies[0]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[TAIL_PERCENTILE - 1]


def error_rate(results: list[JobResult]) -> dict:
    """Failed jobs over attempted jobs, with both counts."""
    failed = sum(r.error is not None for r in results)
    return {"value": failed / len(results), "failed": failed, "attempted": len(results)}


TIMINGS = ("setup_s", "wall_s", "job_ms_p50", "job_ms_tail")
UNITS = {"setup_s": "s", "wall_s": "s", "job_ms_p50": "ms", "job_ms_tail": "ms",
         "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fusioncover benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fusioncover" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no golden tables under {ROOT / 'tests'}", file=sys.stderr)
        return 2
    # Pin this process too, before numpy loads, for the in-process traced run.
    os.environ.update(THREAD_CAPS)
    os.environ.pop("FUSIONCOVER_BACKEND", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_times = []
    calibration = []
    run_env = job_env()

    def timed_setup() -> Setup:
        calibration.append(calibrate(run_env))
        t0 = time.perf_counter()
        prepared = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
        return prepared

    if args.trace:
        import tracing

        prepared = timed_setup()
        metrics, results, extra = tracing.traced_run(prepared)
        units = tracing.UNITS
    else:
        for _ in range(SETUP_REPEATS):
            prepared = timed_setup()
        metrics, results, extra = measure(prepared, pass_count(args.workload, args.seconds))
        for _ in range(SETUP_REPEATS):
            timed_setup()
        metrics["setup_s"] = statistics.median(setup_times)
        calibration += extra.pop("calibration_ms")
        speed = CALIBRATION_MS / reference_ms(calibration)
        extra.update(raw=dict(metrics), calibration_ms=calibration, host_speed=speed)
        for name in TIMINGS:
            metrics[name] *= speed
        units = UNITS

    errors = error_rate(results)
    record = dict(prepared.info)
    record.update(extra)
    record["setup_s_samples"] = setup_times
    record["error_rate"] = errors
    record["failures"] = [{"job": r.id, "error": r.error} for r in results if r.error]
    for name, value in metrics.items():
        print(f"{args.workload}  {name:<44} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload}  latencies are each job's median of {len(extra['passes'])} "
              f"runs; job_ms_tail is p{extra['job_ms_tail_percentile']} "
              f"of {extra['job_ms_tail_jobs']} jobs")
    print(f"{args.workload}  {'error_rate':<44} {errors['value']:>16.6g} ratio "
          f"({errors['failed']} failed of {errors['attempted']} attempted)")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": errors["failed"] == 0,
        "attempted": errors["attempted"],
        "failed": errors["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
