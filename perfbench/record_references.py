"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: for each model a job touches, the
JSON model header and the number of admissible triples; for each job whose
output does not depend on the seed, the SHA-256 of its stdout (for sweep
jobs, of the ``cover verify`` certificate inside it).  Run it only on a
commit whose outputs are known to be right: every later run is compared
with what it records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from fusioncover import ModelParams, fusion_tensor  # noqa: E402
from fusioncover import cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


class _Pending(dict):
    """A digest table that yields a placeholder for every job id."""

    def __missing__(self, key):
        return "pending"


def model_references() -> dict:
    pairs = set(workloads.sweep_models()) | set(workloads.TABLE_MODELS)
    pairs |= {workloads.ISING_Z4[0], workloads.TRICRITICAL_Z12[0]}
    pairs |= set(workloads.ABELIAN_Z2_FILES) | set(workloads.REFUTE_MAPS)
    pairs |= {workloads.REFUTE_VACUUM, workloads.REFUTE_Z2_FILE}
    pairs |= {(p, q) for p, q, _ in workloads.SEARCHES}
    return {
        f"{p},{q}": {
            "header": cli.cmd_kac(p, q, "json").payload["model"],
            "admissible_triples": int(fusion_tensor(ModelParams(p, q)).coefficients.sum()),
        }
        for p, q in sorted(pairs)
    }


def main() -> int:
    refs = {"models": model_references(), "digests": _Pending()}
    writer = workloads.InputWriter(BENCH.parent, run.WORKDIR / "record")
    digests = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.build_jobs(workload, 0, refs, writer):
            kind = job.expect["type"]
            if kind not in ("digest", "theorem_pass"):
                continue
            code, stdout = run.run_in_process(job)
            if kind == "theorem_pass":
                out = json.loads(stdout)
                if code != 0 or not out["isomorphic"]:
                    raise SystemExit(f"{job.id}: canonical cover failed; not recording")
                stdout = out["verify"]
            elif code != job.expect["exit"]:
                raise SystemExit(f"{job.id}: exit code {code}; not recording")
            digests[job.id] = workloads.sha256(stdout)
    refs["digests"] = dict(sorted(digests.items()))
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests and {len(refs['models'])} models")
    return 0


if __name__ == "__main__":
    sys.exit(main())
