"""One theorem job: check the canonical cover of a model, or a corruption of it.

    python perfbench/theorem_job.py '{"p": 5, "q": 13}'
    python perfbench/theorem_job.py '{"p": 5, "q": 13, "corrupt": {"kind": "swap", "a": 3, "b": 90}}'

Without ``corrupt`` it runs ``cover verify`` through the CLI's command
function, then builds the partition algebra and compares it with the
Verlinde algebra.  With ``corrupt`` (``swap``, ``reassign`` or ``vacuum``)
it verifies the corrupted map and builds its partition algebra with
``strict=False``.  It prints one JSON object and exits 0 on PASS, 1 on FAIL.
Only public functions of the package are called.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from fusioncover import (
    ClosureViolation,
    CoverMap,
    GroupContext,
    ModelParams,
    canonical_cover,
    fusion_tensor,
    is_isomorphic_to_verlinde,
    partition_algebra,
    verify_cover,
    verlinde_algebra,
)
from fusioncover import cli

THREADS = 2


def _canonical_theorem(p: int, q: int) -> tuple[int, dict]:
    params = ModelParams(p, q)
    doc, code = cli.cmd_cover_verify(p, q, format="json", threads=THREADS)
    text = doc.emit()
    cm = canonical_cover(GroupContext(params))
    w = partition_algebra(cm, threads=THREADS)
    iso = is_isomorphic_to_verlinde(w, verlinde_algebra(fusion_tensor(params)))
    return code, {"exit": code, "verify": text, "isomorphic": bool(iso)}


def _corrupted(p: int, q: int, change: dict) -> tuple[int, dict]:
    params = ModelParams(p, q)
    cm = canonical_cover(GroupContext(params))
    kind = change["kind"]
    if kind == "swap":
        cm = cm.swapped_images(change["a"], change["b"])
    elif kind == "reassign":
        cm = cm.reassigned(change["rep"], change["sector"])
    elif kind == "vacuum":
        cm = CoverMap(cm.context, np.zeros_like(cm.sector_indices), cm.sectors)
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    tensor = fusion_tensor(params)
    cert = verify_cover(cm, tensor, threads=THREADS)
    w = partition_algebra(cm, strict=False, threads=THREADS)
    iso = is_isomorphic_to_verlinde(w, verlinde_algebra(tensor))
    witness = None
    at_witness = None
    if cert.witness is not None:
        secs = cert.witness.sectors
        witness = {"sectors": [[s.m, s.n] for s in secs]}
        if isinstance(cert.witness, ClosureViolation):
            witness.update(kind="closure_violation", g1=cert.witness.g1,
                           g2=cert.witness.g2, g3=cert.witness.g3)
        else:
            witness["kind"] = "uncovered_triple"
        at_witness = int(w.coefficients[secs[0].index, secs[1].index, secs[2].index])
    out = {
        "verdict": cert.verdict,
        "witness": witness,
        "stats": cert.stats,
        "partition_at_witness": at_witness,
        "isomorphic": bool(iso),
    }
    return (0 if cert.passed else 1), out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    if "corrupt" in spec:
        code, out = _corrupted(spec["p"], spec["q"], spec["corrupt"])
    else:
        code, out = _canonical_theorem(spec["p"], spec["q"])
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
