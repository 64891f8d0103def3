"""Seeded job lists, generated inputs and output checks for the benchmark.

A workload is a list of jobs.  A ``cli`` job runs ``python -m fusioncover.cli
ARGS``; a ``theorem`` job runs ``perfbench/theorem_job.py SPEC``.  Every job
carries an ``expect`` record, and ``check`` compares a finished job's exit
code and stdout with it.  Expectations come from three places:

* digests of outputs recorded at the seed commit (``references.json``,
  written by ``record_references.py``) and the golden tables in
  ``tests/golden/``, for outputs that do not depend on the seed;
* structural expectations for generated covers, which PASS by construction;
* predicted witnesses for corrupted covers.  Corrupting a cover changes only
  the pairs that involve a changed element, so the first closure witness in
  scan order is the smallest bad pair among those O(|G|) pairs.  The
  prediction uses this module's own group law and sector labels and the
  public ``is_pq_admissible`` predicate, not the fusion tensor or the scan.

Inputs are drawn from the seed alone: the same seed gives byte-identical
group files and job specs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd, prod
from pathlib import Path

from fusioncover import ModelParams, is_pq_admissible

# No job uses more threads than the two cores the benchmark was tuned on.
THREADS = 2

WORKLOADS = ("sweep", "refute", "abelian", "tables")

# Group files shipped in covers/, embedded so generated inputs never depend
# on files a later change might edit.  Element i of Z_k carries label i.
ISING_Z4 = ((3, 4), (4,), [(1, 1), (1, 2), (1, 3), (1, 2)])
TRICRITICAL_Z12 = (
    (4, 5),
    (12,),
    [(1, 1), (2, 2), (1, 2), (2, 1), (1, 3), (2, 2),
     (1, 4), (2, 2), (1, 3), (2, 1), (1, 2), (2, 2)],
)

# (p, q) of the canonical maps corrupted in ``refute`` (one at p + q = 18,
# one at 17), and of the canonical covers relabelled as Z2^t group files in
# ``abelian``.
REFUTE_MAPS = ((5, 13), (8, 9))
REFUTE_VACUUM = (7, 10)
REFUTE_Z2_FILE = (3, 13)
ABELIAN_Z2_FILES = ((8, 9),)
TABLE_MODELS = ((11, 12), (13, 14), (15, 16), (16, 17))
# The fusion table of each model in one format, both formats covered; every
# model's kac table runs in both.
FUSION_TABLES = (((11, 12), "json"), ((13, 14), "text"), ((16, 17), "json"))
GOLDEN_MODELS = ((3, 4), (4, 5))
# (p, q, max order).  Most of a search job's time is emitting the covers it
# finds, so the bounds keep each output near a megabyte.
SEARCHES = ((2, 7, 24), (2, 9, 20), (4, 5, 40))

# Time of one pass over each workload's job list, in seconds, at the seed
# commit on a 2-core x86-64 sandbox.  A run makes round(seconds / PASS_S)
# passes, at least MIN_PASSES, so the number of samples per job depends on
# --seconds alone and not on how fast the host happens to be.
PASS_S = {"sweep": 14.0, "refute": 7.0, "abelian": 9.0, "tables": 7.5}
MIN_PASSES = 2

# Pullback covers G x K keep |K| fixed so every seed does the same work;
# the seed picks how K splits into two cyclic factors.
PULLBACK_K_ORDER = {"ising": 768, "tricritical": 256, "refute": 512}


def sweep_models() -> list[tuple[int, int]]:
    """Every coprime pair 2 <= p < q with p + q <= 18."""
    return [
        (p, s - p)
        for s in range(4, 19)
        for p in range(2, s)
        if p < s - p and gcd(p, s - p) == 1
    ]


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Sector labels and groups, independent of the package's own tables
# ---------------------------------------------------------------------------

class Model:
    """Sector labels of one (p, q) model and a memoised admissibility test."""

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q
        self.params = ModelParams(p, q)
        self.labels = sorted(
            {min((m, n), (p - m, q - n)) for m in range(1, p) for n in range(1, q)}
        )
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self._adm: dict[tuple[int, int, int], bool] = {}

    def sector(self, m: int, n: int) -> int:
        return self.index[min((m, n), (self.p - m, self.q - n))]

    def label_admissible(self, t1, t2, t3) -> bool:
        """Whether a label triple is admissible for either completion of t3."""
        m, n = t3
        return is_pq_admissible(self.params, tuple(t1), tuple(t2), (m, n)) or (
            is_pq_admissible(self.params, tuple(t1), tuple(t2), (self.p - m, self.q - n))
        )

    def admissible(self, i: int, j: int, k: int) -> bool:
        key = (i, j, k)
        if key not in self._adm:
            self._adm[key] = self.label_admissible(
                self.labels[i], self.labels[j], self.labels[k]
            )
        return self._adm[key]

    def first_admissible_triple_except_vacuum(self) -> tuple[int, int, int]:
        n = len(self.labels)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if (i, j, k) != (0, 0, 0) and self.admissible(i, j, k):
                        return i, j, k
        raise ValueError(f"({self.p},{self.q}) has no admissible triple but the vacuum's")


class Group:
    """Z_k1 x ... x Z_kt; element g is its big-endian mixed-radix index."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.order = prod(self.factors)
        self.xor = all(k == 2 for k in self.factors)

    def digits(self, g: int) -> tuple[int, ...]:
        out = []
        for k in reversed(self.factors):
            g, d = divmod(g, k)
            out.append(d)
        return tuple(reversed(out))

    def index(self, digits) -> int:
        g = 0
        for d, k in zip(digits, self.factors):
            g = g * k + d
        return g

    def add(self, a: int, b: int) -> int:
        if self.xor:
            return a ^ b
        return self.index(
            (x + y) % k for x, y, k in zip(self.digits(a), self.digits(b), self.factors)
        )

    def sub(self, a: int, b: int) -> int:
        if self.xor:
            return a ^ b
        return self.index(
            (x - y) % k for x, y, k in zip(self.digits(a), self.digits(b), self.factors)
        )


def canonical_sectors(model: Model) -> list[int]:
    """Sector of each coset representative g of the canonical 2-group cover.

    Bits 0..p-3 of g are the A coordinates, the rest the B coordinates;
    the class of g has full label (wt_A + 1, wt_B + 1).
    """
    a_width = model.p - 2
    mask = (1 << a_width) - 1
    r = model.p + model.q - 4
    return [
        model.sector((g & mask).bit_count() + 1, (g >> a_width).bit_count() + 1)
        for g in range(1 << (r - 1))
    ]


def first_closure_witness(group: Group, model: Model, sec: list[int], changed):
    """Smallest (g1, g2) with an inadmissible triple, given that ``sec`` was
    a cover before the elements in ``changed`` were relabelled."""
    best = None
    for c in changed:
        for z in range(group.order):
            for g1, g2 in ((c, z), (z, c), (z, group.sub(c, z))):
                if best is not None and (g1, g2) >= best:
                    continue
                g3 = group.add(g1, g2)
                if not model.admissible(sec[g1], sec[g2], sec[g3]):
                    best = (g1, g2)
    return best


def corrupt(rng: random.Random, group: Group, model: Model, sec: list[int], kind: str):
    """Swap two labels or reassign one, redrawing until closure fails.

    Returns (new labels, the change made, the predicted first witness).
    """
    n_sectors = len(model.labels)
    while True:
        new = list(sec)
        if kind == "swap":
            # Element 0 keeps the vacuum: a group file may not relabel the identity.
            a, b = rng.randrange(1, group.order), rng.randrange(1, group.order)
            if sec[a] == sec[b]:
                continue
            new[a], new[b] = sec[b], sec[a]
            change, changed = {"kind": "swap", "a": a, "b": b}, (a, b)
        else:
            x = rng.randrange(1, group.order)
            s = rng.randrange(n_sectors - 1)
            s += s >= sec[x]
            new[x] = s
            change, changed = {"kind": "reassign", "rep": x, "sector": s}, (x,)
        witness = first_closure_witness(group, model, new, changed)
        if witness is not None:
            return new, change, witness


def closure_expectation(group: Group, model: Model, sec: list[int], witness) -> dict:
    g1, g2 = witness
    g3 = group.add(g1, g2)
    return {
        "g1": g1,
        "g2": g2,
        "g3": g3,
        "sectors": [list(model.labels[sec[g]]) for g in (g1, g2, g3)],
    }


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    id: str
    kind: str  # "cli" or "theorem"
    args: list[str]
    expect: dict


def group_file_text(group: Group, labels, order) -> str:
    """A group file listing element g with full Kac label labels[g], in ``order``."""
    lines = ["group " + " ".join(str(k) for k in group.factors)]
    for g in order:
        m, n = labels[g]
        lines.append(",".join(str(d) for d in group.digits(g)) + f" -> {m},{n}")
    return "\n".join(lines) + "\n"


def canonical_z2_labels(model: Model, rng: random.Random):
    """Full labels of a Z2^(r-1) relabelling of the canonical cover.

    A random invertible GF(2) matrix M sends coset g to element M g.
    """
    a_width = model.p - 2
    mask = (1 << a_width) - 1
    t = model.p + model.q - 5
    while True:
        cols = [rng.randrange(1 << t) for _ in range(t)]
        basis: list[int] = []
        for v in cols:
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        if len(basis) == t:
            break
    labels = [None] * (1 << t)
    for g in range(1 << t):
        x = 0
        for i in range(t):
            if g >> i & 1:
                x ^= cols[i]
        labels[x] = ((g & mask).bit_count() + 1, (g >> a_width).bit_count() + 1)
    return Group((2,) * t), labels


def pullback_labels(base, k_order: int, rng: random.Random):
    """Labels of G x K pulled back from the cover ``base`` of G = Z_k."""
    _, factors, base_labels = base
    splits = [(a, k_order // a) for a in range(2, k_order) if k_order % a == 0 and a * a <= k_order]
    group = Group(factors + rng.choice(splits))
    labels = [base_labels[g // k_order] for g in range(group.order)]
    return group, labels


class InputWriter:
    """Writes generated group files and records their digests."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        self.digests[name] = sha256(text)
        return str(path.relative_to(self.root))


def _digest_job(job_id: str, kind: str, args: list[str], refs: dict) -> Job:
    return Job(job_id, kind, args, {"type": "digest", "exit": 0, "sha256": refs["digests"][job_id]})


def sweep_jobs(seed: int, refs: dict, writer: InputWriter) -> list[Job]:
    jobs = [
        Job(
            f"sweep/{p}-{q}",
            "theorem",
            [json.dumps({"p": p, "q": q})],
            {"type": "theorem_pass", "sha256": refs["digests"][f"sweep/{p}-{q}"]},
        )
        for p, q in sweep_models()
    ]
    random.Random(f"{seed}/sweep").shuffle(jobs)
    return jobs


def refute_jobs(seed: int, refs: dict, writer: InputWriter) -> list[Job]:
    jobs = []
    for p, q in REFUTE_MAPS:
        model = Model(p, q)
        group = Group((2,) * (p + q - 5))
        base = canonical_sectors(model)
        for kind in ("swap", "reassign"):
            rng = random.Random(f"{seed}/refute/{p}-{q}/{kind}")
            sec, change, witness = corrupt(rng, group, model, base, kind)
            spec = {"p": p, "q": q, "corrupt": change}
            expect = {
                "type": "theorem_closure_fail",
                "model": [p, q],
                "order": group.order,
                "witness": closure_expectation(group, model, sec, witness),
            }
            jobs.append(Job(f"refute/{p}-{q}/{kind}", "theorem", [json.dumps(spec)], expect))

    p, q = REFUTE_VACUUM
    model = Model(p, q)
    i, j, k = model.first_admissible_triple_except_vacuum()
    jobs.append(
        Job(
            f"refute/{p}-{q}/vacuum",
            "theorem",
            [json.dumps({"p": p, "q": q, "corrupt": {"kind": "vacuum"}})],
            {
                "type": "theorem_uncovered_fail",
                "model": [p, q],
                "sectors": [list(model.labels[x]) for x in (i, j, k)],
            },
        )
    )

    p, q = REFUTE_Z2_FILE
    rng = random.Random(f"{seed}/refute/z2file")
    model = Model(p, q)
    group, labels = canonical_z2_labels(model, rng)
    jobs.append(_corrupt_file_job("refute/z2file", model, group, labels, rng, "reassign", writer))

    rng = random.Random(f"{seed}/refute/mixedfile")
    model = Model(*ISING_Z4[0])
    group, labels = pullback_labels(ISING_Z4, PULLBACK_K_ORDER["refute"], rng)
    jobs.append(_corrupt_file_job("refute/mixedfile", model, group, labels, rng, "swap", writer))
    return jobs


def _corrupt_file_job(job_id, model, group, labels, rng, kind, writer) -> Job:
    sec = [model.sector(*lab) for lab in labels]
    new, _, witness = corrupt(rng, group, model, sec, kind)
    full = [labels[g] if new[g] == sec[g] else model.labels[new[g]] for g in range(group.order)]
    order = list(range(group.order))
    rng.shuffle(order)
    path = writer.write(job_id.replace("/", "_") + ".cover", group_file_text(group, full, order))
    expect = {
        "type": "file_closure_fail",
        "model": [model.p, model.q],
        "factors": list(group.factors),
        "witness": closure_expectation(group, model, new, witness),
    }
    return Job(job_id, "cli", _verify_args(model.p, model.q, path), expect)


def _verify_args(p: int, q: int, path: str, fmt: str = "json") -> list[str]:
    return [
        "cover", "verify", "--p", str(p), "--q", str(q), "--group", path,
        "--format", fmt, "--threads", str(THREADS),
    ]


def _pass_file_job(job_id, model, group, labels, rng, writer, refs) -> Job:
    order = list(range(group.order))
    rng.shuffle(order)
    path = writer.write(job_id.replace("/", "_") + ".cover", group_file_text(group, labels, order))
    ref = refs["models"][f"{model.p},{model.q}"]
    n = group.order
    expect = {
        "type": "file_pass",
        "payload": {
            "model": ref["header"],
            "group": {"kind": "abelian", "factors": list(group.factors), "order": n},
            "verdict": "PASS",
            "stats": {
                "group_order": n,
                "pairs_checked": n * n,
                "admissible_triples": ref["admissible_triples"],
                "realized_triples": ref["admissible_triples"],
            },
            "witness": None,
        },
    }
    return Job(job_id, "cli", _verify_args(model.p, model.q, path), expect)


def abelian_jobs(seed: int, refs: dict, writer: InputWriter) -> list[Job]:
    jobs = []
    for name, base, fmt in (("ising_z4", ISING_Z4, "json"),
                            ("tricritical_z12", TRICRITICAL_Z12, "text")):
        (p, q), factors, labels = base
        model, group = Model(p, q), Group(factors)
        path = writer.write(
            f"abelian_{name}.cover", group_file_text(group, labels, range(group.order))
        )
        job_id = f"abelian/{name}/{fmt}"
        jobs.append(_digest_job(job_id, "cli", _verify_args(p, q, path, fmt), refs))
    for p, q in ABELIAN_Z2_FILES:
        rng = random.Random(f"{seed}/abelian/z2/{p}-{q}")
        model = Model(p, q)
        group, labels = canonical_z2_labels(model, rng)
        jobs.append(_pass_file_job(f"abelian/z2/{p}-{q}", model, group, labels, rng, writer, refs))
    for name, base in (("ising", ISING_Z4), ("tricritical", TRICRITICAL_Z12)):
        rng = random.Random(f"{seed}/abelian/pullback/{name}")
        model = Model(*base[0])
        group, labels = pullback_labels(base, PULLBACK_K_ORDER[name], rng)
        jobs.append(_pass_file_job(f"abelian/pullback/{name}", model, group, labels, rng, writer, refs))
    for p, q, k in SEARCHES:
        args = ["cover", "search", "--p", str(p), "--q", str(q), "--max-order", str(k),
                "--format", "json", "--allow-large"]
        jobs.append(_digest_job(f"abelian/search/{p}-{q}", "cli", args, refs))
    random.Random(f"{seed}/abelian").shuffle(jobs)
    return jobs


def tables_jobs(seed: int, refs: dict, writer: InputWriter) -> list[Job]:
    jobs = []
    tables = [("kac", model, fmt) for model in TABLE_MODELS for fmt in ("text", "json")]
    tables += [("fusion", model, fmt) for model, fmt in FUSION_TABLES]
    for cmd, (p, q), fmt in tables:
        args = [cmd, "--p", str(p), "--q", str(q), "--format", fmt]
        jobs.append(_digest_job(f"tables/{cmd}/{p}-{q}/{fmt}", "cli", args, refs))
    for p, q in GOLDEN_MODELS:
        for cmd in ("kac", "fusion"):
            golden = f"tests/golden/{cmd}_{p}_{q}.txt"
            jobs.append(
                Job(
                    f"tables/{cmd}/{p}-{q}/golden",
                    "cli",
                    [cmd, "--p", str(p), "--q", str(q)],
                    {"type": "golden", "text": (writer.root / golden).read_text()},
                )
            )
    random.Random(f"{seed}/tables").shuffle(jobs)
    return jobs


BUILDERS = {
    "sweep": sweep_jobs,
    "refute": refute_jobs,
    "abelian": abelian_jobs,
    "tables": tables_jobs,
}


def build_jobs(workload: str, seed: int, refs: dict, writer: InputWriter) -> list[Job]:
    return BUILDERS[workload](seed, refs, writer)


def jobs_digest(jobs: list[Job]) -> str:
    """Digest of the job specs, which hold every seeded choice not in a file."""
    return sha256(json.dumps([[j.id, j.kind, j.args, j.expect] for j in jobs], sort_keys=True))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check(job: Job, exit_code: int, stdout: str) -> str | None:
    """None if the job's output is right, else the reason it is wrong."""
    exp = job.expect
    kind = exp["type"]
    try:
        if kind == "digest":
            if exit_code != exp["exit"]:
                return f"exit code {exit_code}, expected {exp['exit']}"
            if sha256(stdout) != exp["sha256"]:
                return "stdout differs from the reference"
            return None
        if kind == "golden":
            if exit_code != 0:
                return f"exit code {exit_code}, expected 0"
            return None if stdout == exp["text"] else "stdout differs from the golden table"
        if kind == "theorem_pass":
            return _check_theorem_pass(exp, exit_code, stdout)
        if kind == "theorem_closure_fail":
            return _check_theorem_closure(exp, exit_code, stdout)
        if kind == "theorem_uncovered_fail":
            return _check_theorem_uncovered(exp, exit_code, stdout)
        if kind == "file_pass":
            if exit_code != 0:
                return f"exit code {exit_code}, expected 0"
            got = json.loads(stdout)
            return None if got == exp["payload"] else "certificate differs from the expected PASS"
        if kind == "file_closure_fail":
            return _check_file_closure(exp, exit_code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    raise ValueError(f"unknown expectation type {kind!r}")


def _check_theorem_pass(exp: dict, exit_code: int, stdout: str) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    out = json.loads(stdout)
    if out["exit"] != 0 or json.loads(out["verify"])["verdict"] != "PASS":
        return "canonical cover did not PASS"
    if sha256(out["verify"]) != exp["sha256"]:
        return "certificate differs from the reference"
    if out["isomorphic"] is not True:
        return "partition algebra is not isomorphic to the Verlinde algebra"
    return None


def _recheck_closure(model: Model, group: Group, g1: int, g2: int, g3: int, labels) -> str | None:
    """Independent re-check of a closure witness: group law and admissibility."""
    if group.add(g1, g2) != g3:
        return f"witness {g1} + {g2} != {g3} under the group law"
    if model.label_admissible(*labels):
        return f"witness triple {labels} is admissible"
    return None


def _check_theorem_closure(exp: dict, exit_code: int, stdout: str) -> str | None:
    if exit_code != 1:
        return f"exit code {exit_code}, expected 1"
    out = json.loads(stdout)
    w = out["witness"]
    if out["verdict"] != "FAIL" or w["kind"] != "closure_violation":
        return "corrupted map did not FAIL with a closure witness"
    got = {"g1": w["g1"], "g2": w["g2"], "g3": w["g3"], "sectors": w["sectors"]}
    if got != exp["witness"]:
        return f"witness {got} differs from the predicted {exp['witness']}"
    model = Model(*exp["model"])
    bits = exp["order"].bit_length() - 1
    bad = _recheck_closure(model, Group((2,) * bits), w["g1"], w["g2"], w["g3"], w["sectors"])
    if bad:
        return bad
    if out["partition_at_witness"] != 1:
        return "partition algebra misses the witness triple"
    if out["isomorphic"] is not False:
        return "corrupted partition algebra reported isomorphic"
    return None


def _check_theorem_uncovered(exp: dict, exit_code: int, stdout: str) -> str | None:
    if exit_code != 1:
        return f"exit code {exit_code}, expected 1"
    out = json.loads(stdout)
    w = out["witness"]
    if out["verdict"] != "FAIL" or w["kind"] != "uncovered_triple":
        return "all-vacuum map did not FAIL with an uncovered triple"
    if w["sectors"] != exp["sectors"]:
        return f"witness {w['sectors']} differs from the predicted {exp['sectors']}"
    if not Model(*exp["model"]).label_admissible(*w["sectors"]):
        return f"uncovered triple {w['sectors']} is not admissible"
    if out["isomorphic"] is not False:
        return "all-vacuum partition algebra reported isomorphic"
    return None


def _check_file_closure(exp: dict, exit_code: int, stdout: str) -> str | None:
    if exit_code != 1:
        return f"exit code {exit_code}, expected 1"
    out = json.loads(stdout)
    w = out["witness"]
    if out["verdict"] != "FAIL" or w["kind"] != "closure_violation":
        return "corrupted group file did not FAIL with a closure witness"
    group = Group(exp["factors"])
    g1, g2, g3 = (group.index(w[key]) for key in ("g1", "g2", "g3"))
    labels = [[s["m"], s["n"]] for s in w["sectors"]]
    got = {"g1": g1, "g2": g2, "g3": g3, "sectors": labels}
    if got != exp["witness"]:
        return f"witness {got} differs from the predicted {exp['witness']}"
    return _recheck_closure(Model(*exp["model"]), group, g1, g2, g3, labels)
