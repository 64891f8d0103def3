"""Command-line surface: tables, cover verification, cyclic cover search.

Subcommands
-----------
* ``kac``          - the (p-1) x (q-1) grid of conformal weights, with c and N
* ``fusion``       - the N x N fusion rule table in bracket notation
* ``cover verify`` - check the canonical 2-group cover, or a labeled group
                     read from a file, against the model's fusion rules;
                     either is a ``CoverMap`` over a
                     ``certificates.AbelianGroupSpec`` that goes through one
                     ``verify_cover`` and one certificate renderer, and its
                     group prints itself and its elements
* ``cover search`` - exhaustively search cyclic groups for covers

Every subcommand takes ``--format text|json``.  Text output is stable and
golden-tested; JSON output is ``{"model": {p, q, c, N}, ...}`` with exact
rationals rendered as ``num/den`` strings, and round-trips through the
standard json parser.  The JSON text is byte-identical to
``json.dumps(payload, indent=2)`` but written in one pass, and only the
requested format is rendered: a JSON run never formats the text lines.

Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage or input error,
3 internal error (pair counts failed their own check, the canonical
cover's SU(2) level check failed, or memory ran out; no verdict).

Group labeling files are line-oriented and hand-editable::

    # Ising fusion rules as Z4
    group 4
    0 -> 1,1
    1 -> 1,2
    2 -> 1,3
    3 -> 1,2

The header lists the invariant factors (``group 2 2`` for Z2 x Z2, bare
``group`` for the trivial group); each following line maps an element,
written as comma-separated digits, to a Kac label m,n.  ``#`` starts a
comment.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import CapacityError, CountCheckError, GroupFileError
from .minimal_model import (
    ModelParams,
    Record,
    Sector,
    canonicalize,
    central_charge,
    check_fusion_cells,
    fraction_str,
    fusion_products,
    fusion_tensor,
    kac_table,
    sectors,
)

if TYPE_CHECKING:
    from .certificates import CoverMap

# Cyclic orders above this need --allow-large.
DEFAULT_SEARCH_BUDGET = 24

# numpy and the cover modules are imported by the commands that use them:
# `kac` runs on exact rationals, and `fusion` and `cover search` on the
# closed-form admissible ranges, so all three start without numpy.


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2)``, written in one pass.

    Only the types the payloads hold are accepted: dict (with str keys),
    list, str, int, True, False and None; anything else, subclasses
    included, raises TypeError.  A dict object the payload holds more than
    once is written once per indent depth.  ``json`` is imported here, so
    text output loads none of it.
    """
    from json.encoder import encode_basestring_ascii as encode

    memo: dict[tuple[int, int], str] = {}

    # Strings are most of the leaves: the comprehensions below encode them
    # in place rather than through a call to write.
    def write(value, depth: int) -> str:
        kind = type(value)
        if kind is dict:
            key = (id(value), depth)
            text = memo.get(key)
            if text is None:
                text = "{}"
                if value:
                    outer = "\n" + "  " * depth
                    inner = outer + "  "
                    text = "{" + inner + ("," + inner).join(
                        [encode(k) + ": " + (encode(v) if type(v) is str else write(v, depth + 1))
                         for k, v in value.items()]
                    ) + outer + "}"
                memo[key] = text
            return text
        if kind is list:
            if not value:
                return "[]"
            outer = "\n" + "  " * depth
            inner = outer + "  "
            return "[" + inner + ("," + inner).join(
                [encode(v) if type(v) is str else write(v, depth + 1) for v in value]
            ) + outer + "]"
        if kind is str:
            return encode(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    return write(payload, 0)


class OutputDocument(Record):
    """A command result: its machine payload and, on first use, its text.

    ``render`` is left out of the repr and of equality; holding a dict, a
    document is not hashable.
    """

    _fields = ("format", "payload")

    def __init__(self, format: str, payload: dict, render: Callable[[], str]) -> None:
        vars(self).update(format=format, payload=payload, render=render)

    @cached_property
    def text(self) -> str:
        return self.render()

    def emit(self) -> str:
        if self.format == "json":
            return _json_text(self.payload)
        return self.text


def _model_header(params: ModelParams) -> dict:
    return {
        "p": params.p,
        "q": params.q,
        "c": fraction_str(central_charge(params)),
        "N": params.n_sectors,
    }


def _sector_payload(s: Sector) -> dict:
    return {"index": s.index, "m": s.m, "n": s.n, "h": fraction_str(s.h), "name": s.name}


def _format_table(widths: list[int], rows: Iterable[list[str]]) -> str:
    """Rows of cells, each left-aligned in its column's width, two spaces
    apart; the rows are formatted one line at a time."""
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def _table_text(title: str, model: dict, widths: list[int], rows: Iterable[list[str]]) -> str:
    return "\n".join(
        [
            f"{title} of the ({model['p']},{model['q']}) minimal model",
            f"c = {model['c']}, N = {model['N']} sectors",
            _format_table(widths, rows),
        ]
    )


# ---------------------------------------------------------------------------
# kac / fusion tables
# ---------------------------------------------------------------------------

def cmd_kac(p: int, q: int, format: str = "text") -> OutputDocument:
    """The full Kac table of weights h_{m,n}."""
    params = ModelParams(p, q)
    grid = [[fraction_str(h) for h in row] for row in kac_table(params)]
    payload = {"model": _model_header(params), "kac_table": grid}

    def render() -> str:
        rows = [["h_{m,n}"] + [f"n={n}" for n in range(1, q)]]
        rows += [[f"m={m}"] + grid[m - 1] for m in range(1, p)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        return _table_text("Kac table", payload["model"], widths, rows)

    return OutputDocument(format, payload, render)


def cmd_fusion(p: int, q: int, format: str = "text") -> OutputDocument:
    """The N x N fusion rule table; each cell lists the sectors of S_i x S_j."""
    params = ModelParams(p, q)
    products = fusion_products(params)
    secs = sectors(params)
    names = [s.name for s in secs]
    # Fusion is commutative: each cell's name list is built once and held
    # at (i, j) and (j, i).  The JSON writer writes a shared list in full.
    cells: list[list[list[str]]] = []
    for i, row in enumerate(products):
        cells.append([cells[j][i] if j < i else [names[k] for k in ks]
                      for j, ks in enumerate(row)])
    payload = {
        "model": _model_header(params),
        "sectors": [_sector_payload(s) for s in secs],
        "table": cells,
    }

    def render() -> str:
        corner = "[h] x [h']"
        # The table is symmetric, so column j holds the cells of row j.
        widths = [max(len(corner), *map(len, names))]
        widths += [max(len(name), *(len("+".join(cell)) for cell in row))
                   for name, row in zip(names, cells)]

        def rows():
            yield [corner] + names
            for name, row in zip(names, cells):
                yield [name] + ["+".join(cell) for cell in row]

        return _table_text("Fusion rules", payload["model"], widths, rows())

    return OutputDocument(format, payload, render)


# ---------------------------------------------------------------------------
# group labeling files
# ---------------------------------------------------------------------------

def _read_lines(path: Path) -> Iterator[str]:
    """The lines of a file, read one at a time: a file refused at its header
    costs no more memory than its first lines.  A leading byte-order mark is
    dropped."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            yield from f
    except (OSError, UnicodeDecodeError) as e:
        raise GroupFileError(f"cannot read group file {path}: {e}")


def _content_lines(path: Path) -> Iterator[tuple[str, str]]:
    """(file:line, text) of each line that is not blank once its comment is
    cut off."""
    for lineno, raw in enumerate(_read_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{path}:{lineno}", line


def parse_group_file(path: str | Path, params: ModelParams) -> CoverMap:
    """Parse a labeling file into a CoverMap over its group for the given model.

    Raises GroupFileError with file:line diagnostics on any malformation.
    The header is checked by ``_kernels.check_count_size`` against the
    model's N, so a group whose pair counts would not be exact, or whose
    transform matrix is too big, raises CapacityError before any element
    line is read.  Past the header the file is held as one list of |G|
    sector indices, -1 until labeled: each element line goes straight to
    its code (its digits by Horner's rule, code = code * k + digit) and its
    label to its sector (``canonicalize``, whose range error is reported at
    the line), so no element is held as a tuple.  A file repeats a few
    labels many times, so each label text is checked and looked up once,
    on its first line.
    """
    from ._kernels import check_count_size
    from .certificates import AbelianGroupSpec, CoverMap

    path = Path(path)
    lines = _content_lines(path)
    where, line = next(lines, (None, None))
    if line is None:
        raise GroupFileError(f"{path}: missing 'group k1 k2 ...' header")
    parts = line.split()
    if parts[0] != "group":
        raise GroupFileError(f"{where}: expected 'group k1 k2 ...' header, got {line!r}")
    try:
        factors = tuple(int(x) for x in parts[1:])
    except ValueError:
        raise GroupFileError(f"{where}: non-integer invariant factor in {parts[1:]}")
    try:
        spec = AbelianGroupSpec(factors)
    except ValueError as e:
        raise GroupFileError(f"{where}: {e}")
    check_count_size(params.n_sectors, factors)
    t = len(factors)
    sec = [-1] * spec.order
    sector_of: dict[str, int] = {}
    for where, line in lines:
        left, arrow, right = line.partition("->")
        if not arrow:
            raise GroupFileError(f"{where}: expected 'e1,...,et -> m,n', got {line!r}")
        left = left.strip()
        try:
            digits = [int(x) for x in left.split(",")] if left else []
        except ValueError:
            raise GroupFileError(f"{where}: non-integer element digits {left!r}")
        if len(digits) != t:
            raise GroupFileError(f"{where}: element {left!r} has {len(digits)} digits, expected {t}")
        code = 0
        for u, (digit, k) in enumerate(zip(digits, factors), 1):
            if not 0 <= digit < k:
                raise GroupFileError(f"{where}: digit {u} of element {left!r} outside 0..{k - 1}")
            code = code * k + digit
        sector = sector_of.get(right)
        if sector is None:
            try:
                m, n = (int(x) for x in right.strip().split(","))
            except ValueError:
                raise GroupFileError(f"{where}: expected Kac label 'm,n', got {right.strip()!r}")
            try:
                sector = sector_of[right] = canonicalize(params, m, n).index
            except ValueError as e:
                raise GroupFileError(f"{where}: {e}")
        if sec[code] >= 0:
            raise GroupFileError(f"{where}: element {left!r} labeled twice")
        sec[code] = sector
    # The first gap in code order, the canonical element order.
    if -1 in sec:
        missing = tuple(spec.element_json(sec.index(-1)))
        raise GroupFileError(f"{path}: labeling is partial: element {missing} has no sector")
    if sec[0] != 0:
        raise GroupFileError(f"{path}: the identity element must be labeled by the (1,1) sector")
    return CoverMap(spec, sec, sectors(params))


# ---------------------------------------------------------------------------
# cover verify / cover search
# ---------------------------------------------------------------------------

def _element_text(shown) -> str:
    """An element's printed form (``element_json``) as text: a coordinate
    string stays as it is, digits are joined by commas, and the trivial
    group's one element prints as ()."""
    return shown if type(shown) is str else ",".join(map(str, shown)) or "()"


def _witness_text(witness: dict) -> str:
    """A witness payload (``_witness_payload``) in words."""
    i, j, k = (s["name"] for s in witness["sectors"])
    if witness["kind"] == "closure_violation":
        g1, g2, g3 = (_element_text(witness[g]) for g in ("g1", "g2", "g3"))
        return f"{g1} + {g2} = {g3} maps to {i} x {j} -> {k}, but {k} does not occur in {i} x {j}"
    return f"admissible triple {i} x {j} -> {k} is realized by no pair of group elements"


def _witness_payload(witness, group) -> dict:
    from .certificates import ClosureViolation

    if isinstance(witness, ClosureViolation):
        return {
            "kind": "closure_violation",
            "g1": group.element_json(witness.g1),
            "g2": group.element_json(witness.g2),
            "g3": group.element_json(witness.g3),
            "sectors": [_sector_payload(s) for s in witness.sectors],
        }
    return {
        "kind": "uncovered_triple",
        "sectors": [_sector_payload(s) for s in witness.sectors],
    }


def cmd_cover_verify(
    p: int,
    q: int,
    group_file: str | None = None,
    format: str = "text",
    threads: int = 1,
) -> tuple[OutputDocument, int]:
    """Verify a cover; returns the document and the exit code (0 PASS, 1 FAIL)."""
    from .certificates import verify_cover

    params = ModelParams(p, q)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # Either cover is checked against the fusion tensor, and a group file's
    # labels are canonicalized against the model's label table, which lists
    # every sector: refuse an oversized model before anything is built.  The
    # parser refuses an oversized group at its header.
    check_fusion_cells(params)
    if group_file is None:
        from .two_group_cover import GroupContext, canonical_cover

        cover = canonical_cover(GroupContext(params))
    else:
        cover = parse_group_file(group_file, params)
    group = cover.context
    cert = verify_cover(cover, fusion_tensor(params))
    payload = {
        "model": _model_header(params),
        "group": {"kind": group.kind, "factors": list(group.factors), "order": group.order},
        "verdict": cert.verdict,
        "stats": cert.stats,
        "witness": None if cert.witness is None else _witness_payload(cert.witness, group),
    }

    def render() -> str:
        lines = [
            f"Cover verification for the ({p},{q}) minimal model",
            f"group: {group.describe()} (order {cert.stats['group_order']})",
            f"verdict: {cert.verdict}",
            f"pairs checked: {cert.stats['pairs_checked']}",
            f"admissible sector triples: {cert.stats['admissible_triples']}",
            f"realized sector triples: {cert.stats['realized_triples']}",
        ]
        if payload["witness"] is not None:
            lines.append(f"witness: {_witness_text(payload['witness'])}")
        return "\n".join(lines)

    return OutputDocument(format, payload, render), (0 if cert.passed else 1)


def cmd_cover_search(
    p: int,
    q: int,
    max_order: int,
    format: str = "text",
    allow_large: bool = False,
) -> OutputDocument:
    """Search cyclic groups Z_k, k <= max_order, for covers of the fusion rules.

    Orders above ``DEFAULT_SEARCH_BUDGET`` are refused unless ``allow_large``,
    before the search module loads."""
    params = ModelParams(p, q)
    if max_order > DEFAULT_SEARCH_BUDGET and not allow_large:
        raise CapacityError(
            f"max_order {max_order} exceeds the search budget {DEFAULT_SEARCH_BUDGET}"
        )
    from .cover_search import search_cyclic_covers

    covers = search_cyclic_covers(params, max_order)
    secs = sectors(params)
    # One label record per distinct (element, sector), shared by every cover
    # that holds it: many covers reuse few labels.  An element is its code
    # and its group's factor count: code 0 prints as [] in the trivial group
    # and as [0] in Z_k.
    records: dict[tuple[int, int, int], dict] = {}

    def record(group, code: int, i: int) -> dict:
        key = (code, len(group.factors), i)
        if key not in records:
            s = secs[i]
            records[key] = {"element": group.element_json(code), "sector": [s.m, s.n], "name": s.name}
        return records[key]

    rendered = [
        {
            "factors": list(cover.context.factors),
            "order": cover.context.order,
            "labels": [record(cover.context, code, i) for code, i in enumerate(cover.labels)],
        }
        for cover in covers
    ]
    payload = {"model": _model_header(params), "max_order": max_order, "covers": rendered}

    def render() -> str:
        lines = [
            f"Cyclic covers of the ({p},{q}) minimal model fusion rules up to order {max_order}",
            f"found {len(covers)} cover(s)",
        ]
        for cover, shown in zip(covers, rendered):
            lines.append(f"{cover.context.describe()}:")
            for rec in shown["labels"]:
                m, n = rec["sector"]
                lines.append(f"  {_element_text(rec['element'])} <-> {rec['name']} ({m},{n})")
        return "\n".join(lines)

    return OutputDocument(format, payload, render)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="first model parameter (>= 2)")
    sub.add_argument("--q", type=int, required=True, help="second model parameter (>= 2, coprime to p)")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusioncover",
        description="Exact minimal-model fusion data and finite abelian group covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kac = sub.add_parser("kac", help="print the Kac table of conformal weights")
    _add_model_args(kac)
    kac.set_defaults(run=lambda a: (cmd_kac(a.p, a.q, a.format), 0))

    fusion = sub.add_parser("fusion", help="print the fusion rule table")
    _add_model_args(fusion)
    fusion.set_defaults(run=lambda a: (cmd_fusion(a.p, a.q, a.format), 0))

    cover = sub.add_parser("cover", help="verify or search fusion covers")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)

    verify = cover_sub.add_parser(
        "verify", help="verify the canonical 2-group cover or a labeled group file"
    )
    _add_model_args(verify)
    verify.add_argument("--group", metavar="FILE", help="group labeling file to verify")
    verify.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and checked to be >= 1; it has no effect: "
        "the witness scan on a closure FAIL runs on one thread and stops at the "
        "first row with a violation",
    )
    verify.set_defaults(run=lambda a: cmd_cover_verify(a.p, a.q, a.group, a.format, a.threads))

    search = cover_sub.add_parser("search", help="search cyclic groups for covers")
    _add_model_args(search)
    search.add_argument("--max-order", type=int, required=True, help="largest cyclic order to try")
    search.add_argument(
        "--allow-large",
        action="store_true",
        help=f"permit searches beyond the default budget {DEFAULT_SEARCH_BUDGET}",
    )
    search.set_defaults(
        run=lambda a: (
            cmd_cover_search(a.p, a.q, a.max_order, a.format, a.allow_large), 0
        )
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and print its document; return the command's exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.run(args)
        text = doc.emit()
    except (GroupFileError, CapacityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CountCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"internal error: out of memory: {e}", file=sys.stderr)
        return 3
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  The exit code is
        # still the command's; stdout now points at the null device, so the
        # interpreter's last flush of what is left cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
