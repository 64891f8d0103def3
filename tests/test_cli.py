"""CLI behavior: golden text tables, JSON round-trips, exit codes, group files."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusioncover import certificates, cli, cover_search, minimal_model, two_group_cover
from fusioncover.cli import (
    OutputDocument,
    cmd_cover_search,
    cmd_cover_verify,
    cmd_fusion,
    cmd_kac,
    main,
    parse_group_file,
)
from fusioncover.errors import CapacityError, GroupFileError, InputError
from fusioncover import (
    AbelianGroupSpec,
    GroupContext,
    ModelParams,
    Sector,
    _kernels,
    canonical_cover,
    fusion_tensor,
    sectors,
    verify_cover,
)

from conftest import exhaustive_scan, group_rows, run_python_with_peak_rss

GOLDEN = Path(__file__).parent / "golden"
COVERS = Path(__file__).parent.parent / "covers"
REFERENCES = Path(__file__).parent.parent / "perfbench" / "references.json"


def run_with_peak_rss(args, show_output=True, timeout=120):
    """Run the CLI in a child; return its exit code, peak RSS in KiB and stdout lines."""
    return run_python_with_peak_rss(["-m", "fusioncover.cli", *args], show_output, timeout)


def write_cover(tmp_path, text, name="test.cover"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_labeled(tmp_path, params, factors, indices, name):
    """A group file giving element g (big-endian mixed radix) sector indices[g]."""
    secs = sectors(params)
    lines = [" ".join(["group", *map(str, factors)])]
    for g, i in enumerate(indices):
        digits = []
        for k in reversed(factors):
            g, d = divmod(g, k)
            digits.append(str(d))
        lines.append(f"{','.join(reversed(digits))} -> {secs[i].m},{secs[i].n}")
    return write_cover(tmp_path, "\n".join(lines) + "\n", name)


def corrupted_z2_file(tmp_path):
    """The canonical (5,9) cover as a Z2^9 group file, one element relabeled."""
    params = ModelParams(5, 9)
    sec = canonical_cover(GroupContext(params)).sector_indices.copy()
    sec[300] = (sec[300] + 1) % params.n_sectors
    return params, (2,) * 9, write_labeled(tmp_path, params, (2,) * 9, sec, "z2.cover")


def corrupted_mixed_file(tmp_path):
    """The Z12 tricritical cover pulled back to Z12 x Z4, two labels swapped."""
    z12 = (0, 5, 1, 4, 2, 5, 3, 5, 2, 4, 1, 5)
    sec = [z12[g // 4] for g in range(48)]
    sec[21], sec[26] = sec[26], sec[21]
    params = ModelParams(4, 5)
    return params, (12, 4), write_labeled(tmp_path, params, (12, 4), sec, "mixed.cover")


class TestGoldenTables:
    @pytest.mark.parametrize("p,q", [(3, 4), (4, 5)])
    def test_kac_text_is_byte_identical(self, p, q):
        expected = (GOLDEN / f"kac_{p}_{q}.txt").read_bytes()
        got = (cmd_kac(p, q, "text").emit() + "\n").encode()
        assert got == expected

    @pytest.mark.parametrize("p,q", [(3, 4), (4, 5)])
    def test_fusion_text_is_byte_identical(self, p, q):
        expected = (GOLDEN / f"fusion_{p}_{q}.txt").read_bytes()
        got = (cmd_fusion(p, q, "text").emit() + "\n").encode()
        assert got == expected


class TestKacCommand:
    def test_payload_grid(self):
        doc = cmd_kac(3, 4, "json")
        assert doc.payload["model"] == {"p": 3, "q": 4, "c": "1/2", "N": 3}
        assert doc.payload["kac_table"] == [["0", "1/16", "1/2"], ["1/2", "1/16", "0"]]

    def test_degenerate_full_grid(self):
        # the (2,3) grid is 1 x 2 (and both entries vanish)
        doc = cmd_kac(2, 3, "json")
        assert doc.payload["kac_table"] == [["0", "0"]]
        assert doc.payload["model"]["N"] == 1


class TestFusionCommand:
    def test_payload_cells(self):
        doc = cmd_fusion(3, 4, "json")
        table = doc.payload["table"]
        assert table[1][1] == ["[0]", "[1/2]"]
        # vacuum row echoes the sector list
        names = [s["name"] for s in doc.payload["sectors"]]
        assert [cell for cell in table[0]] == [[n] for n in names]

    def test_tricritical_cell(self):
        doc = cmd_fusion(4, 5, "json")
        by_name = {s["name"]: s["index"] for s in doc.payload["sectors"]}
        i = by_name["[3/80]"]
        assert set(doc.payload["table"][i][i]) == {"[0]", "[3/5]", "[3/2]", "[1/10]"}

    @pytest.mark.parametrize("p,q", [(4, 5), (11, 12)])
    def test_cells_list_products_in_index_order(self, p, q):
        tensor = fusion_tensor(ModelParams(p, q))
        expected = [
            [
                [tensor.sectors[k].name for k in np.flatnonzero(tensor.coefficients[i, j])]
                for j in range(tensor.n)
            ]
            for i in range(tensor.n)
        ]
        assert cmd_fusion(p, q, "json").payload["table"] == expected


class TestJsonRoundTrip:
    def test_all_payload_kinds(self, tmp_path):
        docs = [
            cmd_kac(3, 4, "json"),
            cmd_fusion(4, 5, "json"),
            cmd_cover_verify(4, 5, None, "json")[0],
            cmd_cover_verify(3, 4, str(COVERS / "ising_z4.cover"), "json")[0],
            cmd_cover_search(3, 4, 4, "json"),
        ]
        # a FAIL certificate, to round-trip a witness
        bad = write_cover(
            tmp_path, "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 1,3\n"
        )
        docs.append(cmd_cover_verify(3, 4, bad, "json")[0])
        for doc in docs:
            assert json.loads(doc.emit()) == doc.payload


# Strings mix printable ASCII with the characters JSON escapes: quotes,
# backslashes, control characters, non-ASCII and astral code points.
JSON_STRINGS = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600'), st.characters())
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | JSON_STRINGS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_STRINGS, children, max_size=4),
    max_leaves=30,
)


@st.composite
def json_trees(draw):
    """A JSON tree holding one dict object at three depths."""
    shared = draw(st.dictionaries(JSON_STRINGS, JSON_VALUES, min_size=1, max_size=3))
    tree = draw(JSON_VALUES)
    return {"tree": tree, "shared": shared, "deeper": [shared, {"again": shared}], "empty": [[], {}]}


def model_documents(tmp_path):
    """Every document the four commands build at (3,4), (4,5) and (2,5), both formats."""
    bad = write_cover(tmp_path, "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 1,3\n")
    groups = {(3, 4): [str(COVERS / "ising_z4.cover"), bad],
              (4, 5): [str(COVERS / "tricritical_z12.cover")], (2, 5): []}
    docs = []
    for fmt in ("text", "json"):
        for (p, q), files in groups.items():
            docs += [cmd_kac(p, q, fmt), cmd_fusion(p, q, fmt), cmd_cover_search(p, q, 12, fmt)]
            docs += [cmd_cover_verify(p, q, path, fmt)[0] for path in [None, *files]]
    return docs


class TestJsonWriter:
    @settings(max_examples=300, derandomize=True)
    @given(json_trees())
    def test_writer_is_json_dumps_indent_2(self, tree):
        assert cli._json_text(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), np.int64(3)])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            cli._json_text({"list": [value]})

    def test_every_command_payload_is_json_dumps(self, tmp_path):
        docs = model_documents(tmp_path)
        assert any(doc.payload.get("verdict") == "FAIL" for doc in docs)
        for doc in docs:
            assert cli._json_text(doc.payload) == json.dumps(doc.payload, indent=2)
            if doc.format == "json":
                assert doc.emit() == json.dumps(doc.payload, indent=2)

    def test_search_shares_one_record_per_label(self):
        covers = cmd_cover_search(2, 5, 12, "json").payload["covers"]
        labels = [lab for cover in covers for lab in cover["labels"]]
        keys = {(tuple(lab["element"]), tuple(lab["sector"])) for lab in labels}
        assert len({id(lab) for lab in labels}) == len(keys) < len(labels)

    def test_json_never_renders_text(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("text rendered for a JSON document")

        bad = write_cover(tmp_path, "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 1,3\n")
        commands = [
            lambda fmt: cmd_kac(4, 5, fmt),
            lambda fmt: cmd_fusion(4, 5, fmt),
            lambda fmt: cmd_cover_search(4, 5, 12, fmt),
            lambda fmt: cmd_cover_verify(4, 5, str(COVERS / "tricritical_z12.cover"), fmt)[0],
            lambda fmt: cmd_cover_verify(3, 4, bad, fmt)[0],
        ]
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_table_text", refuse)
            patched.setattr(AbelianGroupSpec, "describe", refuse)
            docs = [command("json") for command in commands]
            for doc in docs:
                assert json.loads(doc.emit()) == doc.payload
        for doc, command in zip(docs, commands):
            assert doc.text == command("text").emit()


class TestCoverVerifyCommand:
    def test_canonical_pass(self):
        doc, code = cmd_cover_verify(4, 5, None, "json")
        assert code == 0
        assert doc.payload["verdict"] == "PASS"
        assert doc.payload["group"]["order"] == 16
        assert doc.payload["witness"] is None

    def test_group_file_pass(self):
        doc, code = cmd_cover_verify(3, 4, str(COVERS / "ising_z4.cover"), "json")
        assert code == 0
        assert doc.payload["group"] == {"kind": "abelian", "factors": [4], "order": 4}

    def test_z12_file_pass(self):
        doc, code = cmd_cover_verify(4, 5, str(COVERS / "tricritical_z12.cover"), "text")
        assert code == 0
        assert "verdict: PASS" in doc.text

    def test_fail_prints_witness(self, tmp_path):
        bad = write_cover(tmp_path, "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 1,3\n")
        doc, code = cmd_cover_verify(3, 4, bad, "text")
        assert code == 1
        assert "verdict: FAIL" in doc.text
        assert "witness:" in doc.text
        payload_doc, _ = cmd_cover_verify(3, 4, bad, "json")
        w = payload_doc.payload["witness"]
        assert w["kind"] == "closure_violation"
        assert w["g1"] == [1] and w["g2"] == [1] and w["g3"] == [2]

    def test_two_factor_witness_joins_digits_by_commas(self, tmp_path, capsys):
        text = "group 2 2\n0,0 -> 1,1\n0,1 -> 1,2\n1,0 -> 1,2\n1,1 -> 1,2\n"
        path = write_cover(tmp_path, text)
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", path]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "witness: 0,1 + 1,0 = 1,1 maps to [1/16] x [1/16] -> [1/16], but [1/16] "
            "does not occur in [1/16] x [1/16]"
        )

    def test_coset_witness_rendered_as_coordinates(self):
        # corrupting the canonical map is not reachable from the CLI; check
        # the coordinate rendering on a PASS certificate's group description
        doc, _ = cmd_cover_verify(3, 4, None, "json")
        assert doc.payload["group"]["kind"] == "two_group_quotient"
        assert doc.payload["group"]["factors"] == [2, 2]

    def test_threads_do_not_change_output(self, tmp_path):
        one = cmd_cover_verify(4, 7, None, "json", threads=1)[0]
        four = cmd_cover_verify(4, 7, None, "json", threads=4)[0]
        assert one.payload == four.payload
        params, _, bad = corrupted_z2_file(tmp_path)
        one = cmd_cover_verify(params.p, params.q, bad, "json", threads=1)[0]
        four = cmd_cover_verify(params.p, params.q, bad, "json", threads=4)[0]
        assert one.payload["verdict"] == "FAIL"
        assert one.payload == four.payload

    @pytest.mark.parametrize("make", [corrupted_z2_file, corrupted_mixed_file])
    def test_fail_witness_is_first_violation_of_full_scan(self, tmp_path, make):
        params, factors, path = make(tmp_path)
        cm = parse_group_file(path, params)
        tensor = fusion_tensor(params)
        d_flat = tensor.coefficients.reshape(-1)
        digits = _kernels.decode(np.arange(cm.context.order), factors)
        (g1, g2), realized = exhaustive_scan(
            cm.sector_indices, tensor.n, d_flat, group_rows(digits, factors)
        )
        assert g1 >= 0
        doc, code = cmd_cover_verify(params.p, params.q, path, "json")
        w = doc.payload["witness"]
        assert code == 1 and w["kind"] == "closure_violation"
        assert (w["g1"], w["g2"]) == (digits[g1].tolist(), digits[g2].tolist())
        assert doc.payload["stats"] == _kernels.scan_stats(
            cm.context.order, int(d_flat.sum()), int(np.count_nonzero(realized))
        )


    @pytest.mark.parametrize(
        "make,unused",
        [(corrupted_z2_file, "scan_pairs_group"), (corrupted_mixed_file, "scan_pairs_xor")],
    )
    def test_witness_scan_follows_the_invariant_factors(self, tmp_path, monkeypatch, make, unused):
        # Z2^t files are scanned by XOR of the element codes, others by digits.
        params, factors, path = make(tmp_path)
        cm = parse_group_file(path, params)
        d_flat = fusion_tensor(params).coefficients.reshape(-1)
        digits = _kernels.decode(np.arange(cm.context.order), factors)
        (g1, g2), _ = exhaustive_scan(
            cm.sector_indices, params.n_sectors, d_flat, group_rows(digits, factors)
        )

        def refuse(*args, **kwargs):
            raise AssertionError(f"{unused} called for factors {factors}")

        monkeypatch.setattr(_kernels, unused, refuse)
        doc, code = cmd_cover_verify(params.p, params.q, path, "json")
        w = doc.payload["witness"]
        assert code == 1 and (w["g1"], w["g2"]) == (digits[g1].tolist(), digits[g2].tolist())

    def test_group_files_verify_without_listing_elements(self, tmp_path, monkeypatch):
        # A PASS prints no element and a FAIL the three of its witness, once
        # each: the text reads them off the payload.
        element_json = AbelianGroupSpec.element_json
        printed = []

        def counted(spec, code):
            printed.append(code)
            return element_json(spec, code)

        _, _, bad = corrupted_mixed_file(tmp_path)
        monkeypatch.setattr(AbelianGroupSpec, "element_json", counted)
        for path, expected in [(str(COVERS / "tricritical_z12.cover"), 0), (bad, 1)]:
            for fmt in ("text", "json"):
                printed.clear()
                doc, code = cmd_cover_verify(4, 5, path, fmt)
                assert code == expected and doc.emit()
                assert len(printed) == 3 * expected

    SWEEP = sorted(k for k in json.loads(REFERENCES.read_text())["digests"] if k.startswith("sweep/"))

    def test_sweep_covers_every_benchmark_model(self):
        assert len(self.SWEEP) == 34

    @pytest.mark.parametrize("job", SWEEP)
    def test_canonical_verify_matches_reference_digest(self, job):
        # A sweep digest is of the certificate document alone, with no newline.
        p, q = map(int, job.removeprefix("sweep/").split("-"))
        digests = json.loads(REFERENCES.read_text())["digests"]
        doc, code = cmd_cover_verify(p, q, format="json")
        assert code == 0
        assert hashlib.sha256(doc.emit().encode()).hexdigest() == digests[job]

    @pytest.mark.parametrize(
        "name,p,q,fmt", [("ising_z4", 3, 4, "json"), ("tricritical_z12", 4, 5, "text")]
    )
    def test_group_file_verify_matches_reference_digest(self, name, p, q, fmt):
        digests = json.loads(REFERENCES.read_text())["digests"]
        doc, code = cmd_cover_verify(p, q, str(COVERS / f"{name}.cover"), fmt)
        out = doc.emit() + "\n"
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[f"abelian/{name}/{fmt}"]


class TestCoverSearchCommand:
    def test_finds_ising_z4(self):
        doc = cmd_cover_search(3, 4, 4, "json")
        covers = doc.payload["covers"]
        assert len(covers) == 1
        assert covers[0]["factors"] == [4]
        assert [lab["name"] for lab in covers[0]["labels"]] == [
            "[0]",
            "[1/16]",
            "[1/2]",
            "[1/16]",
        ]

    def test_empty_below_profile_bound(self):
        doc = cmd_cover_search(3, 4, 2, "json")
        assert doc.payload["covers"] == []

    def test_text_lists_correspondence(self):
        doc = cmd_cover_search(4, 5, 12, "text")
        assert "Z12:" in doc.text
        assert "6 <-> [3/2] (1,4)" in doc.text

    def test_text_matches_payload(self):
        doc = cmd_cover_search(2, 5, 12, "text")
        lines = doc.text.splitlines()[2:]
        expected = []
        for cover in doc.payload["covers"]:
            expected.append(f"Z{cover['order']}:")
            for lab in cover["labels"]:
                m, n = lab["sector"]
                expected.append(f"  {lab['element'][0]} <-> {lab['name']} ({m},{n})")
        assert len(doc.payload["covers"]) > 1
        assert lines == expected

    def test_identity_prints_by_its_group(self):
        # Code 0 is () / [] in the trivial group and 0 / [0] in Z2 and Z3.
        text = cmd_cover_search(2, 3, 3, "text").emit()
        assert text.splitlines() == [
            "Cyclic covers of the (2,3) minimal model fusion rules up to order 3",
            "found 3 cover(s)",
            "trivial group:",
            "  () <-> [0] (1,1)",
            "Z2:",
            "  0 <-> [0] (1,1)",
            "  1 <-> [0] (1,1)",
            "Z3:",
            "  0 <-> [0] (1,1)",
            "  1 <-> [0] (1,1)",
            "  2 <-> [0] (1,1)",
        ]
        payload = json.loads(cmd_cover_search(2, 3, 3, "json").emit())
        assert [(c["factors"], c["order"]) for c in payload["covers"]] == [
            ([], 1), ([2], 2), ([3], 3)
        ]
        assert [[lab["element"] for lab in c["labels"]] for c in payload["covers"]] == [
            [[]], [[0], [1]], [[0], [1], [2]]
        ]
        labels = [lab for c in payload["covers"] for lab in c["labels"]]
        assert all(lab == {"element": lab["element"], "sector": [1, 1], "name": "[0]"}
                   for lab in labels)

    @pytest.mark.parametrize("p,q,max_order", [(2, 7, 24), (2, 9, 20), (4, 5, 40)])
    def test_benchmark_searches_match_reference_digests(self, p, q, max_order):
        # The digest is of stdout, i.e. the emitted document plus print's newline.
        digests = json.loads(REFERENCES.read_text())["digests"]
        out = cmd_cover_search(p, q, max_order, "json", allow_large=True).emit() + "\n"
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == digests[f"abelian/search/{p}-{q}"]


    @pytest.mark.parametrize(
        "cmd,p,q,fmt",
        [("kac", p, q, fmt) for p, q in [(11, 12), (13, 14), (15, 16), (16, 17)]
         for fmt in ("text", "json")]
        + [("fusion", 11, 12, "json"), ("fusion", 13, 14, "text"), ("fusion", 16, 17, "json")],
    )
    def test_benchmark_tables_match_reference_digests(self, cmd, p, q, fmt):
        digests = json.loads(REFERENCES.read_text())["digests"]
        command = {"kac": cmd_kac, "fusion": cmd_fusion}[cmd]
        out = command(p, q, fmt).emit() + "\n"
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == digests[f"tables/{cmd}/{p}-{q}/{fmt}"]


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        assert main(["cover", "verify", "--p", "3", "--q", "4"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_fail_is_one(self, tmp_path, capsys):
        bad = write_cover(tmp_path, "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 1,3\n")
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", bad]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_usage_errors_are_two(self, tmp_path, capsys):
        assert main(["kac", "--p", "4", "--q", "6"]) == 2
        assert "coprime" in capsys.readouterr().err
        assert main(["cover", "search", "--p", "3", "--q", "4", "--max-order", "30"]) == 2
        assert "budget" in capsys.readouterr().err
        assert main(["cover", "verify", "--p", "2", "--q", "1025"]) == 2
        assert "max(p, q) <= 513" in capsys.readouterr().err
        missing = str(tmp_path / "missing.cover")
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", missing]) == 2

    def test_out_of_memory_is_three(self, monkeypatch, capsys):
        # A run that runs out of memory has no verdict: it must not read as FAIL.
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 128. MiB")

        monkeypatch.setattr(_kernels, "pair_support", exhausted)
        ising = str(COVERS / "ising_z4.cover")
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", ising]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: out of memory: Unable to allocate 128. MiB\n"

    @pytest.mark.parametrize("error", [OverflowError("int too large to convert"),
                                       AssertionError("mask drifted"),
                                       TypeError("unsupported operand")],
                             ids=["overflow", "assertion", "type"])
    def test_any_other_fault_is_three(self, monkeypatch, capsys, error):
        # A crash in the proof is an internal fault, not a FAIL verdict: one
        # line on stderr, no traceback and nothing on stdout.
        def crash(*levels):
            raise error

        monkeypatch.setattr(two_group_cover, "check_su2_levels", crash)
        assert main(["cover", "verify", "--p", "4", "--q", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"internal error: {type(error).__name__}: {error}\n"

    def test_refusals_are_input_errors(self, ising):
        # Exit 2 is InputError alone; these are the refusals that are not
        # CapacityError or GroupFileError.
        assert issubclass(CapacityError, InputError) and issubclass(GroupFileError, InputError)
        for refused in (lambda: ModelParams(4, 6), lambda: ModelParams(1, 4),
                        lambda: ModelParams(3, 10_001), lambda: cmd_cover_verify(3, 4, threads=0),
                        lambda: cover_search.search_cyclic_covers(ising, 0)):
            with pytest.raises(InputError):
                refused()

    def test_internal_value_error_is_three(self, monkeypatch, capsys):
        # A bug's ValueError is no usage error: only InputError exits 2.
        def crash(*levels):
            raise ValueError("internal bug")

        monkeypatch.setattr(two_group_cover, "check_su2_levels", crash)
        assert main(["cover", "verify", "--p", "4", "--q", "5"]) == 3
        assert capsys.readouterr() == ("", "internal error: ValueError: internal bug\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["ising_z4", "tricritical_z12"])
    def test_group_file_with_byte_order_mark(self, tmp_path, capsys, name, fmt):
        original = COVERS / f"{name}.cover"
        bom = tmp_path / f"{name}.cover"
        bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        p, q = ("3", "4") if name == "ising_z4" else ("4", "5")
        runs = []
        for path in (original, bom):
            code = main(["cover", "verify", "--p", p, "--q", q, "--group", str(path),
                         "--format", fmt])
            runs.append((code, capsys.readouterr().out))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("where", ["header", "bom_header", "last_line"])
    def test_undecodable_group_file_names_its_path(self, tmp_path, capsys, where):
        if where == "header":
            p, q, data = 3, 4, b"group 4 \xff\n0 -> 1,1\n"
        elif where == "bom_header":
            p, q, data = 3, 4, b"\xef\xbb\xbfgroup 4 \xff\n0 -> 1,1\n"
        else:
            # Past the reader's first buffer: the header and most labels
            # are parsed before the bad byte is decoded.
            params, _, path = corrupted_z2_file(tmp_path)
            p, q, data = params.p, params.q, Path(path).read_bytes()[:-2] + b"\xff\n"
            assert len(data) > 8192
        bad = tmp_path / "latin1.cover"
        bad.write_bytes(data)
        assert main(["cover", "verify", "--p", str(p), "--q", str(q), "--group", str(bad)]) == 2
        assert f"cannot read group file {bad}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "# a comment\n\n   \n  # another, indented\n"],
                             ids=["empty", "comments-and-blanks"])
    def test_group_file_without_a_header_is_refused(self, tmp_path, capsys, text):
        path = write_cover(tmp_path, text)
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: missing 'group k1 k2 ...' header\n"

    def test_huge_group_header_is_refused_at_once(self, tmp_path, capsys):
        big = write_cover(tmp_path, "group 100000 100000\n0,0 -> 1,1\n")
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", big]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_group_file_of_many_pairs_gets_a_verdict(self, tmp_path, capsys):
        # Over 2^26 pairs, but its 3 x 8193 transform matrix is far under the
        # bound, so it is counted.
        lines = "".join(f"{e} -> 1,1\n" for e in range(8193))
        big = write_cover(tmp_path, "group 8193\n" + lines)
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", big]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1:3] == ["group: Z8193 (order 8193)", "verdict: FAIL"]
        assert out[-1] == (
            "witness: admissible triple [0] x [1/16] -> [1/16] is realized by no pair "
            "of group elements"
        )

    @pytest.mark.parametrize("p,q", [(9, 14), (16, 17)])
    def test_group_above_exactness_bound_refused_before_anything_is_built(
        self, p, q, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("nothing may be built for a refused group")

        # Z2^18 is refused at its header: the malformed line after it would
        # be a different error if it were read.
        big = write_cover(tmp_path, "group" + " 2" * 18 + "\nnot an element line\n")
        monkeypatch.setattr(cli, "fusion_tensor", never)
        monkeypatch.setattr(certificates, "verify_cover", never)
        assert main(["cover", "verify", "--p", str(p), "--q", str(q), "--group", big]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2^17" in err

    @pytest.mark.parametrize("p,q", [(2, 1025), (514, 515), (9999, 10000)])
    def test_canonical_above_level_cap_refused(self, p, q, capsys, monkeypatch):
        # The canonical map refuses the model when it is built.
        def never(*args, **kwargs):
            raise AssertionError("nothing may be built for a refused model")

        monkeypatch.setattr(cli, "fusion_tensor", never)
        monkeypatch.setattr(certificates, "verify_cover", never)
        monkeypatch.setattr(Sector, "__init__", never)
        monkeypatch.setattr(two_group_cover, "check_su2_levels", never)
        assert main(["cover", "verify", "--p", str(p), "--q", str(q)]) == 2
        err = capsys.readouterr().err
        level = max(p, q) - 2
        assert err == (
            f"error: the canonical cover of the ({p},{q}) model is proved at SU(2) level "
            f"{level}, over the budget of 511 (max(p, q) <= 513)\n"
        )

    def test_group_file_above_fusion_cap_refused_before_reading(self, capsys, monkeypatch):
        # A group file's verify reads the tensor's array: the cell cap holds,
        # and the parser lists the sectors, which check it, before it opens
        # the file.
        def never(*args, **kwargs):
            raise AssertionError("a refused model's group file may not be read")

        monkeypatch.setattr(cli, "_content_lines", never)
        ising = str(COVERS / "ising_z4.cover")
        assert main(["cover", "verify", "--p", "30", "--q", "31", "--group", ising]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "N <= 256" in err

    @pytest.mark.parametrize("p,q", [(30, 31), (40, 41), (100, 101)])
    def test_canonical_past_the_fusion_cap_passes(self, p, q, capsys, monkeypatch):
        # The proof reads no array and lists no sector, so the cell cap of
        # the fusion tensor does not bound it.
        def never(*args, **kwargs):
            raise AssertionError("a canonical PASS reads no array and lists no sector")

        monkeypatch.setattr(minimal_model._ModelTensor, "coefficients", property(never))
        monkeypatch.setattr(Sector, "__init__", never)
        assert main(["cover", "verify", "--p", str(p), "--q", str(q)]) == 0
        out = capsys.readouterr().out.splitlines()
        order = 2 ** (p + q - 5)
        triples = comb(p + 1, 3) * comb(q + 1, 3) // 4
        assert out == [
            f"Cover verification for the ({p},{q}) minimal model",
            f"group: Z2^{p + q - 5}, the quotient of H = Z2^{p + q - 4} by the all-ones "
            f"vector (order {order})",
            "verdict: PASS",
            f"pairs checked: {order**2}",
            f"admissible sector triples: {triples}",
            f"realized sector triples: {triples}",
        ]

    def test_largest_canonical_certificate_prints(self):
        # (512,513) is the largest model the level cap admits: pairs_checked,
        # 4^1020, has 615 digits, inside the 4300 that Python converts.
        doc, code = cmd_cover_verify(512, 513)
        assert code == 0
        order = 2**1020
        lines = doc.emit().splitlines()
        assert lines[1:4] == [
            f"group: Z2^1020, the quotient of H = Z2^1021 by the all-ones vector (order {order})",
            "verdict: PASS",
            f"pairs checked: {order**2}",
        ]
        assert len(str(order**2)) == 615
        payload = json.loads(OutputDocument("json", doc.payload, doc.render).emit())
        assert payload["model"]["N"] == 130816
        assert payload["stats"]["pairs_checked"] == order**2
        assert payload["stats"]["admissible_triples"] == comb(513, 3) * comb(514, 3) // 4

    @pytest.mark.parametrize("p,q", [(17, 19), (2, 35)])
    def test_canonical_past_p_plus_q_35_passes(self, p, q, capsys):
        # Refused while the canonical cover was counted in int64.
        assert main(["cover", "verify", "--p", str(p), "--q", str(q)]) == 0
        out = capsys.readouterr().out.splitlines()
        order = 2 ** (p + q - 5)
        assert out[1:4] == [
            f"group: Z2^{p + q - 5}, the quotient of H = Z2^{p + q - 4} by the all-ones "
            f"vector (order {order})",
            "verdict: PASS",
            f"pairs checked: {order**2}",
        ]
        assert out[4].split(":")[1] == out[5].split(":")[1]

    def test_canonical_at_the_sector_cap_in_small_memory(self):
        # N = 256 at (3,257): Z2^255, proved by the level check up to level
        # 255 with no map, no counts, no int64 bound and no numpy, whose
        # import alone would take this process past the bound.
        code, max_rss_kib, out = run_with_peak_rss(["cover", "verify", "--p", "3", "--q", "257"])
        assert code == 0 and "verdict: PASS" in out
        assert out[1].endswith(f"(order {2**255})")
        assert max_rss_kib < 40 * 1024

    def test_canonical_past_the_sector_cap_in_small_memory(self):
        # N = 32 640 at (256,257): levels 254 and 255, and no sector listed.
        code, max_rss_kib, out = run_with_peak_rss(["cover", "verify", "--p", "256", "--q", "257"])
        assert code == 0 and "verdict: PASS" in out
        assert out[1].endswith(f"(order {2**508})")
        assert max_rss_kib < 40 * 1024

    def test_canonical_past_transform_bound_passes(self, capsys):
        assert main(["cover", "verify", "--p", "9", "--q", "14"]) == 0
        out = capsys.readouterr().out
        assert "order 262144" in out and "verdict: PASS" in out

    def test_canonical_at_p_plus_q_32_in_small_memory(self):
        # A materialised 2^27-entry map alone would take 1 GiB.
        code, max_rss_kib, out = run_with_peak_rss(["cover", "verify", "--p", "15", "--q", "17"])
        assert code == 0 and "verdict: PASS" in out
        assert max_rss_kib < 256 * 1024

    def test_fusion_json_at_the_sector_cap_in_small_memory(self):
        # N = 256 sectors: a 68 MB document, one indented line per cell entry.
        # json.dumps(indent=2) peaks near 500 MiB on it.
        code, max_rss_kib, _ = run_with_peak_rss(
            ["fusion", "--p", "3", "--q", "257", "--format", "json"], show_output=False
        )
        assert code == 0
        assert max_rss_kib < 384 * 1024

    def test_fusion_text_at_the_sector_cap_in_small_memory(self):
        # A 58 MB table: the padded grid is formatted one line at a time.
        code, max_rss_kib, _ = run_with_peak_rss(
            ["fusion", "--p", "3", "--q", "257"], show_output=False
        )
        assert code == 0
        assert max_rss_kib < 256 * 1024

    def test_canonical_labels_as_a_z2_file_in_small_memory(self, tmp_path):
        # Counted on a float32 (N, |G|) transform matrix, 0.75 MiB here, a
        # block of characters at a time.
        params = ModelParams(5, 13)
        sec = canonical_cover(GroupContext(params)).sector_indices
        z2 = write_labeled(tmp_path, params, (2,) * 13, sec, "z2_13.cover")
        code, max_rss_kib, out = run_with_peak_rss(
            ["cover", "verify", "--p", "5", "--q", "13", "--group", z2]
        )
        assert code == 0 and "verdict: PASS" in out
        assert max_rss_kib < 48 * 1024

    def test_largest_group_file_in_small_memory(self, tmp_path):
        # 2^17 elements, shuffled, with no override: parsed into one list of
        # sector indices and counted on a float32 matrix a block of
        # characters at a time (131.8 MB peak with a dict of digit tuples and
        # float64 rows).
        params = ModelParams(9, 13)
        sec = canonical_cover(GroupContext(params)).sector_indices
        lines = write_labeled(tmp_path, params, (2,) * 17, sec, "z2_17.cover")
        text = Path(lines).read_text().splitlines(keepends=True)
        body = text[1:]
        np.random.default_rng(17).shuffle(body)
        z2 = write_cover(tmp_path, "".join(text[:1] + body), "z2_17_shuffled.cover")
        code, max_rss_kib, out = run_with_peak_rss(
            ["cover", "verify", "--p", "9", "--q", "13", "--group", z2]
        )
        assert code == 0 and "verdict: PASS" in out
        assert max_rss_kib < 96 * 1024

    @pytest.mark.parametrize(
        "text,group,realized,witness,limit_mib",
        [
            ("group\n -> 1,1\n", "trivial group", 1,
             "admissible triple [0] x [-505/1028] -> [-505/1028] is realized by no pair "
             "of group elements", 128),
            ("group 2\n0 -> 1,1\n1 -> 1,2\n", "Z2", 4,
             "admissible triple [0] x [-251/257] -> [-251/257] is realized by no pair "
             "of group elements", 128),
            ("group 3\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n", "Z3", 5,
             "1 + 1 = 2 maps to [-505/1028] x [-505/1028] -> [-505/1028], but "
             "[-505/1028] does not occur in [-505/1028] x [-505/1028]", 200),
        ],
        ids=["trivial", "Z2", "Z3"],
    )
    def test_tiny_group_at_the_sector_cap_in_bounded_memory(
        self, tmp_path, text, group, realized, witness, limit_mib
    ):
        # N = 256: the raw sums are held only for j >= i, about N^3 / 2
        # float64 entries (64 MiB), or complex128 for Z3 (128 MiB).  Each row
        # is rounded, checked and written into the 16 MiB bool support at
        # (i, j) and (j, i), then freed; no N^3 array of counts is built
        # (110, 112 and 179 MiB peaks with numpy 2.4 on x86-64; 185, 186 and
        # 182 MiB while the 128 MiB int64 counts were rounded and mirrored).
        order = text.count("->")
        path = write_cover(tmp_path, text)
        code, max_rss_kib, out = run_with_peak_rss(
            ["cover", "verify", "--p", "3", "--q", "257", "--group", path]
        )
        assert code == 1
        assert out == [
            "Cover verification for the (3,257) minimal model",
            f"group: {group} (order {order})",
            "verdict: FAIL",
            f"pairs checked: {order * order}",
            "admissible sector triples: 2829056",
            f"realized sector triples: {realized}",
            f"witness: {witness}",
        ]
        assert max_rss_kib < limit_mib * 1024

    def test_group_file_over_transform_bound_refused_at_its_header(
        self, tmp_path, capsys, monkeypatch
    ):
        # Z_65536 at N = 256 needs a 256 MiB complex128 transform matrix: the
        # header alone refuses the file, before its bad second line is read.
        def never(*args, **kwargs):
            raise AssertionError("a file over the transform bound may not be verified")

        monkeypatch.setattr(cli, "fusion_tensor", never)
        monkeypatch.setattr(certificates, "verify_cover", never)
        path = write_cover(tmp_path, "group 65536\nnot an element line\n")
        assert main(["cover", "verify", "--p", "3", "--q", "257", "--group", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(256.0 MiB)" in err and "(128 MiB)" in err

    def test_group_file_above_exactness_bound_refused_at_its_header(self, tmp_path, capsys):
        lines = "".join(f"{e} -> 1,1\n" for e in range(1 << 18))
        big = write_cover(tmp_path, "group 262144\n" + lines)
        args = ["cover", "verify", "--p", "3", "--q", "4", "--group", big]
        code, max_rss_kib, _ = run_with_peak_rss(args)
        assert code == 2
        assert max_rss_kib < 64 * 1024
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2^17" in err

    def test_oversized_group_file_model_refused_before_any_sector(self, tmp_path):
        # The trivial group's one line would list the model's 499 500 sectors
        # to canonicalize its label.
        trivial = write_cover(tmp_path, "group\n -> 1,1\n")
        code, max_rss_kib, _ = run_with_peak_rss(
            ["cover", "verify", "--p", "1000", "--q", "1001", "--group", trivial]
        )
        assert code == 2
        assert max_rss_kib < 64 * 1024

    def test_oversized_kac_table_refused_before_any_cell(self):
        code, max_rss_kib, _ = run_with_peak_rss(["kac", "--p", "1100", "--q", "1101"])
        assert code == 2
        assert max_rss_kib < 64 * 1024

    def test_fusion_tensor_over_budget(self, capsys):
        assert main(["fusion", "--p", "50", "--q", "51"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one(self, threads, capsys):
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--threads", threads]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_canonical_verify_needs_no_override(self, capsys):
        # Counted in closed form: no pair is visited, so no pair budget applies.
        assert main(["cover", "verify", "--p", "5", "--q", "14"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_hopeless_search_builds_no_fusion_rules(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no fusion rules may be built")

        monkeypatch.setattr(cover_search, "fusion_products", never)
        monkeypatch.setattr(cli, "fusion_tensor", never)
        assert main(["cover", "search", "--p", "3", "--q", "4", "--max-order", "30"]) == 2
        assert "budget" in capsys.readouterr().err
        # (3,257) has N = 256 sectors, more than a group of order 24 has elements.
        assert main(["cover", "search", "--p", "3", "--q", "257", "--max-order", "24"]) == 0
        assert "found 0 cover(s)" in capsys.readouterr().out
        # A model over the fusion-cell cap is still refused.
        assert main(["cover", "search", "--p", "2", "--q", "1025", "--max-order", "24"]) == 2
        assert "N <= 256" in capsys.readouterr().err

    def test_allow_large_is_a_search_option_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cover", "verify", "--p", "4", "--q", "5", "--allow-large"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-large" in capsys.readouterr().err
        assert main(["cover", "search", "--p", "2", "--q", "7", "--max-order", "30",
                     "--allow-large"]) == 0
        assert "up to order 30" in capsys.readouterr().out

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["kac", "--p", "3"])
        assert exc.value.code == 2

    def test_end_to_end_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fusioncover.cli", "kac", "--p", "3", "--q", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.encode() == (GOLDEN / "kac_3_4.txt").read_bytes()

    @pytest.mark.parametrize(
        "args,lines_read,code",
        [
            (["fusion", "--p", "16", "--q", "17"], 1, 0),
            (["cover", "search", "--p", "2", "--q", "7", "--max-order", "24",
              "--format", "json", "--allow-large"], 1, 0),
            # A verdict fits in the pipe's buffer: the reader closes before
            # the child writes.
            (["cover", "verify", "--p", "4", "--q", "5"], 0, 0),
            (["cover", "verify", "--p", "3", "--q", "4", "--group", "FAIL"], 0, 1),
        ],
        ids=["fusion", "search-json", "verify-pass", "verify-fail"],
    )
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, args, lines_read, code):
        # As in `... | head -1`: the reader goes away before the output ends.
        fail = write_cover(tmp_path, "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 1,3\n")
        args = [fail if a == "FAIL" else a for a in args]
        proc = subprocess.Popen(
            [sys.executable, "-m", "fusioncover.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == code
        with proc.stderr:
            assert proc.stderr.read() == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "args",
        [["cover", "verify", "--p", "4", "--q", "5"], ["kac", "--p", "3", "--q", "4"]],
        ids=["verify-pass", "kac"],
    )
    def test_unwritable_stdout_is_an_internal_error(self, args):
        # A full disk loses the output: no verdict, so never exit 0 or 1.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "fusioncover.cli", *args],
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: OSError:")

    def test_import_loads_no_thread_pool(self):
        code = "import sys, fusioncover.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "False\n"

    @pytest.mark.parametrize(
        "args,absent",
        [
            ([], {"numpy", "dataclasses", *(f"fusioncover.{m}" for m in (
                "cli", "errors", "minimal_model", "certificates", "cover_search",
                "two_group_cover", "_kernels"))}),
            (["kac", "--p", "4", "--q", "5"],
             {"numpy", "dataclasses", "inspect", "json", "fusioncover._kernels"}),
            (["kac", "--p", "4", "--q", "5", "--format", "json"],
             {"numpy", "dataclasses", "inspect", "fusioncover._kernels"}),
            (["fusion", "--p", "4", "--q", "5"],
             {"numpy", "dataclasses", "inspect", "json", "fusioncover.two_group_cover",
              "fusioncover.cover_search", "fusioncover._kernels"}),
            (["fusion", "--p", "4", "--q", "5", "--format", "json"],
             {"numpy", "dataclasses", "inspect", "fusioncover.two_group_cover",
              "fusioncover.cover_search", "fusioncover._kernels"}),
            (["cover", "search", "--p", "4", "--q", "5", "--max-order", "12"],
             {"numpy", "dataclasses", "inspect", "json", "fusioncover._kernels",
              "fusioncover.two_group_cover"}),
            (["cover", "verify", "--p", "3", "--q", "4", "--group",
              str(COVERS / "ising_z4.cover")],
             {"dataclasses", "json", "fusioncover.two_group_cover", "fusioncover.cover_search"}),
            # Past the N = 256 cap of the fusion tensor, which it never reads.
            (["cover", "verify", "--p", "30", "--q", "31"],
             {"numpy", "dataclasses", "json", "fusioncover.cover_search", "fusioncover._kernels"}),
        ],
        ids=["import", "kac", "kac-json", "fusion", "fusion-json", "search", "verify-group",
             "verify-canonical"],
    )
    def test_command_loads_only_its_modules(self, args, absent):
        code = (
            "import contextlib, io, sys\n"
            "import fusioncover\n"
            "if sys.argv[1:]:\n"
            "    from fusioncover import cli\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(sys.argv[1:]) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "fusioncover" in loaded
        assert not absent & loaded


class TestGroupFileParsing:
    def test_parses_committed_files(self):
        cm = parse_group_file(COVERS / "ising_z4.cover", ModelParams(3, 4))
        assert cm.context.factors == (4,)
        assert cm.sector_indices.tolist() == [0, 1, 2, 1]
        cm12 = parse_group_file(COVERS / "tricritical_z12.cover", ModelParams(4, 5))
        assert cm12.context.order == 12

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("0 -> 1,1\n", "header"),
            ("group x\n", "non-integer"),
            ("group 1\n", ">= 2"),
            ("group 4\n0 => 1,1\n", "expected"),
            ("group 4\n0,0 -> 1,1\n", "digits"),
            ("group 4\n7 -> 1,1\n", "outside"),
            ("group 4\n0 -> 1,1\n1_0 -> 1,2\n", "non-integer element digits"),
            ("group 4\n0 -> 1,1\n+1 -> 1,2\n", "non-integer element digits"),
            ("group 4\n0 -> 1,1\n\uff13 -> 1,2\n", "non-integer element digits"),
            ("group 1_6\n", "non-integer invariant factor"),
            ("group 4\n0 -> 1_1,1\n", "expected Kac label"),
            ("group 4\n0 -> 1\n", "Kac label"),
            ("group 4\n0 -> 3,1\n", "out of range"),
            ("group 4\n0 -> 1,1\n0 -> 1,2\n", "twice"),
            ("group 4\n0 -> 1,1\n1 -> 1,2\n", "partial"),
            ("group 4\n0 -> 1,2\n1 -> 1,1\n2 -> 1,1\n3 -> 1,1\n", "identity"),
        ],
    )
    def test_diagnostics(self, tmp_path, text, fragment):
        path = write_cover(tmp_path, text)
        with pytest.raises(GroupFileError, match=fragment):
            parse_group_file(path, ModelParams(3, 4))

    # Whole messages, not fragments: each reads the same as when the parser
    # held every element as a digit tuple.
    @pytest.mark.parametrize(
        "text,message",
        [
            ("group 2 3\n0,0 -> 1,1\n0,1 -> 1,2\n1,1 -> 1,2\n1,2 -> 1,3\n",
             "{path}: labeling is partial: element (0, 2) has no sector"),
            ("group 2 3\n0,0 -> 1,1\n0,1 -> 1,2\n1,2 -> 1,3\n0,2 -> 1,2\n1,2 -> 1,2\n",
             "{path}:6: element '1,2' labeled twice"),
            ("group\n", "{path}: labeling is partial: element () has no sector"),
            ("group 4\n0 -> 1,1\n1 -> 1,2\n", "{path}: labeling is partial: element (2,) has no sector"),
            ("group 4\n0 -> 1,2\n1 -> 1,1\n2 -> 1,1\n3 -> 1,1\n",
             "{path}: the identity element must be labeled by the (1,1) sector"),
        ],
        ids=["mixed_radix_gap", "mixed_radix_twice", "trivial_unlabeled", "cyclic_gap", "identity"],
    )
    def test_full_messages(self, tmp_path, text, message):
        path = write_cover(tmp_path, text)
        with pytest.raises(GroupFileError) as e:
            parse_group_file(path, ModelParams(3, 4))
        assert str(e.value) == message.format(path=path)

    # The range check is ``canonicalize``'s: its message, at the line.
    @pytest.mark.parametrize("m,n", [(3, 1), (1, 0)])
    def test_out_of_range_label_message(self, tmp_path, capsys, m, n):
        path = write_cover(tmp_path, f"group 4\n0 -> 1,1\n1 -> {m},{n}\n")
        message = f"{path}:3: Kac label ({m}, {n}) out of range for (p, q) = (3, 4)"
        with pytest.raises(GroupFileError) as e:
            parse_group_file(path, ModelParams(3, 4))
        assert str(e.value) == message
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_identity_labeled_by_its_complement(self, tmp_path):
        # (2,3) is the other member of the vacuum's class at (3,4).
        path = write_cover(tmp_path, "group 4\n0 -> 2,3\n1 -> 1,2\n2 -> 1,3\n3 -> 1,2\n")
        cm = parse_group_file(path, ModelParams(3, 4))
        assert cm.sector_indices.tolist() == [0, 1, 2, 1]

    def test_parsed_map_builds_its_array_on_first_read(self, tmp_path):
        # A parsed map keeps its labels as a tuple of ints; verify reads them
        # and the support, and the int64 array is built only when asked for.
        params = ModelParams(3, 4)
        for text in ((COVERS / "ising_z4.cover").read_text(),
                     "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 1,3\n"):
            cm = parse_group_file(write_cover(tmp_path, text), params)
            assert type(cm.labels) is tuple and all(type(i) is int for i in cm.labels)
            verify_cover(cm, fusion_tensor(params))
            assert "sector_indices" not in vars(cm)
            arr = cm.sector_indices
            assert vars(cm)["sector_indices"] is arr and not arr.flags.writeable
            assert cm.labels == tuple(arr.tolist())

    def test_parse_in_small_memory(self, tmp_path):
        # One list of sector indices, not a dict of digit tuples: about 270 B
        # per element before, under 96 now (the CoverMap's int64 array
        # included).
        params = ModelParams(9, 10)
        sec = canonical_cover(GroupContext(params)).sector_indices
        path = write_labeled(tmp_path, params, (2,) * 14, sec, "z2_14.cover")
        parse_group_file(path, params)  # fill the model's caches
        tracemalloc.start()
        try:
            cm = parse_group_file(path, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(cm.sector_indices, sec)
        assert peak < 96 * len(sec)

    def test_file_refused_at_header_is_not_read_whole(self, tmp_path):
        lines = "".join(f"{e} -> 1,1\n" for e in range(1 << 18))
        big = write_cover(tmp_path, "group 262144\n" + lines)
        size = Path(big).stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                parse_group_file(big, ModelParams(3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 3_000_000 and peak < size // 16

    def test_line_numbers_in_messages(self, tmp_path):
        path = write_cover(tmp_path, "# comment\ngroup 4\n\n0 -> 1,1\nbogus line\n")
        with pytest.raises(GroupFileError, match=r":5:"):
            parse_group_file(path, ModelParams(3, 4))

    def test_repeated_label_then_invalid_one_names_its_line(self, tmp_path):
        # Each label text is checked on its first line only: a valid label
        # repeated must not let a later invalid one through or move its line.
        text = "group 4\n0 -> 1,1\n1 -> 1,2\n2 -> 1,2\n3 -> 3,2\n"
        path = write_cover(tmp_path, text)
        with pytest.raises(GroupFileError) as e:
            parse_group_file(path, ModelParams(3, 4))
        assert str(e.value) == f"{path}:5: Kac label (3, 2) out of range for (p, q) = (3, 4)"

    def test_comments_and_blank_lines_ok(self, tmp_path):
        text = "# full file\ngroup 2 2\n0,0 -> 1,1  # identity\n0,1 -> 1,2\n1,0 -> 1,3\n1,1 -> 2,2\n"
        cm = parse_group_file(write_cover(tmp_path, text), ModelParams(3, 4))
        assert cm.context.factors == (2, 2)

    def test_trivial_group_file(self, tmp_path):
        cm = parse_group_file(
            write_cover(tmp_path, "group\n-> 1,1\n"), ModelParams(2, 3)
        )
        assert cm.context.order == 1
