"""The support of the pair counts and the witness scan against a
pure-Python double loop over (g1, g2), and against the exhaustive numpy
scan in conftest."""

import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import coprime_models, exhaustive_scan, group_rows, xor_rows
from fusioncover import (
    CoverMap,
    GroupContext,
    ModelParams,
    canonical_cover,
    fusion_tensor,
    partition_algebra,
    verify_cover,
)
from fusioncover import _kernels
from fusioncover._kernels import (
    HAVE_NUMBA,
    active_backend,
    check_count_size,
    pair_support,
    scan_pairs_group,
    scan_pairs_xor,
)
from fusioncover.cli import main
from fusioncover.cover_search import AbelianGroupSpec
from fusioncover.errors import CapacityError, CountCheckError

COVERS = Path(__file__).parent.parent / "covers"


def oracle_scan(sec, n, d_flat, add):
    """First closure violation and realized tensor, one pair at a time."""
    realized = np.zeros(n * n * n, dtype=np.uint8)
    first = (-1, -1)
    for g1 in range(len(sec)):
        for g2 in range(len(sec)):
            idx = (sec[g1] * n + sec[g2]) * n + sec[add(g1, g2)]
            realized[idx] = 1
            if first == (-1, -1) and not d_flat[idx]:
                first = (g1, g2)
    return first, realized


def code_sum(factors):
    """``add(g1, g2)`` for the oracles: the code of g1 + g2 in Z_k1 x ... x Z_kt,
    read off a table built by ``group_rows``."""
    codes = np.arange(AbelianGroupSpec(factors).order)
    table = group_rows(_kernels.decode(codes, factors), factors)(codes).tolist()
    return lambda g1, g2: table[g1][g2]


def oracle_counts(sec, n, add):
    """Pair counts C[i, j, k], one pair at a time.  The library ships only
    their support; tests that want multiplicities read them here."""
    counts = np.zeros((n, n, n), dtype=np.int64)
    for g1 in range(len(sec)):
        for g2 in range(len(sec)):
            counts[sec[g1], sec[g2], sec[add(g1, g2)]] += 1
    return counts


def random_labels(factors, n):
    """A seeded labelling of the group with the given factors by n sectors."""
    order = int(np.prod(factors, dtype=np.int64))
    return tuple(np.random.default_rng(order * 16 + n).integers(0, n, size=order).tolist())


def xor_case(p, q, corrupt=False):
    params = ModelParams(p, q)
    tensor = fusion_tensor(params)
    cm = canonical_cover(GroupContext(params))
    if corrupt:
        cm = cm.swapped_images(0, 1)
    return cm.sector_indices, tensor.n, np.ascontiguousarray(tensor.coefficients.reshape(-1))


def lone_bad_row(row, pq=(5, 9)):
    """The cover of model ``pq`` with coset ``row`` given a sector of its own
    that is admissible only with the vacuum: in any group of that order
    whose element 1 is not the vacuum, row ``row`` alone holds violations,
    and its first is (row, 1) (or (0, 0) in row 0)."""
    sec, n, _ = xor_case(*pq)
    sec = sec.copy()
    sec[row] = n
    d = np.ones((n + 1,) * 3, dtype=np.uint8)
    d[n, 1:, :] = 0
    return sec, n + 1, d.reshape(-1)


class TestXorScan:
    @pytest.mark.parametrize("p,q", [(3, 4), (4, 5), (3, 8), (5, 9)])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_matches_oracle(self, p, q, corrupt):
        sec, n, d_flat = xor_case(p, q, corrupt)
        first, rows = scan_pairs_xor(sec, n, d_flat)
        exhaustive, realized = exhaustive_scan(sec, n, d_flat, xor_rows(len(sec)))
        expected_first, expected = oracle_scan(sec, n, d_flat, lambda a, b: a ^ b)
        assert first == exhaustive == expected_first
        assert (first[0] >= 0) == corrupt
        assert rows == (first[0] + 1 if corrupt else len(sec))
        assert np.array_equal(realized, expected)

    @pytest.mark.parametrize("row", [0, 1, 300, 511])
    def test_stop_at_witness_keeps_the_first_violation(self, row):
        sec, n, d_flat = lone_bad_row(row)
        first, rows = scan_pairs_xor(sec, n, d_flat)
        assert first == exhaustive_scan(sec, n, d_flat, xor_rows(len(sec)))[0]
        assert first == (row, 1 if row else 0)
        assert rows == row + 1

    def test_witness_in_the_last_row(self):
        sec, n, d_flat = lone_bad_row(4095, (8, 9))  # 2^12 cosets
        first, rows = scan_pairs_xor(sec, n, d_flat)
        assert first == exhaustive_scan(sec, n, d_flat, xor_rows(len(sec)))[0] == (4095, 1)
        assert rows == 4096

    def test_realized_matches_direct_enumeration(self):
        sec, n, d_flat = xor_case(3, 5)
        _, realized = exhaustive_scan(sec, n, d_flat, xor_rows(len(sec)))
        expected = np.zeros(n * n * n, dtype=np.uint8)
        for g1 in range(len(sec)):
            for g2 in range(len(sec)):
                i, j, k = sec[g1], sec[g2], sec[g1 ^ g2]
                expected[(i * n + j) * n + k] = 1
        assert np.array_equal(realized, expected)


# (factors, model, sector of each element, whether the labeling covers).
GROUP_CASES = [
    ((4,), (3, 4), (0, 1, 2, 1), True),
    ((4,), (3, 4), (0, 1, 1, 2), False),  # scrambled Z4 Ising labeling
    ((2, 2), (3, 4), (0, 2, 1, 1), True),
    ((2, 2), (3, 4), (0, 1, 1, 1), False),
    ((12,), (4, 5), (0, 5, 1, 4, 2, 5, 3, 5, 2, 4, 1, 5), True),
    ((12,), (4, 5), (0, 5, 1, 4, 2, 5, 3, 5, 2, 4, 5, 1), False),
    ((), (2, 3), (0,), True),
]
Z12 = GROUP_CASES[4][2]
# Z12 x Z4 pulled back from the Z12 cover: element (a, b) carries a's sector.
PULLBACK = tuple(Z12[g // 4] for g in range(48))
PULLBACK_SWAPPED = tuple(PULLBACK[{5: 9, 9: 5}.get(g, g)] for g in range(48))


def group_case(factors, params, indices):
    spec = AbelianGroupSpec(factors)
    tensor = fusion_tensor(params)
    sec = np.array(indices, dtype=np.int64)
    return (
        _kernels.decode(np.arange(spec.order), spec.factors),
        np.array(spec.factors, dtype=np.int64),
        sec,
        tensor.n,
        np.ascontiguousarray(tensor.coefficients.reshape(-1)),
    )


def group_oracle(factors, args):
    """The pure-Python oracle scan of ``group_case`` arguments."""
    return oracle_scan(args[2], args[3], args[4], code_sum(factors))


class TestGroupScan:
    @pytest.mark.parametrize(
        "factors,pq,indices,clean",
        GROUP_CASES
        + [((12, 4), (4, 5), PULLBACK, True), ((12, 4), (4, 5), PULLBACK_SWAPPED, False)],
    )
    def test_matches_oracle(self, factors, pq, indices, clean):
        args = group_case(factors, ModelParams(*pq), indices)
        first, rows = scan_pairs_group(*args)
        exhaustive, realized = exhaustive_scan(*args[2:], group_rows(*args[:2]))
        expected_first, expected = group_oracle(factors, args)
        assert first == exhaustive == expected_first
        assert (first[0] < 0) == clean
        assert rows == (len(indices) if clean else first[0] + 1)
        assert np.array_equal(realized, expected)

    def test_matches_direct_enumeration(self):
        spec = AbelianGroupSpec((2, 3))
        params = ModelParams(5, 6)  # N = 10 sectors, labels chosen arbitrarily
        indices = (0, 3, 1, 2, 9, 4)
        args = group_case(spec.factors, params, indices)
        _, realized = exhaustive_scan(*args[2:], group_rows(*args[:2]))
        n = args[3]
        elements = [tuple(spec.element_json(g)) for g in range(spec.order)]
        code = {e: g for g, e in enumerate(elements)}
        expected = np.zeros(n * n * n, dtype=np.uint8)
        for a in elements:
            for b in elements:
                total = tuple((x + y) % r for x, y, r in zip(a, b, spec.factors))
                i, j, k = indices[code[a]], indices[code[b]], indices[code[total]]
                expected[(i * n + j) * n + k] = 1
        assert np.array_equal(realized, expected)

    @pytest.mark.parametrize(
        "factors,pq,indices",
        [case[:3] for case in GROUP_CASES if not case[3]] + [((12, 4), (4, 5), PULLBACK_SWAPPED)],
    )
    def test_stop_at_witness_keeps_the_first_violation(self, factors, pq, indices):
        args = group_case(factors, ModelParams(*pq), indices)
        (g1, g2), rows = scan_pairs_group(*args)
        assert (g1, g2) == exhaustive_scan(*args[2:], group_rows(*args[:2]))[0] != (-1, -1)
        assert rows == g1 + 1

    @pytest.mark.parametrize("row", [0, 1, 300, 511])
    def test_rows_scanned_bound_the_witness_row(self, row):
        # Z_2^9 in digit form is the XOR group of the (5,9) cosets.
        sec, n, d_flat = lone_bad_row(row)
        factors = (2,) * 9
        digits = _kernels.decode(np.arange(len(sec)), factors)
        first, rows = scan_pairs_group(digits, factors, sec, n, d_flat)
        assert first == (row, 1 if row else 0)
        assert rows == row + 1

    @pytest.mark.parametrize("factors", [(4,) + (2,) * 10, (16, 3, 85)], ids=str)
    def test_witness_in_the_last_row(self, factors):
        sec, n, d_flat = lone_bad_row(4095, (8, 9))  # 2^12 cosets as 4096 elements
        spec = AbelianGroupSpec(factors)
        sec = sec[:spec.order].copy()
        sec[-1] = n - 1
        digits = _kernels.decode(np.arange(spec.order), spec.factors)
        first, rows = scan_pairs_group(digits, spec.factors, sec, n, d_flat)
        last = spec.order - 1
        assert first == exhaustive_scan(sec, n, d_flat, group_rows(digits, spec.factors))[0]
        assert first == (last, 1) and rows == last + 1


class TestFirstViolation:
    """``first_violation`` on groups whose factors are not all 2, which add
    element codes digit by digit."""

    CLEAN = [((12,), Z12), ((12, 4), PULLBACK)]

    @pytest.mark.parametrize("factors,indices", CLEAN, ids=["Z12", "Z12xZ4"])
    def test_clean_cover_has_none(self, factors, indices):
        tensor = fusion_tensor(ModelParams(4, 5))
        assert _kernels.first_violation(indices, tensor.n, tensor.coefficients, factors) is None

    @staticmethod
    def pad_support(monkeypatch, tensor):
        """Make ``pair_support`` report one inadmissible triple besides the
        triples the labels realize."""
        i, j, k = map(int, np.argwhere(~tensor.coefficients)[0])
        count = _kernels.pair_support

        def padded(sec, n_sectors, factors):
            support = count(sec, n_sectors, factors).copy()
            support[i, j, k] = support[j, i, k] = True
            support.setflags(write=False)
            return support

        monkeypatch.setattr(_kernels, "pair_support", padded)

    @pytest.mark.parametrize("factors,indices", CLEAN, ids=["Z12", "Z12xZ4"])
    def test_support_the_scan_contradicts_is_an_internal_error(
        self, factors, indices, monkeypatch
    ):
        params = ModelParams(4, 5)
        tensor = fusion_tensor(params)
        cm = CoverMap(AbelianGroupSpec(factors), indices, tensor.sectors)
        assert verify_cover(cm, tensor).passed
        self.pad_support(monkeypatch, tensor)
        with pytest.raises(CountCheckError) as raised:
            verify_cover(CoverMap(cm.context, cm.labels, cm.sectors), tensor)
        assert str(raised.value) == "the support shows a closure violation the pair scan does not"

    def test_main_exits_3_on_it(self, monkeypatch, capsys):
        self.pad_support(monkeypatch, fusion_tensor(ModelParams(4, 5)))
        z12 = str(COVERS / "tricritical_z12.cover")
        assert main(["cover", "verify", "--p", "4", "--q", "5", "--group", z12]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: the support shows a closure violation the pair scan does not\n"


# Random labels break every structure the row loop could lean on: with n
# above |G| some sectors label nothing, and n = 1 is one row, none mirrored.
GROUP_COUNT_CASES = (
    [(f, ModelParams(*pq).n_sectors, idx) for f, pq, idx, _ in GROUP_CASES]
    + [((12, 4), ModelParams(4, 5).n_sectors, idx) for idx in (PULLBACK, PULLBACK_SWAPPED)]
    + [
        (f, n, random_labels(f, n))
        for f in [(2,), (2, 2, 2), (8,), (3, 3), (6, 2), (5, 7)]
        for n in [1, 3, 9]
    ]
)


class TestPairCounts:
    @pytest.mark.parametrize("p,q", [(3, 4), (4, 5), (3, 5)])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_xor_matches_double_loop(self, p, q, corrupt):
        sec, n, _ = xor_case(p, q, corrupt)
        factors = (2,) * (len(sec).bit_length() - 1)
        support = pair_support(sec, n, factors)
        assert support.dtype == bool and support.shape == (n, n, n)
        assert not support.flags.writeable
        assert np.array_equal(support, oracle_counts(sec, n, operator.xor) > 0)

    @pytest.mark.parametrize("factors,n,indices", GROUP_COUNT_CASES)
    def test_group_matches_double_loop(self, factors, n, indices):
        support = pair_support(indices, n, factors)
        assert np.array_equal(support, oracle_counts(indices, n, code_sum(factors)) > 0)

    # The same cases summed three characters at a time: every group above
    # order 3 spans several blocks, and its last block is ragged (|G| = 35
    # is eleven blocks and two characters), on the XOR and the FFT path.
    @pytest.mark.parametrize("p,q", [(3, 4), (4, 5), (3, 5)])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_xor_matches_double_loop_across_blocks(self, p, q, corrupt, monkeypatch):
        monkeypatch.setattr(_kernels, "_BLOCK", 3)
        self.test_xor_matches_double_loop(p, q, corrupt)

    @pytest.mark.parametrize("factors,n,indices", GROUP_COUNT_CASES)
    def test_group_matches_double_loop_across_blocks(self, factors, n, indices, monkeypatch):
        monkeypatch.setattr(_kernels, "_BLOCK", 3)
        self.test_group_matches_double_loop(factors, n, indices)

    def test_scratch_below_one_float64_matrix(self):
        # The float32 transform matrix and blocks of characters: the traced
        # peak stays below one float64 (N, |G|) matrix, 4.3 MB here.
        factors, n = (2,) * 14, 33
        sec = np.random.default_rng(33).integers(0, n, size=1 << 14)
        expected = pair_support(sec, n, factors)
        tracemalloc.start()
        try:
            support = pair_support(sec, n, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(support, expected)
        assert peak < n * (1 << 14) * 8

    def test_fft_in_one_transform_buffer(self):
        # Z3^10 x Z2 at N = 28: the complex128 transform matrix is 50 MiB and
        # the FFTs run in place in it.  A float64 input transformed into a
        # second matrix peaked at 126 MiB; the bound leaves room for one
        # extra copy of the matrix, 102 MiB.
        factors, n = (3,) * 10 + (2,), 28
        sec = np.random.default_rng(28).integers(0, n, size=2 * 3**10)
        tracemalloc.start()
        try:
            pair_support(sec, n, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 112 * 2**20

    def test_sector_cap_holds_no_counts(self):
        # One element at N = 256: the raw sums for j >= i, N^3 / 2 float64
        # (64 MiB), are the largest scratch, beside the 16 MiB bool support
        # and a row or two (82.3 MiB traced peak with numpy 2.4 on x86-64).
        # The int64 counts and their "!= 0" peaked at 193.3 MiB.
        tracemalloc.start()
        try:
            support = pair_support(np.zeros(1, dtype=np.int64), 256, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.flatnonzero(support).tolist() == [0]
        assert peak < 96 * 2**20

    @pytest.mark.parametrize("params", coprime_models(8, 16, max_sum=18), ids=str)
    def test_support_matches_exhaustive_scan(self, params):
        cm = canonical_cover(GroupContext(params))
        tensor = fusion_tensor(params)
        sec = cm.sector_indices
        support = pair_support(sec, tensor.n, (2,) * (cm.context.r - 1))
        d_flat = tensor.coefficients.reshape(-1)
        _, realized = exhaustive_scan(sec, tensor.n, d_flat, xor_rows(len(sec)))
        assert np.array_equal(support.reshape(-1), realized)

    @pytest.mark.parametrize(
        "spoil", ["sum", "integral", "sign", "row-moved", "moved-across-k", "sign-alone"]
    )
    def test_corrupted_count_raises(self, spoil):
        # The rounding takes |G| C[a, j, k] for j >= a, one row a at a time,
        # as the transform sums it; a spoil on a diagonal cell (j = a) is
        # not mirrored, so it moves the total by what it adds.  A spoil on
        # a cell (a, j > a) stands for C[j, a, k] too.
        sec, n, _ = xor_case(4, 5)
        counts = oracle_counts(sec, n, operator.xor)
        sizes = np.bincount(sec, minlength=n)
        raw = [16.0 * counts[a, a:] for a in range(n)]
        support = _kernels._rounded_support([r.copy() for r in raw], 16, sizes)
        assert np.array_equal(support, counts > 0)
        diagonal = lambda cells: next((a, k) for a, j, k in cells if j == a)
        if spoil == "sum":
            raw[0][0, 0] += 16
        elif spoil == "integral":
            raw[0][0, 0] += 8
        elif spoil == "sign":  # move one pair onto an empty cell's negative: the total holds
            a, k = diagonal(np.argwhere(counts == 0))
            raw[a][0, k] -= 16
            raw[0][0, 0] += 16
        elif spoil == "row-moved":  # move one pair between two (i, k) rows: the total and signs hold
            a, k = diagonal(c for c in np.argwhere(counts > 0) if tuple(c) != (0, 0, 0))
            raw[a][0, k] -= 16
            raw[0][0, 0] += 16
        elif spoil == "moved-across-k":  # rows a and j, at both k
            a, j, k = next(c for c in np.argwhere(counts > 0) if c[1] > c[0])
            raw[a][j - a, k] -= 16
            raw[a][j - a, (k + 1) % n] += 16
        else:
            # (a, a, k) and (j, j, k) gain a pair and the empty (a, j, k) and
            # (j, a, k) lose one: every row sum holds, only the sign check fails.
            a, j, k = next(c for c in np.argwhere(counts == 0) if c[1] > c[0])
            raw[a][0, k] += 16
            raw[j][0, k] += 16
            raw[a][j - a, k] -= 16
        match = {"row-moved": "2 row sums", "moved-across-k": "4 row sums",
                 "sign-alone": "0 row sums .* smallest count -1$"}.get(spoil)
        with pytest.raises(CountCheckError, match=match):
            _kernels._rounded_support(raw, 16, sizes)

    def test_perturbed_transform_raises(self, monkeypatch, capsys):
        transform = _kernels._transform
        monkeypatch.setattr(_kernels, "_transform", lambda x, f: transform(x, f) + 0.5)
        sec, n, _ = xor_case(4, 5)
        with pytest.raises(CountCheckError):
            pair_support(sec, n, (2,) * 4)
        # The transform counts every map but the canonical cover, and every
        # group file; the canonical cover's support is proved by the SU(2)
        # level check and never counted.
        params = ModelParams(4, 5)
        cm = canonical_cover(GroupContext(params)).swapped_images(0, 1)
        with pytest.raises(CountCheckError):
            verify_cover(cm, fusion_tensor(params))
        with pytest.raises(CountCheckError):
            partition_algebra(cm, strict=False)
        ising_z4 = str(COVERS / "ising_z4.cover")
        assert main(["cover", "verify", "--p", "3", "--q", "4", "--group", ising_z4]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error:")
        assert main(["cover", "verify", "--p", "4", "--q", "5"]) == 0

    def test_order_above_exactness_bound_refused(self):
        with pytest.raises(CapacityError, match="2\\^17"):
            pair_support(np.zeros(1 << 18, dtype=np.int64), 1, (2,) * 18)

    @pytest.mark.parametrize(
        "n,factors",
        [(256, (1 << 13,)), (256, (1 << 15,)), (256, (2,) * 17), (256, (2, 2, 4, 2048)),
         (1, (1 << 17,))],
        ids=["Z8192", "Z32768", "Z2^17", "mixed", "N1-Z131072"],
    )
    def test_count_size_admits(self, n, factors):
        check_count_size(n, factors)

    @pytest.mark.parametrize(
        "n,factors,match",
        [(256, ((1 << 15) + 1,), "MiB"), (256, (2,) * 15 + (4,), "MiB"),
         (1, (2,) * 18, "2\\^17"), (1, ((1 << 17) + 1,), "2\\^17"),
         (256, (1 << 18,), "2\\^17"), (257, (2,), "N <= 256")],
        ids=["Z32769", "Z2^15xZ4", "Z2^18", "Z131073", "Z262144", "N257-Z2"],
    )
    def test_count_size_refuses(self, n, factors, match):
        with pytest.raises(CapacityError, match=match):
            check_count_size(n, factors)

    def test_over_transform_bound_refused_before_allocating(self):
        sec = np.zeros(1 << 17, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="MiB"):
                pair_support(sec, 256, (1 << 17,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_over_sector_cap_refused_before_the_raw_sums(self, monkeypatch):
        # A direct call lists no model's sectors, so the kernel bounds its
        # raw sums, about N^3 / 2 entries, itself: N = 999 would ask for 4 GiB.
        def never(*args, **kwargs):
            raise AssertionError("nothing may be allocated past the sector cap")

        monkeypatch.setattr(_kernels.np, "zeros", never)
        with pytest.raises(CapacityError, match="N = 999 .*N <= 256"):
            pair_support((0, 1), 999, (2,))

    def test_factors_must_match_order(self):
        with pytest.raises(ValueError, match="order 8"):
            pair_support(np.zeros(8, dtype=np.int64), 1, (2, 2))


class TestBackend:
    def test_numpy_is_the_only_backend(self):
        assert HAVE_NUMBA is False
        assert active_backend() == "numpy"


class TestThreadsArgument:
    """``verify_cover`` and ``partition_algebra`` accept ``threads``, which the
    benchmark harness passes, and ignore it."""

    @pytest.mark.parametrize("threads", [0, 2])
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("entry", ["verify_cover", "partition_algebra"])
    def test_threads_is_accepted_and_ignored(self, entry, corrupt, threads):
        params = ModelParams(4, 5)
        tensor = fusion_tensor(params)
        cm = canonical_cover(GroupContext(params))
        if corrupt:
            # A FAIL map, whose algebra is built unstrict.
            cm = cm.swapped_images(0, 1)
        if entry == "verify_cover":
            assert verify_cover(cm, tensor, threads=threads) == verify_cover(cm, tensor)
        else:
            w = partition_algebra(cm, strict=not corrupt)
            other = partition_algebra(cm, strict=not corrupt, threads=threads)
            assert np.array_equal(other.coefficients, w.coefficients)
