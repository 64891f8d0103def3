"""The pair scan against a pure-Python double loop over (g1, g2)."""

import numpy as np
import pytest

from fusioncover import GroupContext, ModelParams, canonical_cover, fusion_tensor
from fusioncover import _kernels
from fusioncover._kernels import (
    HAVE_NUMBA,
    active_backend,
    popcount,
    scan_pairs_group,
    scan_pairs_xor,
)
from fusioncover.cover_search import AbelianGroupSpec

# Test ids name the backend that ran, as the benchmark's set-up probe records it.
BACKENDS = [active_backend()]


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


def xor_case(p, q, corrupt=False):
    params = ModelParams(p, q)
    tensor = fusion_tensor(params)
    cm = canonical_cover(GroupContext(params))
    if corrupt:
        cm = cm.swapped_images(0, 1)
    return cm.sector_indices, tensor.n, np.ascontiguousarray(tensor.coefficients.reshape(-1))


class TestXorScan:
    @pytest.mark.parametrize("p,q", [(3, 4), (4, 5), (3, 8), (5, 9)])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_matches_oracle(self, p, q, corrupt):
        sec, n, d_flat = xor_case(p, q, corrupt)
        first, realized = scan_pairs_xor(sec, n, d_flat)
        expected_first, expected = oracle_scan(sec, n, d_flat, lambda a, b: a ^ b)
        assert first == expected_first
        assert (first[0] >= 0) == corrupt
        assert np.array_equal(realized, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_thread_count_irrelevant(self, backend, threads):
        sec, n, d_flat = xor_case(4, 7, corrupt=True)
        baseline = scan_pairs_xor(sec, n, d_flat, threads=1)
        result = scan_pairs_xor(sec, n, d_flat, threads=threads)
        assert result[0] == baseline[0]
        assert np.array_equal(result[1], baseline[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_realized_matches_direct_enumeration(self, backend):
        sec, n, d_flat = xor_case(3, 5)
        _, realized = scan_pairs_xor(sec, n, d_flat)
        expected = np.zeros(n * n * n, dtype=np.uint8)
        for g1 in range(len(sec)):
            for g2 in range(len(sec)):
                i, j, k = sec[g1], sec[g2], sec[g1 ^ g2]
                expected[(i * n + j) * n + k] = 1
        assert np.array_equal(realized, expected)


def group_case(factors, params, indices):
    spec = AbelianGroupSpec(factors)
    tensor = fusion_tensor(params)
    sec = np.array(indices, dtype=np.int64)
    return (
        spec.digit_matrix(),
        np.array(spec.factors, dtype=np.int64),
        sec,
        tensor.n,
        np.ascontiguousarray(tensor.coefficients.reshape(-1)),
    )


class TestGroupScan:
    @pytest.mark.parametrize(
        "factors,pq,indices,clean",
        [
            ((4,), (3, 4), (0, 1, 2, 1), True),
            ((4,), (3, 4), (0, 1, 1, 2), False),  # scrambled Z4 Ising labeling
            ((2, 2), (3, 4), (0, 2, 1, 1), True),
            ((2, 2), (3, 4), (0, 1, 1, 1), False),
            ((12,), (4, 5), (0, 5, 1, 4, 2, 5, 3, 5, 2, 4, 1, 5), True),
            ((12,), (4, 5), (0, 5, 1, 4, 2, 5, 3, 5, 2, 4, 5, 1), False),
            ((), (2, 3), (0,), True),
        ],
    )
    def test_matches_oracle(self, factors, pq, indices, clean):
        spec = AbelianGroupSpec(factors)
        args = group_case(factors, ModelParams(*pq), indices)
        first, realized = scan_pairs_group(*args)
        elements = spec.elements()
        expected_first, expected = oracle_scan(
            args[2],
            args[3],
            args[4],
            lambda a, b: spec.index_of(spec.add(elements[a], elements[b])),
        )
        assert first == expected_first
        assert (first[0] < 0) == clean
        assert np.array_equal(realized, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_direct_enumeration(self, backend):
        spec = AbelianGroupSpec((2, 3))
        params = ModelParams(5, 6)  # N = 10 sectors, labels chosen arbitrarily
        indices = (0, 3, 1, 2, 9, 4)
        args = group_case(spec.factors, params, indices)
        _, realized = scan_pairs_group(*args)
        n = args[3]
        elements = spec.elements()
        expected = np.zeros(n * n * n, dtype=np.uint8)
        for a in elements:
            for b in elements:
                i = indices[spec.index_of(a)]
                j = indices[spec.index_of(b)]
                k = indices[spec.index_of(spec.add(a, b))]
                expected[(i * n + j) * n + k] = 1
        assert np.array_equal(realized, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", [1, 4])
    def test_threads(self, backend, threads):
        args = group_case((12,), ModelParams(4, 5), (0, 5, 1, 4, 2, 5, 3, 5, 2, 4, 1, 5))
        baseline = scan_pairs_group(*args, threads=1)
        result = scan_pairs_group(*args, threads=threads)
        assert result[0] == baseline[0]
        assert np.array_equal(result[1], baseline[1])


class TestPartitions:
    def test_numpy_is_the_only_backend(self):
        assert HAVE_NUMBA is False
        assert active_backend() == "numpy"

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        sec, n, d_flat = xor_case(3, 4)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            scan_pairs_xor(sec, n, d_flat, threads=threads)

    def test_partitions_follow_threads_up_to_group_order(self):
        assert len(_kernels._row_ranges(8192, 3)) == 3
        ranges = _kernels._row_ranges(8192, 100_000)
        assert len(ranges) == 8192
        assert ranges[0] == (0, 1) and ranges[-1] == (8191, 8192)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(_kernels.os, "cpu_count", lambda: 2)
        assert _kernels._pool_size(8192) == 2
        assert _kernels._pool_size(1) == 1
        monkeypatch.setattr(_kernels.os, "cpu_count", lambda: None)
        assert _kernels._pool_size(8192) == 1


class TestPopcount:
    def test_against_int_bit_count(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1 << 62, size=200, dtype=np.uint64)
        got = popcount(values)
        assert [int(v) for v in got] == [int(v).bit_count() for v in values]
