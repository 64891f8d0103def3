"""Property-based and exhaustive invariant checks across model families."""

import numpy as np
from hypothesis import given, settings, strategies as st

from fusioncover import (
    GroupContext,
    ModelParams,
    admissible_range,
    canonicalize,
    conformal_weight,
    fusion_tensor,
    is_p_admissible,
    is_pq_admissible,
    sectors,
)

from conftest import coprime_models
from paper_model import BitVector, sym_diff_weight_identity

MODELS_TO_TEN = coprime_models(9, 10)


@st.composite
def bit_vector_pairs(draw):
    width = draw(st.integers(min_value=0, max_value=30))
    bound = (1 << width) - 1 if width else 0
    x = draw(st.integers(min_value=0, max_value=bound))
    y = draw(st.integers(min_value=0, max_value=bound))
    return BitVector(x, width), BitVector(y, width)


@settings(max_examples=300, derandomize=True)
@given(bit_vector_pairs())
def test_weight_identity_random(pair):
    x, y = pair
    lhs, rhs = sym_diff_weight_identity(x, y)
    assert lhs == rhs
    # the support really is the symmetric difference
    assert set((x ^ y).support()) == set(x.support()) ^ set(y.support())


@settings(max_examples=300, derandomize=True)
@given(st.integers(min_value=2, max_value=40), st.data())
def test_admissible_range_is_the_filter(p, data):
    m = data.draw(st.integers(min_value=1, max_value=p - 1))
    m2 = data.draw(st.integers(min_value=1, max_value=m))
    assert admissible_range(p, m, m2) == [
        m3 for m3 in range(1, p) if is_p_admissible(p, m, m2, m3)
    ]


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_weight_reflection_random(data):
    params = data.draw(st.sampled_from(MODELS_TO_TEN))
    m = data.draw(st.integers(min_value=1, max_value=params.p - 1))
    n = data.draw(st.integers(min_value=1, max_value=params.q - 1))
    assert conformal_weight(params, m, n) == conformal_weight(
        params, params.p - m, params.q - n
    )
    assert canonicalize(params, m, n) == canonicalize(params, params.p - m, params.q - n)


def test_fusion_tensor_symmetry_to_ten():
    for params in MODELS_TO_TEN:
        c = fusion_tensor(params).coefficients
        assert np.array_equal(c, c.transpose(1, 0, 2))
        assert np.array_equal(c[0], np.eye(c.shape[0], dtype=np.uint8))


def test_completion_exclusivity_to_ten():
    # at most one of (m,n) and (p-m,q-n) completes any canonical pair
    for params in MODELS_TO_TEN:
        p, q = params.p, params.q
        secs = sectors(params)
        for si in secs:
            for sj in secs:
                for m in range(1, p):
                    for n in range(1, q):
                        both = is_pq_admissible(
                            params, (si.m, si.n), (sj.m, sj.n), (m, n)
                        ) and is_pq_admissible(params, (si.m, si.n), (sj.m, sj.n), (p - m, q - n))
                        assert not both, (params, (si.m, si.n), (sj.m, sj.n), (m, n))


def test_class_sizes_partition_h_to_ten():
    from math import comb

    for params in MODELS_TO_TEN:
        ctx = GroupContext(params)
        p, q = params.p, params.q
        elements = np.arange(1 << ctx.r, dtype=np.uint64)
        a_mask = np.uint64((1 << (p - 2)) - 1)
        m = np.bitwise_count(elements & a_mask).astype(np.int64) + 1
        n = np.bitwise_count(elements >> np.uint64(p - 2)).astype(np.int64) + 1
        counts = np.zeros((p, q), dtype=np.int64)
        np.add.at(counts, (m, n), 1)
        for mm in range(1, p):
            for nn in range(1, q):
                assert counts[mm, nn] == comb(p - 2, mm - 1) * comb(q - 2, nn - 1)
        assert counts.sum() == 1 << ctx.r
