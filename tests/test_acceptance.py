"""Acceptance suite: one test per release criterion, with stated runtime budgets.

Each criterion prints a single pass/fail line (visible with ``pytest -s`` or
``-rP``); all comparisons are exact, with zero tolerance.  Run via::

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time
from contextlib import contextmanager
from math import comb, gcd

import numpy as np
import pytest

from fusioncover import (
    AbelianGroupSpec,
    CoverMap,
    GroupContext,
    ModelParams,
    admissible_range,
    canonical_cover,
    canonicalize,
    fusion_tensor,
    is_isomorphic_to_verlinde,
    is_p_admissible,
    multiplicity_profile,
    orbit_sum_classes,
    partition_algebra,
    search_cyclic_covers,
    verify_cover,
    verlinde_algebra,
)
from fusioncover.cli import cmd_kac

from conftest import (
    KNOWN_FUSION,
    KNOWN_KAC,
    Z4_ISING_LABELS,
    Z12_TRICRITICAL_LABELS,
    assert_matches_known_fusion,
    coprime_models,
)

DESK_RANGE = [m for m in coprime_models(16, 16, max_sum=18)]


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"
            )
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_kac_table_reproduction():
    with criterion(1, "Kac-table reproduction", budget=1.0):
        for (p, q), expected in KNOWN_KAC.items():
            doc = cmd_kac(p, q, "json")
            assert doc.payload["kac_table"] == expected
        assert cmd_kac(3, 4, "json").payload["model"]["c"] == "1/2"
        assert cmd_kac(4, 5, "json").payload["model"]["c"] == "7/10"


def test_criterion_2_fusion_table_reproduction():
    with criterion(2, "fusion-table reproduction", budget=1.0):
        for (p, q), known in KNOWN_FUSION.items():
            assert_matches_known_fusion(fusion_tensor(ModelParams(p, q)), known)


def test_criterion_3_main_theorem_desk_scale():
    with criterion(3, "canonical 2-group covers, p+q <= 18", budget=60.0):
        largest = 0
        for params in DESK_RANGE:
            cm = canonical_cover(GroupContext(params))
            cert = verify_cover(cm, fusion_tensor(params), threads=1)
            assert cert.passed, (params, cert.witness)
            largest = max(largest, cert.stats["group_order"])
        assert largest == 1 << 13


def test_criterion_4_formulation_equivalence():
    with criterion(4, "partition algebra = Verlinde algebra, with corruptions"):
        for params in DESK_RANGE:
            tensor = fusion_tensor(params)
            v = verlinde_algebra(tensor)
            cm = canonical_cover(GroupContext(params))
            w = partition_algebra(cm)
            assert is_isomorphic_to_verlinde(w, v)
            assert np.array_equal(w.coefficients, tensor.coefficients)
            if cm.context.order == 1:
                continue  # (2,3): a single coset admits no swap corruption
            corrupted = cm.swapped_images(0, 1)
            cert = verify_cover(corrupted, tensor)
            assert not cert.passed and cert.witness is not None
            bad_w = partition_algebra(corrupted, strict=False)
            assert not is_isomorphic_to_verlinde(bad_w, v)
            differing = np.argwhere(bad_w.coefficients != tensor.coefficients)
            assert len(differing) > 0  # the isomorphism failure has a witness cell


def test_criterion_5_lemma_oracles():
    with criterion(5, "closed-form ranges vs brute force; orbit sums", budget=10.0):
        # completion ranges match the definitional filter for every p <= 30
        for p in range(2, 31):
            for m in range(1, p):
                for m2 in range(1, m + 1):
                    brute = [m3 for m3 in range(1, p) if is_p_admissible(p, m, m2, m3)]
                    assert admissible_range(p, m, m2) == brute
        # orbit sums: label sets match the ranges, and attainment is full,
        # exhaustively for every block width arising from p <= 8
        for p in range(3, 9):
            width = p - 2
            ctx = GroupContext(ModelParams(p, p + 1))
            orbits = {
                w: [sum(1 << i for i in s) for s in itertools.combinations(range(width), w - 1)]
                for w in range(1, p)
            }
            for w1 in range(1, p):
                for w2 in range(1, p):
                    got = orbit_sum_classes(ctx, "A", w1, w2)
                    assert got == set(admissible_range(p, max(w1, w2), min(w1, w2)))
                    sums = {a ^ b for a in orbits[w1] for b in orbits[w2]}
                    union = set().union(*(set(orbits[w]) for w in got))
                    assert sums == union
        # the B block sees the same widths through its own accessor
        for q in (3, 4, 5, 6, 7, 8):
            p0 = next(p for p in range(2, q) if gcd(p, q) == 1)
            ctx = GroupContext(ModelParams(p0, q))
            for w1 in range(1, q):
                for w2 in range(1, q):
                    got = orbit_sum_classes(ctx, "B", w1, w2)
                    assert got == set(admissible_range(q, max(w1, w2), min(w1, w2)))


def test_criterion_6_named_group_reproductions():
    with criterion(6, "Z4 and Z12 covers; repetition profile", budget=30.0):
        ising = ModelParams(3, 4)
        tric = ModelParams(4, 5)
        t34, t45 = fusion_tensor(ising), fusion_tensor(tric)

        z4 = CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, Z4_ISING_LABELS)
        assert verify_cover(z4, t34).passed
        z12 = CoverMap.from_kac_labels(
            AbelianGroupSpec.cyclic(12), tric, Z12_TRICRITICAL_LABELS
        )
        assert verify_cover(z12, t45).passed

        found34 = search_cyclic_covers(t34, 4)
        assert z4.sector_indices.tolist() in [cm.sector_indices.tolist() for cm in found34]
        found45 = search_cyclic_covers(t45, 12)
        assert z12.sector_indices.tolist() in [cm.sector_indices.tolist() for cm in found45]

        profile = {s.name: k for s, k in multiplicity_profile(t45).items()}
        assert profile == {
            "[0]": 1,
            "[3/2]": 1,
            "[3/5]": 2,
            "[7/16]": 2,
            "[1/10]": 2,
            "[3/80]": 4,
        }
        assert sorted(profile.values()) == [1, 1, 2, 2, 2, 4]


def test_criterion_7_property_suites():
    with criterion(7, "algebra laws, weight identity, partitions, exclusivity"):
        # Verlinde commutativity and associativity, exhaustively to (p,q) <= 10
        for params in coprime_models(9, 10):
            d = fusion_tensor(params).coefficients.astype(np.int64)
            assert np.array_equal(d, d.transpose(1, 0, 2))
            left = np.einsum("ijm,mkl->ijkl", d, d)
            right = np.einsum("jkm,iml->ijkl", d, d)
            assert np.array_equal(left, right)

        # weight identity, exhaustively for r <= 10
        for r in range(1, 11):
            x = np.arange(1 << r, dtype=np.uint64)
            wx = np.bitwise_count(x).astype(np.int64)
            xs, ys = np.meshgrid(x, x, indexing="ij")
            lhs = np.bitwise_count(xs ^ ys).astype(np.int64)
            rhs = wx[:, None] + wx[None, :] - 2 * np.bitwise_count(xs & ys).astype(np.int64)
            assert np.array_equal(lhs, rhs)

        # and 10^4 randomized cases at widths up to 30
        rng = np.random.default_rng(2026)
        widths = rng.integers(1, 31, size=10_000)
        for r in np.unique(widths):
            count = int((widths == r).sum())
            a = rng.integers(0, 1 << int(r), size=count, dtype=np.uint64)
            b = rng.integers(0, 1 << int(r), size=count, dtype=np.uint64)
            lhs = np.bitwise_count(a ^ b).astype(np.int64)
            rhs = (
                np.bitwise_count(a).astype(np.int64)
                + np.bitwise_count(b).astype(np.int64)
                - 2 * np.bitwise_count(a & b).astype(np.int64)
            )
            assert np.array_equal(lhs, rhs)

        # weight classes partition H: sizes are binomial products summing to 2^r
        for params in coprime_models(9, 10):
            p, q = params.p, params.q
            r = p + q - 4
            total = 0
            for m in range(1, p):
                for n in range(1, q):
                    total += comb(p - 2, m - 1) * comb(q - 2, n - 1)
            assert total == 1 << r
            elements = np.arange(1 << r, dtype=np.uint64)
            m_all = np.bitwise_count(elements & np.uint64((1 << (p - 2)) - 1))
            n_all = np.bitwise_count(elements >> np.uint64(p - 2))
            counts = np.zeros((p, q), dtype=np.int64)
            np.add.at(counts, (m_all.astype(np.int64) + 1, n_all.astype(np.int64) + 1), 1)
            for m in range(1, p):
                for n in range(1, q):
                    assert counts[m, n] == comb(p - 2, m - 1) * comb(q - 2, n - 1)

        # exclusivity: canonical pairs never admit both completions
        from fusioncover import is_pq_admissible, sectors

        for params in coprime_models(9, 10):
            p, q = params.p, params.q
            for si in sectors(params):
                for sj in sectors(params):
                    for m in range(1, p):
                        for n in range(1, q):
                            assert not (
                                is_pq_admissible(params, si.label, sj.label, (m, n))
                                and is_pq_admissible(
                                    params, si.label, sj.label, (p - m, q - n)
                                )
                            )
