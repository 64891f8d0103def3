"""Unit tests for abelian-group cover verification and the cyclic search."""

import itertools
import os
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fusioncover import (
    AbelianGroupSpec,
    CapacityError,
    ClosureViolation,
    CoverMap,
    FusionTensor,
    GroupContext,
    ModelParams,
    canonical_cover,
    fusion_products,
    fusion_tensor,
    multiplicity_profile,
    partition_algebra,
    search_cyclic_covers,
    sectors,
    verify_cover,
)

from fusioncover import _kernels
from fusioncover.cover_search import _class_sums, _search_order

from conftest import (Z4_ISING_LABELS, Z12_TRICRITICAL_LABELS, coprime_models, group_rows,
                      pair_counts_of)


class TestAbelianGroupSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroupSpec((1,))
        with pytest.raises(ValueError):
            AbelianGroupSpec((4, 0))

    # Truncating with int() would make (4.9,) Z4, over which the Ising labels
    # [0, 1, 2, 1] PASS, ("2", "3") Z2 x Z3 and cyclic(2.7) Z2.
    @pytest.mark.parametrize("factors", [(4.9,), ("2", "3"), (2, 3.0)],
                             ids=["float", "str", "whole_float"])
    def test_non_integer_factors_refused(self, factors):
        with pytest.raises(TypeError):
            AbelianGroupSpec(factors)

    @pytest.mark.parametrize("k", [2.7, 1.0, "3"], ids=["float", "whole_float", "str"])
    def test_non_integer_cyclic_order_refused(self, k):
        with pytest.raises(TypeError):
            AbelianGroupSpec.cyclic(k)

    def test_numpy_integer_factors_stored_as_ints(self):
        spec = AbelianGroupSpec(np.array([2, 3]))
        assert spec.factors == (2, 3) and all(type(k) is int for k in spec.factors)
        assert AbelianGroupSpec.cyclic(np.int64(4)).factors == (4,)

    def test_cyclic(self):
        assert AbelianGroupSpec.cyclic(1).factors == ()
        assert AbelianGroupSpec.cyclic(12).factors == (12,)
        with pytest.raises(ValueError):
            AbelianGroupSpec.cyclic(0)

    def test_order_and_elements(self):
        spec = AbelianGroupSpec((2, 3))
        assert spec.order == 6
        elements = [tuple(spec.element_json(g)) for g in range(spec.order)]
        assert elements == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        trivial = AbelianGroupSpec(())
        assert trivial.order == 1
        assert trivial.element_json(0) == []

    def test_add_and_negate_codes(self):
        # Codes of (1, 2) + (1, 2) = (0, 1) and -(1, 2) = (1, 1) in Z2 x Z3.
        table = AbelianGroupSpec((2, 3)).addition_table()
        assert table[5][5] == 1
        assert table[5].index(0) == 4

    def test_codes_decode_to_elements(self):
        spec = AbelianGroupSpec((2, 3))
        digits = _kernels.decode(np.arange(spec.order), spec.factors)
        assert digits.tolist() == [spec.element_json(g) for g in range(spec.order)]
        assert (digits @ _kernels.place_values(spec.factors)).tolist() == list(range(spec.order))

    @pytest.mark.parametrize("factors", [(), (5,), (2, 3), (2, 2, 4)])
    def test_addition_table(self, factors):
        spec = AbelianGroupSpec(factors)
        codes = np.arange(spec.order)
        rows = group_rows(_kernels.decode(codes, factors), factors)
        assert spec.addition_table() == rows(codes).tolist()


class TestCoverMapOfAbelianGroup:
    def test_partial_labeling_rejected(self, ising):
        with pytest.raises(ValueError, match=r"all 4 elements, got shape \(3,\)"):
            CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, Z4_ISING_LABELS[:3])

    def test_partial_labeling_of_huge_group_rejected(self, ising):
        # 10^10 elements: refused by the count, without enumerating the group.
        spec = AbelianGroupSpec((100000, 100000))
        with pytest.raises(ValueError, match=r"all 10000000000 elements, got shape \(1,\)"):
            CoverMap.from_kac_labels(spec, ising, [(1, 1)])

    def test_extra_labels_rejected(self, ising):
        labels = Z4_ISING_LABELS + [(1, 1)]
        with pytest.raises(ValueError, match=r"all 4 elements, got shape \(5,\)"):
            CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, labels)

    def test_identity_must_be_vacuum(self, ising):
        spec = AbelianGroupSpec.cyclic(4)
        labels = [(1, 2)] + Z4_ISING_LABELS[1:]
        with pytest.raises(ValueError, match="identity"):
            CoverMap.from_kac_labels(spec, ising, labels)

    def test_noncanonical_labels_accepted(self, ising):
        # (2,2) is the same sector as (1,2)
        spec = AbelianGroupSpec.cyclic(4)
        labels = Z4_ISING_LABELS[:3] + [(2, 2)]
        cm = CoverMap.from_kac_labels(spec, ising, labels)
        s = cm.sectors[cm.sector_indices[3]]
        assert (s.m, s.n) == (1, 2)

    def test_wrong_length(self, ising):
        with pytest.raises(ValueError, match="elements"):
            CoverMap(AbelianGroupSpec.cyclic(4), (0, 1, 2), sectors(ising))

    @pytest.mark.parametrize(
        "indices",
        [[0.0, 1.7, 2.2, 1.0], ["0", "1", "2", "1"], [0, 1, 2, 1.5], [0, 1, 2, float("nan")],
         [0, 1, 2, Fraction(1)]],
        ids=["fractional", "strings", "one-fractional", "nan", "objects"],
    )
    def test_indices_that_are_not_whole_numbers_rejected(self, ising, indices):
        # Truncated, the first would be the Ising Z4 cover [0, 1, 2, 1].
        with pytest.raises(ValueError, match="whole numbers"):
            CoverMap(AbelianGroupSpec.cyclic(4), indices, sectors(ising))

    def test_whole_float_indices_accepted(self, ising, ising_tensor):
        cm = CoverMap(AbelianGroupSpec.cyclic(4), [0.0, 1.0, 2.0, 1.0], sectors(ising))
        assert cm.sector_indices.dtype == np.int64
        assert cm.sector_indices.tolist() == [0, 1, 2, 1]
        assert verify_cover(cm, ising_tensor).passed


class TestVerifyCoverOfAbelianGroup:
    def test_z4_ising_passes(self, ising, ising_tensor):
        cm = CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, Z4_ISING_LABELS)
        cert = verify_cover(cm, ising_tensor)
        assert cert.passed
        assert cert.stats["group_order"] == 4

    def test_z12_tricritical_passes(self, tricritical, tricritical_tensor):
        cm = CoverMap.from_kac_labels(
            AbelianGroupSpec.cyclic(12), tricritical, Z12_TRICRITICAL_LABELS
        )
        cert = verify_cover(cm, tricritical_tensor)
        assert cert.passed

    def test_scrambled_z4_fails_with_witness(self, ising, ising_tensor):
        labels = [(1, 1), (1, 2), (1, 2), (1, 3)]
        cm = CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, labels)
        cert = verify_cover(cm, ising_tensor)
        assert not cert.passed
        w = cert.witness
        assert isinstance(w, ClosureViolation)
        # first violation: 1 + 1 = 2 gives [1/16] x [1/16] -> [1/16]
        assert (w.g1, w.g2, w.g3) == (1, 1, 2)
        # recheck independently
        i, j, k = (s.index for s in w.sectors)
        assert ising_tensor.coefficients[i, j, k] == 0

    def test_witness_indexes_the_map_it_refutes(self, ising, ising_tensor):
        spec = AbelianGroupSpec((4, 2))
        cm = CoverMap(spec, [0, 0, 1, 1, 2, 1, 1, 2], sectors(ising))
        w = verify_cover(cm, ising_tensor).witness
        assert isinstance(w, ClosureViolation)
        assert (w.g1, w.g2, w.g3) == (1, 4, 5)
        sec = cm.sector_indices
        assert ising_tensor.coefficients[sec[w.g1], sec[w.g2], sec[w.g3]] == 0
        digits = _kernels.decode([w.g1, w.g2], spec.factors).sum(axis=0) % spec.factors
        assert digits @ _kernels.place_values(spec.factors) == w.g3
        shown = [spec.element_json(g) for g in (w.g1, w.g2, w.g3)]
        assert shown == [[0, 1], [2, 0], [2, 1]]

    def test_fail_starts_no_thread(self, ising, ising_tensor, monkeypatch):
        def no_start(thread):
            raise AssertionError("the witness scan must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        labels = [(1, 1), (1, 2), (1, 2), (1, 3)]
        cm = CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, labels)
        cert = verify_cover(cm, ising_tensor)
        assert isinstance(cert.witness, ClosureViolation)

    def test_threads_are_ignored(self, ising, ising_tensor):
        labels = [(1, 1), (1, 2), (1, 2), (1, 3)]
        for table in (Z4_ISING_LABELS, labels):
            cm = CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, table)
            assert verify_cover(cm, ising_tensor, threads=2) == verify_cover(cm, ising_tensor)

    def test_model_mismatch(self, ising, tricritical_tensor):
        cm = CoverMap.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, Z4_ISING_LABELS)
        with pytest.raises(ValueError):
            verify_cover(cm, tricritical_tensor)

    def test_z2xz2_covers_ising(self, ising, ising_tensor):
        # the quotient construction seen as Z2 x Z2, labels from the phi
        # images of the elements 0,0  0,1  1,0  1,1
        labels = [(1, 1), (1, 2), (1, 3), (1, 2)]
        cm = CoverMap.from_kac_labels(AbelianGroupSpec((2, 2)), ising, labels)
        assert verify_cover(cm, ising_tensor).passed

    def test_order_above_exactness_bound_refused(self, ising, ising_tensor):
        cm = CoverMap(AbelianGroupSpec((2,) * 18), np.zeros(1 << 18), sectors(ising))
        with pytest.raises(CapacityError, match="2\\^17"):
            verify_cover(cm, ising_tensor)

    def test_trivial_group_covers_degenerate_model(self):
        params = ModelParams(2, 3)
        cm = CoverMap.from_kac_labels(AbelianGroupSpec(()), params, [(1, 1)])
        assert verify_cover(cm, fusion_tensor(params)).passed


class TestAgainstTwoGroupConstruction:
    @staticmethod
    def as_abelian_cover(cm):
        """Re-express a coset assignment as a Z2^(r-1) labeled group: a coset
        and the element of the same code have the same digits."""
        spec = AbelianGroupSpec(cm.context.factors)
        labels = [(cm.sectors[i].m, cm.sectors[i].n) for i in cm.sector_indices]
        return CoverMap.from_kac_labels(spec, cm.context.params, labels)

    def test_agrees_with_verify_cover(self):
        for params in coprime_models(6, 11, max_sum=14):
            tensor = fusion_tensor(params)
            cm = canonical_cover(GroupContext(params))
            candidates = [cm]
            if cm.context.order > 1 and tensor.n > 1:
                # corrupt a non-identity coset (keeps the vacuum label intact,
                # which from_kac_labels requires)
                wrong = (int(cm.sector_indices[1]) + 1) % tensor.n
                candidates.append(cm.reassigned(1, wrong))
            for candidate in candidates:
                direct = verify_cover(candidate, tensor)
                relabeled = verify_cover(self.as_abelian_cover(candidate), tensor)
                assert direct.verdict == relabeled.verdict, params


class TestGroupKindsAgree:
    """The canonical labels over the quotient and over Z2^(r-1), as a group
    file would give them: the element codes coincide, so the two kinds must
    count and certify alike, down to the witness codes."""

    @pytest.mark.parametrize("pq", [(3, 4), (4, 5), (5, 6), (2, 9)])
    def test_counts_certificates_and_partitions_agree(self, pq):
        params = ModelParams(*pq)
        tensor = fusion_tensor(params)
        canonical = canonical_cover(GroupContext(params))
        spec = AbelianGroupSpec((2,) * (canonical.context.r - 1))
        labels, secs = canonical.sector_indices, canonical.sectors
        last = spec.order - 1
        wrong = (int(labels[1]) + 1) % len(secs)
        changes = [
            lambda m: m,
            lambda m: m.swapped_images(0, 1),
            lambda m: m.swapped_images(1, last),
            lambda m: m.reassigned(1, wrong),
            lambda m: m.reassigned(last, 0),
        ]
        outcomes = set()
        for change in changes:
            quotient = change(CoverMap(canonical.context, labels, secs))
            abelian = change(CoverMap(spec, labels, secs))
            assert np.array_equal(pair_counts_of(quotient), pair_counts_of(abelian))
            a, b = verify_cover(quotient, tensor), verify_cover(abelian, tensor)
            assert a == b
            outcomes.add(type(a.witness))
            wa = partition_algebra(quotient, strict=a.passed)
            wb = partition_algebra(abelian, strict=a.passed)
            assert np.array_equal(wa.coefficients, wb.coefficients)
        assert {type(None), ClosureViolation} <= outcomes
        # The canonical cover's proved support gives the same certificate.
        abelian = CoverMap(spec, labels, secs)
        assert verify_cover(canonical, tensor) == verify_cover(abelian, tensor)
        counts = pair_counts_of(abelian)
        assert np.array_equal(canonical.support.coefficients, counts != 0)
        assert np.array_equal(partition_algebra(canonical).coefficients, counts > 0)


class TestMultiplicityProfile:
    def test_tricritical(self, tricritical):
        profile = {s.name: k for s, k in multiplicity_profile(tricritical).items()}
        assert profile == {
            "[0]": 1,
            "[3/2]": 1,
            "[3/5]": 2,
            "[7/16]": 2,
            "[1/10]": 2,
            "[3/80]": 4,
        }

    def test_ising(self, ising):
        profile = {s.name: k for s, k in multiplicity_profile(ising).items()}
        assert profile == {"[0]": 1, "[1/2]": 1, "[1/16]": 2}

    def test_degenerate(self):
        assert [k for _, k in multiplicity_profile(ModelParams(2, 3)).items()] == [1]

    @pytest.mark.parametrize("pq", [(3, 4), (4, 5), (2, 9), (3, 7), (5, 6)])
    def test_matches_tensor_row_sums(self, pq):
        # Oracle: the profile as the largest count over the tensor's rows.
        params = ModelParams(*pq)
        tensor = fusion_tensor(params)
        counts = tensor.coefficients.sum(axis=1)
        expected = {s: int(counts[:, s.index].max()) for s in tensor.sectors}
        assert multiplicity_profile(params) == expected


def brute_force_cyclic_covers(tensor, max_order):
    """Oracle: try *every* labeling of Z_k for k <= max_order, no pruning.

    Returns every passing labeling, as search_cyclic_covers lists them:
    sorted by (order, label tuple), the order ``itertools.product`` tries
    them in.  Each is its own negation
    (``test_every_labeling_is_its_own_negation``), so none is dropped.
    """
    secs = tensor.sectors
    found = []
    for k in range(1, max_order + 1):
        spec = AbelianGroupSpec.cyclic(k)
        for tail in itertools.product(range(tensor.n), repeat=k - 1):
            assign = (0,) + tail
            cover = CoverMap(spec, assign, secs)
            if verify_cover(cover, tensor).passed:
                found.append(cover)
    return found


def loop_search_order(tensor, k):
    """Oracle: the cyclic search as a per-pair loop over Z_k index arithmetic.

    Labels 1..k-1 in order, trying sectors ascending, and after each label
    checks every pair sum that has become decidable; complete labelings
    are checked for coverage triple by triple.
    """
    n = tensor.n
    d = tensor.coefficients.astype(bool)
    assign = [0] * k
    found = []

    def consistent(e):
        se = assign[e]
        for x in range(e + 1):
            z = (x + e) % k
            if z <= e and not d[assign[x], se, assign[z]]:
                return False
        for x in range(e):
            y = (e - x) % k
            if x <= y < e and not d[assign[x], assign[y], se]:
                return False
        return True

    def realizes_all():
        realized = np.zeros((n, n, n), dtype=bool)
        for x in range(k):
            for y in range(k):
                realized[assign[x], assign[y], assign[(x + y) % k]] = True
        return not np.any(d & ~realized)

    def place(e):
        if e == k:
            if realizes_all():
                found.append(tuple(assign))
            return
        for s in range(n):
            assign[e] = s
            if consistent(e):
                place(e + 1)

    place(1)
    return found


class TestSearchOrder:
    @pytest.mark.parametrize(
        "p,q,max_order",
        [(3, 4, 24), (2, 5, 24), (3, 5, 20), (2, 7, 24), (2, 9, 16), (3, 7, 16), (4, 5, 40)],
    )
    def test_matches_loop_oracle(self, p, q, max_order):
        # The search reads the product lists, the oracle the tensor.
        params = ModelParams(p, q)
        products, tensor = fusion_products(params), fusion_tensor(params)
        bound = sum(multiplicity_profile(params).values())
        for k in range(bound, max_order + 1):
            assert _search_order(products, k) == loop_search_order(tensor, k), k

    def test_matches_loop_oracle_on_random_tensors(self):
        # Random fusion-like tensors, the search's domain: a triple is kept
        # only if all its permutations were drawn, and the vacuum row, column
        # and slice are the identity.  Every labeling found must also pass
        # verify_cover.
        rng = np.random.default_rng(0)
        shapes = {2: ModelParams(2, 5), 3: ModelParams(3, 4), 4: ModelParams(2, 9)}
        nonempty = 0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            d = rng.random((n, n, n)) < 0.7
            for perm in itertools.permutations(range(3)):
                d = d & d.transpose(perm)
            d = d.astype(np.uint8)
            eye = np.eye(n, dtype=np.uint8)
            d[0], d[:, 0], d[:, :, 0] = eye, eye, eye
            shape = fusion_tensor(shapes[n])
            tensor = FusionTensor(shape.sectors, d)
            products = [[tuple(np.flatnonzero(cell).tolist()) for cell in row] for row in d]
            for k in range(1, 9):
                found = loop_search_order(tensor, k)
                assert _search_order(products, k) == found, (d.tolist(), k)
                for assign in found:
                    cover = CoverMap(AbelianGroupSpec.cyclic(k), assign, tensor.sectors)
                    assert verify_cover(cover, tensor).passed, (d.tolist(), assign)
                nonempty += bool(found)
        assert nonempty > 10

    def test_sector_in_no_triple_need_not_label(self):
        # Z2 rules on sectors 0 and 1; sector 2 occurs in no product, so
        # Z2 labeled (0, 1) covers without it.
        d = np.zeros((3, 3, 3), dtype=np.uint8)
        d[0, 0, 0] = d[0, 1, 1] = d[1, 0, 1] = d[1, 1, 0] = 1
        ising = fusion_tensor(ModelParams(3, 4))
        tensor = FusionTensor(ising.sectors, d)
        products = [[tuple(np.flatnonzero(cell).tolist()) for cell in row] for row in d]
        for k in range(1, 5):
            assert _search_order(products, k) == loop_search_order(tensor, k), k
        assert _search_order(products, 2) == [(0, 1)]

    def test_trivial_group_matches_loop_oracle(self):
        params = ModelParams(2, 3)
        found = _search_order(fusion_products(params), 1)
        assert found == loop_search_order(fusion_tensor(params), 1) == [(0,)]

    @pytest.mark.parametrize(
        "factors", [(), *((k,) for k in range(2, 13)), (2, 2), (2, 4), (3, 3), (2, 2, 2)]
    )
    def test_class_triples_decide_every_pair_once(self, factors):
        spec = AbelianGroupSpec(factors)
        table = spec.addition_table()
        cls, checks, sums = _class_sums(table)
        # Classes are {x, -x}, numbered by their least element.
        negation = [row.index(0) for row in table]
        least = sorted({min(x, minus) for x, minus in enumerate(negation)})
        assert cls == [least.index(min(x, minus)) for x, minus in enumerate(negation)]
        # Every pair maps, sorted, to a class triple decided at its largest
        # class; every triple decided is some pair's, and is decided once.
        triples = {tuple(sorted((cls[x], cls[y], cls[z])))
                   for x, row in enumerate(table) for y, z in enumerate(row)}
        decided = Counter((a, b, c) for c, pairs in enumerate(checks) for a, b in pairs)
        assert decided == Counter(triples)
        # The class sums are those of every pair, though only class pairs
        # are walked.
        assert sums == {(min(cls[x], cls[y]), max(cls[x], cls[y]), cls[z])
                        for x, row in enumerate(table) for y, z in enumerate(row)}


class TestSearchCyclicCovers:
    def test_ising_up_to_4(self, ising):
        covers = search_cyclic_covers(ising, 4)
        assert len(covers) == 1
        cm = covers[0]
        assert cm.context.factors == (4,)
        assert cm.sector_indices.tolist() == [0, 1, 2, 1]

    def test_matches_brute_force_oracle(self, ising, ising_tensor):
        got = search_cyclic_covers(ising, 4)
        expected = brute_force_cyclic_covers(ising_tensor, 4)
        assert [(cm.context.factors, cm.sector_indices.tolist()) for cm in got] == [
            (cm.context.factors, cm.sector_indices.tolist()) for cm in expected
        ]

    def test_no_small_ising_covers(self, ising, ising_tensor):
        assert search_cyclic_covers(ising, 2) == []
        assert brute_force_cyclic_covers(ising_tensor, 3) == []

    def test_tricritical_finds_z12(self, tricritical):
        covers = search_cyclic_covers(tricritical, 12)
        from fusioncover import canonicalize

        paper = tuple(canonicalize(tricritical, *label).index for label in Z12_TRICRITICAL_LABELS)
        assert any(tuple(cm.sector_indices.tolist()) == paper for cm in covers)

    def test_trivial_group_for_degenerate_model(self):
        covers = search_cyclic_covers(ModelParams(2, 3), 1)
        assert len(covers) == 1
        assert covers[0].context.order == 1

    def test_found_covers_reverify(self, tricritical, tricritical_tensor):
        for cm in search_cyclic_covers(tricritical, 12):
            assert verify_cover(cm, tricritical_tensor).passed

    def test_found_covers_are_surjective(self, tricritical, tricritical_tensor):
        for cm in search_cyclic_covers(tricritical, 12):
            counts = Counter(cm.sector_indices.tolist())
            assert all(counts[i] >= 1 for i in range(tricritical_tensor.n))

    def test_negation_symmetry(self, tricritical, tricritical_tensor):
        for cm in search_cyclic_covers(tricritical, 12):
            k = cm.context.order
            negated = cm.sector_indices[(-np.arange(k)) % k]
            mirrored = CoverMap(cm.context, negated, cm.sectors)
            assert verify_cover(mirrored, tricritical_tensor).passed

    @pytest.mark.parametrize(
        "p,q,max_order",
        [(3, 4, 24), (2, 5, 24), (3, 5, 20), (2, 7, 24), (2, 9, 20), (3, 7, 16), (4, 5, 40)],
    )
    def test_matches_set_and_sort_dedup(self, p, q, max_order):
        # Oracle: every order's labelings, sorted; the search must list the
        # same, in order.  No labeling has a distinct negation
        # (test_every_labeling_is_its_own_negation), so none is dropped.
        params = ModelParams(p, q)
        products = fusion_products(params)
        expected = []
        for k in range(1, max_order + 1):
            expected.extend((k,) + a for a in sorted(_search_order(products, k)))
        got = search_cyclic_covers(params, max_order)
        assert [cm.context.factors + tuple(cm.sector_indices.tolist()) for cm in got] == expected

    @pytest.mark.parametrize(
        "p,q,max_order",
        [(3, 4, 24), (2, 5, 24), (3, 5, 20), (2, 7, 24), (2, 9, 20), (3, 7, 16), (4, 5, 40)],
    )
    def test_every_labeling_is_its_own_negation(self, p, q, max_order):
        # Closure on x + (-x) = 0 puts (L(x), L(-x), vacuum) in the fusion
        # rules, which hold (a, b, vacuum) only for a = b.  The search labels
        # one class {x, -x} at a time because of this, so it is checked with
        # the loop oracle, which labels every element.
        params = ModelParams(p, q)
        tensor = fusion_tensor(params)
        bound = sum(multiplicity_profile(params).values())
        found = 0
        for k in range(bound, max_order + 1):
            for assign in loop_search_order(tensor, k):
                assert assign == tuple(assign[-x] for x in range(k)), (k, assign)
                found += 1
        assert found

    def test_budget(self, ising):
        # The budget is the CLI's; the library searches any order it is given.
        with pytest.raises(ValueError):
            search_cyclic_covers(ising, 0)
        assert search_cyclic_covers(ising, 25)

    def test_printing_a_result_loads_no_numpy(self):
        # The repr shows the group only: labels and sectors are left out.
        code = (
            "import sys\n"
            "from fusioncover import ModelParams, search_cyclic_covers\n"
            "covers = search_cyclic_covers(ModelParams(4, 5), 12)\n"
            "shown = [repr(cm) for cm in covers]\n"
            "assert covers and not any('sector_indices' in vars(cm) for cm in covers)\n"
            "assert 'numpy' not in sys.modules\n"
            "print(*shown, sep='\\n')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "_FoundCover(context=AbelianGroupSpec(factors=(12,)))\n"

    def test_found_map_builds_its_array_on_first_access(self, tricritical, tricritical_tensor):
        covers = search_cyclic_covers(tricritical, 12)
        assert covers and all("sector_indices" not in vars(cm) for cm in covers)
        cm = covers[0]
        arr = cm.sector_indices
        assert vars(cm)["sector_indices"] is arr
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert arr.tolist() == list(cm.labels)
        assert verify_cover(cm, tricritical_tensor).passed
