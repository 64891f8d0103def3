"""Unit tests for abelian-group cover verification and the cyclic search."""

import dataclasses
import itertools
import threading
from collections import Counter

import numpy as np
import pytest

from fusioncover import (
    AbelianGroupSpec,
    CapacityError,
    ClosureViolation,
    GroupContext,
    LabeledGroup,
    ModelParams,
    canonical_cover,
    fusion_tensor,
    multiplicity_profile,
    search_cyclic_covers,
    verify_abelian_cover,
    verify_cover,
)

from fusioncover.cover_search import _check_lists, _search_order

from conftest import Z4_ISING_LABELS, Z12_TRICRITICAL_LABELS, coprime_models


class TestAbelianGroupSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroupSpec((1,))
        with pytest.raises(ValueError):
            AbelianGroupSpec((4, 0))

    def test_cyclic(self):
        assert AbelianGroupSpec.cyclic(1).factors == ()
        assert AbelianGroupSpec.cyclic(12).factors == (12,)
        with pytest.raises(ValueError):
            AbelianGroupSpec.cyclic(0)

    def test_order_and_elements(self):
        spec = AbelianGroupSpec((2, 3))
        assert spec.order == 6
        assert spec.elements() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert spec.identity == (0, 0)
        trivial = AbelianGroupSpec(())
        assert trivial.order == 1
        assert trivial.elements() == [()]

    def test_add_negate_index(self):
        spec = AbelianGroupSpec((2, 3))
        assert spec.add((1, 2), (1, 2)) == (0, 1)
        assert spec.negate((1, 2)) == (1, 1)
        for i, e in enumerate(spec.elements()):
            assert spec.index_of(e) == i

    def test_digit_matrix(self):
        spec = AbelianGroupSpec((2, 3))
        assert spec.digit_matrix().tolist() == [list(e) for e in spec.elements()]

    @pytest.mark.parametrize("factors", [(), (5,), (2, 3), (2, 2, 4)])
    def test_addition_table(self, factors):
        spec = AbelianGroupSpec(factors)
        elements = spec.elements()
        assert spec.addition_table().tolist() == [
            [spec.index_of(spec.add(a, b)) for b in elements] for a in elements
        ]


class TestLabeledGroup:
    def test_partial_labeling_rejected(self, ising):
        spec = AbelianGroupSpec.cyclic(4)
        labels = dict(Z4_ISING_LABELS)
        labels.pop((2,))
        with pytest.raises(ValueError, match="partial"):
            LabeledGroup.from_kac_labels(spec, ising, labels)

    def test_partial_labeling_of_huge_group_rejected(self, ising):
        spec = AbelianGroupSpec((100000, 100000))
        with pytest.raises(ValueError, match=r"partial: element \(0, 1\)"):
            LabeledGroup.from_kac_labels(spec, ising, {(0, 0): (1, 1)})

    def test_extra_labels_rejected(self, ising):
        labels = dict(Z4_ISING_LABELS)
        labels[(4,)] = (1, 1)
        with pytest.raises(ValueError, match=r"non-elements: \(4,\)"):
            LabeledGroup.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, labels)

    def test_identity_must_be_vacuum(self, ising):
        spec = AbelianGroupSpec.cyclic(4)
        labels = dict(Z4_ISING_LABELS)
        labels[(0,)] = (1, 2)
        with pytest.raises(ValueError, match="identity"):
            LabeledGroup.from_kac_labels(spec, ising, labels)

    def test_noncanonical_labels_accepted(self, ising):
        # (2,2) is the same sector as (1,2)
        spec = AbelianGroupSpec.cyclic(4)
        labels = dict(Z4_ISING_LABELS)
        labels[(3,)] = (2, 2)
        lg = LabeledGroup.from_kac_labels(spec, ising, labels)
        assert lg.sector_of((3,)).label == (1, 2)

    def test_wrong_length(self, ising):
        with pytest.raises(ValueError, match="elements"):
            LabeledGroup(AbelianGroupSpec.cyclic(4), ising, (0, 1, 2))


class TestVerifyAbelianCover:
    def test_z4_ising_passes(self, ising, ising_tensor):
        lg = LabeledGroup.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, Z4_ISING_LABELS)
        cert = verify_abelian_cover(lg, ising_tensor)
        assert cert.passed
        assert cert.stats["group_order"] == 4

    def test_z12_tricritical_passes(self, tricritical, tricritical_tensor):
        lg = LabeledGroup.from_kac_labels(
            AbelianGroupSpec.cyclic(12), tricritical, Z12_TRICRITICAL_LABELS
        )
        cert = verify_abelian_cover(lg, tricritical_tensor)
        assert cert.passed

    def test_scrambled_z4_fails_with_witness(self, ising, ising_tensor):
        labels = {(0,): (1, 1), (1,): (1, 2), (2,): (1, 2), (3,): (1, 3)}
        lg = LabeledGroup.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, labels)
        cert = verify_abelian_cover(lg, ising_tensor)
        assert not cert.passed
        w = cert.witness
        assert isinstance(w, ClosureViolation)
        # first violation: 1 + 1 = 2 gives [1/16] x [1/16] -> [1/16]
        assert (w.g1, w.g2, w.g3) == ((1,), (1,), (2,))
        # recheck independently
        i, j, k = (s.index for s in w.sectors)
        assert ising_tensor.coefficients[i, j, k] == 0

    def test_fail_starts_no_thread(self, ising, ising_tensor, monkeypatch):
        def no_start(thread):
            raise AssertionError("the witness scan must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        labels = {(0,): (1, 1), (1,): (1, 2), (2,): (1, 2), (3,): (1, 3)}
        lg = LabeledGroup.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, labels)
        cert = verify_abelian_cover(lg, ising_tensor)
        assert isinstance(cert.witness, ClosureViolation)

    def test_takes_no_threads_argument(self, ising, ising_tensor):
        lg = LabeledGroup.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, Z4_ISING_LABELS)
        with pytest.raises(TypeError, match="threads"):
            verify_abelian_cover(lg, ising_tensor, threads=2)

    def test_model_mismatch(self, ising, tricritical_tensor):
        lg = LabeledGroup.from_kac_labels(AbelianGroupSpec.cyclic(4), ising, Z4_ISING_LABELS)
        with pytest.raises(ValueError):
            verify_abelian_cover(lg, tricritical_tensor)

    def test_z2xz2_covers_ising(self, ising, ising_tensor):
        # the quotient construction seen as Z2 x Z2, labels from the phi images
        labels = {(0, 0): (1, 1), (1, 0): (1, 3), (0, 1): (1, 2), (1, 1): (1, 2)}
        lg = LabeledGroup.from_kac_labels(AbelianGroupSpec((2, 2)), ising, labels)
        assert verify_abelian_cover(lg, ising_tensor).passed

    def test_order_above_exactness_bound_refused(self, ising, ising_tensor):
        lg = LabeledGroup(AbelianGroupSpec((2,) * 18), ising, (0,) * (1 << 18))
        with pytest.raises(CapacityError, match="2\\^17"):
            verify_abelian_cover(lg, ising_tensor)

    def test_trivial_group_covers_degenerate_model(self):
        params = ModelParams(2, 3)
        lg = LabeledGroup.from_kac_labels(AbelianGroupSpec(()), params, {(): (1, 1)})
        assert verify_abelian_cover(lg, fusion_tensor(params)).passed


class TestAgainstTwoGroupConstruction:
    @staticmethod
    def as_labeled_group(cm):
        """Re-express a coset assignment as a Z2^(r-1) labeled group."""
        t = cm.context.r - 1
        spec = AbelianGroupSpec((2,) * t) if t else AbelianGroupSpec(())
        secs = cm.sectors
        labels = {}
        for g, sector_index in enumerate(cm.sector_indices):
            digits = tuple((g >> (t - 1 - u)) & 1 for u in range(t))
            labels[digits] = secs[sector_index].label
        return LabeledGroup.from_kac_labels(spec, cm.context.params, labels)

    def test_agrees_with_verify_cover(self):
        for params in coprime_models(6, 11, max_sum=14):
            tensor = fusion_tensor(params)
            cm = canonical_cover(GroupContext(params))
            candidates = [cm]
            if cm.context.n_cosets > 1 and tensor.n > 1:
                # corrupt a non-identity coset (keeps the vacuum label intact,
                # which the LabeledGroup invariant requires)
                wrong = (int(cm.sector_indices[1]) + 1) % tensor.n
                candidates.append(cm.reassigned(1, wrong))
            for candidate in candidates:
                direct = verify_cover(candidate, tensor)
                relabeled = verify_abelian_cover(self.as_labeled_group(candidate), tensor)
                assert direct.verdict == relabeled.verdict, params


class TestMultiplicityProfile:
    def test_tricritical(self, tricritical_tensor):
        profile = {s.name: k for s, k in multiplicity_profile(tricritical_tensor).items()}
        assert profile == {
            "[0]": 1,
            "[3/2]": 1,
            "[3/5]": 2,
            "[7/16]": 2,
            "[1/10]": 2,
            "[3/80]": 4,
        }

    def test_ising(self, ising_tensor):
        profile = {s.name: k for s, k in multiplicity_profile(ising_tensor).items()}
        assert profile == {"[0]": 1, "[1/2]": 1, "[1/16]": 2}

    def test_degenerate(self):
        tensor = fusion_tensor(ModelParams(2, 3))
        assert [k for _, k in multiplicity_profile(tensor).items()] == [1]


def brute_force_cyclic_covers(tensor, max_order):
    """Oracle: try *every* labeling of Z_k for k <= max_order, no pruning.

    Returns the same canonical form as search_cyclic_covers: negation
    duplicates removed, sorted by (order, label tuple).
    """
    model = tensor.model
    found = []
    for k in range(1, max_order + 1):
        spec = AbelianGroupSpec.cyclic(k)
        seen = set()
        for tail in itertools.product(range(tensor.n), repeat=k - 1):
            assign = (0,) + tail
            lg = LabeledGroup(spec, model, assign)
            if verify_abelian_cover(lg, tensor).passed:
                negated = tuple(assign[(-x) % k] for x in range(k))
                seen.add(min(assign, negated))
        found.extend(LabeledGroup(spec, model, a) for a in sorted(seen))
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
        tensor = fusion_tensor(ModelParams(p, q))
        bound = sum(multiplicity_profile(tensor).values())
        for k in range(bound, max_order + 1):
            assert _search_order(tensor, k) == loop_search_order(tensor, k), k

    def test_matches_loop_oracle_on_random_tensors(self):
        # Fusion tensors are symmetric and self-conjugate, which makes some
        # checks redundant; arbitrary 0/1 tensors exercise every check.
        rng = np.random.default_rng(0)
        shapes = {2: ModelParams(2, 5), 3: ModelParams(3, 4), 4: ModelParams(2, 9)}
        nonempty = 0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            d = (rng.random((n, n, n)) < 0.7).astype(np.uint8)
            tensor = dataclasses.replace(fusion_tensor(shapes[n]), coefficients=d)
            for k in range(1, 9):
                found = loop_search_order(tensor, k)
                assert _search_order(tensor, k) == found, (d.tolist(), k)
                nonempty += bool(found)
        assert nonempty > 10

    def test_trivial_group_matches_loop_oracle(self):
        tensor = fusion_tensor(ModelParams(2, 3))
        assert _search_order(tensor, 1) == loop_search_order(tensor, 1) == [(0,)]

    @pytest.mark.parametrize(
        "factors", [(), *((k,) for k in range(2, 13)), (2, 2), (2, 4), (3, 3), (2, 2, 2)]
    )
    def test_check_lists_decide_every_pair_once(self, factors):
        spec = AbelianGroupSpec(factors)
        k = spec.order
        table = spec.addition_table().tolist()
        decided = Counter()
        for e, (pairs, twice) in enumerate(_check_lists(table)):
            for kind, u, v in pairs:
                x, y = (u, e) if kind == "second" else (u, v)
                assert max(x, y, table[x][y]) == e
                decided[min(x, y), max(x, y)] += 1
            if twice >= 0:
                assert table[e][e] == twice < e
                decided[e, e] += 1
        nonzero = [(x, y) for y in range(1, k) for x in range(1, y + 1)]
        assert decided == Counter(nonzero)


class TestSearchCyclicCovers:
    def test_ising_up_to_4(self, ising_tensor):
        covers = search_cyclic_covers(ising_tensor, 4)
        assert len(covers) == 1
        lg = covers[0]
        assert lg.spec.factors == (4,)
        assert lg.sector_indices == (0, 1, 2, 1)

    def test_matches_brute_force_oracle(self, ising_tensor):
        got = search_cyclic_covers(ising_tensor, 4)
        expected = brute_force_cyclic_covers(ising_tensor, 4)
        assert [(lg.spec.factors, lg.sector_indices) for lg in got] == [
            (lg.spec.factors, lg.sector_indices) for lg in expected
        ]

    def test_no_small_ising_covers(self, ising_tensor):
        assert search_cyclic_covers(ising_tensor, 2) == []
        assert brute_force_cyclic_covers(ising_tensor, 3) == []

    def test_tricritical_finds_z12(self, tricritical, tricritical_tensor):
        covers = search_cyclic_covers(tricritical_tensor, 12)
        from fusioncover import canonicalize

        paper = tuple(
            canonicalize(tricritical, *Z12_TRICRITICAL_LABELS[(e,)]).index for e in range(12)
        )
        assert any(lg.sector_indices == paper for lg in covers)

    def test_trivial_group_for_degenerate_model(self):
        tensor = fusion_tensor(ModelParams(2, 3))
        covers = search_cyclic_covers(tensor, 1)
        assert len(covers) == 1
        assert covers[0].spec.order == 1

    def test_found_covers_reverify(self, tricritical_tensor):
        for lg in search_cyclic_covers(tricritical_tensor, 12):
            assert verify_abelian_cover(lg, tricritical_tensor).passed

    def test_found_covers_are_surjective(self, tricritical_tensor):
        for lg in search_cyclic_covers(tricritical_tensor, 12):
            counts = Counter(lg.sector_indices)
            assert all(counts[i] >= 1 for i in range(tricritical_tensor.n))

    def test_negation_symmetry(self, tricritical, tricritical_tensor):
        for lg in search_cyclic_covers(tricritical_tensor, 12):
            k = lg.spec.order
            negated = tuple(lg.sector_indices[(-x) % k] for x in range(k))
            mirrored = LabeledGroup(lg.spec, tricritical, negated)
            assert verify_abelian_cover(mirrored, tricritical_tensor).passed

    @pytest.mark.parametrize(
        "p,q,max_order",
        [(3, 4, 24), (2, 5, 24), (3, 5, 20), (2, 7, 24), (2, 9, 20), (3, 7, 16), (4, 5, 40)],
    )
    def test_matches_set_and_sort_dedup(self, p, q, max_order):
        # Oracle: every order's labelings reduced to min(labeling, negation)
        # in a set, then sorted; the search must list the same, in order.
        tensor = fusion_tensor(ModelParams(p, q))
        expected = []
        for k in range(1, max_order + 1):
            seen = {
                min(assign, tuple(assign[(-x) % k] for x in range(k)))
                for assign in _search_order(tensor, k)
            }
            expected.extend((k,) + a for a in sorted(seen))
        got = search_cyclic_covers(tensor, max_order, order_budget=max_order)
        assert [lg.spec.factors + lg.sector_indices for lg in got] == expected

    def test_budget(self, ising_tensor):
        with pytest.raises(CapacityError):
            search_cyclic_covers(ising_tensor, 25)
        with pytest.raises(ValueError):
            search_cyclic_covers(ising_tensor, 0)
        search_cyclic_covers(ising_tensor, 25, order_budget=25)
