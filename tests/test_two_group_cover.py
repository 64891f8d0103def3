"""Unit tests for the 2-group construction and its cover verification."""

import functools
import gc
import itertools
import threading
from math import comb

import numpy as np
import pytest

from fusioncover import (
    FAIL,
    PASS,
    AbelianGroupSpec,
    CapacityError,
    ClosureViolation,
    CoverCertificate,
    CoverMap,
    FusionTensor,
    GroupContext,
    ModelParams,
    PartitionError,
    UncoveredTriple,
    admissible_range,
    canonical_cover,
    canonicalize,
    fusion_tensor,
    is_isomorphic_to_verlinde,
    partition_algebra,
    sectors,
    verify_cover,
    verlinde_algebra,
)
from fusioncover import _kernels, minimal_model, two_group_cover
from fusioncover.cli import main
from fusioncover.errors import CountCheckError

import paper_model
from conftest import coprime_models, exhaustive_scan, run_python_with_peak_rss, xor_rows
from paper_model import (
    BitVector,
    ClassLabel,
    Coset,
    a_coords,
    b_coords,
    canonical_counts,
    class_members,
    class_of,
    orbit_sum_classes,
    phi,
    quotient_cosets,
    sym_diff_weight_identity,
    weight_class_counts,
)
from test_kernels import oracle_counts


@pytest.fixture
def ctx34(ising):
    return GroupContext(ising)


@pytest.fixture
def ctx45(tricritical):
    return GroupContext(tricritical)


class TestBitVector:
    def test_weight_and_support(self):
        assert BitVector(0, 5).weight() == 0
        assert BitVector(0, 5).support() == ()
        x = BitVector.from_coordinates("101")
        assert x.weight() == 2
        assert x.support() == (1, 3)
        ones = BitVector.all_ones(7)
        assert ones.weight() == 7
        assert ones.support() == tuple(range(1, 8))

    def test_coordinate_round_trip(self):
        for s in ("", "0", "1", "0110", "111000101"):
            assert BitVector.from_coordinates(s).coordinates() == s

    def test_validation(self):
        with pytest.raises(ValueError):
            BitVector(4, 2)
        with pytest.raises(ValueError):
            BitVector(0, -1)
        with pytest.raises(ValueError):
            BitVector.from_coordinates("012")

    def test_xor_and_product(self):
        x = BitVector.from_coordinates("1100")
        y = BitVector.from_coordinates("1010")
        assert (x ^ y).coordinates() == "0110"
        assert (x & y).coordinates() == "1000"
        with pytest.raises(ValueError, match="width mismatch"):
            x ^ BitVector(0, 3)


class TestSymDiffWeightIdentity:
    def test_examples(self):
        x = BitVector.from_coordinates("1100")
        y = BitVector.from_coordinates("1010")
        assert sym_diff_weight_identity(x, y) == (2, 2)
        assert sym_diff_weight_identity(x, x) == (0, 0)

    def test_random_pairs(self):
        rng = np.random.default_rng(14)
        r = 14
        for _ in range(64):
            a, b = (int(v) for v in rng.integers(0, 1 << r, size=2))
            lhs, rhs = sym_diff_weight_identity(BitVector(a, r), BitVector(b, r))
            assert lhs == rhs == (a ^ b).bit_count()

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            sym_diff_weight_identity(BitVector(0, 3), BitVector(0, 4))


class TestGroupContext:
    def test_coordinate_split(self, ctx34):
        assert ctx34.r == 3
        assert list(a_coords(ctx34)) == [1]
        assert list(b_coords(ctx34)) == [2, 3]

    def test_partition_of_coordinates(self):
        for params in coprime_models(7, 9):
            ctx = GroupContext(params)
            coords = list(a_coords(ctx)) + list(b_coords(ctx))
            assert coords == list(range(1, ctx.r + 1))
            assert len(a_coords(ctx)) == params.p - 2
            assert len(b_coords(ctx)) == params.q - 2


class TestClassOf:
    @pytest.mark.parametrize(
        "coords,expected",
        [("000", (1, 1)), ("001", (1, 2)), ("111", (2, 3)), ("100", (2, 1)), ("010", (1, 2))],
    )
    def test_ising_examples(self, ctx34, coords, expected):
        assert class_of(ctx34, BitVector.from_coordinates(coords)) == ClassLabel(*expected)

    def test_width_mismatch(self, ctx34):
        with pytest.raises(ValueError):
            class_of(ctx34, BitVector(0, 4))

    def test_complement_reflects_label(self):
        for params in coprime_models(6, 7):
            ctx = GroupContext(params)
            ones = BitVector.all_ones(ctx.r)
            for bits in range(1 << ctx.r):
                x = BitVector(bits, ctx.r)
                m, n = class_of(ctx, x)
                assert class_of(ctx, x ^ ones) == ClassLabel(params.p - m, params.q - n)


class TestClassMembers:
    def test_ising_examples(self, ctx34):
        members = class_members(ctx34, (1, 2))
        assert {b.coordinates() for b in members} == {"001", "010"}
        assert class_members(ctx34, (1, 1)) == {BitVector(0, 3)}

    def test_binomial_size(self, ctx45):
        members = class_members(ctx45, (2, 2))
        assert len(members) == comb(2, 1) * comb(3, 1) == 6

    def test_classes_partition_group(self):
        for params in coprime_models(5, 7):
            ctx = GroupContext(params)
            seen = set()
            total = 0
            for m in range(1, params.p):
                for n in range(1, params.q):
                    members = class_members(ctx, (m, n))
                    assert len(members) == comb(params.p - 2, m - 1) * comb(params.q - 2, n - 1)
                    assert not (seen & members)
                    seen |= members
                    total += len(members)
            assert total == 1 << ctx.r

    def test_members_agree_with_class_of(self, ctx45):
        for label in [(1, 1), (2, 3), (3, 2)]:
            for x in class_members(ctx45, label):
                assert class_of(ctx45, x) == label

    def test_invalid_label(self, ctx34):
        with pytest.raises(ValueError):
            class_members(ctx34, (3, 1))


class TestOrbitSumClasses:
    def test_examples(self):
        ctx5 = GroupContext(ModelParams(5, 6))
        assert orbit_sum_classes(ctx5, "A", 2, 2) == {1, 3}
        assert orbit_sum_classes(ctx5, "A", 1, 1) == {1}
        ctx4 = GroupContext(ModelParams(4, 5))
        assert orbit_sum_classes(ctx4, "A", 3, 2) == {2}

    def test_matches_admissible_range_exhaustive(self):
        # weight-orbit sums realize exactly the closed-form completion sets
        for params in coprime_models(8, 9):
            ctx = GroupContext(params)
            for part, bound in (("A", params.p), ("B", params.q)):
                if bound > 8:
                    continue
                for w1 in range(1, bound):
                    for w2 in range(1, bound):
                        got = orbit_sum_classes(ctx, part, w1, w2)
                        expected = set(admissible_range(bound, max(w1, w2), min(w1, w2)))
                        assert got == expected, (params, part, w1, w2)

    def test_full_attainment(self):
        # every vector of every reachable weight class is hit by some pair
        for p in range(3, 9):
            width = p - 2
            ctx = GroupContext(ModelParams(p, p + 1))
            orbits = {
                w: [sum(1 << i for i in s) for s in itertools.combinations(range(width), w - 1)]
                for w in range(1, p)
            }
            for w1 in range(1, p):
                for w2 in range(1, p):
                    sums = {a ^ b for a in orbits[w1] for b in orbits[w2]}
                    expected = set().union(
                        *(set(orbits[w3]) for w3 in orbit_sum_classes(ctx, "A", w1, w2))
                    )
                    assert sums == expected

    def test_matches_pair_enumeration(self):
        # every pair of vectors from the two orbits, one block width at a time
        for p in range(2, 11):
            ctx = GroupContext(ModelParams(p, p + 1))
            for part, width in (("A", p - 2), ("B", p - 1)):
                orbits = {
                    w: [sum(1 << i for i in s) for s in itertools.combinations(range(width), w - 1)]
                    for w in range(1, width + 2)
                }
                for w1, w2 in itertools.product(orbits, repeat=2):
                    sums = {(v1 ^ v2).bit_count() + 1 for v1 in orbits[w1] for v2 in orbits[w2]}
                    assert orbit_sum_classes(ctx, part, w1, w2) == sums, (p, part, w1, w2)

    @pytest.mark.parametrize("width", [38, 45, 60])
    def test_wide_blocks_match_spectral_form(self, width):
        # binomial products of these widths overflow int64
        ctx = GroupContext(ModelParams(width + 2, 3))
        for w1, w2 in [(1, 1), (2, 2), (width // 2, width // 3), (width + 1, 3), (width, width)]:
            k = spectral_weight_class_counts(width, [w1 - 1], [w2 - 1])[0, 0]
            expected = {c + 1 for c in range(width + 1) if k[c] > 0}
            assert orbit_sum_classes(ctx, "A", w1, w2) == expected, (width, w1, w2)

    def test_are_the_weight_table_support(self):
        # the oracle's K_w table, for every block width up to 12
        for width in range(13):
            ctx = GroupContext(ModelParams(width + 2, width + 3))
            k = weight_class_counts(width)
            for w1, w2 in itertools.product(range(1, width + 2), repeat=2):
                support = {int(c) + 1 for c in np.flatnonzero(k[w1 - 1, w2 - 1])}
                assert orbit_sum_classes(ctx, "A", w1, w2) == support, (width, w1, w2)

    def test_invalid_arguments(self, ctx34):
        with pytest.raises(ValueError):
            orbit_sum_classes(ctx34, "C", 1, 1)
        with pytest.raises(ValueError):
            orbit_sum_classes(ctx34, "A", 3, 1)


class TestQuotientCosets:
    def test_ising_cosets(self, ctx34):
        cosets = quotient_cosets(ctx34)
        assert [c.representative.bits for c in cosets] == [0, 1, 2, 3]
        member_sets = [frozenset(m.coordinates() for m in c.members) for c in cosets]
        assert member_sets == [
            frozenset({"000", "111"}),
            frozenset({"100", "011"}),
            frozenset({"010", "101"}),
            frozenset({"110", "001"}),
        ]

    def test_count(self, ctx45):
        assert len(quotient_cosets(ctx45)) == 16

    def test_coset_of_member_invariance(self, ctx45):
        ones = BitVector.all_ones(ctx45.r)
        for bits in range(1 << ctx45.r):
            x = BitVector(bits, ctx45.r)
            assert Coset.of(x) == Coset.of(x ^ ones)

    def test_representative_is_canonical(self):
        with pytest.raises(ValueError, match="not canonical"):
            Coset(BitVector.from_coordinates("001"))  # coordinate 3 set


class TestPhi:
    def test_ising_images(self, ctx34, ising_tensor):
        cm = canonical_cover(ctx34)
        by_coords = {
            str(c): phi(cm, c).name for c in quotient_cosets(ctx34)
        }
        assert by_coords == {"000": "[0]", "100": "[1/2]", "010": "[1/16]", "110": "[1/16]"}
        # the image multiset realizes the Ising rules on Z2 x Z2
        assert sorted(by_coords.values()) == ["[0]", "[1/16]", "[1/16]", "[1/2]"]

    # At q = 2 there are fewer cosets than A-weights (2^(p-3) against 2^(p-2));
    # at p = 2, A is empty; (3,8) splits the bits unevenly.
    @pytest.mark.parametrize("pq", [(4, 5), (3, 2), (5, 2), (7, 2), (2, 5), (2, 9), (3, 8)], ids=str)
    def test_both_members_agree(self, pq):
        params = ModelParams(*pq)
        ctx = GroupContext(params)
        cm = canonical_cover(ctx)
        assert cm.sector_indices.shape == (ctx.order,)
        # Like every map's, its labels are its label array as a tuple of ints.
        assert cm.labels == tuple(cm.sector_indices.tolist())
        for c in quotient_cosets(ctx):
            images = {
                canonicalize(params, *class_of(ctx, member)).index for member in c.members
            }
            assert images == {phi(cm, c).index}

    def test_width_mismatch(self, ctx34, ctx45):
        cm = canonical_cover(ctx34)
        with pytest.raises(ValueError):
            phi(cm, quotient_cosets(ctx45)[0])


class TestVerifyCover:
    def test_pass_ising_and_tricritical(self, ising, tricritical):
        for params in (ising, tricritical):
            cm = canonical_cover(GroupContext(params))
            cert = verify_cover(cm, fusion_tensor(params))
            assert cert.passed
            assert cert.witness is None
            assert cert.stats["pairs_checked"] == cert.stats["group_order"] ** 2

    def test_swapped_images_fail_with_witness(self, ising, ising_tensor):
        cm = canonical_cover(GroupContext(ising)).swapped_images(0, 1)
        cert = verify_cover(cm, ising_tensor)
        assert not cert.passed
        w = cert.witness
        assert isinstance(w, ClosureViolation)
        # first violating pair in canonical order: 0 + 0 = 0 with all images [1/2]
        assert (w.g1, w.g2, w.g3) == (0, 0, 0)
        assert [s.name for s in w.sectors] == ["[1/2]", "[1/2]", "[1/2]"]

    def test_witness_is_recheckable(self, tricritical, tricritical_tensor):
        cm = canonical_cover(GroupContext(tricritical)).swapped_images(0, 3)
        cert = verify_cover(cm, tricritical_tensor)
        assert not cert.passed
        w = cert.witness
        sec = cm.sector_indices
        assert w.g3 == w.g1 ^ w.g2
        i, j, k = (sec[g] for g in (w.g1, w.g2, w.g3))
        assert tricritical_tensor.coefficients[i, j, k] == 0

    def test_uncovered_triple_witness(self, ising, ising_tensor):
        # send every coset to the vacuum: closure holds trivially but no
        # triple involving [1/16] or [1/2] is ever realized
        ctx = GroupContext(ising)
        cm = CoverMap(ctx, np.zeros(ctx.order, dtype=np.int64), sectors(ising))
        cert = verify_cover(cm, ising_tensor)
        assert not cert.passed
        assert isinstance(cert.witness, UncoveredTriple)
        names = [s.name for s in cert.witness.sectors]
        assert names == ["[0]", "[1/16]", "[1/16]"]

    def test_model_mismatch(self, ising, tricritical):
        cm = canonical_cover(GroupContext(ising))
        with pytest.raises(ValueError, match="tensor"):
            verify_cover(cm, fusion_tensor(tricritical))

    def test_thread_determinism(self, tricritical, tricritical_tensor):
        cm = canonical_cover(GroupContext(tricritical)).swapped_images(0, 1)
        certs = [verify_cover(cm, tricritical_tensor, threads=k) for k in (1, 2, 3, 8)]
        assert len({(c.verdict, c.witness) for c in certs}) == 1


@functools.cache
def corrupted_map(p, q, kind):
    """A corrupted canonical map, its tensor, and the full scan's first
    violation and certificate stats."""
    params = ModelParams(p, q)
    cm = canonical_cover(GroupContext(params))
    if kind == "swap":
        cm = cm.swapped_images(3, 90)
    else:
        cm = cm.reassigned(100, (cm.sector_indices[100] + 1) % len(cm.sectors))
    tensor = fusion_tensor(params)
    d_flat = tensor.coefficients.reshape(-1)
    sec = cm.sector_indices
    first, realized = exhaustive_scan(sec, tensor.n, d_flat, xor_rows(len(sec)))
    return cm, tensor, first, _kernels.scan_stats(
        cm.context.order, int(d_flat.sum()), int(np.count_nonzero(realized))
    )


class TestWitnessFromCounts:
    @pytest.mark.parametrize("pq", [(5, 13), (8, 9), (7, 8), (5, 11)])
    @pytest.mark.parametrize("kind", ["swap", "reassign"])
    def test_witness_is_first_violation_of_full_scan(self, pq, kind):
        cm, tensor, (g1, g2), stats = corrupted_map(*pq, kind)
        assert g1 >= 0
        cert = verify_cover(cm, tensor)
        w = cert.witness
        assert isinstance(w, ClosureViolation)
        assert (w.g1, w.g2, w.g3) == (g1, g2, g1 ^ g2)
        assert cert.stats == stats

    def test_pass_scans_no_pair(self, tricritical, tricritical_tensor, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a PASS must not scan")

        monkeypatch.setattr(_kernels, "scan_pairs_xor", no_scan)
        assert verify_cover(canonical_cover(GroupContext(tricritical)), tricritical_tensor).passed

    def test_fail_starts_no_thread(self, tricritical, tricritical_tensor, monkeypatch):
        def no_start(thread):
            raise AssertionError("the witness scan must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        cm = canonical_cover(GroupContext(tricritical)).swapped_images(0, 1)
        cert = verify_cover(cm, tricritical_tensor, threads=4)
        assert isinstance(cert.witness, ClosureViolation)

    def test_order_above_exactness_bound_refused(self):
        # Past 2^17 cosets only the canonical cover is counted (in closed
        # form); any other map would need the transform, which is not exact.
        params = ModelParams(9, 14)  # 2^18 cosets
        cm = canonical_cover(GroupContext(params))
        cm = cm.reassigned(1, (cm.sector_indices[1] + 1) % len(cm.sectors))
        with pytest.raises(CapacityError, match="2\\^17"):
            verify_cover(cm, fusion_tensor(params))
        with pytest.raises(CapacityError, match="2\\^17"):
            partition_algebra(cm, strict=False)


def spectral_weight_class_counts(w, a_rows, b_rows):
    """K_w[a, b, c] for a in a_rows, b in b_rows and every c, by the spectral
    form 2^-w sum_t C(w, t) k_a(t) k_b(t) k_c(t), exact in Python ints (an
    object array), where k_a(t) = sum_j (-1)^j C(t, j) C(w - t, a - j) is the
    Krawtchouk polynomial: the Walsh-Hadamard transform of the weight-a
    indicator takes the value k_a(t) on the C(w, t) characters of weight t."""
    kraw = np.array(
        [
            [sum((-1) ** j * comb(t, j) * comb(w - t, a - j) for j in range(a + 1))
             for t in range(w + 1)]
            for a in range(w + 1)
        ],
        dtype=object,
    )
    weighted = kraw * np.array([comb(w, t) for t in range(w + 1)], dtype=object)
    ka, kb = kraw[list(a_rows)], kraw[list(b_rows)]
    total = (ka[:, None, None, :] * kb[None, :, None, :] * weighted[None, None]).sum(-1)
    assert all(x % 2**w == 0 for x in total.flat)
    return total // 2**w


@functools.cache
def krawtchouk_weight_class_counts(w):
    """The whole table K_w by the spectral form, in int64 (w <= 31)."""
    rows = range(w + 1)
    return np.array(spectral_weight_class_counts(w, rows, rows), dtype=np.int64)


def representative_counts(params, table):
    """C[i, j, k] from one representative per coset: the member lying in the
    class of the sector's own label (m, n).  The sum of two representatives
    lies in the class (m_k, n_k) or in its complement (p - m_k, q - n_k)."""
    secs = sectors(params)
    a = np.array([s.m - 1 for s in secs])
    b = np.array([s.n - 1 for s in secs])
    wa, wb = params.p - 2, params.q - 2
    ka, kb = table(wa), table(wb)
    own = ka[np.ix_(a, a, a)] * kb[np.ix_(b, b, b)]
    other = ka[np.ix_(a, a, wa - a)] * kb[np.ix_(b, b, wb - b)]
    return own + other


class CountedCover(CoverMap):
    """A map over the quotient with the support of given pair counts, as the
    canonical cover was before the level check: ``verify_cover`` reads it.
    It has no labels, so it certifies a PASS or an uncovered triple only."""

    def __init__(self, context, counts):
        secs = sectors(context.params)
        realized = counts != 0
        realized.setflags(write=False)
        vars(self).update(context=context, sectors=secs, support=FusionTensor(secs, realized))


MODELS_22 = coprime_models(20, 21, max_sum=22)
# Up to 2^6 cosets; the last three have p > q, two of them at q = 2.
PER_VECTOR_MODELS = coprime_models(8, 9, max_sum=11) + [
    ModelParams(5, 2), ModelParams(7, 2), ModelParams(7, 4)
]
# The whole exact range: p + q <= 35, r <= 31.
MODELS_35 = coprime_models(33, 34, max_sum=35)


class TestCanonicalCounts:
    def test_model_ranges(self):
        assert (len(MODELS_22), len(MODELS_35)) == (54, 158)

    @pytest.mark.parametrize("params", PER_VECTOR_MODELS, ids=str)
    def test_match_the_per_vector_model(self, params):
        # Phi by definition, the sector of the class of a coset's
        # representative, and every pair of cosets counted one at a time.
        ctx = GroupContext(params)
        cosets = quotient_cosets(ctx)
        image = {c: canonicalize(params, *class_of(ctx, c.representative)).index for c in cosets}
        expected = np.zeros((params.n_sectors,) * 3, dtype=np.int64)
        for g1, g2 in itertools.product(cosets, repeat=2):
            expected[image[g1], image[g2], image[g1 ^ g2]] += 1
        assert np.array_equal(canonical_counts(params), expected)
        assert np.array_equal(canonical_cover(ctx).support.coefficients, expected > 0)
        assert canonical_cover(ctx).sector_indices.tolist() == [image[c] for c in cosets]

    def test_weight_tables_match_spectral_form(self):
        # every width a model with p + q <= 35 uses
        for w in range(32):
            k = weight_class_counts(w)
            assert np.array_equal(k, krawtchouk_weight_class_counts(w)), w
            assert int(k.sum()) == 4**w

    @pytest.mark.parametrize("params", MODELS_22, ids=str)
    def test_closed_spectral_and_transform_agree(self, params):
        ctx = GroupContext(params)
        closed = canonical_counts(params)
        spectral = representative_counts(params, krawtchouk_weight_class_counts)
        transform = _kernels.pair_support(
            canonical_cover(ctx).sector_indices, params.n_sectors, (2,) * (ctx.r - 1)
        )
        assert closed.dtype == np.int64
        assert np.array_equal(closed, spectral)
        assert np.array_equal(closed > 0, transform)

    @pytest.mark.parametrize("params", MODELS_35, ids=str)
    def test_theorem_to_p_plus_q_35(self, params):
        # The level check against the closed-form counts, on every model
        # they are exact for: the same support, verdict and stats.
        ctx = GroupContext(params)
        tensor = fusion_tensor(params)
        oracle = canonical_counts(params)
        assert np.array_equal(canonical_cover(ctx).support.coefficients, oracle > 0)
        cert = verify_cover(canonical_cover(ctx), tensor)
        assert cert == verify_cover(CountedCover(ctx, oracle), tensor)
        assert cert.passed
        assert cert.stats["pairs_checked"] == ctx.order**2 == oracle.sum()
        assert cert.stats["realized_triples"] == cert.stats["admissible_triples"]
        w = partition_algebra(canonical_cover(ctx))
        assert is_isomorphic_to_verlinde(w, verlinde_algebra(tensor))

    @pytest.mark.parametrize("pq", [(2, 3), (3, 4), (5, 13), (8, 9)])
    def test_same_certificate_as_the_transform(self, pq, monkeypatch):
        params = ModelParams(*pq)
        ctx, tensor = GroupContext(params), fusion_tensor(params)
        labels = canonical_cover(ctx).sector_indices
        transform = verify_cover(CoverMap(ctx, labels, sectors(params)), tensor)
        assert verify_cover(CountedCover(ctx, canonical_counts(params)), tensor) == transform

        def no_transform(*args):
            raise AssertionError("the canonical cover needs no transform")

        monkeypatch.setattr(_kernels, "pair_support", no_transform)
        assert verify_cover(canonical_cover(ctx), tensor) == transform

    def test_tensor_of_another_model_refused(self, ising, tricritical_tensor):
        with pytest.raises(ValueError, match="tensor"):
            verify_cover(canonical_cover(GroupContext(ising)), tricritical_tensor)

    def test_pass_builds_no_map(self, monkeypatch):
        def no_map(ctx):
            raise AssertionError("a PASS must not build the map")

        monkeypatch.setattr(two_group_cover, "_canonical_labels", no_map)
        params = ModelParams(15, 17)  # 2^27 cosets, a 1 GiB map
        assert verify_cover(canonical_cover(GroupContext(params)), fusion_tensor(params)).passed

    def test_support_disagreeing_with_the_map_raises(
        self, tricritical, tricritical_tensor, monkeypatch
    ):
        # A support that holds an inadmissible triple sends the scan to the
        # map for a witness; the canonical map has none to give.
        spoiled = tricritical_tensor.coefficients.copy()
        spoiled[tuple(np.argwhere(spoiled == 0)[0])] = 1
        monkeypatch.setattr(two_group_cover._CanonicalCover, "support",
                            FusionTensor(tricritical_tensor.sectors, spoiled))
        with pytest.raises(CountCheckError, match="scan"):
            verify_cover(canonical_cover(GroupContext(tricritical)), tricritical_tensor)

    @pytest.mark.parametrize("pq", [(17, 19), (2, 35), (30, 31)])
    def test_oracle_refuses_rank_above_int64_bound(self, pq, monkeypatch):
        def never(w):
            raise AssertionError("nothing may be built for a refused model")

        monkeypatch.setattr(paper_model, "weight_class_counts", never)
        with pytest.raises(ValueError, match="not exact in int64"):
            canonical_counts(ModelParams(*pq))

    @pytest.mark.parametrize("pq", [(17, 19), (2, 35)])
    def test_theorem_past_the_oracle(self, pq):
        # Past p + q = 35, where the closed-form counts overflow int64.
        params = ModelParams(*pq)
        ctx, tensor = GroupContext(params), fusion_tensor(params)
        cert = verify_cover(canonical_cover(ctx), tensor)
        assert cert.passed
        assert cert.stats["pairs_checked"] == ctx.order**2 == 4 ** (sum(pq) - 5)
        assert cert.stats["realized_triples"] == cert.stats["admissible_triples"]
        w = partition_algebra(canonical_cover(ctx))
        assert is_isomorphic_to_verlinde(w, verlinde_algebra(tensor))

    def test_theorem_past_the_fusion_cap(self, monkeypatch):
        # N = 435 at (30,31): no N^3 array may be built, so the tensor's
        # array read raises; the support is the model's tensor, and so is
        # the Verlinde algebra, so the isomorphism reads no array either.
        def never(tensor):
            raise AssertionError("no array may be read past N = 256")

        monkeypatch.setattr(minimal_model._ModelTensor, "coefficients", property(never))
        params = ModelParams(30, 31)
        ctx, tensor = GroupContext(params), fusion_tensor(params)
        assert verify_cover(canonical_cover(ctx), tensor).passed
        w = partition_algebra(canonical_cover(ctx))
        assert w is tensor
        assert is_isomorphic_to_verlinde(w, verlinde_algebra(tensor))

    def test_oversize_map_refused_before_allocating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("nothing may be allocated for a refused map")

        cm = canonical_cover(GroupContext(ModelParams(13, 15)))  # 2^23 cosets
        monkeypatch.setattr(two_group_cover, "_label_index", never)
        with pytest.raises(CapacityError, match="2\\^22"):
            cm.sector_indices

    def test_largest_labels_are_one_tuple(self):
        # The labels are one tuple of 2^22 pointers to small ints (32 MiB),
        # built from a generator with no list beside it: about 54 MiB for
        # the whole process, where a second copy would pass 80 MiB.
        script = (
            "from fusioncover import GroupContext, ModelParams, canonical_cover\n"
            "canonical_cover(GroupContext(ModelParams(11, 16))).labels\n"
        )
        code, max_rss_kib, _ = run_python_with_peak_rss(["-c", script])
        assert code == 0
        assert max_rss_kib < 64 * 1024

    def test_largest_map_in_small_memory(self):
        # Labels are read off popcounts, as a tuple of ints, and the int64
        # array (32 MiB) is built from them.
        script = (
            "from fusioncover import GroupContext, ModelParams, canonical_cover\n"
            "canonical_cover(GroupContext(ModelParams(11, 16))).sector_indices\n"
        )
        code, max_rss_kib, _ = run_python_with_peak_rss(["-c", script])
        assert code == 0
        assert max_rss_kib < 160 * 1024

    def test_labels_and_corruptions_load_no_numpy(self):
        # The labels are plain Python, and so are the copies a corruption makes.
        script = (
            "import sys\n"
            "from fusioncover import GroupContext, ModelParams, canonical_cover\n"
            "cm = canonical_cover(GroupContext(ModelParams(5, 13)))\n"
            "assert len(cm.labels) == 2 ** 13\n"
            "swapped, moved = cm.swapped_images(1, 2), cm.reassigned(1, 0)\n"
            "assert moved.labels[1] == 0 and swapped.labels[1:3] == cm.labels[2:0:-1]\n"
            "assert 'numpy' not in sys.modules\n"
        )
        code, _, _ = run_python_with_peak_rss(["-c", script])
        assert code == 0

    def test_label_table_off_the_complement_raises(self, monkeypatch):
        table = two_group_cover._label_index

        def broken(params):
            t = [list(row) for row in table(params)]
            t[1][1] = t[1][2]  # (1, 1) and (p - 1, q - 1) label one coset
            return t

        monkeypatch.setattr(two_group_cover, "_label_index", broken)
        with pytest.raises(AssertionError, match="not constant on cosets"):
            canonical_cover(GroupContext(ModelParams(4, 5))).sector_indices

    def test_largest_exact_rank(self):
        counts = canonical_counts(ModelParams(16, 19))  # r = 31
        assert int(counts.sum()) == 4**30
        assert np.array_equal(
            canonical_cover(GroupContext(ModelParams(16, 19))).support.coefficients, counts > 0
        )


def enumerated_range(p, m, m2):
    """``admissible_range`` by enumeration: the labels c + 1 of the weights c
    of x + y over every x, y in Z_2^(p-2) with wt x = m - 1, wt y = m2 - 1."""
    w = p - 2
    by_weight = [[x for x in range(1 << w) if x.bit_count() == a] for a in (m - 1, m2 - 1)]
    return sorted({(x ^ y).bit_count() + 1 for x in by_weight[0] for y in by_weight[1]})


def shifted_start(p, m, m2, by):
    start = m - m2 + 1 + by
    return list(range(start, start + 2 * min(m2, p - m), 2))


def shifted_count(p, m, m2, by):
    start = m - m2 + 1
    return list(range(start, start + 2 * min(m2, p - m + by), 2))


def weight_sum_masks(top):
    """S_w[a][b] for w = 0..top, one entry at a time: the recurrence of
    ``check_su2_levels`` on lists of ints, with no packing.  Yields each
    level as a list of rows, row a holding entries b = 0..a."""
    s = [[1]]
    yield s
    for w in range(1, top + 1):
        # Row a of S is ``same``, row a - 1 (padded at b = a) is ``up``.
        s = [
            [s00 | s10 << 1 | s01 << 1 | s11
             for s00, s10, s01, s11 in zip(same, up, [0] + same, [0] + up)]
            for same, up in zip(s + [[0] * (w + 1)], [[0]] + [row + [0] for row in s])
        ]
        yield s


class TestLevelCheck:
    def test_every_level_to_128(self):
        two_group_cover.check_su2_levels(*range(129))

    @pytest.mark.parametrize("top", [0, 7, 8, 64])
    def test_packed_rows_are_the_entry_recurrence(self, top):
        # Every entry of every packed row, up to level ``top``, against the
        # recurrence run entry by entry; the rows hold no bit past entry a.
        levels = two_group_cover._weight_sum_rows(top)
        for w, ((v, k, rows), masks) in enumerate(zip(levels, weight_sum_masks(top))):
            assert v == w and k % 8 == 0 and top < k <= top + 8
            assert len(rows) == len(masks) == w + 1
            for a, (row, entries) in enumerate(zip(rows, masks)):
                assert row >> (a + 1) * k == 0
                assert [row >> b * k & ((1 << k) - 1) for b in range(a + 1)] == entries
        assert w == top

    @pytest.mark.parametrize("p,q", [(2, 1025), (514, 515)])
    def test_level_cap_refused_when_the_map_is_built(self, p, q, monkeypatch):
        # The map is the one gate of the level cap: it is refused before
        # its support, labels or sectors could be read.
        def never(*args, **kwargs):
            raise AssertionError("the recurrence may not start past the level cap")

        monkeypatch.setattr(two_group_cover, "check_su2_levels", never)
        level = max(p, q) - 2
        with pytest.raises(CapacityError) as refused:
            canonical_cover(GroupContext(ModelParams(p, q)))
        assert str(refused.value) == (
            f"the canonical cover of the ({p},{q}) model is proved at SU(2) level {level}, "
            f"over the budget of 511 (max(p, q) <= 513)"
        )

    def test_level_cap_is_checked_before_the_recurrence(self, monkeypatch):
        def never(*levels):
            raise AssertionError("the recurrence may not start past the level cap")

        monkeypatch.setattr(two_group_cover, "check_su2_levels", never)
        for p, q in [(2, 1025), (514, 515)]:
            with pytest.raises(CapacityError, match="over the budget of 511"):
                canonical_cover(GroupContext(ModelParams(p, q))).support

    def test_recurrence_is_the_pair_enumeration(self, monkeypatch):
        # The masks of the recurrence against every pair of vectors, with
        # no closed form on either side.
        monkeypatch.setattr(two_group_cover, "admissible_range", enumerated_range)
        two_group_cover.check_su2_levels(*range(9))

    def test_checks_only_the_levels_asked(self, monkeypatch):
        # A rule wrong at level 3 alone is caught at level 3, and only there.
        def wrong_at_3(p, m, m2):
            return shifted_start(p, m, m2, 2 if p == 5 else 0)

        monkeypatch.setattr(two_group_cover, "admissible_range", wrong_at_3)
        two_group_cover.check_su2_levels(0, 1, 2, 4, 5)
        with pytest.raises(CountCheckError, match="\\(w, a, b, c\\) = \\(3, 0, 0, 0\\)"):
            two_group_cover.check_su2_levels(2, 3)

    @pytest.mark.parametrize(
        "rule,where,got",
        [
            (lambda p, m, m2: shifted_start(p, m, m2, 2), "(2, 0, 0, 0)", "takes weight 0"),
            (lambda p, m, m2: shifted_start(p, m, m2, -2), "(2, 0, 0, -2)",
             "never takes weight -2"),
            (lambda p, m, m2: shifted_count(p, m, m2, 1), "(2, 2, 1, 3)", "never takes weight 3"),
            (lambda p, m, m2: shifted_count(p, m, m2, -1), "(2, 1, 1, 2)", "takes weight 2"),
        ],
        ids=["start+2", "start-2", "count+1", "count-1"],
    )
    def test_shifted_rule_is_an_internal_error(self, rule, where, got, monkeypatch, capsys):
        # One bound of ``admissible_range`` moved, as the level check sees it:
        # the proof fails, so there is no verdict (exit 3), and the error
        # names (w, a, b, c).
        monkeypatch.setattr(two_group_cover, "admissible_range", rule)
        params = ModelParams(4, 5)
        cm = canonical_cover(GroupContext(params))
        with pytest.raises(CountCheckError, match="level check"):
            verify_cover(cm, fusion_tensor(params))
        with pytest.raises(CountCheckError, match="level check"):
            partition_algebra(cm)
        # A failed proof is not cached: every read raises.
        assert "support" not in vars(cm)
        assert main(["cover", "verify", "--p", "4", "--q", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"internal error: SU(2) level check failed at (w, a, b, c) = {where}:")
        assert f"wt x = {where[4]}, wt y = {where[7]} {got}, " in err
        assert err.count("\n") == 1

    def test_support_is_the_read_only_fusion_tensor(self, tricritical):
        support = canonical_cover(GroupContext(tricritical)).support.coefficients
        assert support is fusion_tensor(tricritical).coefficients
        assert not support.flags.writeable


class TestIdentityShortcut:
    """The canonical support is the model's tensor, so verifying against any
    handle of that tensor compares no arrays; any other tensor, even one
    equal to it cell by cell, is compared cell by cell, so the shortcut
    hides no fault."""

    MODELS = [(3, 4), (4, 5), (5, 13), (7, 8)]

    def test_canonical_verify_reads_no_array(self):
        # A fresh cached tensor, whose array no earlier test has read.
        fusion_tensor.cache_clear()
        params = ModelParams(5, 13)
        tensor = fusion_tensor(params)
        cert = verify_cover(canonical_cover(GroupContext(params)), tensor)
        assert cert.passed
        assert cert.stats["admissible_triples"] == cert.stats["realized_triples"] == tensor.size
        assert "coefficients" not in vars(tensor)

    @pytest.mark.parametrize("pq", [(30, 31), (16, 17)], ids=str)
    def test_pass_reads_no_array_once_the_tensor_is_evicted(self, pq):
        # Eight other tensors push the caller's handle out of the cache, so
        # the proved support is a new handle of the same model, equal to the
        # caller's: no array is read, and at (30,31), N = 435, none could be.
        fusion_tensor.cache_clear()
        params = ModelParams(*pq)
        tensor = fusion_tensor(params)
        for p in range(2, 10):
            fusion_tensor(ModelParams(p, p + 1))
        cm = canonical_cover(GroupContext(params))
        assert verify_cover(cm, tensor).passed
        assert cm.support is not tensor and cm.support == tensor
        assert "coefficients" not in vars(tensor)

    @pytest.mark.parametrize("pq", MODELS, ids=str)
    def test_value_equal_copy_gives_the_same_certificate(self, pq):
        params = ModelParams(*pq)
        tensor = fusion_tensor(params)
        copy = FusionTensor(tensor.sectors, tensor.coefficients.copy())
        cm = canonical_cover(GroupContext(params))
        cert = verify_cover(cm, copy)
        assert cert.passed and cert == verify_cover(cm, tensor)

    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("pq", MODELS, ids=str)
    def test_cleared_admissible_triple_is_a_closure_fail(self, pq, at):
        params = ModelParams(*pq)
        tensor = fusion_tensor(params)
        d = tensor.coefficients.copy()
        cell = tuple(int(x) for x in np.argwhere(d)[at])
        d[cell] = 0
        cm = canonical_cover(GroupContext(params))
        cert = verify_cover(cm, FusionTensor(tensor.sectors, d))
        w = cert.witness
        assert cert.verdict == FAIL and isinstance(w, ClosureViolation)
        # The canonical map realizes every admissible triple, so the only
        # violation is on the cleared one; the witness is the full scan's first.
        sec = cm.sector_indices
        first, _ = exhaustive_scan(sec, tensor.n, d.reshape(-1), xor_rows(len(sec)))
        assert (w.g1, w.g2, w.g3) == (*first, first[0] ^ first[1])
        assert tuple(s.index for s in w.sectors) == cell
        assert cert.stats["admissible_triples"] == tensor.size - 1
        assert cert.stats["realized_triples"] == tensor.size

    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("pq", MODELS, ids=str)
    def test_set_inadmissible_triple_is_uncovered(self, pq, at):
        params = ModelParams(*pq)
        tensor = fusion_tensor(params)
        d = tensor.coefficients.copy()
        cell = tuple(int(x) for x in np.argwhere(d == 0)[at])
        d[cell] = 1
        cert = verify_cover(canonical_cover(GroupContext(params)), FusionTensor(tensor.sectors, d))
        assert cert.verdict == FAIL and isinstance(cert.witness, UncoveredTriple)
        assert tuple(s.index for s in cert.witness.sectors) == cell
        assert cert.stats["admissible_triples"] == tensor.size + 1
        assert cert.stats["realized_triples"] == tensor.size


class TestPartitionAlgebra:
    def test_ising_structure_constants(self, ising, ising_tensor):
        w = partition_algebra(canonical_cover(GroupContext(ising)))
        # P_[1/16] * P_[1/16] = P_[0] + P_[1/2]
        assert w.coefficients[1, 1].tolist() == [1, 0, 1]
        # P_1 * P_j = P_j
        assert np.array_equal(w.coefficients[0], np.eye(3, dtype=np.uint8))

    def test_tricritical_matches_fusion_table(self, tricritical, tricritical_tensor):
        w = partition_algebra(canonical_cover(GroupContext(tricritical)))
        assert np.array_equal(w.coefficients, tricritical_tensor.coefficients)

    def test_strict_rejects_bad_vacuum_class(self, ising):
        cm = canonical_cover(GroupContext(ising)).reassigned(1, 0)
        with pytest.raises(PartitionError, match="P_1"):
            partition_algebra(cm)

    @pytest.mark.parametrize("pq", [(3, 4), (3, 5), (4, 5), (2, 7), (3, 7), (5, 6)])
    def test_strict_check_agrees_with_the_labels(self, pq):
        # Every swap or reassignment of one element of a canonical map.
        cm = canonical_cover(GroupContext(ModelParams(*pq)))
        order, n = cm.context.order, len(cm.sectors)
        candidates = [cm.swapped_images(0, g) for g in range(1, order)]
        candidates += [
            cm.reassigned(g, i) for g, i in itertools.product(range(order), range(n))
        ]
        for candidate in candidates:
            vacuum = np.flatnonzero(candidate.sector_indices == 0).tolist()
            if vacuum == [0]:
                partition_algebra(candidate)
            else:
                with pytest.raises(PartitionError, match="P_1"):
                    partition_algebra(candidate)

    def test_strict_rejects_a_vacuum_class_without_the_identity(self, ising):
        # P_1 = {1, 2} in Z5: the one pair 1 + 1 = 2 gives C[0, 0, 0] = 1.
        cm = CoverMap(AbelianGroupSpec((5,)), [1, 0, 0, 2, 1], sectors(ising))
        assert oracle_counts(cm.sector_indices, 3, lambda a, b: (a + b) % 5)[0, 0, 0] == 1
        with pytest.raises(PartitionError, match="the vacuum preimage is 2 elements"):
            partition_algebra(cm)

    @pytest.mark.parametrize(
        "factors", [(3,), (4,), (5,), (6,), (2, 2), (7,)],
        ids=["Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z7"],
    )
    def test_strict_check_agrees_with_the_labels_on_every_labeling(self, ising, factors):
        # Every labeling of a small group by the three Ising sectors.
        spec, secs = AbelianGroupSpec(factors), sectors(ising)
        for labels in itertools.product(range(len(secs)), repeat=spec.order):
            cm = CoverMap(spec, labels, secs)
            if [g for g, i in enumerate(labels) if i == 0] == [0]:
                partition_algebra(cm)
            else:
                with pytest.raises(PartitionError, match="P_1"):
                    partition_algebra(cm)

    def test_theorem_at_p_plus_q_32_builds_no_map(self, monkeypatch):
        def no_map(ctx):
            raise AssertionError("the partition algebra must not build the map")

        monkeypatch.setattr(two_group_cover, "_canonical_labels", no_map)
        params = ModelParams(15, 17)  # 2^27 cosets, a 1 GiB map
        w = partition_algebra(canonical_cover(GroupContext(params)))
        assert is_isomorphic_to_verlinde(w, verlinde_algebra(fusion_tensor(params)))

    @pytest.mark.parametrize("pq", [(16, 19), (3, 257)], ids=str)
    def test_strict_algebra_builds_no_labels(self, pq, monkeypatch):
        # The strict check reads the canonical map's vacuum preimage, the
        # coset {0, all-ones}, which needs no labels.
        def no_map(ctx):
            raise AssertionError("the strict partition algebra must not build the map")

        monkeypatch.setattr(two_group_cover, "_canonical_labels", no_map)
        params = ModelParams(*pq)
        cm = canonical_cover(GroupContext(params))
        assert tuple(cm.vacuum_preimage) == (0,)
        w = partition_algebra(cm)
        assert np.array_equal(w.coefficients, fusion_tensor(params).coefficients)
        assert not w.coefficients.flags.writeable

    def test_non_strict_builds_corrupted(self, ising, ising_tensor):
        cm = canonical_cover(GroupContext(ising)).reassigned(1, 0)
        w = partition_algebra(cm, strict=False)
        v = verlinde_algebra(ising_tensor)
        assert not is_isomorphic_to_verlinde(w, v)

    @pytest.mark.parametrize("pq", [(3, 4), (4, 5), (3, 5)])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_multiplicities_count_pairs(self, pq, corrupt):
        # The double loop counts the pairs.  A corrupted map's support comes
        # from the transform; the canonical map is not counted, and the
        # oracle's closed form must give the loop's multiplicities.
        params = ModelParams(*pq)
        cm = canonical_cover(GroupContext(params))
        if corrupt:
            cm = cm.swapped_images(1, 2)
        w = partition_algebra(cm, strict=False)
        sec, n = cm.sector_indices, w.n
        expected = np.zeros((n, n, n), dtype=np.int64)
        for g1, g2 in itertools.product(range(len(sec)), repeat=2):
            expected[sec[g1], sec[g2], sec[g1 ^ g2]] += 1
        if not corrupt:
            assert np.array_equal(canonical_counts(params), expected)
        assert expected.sum() == len(sec) ** 2
        assert np.array_equal(w.coefficients, expected > 0)
        if corrupt:
            assert not cm.support.coefficients.flags.writeable

    def test_sixteenth_squared(self, ising):
        # [1/16] x [1/16] = [0] + [1/2], read off the coefficients.
        w = partition_algebra(canonical_cover(GroupContext(ising)))
        assert w.coefficients[1, 1].tolist() == [1, 0, 1]


def reachable_arrays(root):
    """Every numpy array reachable from ``root`` through the objects it
    refers to, an array's base included; classes and modules are not
    entered."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, type(np))):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


class TestCountsOncePerMap:
    def test_verify_then_partition_counts_once(self, monkeypatch):
        transform = _kernels.pair_support
        calls = []

        def counted(*args):
            calls.append(args)
            return transform(*args)

        monkeypatch.setattr(_kernels, "pair_support", counted)
        params = ModelParams(5, 13)
        cm = canonical_cover(GroupContext(params)).swapped_images(3, 90)
        cert = verify_cover(cm, fusion_tensor(params))
        w = partition_algebra(cm, strict=False)
        assert not cert.passed
        assert len(calls) == 1
        # The map keeps the support it read, not the N^3 int64 counts.
        assert "support" in vars(cm) and "counts" not in vars(cm)
        n, arrays = len(cm.sectors), reachable_arrays(cm)
        assert any(a is w.coefficients for a in arrays)
        assert [a.shape for a in arrays if a.dtype == np.int64 and a.size >= n**3] == []
        d_flat = fusion_tensor(params).coefficients.reshape(-1)
        _, realized = exhaustive_scan(cm.sector_indices, n, d_flat, xor_rows(cm.context.order))
        assert np.array_equal(w.coefficients.reshape(-1), realized)

    def test_canonical_map_is_never_counted(self, monkeypatch):
        def no_transform(*args):
            raise AssertionError("the canonical cover needs no transform")

        check = two_group_cover.check_su2_levels
        calls = []

        def checked(*levels):
            calls.append(levels)
            return check(*levels)

        monkeypatch.setattr(_kernels, "pair_support", no_transform)
        monkeypatch.setattr(two_group_cover, "check_su2_levels", checked)
        params = ModelParams(5, 13)
        cm = canonical_cover(GroupContext(params))
        assert verify_cover(cm, fusion_tensor(params)).passed
        coefficients = partition_algebra(cm).coefficients
        assert np.array_equal(coefficients, fusion_tensor(params).coefficients)
        # The proof is cached as the support, the model's tensor: the second
        # reader reuses it.
        assert calls == [(3, 11)]
        assert "counts" not in vars(cm)
        assert vars(cm)["support"] is fusion_tensor(params)

    @pytest.mark.parametrize("pq", [(3, 4), (4, 5), (5, 13)])
    def test_hand_built_canonical_labels_take_the_transform(self, pq, monkeypatch):
        transform = _kernels.pair_support
        calls = []

        def counted(*args):
            calls.append(args)
            return transform(*args)

        params = ModelParams(*pq)
        ctx = GroupContext(params)
        cm = CoverMap(ctx, canonical_cover(ctx).sector_indices, sectors(params))
        monkeypatch.setattr(_kernels, "pair_support", counted)
        assert np.array_equal(cm.support.coefficients, canonical_cover(ctx).support.coefficients)
        assert np.array_equal(cm.support.coefficients, canonical_counts(params) > 0)
        assert cm.support is vars(cm)["support"]
        assert len(calls) == 1

    def test_canonical_repr_builds_no_labels(self, tricritical, monkeypatch):
        def no_map(ctx):
            raise AssertionError("repr must not build the map")

        monkeypatch.setattr(two_group_cover, "_canonical_labels", no_map)
        assert "ModelParams(p=4, q=5)" in repr(canonical_cover(GroupContext(tricritical)))

    def test_support_is_read_only(self, tricritical):
        cm = canonical_cover(GroupContext(tricritical)).swapped_images(1, 2)
        with pytest.raises(ValueError, match="read-only"):
            cm.support.coefficients[0, 0, 0] = 0

    def test_errors_are_not_cached(self, tricritical, monkeypatch):
        transform = _kernels._transform
        monkeypatch.setattr(_kernels, "_transform", lambda x, f: transform(x, f) + 0.5)
        cm = canonical_cover(GroupContext(tricritical)).swapped_images(0, 1)
        for _ in range(2):
            with pytest.raises(CountCheckError):
                cm.support
        monkeypatch.setattr(_kernels, "_transform", transform)
        d_flat = fusion_tensor(tricritical).coefficients.reshape(-1)
        sec = cm.sector_indices
        _, realized = exhaustive_scan(sec, len(cm.sectors), d_flat, xor_rows(len(sec)))
        assert np.array_equal(cm.support.coefficients.reshape(-1), realized)


class TestIsomorphism:
    def test_true_for_canonical_maps(self, ising, tricritical):
        for params in (ising, tricritical):
            w = partition_algebra(canonical_cover(GroupContext(params)))
            v = verlinde_algebra(fusion_tensor(params))
            assert is_isomorphic_to_verlinde(w, v)

    def test_false_after_moving_a_coset_into_vacuum(self, ising, ising_tensor):
        # the coset {011, 100} has representative "100" (value 1)
        cm = canonical_cover(GroupContext(ising)).reassigned(1, 0)
        w = partition_algebra(cm, strict=False)
        assert not is_isomorphic_to_verlinde(w, verlinde_algebra(ising_tensor))

    def test_dimension_mismatch(self, ising, tricritical):
        w = partition_algebra(canonical_cover(GroupContext(ising)))
        with pytest.raises(ValueError, match="dimension"):
            is_isomorphic_to_verlinde(w, verlinde_algebra(fusion_tensor(tricritical)))


class TestEquivalenceOfFormulations:
    def test_verify_iff_isomorphic(self):
        for params in coprime_models(6, 8, max_sum=13):
            tensor = fusion_tensor(params)
            v = verlinde_algebra(tensor)
            cm = canonical_cover(GroupContext(params))
            candidates = [cm]
            if cm.context.order > 1:
                candidates.append(cm.swapped_images(0, 1))
            for candidate in candidates:
                cert = verify_cover(candidate, tensor)
                w = partition_algebra(candidate, strict=False)
                assert cert.passed == is_isomorphic_to_verlinde(w, v)


class TestCoverMapValidation:
    def test_wrong_length(self, ctx34, ising):
        with pytest.raises(ValueError, match="all 4 elements"):
            CoverMap(ctx34, np.zeros(3, dtype=np.int64), sectors(ising))

    def test_out_of_range_sector(self, ctx34, ising):
        with pytest.raises(ValueError, match="out-of-range"):
            CoverMap(ctx34, np.full(4, 99, dtype=np.int64), sectors(ising))


class TestCoverCertificate:
    def test_verdict_must_be_pass_or_fail(self):
        with pytest.raises(ValueError, match="PASS or FAIL"):
            CoverCertificate("pass")

    def test_fail_requires_a_witness(self, ising):
        with pytest.raises(ValueError, match="witness"):
            CoverCertificate(FAIL)
        witness = UncoveredTriple(sectors(ising)[:3])
        assert not CoverCertificate(FAIL, witness).passed
        assert CoverCertificate(PASS).passed


class TestQuotientGroupKind:
    @pytest.mark.parametrize("pq", [(2, 3), (3, 4), (4, 5), (3, 8)])
    def test_elements_print_as_representative_coordinates(self, pq):
        ctx = GroupContext(ModelParams(*pq))
        for coset in quotient_cosets(ctx):
            g = coset.representative.bits
            assert ctx.element_json(g) == str(coset) == coset.representative.coordinates()

    def test_surface(self, ctx34):
        assert (ctx34.kind, ctx34.factors, ctx34.order) == ("two_group_quotient", (2, 2), 4)
        assert ctx34.describe() == "Z2^2, the quotient of H = Z2^3 by the all-ones vector"

    def test_is_the_abelian_group_z2_power(self):
        for params in coprime_models(5, 7):
            ctx = GroupContext(params)
            rank = params.p + params.q - 5
            assert isinstance(ctx, AbelianGroupSpec)
            assert ctx.factors == (2,) * rank and ctx.order == 2**rank
            # Equal only to a quotient of the same model, not to the plain group.
            assert ctx != AbelianGroupSpec(ctx.factors)
        assert GroupContext(ModelParams(2, 3)).factors == ()
        cyclic = GroupContext(ModelParams(3, 4)).cyclic(3)
        assert type(cyclic) is AbelianGroupSpec and cyclic.factors == (3,)
        codes = np.arange(4)
        assert GroupContext(ModelParams(3, 4)).addition_table() == (codes[:, None] ^ codes).tolist()
