"""Unit tests for the exact minimal-model computations."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fusioncover import (
    ModelParams,
    admissible_range,
    canonicalize,
    central_charge,
    conformal_weight,
    fusion_products,
    fusion_tensor,
    is_p_admissible,
    is_pq_admissible,
    kac_table,
    sectors,
    verlinde_algebra,
)
from fusioncover.errors import CapacityError
from fusioncover.minimal_model import MAX_PQ, fraction_str

from conftest import coprime_models


class TestModelParams:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            ModelParams(4, 6)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            ModelParams(1, 3)
        with pytest.raises(ValueError):
            ModelParams(3, 1)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match=str(MAX_PQ)):
            ModelParams(MAX_PQ + 1, 2)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            ModelParams(3.0, 4)

    def test_sector_count(self):
        assert ModelParams(3, 4).n_sectors == 3
        assert ModelParams(4, 5).n_sectors == 6
        assert ModelParams(2, 3).n_sectors == 1


class TestCentralCharge:
    @pytest.mark.parametrize(
        "p,q,expected",
        [(3, 4, Fraction(1, 2)), (4, 5, Fraction(7, 10)), (2, 3, Fraction(0))],
    )
    def test_known_values(self, p, q, expected):
        assert central_charge(ModelParams(p, q)) == expected

    def test_exact_rational(self):
        c = central_charge(ModelParams(5, 12))
        assert isinstance(c, Fraction)
        assert c == 1 - Fraction(6 * 49, 60)


class TestConformalWeight:
    @pytest.mark.parametrize(
        "p,q,m,n,expected",
        [
            (3, 4, 1, 2, Fraction(1, 16)),
            (4, 5, 2, 2, Fraction(3, 80)),
            (7, 10, 1, 1, Fraction(0)),
            (5, 6, 1, 1, Fraction(0)),
        ],
    )
    def test_known_values(self, p, q, m, n, expected):
        assert conformal_weight(ModelParams(p, q), m, n) == expected

    def test_reflection_symmetry_exhaustive(self):
        for params in coprime_models(8, 9):
            p, q = params.p, params.q
            for m in range(1, p):
                for n in range(1, q):
                    assert conformal_weight(params, m, n) == conformal_weight(
                        params, p - m, q - n
                    )

    @pytest.mark.parametrize("m,n", [(0, 1), (3, 1), (1, 0), (1, 4), (-1, 2)])
    def test_range_errors(self, m, n):
        with pytest.raises(ValueError, match="out of range"):
            conformal_weight(ModelParams(3, 4), m, n)


class TestSectors:
    def test_ising(self, ising):
        secs = sectors(ising)
        assert [(s.m, s.n) for s in secs] == [(1, 1), (1, 2), (1, 3)]
        assert [s.h for s in secs] == [Fraction(0), Fraction(1, 16), Fraction(1, 2)]
        assert [s.index for s in secs] == [0, 1, 2]

    def test_tricritical_weights(self, tricritical):
        hs = {s.h for s in sectors(tricritical)}
        assert hs == {
            Fraction(0),
            Fraction(3, 5),
            Fraction(7, 16),
            Fraction(3, 80),
            Fraction(1, 10),
            Fraction(3, 2),
        }
        assert len(sectors(tricritical)) == 6

    def test_degenerate_model(self):
        secs = sectors(ModelParams(2, 3))
        assert len(secs) == 1
        assert (secs[0].m, secs[0].n) == (1, 1) and secs[0].h == 0

    def test_count_formula_exhaustive(self):
        for params in coprime_models(10, 11):
            assert len(sectors(params)) == params.n_sectors

    def test_vacuum_first_and_sorted(self):
        for params in coprime_models(7, 9):
            labels = [(s.m, s.n) for s in sectors(params)]
            assert labels[0] == (1, 1)
            assert labels == sorted(labels)


class TestCanonicalize:
    def test_examples(self, ising, tricritical):
        for params, m, n, label in [(ising, 2, 2, (1, 2)), (ising, 1, 3, (1, 3)),
                                    (tricritical, 3, 4, (1, 1))]:
            s = canonicalize(params, m, n)
            assert (s.m, s.n) == label

    def test_weight_preserved(self):
        params = ModelParams(5, 8)
        for m in range(1, 5):
            for n in range(1, 8):
                assert canonicalize(params, m, n).h == conformal_weight(params, m, n)

    def test_range_error(self, ising):
        with pytest.raises(ValueError):
            canonicalize(ising, 3, 1)


class TestPAdmissible:
    def test_examples(self):
        assert is_p_admissible(3, 1, 2, 2)
        assert not is_p_admissible(3, 2, 2, 2)  # even sum
        assert not is_p_admissible(5, 1, 1, 3)  # triangle fails

    def test_out_of_range_is_false(self):
        assert not is_p_admissible(5, 0, 1, 1)
        assert not is_p_admissible(5, 5, 1, 1)
        assert is_p_admissible(2, 1, 1, 1)  # the lone admissible triple at p = 2
        assert not is_p_admissible(3, 3, 1, 1)

    def test_total_symmetry(self):
        for p in range(2, 13):
            for triple in itertools.product(range(1, p), repeat=3):
                value = is_p_admissible(p, *triple)
                for perm in itertools.permutations(triple):
                    assert is_p_admissible(p, *perm) == value


class TestAdmissibleRange:
    # expected values frozen from the brute-force filter below
    @pytest.mark.parametrize(
        "p,m,m2,expected",
        [(5, 3, 2, [2, 4]), (3, 2, 2, [1]), (4, 1, 1, [1])],
    )
    def test_frozen_examples(self, p, m, m2, expected):
        assert admissible_range(p, m, m2) == expected

    def test_matches_brute_force_filter(self):
        for p in range(2, 13):
            for m in range(1, p):
                for m2 in range(1, m + 1):
                    brute = [m3 for m3 in range(1, p) if is_p_admissible(p, m, m2, m3)]
                    assert admissible_range(p, m, m2) == brute

    def test_argument_order_enforced(self):
        with pytest.raises(ValueError, match="m2 <= m"):
            admissible_range(5, 2, 3)
        with pytest.raises(ValueError):
            admissible_range(5, 5, 1)


class TestPQAdmissible:
    def test_examples(self, ising, tricritical):
        assert is_pq_admissible(ising, (1, 2), (1, 2), (1, 1))
        assert not is_pq_admissible(ising, (1, 2), (1, 2), (2, 3))
        # [3/80] x [3/80] contains [3/2]: the completing representative of
        # the [3/2] class is (3,1); the reflected label (1,4) fails parity.
        assert is_pq_admissible(tricritical, (2, 2), (2, 2), (3, 1))
        assert not is_pq_admissible(tricritical, (2, 2), (2, 2), (1, 4))

    def test_single_replacement_never_admissible(self, tricritical):
        p, q = tricritical.p, tricritical.q
        triple = ((2, 2), (2, 2), (3, 1))
        assert is_pq_admissible(tricritical, *triple)
        t1, t2, (m3, n3) = triple
        assert not is_pq_admissible(tricritical, t1, t2, (p - m3, q - n3))


def models_up_to(n_max):
    """Every coprime model with at most n_max sectors (N >= (q-1)/2 bounds q)."""
    return [m for m in coprime_models(n_max, 2 * n_max + 1) if m.n_sectors <= n_max]


def loop_fusion_coefficients(params):
    """Reference tensor: test both completions of every cell with is_pq_admissible."""
    p, q = params.p, params.q
    labels = [(s.m, s.n) for s in sectors(params)]
    n = len(labels)
    coeff = np.zeros((n, n, n), dtype=np.uint8)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            for k, (m, nk) in enumerate(labels):
                if is_pq_admissible(params, a, b, (m, nk)) or is_pq_admissible(
                    params, a, b, (p - m, q - nk)
                ):
                    coeff[i, j, k] = 1
    return coeff


def verlinde_fusion_coefficients(params):
    """N_ij^k = sum_l S_il S_jl S_kl / S_0l from the minimal-model S-matrix, in float64.

    S = 2 sqrt(2/pq) (-1)^(1 + m n' + n m') sin(pi q m m'/p) sin(pi p n n'/q)
    over canonical labels; S is real and symmetric and row 0 is the vacuum.
    """
    p, q = params.p, params.q
    secs = sectors(params)
    m = np.array([s.m for s in secs], dtype=np.int64)
    n = np.array([s.n for s in secs], dtype=np.int64)
    sign = 1 - 2 * ((1 + np.outer(m, n) + np.outer(n, m)) % 2)
    s = (
        2 * np.sqrt(2 / (p * q)) * sign
        * np.sin(np.pi * q * np.outer(m, m) / p)
        * np.sin(np.pi * p * np.outer(n, n) / q)
    )
    return np.einsum("il,jl,kl->ijk", s, s, s / s[0], optimize=True)


# Every coprime model with p + q <= 22: 54 models, N up to 48.
ALGEBRA_MODELS = coprime_models(20, 20, 22)


class TestFusionTensor:
    def test_matches_loop_oracle(self):
        models = models_up_to(60)
        assert len(models) == 172
        for params in models:
            assert np.array_equal(
                fusion_tensor(params).coefficients, loop_fusion_coefficients(params)
            ), (params.p, params.q)

    def test_matches_loop_oracle_at_16_17(self):
        params = ModelParams(16, 17)
        assert np.array_equal(fusion_tensor(params).coefficients, loop_fusion_coefficients(params))

    def test_matches_verlinde_formula(self):
        models = models_up_to(80)
        assert len(models) == 240
        for params in models:
            verlinde = verlinde_fusion_coefficients(params)
            rounded = np.rint(verlinde)
            assert np.abs(verlinde - rounded).max() <= 1e-6, (params.p, params.q)
            assert np.array_equal(rounded, fusion_tensor(params).coefficients), (params.p, params.q)

    def test_meets_the_cover_search_precondition(self):
        # The cyclic search labels one class {x, -x} at a time and reads
        # closure off sorted triples, which holds when D is invariant under
        # every permutation of (i, j, k) and the vacuum row and column are
        # the identity: D[a, b, vacuum] = 1 iff a = b, so every sector is
        # self-conjugate and every cyclic cover is its own negation.
        models = coprime_models(32, 33, max_sum=35)
        assert len(models) == 158
        for params in models:
            c = fusion_tensor(params).coefficients
            for perm in itertools.permutations(range(3)):
                assert np.array_equal(c, c.transpose(perm)), (params, perm)
            eye = np.eye(params.n_sectors)
            assert np.array_equal(c[0], eye) and np.array_equal(c[:, :, 0], eye), params

    def test_size_is_the_closed_form(self):
        # |D| = C(p+1, 3) C(q+1, 3) / 4 against the array's sum, on every
        # model with p + q <= 35 and up to the sector cap.  Reading the size
        # builds no array.  Each tensor is built uncached, so its array is
        # freed as the loop goes on.
        models = coprime_models(32, 33, max_sum=35)
        assert len(models) == 158
        models += [ModelParams(16, 17), ModelParams(23, 24), ModelParams(3, 257),
                   ModelParams(2, 513)]
        for params in models:
            tensor = fusion_tensor.__wrapped__(params)
            size = tensor.size
            assert "coefficients" not in vars(tensor), params
            assert size == int(tensor.coefficients.sum()), params

    def test_largest_model_scratch_is_quadratic(self):
        # N = 256, the largest model under the cell budget; scratch beside the
        # N^3-byte result must stay O(N^2).  The sectors are cached before the
        # trace starts, and the tensor is built uncached so the result is freed.
        params = ModelParams(3, 257)
        n = params.n_sectors
        sectors(params)
        tracemalloc.start()
        try:
            tensor = fusion_tensor.__wrapped__(params)
            tensor.coefficients  # the array is built on first read
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensor.n == n == 256
        assert peak <= n**3 + 64 * n**2

    def test_over_budget_refused_before_allocating(self):
        params = ModelParams(2, 515)
        assert params.n_sectors == 257
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="budget"):
                fusion_tensor(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.n_sectors**2

    def test_cache_holds_a_bounded_number_of_tensors(self):
        # A process that verifies model after model keeps only the last few
        # tensors, not one per model.
        maxsize = fusion_tensor.cache_info().maxsize
        models = models_up_to(20)
        assert maxsize is not None and len(models) > 2 * maxsize
        for params in models:
            fusion_tensor(params)
            assert fusion_tensor.cache_info().currsize <= maxsize

    def test_ising_sixteenth_row(self, ising_tensor):
        cell = np.flatnonzero(ising_tensor.coefficients[1, 1])
        names = [ising_tensor.sectors[k].name for k in cell]
        assert names == ["[0]", "[1/2]"]

    def test_tricritical_self_fusion(self, tricritical_tensor):
        idx = {s.name: s.index for s in tricritical_tensor.sectors}["[3/80]"]
        cell = np.flatnonzero(tricritical_tensor.coefficients[idx, idx])
        names = {tricritical_tensor.sectors[k].name for k in cell}
        assert names == {"[0]", "[3/5]", "[3/2]", "[1/10]"}

    def test_vacuum_row_is_identity(self):
        # D[0] = I: [0] is the unit.  D[:, :, 0] = I: [0] occurs in S_i x S_j
        # iff i = j, every sector is its own conjugate.
        for params in ALGEBRA_MODELS:
            c = fusion_tensor(params).coefficients
            eye = np.eye(params.n_sectors, dtype=np.uint8)
            assert np.array_equal(c[0], eye) and np.array_equal(c[:, :, 0], eye), params

    def test_symmetric_in_first_two_slots(self):
        for params in ALGEBRA_MODELS:
            c = fusion_tensor(params).coefficients
            assert np.array_equal(c, c.transpose(1, 0, 2)), params

    def test_coefficients_binary_and_readonly(self, tricritical_tensor):
        c = tricritical_tensor.coefficients
        assert set(np.unique(c)) <= {0, 1}
        with pytest.raises(ValueError):
            c[0, 0, 0] = 1


class TestFusionProducts:
    """`fusion_products` (closed-form ranges, no numpy) against `fusion_tensor`."""

    @pytest.mark.parametrize(
        "p,q", [(2, 3), (3, 2), (5, 2), (7, 2), (4, 5), (11, 12), (23, 24), (3, 257)]
    )
    def test_matches_fusion_tensor(self, p, q):
        params = ModelParams(p, q)
        coefficients = fusion_tensor(params).coefficients
        products = fusion_products(params)
        n = params.n_sectors
        assert len(products) == n and all(len(row) == n for row in products)
        scattered = np.zeros((n, n, n), dtype=np.uint8)
        for i, row in enumerate(products):
            for j, ks in enumerate(row):
                # Strictly increasing: ascending, and no k listed twice.
                assert all(a < b for a, b in zip(ks, ks[1:])), (i, j)
                scattered[i, j, list(ks)] = 1
        assert np.array_equal(scattered, coefficients)

    def test_commutative_cells_are_shared(self, tricritical):
        products = fusion_products(tricritical)
        n = len(products)
        assert all(products[i][j] is products[j][i] for i in range(n) for j in range(n))

    def test_over_budget_refused_before_any_sector(self):
        params = ModelParams(2, 515)
        assert params.n_sectors == 257
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="budget"):
                fusion_products(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.n_sectors**2


class TestVerlindeAlgebra:
    """The fusion rules as the structure constants of an associative algebra,
    checked as integer identities on D (commutativity and the unit [0] are
    checked in TestFusionTensor)."""

    def test_associative(self):
        for params in ALGEBRA_MODELS:
            d = verlinde_algebra(fusion_tensor(params)).coefficients.astype(np.int64)
            left = np.einsum("ijm,mkl", d, d)  # ((S_i S_j) S_k), coefficient of S_l
            right = np.einsum("jkm,iml", d, d)  # (S_i (S_j S_k))
            assert np.array_equal(left, right), params

    def test_bilinear_expansion(self, ising_tensor):
        # ([1/16] + [1/2]) * [1/16] = [0] + [1/2] + [1/16]
        d = ising_tensor.coefficients.astype(np.int64)
        assert (d[1, 1] + d[2, 1]).tolist() == [1, 1, 1]

    def test_associativity_example(self, tricritical_tensor):
        d = tricritical_tensor.coefficients.astype(np.int64)
        idx = {s.name: s.index for s in tricritical_tensor.sectors}
        a, b = idx["[3/5]"], idx["[7/16]"]
        lhs = d[a, a] @ d[:, b]  # ([3/5] [3/5]) [7/16]
        rhs = d[a, b] @ d[a]  # [3/5] ([3/5] [7/16])
        # both sides expand to [7/16] + [3/80]
        expected = np.zeros(tricritical_tensor.n, dtype=np.int64)
        expected[[idx["[7/16]"], idx["[3/80]"]]] = 1
        assert np.array_equal(lhs, expected) and np.array_equal(rhs, expected)


class TestUnitaryDiscreteSeries:
    """The q = p + 1 slice of the general model: c = 1 - 6/(p(p+1))."""

    def test_known_central_charges(self):
        assert central_charge(ModelParams(3, 4)) == Fraction(1, 2)
        assert central_charge(ModelParams(4, 5)) == Fraction(7, 10)

    def test_central_charge_formula(self):
        for p in range(2, 8):
            assert central_charge(ModelParams(p, p + 1)) == 1 - Fraction(6, p * (p + 1))

    def test_degenerate(self):
        params = ModelParams(2, 3)
        assert central_charge(params) == 0
        assert all(h == 0 for row in kac_table(params) for h in row)
        assert len(sectors(params)) == 1


class TestFractionStr:
    @pytest.mark.parametrize(
        "value,expected",
        [(Fraction(0), "0"), (Fraction(7, 10), "7/10"), (Fraction(-3, 2), "-3/2"), (Fraction(4), "4")],
    )
    def test_rendering(self, value, expected):
        assert fraction_str(value) == expected
