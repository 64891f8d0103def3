"""The canonical 2-group cover of a minimal model's fusion rules.

For the (p,q)-minimal model set r = p + q - 4 and let H = Z_2^r, with
coordinates 1..p-2 forming the subgroup A and coordinates p-1..r forming B.
Splitting A and B into fixed-weight classes

    A_m = {a in A : wt(a) = m - 1},   B_n = {b in B : wt(b) = n - 1},

every x in H lies in exactly one class H_{m,n} = A_m + B_n, which attaches a
full Kac label to x.  Adding the all-ones vector swaps (m, n) with
(p-m, q-n), so the label map descends to the quotient G = H / {0, all-ones}
as a map Phi onto sectors.  This module provides that map, a
``certificates.CoverMap`` over the quotient (``GroupContext``, the
``certificates.AbelianGroupSpec`` Z_2^(r-1) printed by coordinate strings),
which ``certificates.verify_cover`` checks like any other cover: sums of
elements land only on admissible sector triples, and every admissible
triple is realized.  Both conditions are read off the exact
count of element pairs on each sector triple.  The same counts yield the
partition algebra (structure constants of the sums of the sectors'
preimages), which the theorem says is isomorphic to the Verlinde algebra.

No vector, class or coset is built one at a time.  A label depends only on
the A- and B-weights, so the map's labels are read off a grid of weights
(``_canonical_labels``), and its counts are a counting certificate derived
from the construction, not a scan of the map: the number of pairs of given
weights in Z_2^w whose sum has a given weight is a product of binomials,
and each count is two products of such tables, checked by its row sums
(``canonical_counts``).  Exact in int64 up to r = 31 (p + q <= 35), they
take O(N^3) memory, whatever |G|.  Any other map, over this
group or another, is counted by the transform in
``_kernels.pair_counts``, within the sizes ``_kernels.check_count_size``
admits.  Either way ``CoverMap.counts`` counts a map once, for both
``verify_cover`` and ``partition_algebra``; the labels are read only by
the scan that names a FAIL witness.
"""

from __future__ import annotations

import functools
from math import comb

import numpy as np

# ``verify_cover`` is bound here too: ``perfbench/tracing.py`` wraps it
# under this module's name.
from .certificates import AbelianGroupSpec, CoverMap, verify_cover  # noqa: F401
from ._kernels import check_counts
from .errors import CapacityError, PartitionError
from .minimal_model import (FusionTensor, IdentityRecord, ModelParams, Sector, _label_index,
                            sectors)

# Largest rank whose closed-form counts are exact in int64: every count of
# pairs in H is at most |H|^2 = 4^r, and 4^31 = 2^62.
MAX_CANONICAL_RANK = 31

# Most cosets a canonical map is built for: 32 MiB of int64 labels, the
# largest array the builder holds (61 MiB peak RSS for the whole process at
# (11,16), 2^22 cosets, with numpy 2.4 on x86-64).
MAX_CANONICAL_MAP = 1 << 22


class GroupContext(AbelianGroupSpec):
    """The quotient G = H / {0, all-ones} = Z_2^(r-1) of H = Z_2^r, as the
    group of a ``CoverMap``: the ``AbelianGroupSpec`` Z_2^(r-1), named by
    its model, whose elements print as coordinate strings.

    An element code is the value of a coset's representative, the member
    whose coordinate r is 0: coordinate i is bit i - 1, coordinates 1..p-2
    form A and p-1..r form B.
    """

    kind = "two_group_quotient"
    _fields = ("params",)

    def __init__(self, params: ModelParams) -> None:
        vars(self).update(params=params, factors=(2,) * (params.p + params.q - 5))

    @property
    def r(self) -> int:
        return self.params.p + self.params.q - 4

    def describe(self) -> str:
        return f"Z2^{self.r - 1}, the quotient of H = Z2^{self.r} by the all-ones vector"

    def element_json(self, code: int) -> str:
        """A coset as printed: its representative's coordinate string, width r."""
        return f"{code:0{self.r}b}"[::-1]


@functools.lru_cache(maxsize=None)
def _weight_class_counts(w: int) -> np.ndarray:
    """K_w[a, b, c] = #{(x, y) in (Z_2^w)^2 : wt x = a, wt y = b, wt(x + y) = c}.

    Choose x (C(w, a) ways), then the i ones y shares with x (C(a, i)) and
    its b - i ones outside x (C(w - a, b - i)); x + y has weight
    a + b - 2i.  Entries are at most C(w, a) C(w, b) <= 4^w, exact in int64
    for w <= 31.
    """
    k = np.zeros((w + 1,) * 3, dtype=np.int64)
    for a in range(w + 1):
        for b in range(w + 1):
            for i in range(max(0, a + b - w), min(a, b) + 1):
                k[a, b, a + b - 2 * i] = comb(w, a) * comb(a, i) * comb(w - a, b - i)
    k.setflags(write=False)
    return k


def _canonical_labels(ctx: GroupContext) -> np.ndarray:
    """Sector index of every coset under Phi, checking that Phi is constant
    on cosets.  Refuses more than 2^22 cosets before allocating."""
    if ctx.order > MAX_CANONICAL_MAP:
        raise CapacityError(
            f"the canonical map of {ctx.params} has {ctx.order} cosets, above "
            f"{MAX_CANONICAL_MAP} (2^22); verifying the canonical cover and its "
            f"partition algebra needs no map"
        )
    table = np.array(_label_index(ctx.params), dtype=np.int64)
    # The members of a coset carry the full labels (m, n) and (p - m, q - n),
    # and every label arises: Phi is constant on cosets iff the table is
    # symmetric under that complement.
    inner = table[1:, 1:]
    if not np.array_equal(inner, inner[::-1, ::-1]):
        raise AssertionError("class map is not constant on cosets")
    # Coset g has A-weight popcount(g mod 2^(p-2)) and B-weight
    # popcount(g >> (p-2)): its label is one cell of a weight grid.  At
    # q = 2 there are fewer cosets than A-weights and the grid is one row.
    a_width = ctx.params.p - 2
    m = np.bitwise_count(np.arange(min(ctx.order, 1 << a_width))) + 1
    n = np.bitwise_count(np.arange(max(1, ctx.order >> a_width))) + 1
    return table[m, n[:, None]].reshape(-1)


class _CanonicalCover(CoverMap):
    """The canonical map Phi: counted by ``canonical_counts``, with its
    labels built by ``_canonical_labels`` on first access."""

    def __init__(self, context: GroupContext) -> None:
        vars(self).update(context=context, sectors=sectors(context.params))

    @functools.cached_property
    def sector_indices(self) -> np.ndarray:
        labels = _canonical_labels(self.context)
        labels.setflags(write=False)
        return labels

    @functools.cached_property
    def counts(self) -> np.ndarray:
        counts = canonical_counts(self.context.params)
        counts.setflags(write=False)
        return counts


def canonical_cover(ctx: GroupContext) -> CoverMap:
    """The map Phi: each coset is sent to the sector of its members' class.

    Its counts are ``canonical_counts``.  Its labels are built on first
    access to ``sector_indices`` (at most 2^22 cosets), asserting that both
    members of every coset lie in classes with the same canonicalization.
    """
    return _CanonicalCover(ctx)


def check_canonical_rank(params: ModelParams) -> None:
    """Refuse a model whose canonical counts would not be exact in int64."""
    r = params.p + params.q - 4
    if r > MAX_CANONICAL_RANK:
        raise CapacityError(
            f"the canonical cover of the ({params.p},{params.q}) model has rank "
            f"r = p + q - 4 = {r}, above {MAX_CANONICAL_RANK} (p + q <= 35), the largest "
            f"whose closed-form counts are exact; no option lifts this limit"
        )


def canonical_counts(params: ModelParams) -> np.ndarray:
    """Pair counts C[i, j, k] of the canonical cover, in closed form.

    K(l, u, v), the number of pairs (x, y) in H^2 with x, y and x + y in
    full-label classes l, u and v, is K_{p-2} of their A-weights times
    K_{q-2} of their B-weights (``_weight_class_counts``).  With l = (m, n)
    a sector's canonical label (weights m - 1, n - 1) and l' = (p - m,
    q - n) its complement, C[i, j, k] = K(l_i, l_j, l_k) + K(l_i, l_j, l_k').
    Proof: a pair of cosets lifts to 4 pairs in H, so C is a quarter of the
    sum over the 8 full-label choices of the triple.  Adding the all-ones
    vector to x, or to y, is a bijection of H^2 that swaps that summand's
    class and the sum's class between l and l', so the 8 terms are 4
    copies of these 2.  At most three N^3 arrays are held.  Returns an
    int64 (N, N, N) array summing to |G|^2 = 4^(r-1).

    Exactness: each product counts pairs in fixed classes, so it is at most
    C[i, j, k] <= 4^(r-1), exact in int64 while r <= 31; larger models raise
    CapacityError before anything is allocated.  Check:
    ``_kernels.check_counts``, which the transform's counts pass too, raises
    CountCheckError unless every row sum is sum_j C[i, j, k] = |P_i| |P_k|,
    where |P_i| = C(p-2, m_i-1) C(q-2, n_i-1), and no count is negative.
    """
    check_canonical_rank(params)
    p, q = params.p, params.q
    secs = sectors(params)
    a, b = np.array([(s.m - 1, s.n - 1) for s in secs], dtype=np.int64).T
    ka, kb = _weight_class_counts(p - 2), _weight_class_counts(q - 2)
    counts = ka[np.ix_(a, a, a)] * kb[np.ix_(b, b, b)]
    other = ka[np.ix_(a, a, p - 2 - a)]
    counts += np.multiply(other, kb[np.ix_(b, b, q - 2 - b)], out=other)
    sizes = np.array([comb(p - 2, s.m - 1) * comb(q - 2, s.n - 1) for s in secs], dtype=np.int64)
    check_counts(counts, sizes)
    return counts


class PartitionAlgebra(IdentityRecord):
    """The algebra W of a partition of G: W[i,j,k] = 1 iff P_i + P_j meets P_k.

    The coefficients are the support of the map's ``CoverMap.counts``, the
    number of pairs (g1, g2) with g1 in P_i, g2 in P_j and g1 + g2 in P_k.
    Algebras compare by identity.
    """

    _fields = ("sectors", "coefficients")

    def __init__(self, sectors: tuple[Sector, ...], coefficients: np.ndarray) -> None:
        vars(self).update(sectors=sectors, coefficients=coefficients)

    @property
    def n(self) -> int:
        return len(self.sectors)


def partition_algebra(
    cm: CoverMap,
    strict: bool = True,
    threads: int = 1,
) -> PartitionAlgebra:
    """Structure constants of the partition P_i = preimage of sector i under a map.

    The map may be over any group.  With ``strict`` (the default)
    the partition must satisfy P_1 = {0}: the identity element alone is
    assigned the vacuum sector.  Pass strict=False to build the algebra of a
    deliberately corrupted partition anyway, e.g. to compare its constants
    against the Verlinde algebra.  The constants are the support of
    ``cm.counts``, the same array ``verify_cover`` reads, so a map counted
    there is not counted again.  The strict check reads them too: P_1 = {0}
    iff |P_1| = 1 and C[0, 0, 0] = 1.  Here |P_1| = sum_{j,k} C[0, j, k] /
    |G|, and with P_1 = {g}, C[0, 0, 0] counts the pair (g, g) iff 2g = g,
    i.e. g = 0.  C[0, 0, 0] = 1 alone does not do: in Z_5, P_1 = {1, 2}
    holds the one pair 1 + 1 = 2.  ``threads`` is ignored; it stays because
    ``perfbench/theorem_job.py`` passes it.
    """
    counts = cm.counts
    size = int(counts[0].sum()) // cm.context.order
    if strict and (size != 1 or counts[0, 0, 0] != 1):
        where = "one nonzero element" if size == 1 else f"{size} elements"
        raise PartitionError(f"partition requires P_1 = {{0}}: the vacuum preimage is {where}")
    coeff = (counts > 0).astype(np.uint8)
    coeff.setflags(write=False)
    return PartitionAlgebra(cm.sectors, coeff)


def is_isomorphic_to_verlinde(w: PartitionAlgebra, v: FusionTensor) -> bool:
    """Whether the index-preserving bijection S_i <-> P_i is an algebra isomorphism.

    ``v`` is the Verlinde algebra, ``minimal_model.verlinde_algebra``.  True
    iff the two structure-constant arrays are identical.
    """
    if w.n != v.n:
        raise ValueError(f"dimension mismatch: partition {w.n} vs Verlinde {v.n}")
    return np.array_equal(w.coefficients, v.coefficients)
