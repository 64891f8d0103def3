"""The canonical 2-group cover of a minimal model's fusion rules.

For the (p,q)-minimal model set r = p + q - 4 and let H = Z_2^r, with
coordinates 1..p-2 forming the subgroup A and coordinates p-1..r forming B.
Splitting A and B into fixed-weight classes

    A_m = {a in A : wt(a) = m - 1},   B_n = {b in B : wt(b) = n - 1},

every x in H lies in exactly one class H_{m,n} = A_m + B_n, which attaches a
full Kac label to x.  Adding the all-ones vector swaps (m, n) with
(p-m, q-n), so the label map descends to the quotient G = H / {0, all-ones}
as a map onto sectors.  This module builds that map, a
``certificates.CoverMap`` over the quotient (the group kind
``GroupContext``), which ``certificates.verify_cover`` checks like any other
cover: sums of elements land only on admissible sector triples, and every
admissible triple is realized.  Both conditions are read off the exact
count of element pairs on each sector triple.  The same counts yield the
partition algebra (structure constants of the sums of the sectors'
preimages), which the theorem says is isomorphic to the Verlinde algebra.

For ``canonical_cover`` the counts are a counting certificate derived from
the construction, not a scan of the map: a label depends only on the A- and
B-weights, and the number of pairs of given weights in Z_2^w whose sum has a
given weight is a product of binomials (``canonical_counts``).  They are
exact in int64 up to r = 31 (p + q <= 35) and take O(N^3) memory, whatever
|G|.  Any other map, of this group kind or another, is counted by the
transform in ``_kernels.pair_counts`` (|G| <= 2^17).  Either way
``CoverMap.counts`` counts a map once, for both ``verify_cover`` and
``partition_algebra``; the labels are read only by the scan that names a
FAIL witness.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Literal, NamedTuple, Sequence

import numpy as np

# ``verify_cover`` is bound here too: ``perfbench/tracing.py`` wraps it
# under this module's name.
from .certificates import CoverMap, verify_cover  # noqa: F401
from .errors import CapacityError, CountCheckError, PartitionError
from .minimal_model import (
    Fraction,
    ModelParams,
    Sector,
    VerlindeAlgebra,
    algebra_product,
    canonicalize,
    sectors,
)

# Largest rank whose closed-form counts are exact in int64: every count of
# pairs in H is at most |H|^2 = 4^r, and 4^31 = 2^62.
MAX_CANONICAL_RANK = 31

# Most cosets a canonical map is built for: 32 MiB of int64 labels, the
# largest array the builder holds (61 MiB peak RSS for the whole process at
# (11,16), 2^22 cosets, with numpy 2.4 on x86-64).
MAX_CANONICAL_MAP = 1 << 22


@dataclass(frozen=True)
class BitVector:
    """An element of Z_2^width; coordinate i (1-based) is bit i-1 of ``bits``."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"width must be >= 0, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"bits {self.bits:#x} exceed width {self.width}")

    @classmethod
    def from_coordinates(cls, coords: str) -> "BitVector":
        """Parse a coordinate string like ``"110"`` (coordinate 1 leftmost)."""
        if set(coords) - {"0", "1"}:
            raise ValueError(f"coordinate string must be over {{0,1}}: {coords!r}")
        bits = 0
        for i, ch in enumerate(coords):
            if ch == "1":
                bits |= 1 << i
        return cls(bits, len(coords))

    @classmethod
    def all_ones(cls, width: int) -> "BitVector":
        return cls((1 << width) - 1, width)

    def weight(self) -> int:
        """Number of coordinates equal to 1."""
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        """Ascending 1-based coordinates equal to 1."""
        return tuple(i + 1 for i in range(self.width) if self.bits >> i & 1)

    def coordinates(self) -> str:
        """Coordinate string with coordinate 1 leftmost, e.g. ``"110"``."""
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.width))

    def _check_width(self, other: "BitVector") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def __xor__(self, other: "BitVector") -> "BitVector":
        """Group sum (componentwise addition mod 2)."""
        self._check_width(other)
        return BitVector(self.bits ^ other.bits, self.width)

    def __and__(self, other: "BitVector") -> "BitVector":
        """Boolean-ring product (componentwise multiplication)."""
        self._check_width(other)
        return BitVector(self.bits & other.bits, self.width)

    def __str__(self) -> str:
        return self.coordinates()


def sym_diff_weight_identity(x: BitVector, y: BitVector) -> tuple[int, int]:
    """Both sides of wt(x+y) = wt(x) + wt(y) - 2 wt(x*y); always equal.

    Exposed as a checkable pair: the support of a sum is the symmetric
    difference of the supports, whose size is the right-hand side.
    """
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} vs {y.width}")
    lhs = (x ^ y).weight()
    rhs = x.weight() + y.weight() - 2 * (x & y).weight()
    return lhs, rhs


class ClassLabel(NamedTuple):
    """A full (not canonicalized) Kac label attached to a group element."""

    m: int
    n: int


@dataclass(frozen=True)
class GroupContext:
    """The group H = Z_2^r for a model, with its A/B coordinate split.

    As the group of a ``CoverMap`` it stands for the quotient
    G = H / {0, all-ones} = Z_2^(r-1), whose element codes are the values of
    the coset representatives.
    """

    params: ModelParams
    kind = "two_group_quotient"

    @property
    def r(self) -> int:
        return self.params.p + self.params.q - 4

    @property
    def a_coords(self) -> range:
        """Coordinates of the subgroup A: 1..p-2."""
        return range(1, self.params.p - 1)

    @property
    def b_coords(self) -> range:
        """Coordinates of the subgroup B: p-1..p+q-4."""
        return range(self.params.p - 1, self.r + 1)

    @property
    def order(self) -> int:
        """|G|, the number of cosets."""
        return 1 << (self.r - 1)

    @property
    def factors(self) -> tuple[int, ...]:
        return (2,) * (self.r - 1)

    def describe(self) -> str:
        return f"Z2^{self.r - 1}, the quotient of H = Z2^{self.r} by the all-ones vector"

    @staticmethod
    def element(code: int) -> int:
        """A coset is named by the value of its representative."""
        return int(code)

    def element_json(self, g: int) -> str:
        """A coset as printed: its representative's coordinate string, width r."""
        return f"{g:0{self.r}b}"[::-1]

    @property
    def all_ones(self) -> BitVector:
        return BitVector.all_ones(self.r)


def class_of(ctx: GroupContext, x: BitVector) -> ClassLabel:
    """The full Kac label (m, n) of the class H_{m,n} containing x.

    m - 1 is the weight of x restricted to the A coordinates, n - 1 the
    weight restricted to the B coordinates.
    """
    if x.width != ctx.r:
        raise ValueError(f"expected width {ctx.r}, got {x.width}")
    a_width = ctx.params.p - 2
    a_mask = (1 << a_width) - 1
    m = (x.bits & a_mask).bit_count() + 1
    n = (x.bits >> a_width).bit_count() + 1
    return ClassLabel(m, n)


def class_members(ctx: GroupContext, label: ClassLabel | tuple[int, int]) -> set[BitVector]:
    """All elements of H_{m,n}; there are C(p-2, m-1) * C(q-2, n-1) of them."""
    m, n = label
    p, q = ctx.params.p, ctx.params.q
    if not (0 < m < p and 0 < n < q):
        raise ValueError(f"class label ({m}, {n}) out of range for (p, q) = ({p}, {q})")
    members = set()
    for a_supp in itertools.combinations(ctx.a_coords, m - 1):
        a_bits = sum(1 << (i - 1) for i in a_supp)
        for b_supp in itertools.combinations(ctx.b_coords, n - 1):
            bits = a_bits + sum(1 << (i - 1) for i in b_supp)
            members.add(BitVector(bits, ctx.r))
    return members


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


def orbit_sum_classes(
    ctx: GroupContext, part: Literal["A", "B"], w1: int, w2: int
) -> set[int]:
    """Labels m3 whose orbit A_{m3} meets A_{m1} + A_{m2} (or the B analogue).

    The support of K_w[a, b, :] (``_weight_class_counts``) for the chosen
    block of width w, a = w1 - 1 and b = w2 - 1, shifted to labels (+1): a
    sum of weight a + b - 2i for each overlap i the table counts.
    """
    if part == "A":
        width, bound = ctx.params.p - 2, ctx.params.p
    elif part == "B":
        width, bound = ctx.params.q - 2, ctx.params.q
    else:
        raise ValueError(f"part must be 'A' or 'B', got {part!r}")
    if not (0 < w1 < bound and 0 < w2 < bound):
        raise ValueError(f"labels ({w1}, {w2}) out of range for part {part} (bound {bound})")
    a, b = w1 - 1, w2 - 1
    return {a + b - 2 * i + 1 for i in range(max(0, a + b - width), min(a, b) + 1)}


@dataclass(frozen=True)
class Coset:
    """An element of G = H / {0, all-ones}: the numerically smaller member."""

    representative: BitVector

    def __post_init__(self) -> None:
        r = self.representative.width
        if r < 1:
            raise ValueError("cosets require width >= 1")
        if self.representative.bits >> (r - 1):
            raise ValueError(
                f"{self.representative.coordinates()} is not canonical "
                f"(coordinate {r} must be 0)"
            )

    @classmethod
    def of(cls, x: BitVector) -> "Coset":
        """The coset containing x."""
        complement = x ^ BitVector.all_ones(x.width)
        return cls(min(x, complement, key=lambda v: v.bits))

    @property
    def members(self) -> tuple[BitVector, BitVector]:
        rep = self.representative
        return rep, rep ^ BitVector.all_ones(rep.width)

    def __xor__(self, other: "Coset") -> "Coset":
        return Coset(self.representative ^ other.representative)

    def __str__(self) -> str:
        return self.representative.coordinates()


def quotient_cosets(ctx: GroupContext) -> list[Coset]:
    """The 2^(r-1) cosets of G in ascending representative order."""
    return [Coset(BitVector(g, ctx.r)) for g in range(ctx.order)]


def _label_to_sector_index(params: ModelParams) -> np.ndarray:
    """Table L[m, n] = sector index of the class of full label (m, n)."""
    p, q = params.p, params.q
    table = np.full((p, q), -1, dtype=np.int64)
    for m in range(1, p):
        for n in range(1, q):
            table[m, n] = canonicalize(params, m, n).index
    return table


def _canonical_labels(ctx: GroupContext) -> np.ndarray:
    """Sector index of every coset under Phi, checking that Phi is constant
    on cosets.  Refuses more than 2^22 cosets before allocating."""
    if ctx.order > MAX_CANONICAL_MAP:
        raise CapacityError(
            f"the canonical map of {ctx.params} has {ctx.order} cosets, above "
            f"{MAX_CANONICAL_MAP} (2^22); verifying the canonical cover and its "
            f"partition algebra needs no map"
        )
    table = _label_to_sector_index(ctx.params)
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
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "sectors", sectors(context.params))

    def __repr__(self) -> str:
        return f"canonical_cover({self.context!r})"

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

    A full label (m, n) is the class of vectors with A-weight m - 1 and
    B-weight n - 1, so the number of pairs (x, y) in H^2 on a full-label
    triple is K_{p-2}(m-weights) * K_{q-2}(n-weights) (see
    ``_weight_class_counts``).  Each sector has two full labels, (m, n) and
    (p - m, q - n), the classes of the two members of its cosets, and each
    pair of cosets lifts to 4 pairs in H; so C[i, j, k] is 1/4 of the sum
    over the 8 full-label choices of the triple.  No map is built and no
    pair visited: memory is O(N^3) for any |G|.  Returns an int64 (N, N, N)
    array summing to |G|^2 = 4^(r-1).

    Exactness: the 8 choices are distinct full-label triples, so their sum
    is at most 4^r, exact in int64 while r <= 31 (``MAX_CANONICAL_RANK``);
    larger models raise CapacityError before anything is allocated.  A sum
    not divisible by 4, or counts not adding up to 4^(r-1), raise
    CountCheckError.
    """
    check_canonical_rank(params)
    p, q = params.p, params.q
    secs = sectors(params)
    m = np.array([s.m for s in secs], dtype=np.int64)
    n = np.array([s.n for s in secs], dtype=np.int64)
    a_weights = (m - 1, p - 1 - m)
    b_weights = (n - 1, q - 1 - n)
    ka, kb = _weight_class_counts(p - 2), _weight_class_counts(q - 2)
    total = np.zeros((len(secs),) * 3, dtype=np.int64)
    for s in itertools.product((0, 1), repeat=3):
        total += ka[np.ix_(*(a_weights[t] for t in s))] * kb[np.ix_(*(b_weights[t] for t in s))]
    counts, rest = np.divmod(total, 4)
    pairs = 4 ** (p + q - 5)
    if rest.any() or int(counts.sum()) != pairs:
        raise CountCheckError(
            f"canonical counts failed their check: {np.count_nonzero(rest)} label sums "
            f"not divisible by 4, total {int(counts.sum())} for {pairs} pairs"
        )
    return counts


def phi(cm: CoverMap, g: Coset) -> Sector:
    """The sector assigned to a coset."""
    if g.representative.width != cm.context.r:
        raise ValueError(
            f"coset width {g.representative.width} does not match context rank {cm.context.r}"
        )
    return cm.sectors[cm.sector_indices[g.representative.bits]]


@dataclass(frozen=True, eq=False)
class PartitionAlgebra:
    """The algebra W of a partition of G: W[i,j,k] = 1 iff P_i + P_j meets P_k.

    ``multiplicities[i, j, k]`` is the number of pairs (g1, g2) with g1 in
    P_i, g2 in P_j and g1 + g2 in P_k (int64, summing to |G|^2): the map's
    read-only ``CoverMap.counts``.  The coefficients are its support.
    """

    sectors: tuple[Sector, ...]
    coefficients: np.ndarray
    multiplicities: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sectors)

    def product(self, x: Sequence[Fraction | int], y: Sequence[Fraction | int]) -> list[Fraction]:
        return algebra_product(self.coefficients, x, y)


def partition_algebra(
    cm: CoverMap,
    strict: bool = True,
    threads: int = 1,
) -> PartitionAlgebra:
    """Structure constants of the partition P_i = preimage of sector i under a map.

    The map may be over either group kind.  With ``strict`` (the default)
    the partition must satisfy P_1 = {0}: the identity element alone is
    assigned the vacuum sector.  Pass strict=False to build the algebra of a
    deliberately corrupted partition anyway, e.g. to compare its constants
    against the Verlinde algebra.  The constants
    are the support of ``cm.counts``, the same array ``verify_cover`` reads,
    so a map counted there is not counted again.  The strict check reads
    them too: P_1 = {0} iff C[0, 0, 0] = 1 (with 0 in P_1, (0, 0) and every
    (0, g), (g, 0), (g, g) count; without it the pairs counted come in
    swapped couples).  ``threads`` is ignored; it stays because
    ``perfbench/theorem_job.py`` passes it.
    """
    counts = cm.counts
    if strict and counts[0, 0, 0] != 1:
        size = int(counts[0].sum()) // cm.context.order  # sum_{j,k} C[0,j,k] = |P_1| |G|
        where = "one nonzero element" if size == 1 else f"{size} elements"
        raise PartitionError(f"partition requires P_1 = {{0}}: the vacuum preimage is {where}")
    coeff = (counts > 0).astype(np.uint8)
    coeff.setflags(write=False)
    return PartitionAlgebra(cm.sectors, coeff, counts)


def is_isomorphic_to_verlinde(w: PartitionAlgebra, v: VerlindeAlgebra) -> bool:
    """Whether the index-preserving bijection S_i <-> P_i is an algebra isomorphism.

    True iff the two structure-constant arrays are identical.
    """
    if w.n != v.n:
        raise ValueError(f"dimension mismatch: partition {w.n} vs Verlinde {v.n}")
    return np.array_equal(w.coefficients, v.structure_constants)
