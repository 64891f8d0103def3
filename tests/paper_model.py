"""The paper's 2-group construction, vector by vector: the tests' oracle.

For the (p,q)-minimal model let r = p + q - 4 and H = Z_2^r, with
coordinates 1..p-2 forming the subgroup A and p-1..r forming B.  A vector
x lies in the class H_{m,n} = A_m + B_n when its A-weight is m - 1 and its
B-weight is n - 1; adding the all-ones vector swaps (m, n) with
(p-m, q-n), so the label map descends to the cosets G = H / {0, all-ones}
as the map Phi onto sectors.

The library computes the same objects without building a vector: labels
read off the popcounts of each coset code's A- and B-bits in plain Python
(``two_group_cover._canonical_labels``), and the support of the pair
counts proved by the SU(2) level check (``two_group_cover.check_su2_levels``)
to be the model's fusion tensor, equal to any other handle of it.  This
module spells out the definitions one vector at a time, so the tests can
check those paths against them.  It also keeps the closed-form pair counts
of the canonical cover (``canonical_counts``, from the weight-class table
``weight_class_counts``), exact in int64 for p + q <= 35: the tests' count
oracle for the level check.  It is not a test file itself; tests import it
as ``from paper_model import ...``, as they import ``conftest``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Literal, NamedTuple

import numpy as np

from fusioncover import CoverMap, GroupContext, ModelParams, Sector, sectors
from fusioncover.errors import CountCheckError

# Largest rank r = p + q - 4 whose closed-form counts are exact in int64:
# every count of pairs in H is at most |H|^2 = 4^r, and 4^31 = 2^62.
MAX_ORACLE_RANK = 31


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

    A checkable pair: the support of a sum is the symmetric difference of
    the supports, whose size is the right-hand side.
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


def a_coords(ctx: GroupContext) -> range:
    """Coordinates of the subgroup A: 1..p-2."""
    return range(1, ctx.params.p - 1)


def b_coords(ctx: GroupContext) -> range:
    """Coordinates of the subgroup B: p-1..p+q-4."""
    return range(ctx.params.p - 1, ctx.r + 1)


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
    for a_supp in itertools.combinations(a_coords(ctx), m - 1):
        a_bits = sum(1 << (i - 1) for i in a_supp)
        for b_supp in itertools.combinations(b_coords(ctx), n - 1):
            bits = a_bits + sum(1 << (i - 1) for i in b_supp)
            members.add(BitVector(bits, ctx.r))
    return members


def orbit_sum_classes(
    ctx: GroupContext, part: Literal["A", "B"], w1: int, w2: int
) -> set[int]:
    """Labels m3 whose orbit A_{m3} meets A_{m1} + A_{m2} (or the B analogue).

    For the chosen block of width w, a = w1 - 1 and b = w2 - 1, a sum of
    weight a + b - 2i for each overlap i that fits in the block, shifted to
    labels (+1): the support of ``weight_class_counts`` row (a, b), and the
    bits of the mask ``two_group_cover.check_su2_levels`` builds for (a, b).
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


def phi(cm: CoverMap, g: Coset) -> Sector:
    """The sector a cover map assigns to a coset."""
    if g.representative.width != cm.context.r:
        raise ValueError(
            f"coset width {g.representative.width} does not match context rank {cm.context.r}"
        )
    return cm.sectors[cm.sector_indices[g.representative.bits]]


@functools.lru_cache(maxsize=None)
def weight_class_counts(w: int) -> np.ndarray:
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


def check_row_sums(counts: np.ndarray, sizes: np.ndarray) -> None:
    """Raise unless int64 counts C[i, j, k] are plainly pair counts.

    g1 in P_i and g1 + g2 in P_k fix g2, so sum_j C[i, j, k] = |P_i| |P_k|
    with ``sizes[i]`` = |P_i|; no count may be negative.  Together these
    give the total |G|^2, and catch a pair moved between rows.
    """
    off = np.count_nonzero(counts.sum(axis=1) != np.multiply.outer(sizes, sizes))
    least = int(counts.min())
    if off or least < 0:
        raise CountCheckError(
            f"pair counts failed their check: {off} row sums off |P_i| |P_k|, "
            f"smallest count {least}"
        )


def canonical_counts(params: ModelParams) -> np.ndarray:
    """Pair counts C[i, j, k] of the canonical cover, in closed form.

    K(l, u, v), the number of pairs (x, y) in H^2 with x, y and x + y in
    full-label classes l, u and v, is K_{p-2} of their A-weights times
    K_{q-2} of their B-weights (``weight_class_counts``).  With l = (m, n)
    a sector's canonical label (weights m - 1, n - 1) and l' = (p - m,
    q - n) its complement, C[i, j, k] = K(l_i, l_j, l_k) + K(l_i, l_j, l_k').
    Proof: a pair of cosets lifts to 4 pairs in H, so C is a quarter of the
    sum over the 8 full-label choices of the triple.  Adding the all-ones
    vector to x, or to y, is a bijection of H^2 that swaps that summand's
    class and the sum's class between l and l', so the 8 terms are 4
    copies of these 2.  Returns an int64 (N, N, N) array summing to
    |G|^2 = 4^(r-1).

    Exactness: each product counts pairs in fixed classes, so it is at most
    C[i, j, k] <= 4^(r-1), exact in int64 while r <= 31 (p + q <= 35);
    larger models raise ValueError before anything is built.  Check:
    ``check_row_sums``, the sign and row-sum checks ``_kernels.pair_support``
    makes row by row on the transform's counts,
    raises CountCheckError unless every row sum is
    sum_j C[i, j, k] = |P_i| |P_k|, where |P_i| = C(p-2, m_i-1) C(q-2, n_i-1),
    and no count is negative.
    """
    p, q = params.p, params.q
    if p + q - 4 > MAX_ORACLE_RANK:
        raise ValueError(f"the closed-form counts of {params} are not exact in int64")
    secs = sectors(params)
    a, b = np.array([(s.m - 1, s.n - 1) for s in secs], dtype=np.int64).T
    ka, kb = weight_class_counts(p - 2), weight_class_counts(q - 2)
    counts = ka[np.ix_(a, a, a)] * kb[np.ix_(b, b, b)]
    other = ka[np.ix_(a, a, p - 2 - a)]
    counts += np.multiply(other, kb[np.ix_(b, b, q - 2 - b)], out=other)
    sizes = np.array([comb(p - 2, s.m - 1) * comb(q - 2, s.n - 1) for s in secs], dtype=np.int64)
    check_row_sums(counts, sizes)
    return counts
