"""Covers of minimal-model fusion rules by arbitrary finite abelian groups.

A labeling of a finite abelian group G by sectors covers the fusion rules
when (1) the sector triple of every sum g1 + g2 = g3 is admissible and (2)
every admissible sector triple is realized by some sum.  The canonical
2-group construction is one instance; the Ising rules are also covered by
Z_4 (with two elements playing the weight-1/16 sector) and the c = 7/10
rules by Z_12.  This module verifies such labelings for any invariant-factor
decomposition, and exhaustively searches cyclic groups of bounded order for
covers.

The search assigns sectors to the elements 1..k-1 of Z_k in order (0 always
carries the vacuum), pruning any partial labeling whose already-decidable
sums violate closure.  Which pair sums become decidable when element e is
labeled is read once per order from the group's addition table (the check
lists); the admissible sectors for e are then the AND of integer bitmasks
precomputed from the fusion tensor, one per check, so a dead branch is cut
before any sector is tried (forward filtering).  Complete labelings are
checked for coverage with one vectorized pass over all k^2 sums.  The
multiplicity profile of the fusion table (how often a sector repeats within
a row) gives an a-priori lower bound on the order of any covering group,
which prunes whole orders.  Found covers are reported up to the negation
automorphism x -> -x of Z_k, in deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from . import _kernels
from .certificates import CoverCertificate, certify
from .errors import DEFAULT_SEARCH_BUDGET, CapacityError
from .minimal_model import FusionTensor, ModelParams, Sector, canonicalize, sectors

Element = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroupSpec:
    """A finite abelian group as a product of cyclic factors Z_k1 x ... x Z_kt.

    Elements are digit tuples; addition is componentwise modular.  An empty
    factor list is the trivial group.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(int(k) for k in self.factors))
        if any(k < 2 for k in self.factors):
            raise ValueError(f"all factors must be >= 2, got {self.factors}")

    @classmethod
    def cyclic(cls, k: int) -> "AbelianGroupSpec":
        """Z_k; the trivial group for k = 1."""
        if k < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {k}")
        return cls(()) if k == 1 else cls((k,))

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def elements(self) -> list[Element]:
        """All elements in the canonical (big-endian mixed radix) order."""
        return list(itertools.product(*(range(k) for k in self.factors)))

    def index_of(self, e: Element) -> int:
        places = _kernels.place_values(self.factors).tolist()
        return sum(digit * place for digit, place in zip(e, places))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % k for x, y, k in zip(a, b, self.factors))

    def negate(self, a: Element) -> Element:
        return tuple((-x) % k for x, k in zip(a, self.factors))

    def digit_matrix(self) -> np.ndarray:
        """(order, t) array whose row g is the digit tuple of element g."""
        return _kernels.decode(np.arange(self.order), self.factors)

    def addition_table(self) -> np.ndarray:
        """(order, order) array whose entry [a, b] is the index of a + b."""
        digits = self.digit_matrix()
        sums = (digits[:, None, :] + digits[None, :, :]) % np.array(self.factors, dtype=np.int64)
        return sums @ _kernels.place_values(self.factors)

    def describe(self) -> str:
        if not self.factors:
            return "trivial group"
        return " x ".join(f"Z{k}" for k in self.factors)


@dataclass(frozen=True, eq=False)
class LabeledGroup:
    """A total labeling of a group's elements by the sectors of one model.

    The identity element must carry the vacuum sector (1,1); a cover could
    not do otherwise, and the structured file format requires it too.
    """

    spec: AbelianGroupSpec
    params: ModelParams
    sector_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sector_indices", tuple(int(i) for i in self.sector_indices))
        n = self.params.n_sectors
        if len(self.sector_indices) != self.spec.order:
            raise ValueError(
                f"labeling must cover all {self.spec.order} elements, "
                f"got {len(self.sector_indices)}"
            )
        if any(not 0 <= i < n for i in self.sector_indices):
            raise ValueError("labeling contains out-of-range sector indices")
        if self.sector_indices[0] != 0:
            raise ValueError("the identity element must be labeled by the (1,1) sector")

    @classmethod
    def from_kac_labels(
        cls,
        spec: AbelianGroupSpec,
        params: ModelParams,
        labels: dict[Element, tuple[int, int]],
    ) -> "LabeledGroup":
        """Build from a map element -> (m, n); labels are canonicalized."""
        # Stops at the first gap, so a labeling of a few elements of a huge
        # group is refused without enumerating the group.
        indices = []
        for e in itertools.product(*(range(k) for k in spec.factors)):
            if e not in labels:
                raise ValueError(f"labeling is partial: element {e} has no sector")
            indices.append(canonicalize(params, *labels[e]).index)
        if len(labels) > len(indices):
            members = set(spec.elements())
            extra = next(e for e in labels if e not in members)
            raise ValueError(f"labeling mentions non-elements: {extra}")
        return cls(spec, params, indices)

    @property
    def labels(self) -> tuple[Sector, ...]:
        secs = sectors(self.params)
        return tuple(secs[i] for i in self.sector_indices)

    def sector_of(self, e: Element) -> Sector:
        return sectors(self.params)[self.sector_indices[self.spec.index_of(e)]]


def verify_abelian_cover(lg: LabeledGroup, tensor: FusionTensor) -> CoverCertificate:
    """Check cover conditions (1) and (2) for a labeled abelian group.

    Reads both off the counts of all |G|^2 ordered pairs under the group's
    addition.  FAIL certificates carry the first violation in canonical
    element order (see ``certify``), or the first admissible-but-unrealized
    sector triple.  Groups above ``_kernels.MAX_COUNT_ORDER`` raise
    CapacityError.
    """
    if lg.params != tensor.model:
        raise ValueError(f"labeling is for {lg.params}, tensor for {tensor.model}")
    factors, sec = lg.spec.factors, lg.sector_indices
    counts = _kernels.pair_counts(sec, tensor.n, factors)
    element = lambda g: tuple(_kernels.decode(g, factors).tolist())
    return certify(counts, tensor, factors, lambda: sec, element)


def multiplicity_profile(tensor: FusionTensor) -> dict[Sector, int]:
    """Per sector, the maximum number of times it appears within one table row.

    Row i of the fusion table lists the products S_i x S_j for all j; the
    profile of sector k is max_i |{j : D[i,j,k] = 1}|.  Any covering group
    needs at least that many elements carrying sector k, so the profile sum
    lower-bounds the order of a covering group.
    """
    counts = tensor.coefficients.sum(axis=1, dtype=np.int64)
    return {s: int(counts[:, s.index].max()) for s in tensor.sectors}


def _check_lists(table: list[list[int]]) -> list[tuple[list[tuple[str, int, int]], int]]:
    """Per element e, the pair sums that become decidable when e is labeled.

    ``table[x][y]`` is the index of x + y in a group whose elements the
    search labels in index order, 0 (the identity) first.  A pair becomes
    decidable when the largest of its summands and its sum is labeled.
    Entry e lists the pairs in which e occurs once, as (kind, u, v): kind
    "second" for x + e = z with x, z < e (u, v = x, z) and kind "third" for
    x + y = e with x <= y < e (u, v = x, y).  It also gives z for the pair
    e + e = z when z < e, else -1; the pair 0 + e = e is decided by every e.
    """
    k = len(table)
    pairs: list[list[tuple[str, int, int]]] = [[] for _ in range(k)]
    twice = [-1] * k
    for y in range(1, k):
        for x in range(1, y + 1):
            z = table[x][y]
            if z > y:
                pairs[z].append(("third", x, y))
            elif x == y:
                twice[y] = z
            else:
                pairs[y].append(("second", x, z))
    return list(zip(pairs, twice))


def _masks(d: np.ndarray) -> tuple[list[int], list[int], list[int], int]:
    """Sector sets read off a boolean fusion tensor, as integer bitmasks.

    Bit s of a mask stands for sector s.  Returns third[a*n+b] =
    {c : D[a,b,c]}, second[a*n+c] = {b : D[a,b,c]}, square[c] =
    {a : D[a,a,c]} and unit = {b : D[0,b,b]}.
    """
    n = d.shape[0]

    def pack(cells: np.ndarray) -> list[int]:
        rows = np.packbits(cells, axis=-1, bitorder="little").reshape(-1, (n + 7) // 8)
        return [int.from_bytes(row.tobytes(), "little") for row in rows]

    diag = np.arange(n)
    third = pack(d.reshape(n * n, n))
    second = pack(d.transpose(0, 2, 1).reshape(n * n, n))
    square = pack(d[diag, diag, :].T)
    (unit,) = pack(d[0, diag, diag])
    return third, second, square, unit


def _search_order(tensor: FusionTensor, k: int) -> list[tuple[int, ...]]:
    """All complete Z_k labelings passing both cover conditions (with duplicates
    under negation), in depth-first order: element 1 slowest, sectors ascending."""
    n = tensor.n
    d = tensor.coefficients.astype(bool)
    d_flat = d.reshape(-1)
    third, second, square, unit = _masks(d)
    table = AbelianGroupSpec.cyclic(k).addition_table()
    tables = {"second": second, "third": third}
    checks = [
        ([(tables[kind], u, v) for kind, u, v in pairs], twice)
        for pairs, twice in _check_lists(table.tolist())
    ]
    x, y = np.divmod(np.arange(k * k), k)
    z = table.reshape(-1)
    assign = [0] * k
    found: list[tuple[int, ...]] = []

    def realizes_all() -> bool:
        s = np.array(assign)
        realized = np.zeros(n ** 3, dtype=bool)
        realized[(s[x] * n + s[y]) * n + s[z]] = True
        return not np.any(d_flat & ~realized)

    def place(e: int) -> None:
        if e == k:
            if realizes_all():
                found.append(tuple(assign))
            return
        pairs, twice = checks[e]
        cand = unit if twice < 0 else unit & square[assign[twice]]
        for masks, u, v in pairs:
            cand &= masks[assign[u] * n + assign[v]]
            if not cand:
                return
        while cand:
            low = cand & -cand
            assign[e] = low.bit_length() - 1
            place(e + 1)
            cand ^= low

    place(1)
    return found


def search_cyclic_covers(
    tensor: FusionTensor,
    max_order: int,
    order_budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[LabeledGroup]:
    """All cyclic covers Z_k, k <= max_order, up to the negation automorphism.

    Results are deterministic: ascending order k, then lexicographic in the
    label tuple.  Orders below the multiplicity-profile sum cannot cover and
    are skipped outright.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if max_order > order_budget:
        raise CapacityError(
            f"max_order {max_order} exceeds the search budget {order_budget}"
        )
    min_order = sum(multiplicity_profile(tensor).values())
    covers: list[LabeledGroup] = []
    for k in range(1, max_order + 1):
        if k < min_order:
            continue
        # _search_order yields labelings in lexicographic order, so keeping
        # each one that is no greater than its negation lists every orbit's
        # least member once, already sorted.
        covers.extend(
            LabeledGroup(AbelianGroupSpec.cyclic(k), tensor.model, assign)
            for assign in _search_order(tensor, k)
            if assign <= tuple(assign[-x] for x in range(k))
        )
    return covers
