"""Covers of minimal-model fusion rules, and their machine-checkable verdicts.

A cover candidate is a ``CoverMap``: a finite abelian group G and the sector
of each of its elements.  G is one of two kinds, the canonical quotient
Z_2^(r-1) (``two_group_cover.GroupContext``) or a product of cyclic factors
(``cover_search.AbelianGroupSpec``).  This module reads only ``factors``
and ``order`` of a group, so it loads neither module; the CLI also reads
the JSON ``kind``, ``describe()`` and the printer ``element_json(code)``.
An element is named by its code, a big-endian mixed-radix number over
``factors``, everywhere but in what people read and write.

``verify_cover`` is the one check of the two cover conditions, for a map of
either kind.  Its certificate is either a PASS, or a FAIL carrying a
concrete witness that can be re-checked independently of the verifier that
produced it: a pair of element codes whose sum lands outside the
admissible triples (closure violation), or an admissible sector triple no
pair of elements realizes (uncovered triple).  Witnesses are plain data;
the CLI words them (``cli._witness_text``) and prints them as JSON.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Union

from .errors import CountCheckError
from .minimal_model import FusionTensor, ModelParams, Sector, canonicalize, sectors

# numpy and the pair kernels are imported by the functions that use them, so
# a cover search, which builds maps but counts none, starts without them.
if TYPE_CHECKING:
    import numpy as np

    from .cover_search import AbelianGroupSpec
    from .two_group_cover import GroupContext

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True, eq=False)
class CoverMap:
    """A total labeling of a finite abelian group's elements by sectors.

    ``sector_indices[g]`` is the sector index of the element with code g, a
    big-endian mixed-radix number over ``context.factors``; on the canonical
    quotient it is the value of the coset representative.  Indices must be
    whole numbers (ints, or floats with no fractional part); the array is
    int64 and read-only.  The repr shows the group only, so printing a map
    builds no labels.
    """

    context: GroupContext | AbelianGroupSpec
    sector_indices: np.ndarray = field(repr=False)
    sectors: tuple[Sector, ...] = field(repr=False)

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.array(self.sector_indices)
        kind = arr.dtype.kind
        if not (kind in "biu" or (kind == "f" and not (arr % 1).any())):
            raise ValueError(f"sector indices must be whole numbers, got {arr.dtype} values")
        arr = arr.astype(np.int64, copy=False)
        arr.setflags(write=False)
        object.__setattr__(self, "sector_indices", arr)
        order = self.context.order
        if arr.shape != (order,):
            raise ValueError(f"assignment must cover all {order} elements, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= len(self.sectors)):
            raise ValueError("assignment contains out-of-range sector indices")

    @classmethod
    def from_kac_labels(
        cls,
        group: GroupContext | AbelianGroupSpec,
        params: ModelParams,
        labels: Sequence[tuple[int, int]],
    ) -> CoverMap:
        """Build from one Kac label (m, n) per element, in code order (the
        order of ``sector_indices``); labels are canonicalized.

        ``CoverMap`` refuses a wrong number of labels, so the group is never
        enumerated.  The identity element, code 0, must carry the vacuum
        sector (1,1): a cover could not do otherwise, and the group file
        format requires it too.
        """
        indices = [canonicalize(params, m, n).index for m, n in labels]
        cover = cls(group, indices, sectors(params))
        if indices[0] != 0:
            raise ValueError("the identity element must be labeled by the (1,1) sector")
        return cover

    def swapped_images(self, a: int, b: int) -> CoverMap:
        """A copy with the images of element codes a and b exchanged."""
        arr = self.sector_indices.copy()
        arr[[a, b]] = arr[[b, a]]
        return CoverMap(self.context, arr, self.sectors)

    def reassigned(self, code: int, sector_index: int) -> CoverMap:
        """A copy with element code ``code`` sent to ``sector_index``."""
        arr = self.sector_indices.copy()
        arr[code] = sector_index
        return CoverMap(self.context, arr, self.sectors)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """The pair counts by the transform over the group
        (``_kernels.pair_counts``), computed on first access and read-only;
        groups refused by ``_kernels.check_count_size`` raise CapacityError.
        Errors are not cached."""
        from . import _kernels

        counts = _kernels.pair_counts(self.sector_indices, len(self.sectors), self.context.factors)
        counts.setflags(write=False)
        return counts


@dataclass(frozen=True)
class ClosureViolation:
    """Elements g1 + g2 = g3 whose sector triple is not admissible.

    The elements are codes, Python ints, for every group kind, so
    ``cover.sector_indices[g1]`` re-reads the sector of g1 in the map refuted;
    the group's ``element_json(code)`` prints one.
    """

    g1: int
    g2: int
    g3: int
    sectors: tuple[Sector, Sector, Sector]


@dataclass(frozen=True)
class UncoveredTriple:
    """An admissible sector triple realized by no pair g1 + g2 = g3."""

    sectors: tuple[Sector, Sector, Sector]


Witness = Union[ClosureViolation, UncoveredTriple]


@dataclass(frozen=True)
class CoverCertificate:
    """PASS/FAIL verdict of a cover check, with witness on FAIL and scan stats."""

    verdict: str
    witness: Witness | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in (PASS, FAIL):
            raise ValueError(f"verdict must be PASS or FAIL, got {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise ValueError("a FAIL certificate requires a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def verify_cover(cover: CoverMap, tensor: FusionTensor, threads: int = 1) -> CoverCertificate:
    """Check both cover conditions for a labeled group against fusion rules.

    Condition (1): the sector triple of every sum g1 + g2 = g3 is admissible.
    Condition (2): every admissible sector triple is realized by some pair.
    Both are read off ``cover.counts``, counted once per map (in closed form
    for ``two_group_cover.canonical_cover``, by the transform otherwise).
    Only if the counts put a pair on an inadmissible triple are the labels
    read and ``_kernels.first_violation`` run: the FAIL witness is the first
    violation in canonical order (g1 ascending, then g2), named by its
    element codes.  A PASS reads no labels, so the canonical cover builds no
    map.  Coverage is read off the counts alone; its FAIL witness is the
    first admissible but unrealized triple.  ``threads`` is ignored; it
    stays because ``perfbench/theorem_job.py`` passes it.
    """
    from . import _kernels

    if cover.sectors != tensor.sectors:
        raise ValueError(f"the cover's sectors are not those of the tensor's model {tensor.model}")
    group = cover.context
    d_flat = tensor.coefficients.reshape(-1)
    realized = cover.counts.reshape(-1) != 0
    stats = _kernels.scan_stats(group.order, d_flat, realized)
    secs = tensor.sectors
    if (realized > d_flat).any():
        sec = cover.sector_indices
        codes = _kernels.first_violation(sec, tensor.n, d_flat, group.factors)
        if codes is None:
            raise CountCheckError("the counts show a closure violation the pair scan does not")
        witness = ClosureViolation(*codes, tuple(secs[sec[g]] for g in codes))
        return CoverCertificate(FAIL, witness, stats)
    miss = _kernels.first_uncovered_triple(d_flat, realized, tensor.n)
    if miss is not None:
        i, j, k = miss
        return CoverCertificate(FAIL, UncoveredTriple((secs[i], secs[j], secs[k])), stats)
    return CoverCertificate(PASS, None, stats)
