"""Covers of minimal-model fusion rules, and their machine-checkable verdicts.

A cover candidate is a ``CoverMap``: a finite abelian group G and the sector
of each of its elements.  G is one of two kinds, the canonical quotient
Z_2^(r-1) (``two_group_cover.GroupContext``) or a product of cyclic factors
(``cover_search.AbelianGroupSpec``).  Both give ``factors``, ``order``, the
JSON ``kind``, ``describe()``, ``element(code)`` and the printer
``element_json(e)``; this module reads nothing else of them, so it loads
neither module.

``verify_cover`` is the one check of the two cover conditions, for a map of
either kind.  Its certificate is either a PASS, or a FAIL carrying a
concrete witness that can be re-checked independently of the verifier that
produced it: a pair of group elements whose sum lands outside the
admissible triples (closure violation), or an admissible sector triple no
pair of elements realizes (uncovered triple).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from . import _kernels
from .errors import CountCheckError
from .minimal_model import FusionTensor, ModelParams, Sector, canonicalize, sectors

if TYPE_CHECKING:
    from .cover_search import AbelianGroupSpec
    from .two_group_cover import GroupContext

PASS = "PASS"
FAIL = "FAIL"

# Group elements in witnesses are ints (cosets of a 2-group quotient) or
# digit tuples (general abelian groups).
Element = Union[int, tuple]


@dataclass(frozen=True, eq=False)
class CoverMap:
    """A total labeling of a finite abelian group's elements by sectors.

    ``sector_indices[g]`` is the sector index of the element with code g, a
    big-endian mixed-radix number over ``context.factors``; on the canonical
    quotient it is the value of the coset representative.  The array is
    int64 and read-only.
    """

    context: GroupContext | AbelianGroupSpec
    sector_indices: np.ndarray
    sectors: tuple[Sector, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.sector_indices, dtype=np.int64)
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
        labels: dict[tuple[int, ...], tuple[int, int]],
    ) -> CoverMap:
        """Build from a map element digits -> (m, n); labels are canonicalized.

        The identity element must carry the vacuum sector (1,1): a cover could
        not do otherwise, and the group file format requires it too.
        """
        # Stops at the first gap, so a labeling of a few elements of a huge
        # group is refused without enumerating the group.
        elements = lambda: itertools.product(*(range(k) for k in group.factors))
        indices = []
        for e in elements():
            if e not in labels:
                raise ValueError(f"labeling is partial: element {e} has no sector")
            indices.append(canonicalize(params, *labels[e]).index)
        if len(labels) > len(indices):
            members = set(elements())
            extra = next(e for e in labels if e not in members)
            raise ValueError(f"labeling mentions non-elements: {extra}")
        if indices[0] != 0:
            raise ValueError("the identity element must be labeled by the (1,1) sector")
        return cls(group, indices, sectors(params))

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
        groups above ``_kernels.MAX_COUNT_ORDER`` raise CapacityError.
        Errors are not cached."""
        counts = _kernels.pair_counts(self.sector_indices, len(self.sectors), self.context.factors)
        counts.setflags(write=False)
        return counts


@dataclass(frozen=True)
class ClosureViolation:
    """Elements g1 + g2 = g3 whose sector triple is not admissible."""

    g1: Element
    g2: Element
    g3: Element
    sectors: tuple[Sector, Sector, Sector]

    def describe(self, element_str: Callable[[Element], str] = str) -> str:
        i, j, k = self.sectors
        g1, g2, g3 = (element_str(g) for g in (self.g1, self.g2, self.g3))
        return (
            f"{g1} + {g2} = {g3} maps to {i.name} x {j.name} -> {k.name}, "
            f"but {k.name} does not occur in {i.name} x {j.name}"
        )


@dataclass(frozen=True)
class UncoveredTriple:
    """An admissible sector triple realized by no pair g1 + g2 = g3."""

    sectors: tuple[Sector, Sector, Sector]

    def describe(self, element_str: Callable[[Element], str] = str) -> str:
        """The witness names no elements, so ``element_str`` is not used."""
        i, j, k = self.sectors
        return (
            f"admissible triple {i.name} x {j.name} -> {k.name} is realized by "
            f"no pair of group elements"
        )


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
    violation in canonical order (g1 ascending, then g2), its codes turned
    into elements by the group.  A PASS reads no labels, so the canonical
    cover builds no map.  Coverage is read off the counts alone; its FAIL
    witness is the first admissible but unrealized triple.  ``threads`` is
    ignored; it stays because ``perfbench/theorem_job.py`` passes it.
    """
    if cover.sectors != tensor.sectors:
        raise ValueError(f"the cover's sectors are not those of the tensor's model {tensor.model}")
    group = cover.context
    d_flat = tensor.coefficients.reshape(-1)
    realized = cover.counts.reshape(-1)
    stats = _kernels.scan_stats(group.order, d_flat, realized)
    secs = tensor.sectors
    if realized[d_flat == 0].any():
        sec = cover.sector_indices
        codes = _kernels.first_violation(sec, tensor.n, d_flat, group.factors)
        if codes is None:
            raise CountCheckError("the counts show a closure violation the pair scan does not")
        triple = tuple(secs[sec[g]] for g in codes)
        witness = ClosureViolation(*(group.element(g) for g in codes), triple)
        return CoverCertificate(FAIL, witness, stats)
    miss = _kernels.first_uncovered_triple(d_flat, realized, tensor.n)
    if miss is not None:
        i, j, k = miss
        return CoverCertificate(FAIL, UncoveredTriple((secs[i], secs[j], secs[k])), stats)
    return CoverCertificate(PASS, None, stats)
