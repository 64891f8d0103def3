"""Covers of minimal-model fusion rules, and their machine-checkable verdicts.

A cover candidate is a ``CoverMap``: a finite abelian group G and the sector
of each of its elements.  G is an ``AbelianGroupSpec``, a product of cyclic
factors; the canonical quotient Z_2^(r-1) is its subclass
``two_group_cover.GroupContext``, which prints elements as coordinate
strings.  The checks read only ``factors`` and ``order`` of a group; the CLI
also reads the JSON ``kind``, ``describe()`` and the printer
``element_json(code)``.  An element is named by its code, a big-endian
mixed-radix number over ``factors``, everywhere but in what people read and
write.

``verify_cover`` is the one check of the two cover conditions, for a map over
any group.  Its certificate is either a PASS, or a FAIL carrying a
concrete witness that can be re-checked independently of the verifier that
produced it: a pair of element codes whose sum lands outside the
admissible triples (closure violation), or an admissible sector triple no
pair of elements realizes (uncovered triple).  Witnesses are plain data;
the CLI words them (``cli._witness_text``) and prints them as JSON.
"""

from __future__ import annotations

import functools
import operator
from math import prod
from typing import TYPE_CHECKING, Sequence, Union

from .errors import CountCheckError
from .minimal_model import (FusionTensor, IdentityRecord, ModelParams, Record, Sector,
                            canonicalize, sectors)

# numpy and the pair kernels are imported by the functions that use them, so
# a cover search, which builds maps but counts none, starts without them.
if TYPE_CHECKING:
    import numpy as np

PASS = "PASS"
FAIL = "FAIL"


class AbelianGroupSpec(Record):
    """A finite abelian group as a product of cyclic factors Z_k1 x ... x Z_kt.

    An element is named by its code, the big-endian mixed-radix number of
    its digits, first factor slowest; addition is componentwise modular
    (``addition_table`` on codes).  Digits are for people:
    ``element_json`` prints them.  An empty factor list is the trivial
    group.  Factors must be integers (numpy integers are stored as ints);
    anything else, a float or a string, raises TypeError.
    """

    kind = "abelian"
    _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]) -> None:
        factors = tuple(map(operator.index, factors))
        if any(k < 2 for k in factors):
            raise ValueError(f"all factors must be >= 2, got {factors}")
        vars(self).update(factors=factors)

    @staticmethod
    def cyclic(k: int) -> AbelianGroupSpec:
        """Z_k; the trivial group for k = 1."""
        k = operator.index(k)
        if k < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {k}")
        return AbelianGroupSpec(() if k == 1 else (k,))

    @property
    def order(self) -> int:
        return prod(self.factors)

    def addition_table(self) -> list[list[int]]:
        """Entry [a][b] is the index of a + b, in plain Python ints.

        Built one factor at a time, least significant first: prepending a
        factor Z_k to a group of order m sends (x, r) + (y, s) to
        ((x + y) mod k) * m + (r + s).
        """
        table = [[0]]
        for k in reversed(self.factors):
            m = len(table)
            table = [
                [((x + y) % k) * m + rs for y in range(k) for rs in row]
                for x in range(k) for row in table
            ]
        return table

    def describe(self) -> str:
        if not self.factors:
            return "trivial group"
        return " x ".join(f"Z{k}" for k in self.factors)

    def element_json(self, code: int) -> list[int]:
        """An element as printed: the digits of its code."""
        digits = []
        for k in reversed(self.factors):
            code, digit = divmod(code, k)
            digits.append(digit)
        return digits[::-1]


class CoverMap(IdentityRecord):
    """A total labeling of a finite abelian group's elements by sectors.

    ``sector_indices[g]`` is the sector index of the element with code g, a
    big-endian mixed-radix number over ``context.factors``; on the canonical
    quotient it is the value of the coset representative.  Indices must be
    whole numbers (ints, or floats with no fractional part); the array is
    int64 and read-only.  The one fact derived from the labels and cached is
    ``support``, the sector triples the map realizes.  The repr shows the
    group only, so printing a map builds no labels.  Maps compare by
    identity.
    """

    _fields = ("context",)

    def __init__(self, context: AbelianGroupSpec,
                 sector_indices: np.ndarray, sectors: tuple[Sector, ...]) -> None:
        import numpy as np

        arr = np.array(sector_indices)
        kind = arr.dtype.kind
        if not (kind in "biu" or (kind == "f" and not (arr % 1).any())):
            raise ValueError(f"sector indices must be whole numbers, got {arr.dtype} values")
        arr = arr.astype(np.int64, copy=False)
        arr.setflags(write=False)
        order = context.order
        if arr.shape != (order,):
            raise ValueError(f"assignment must cover all {order} elements, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= len(sectors)):
            raise ValueError("assignment contains out-of-range sector indices")
        vars(self).update(context=context, sector_indices=arr, sectors=sectors)

    @classmethod
    def from_kac_labels(
        cls,
        group: AbelianGroupSpec,
        params: ModelParams,
        labels: Sequence[tuple[int, int]],
    ) -> CoverMap:
        """Build from one Kac label (m, n) per element, in code order (the
        order of ``sector_indices``); labels are canonicalized.

        ``CoverMap`` refuses a wrong number of labels, so the group is never
        enumerated.  Each distinct label is canonicalized once, in order of
        first use, so the first bad label in code order is the one refused.
        The identity element, code 0, must carry the vacuum sector (1,1): a
        cover could not do otherwise, and the group file format requires it
        too.
        """
        pairs = [(m, n) for m, n in labels]
        index = {pair: canonicalize(params, *pair).index for pair in dict.fromkeys(pairs)}
        indices = [index[pair] for pair in pairs]
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
    def support(self) -> FusionTensor:
        """The sector triples the map realizes, where some pair g1 + g2 = g3
        lands: a tensor of where the pair counts by the transform over the
        group (``_kernels.pair_counts``) are nonzero, computed on first
        access and read-only.  Only the bool support is cached; the int64
        counts are dropped once it is read off them.  Groups refused by
        ``_kernels.check_count_size`` raise CapacityError, counts failing
        their checks CountCheckError; errors are not cached."""
        from ._kernels import pair_counts

        realized = pair_counts(self.sector_indices, len(self.sectors), self.context.factors) != 0
        realized.setflags(write=False)
        return FusionTensor(self.sectors, realized)

    @property
    def vacuum_preimage(self) -> np.ndarray:
        """The codes of the elements labeled by the vacuum sector, ascending."""
        return (self.sector_indices == 0).nonzero()[0]


class ClosureViolation(Record):
    """Elements g1 + g2 = g3 whose sector triple is not admissible.

    The elements are codes, Python ints, for every group, so
    ``cover.sector_indices[g1]`` re-reads the sector of g1 in the map refuted;
    the group's ``element_json(code)`` prints one.
    """

    _fields = ("g1", "g2", "g3", "sectors")

    def __init__(self, g1: int, g2: int, g3: int, sectors: tuple[Sector, Sector, Sector]) -> None:
        vars(self).update(g1=g1, g2=g2, g3=g3, sectors=sectors)


class UncoveredTriple(Record):
    """An admissible sector triple realized by no pair g1 + g2 = g3."""

    _fields = ("sectors",)

    def __init__(self, sectors: tuple[Sector, Sector, Sector]) -> None:
        vars(self).update(sectors=sectors)


Witness = Union[ClosureViolation, UncoveredTriple]


class CoverCertificate(Record):
    """PASS/FAIL verdict of a cover check, with witness on FAIL and scan stats.

    ``stats`` defaults to a new empty dict; holding a dict, a certificate is
    not hashable.
    """

    _fields = ("verdict", "witness", "stats")

    def __init__(self, verdict: str, witness: Witness | None = None,
                 stats: dict | None = None) -> None:
        if verdict not in (PASS, FAIL):
            raise ValueError(f"verdict must be PASS or FAIL, got {verdict!r}")
        if verdict == FAIL and witness is None:
            raise ValueError("a FAIL certificate requires a witness")
        vars(self).update(verdict=verdict, witness=witness, stats={} if stats is None else stats)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def scan_stats(order: int, admissible: int, realized: int) -> dict:
    """The counts a certificate reports, all Python ints.

    ``pairs_checked`` is |G|^2, the number of pairs the support accounts
    for: the transform's counts add up to it (``_kernels.check_counts``
    checks their row sums), and the canonical cover's proof covers every
    pair.  ``admissible`` and ``realized`` are the sizes of the tensor and
    of the map's support.
    """
    return {
        "group_order": order,
        "pairs_checked": order * order,
        "admissible_triples": admissible,
        "realized_triples": realized,
    }


def verify_cover(cover: CoverMap, tensor: FusionTensor, threads: int = 1) -> CoverCertificate:
    """Check both cover conditions for a labeled group against fusion rules.

    Condition (1): the sector triple of every sum g1 + g2 = g3 is admissible.
    Condition (2): every admissible sector triple is realized by some pair.
    Both are read off ``cover.support``, the tensor of triples the map
    realizes: for ``two_group_cover.canonical_cover`` it is proved by the
    SU(2) level check (a failed proof raises CountCheckError) and is the
    model's ``fusion_tensor`` itself; for any other map it is where the
    transform's counts are nonzero, and the map caches it, not the counts.
    A support that is ``tensor`` itself passes with no array compared, so a
    canonical PASS loads no numpy and builds no N^3 array; its stats are
    the tensor's closed-form size.  Any other support, a hand-built
    tensor's too, is compared cell by cell.  Only if it holds an
    inadmissible triple are the labels read and ``_kernels.first_violation``
    run: the FAIL witness is the first violation in canonical order (g1
    ascending, then g2), named by its element codes.  Coverage is read off
    the support alone; its FAIL witness is the first admissible but
    unrealized triple.  ``threads`` is ignored; it stays because
    ``perfbench/theorem_job.py`` passes it.
    """
    if cover.sectors != tensor.sectors:
        raise ValueError("the cover's sectors are not those of the tensor")
    group = cover.context
    realized = cover.support
    stats = scan_stats(group.order, tensor.size, realized.size)
    if realized is not tensor:
        from . import _kernels

        d_flat = tensor.coefficients.reshape(-1)
        r_flat = realized.coefficients.reshape(-1)
        secs = tensor.sectors
        if (r_flat > d_flat).any():
            sec = cover.sector_indices
            codes = _kernels.first_violation(sec, tensor.n, d_flat, group.factors)
            if codes is None:
                raise CountCheckError("the support shows a closure violation the pair scan does not")
            witness = ClosureViolation(*codes, tuple(secs[sec[g]] for g in codes))
            return CoverCertificate(FAIL, witness, stats)
        miss = _kernels.first_uncovered_triple(d_flat, r_flat, tensor.n)
        if miss is not None:
            return CoverCertificate(FAIL, UncoveredTriple(tuple(secs[x] for x in miss)), stats)
    return CoverCertificate(PASS, None, stats)
