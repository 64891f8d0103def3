"""Covers of minimal-model fusion rules by arbitrary finite abelian groups.

A labeling of a finite abelian group G by sectors covers the fusion rules
when (1) the sector triple of every sum g1 + g2 = g3 is admissible and (2)
every admissible sector triple is realized by some sum.  The canonical
2-group construction is one instance; the Ising rules are also covered by
Z_4 (with two elements playing the weight-1/16 sector) and the c = 7/10
rules by Z_12.  This module holds the group kind of such labelings,
``AbelianGroupSpec`` (any invariant-factor decomposition), and exhaustively
searches cyclic groups of bounded order for covers.  Each cover found is a
``certificates.CoverMap`` over its group, checked like any other by
``certificates.verify_cover``.

The search assigns sectors to the elements 1..k-1 of Z_k in order (0 always
carries the vacuum), pruning any partial labeling whose already-decidable
sums violate closure.  Which pair sums become decidable when element e is
labeled is read once per order from the group's addition table (the check
lists); the admissible sectors for e are then the AND of integer bitmasks
built from the fusion rules' product lists (``fusion_products``), one per
check, so a dead branch is cut before any sector is tried (forward
filtering).  A complete labeling covers when the set of sector triples its
k^2 sums realize contains every admissible triple.  The multiplicity
profile of the fusion table (how often a sector repeats within a row)
gives an a-priori lower bound on the order of any covering group, which
prunes whole orders.  Found covers are reported up to the negation
automorphism x -> -x of Z_k, in deterministic order.  The search runs on
Python ints alone; a found cover builds its label array on first use.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

from .certificates import CoverMap, verify_cover
from .minimal_model import ModelParams, Sector, check_fusion_cells, fusion_products, sectors

if TYPE_CHECKING:
    import numpy as np

# products[i][j]: the sectors k with D[i,j,k] = 1, ascending (``fusion_products``).
Products = list[list[tuple[int, ...]]]


@dataclass(frozen=True)
class AbelianGroupSpec:
    """A finite abelian group as a product of cyclic factors Z_k1 x ... x Z_kt.

    An element is named by its code, the big-endian mixed-radix number of
    its digits, first factor slowest; addition is componentwise modular
    (``addition_table`` on codes).  Digits are for people: ``elements()``
    lists them and ``element_json`` prints them.  An empty factor list is
    the trivial group.
    """

    factors: tuple[int, ...]
    kind = "abelian"

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

    def elements(self) -> list[tuple[int, ...]]:
        """The digits of every element, in code order."""
        return list(itertools.product(*(range(k) for k in self.factors)))

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


# ``perfbench/tracing.py`` wraps these two names; they go once it wraps
# ``CoverMap`` and ``verify_cover`` under their own names.
LabeledGroup = CoverMap
verify_abelian_cover = verify_cover


class _FoundCover(CoverMap):
    """A cover the search found: its labels are the search's tuple ``labels``,
    and ``sector_indices`` is built from them on first access."""

    def __init__(self, context: AbelianGroupSpec, labels: tuple[int, ...],
                 secs: tuple[Sector, ...]) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sectors", secs)

    @functools.cached_property
    def sector_indices(self) -> np.ndarray:
        import numpy as np

        arr = np.array(self.labels, dtype=np.int64)
        arr.setflags(write=False)
        return arr


def _profile(products: Products) -> list[int]:
    """Per sector index k, max_i |{j : D[i,j,k] = 1}|."""
    profile = [0] * len(products)
    for row in products:
        for k, count in Counter(itertools.chain.from_iterable(row)).items():
            profile[k] = max(profile[k], count)
    return profile


def multiplicity_profile(params: ModelParams) -> dict[Sector, int]:
    """Per sector, the maximum number of times it appears within one table row.

    Row i of the fusion table lists the products S_i x S_j for all j; the
    profile of sector k is max_i |{j : D[i,j,k] = 1}|.  Any covering group
    needs at least that many elements carrying sector k, so the profile sum
    lower-bounds the order of a covering group.
    """
    return dict(zip(sectors(params), _profile(fusion_products(params))))


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


def _masks(products: Products) -> tuple[list[int], list[int], list[int], int]:
    """Sector sets read off the fusion rules' product lists, as integer bitmasks.

    Bit s of a mask stands for sector s.  Returns third[a*n+b] =
    {c : D[a,b,c]}, second[a*n+c] = {b : D[a,b,c]}, square[c] =
    {a : D[a,a,c]} and unit = {b : D[0,b,b]}.  The lists need not be
    symmetric in (a, b).
    """
    n = len(products)
    third = [0] * (n * n)
    second = [0] * (n * n)
    square = [0] * n
    for a, row in enumerate(products):
        for b, cs in enumerate(row):
            for c in cs:
                third[a * n + b] |= 1 << c
                second[a * n + c] |= 1 << b
        for c in row[a]:
            square[c] |= 1 << a
    unit = sum(1 << b for b in range(n) if b in products[0][b])
    return third, second, square, unit


def _search_order(products: Products, k: int) -> list[tuple[int, ...]]:
    """All complete Z_k labelings passing both cover conditions (with duplicates
    under negation), in depth-first order: element 1 slowest, sectors ascending."""
    n = len(products)
    third, second, square, unit = _masks(products)
    table = AbelianGroupSpec.cyclic(k).addition_table()
    tables = {"second": second, "third": third}
    checks = [
        ([(tables[kind], u, v) for kind, u, v in pairs], twice)
        for pairs, twice in _check_lists(table)
    ]
    # x + y and y + x realize (a, b, c) and (b, a, c) together, so a triple
    # is coded by its unordered pair {a, b}, as a bitmask, and c.  A labeling
    # covers when the codes of its sums x + y, x <= y, include the code of
    # every admissible triple, (a, b, c) and (b, a, c) alike.
    triples = [(a, b, c) for a, row in enumerate(products) for b, cs in enumerate(row) for c in cs]
    admissible = {((1 << a) | (1 << b)) * n + c for a, b, c in triples}
    # Each sector of an admissible triple must label some element: a cheap
    # test that turns most complete labelings away before their sums are coded.
    needed = set(itertools.chain.from_iterable(triples))
    sums = [(x, y, table[x][y]) for x in range(k) for y in range(x, k)]
    assign = [0] * k
    found: list[tuple[int, ...]] = []

    def place(e: int) -> None:
        if e == k:
            if not needed <= set(assign):
                return
            bits = [1 << s for s in assign]
            if admissible <= {(bits[x] | bits[y]) * n + assign[z] for x, y, z in sums}:
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


def search_cyclic_covers(params: ModelParams, max_order: int) -> list[CoverMap]:
    """All cyclic covers Z_k, k <= max_order, up to the negation automorphism.

    Results are deterministic: ascending order k, then lexicographic in the
    label tuple, which each cover keeps as ``labels``.  Orders below the
    multiplicity-profile sum cannot cover and are skipped outright.  A
    model with more sectors than ``max_order`` is answered (no group that
    small can label every sector) before any fusion rule is built.  The
    search is exponential in ``max_order``; the CLI bounds it.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    check_fusion_cells(params)
    if params.n_sectors > max_order:
        return []
    products = fusion_products(params)
    secs = sectors(params)
    covers: list[CoverMap] = []
    for k in range(sum(_profile(products)), max_order + 1):
        # _search_order yields labelings in lexicographic order, so keeping
        # each one that is no greater than its negation lists every orbit's
        # least member once, already sorted.
        spec = AbelianGroupSpec.cyclic(k)
        covers.extend(
            _FoundCover(spec, assign, secs)
            for assign in _search_order(products, k)
            if assign <= tuple(assign[-x] for x in range(k))
        )
    return covers
