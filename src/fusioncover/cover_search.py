"""Covers of minimal-model fusion rules by arbitrary finite abelian groups.

A labeling of a finite abelian group G by sectors covers the fusion rules
when (1) the sector triple of every sum g1 + g2 = g3 is admissible and (2)
every admissible sector triple is realized by some sum.  The canonical
2-group construction is one instance; the Ising rules are also covered by
Z_4 (with two elements playing the weight-1/16 sector) and the c = 7/10
rules by Z_12.  This module exhaustively searches cyclic groups of bounded
order for covers.  Each cover found is a ``certificates.CoverMap`` over its
``certificates.AbelianGroupSpec`` (``AbelianGroupSpec`` is also bound here),
checked like any other by ``certificates.verify_cover``.

The fusion rules are symmetric under every permutation of a sector triple
(a, b, c), and every sector is self-conjugate: (a, b, vacuum) is admissible
only for a = b.  So closure on the pair x + (-x) = 0 forces L(-x) = L(x):
every cover is its own negation, and the search assigns one sector per
class {x, -x} of Z_k, classes in ascending order of their least element
(the class {0} always carries the vacuum), pruning any partial labeling
whose already-decidable sums violate closure.  By the symmetry, the
closure of x + y = z asks only that the sorted class triple of x, y and z
be admissible; each such triple is decided once, when its largest class
is labeled.  The triples, read once per order from the group's addition
table over pairs of classes, any abelian group's as well as Z_k's, make
the check lists; a class's admissible sectors are then the AND of integer
bitmasks built from the fusion rules' product lists (``fusion_products``),
one per check, so a dead branch is cut before any sector is tried (forward
filtering).  A complete labeling covers when the set of sector triples its
class sums x + y and x - y realize contains every admissible triple.  The
multiplicity profile of the fusion table (how often a sector repeats
within a row) gives an a-priori lower bound on the order of any covering
group, which prunes whole orders.  Found covers are reported in
deterministic order.  The search runs on Python ints alone.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .certificates import AbelianGroupSpec, CoverMap, verify_cover
from .errors import InputError
from .minimal_model import (
    ModelParams,
    Sector,
    fusion_products,
    sectors,
)

# products[i][j]: the sectors k with D[i,j,k] = 1, ascending (``fusion_products``).
Products = list[list[tuple[int, ...]]]


# ``perfbench/tracing.py`` wraps these two names; they go once it wraps
# ``CoverMap`` and ``verify_cover`` under their own names.
LabeledGroup = CoverMap
verify_abelian_cover = verify_cover


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


def _class_sums(
    table: list[list[int]],
) -> tuple[list[int], list[list[tuple[int, int]]], set[tuple[int, int, int]]]:
    """The classes {x, -x} of an abelian group, its closure checks and its
    class sums.

    ``table[x][y]`` is the index of x + y in a group whose identity is 0
    (``AbelianGroupSpec.addition_table``).  Classes are numbered by their
    least element, ascending, so the identity is class 0.  Returns each
    element's class; per class c, the pairs (a, b) with a <= b <= c such
    that some class sum, sorted, is (a, b, c), so that each sorted class
    triple is decided once, at its largest class; and the class sums (a, b, c),
    a <= b, such that some x in class a and y in class b have x + y in
    class c.  Only pairs of classes are walked: with x and y their least
    elements, the sums of their members are +-(x + y) and +-(x - y).
    """
    neg = [row.index(0) for row in table]
    reps = [x for x, minus in enumerate(neg) if x <= minus]
    cls = [0] * len(table)
    for c, x in enumerate(reps):
        cls[x] = cls[neg[x]] = c
    sums = {(a, b, cls[table[x][z]]) for b, y in enumerate(reps)
            for a, x in enumerate(reps[: b + 1]) for z in (y, neg[y])}
    checks: list[set[tuple[int, int]]] = [set() for _ in reps]
    for triple in sums:
        a, b, c = sorted(triple)
        checks[c].add((a, b))
    return cls, [sorted(pairs) for pairs in checks], sums


def _search_order(products: Products, k: int) -> list[tuple[int, ...]]:
    """All complete Z_k labelings passing both cover conditions, in
    lexicographic order.

    Precondition: the product lists are symmetric under every permutation
    of (a, b, c) and their vacuum column is the identity (D[a,b,0] = 1 iff
    a = b), as ``fusion_products`` always gives them.  Then every cover is
    its own negation, so one sector is chosen per class {x, -x}, and the
    closure of x + y = z is D on the sorted class triple, in any order.
    Classes are labeled in ascending order, sectors ascending, which lists
    the label tuples in lexicographic order.
    """
    n = len(products)
    # pair[a*n+b] = {c : D[a,b,c]}, diag[a] = {s : D[a,s,s]} and
    # cube = {s : D[s,s,s]}, as integer bitmasks: bit s stands for sector s.
    pair = [sum(1 << c for c in cs) for row in products for cs in row]
    diag = [sum(1 << s for s in range(n) if s in row[s]) for row in products]
    cube = sum(1 << s for s in range(n) if s in products[s][s])
    cls, checks, sums = _class_sums(AbelianGroupSpec.cyclic(k).addition_table())
    # x + y and y + x realize (a, b, c) and (b, a, c) together, so a triple
    # is coded by its unordered pair {a, b}, as a bitmask, and c.  A labeling
    # covers when the codes of its class sums include the code of every
    # admissible triple, (a, b, c) and (b, a, c) alike.
    triples = [(a, b, c) for a, row in enumerate(products) for b, cs in enumerate(row) for c in cs]
    admissible = {((1 << a) | (1 << b)) * n + c for a, b, c in triples}
    # Each sector of an admissible triple must label some class: a cheap
    # test that turns most complete labelings away before their sums are coded.
    needed = set(itertools.chain.from_iterable(triples))
    label = [0] * len(checks)
    found: list[tuple[int, ...]] = []

    def place(c: int) -> None:
        if c == len(label):
            if not needed <= set(label):
                return
            bits = [1 << s for s in label]
            if admissible <= {(bits[a] | bits[b]) * n + label[z] for a, b, z in sums}:
                found.append(tuple(label[x] for x in cls))
            return
        cand = (1 << n) - 1
        for a, b in checks[c]:
            cand &= pair[label[a] * n + label[b]] if b < c else diag[label[a]] if a < c else cube
            if not cand:
                return
        while cand:
            low = cand & -cand
            label[c] = low.bit_length() - 1
            place(c + 1)
            cand ^= low

    place(1)
    return found


def search_cyclic_covers(params: ModelParams, max_order: int) -> list[CoverMap]:
    """All cyclic covers Z_k, k <= max_order.

    Results are deterministic: ascending order k, then lexicographic in the
    label tuple, which each cover keeps as ``labels``.  Orders below the
    multiplicity-profile sum cannot cover and are skipped outright.  The
    sectors are listed first, so a model past N = 256 raises CapacityError
    (``minimal_model.sectors``); a model with more sectors than
    ``max_order`` is then answered (no group that small can label every
    sector) before any fusion rule is built.  The search is exponential in
    ``max_order``; the CLI bounds it.
    """
    if max_order < 1:
        raise InputError(f"max_order must be >= 1, got {max_order}")
    secs = sectors(params)
    if len(secs) > max_order:
        return []
    products = fusion_products(params)
    covers: list[CoverMap] = []
    for k in range(sum(_profile(products)), max_order + 1):
        # _search_order yields labelings in lexicographic order.
        spec = AbelianGroupSpec.cyclic(k)
        covers.extend(CoverMap(spec, assign, secs) for assign in _search_order(products, k))
    return covers
