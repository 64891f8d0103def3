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
triple is realized.  Both conditions are read off the map's ``support``,
a ``FusionTensor`` of the sector triples its pairs realize.  The same
support is the partition algebra (structure constants of the sums of the
sectors' preimages), which the theorem says is isomorphic to the Verlinde
algebra.

No vector or class is built one at a time.  A label depends only on the
A- and B-weights, so the map's labels are read off the popcounts of each
coset code in plain Python (``_canonical_labels``, the definition, which
no command reads), and its support is proved, not counted: the weights
the sum of two vectors of given weights in Z_2^w can take are built by a
recurrence on w and compared with the SU(2) level-w fusion rule at
w = p - 2 and w = q - 2
(``check_su2_levels``), and a descent lemma
(``_CanonicalCover.support``) turns the two levels into the support of the
map on G: the model's fusion tensor, as ``fusion_tensor`` returns it.
Tensors of one model are equal, so ``verify_cover``, handed any of them,
compares no arrays, and a canonical verify builds no N^3 array and lists
no sector.  This module builds no array at all and never imports
``_kernels``, nor numpy.
The check runs on plain Python ints, each row of weight masks packed in one
int, and its cost depends on max(p, q) alone, not on N: a canonical cover
is proved for every model up to SU(2) level ``MAX_SU2_LEVEL`` = 511, that
is max(p, q) <= 513, up to (512,513) with N = 130 816.  The map itself is
the one gate of that cap: ``canonical_cover`` refuses a model past it when
the map is built.
Any other map, over this group or another, is counted by the transform,
within the sizes ``_kernels.check_count_size`` admits, and
``_kernels.pair_support`` returns the support of its counts.  Either way
``verify_cover`` and ``partition_algebra`` read the map's support; the
labels are read only by the scan that names a FAIL witness.
"""

from __future__ import annotations

import functools
from typing import Iterator

# ``verify_cover`` is bound here too: ``perfbench/tracing.py`` wraps it
# under this module's name.
from .certificates import AbelianGroupSpec, CoverMap, verify_cover  # noqa: F401
from .errors import CapacityError, CountCheckError, PartitionError
from .minimal_model import (FusionTensor, ModelParams, Sector, _label_index, admissible_range,
                            fusion_tensor, sectors)

# Most cosets a canonical map is built for: a tuple of 2^22 labels, 32 MiB
# of pointers to small ints.  At (11,16), 2^22 cosets, reading ``labels``
# peaks near 54 MiB resident for the whole process, with no numpy loaded,
# ``swapped_images(1, 2)`` near 118 MiB, and ``sector_indices``, its int64
# array, near 92 MiB (Python 3.11, numpy 2.4 on x86-64; the same with
# MALLOC_MMAP_THRESHOLD_=131072).
MAX_CANONICAL_MAP = 1 << 22

# Highest SU(2) level at which a canonical cover is built, and so proved:
# max(p, q) <= 513, up to (2,513) and (512,513).  ``_CanonicalCover``
# refuses a model past it when the map is built.  The level check up to
# level w costs O(w^4) bit operations and depends on nothing else: about
# 1.7 s at w = 511 on a 2-core x86-64 host.  Every admitted model has
# p + q <= 1025, well inside p + q <= 7147, the bound that keeps a
# certificate printable: its pairs_checked, 4^(p+q-5), must have at most
# 4300 digits, Python's default limit on converting an int to a string.
MAX_SU2_LEVEL = 511


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


def _weight_sum_rows(top: int) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (w, k, rows) for w = 0, 1, ..., top: the masks S_w[a][b] of
    ``check_su2_levels``, row a packed in one int, ``rows[a]``, with S_w[a][b]
    at bit offset b * k for b = 0..a.

    k is the least multiple of 8 above ``top``, so an entry, whose weights
    are at most w, never spills into the next, and the entries of a row
    are its bytes in slices of k / 8.  One step of the recurrence is four
    shifts and ORs of whole rows: with ``same`` the old row a and ``up``
    the old row a - 1 (0 for rows that do not exist), entry b of

        same | up << 1 | same << (k + 1) | up << k

    is S[a][b] | S[a-1][b] << 1 | S[a][b-1] << 1 | S[a-1][b-1].  Row a - 1
    holds no entry b = a, so the second term is empty on the diagonal; the
    third term puts same's diagonal at entry a + 1, which the mask of
    entries 0..a drops.  The rows are rebuilt in place, top row first, so
    one level is held at a time: read ``rows`` before the next step.
    """
    k = top // 8 * 8 + 8
    keep = [(1 << (a + 1) * k) - 1 for a in range(top + 1)]
    rows = [1]
    for w in range(top + 1):
        if w:
            rows.append(0)
            for a in range(w, -1, -1):
                same, up = rows[a], rows[a - 1] if a else 0
                rows[a] = (same | up << 1 | same << (k + 1) | up << k) & keep[a]
        yield w, k, rows


def check_su2_levels(*levels: int) -> None:
    """Check the weights of sums in Z_2^w against SU(2) level-w fusion, at
    each w in ``levels``.

    S_w[a][b], for weights a >= b, is the bitmask of the weights c of x + y
    over x, y in Z_2^w with wt x = a and wt y = b.  Split off the last
    coordinate, where x and y are each 0 or 1:

        S_w[a][b] = S[a][b] | S[a-1][b] << 1 | S[a][b-1] << 1 | S[a-1][b-1]

    with S = S_(w-1), from S_0[0][0] = 1 (bit 0: the zero vector).  Entries
    outside 0 <= b <= a <= w - 1 are read as empty.  On the diagonal a = b
    this drops S[a-1][a], which loses nothing: it is S[a][a-1], the third
    term, as x and y trade places.  Each row a of S_w is one int
    (``_weight_sum_rows``), so a step costs a few big-int operations per
    row, not per entry.  The rule is the truncated Clebsch-Gordan series
    of SU(2) at level w (Gepner & Witten 1986; Di Francesco, Mathieu &
    Senechal 1997, ch. 16) in Dynkin labels a, b, c: in the labels a + 1,
    b + 1, c + 1 of the minimal models, it is
    ``admissible_range(w + 2, a + 1, b + 1)``, whose labels step by 2, so
    its mask is built from its two ends.  The recurrence runs once, up to
    the largest level, and each level asked for is compared for every
    a >= b as it is passed (mask and rule are both symmetric in a and b).
    Plain Python ints, so no bound on w; a canonical cover past
    ``MAX_SU2_LEVEL`` is refused when it is built, so this never runs for
    it.  A mismatch is an internal fault, not a verdict: it raises
    CountCheckError naming (w, a, b, c), c the least weight on which mask
    and rule differ.
    """
    for w, k, rows in _weight_sum_rows(max(levels)):
        if w not in levels:
            continue
        size = k // 8
        for a, row in enumerate(rows):
            data = row.to_bytes((a + 1) * size, "little")
            for b in range(a + 1):
                mask = int.from_bytes(data[b * size:(b + 1) * size], "little")
                labels = admissible_range(w + 2, a + 1, b + 1)
                # Bit c of the rule is label c + 1, for c from lo to hi by 2;
                # an empty range is the empty mask.  A label below 1 is no
                # weight at all: a mismatch at c = lo < 0.
                lo, hi = (labels[0] - 1, labels[-1] - 1) if labels else (0, -2)
                c = lo
                if c >= 0:
                    rule = ((1 << (hi - lo + 2)) - 1) // 3 << lo
                    if mask == rule:
                        continue
                    c = ((mask ^ rule) & -(mask ^ rule)).bit_length() - 1
                got = "takes" if c >= 0 and mask >> c & 1 else "never takes"
                raise CountCheckError(
                    f"SU(2) level check failed at (w, a, b, c) = ({w}, {a}, {b}, {c}): in Z2^{w}, "
                    f"x + y with wt x = {a}, wt y = {b} {got} weight {c}, against the level-{w} rule"
                )


def _canonical_labels(ctx: GroupContext) -> tuple[int, ...]:
    """Sector index of every coset under Phi, as a tuple of ints in code
    order, checking that Phi is constant on cosets.  Refuses more than 2^22
    cosets before anything is built.

    This is the definition: the label of coset g is the cell (m, n) of
    ``_label_index`` with m - 1 its A-weight, the popcount of its bits
    below p - 2, and n - 1 its B-weight, the popcount of the rest.  At
    q = 2 there is no B-bit, as coordinate p - 2 is r, fixed at 0; at
    p = 2 there is no A-bit.  One pass over the codes, one tuple built.
    """
    if ctx.order > MAX_CANONICAL_MAP:
        raise CapacityError(
            f"the canonical map of {ctx.params} has {ctx.order} cosets, above "
            f"{MAX_CANONICAL_MAP} (2^22); verifying the canonical cover and its "
            f"partition algebra needs no map"
        )
    index = _label_index(ctx.params)
    # The members of a coset carry the full labels (m, n) and (p - m, q - n),
    # and every label arises: Phi is constant on cosets iff the table is
    # symmetric under that complement.
    inner = [row[1:] for row in index[1:]]
    if inner != [row[::-1] for row in inner[::-1]]:
        raise AssertionError("class map is not constant on cosets")
    a = ctx.params.p - 2
    mask = (1 << a) - 1
    return tuple(index[(g & mask).bit_count() + 1][(g >> a).bit_count() + 1]
                 for g in range(ctx.order))


class _CanonicalCover(CoverMap):
    """The canonical map Phi: its ``labels`` are read off the popcounts of
    the codes by ``_canonical_labels`` on first access, its sectors are
    listed on first access too, and its ``sector_indices`` are
    ``CoverMap``'s, built from the labels on first read.  Its support and
    its vacuum preimage need none of them, and no command reads them.

    A model past SU(2) level ``MAX_SU2_LEVEL`` raises CapacityError when the
    map is built: its support needs the level check, its labels at most
    2^22 cosets and its sectors N <= 256, so such a map could do nothing.
    """

    # The vacuum (1,1) ~ (p-1,q-1) is the class of weights (0, 0) and its
    # complement: the vectors 0 and all-ones, the one coset 0.
    vacuum_preimage = (0,)

    def __init__(self, context: GroupContext) -> None:
        p, q = context.params.p, context.params.q
        if max(p, q) - 2 > MAX_SU2_LEVEL:
            raise CapacityError(
                f"the canonical cover of the ({p},{q}) model is proved at SU(2) level "
                f"{max(p, q) - 2}, over the budget of {MAX_SU2_LEVEL} "
                f"(max(p, q) <= {MAX_SU2_LEVEL + 2})"
            )
        vars(self).update(context=context)

    @functools.cached_property
    def sectors(self) -> tuple[Sector, ...]:
        """The model's sectors, listed on first read: a PASS reads none."""
        return sectors(self.context.params)

    @functools.cached_property
    def labels(self) -> tuple[int, ...]:
        return _canonical_labels(self.context)

    @functools.cached_property
    def support(self) -> FusionTensor:
        """The model's fusion tensor, once ``check_su2_levels`` passes at
        p - 2 and q - 2.

        Let S_w(a, b) be the weights of x + y over x, y in Z_2^w with
        wt x = a and wt y = b; the level checks prove that c is in
        S_w(a, b) iff (a + 1, b + 1, c + 1) is (w + 2)-admissible, at
        w = p - 2 and w = q - 2.  Write l = (m, n) for a sector's canonical
        label and l' = (p - m, q - n) for its complement.

        Descent lemma: sectors (i, j, k) are realized on G, by g1 + g2 = g3
        with g1 in P_i, g2 in P_j and g3 in P_k, iff x + y = z holds in H
        with x in the class of l_i, y in that of l_j, and z in that of l_k
        or of l_k'.  Proof: g1 and g2 each have a member in the class of
        l_i (of l_j), since the members of a coset lie in the classes l
        and l' of its sector; their sum is a member of g3, in the class
        of l_k or l_k'.  Conversely the cosets of such x, y and z are in
        P_i, P_j and P_k.

        A and B are independent coordinates, so such x, y exist for the
        full labels (m1, n1), (m2, n2) and a sum in (m3, n3) iff m3 - 1 is
        in S_(p-2)(m1 - 1, m2 - 1) and n3 - 1 in S_(q-2)(n1 - 1, n2 - 1):
        by the level checks, iff (m1, m2, m3) is p-admissible and
        (n1, n2, n3) q-admissible.  So (i, j, k) is realized iff the label
        triple (l_i, l_j, l_k) or (l_i, l_j, l_k') is (p,q)-admissible,
        which is D[i, j, k] = 1 as ``fusion_tensor`` defines it: supp C = D.
        The proof runs once per map and the tensor is returned as it is,
        its array unread; a failed level check is not cached and raises
        CountCheckError on every read.
        """
        params = self.context.params
        check_su2_levels(params.p - 2, params.q - 2)
        return fusion_tensor(params)


def canonical_cover(ctx: GroupContext) -> CoverMap:
    """The map Phi: each coset is sent to the sector of its members' class.

    Its support is proved by ``check_su2_levels`` and needs no labels.  Its
    labels, the sectors of the popcounts of each code's A- and B-bits, are
    built in plain Python on first access to ``labels`` or
    ``sector_indices`` (at most 2^22 cosets), asserting that both members of
    every coset lie in classes with the same canonicalization.  A model
    past SU(2) level ``MAX_SU2_LEVEL``, max(p, q) > 513, raises
    CapacityError here, before anything is read.
    """
    return _CanonicalCover(ctx)


def partition_algebra(
    cm: CoverMap,
    strict: bool = True,
    threads: int = 1,
) -> FusionTensor:
    """Structure constants of the partition P_i = preimage of sector i under a map.

    The map may be over any group.  With ``strict`` (the default)
    the partition must satisfy P_1 = {0}: the identity element alone is
    assigned the vacuum sector, as the map's ``vacuum_preimage`` shows.
    Pass strict=False to build the algebra of a deliberately corrupted
    partition anyway, e.g. to compare its constants against the Verlinde
    algebra.  W[i,j,k] = 1 iff P_i + P_j meets P_k: the algebra is
    ``cm.support``, which ``verify_cover`` reads too.  A map's support is
    cached, so a map counted there is not counted again, and the canonical
    cover is never counted: its support is the model's fusion tensor.
    ``threads`` is ignored; it stays because ``perfbench/theorem_job.py``
    passes it.
    """
    vacuum = cm.vacuum_preimage if strict else (0,)
    if vacuum != (0,):
        where = "one nonzero element" if len(vacuum) == 1 else f"{len(vacuum)} elements"
        raise PartitionError(f"partition requires P_1 = {{0}}: the vacuum preimage is {where}")
    return cm.support


def is_isomorphic_to_verlinde(w: FusionTensor, v: FusionTensor) -> bool:
    """Whether the index-preserving bijection S_i <-> P_i is an algebra isomorphism.

    ``v`` is the Verlinde algebra, ``minimal_model.verlinde_algebra``.  True
    iff the two structure-constant arrays are identical.  A tensor is its
    own algebra: when ``w == v``, as for the canonical cover's partition
    algebra and the model's Verlinde algebra, two handles of one model's
    fusion tensor, no array is read.
    """
    if w == v:
        return True
    if w.n != v.n:
        raise ValueError(f"dimension mismatch: partition {w.n} vs Verlinde {v.n}")
    a, b = w.coefficients, v.coefficients
    return a.shape == b.shape and bool((a == b).all())
