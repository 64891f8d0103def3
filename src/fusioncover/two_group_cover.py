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

No vector, class or coset is built one at a time.  A label depends only on
the A- and B-weights, so the map's labels are read off a grid of weights
(``_canonical_labels``), and its support is proved, not counted: the
weights the sum of two vectors of given weights in Z_2^w can take are
built by a recurrence on w and compared with the SU(2) level-w fusion rule
at w = p - 2 and w = q - 2 (``check_su2_levels``), and a descent lemma
(``_CanonicalCover.support``) turns the two levels into the support of the
map on G: the model's fusion tensor itself, as ``fusion_tensor`` returns
it.  So ``verify_cover``, handed that tensor, compares no arrays, and a
canonical verify loads no numpy and builds no N^3 array.  The check runs
on plain Python ints with no bound on the rank, so it covers every model
whose fusion tensor is admitted (N <= 256), up to (2,513) and (3,257).
Any other map, over this group or another, is counted by the transform in
``_kernels.pair_counts``, within the sizes ``_kernels.check_count_size``
admits, and its support is where its counts are nonzero.  Either way
``verify_cover`` and ``partition_algebra`` read the map's support; the
labels are read only by the scan that names a FAIL witness.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

# ``verify_cover`` is bound here too: ``perfbench/tracing.py`` wraps it
# under this module's name.
from .certificates import AbelianGroupSpec, CoverMap, verify_cover  # noqa: F401
from .errors import CapacityError, CountCheckError, PartitionError
from .minimal_model import (FusionTensor, ModelParams, _label_index, admissible_range,
                            fusion_tensor, sectors)

# numpy is imported by the two functions that use it, so a canonical verify,
# which reads neither labels nor arrays, starts without it.
if TYPE_CHECKING:
    import numpy as np

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
    term, as x and y trade places.  The rule is the truncated
    Clebsch-Gordan series of SU(2) at level w (Gepner & Witten 1986; Di
    Francesco, Mathieu & Senechal 1997, ch. 16) in Dynkin labels a, b, c:
    in the labels a + 1, b + 1, c + 1 of the minimal models, it is
    ``admissible_range(w + 2, a + 1, b + 1)``.  The recurrence runs once, up
    to the largest level, and each level asked for is compared for every
    a >= b as it is passed (mask and rule are both symmetric in a and b).
    Plain Python ints, so no bound on w.  A mismatch is an internal fault,
    not a verdict: it raises CountCheckError naming (w, a, b, c), c the
    least weight on which mask and rule differ.
    """
    s = [[1]]
    for w in range(max(levels) + 1):
        if w:
            # Row a of S is ``same``, row a - 1 (padded at b = a) is ``up``.
            s = [
                [s00 | s10 << 1 | s01 << 1 | s11
                 for s00, s10, s01, s11 in zip(same, up, [0] + same, [0] + up)]
                for same, up in zip(s + [[0] * (w + 1)], [[0]] + [row + [0] for row in s])
            ]
        if w not in levels:
            continue
        for a, row in enumerate(s):
            for b, mask in enumerate(row):
                labels = admissible_range(w + 2, a + 1, b + 1)
                # Bit c of the rule is label c + 1.  A label below 1 is no
                # weight at all: a mismatch at c = label - 1 < 0.
                c = min(labels, default=1) - 1
                if c >= 0:
                    rule = sum(map((1).__lshift__, labels)) >> 1
                    if mask == rule:
                        continue
                    c = ((mask ^ rule) & -(mask ^ rule)).bit_length() - 1
                got = "takes" if c >= 0 and mask >> c & 1 else "never takes"
                raise CountCheckError(
                    f"SU(2) level check failed at (w, a, b, c) = ({w}, {a}, {b}, {c}): in Z2^{w}, "
                    f"x + y with wt x = {a}, wt y = {b} {got} weight {c}, against the level-{w} rule"
                )


def _canonical_labels(ctx: GroupContext) -> np.ndarray:
    """Sector index of every coset under Phi, checking that Phi is constant
    on cosets.  Refuses more than 2^22 cosets before allocating."""
    import numpy as np

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
    """The canonical map Phi, with its labels built by ``_canonical_labels``
    on first access.  Its support and its vacuum preimage need none."""

    # The vacuum (1,1) ~ (p-1,q-1) is the class of weights (0, 0) and its
    # complement: the vectors 0 and all-ones, the one coset 0.
    vacuum_preimage = (0,)

    def __init__(self, context: GroupContext) -> None:
        vars(self).update(context=context, sectors=sectors(context.params))

    @functools.cached_property
    def sector_indices(self) -> np.ndarray:
        labels = _canonical_labels(self.context)
        labels.setflags(write=False)
        return labels

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
    labels are built on first access to ``sector_indices`` (at most 2^22
    cosets), asserting that both members of every coset lie in classes with
    the same canonicalization.
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
    if strict:
        vacuum = cm.vacuum_preimage
        if len(vacuum) != 1 or vacuum[0] != 0:
            where = "one nonzero element" if len(vacuum) == 1 else f"{len(vacuum)} elements"
            raise PartitionError(f"partition requires P_1 = {{0}}: the vacuum preimage is {where}")
    return cm.support


def is_isomorphic_to_verlinde(w: FusionTensor, v: FusionTensor) -> bool:
    """Whether the index-preserving bijection S_i <-> P_i is an algebra isomorphism.

    ``v`` is the Verlinde algebra, ``minimal_model.verlinde_algebra``.  True
    iff the two structure-constant arrays are identical.
    """
    import numpy as np

    if w.n != v.n:
        raise ValueError(f"dimension mismatch: partition {w.n} vs Verlinde {v.n}")
    return np.array_equal(w.coefficients, v.coefficients)
