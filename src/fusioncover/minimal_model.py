"""Exact fusion data of the (p,q)-minimal models of the Virasoro algebra.

For coprime integers p, q >= 2 the (p,q)-minimal model has central charge

    c = 1 - 6(p-q)^2 / (pq)

and a finite family of irreducible highest-weight modules ("sectors")
labelled by Kac labels (m, n) with 0 < m < p, 0 < n < q and conformal
weights

    h_{m,n} = ((np - mq)^2 - (p-q)^2) / (4pq).

Since h_{m,n} = h_{p-m,q-n}, sectors are equivalence classes of label
pairs; there are N = (p-1)(q-1)/2 of them.  The fusion rules are
multiplicity-free and are decided by an arithmetic admissibility
condition on label triples (odd sum, strict triangle inequalities).
This module computes all of it exactly:

* sector enumeration and canonical labels, up to N = 256 sectors: every
  N^3 path lists the sectors before it builds anything, so `sectors` is
  the one gate of the cell cap ``MAX_FUSION_CELLS``,
* the admissibility predicate and the closed-form completion range,
* the fusion rules built from that closed form: as N x N lists of
  products in plain Python (`fusion_products`, which the `fusion` table
  is printed from), and as a `FusionTensor` (`fusion_tensor`, which the
  cover checks read), whose N x N x N bool array of structure constants is
  built on first read (``_kernels.fusion_array``), and whose size |D| is
  a closed form that needs no array,
* the Verlinde algebra: its structure constants in the sector basis are
  the fusion coefficients (Verlinde 1988), so `verlinde_algebra` returns
  the fusion tensor itself.

Weights and central charges are `fractions.Fraction`; nothing here is
floating point.
All objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd
from operator import attrgetter
from typing import TYPE_CHECKING

from .errors import CapacityError, InputError

if TYPE_CHECKING:
    import numpy as np

# Keeps (np - mq)^2 comfortably inside any fixed-width arithmetic a caller
# might feed the results into; Python ints would not overflow, but the
# contract promises a clean error instead of silently huge tables.
MAX_PQ = 10_000

# Largest model whose sectors are listed, in tensor cells (N <= 256):
# `sectors` refuses past it, and the tensor's array, the `fusion` table,
# whose cells `fusion_products` lists, a cover search and a group file all
# list the sectors first.  The tensor build is vectorised row by row, so
# the cap bounds the array's memory (one byte per cell, 16 MiB) and the
# O(N^3) size of the table, rather than either build; ``_kernels`` bounds
# its raw pair sums by it too.  A canonical cover verify lists no sector
# and is bounded by its SU(2) level instead (`two_group_cover.MAX_SU2_LEVEL`).
MAX_FUSION_CELLS = 1 << 24

# Largest Kac table built, in cells.  Memory grows with the cell count: the
# `kac` command on (1024,1025), 1 047 552 cells, peaks near 236 MiB resident.
MAX_KAC_CELLS = 1 << 20


def fraction_str(x: Fraction) -> str:
    """Render an exact rational as ``num/den``, or just ``num`` if integral."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Record:
    """Base of the package's immutable records.

    A record sets its fields in ``__init__`` through ``vars(self)``; after
    that a field can be neither assigned nor deleted.  The class names its
    fields in ``_fields``, which drive equality, hash and repr: a record is
    equal only to a record of the same class with equal fields, is hashed
    like the tuple of its fields (so one holding a dict is not hashable),
    and prints as ``ClassName(field=value, ...)``.  A copy or an unpickled
    record is read-only too: its arrays, cached ones included, come back as
    read-only views, and the arrays it may share with the original keep
    their flags.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" in vars(cls):
            cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            if hasattr(value, "setflags"):
                value = value.view()
                value.setflags(write=False)
            vars(self)[name] = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = type(self)._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        # ``ModelParams`` keys the per-model caches, so hashing is kept
        # cheap: one C getter per class, read off the class, not the
        # instance, which CPython looks up faster.
        return hash(type(self)._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class IdentityRecord(Record):
    """A record that is equal only to itself and hashed by identity."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class ModelParams(Record):
    """The pair (p, q) selecting a minimal model.  Requires coprime integers
    2 <= p, q <= ``MAX_PQ``: other ints raise InputError, non-ints TypeError."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if not (isinstance(p, int) and isinstance(q, int)):
            raise TypeError(f"p and q must be integers, got ({p!r}, {q!r})")
        if p < 2 or q < 2:
            raise InputError(f"need p, q >= 2, got ({p}, {q})")
        if p > MAX_PQ or q > MAX_PQ:
            raise InputError(f"p, q <= {MAX_PQ} enforced, got ({p}, {q})")
        if gcd(p, q) != 1:
            raise InputError(f"p and q must be coprime, got gcd({p}, {q}) = {gcd(p, q)}")
        vars(self).update(p=p, q=q)

    @property
    def n_sectors(self) -> int:
        return (self.p - 1) * (self.q - 1) // 2


class Sector(Record):
    """One distinct irreducible module, i.e. the label class {(m,n), (p-m,q-n)}.

    (m, n) is the canonical representative (lexicographically smaller of the
    two), h its conformal weight, and index its position in the model's
    lexicographically sorted sector list (sector (1,1), h = 0, has index 0).
    """

    _fields = ("m", "n", "h", "index")

    def __init__(self, m: int, n: int, h: Fraction, index: int) -> None:
        vars(self).update(m=m, n=n, h=h, index=index)

    @property
    def name(self) -> str:
        """Bracket notation for the module, e.g. ``[1/16]``."""
        return f"[{fraction_str(self.h)}]"


def central_charge(params: ModelParams) -> Fraction:
    """Exact central charge c = 1 - 6(p-q)^2/(pq)."""
    p, q = params.p, params.q
    return 1 - Fraction(6 * (p - q) ** 2, p * q)


def conformal_weight(params: ModelParams, m: int, n: int) -> Fraction:
    """Exact weight h_{m,n} = ((np-mq)^2 - (p-q)^2)/(4pq) for 0 < m < p, 0 < n < q."""
    p, q = params.p, params.q
    if not (0 < m < p and 0 < n < q):
        raise ValueError(f"Kac label ({m}, {n}) out of range for (p, q) = ({p}, {q})")
    return Fraction((n * p - m * q) ** 2 - (p - q) ** 2, 4 * p * q)


@lru_cache(maxsize=None)
def sectors(params: ModelParams) -> tuple[Sector, ...]:
    """All N = (p-1)(q-1)/2 sectors, sorted lexicographically by canonical label.

    A model whose fusion tensor has more than ``MAX_FUSION_CELLS`` cells
    (N > 256) raises CapacityError before any sector is listed.
    """
    p, q = params.p, params.q
    if params.n_sectors ** 3 > MAX_FUSION_CELLS:
        raise CapacityError(
            f"the fusion tensor of the ({p},{q}) model has N^3 = {params.n_sectors ** 3} "
            f"cells, over the budget of {MAX_FUSION_CELLS} (N <= 256)"
        )
    labels = [
        (m, n)
        for m in range(1, p)
        for n in range(1, q)
        if (m, n) < (p - m, q - n)
    ]
    return tuple(
        Sector(m, n, conformal_weight(params, m, n), i)
        for i, (m, n) in enumerate(labels)
    )


@lru_cache(maxsize=None)
def _label_index(params: ModelParams) -> tuple[tuple[int, ...], ...]:
    """index[m][n] is the index of the sector holding the full Kac label
    (m, n): both members of every class are entered, and row 0 and column 0
    hold -1."""
    p, q = params.p, params.q
    index = [[-1] * q for _ in range(p)]
    for s in sectors(params):
        index[s.m][s.n] = index[p - s.m][q - s.n] = s.index
    return tuple(map(tuple, index))


def canonicalize(params: ModelParams, m: int, n: int) -> Sector:
    """The sector containing the (possibly non-canonical) Kac label (m, n).
    Past N = 256 an in-range label raises CapacityError (``sectors``)."""
    p, q = params.p, params.q
    if not (0 < m < p and 0 < n < q):
        raise ValueError(f"Kac label ({m}, {n}) out of range for (p, q) = ({p}, {q})")
    return sectors(params)[_label_index(params)[m][n]]


def kac_table(params: ModelParams) -> list[list[Fraction]]:
    """The full (p-1) x (q-1) grid of weights; rows indexed by m, columns by n.

    Grids above ``MAX_KAC_CELLS`` raise CapacityError before any is built.
    """
    p, q = params.p, params.q
    if (p - 1) * (q - 1) > MAX_KAC_CELLS:
        raise CapacityError(
            f"the Kac table of the ({p},{q}) model has {(p - 1) * (q - 1)} cells, "
            f"over the budget of {MAX_KAC_CELLS} (2^20)"
        )
    return [
        [conformal_weight(params, m, n) for n in range(1, q)]
        for m in range(1, p)
    ]


def is_p_admissible(p: int, m: int, m2: int, m3: int) -> bool:
    """Whether (m, m2, m3) is p-admissible.

    True iff all three lie strictly between 0 and p, their sum is odd and
    less than 2p, and each is strictly less than the sum of the other two.
    Out-of-range inputs are simply not admissible.
    """
    if not (0 < m < p and 0 < m2 < p and 0 < m3 < p):
        return False
    s = m + m2 + m3
    if s >= 2 * p or s % 2 == 0:
        return False
    return m < m2 + m3 and m2 < m + m3 and m3 < m + m2


def admissible_range(p: int, m: int, m2: int) -> list[int]:
    """Closed-form set of all m3 making (m, m2, m3) p-admissible, for m2 <= m.

    Returns {m - m2 + 1 + 2i | 0 <= i <= min(m2, p-m) - 1} in ascending
    order.  Callers must order the arguments so that 0 < m2 <= m < p.
    """
    if not (0 < m2 <= m < p):
        raise ValueError(f"require 0 < m2 <= m < p, got m={m}, m2={m2}, p={p}")
    start = m - m2 + 1
    return list(range(start, start + 2 * min(m2, p - m), 2))


LabelPair = tuple[int, int]


def is_pq_admissible(params: ModelParams, t1: LabelPair, t2: LabelPair, t3: LabelPair) -> bool:
    """Whether a triple of full Kac labels is (p,q)-admissible.

    First components must form a p-admissible triple and second components
    a q-admissible one.
    """
    return is_p_admissible(params.p, t1[0], t2[0], t3[0]) and is_p_admissible(
        params.q, t1[1], t2[1], t3[1]
    )


class FusionTensor(IdentityRecord):
    """0/1 structure constants D(S_i, S_j, S_k) over a list of sectors.

    coefficients[i, j, k] = 1 iff sector k occurs in the product of sectors
    i and j.  One type serves a model's fusion rules (``fusion_tensor``),
    the triples a cover map realizes (``certificates.CoverMap.support``)
    and its partition algebra.  Every array the package builds is bool and
    read-only; tensors compare by identity, but for a model's fusion
    tensor, which compares by its model.
    """

    _fields = ("sectors", "coefficients")

    def __init__(self, sectors: tuple[Sector, ...], coefficients: np.ndarray) -> None:
        vars(self).update(sectors=sectors, coefficients=coefficients)

    @property
    def n(self) -> int:
        return len(self.sectors)

    @property
    def size(self) -> int:
        """The number of triples (i, j, k) whose coefficient is 1, the sum of
        the 0/1 array."""
        return int(self.coefficients.sum())


class _ModelTensor(FusionTensor):
    """The fusion tensor of a model, whose array is built on first read.

    ``size`` is read off the closed form and needs no array: C(p+1, 3) is
    the number of ordered p-admissible label triples, and complementing two
    labels of a triple keeps it admissible, so each sector triple with
    D = 1 has 4 of its 8 label triples admissible, hence
    |D| = C(p+1, 3) C(q+1, 3) / 4.  The sectors are listed on first read,
    so a handle whose array and sectors are never read costs nothing at
    any N; past N = 256, reading ``sectors``, ``n`` or ``coefficients``
    raises CapacityError (``sectors``).  The repr shows the model only, so
    printing the tensor builds no array.  Unlike other tensors it compares and hashes by its model:
    two handles of one model are one tensor, equal with no array read,
    whichever of them ``fusion_tensor``'s cache still holds.
    """

    _fields = ("model",)
    __eq__ = Record.__eq__
    __hash__ = Record.__hash__

    def __init__(self, model: ModelParams) -> None:
        vars(self).update(model=model)

    @cached_property
    def sectors(self) -> tuple[Sector, ...]:
        return sectors(self.model)

    @property
    def size(self) -> int:
        return comb(self.model.p + 1, 3) * comb(self.model.q + 1, 3) // 4

    @cached_property
    def coefficients(self) -> np.ndarray:
        """D[i,j,k] = 1 iff the triple is admissible.

        For sectors i, j the canonical labels are used as-is; for the
        completion k both members of its label class are tested.  At most
        one of the two can complete an admissible triple (the two
        replacements flip the parity of the component sums), so the result
        is well defined and multiplicity-free.  The array is built row by
        row by ``_kernels.fusion_array``.  The sectors are read first, so a
        model over ``MAX_FUSION_CELLS`` raises CapacityError (``sectors``)
        before numpy is loaded.
        """
        secs = self.sectors
        from ._kernels import fusion_array

        return fusion_array(self.model.p, self.model.q, secs)


# The last few tensors are kept, so their built arrays are shared: up to
# 16 MiB each, so a process that walks every model keeps at most 128 MiB of
# them, not the sum over all models.  No check relies on getting the same
# handle back: a model's tensors are equal.
@lru_cache(maxsize=8)
def fusion_tensor(params: ModelParams) -> FusionTensor:
    """Fusion rules of the model, as a ``FusionTensor`` that keeps its model.

    Its N^3 array is built on first read of ``coefficients``, after its
    sectors, which refuse models over ``MAX_FUSION_CELLS`` (N > 256) with
    CapacityError.  Its size |D| needs no array and its sectors are listed
    on first read, so the handle itself is made for any model: the
    canonical cover's proof returns it at any N its level admits.
    """
    return _ModelTensor(params)


def fusion_products(params: ModelParams) -> list[list[tuple[int, ...]]]:
    """The fusion rules as lists: products[i][j] holds, in ascending order,
    every k with D[i,j,k] = 1 in `fusion_tensor`.

    The completions (a, b) of the canonical labels of sectors i and j are
    the closed-form `admissible_range` of the m and of the n components;
    each is mapped to the sector of its label class.  Fusion is
    commutative, so products[i][j] and products[j][i] are one tuple,
    computed once.  The sectors are listed first, so models over
    ``MAX_FUSION_CELLS`` raise CapacityError (``sectors``) before any
    product is.
    """
    secs = sectors(params)
    p, q = params.p, params.q
    index = _label_index(params)
    products: list[list[tuple[int, ...]]] = [[()] * len(secs) for _ in secs]
    for si in secs:
        row = products[si.index]
        # Sectors are sorted by label, so sj.m <= si.m for j <= i.
        for sj in secs[: si.index + 1]:
            ms = admissible_range(p, si.m, sj.m)
            ns = admissible_range(q, max(si.n, sj.n), min(si.n, sj.n))
            # The n range steps by 2, so each label row is read as one slice.
            cut = slice(ns[0], ns[-1] + 1, 2)
            cell: list[int] = []
            for a in ms:
                cell += index[a][cut]
            cell.sort()
            row[sj.index] = products[sj.index][si.index] = tuple(cell)
    return products


def verlinde_algebra(tensor: FusionTensor) -> FusionTensor:
    """The Verlinde algebra of a model: in the sector basis its structure
    constants are the fusion coefficients themselves (Verlinde 1988), so it
    is the fusion tensor."""
    return tensor
