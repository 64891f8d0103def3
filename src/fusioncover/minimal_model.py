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

* sector enumeration and canonical labels,
* the admissibility predicate and the closed-form completion range,
* the fusion rules built from that closed form: as N x N lists of
  products in plain Python (`fusion_products`, which the `fusion` table
  is printed from), and as the N x N x N tensor of 0/1 structure
  constants in integer numpy arithmetic (`fusion_tensor`, which the cover
  checks read),
* the Verlinde algebra those structure constants generate.

Weights and central charges are `fractions.Fraction`; nothing here is
floating point.
All objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING

from .errors import CapacityError

if TYPE_CHECKING:
    import numpy as np

# Keeps (np - mq)^2 comfortably inside any fixed-width arithmetic a caller
# might feed the results into; Python ints would not overflow, but the
# contract promises a clean error instead of silently huge tables.
MAX_PQ = 10_000

# Largest model whose fusion rules are built, in tensor cells (N <= 256).
# The tensor build is vectorised row by row, so the cap bounds the tensor's
# memory (one byte per cell, 16 MiB) and the O(N^3) size of the `fusion`
# table, whose cells `fusion_products` lists, rather than either build.
MAX_FUSION_CELLS = 1 << 24

# Largest Kac table built, in cells.  Memory grows with the cell count: the
# `kac` command on (1024,1025), 1 047 552 cells, peaks near 236 MiB resident.
MAX_KAC_CELLS = 1 << 20


def fraction_str(x: Fraction) -> str:
    """Render an exact rational as ``num/den``, or just ``num`` if integral."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ModelParams:
    """The pair (p, q) selecting a minimal model.  Requires coprime p, q >= 2."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not (isinstance(p, int) and isinstance(q, int)):
            raise TypeError(f"p and q must be integers, got ({p!r}, {q!r})")
        if p < 2 or q < 2:
            raise ValueError(f"need p, q >= 2, got ({p}, {q})")
        if p > MAX_PQ or q > MAX_PQ:
            raise ValueError(f"p, q <= {MAX_PQ} enforced, got ({p}, {q})")
        if gcd(p, q) != 1:
            raise ValueError(f"p and q must be coprime, got gcd({p}, {q}) = {gcd(p, q)}")

    @property
    def n_sectors(self) -> int:
        return (self.p - 1) * (self.q - 1) // 2


@dataclass(frozen=True)
class Sector:
    """One distinct irreducible module, i.e. the label class {(m,n), (p-m,q-n)}.

    (m, n) is the canonical representative (lexicographically smaller of the
    two), h its conformal weight, and index its position in the model's
    lexicographically sorted sector list (sector (1,1), h = 0, has index 0).
    """

    m: int
    n: int
    h: Fraction
    index: int

    @property
    def label(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def name(self) -> str:
        """Bracket notation for the module, e.g. ``[1/16]``."""
        return f"[{fraction_str(self.h)}]"

    def __str__(self) -> str:
        return self.name


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
    """All N = (p-1)(q-1)/2 sectors, sorted lexicographically by canonical label."""
    p, q = params.p, params.q
    labels = [
        (m, n)
        for m in range(1, p)
        for n in range(1, q)
        if (m, n) < (p - m, q - n)
    ]
    labels.sort()
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
    """The sector containing the (possibly non-canonical) Kac label (m, n)."""
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


@dataclass(frozen=True, eq=False)
class FusionTensor:
    """The 0/1 structure constants D(S_i, S_j, S_k) of a minimal model.

    coefficients[i, j, k] = 1 iff sector k occurs in the fusion product of
    sectors i and j.  The array is read-only.
    """

    model: ModelParams
    sectors: tuple[Sector, ...]
    coefficients: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sectors)


def _admissible(p: int, a: int, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether (a, b, c) is p-admissible, broadcast over label arrays b and c.

    The closed form behind `admissible_range`: c is admissible iff
    lo <= c <= hi and c = lo (mod 2), with lo = |a-b|+1 and
    hi = min(a+b, 2p-a-b)-1.  Every label must lie strictly between 0 and p.
    """
    import numpy as np

    lo = np.abs(a - b) + 1
    hi = np.minimum(a + b, 2 * p - a - b) - 1
    return (lo <= c) & (c <= hi) & ((lo & 1) == (c & 1))


def check_fusion_cells(params: ModelParams) -> None:
    """Refuse a model whose fusion tensor has more than ``MAX_FUSION_CELLS`` cells."""
    if params.n_sectors ** 3 > MAX_FUSION_CELLS:
        raise CapacityError(
            f"the fusion tensor of the ({params.p},{params.q}) model has "
            f"N^3 = {params.n_sectors ** 3} cells, over the budget of "
            f"{MAX_FUSION_CELLS} (N <= 256)"
        )


@lru_cache(maxsize=None)
def fusion_tensor(params: ModelParams) -> FusionTensor:
    """Fusion rules of the model: D[i,j,k] = 1 iff the triple is admissible.

    For sectors i, j the canonical labels are used as-is; for the completion
    k both members of its label class are tested.  At most one of the two can
    complete an admissible triple (the two replacements flip the parity of
    the component sums), so the result is well defined and multiplicity-free.

    Row i is built at once from the closed-form admissibility range of the m
    and the n components, broadcast over (j, k), so scratch memory stays
    O(N^2) beside the N^3-byte result.  Models over ``MAX_FUSION_CELLS``
    raise CapacityError (``check_fusion_cells``) before any sector is listed.
    """
    import numpy as np

    check_fusion_cells(params)
    p, q = params.p, params.q
    secs = sectors(params)
    n = len(secs)
    # Labels of k as a row and of j as a column.  N <= 256 keeps p, q <= 513,
    # so int16 holds every sum below.
    m_k = np.array([s.m for s in secs], dtype=np.int16)
    n_k = np.array([s.n for s in secs], dtype=np.int16)
    m_j, n_j = m_k[:, None], n_k[:, None]
    m_r, n_r = p - m_k, q - n_k
    coeff = np.empty((n, n, n), dtype=np.uint8)
    for i, si in enumerate(secs):
        direct = _admissible(p, si.m, m_j, m_k) & _admissible(q, si.n, n_j, n_k)
        reflected = _admissible(p, si.m, m_j, m_r) & _admissible(q, si.n, n_j, n_r)
        coeff[i] = direct | reflected
    coeff.setflags(write=False)
    return FusionTensor(model=params, sectors=secs, coefficients=coeff)


def fusion_products(params: ModelParams) -> list[list[tuple[int, ...]]]:
    """The fusion rules as lists: products[i][j] holds, in ascending order,
    every k with D[i,j,k] = 1 in `fusion_tensor`.

    The completions (a, b) of the canonical labels of sectors i and j are
    the closed-form `admissible_range` of the m and of the n components;
    each is mapped to the sector of its label class.  No numpy is used.
    Fusion is commutative, so products[i][j] and products[j][i] are one
    tuple, computed once.  Models over ``MAX_FUSION_CELLS`` raise
    CapacityError (``check_fusion_cells``) before any sector is listed.
    """
    check_fusion_cells(params)
    p, q = params.p, params.q
    secs = sectors(params)
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


@dataclass(frozen=True, eq=False)
class VerlindeAlgebra:
    """The rational algebra on sectors whose product is given by the fusion rules.

    Basis vectors are the sectors in canonical order; the basis element of
    sector (1,1) is the multiplicative identity.
    """

    tensor: FusionTensor

    @property
    def n(self) -> int:
        return self.tensor.n

    @property
    def structure_constants(self) -> np.ndarray:
        return self.tensor.coefficients


def verlinde_algebra(tensor: FusionTensor) -> VerlindeAlgebra:
    """The Verlinde algebra generated by a fusion tensor."""
    return VerlindeAlgebra(tensor=tensor)

