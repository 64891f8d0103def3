"""Every numpy array of the package: the support of pair counts, the pair
scan behind cover verification, and the two arrays the other modules hold.

This is the one module that imports numpy, so the array format is decided
here alone.  ``label_array`` builds a ``CoverMap``'s ``sector_indices``
from its labels and ``fusion_array`` a model tensor's structure constants
D, over sectors ``minimal_model.sectors`` has listed, so N <= 256.  Labels
themselves, the canonical map's too, are plain Python.  The rest of this
module counts.

Whether a labeled group G covers a fusion tensor is a statement about all
|G|^2 ordered pairs (g1, g2): each pair must land on an admissible sector
triple (closure), and every admissible triple must be realized by some pair
(coverage).  Both are read off the support of the pair counts

    C[i, j, k] = #{(g1, g2) : g1 in P_i, g2 in P_j, g1 + g2 in P_k},

where P_i is the set of elements labeled by sector i.  ``pair_support``
computes C without visiting pairs: with F_i the Fourier transform of the
indicator of P_i over G,

    C[i, j, k] = (1/|G|) * sum over characters chi of F_i(chi) F_j(chi) conj(F_k(chi)).

G is abelian, so C[i, j, k] = C[j, i, k]: only the sums for j >= i are
held, and each row is rounded to integers, checked, and written into the
support at (i, j) and (j, i) as it is read; no N^3 array of counts is
held.  For a 2-group the transform is the Walsh-Hadamard transform,
integer valued: the (N, |G|) matrix is held exactly in float32, and the sum
over characters, taken a block of characters at a time in float64, is
exact while |G| <= 2^17 (``MAX_COUNT_ORDER``).  Other groups take complex
FFTs in place in one complex128 matrix.  Every result is checked: each
count must lie within 1/4 of an integer, none may be negative, and the row
sums must be those of pair counts.  ``certificates.CoverMap.support`` wraps
the support in a ``FusionTensor``; the multiplicities themselves are left
to the tests' oracles.  The canonical cover is never counted and never
scanned: its support is proved by ``two_group_cover.check_su2_levels`` and
is the model's fusion tensor itself, so a canonical PASS does not load this
module, nor numpy.
``check_count_size`` refuses, before anything is allocated, a group above
2^17, more than 256 sectors (the raw pair sums hold about N^3 / 2
entries), and a transform matrix over ``MAX_TRANSFORM_BYTES``; the
group-file parser runs the same check at a file's header.

The row scan only names the witness: run when a map's support holds a
triple the fusion tensor does not, ``first_violation`` visits the pairs in
canonical order (g1 ascending, then g2) on one thread, one row g1 against
every g2 at a time, and returns at the first row holding a violation.
Groups whose factors are all 2 add element codes by XOR, others add
mixed-radix digits.
"""

from __future__ import annotations

from math import prod
from typing import TYPE_CHECKING, Sequence

import numpy as np

# ``scan_stats`` is bound here too: ``perfbench/tracing.py`` wraps it under
# this module's name.
from .certificates import scan_stats  # noqa: F401
from .errors import CapacityError, CountCheckError
from .minimal_model import MAX_FUSION_CELLS

if TYPE_CHECKING:
    import numpy.typing as npt

    from .minimal_model import Sector

# numba is not used; everything here is numpy.
HAVE_NUMBA = False

# Largest group order whose pair counts are exact in float64 (see
# ``pair_support``), and largest (N, |G|) transform matrix, in bytes, that
# ``pair_support`` allocates: 2^17 elements of a 2-group at N = 256 in
# float32, or 2^15 elements of any other group at N = 256 in complex128.
MAX_COUNT_ORDER = 1 << 17
MAX_TRANSFORM_BYTES = 1 << 27

# Characters per block of the row products in ``pair_support``: the scratch
# beside the transform matrix is a few (N, _BLOCK) float64 or complex128
# arrays.
_BLOCK = 1 << 10


def label_array(labels: Sequence[int]) -> np.ndarray:
    """A map's labels as the read-only int64 array ``CoverMap.sector_indices``."""
    arr = np.array(labels, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _admissible(p: int, a: int, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether (a, b, c) is p-admissible, broadcast over label arrays b and c.

    The closed form behind ``minimal_model.admissible_range``: c is admissible iff
    lo <= c <= hi and c = lo (mod 2), with lo = |a-b|+1 and
    hi = min(a+b, 2p-a-b)-1.  Every label must lie strictly between 0 and p.
    """
    lo = np.abs(a - b) + 1
    hi = np.minimum(a + b, 2 * p - a - b) - 1
    return (lo <= c) & (c <= hi) & ((lo & 1) == (c & 1))


def fusion_array(p: int, q: int, secs: Sequence[Sector]) -> np.ndarray:
    """The read-only bool array D of ``minimal_model._ModelTensor.coefficients``.

    Row i is built at once from the closed-form admissibility range of the
    m and the n components, broadcast over (j, k), so scratch memory stays
    O(N^2) beside the N^3-byte result.  The sectors are listed by
    ``minimal_model.sectors``, which refuses more than 256 of them.
    """
    # Labels of k as a row and of j as a column.  N <= 256 keeps p, q <= 513,
    # so int16 holds every sum below.
    m_k = np.array([s.m for s in secs], dtype=np.int16)
    n_k = np.array([s.n for s in secs], dtype=np.int16)
    m_j, n_j = m_k[:, None], n_k[:, None]
    m_r, n_r = p - m_k, q - n_k
    coeff = np.empty((len(secs),) * 3, dtype=bool)
    for i, si in enumerate(secs):
        direct = _admissible(p, si.m, m_j, m_k) & _admissible(q, si.n, n_j, n_k)
        reflected = _admissible(p, si.m, m_j, m_r) & _admissible(q, si.n, n_j, n_r)
        coeff[i] = direct | reflected
    coeff.setflags(write=False)
    return coeff


def active_backend() -> str:
    """The scan backend in effect: always ``"numpy"``."""
    return "numpy"


def check_count_size(n_sectors: int, factors: tuple[int, ...]) -> None:
    """Refuse pair counts that would not be exact or whose sums are too big.

    A group above ``MAX_COUNT_ORDER`` is refused first.  Then so are more
    than 256 sectors, N^3 > ``MAX_FUSION_CELLS``: the raw sums of
    ``pair_support`` hold about N^3 / 2 entries, at N = 256 within 64 MiB
    as float64, or 128 MiB as complex128.  Then so is a group whose
    (N, |G|) transform matrix, float32 when every factor is 2 and
    complex128 otherwise, is over ``MAX_TRANSFORM_BYTES``.
    """
    order = prod(factors)
    if order > MAX_COUNT_ORDER:
        raise CapacityError(
            f"a group of order {order} is above {MAX_COUNT_ORDER} (2^17), the largest "
            f"order whose pair counts are exact; no option lifts this limit"
        )
    if n_sectors ** 3 > MAX_FUSION_CELLS:
        raise CapacityError(
            f"the pair counts over N = {n_sectors} sectors are above the budget of "
            f"{MAX_FUSION_CELLS} cells (N <= 256); no option lifts this limit"
        )
    size = n_sectors * order * (4 if all(k == 2 for k in factors) else 16)
    if size > MAX_TRANSFORM_BYTES:
        raise CapacityError(
            f"the pair counts of a group of order {order} over {n_sectors} sectors need "
            f"a transform matrix of {size} bytes ({size / 2**20:.1f} MiB), over the bound "
            f"of {MAX_TRANSFORM_BYTES} bytes ({MAX_TRANSFORM_BYTES >> 20} MiB); "
            f"no option lifts this limit"
        )


def _transform(x: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Fourier transform of each row of x over Z_k1 x ... x Z_kt.

    Columns are big-endian mixed-radix element codes, so the column axis
    reshapes in C order to the factor shape, first factor slowest.  A
    length-2 axis gets the real butterfly (x0 + x1, x0 - x1), i.e. the
    Walsh-Hadamard transform; any other axis gets an FFT, and x must then
    be complex128.  Every axis is transformed in place.  x must be
    C-contiguous.
    """
    rows, size = x.shape
    lead = 1
    for k in factors:
        v = x.reshape(rows * lead, k, size // (lead * k))
        if k == 2:
            a, b = v[:, 0], v[:, 1]
            a += b
            b *= -2
            b += a
        else:
            np.fft.fft(v, axis=1, out=v)
        lead *= k
    return x


def _rounded_support(raw: list[np.ndarray], order: int, sizes: np.ndarray) -> np.ndarray:
    """The read-only bool support of raw sums, or raise unless they are plainly counts.

    ``raw[a]`` holds |G| C[a, j, k] for j >= a, the rows the transform
    computes.  Each is rounded to integer counts (exact in float64, as each
    is at most |G|^2 <= 2^34) and dropped from the list, and support[a, a:]
    and support[a:, a] are set where its counts are nonzero, as
    C[j, a, k] = C[a, j, k]; so the scratch beside the raw sums and the
    result is a row or two.  Three checks hold the rounding to counts:
    every entry lies within 1/4 of an integer, complex part included
    (raised after all rows); no count is negative; and
    sum_j C[i, j, k] = |P_i| |P_k| with ``sizes[i]`` = |P_i|, since g1 in
    P_i and g1 + g2 in P_k fix g2.  The row sums are accumulated in an
    (N, N) ``marginal``: row a adds its sum over j to marginal[a], and its
    C[a, j, k] to marginal[j, k] for each j > a.  With the signs, the row
    sums give the total |G|^2 and catch a pair moved between rows.
    """
    n = len(raw)
    support = np.empty((n, n, n), dtype=bool)
    marginal = np.zeros((n, n))
    err, lows = 0.0, []
    for a in range(n):
        row = raw.pop(0) / order
        counts = np.rint(row.real)
        err = max(err, float(np.abs(row - counts).max()))
        lows.append(counts.min())
        marginal[a] += counts.sum(axis=0)
        marginal[a + 1:] += counts[1:]
        support[a, a:] = support[a:, a] = counts != 0
    if err > 0.25:
        raise CountCheckError(f"pair counts failed their check: largest rounding error {err:.3g}")
    off = np.count_nonzero(marginal != np.multiply.outer(sizes, sizes))
    if off or min(lows) < 0:
        raise CountCheckError(
            f"pair counts failed their check: {off} row sums off |P_i| |P_k|, "
            f"smallest count {int(min(lows))}"
        )
    support.setflags(write=False)
    return support


def pair_support(sec: npt.ArrayLike, n_sectors: int, factors: tuple[int, ...]) -> np.ndarray:
    """The sector triples a labeled group Z_k1 x ... x Z_kt realizes.

    ``sec[g]`` is the sector of the element with big-endian mixed-radix
    code g (for Z_2^t this code is also the XOR coset value), and
    ``factors`` are k1..kt.  Returns the read-only bool (n, n, n) array of
    where the pair counts C[i, j, k] are nonzero, symmetric in i, j, as G
    is abelian.  The transform matrix F is float32 when every factor is 2
    and complex128 otherwise, transformed in place.  The sum over
    characters is taken ``_BLOCK`` characters at a time: each block of F is
    widened to float64 (or kept complex128), and row i adds the matrix
    product (F_i F_j)_j>=i @ conj(F)^T of the block into its own (n - i, n)
    array.  So the scratch beside F is O(n * _BLOCK), not a second (n, |G|)
    array.  The largest scratch is the raw sums, about n^3 / 2 float64 (or
    complex128) entries, with n <= 256 (``check_count_size``);
    ``_rounded_support`` rounds and checks each row, writes its support and
    frees it, so no n^3 array of counts is held.

    Exactness: for a 2-group each partial sum of the butterfly on a 0/1 row
    is an integer of magnitude at most |G| <= 2^17 < 2^24, so float32 holds
    F exactly.  Every F_i(chi) is an integer with |F_i(chi)| <= |P_i|, and
    by Parseval sum_chi |F_i(chi)|^2 = |G| |P_i|.  Any partial sum of the
    triple products, whatever the blocks, is therefore an integer of
    magnitude at most max|F_k| * sqrt(sum|F_i|^2 * sum|F_j|^2) <= |G|^3,
    which float64 holds exactly while |G|^3 <= 2^53, i.e. |G| <= 2^17.  So
    the counts of a 2-group are exact in any summation order; other groups
    take complex FFTs and rely on the rounding, sign and row-sum checks.
    Groups refused by ``check_count_size`` raise CapacityError before
    anything is allocated; counts failing a check raise CountCheckError.
    """
    order = len(sec)
    factors = tuple(int(k) for k in factors)
    if prod(factors) != order:
        raise ValueError(f"factors {factors} do not give a group of order {order}")
    check_count_size(n_sectors, factors)
    real = all(k == 2 for k in factors)
    sec = np.asarray(sec, dtype=np.int64)
    sizes = np.bincount(sec, minlength=n_sectors)
    f = np.zeros((n_sectors, order), dtype=np.float32 if real else np.complex128)
    f[sec, np.arange(order)] = 1
    del sec  # the caller keeps its labels: no second copy sits beside the sums
    f = _transform(f, factors)
    raw = [np.zeros((n_sectors - a, n_sectors), dtype=np.float64 if real else np.complex128)
           for a in range(n_sectors)]
    for start in range(0, order, _BLOCK):
        block = f[:, start:start + _BLOCK]
        block = block.astype(np.float64) if real else np.ascontiguousarray(block)
        conj = (block if real else block.conj()).T
        for a, row in enumerate(raw):
            row += (block[a] * block[a:]) @ conj
    del f, block, conj  # the rounding below reads raw alone
    return _rounded_support(raw, order, sizes)


def place_values(factors: tuple[int, ...]) -> np.ndarray:
    """Digit place values of big-endian mixed-radix codes (first factor slowest)."""
    return np.array([prod(factors[u + 1:]) for u in range(len(factors))], dtype=np.int64)


def decode(codes: npt.ArrayLike, factors: tuple[int, ...]) -> np.ndarray:
    """The digits of element codes: an int64 array of shape codes.shape + (t,)."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes[..., None] // place_values(factors) % np.asarray(factors, dtype=np.int64)


def _scan(sec, n, d_flat, add_row):
    """Scan rows g1 = 0, 1, ... against every g2 up to the first violation.

    ``add_row`` is the group law: it maps g1 to the codes g1 + g2 of every
    g2.  Returns ((g1, g2), g1 + 1) at the first violation, or ((-1, -1), |G|).
    """
    sec = np.ascontiguousarray(sec, dtype=np.int64)
    planes = np.ascontiguousarray(d_flat).reshape(n, n * n)
    sec_n = sec * n
    for g1 in range(sec.shape[0]):
        idx = sec.take(add_row(g1))
        idx += sec_n
        ok = planes[sec[g1]].take(idx)
        if not ok.all():
            return (g1, int(np.argmin(ok))), g1 + 1
    return (-1, -1), sec.shape[0]


def scan_pairs_xor(
    sec: npt.ArrayLike, n_sectors: int, d_flat: np.ndarray
) -> tuple[tuple[int, int], int]:
    """The first closure violation of an XOR group of size len(sec).

    sec maps each element to its sector index; d_flat is the admissibility
    tensor, flat or (n, n, n).  Returns ((g1, g2) of the first violation in
    canonical order, or (-1, -1) if none), and the number of rows g1 scanned.
    """
    g2 = np.arange(len(sec), dtype=np.int64)
    return _scan(sec, n_sectors, d_flat, lambda g1: g2 ^ g1)


def scan_pairs_group(
    digits: npt.ArrayLike,
    radices: npt.ArrayLike,
    sec: npt.ArrayLike,
    n_sectors: int,
    d_flat: np.ndarray,
) -> tuple[tuple[int, int], int]:
    """The first closure violation of a finite abelian group in digits.

    digits has shape (|G|, t) with row g the digits (``decode``) of element g
    in Z_{radices[0]} x ... x Z_{radices[t-1]}.  Results are as for
    ``scan_pairs_xor``.  Digit u of g1 + g2 wraps, taking k_u * place_u off
    code(g1) + code(g2), where the digit of g2 is >= k_u less that of g1.
    """
    digits = np.asarray(digits, dtype=np.int64)
    places = place_values(radices)
    codes, columns = digits @ places, np.ascontiguousarray(digits.T)

    def add_row(g1):
        row = codes + codes[g1]
        for digit, k, place, column in zip(digits[g1].tolist(), radices, places, columns):
            if digit:
                row -= (column >= k - digit) * (k * place)
        return row

    return _scan(sec, n_sectors, d_flat, add_row)


def first_violation(
    sec: npt.ArrayLike, n_sectors: int, d_flat: np.ndarray, factors: tuple[int, ...]
) -> tuple[int, int, int] | None:
    """The codes (g1, g2, g1 + g2) of the first closure violation, or None.

    ``sec[g]`` is the sector of code g in Z_k1 x ... x Z_kt (``factors``).
    XOR on big-endian codes is digit addition when every factor is 2.
    """
    if all(k == 2 for k in factors):
        (g1, g2), _ = scan_pairs_xor(sec, n_sectors, d_flat)
        return None if g1 < 0 else (g1, g2, g1 ^ g2)
    digits = decode(np.arange(len(sec)), factors)
    (g1, g2), _ = scan_pairs_group(digits, factors, sec, n_sectors, d_flat)
    if g1 < 0:
        return None
    return g1, g2, int((digits[g1] + digits[g2]) % np.asarray(factors) @ place_values(factors))


def first_uncovered_triple(
    d_flat: np.ndarray, support: np.ndarray, n: int
) -> tuple[int, int, int] | None:
    """First (i, j, k) in canonical order that is admissible but has no pair.

    ``d_flat``, the admissibility tensor, and ``support``, a map's, are each
    0 or 1, both flat or both (n, n, n), so the triple is where
    d_flat > support.
    """
    missing = d_flat > support
    if not missing.any():
        return None
    i, j, k = np.unravel_index(int(np.argmax(missing)), (n, n, n))
    return int(i), int(j), int(k)
