"""The pair scan behind cover verification.

Verifying that a labeled group covers a fusion tensor requires scanning all
|G|^2 ordered pairs (g1, g2): each pair must land on an admissible sector
triple (closure), and the scan must record which sector triples are realized
at all (coverage / partition structure constants).  At the top of the
supported range |G| = 2^13, i.e. ~6.7e7 group additions, so this is the one
genuinely hot loop in the package.

One chunked numpy scan serves every group; only the group law differs:
cosets of a 2-group quotient are integers added by XOR, other finite
abelian groups are mixed-radix digit tuples added componentwise.

Each scan returns the *first* closure violation in canonical order (g1
ascending, then g2) plus the full realized-triple tensor, so certificates
are deterministic regardless of chunking or thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.typing as npt

# numba is not used; the scan is numpy only.
HAVE_NUMBA = False

# Elements per numpy work chunk; keeps per-chunk scratch around tens of MB.
_CHUNK_ELEMS = 1 << 22


def active_backend() -> str:
    """The scan backend in effect: always ``"numpy"``."""
    return "numpy"


def _scan(sec, n, d_flat, add_rows, row_cost, start, stop):
    """Scan rows g1 in [start, stop) against every g2.

    ``add_rows`` is the group law: it maps a block of g1 values to the
    (rows, |G|) block of sums g1 + g2.  ``row_cost`` is the int64 scratch it
    needs per pair and sets the chunk height.
    """
    size = sec.shape[0]
    sec_n = sec * n
    realized = np.zeros(n * n * n, dtype=np.uint8)
    first = (-1, -1)
    rows_per = max(1, _CHUNK_ELEMS // max(size * row_cost, 1))
    for a in range(start, stop, rows_per):
        b = min(a + rows_per, stop)
        g1 = np.arange(a, b, dtype=np.int64)
        idx = (sec_n[g1][:, None] + sec[None, :]) * n + sec[add_rows(g1)]
        realized[idx.reshape(-1)] = 1
        if first[0] < 0:
            bad = d_flat[idx] == 0
            if bad.any():
                r, c = divmod(int(np.argmax(bad)), size)
                first = (a + r, c)
    return first[0], first[1], realized


def _row_ranges(size: int, threads: int) -> list[tuple[int, int]]:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    threads = min(threads, size) if size else 1
    bounds = np.linspace(0, size, threads + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(threads)]


def _pool_size(partitions: int) -> int:
    """Worker threads for the partitions: no more than the machine's CPUs."""
    return min(partitions, os.cpu_count() or 1)


def _run_scan(sec, n, d_flat, add_rows, row_cost, threads):
    """Scan all pairs over row partitions and merge deterministically.

    The merged first violation is the one with the smallest (g1, g2); since
    ranges partition ascending g1, the earliest range that reports one wins.
    """
    sec = np.ascontiguousarray(sec, dtype=np.int64)
    d_flat = np.ascontiguousarray(d_flat, dtype=np.uint8)
    ranges = _row_ranges(len(sec), threads)
    with ThreadPoolExecutor(max_workers=_pool_size(len(ranges))) as pool:
        results = pool.map(lambda se: _scan(sec, n, d_flat, add_rows, row_cost, *se), ranges)
        first = (-1, -1)
        realized = np.zeros(n * n * n, dtype=np.uint8)
        for fg1, fg2, part in results:
            np.maximum(realized, part, out=realized)
            if first[0] < 0 and fg1 >= 0:
                first = (int(fg1), int(fg2))
    return first, realized


def scan_pairs_xor(
    sec: npt.ArrayLike,
    n_sectors: int,
    d_flat: np.ndarray,
    threads: int = 1,
) -> tuple[tuple[int, int], np.ndarray]:
    """All-pairs scan of an XOR group of size len(sec).

    sec maps each element to its sector index; d_flat is the flattened
    admissibility tensor.  Returns ((g1, g2) of the first closure violation,
    or (-1, -1) if none), and the flattened realized-triple tensor.
    """
    g2 = np.arange(len(sec), dtype=np.int64)
    return _run_scan(sec, n_sectors, d_flat, lambda g1: g1[:, None] ^ g2, 1, threads)


def scan_pairs_group(
    digits: npt.ArrayLike,
    radices: npt.ArrayLike,
    sec: npt.ArrayLike,
    n_sectors: int,
    d_flat: np.ndarray,
    threads: int = 1,
) -> tuple[tuple[int, int], np.ndarray]:
    """All-pairs scan of a finite abelian group given by mixed-radix digits.

    digits has shape (|G|, t) with row g the digit tuple of element g in the
    group Z_{radices[0]} x ... x Z_{radices[t-1]}; element codes follow the
    big-endian mixed-radix order used throughout (first factor slowest).
    """
    digits = np.asarray(digits, dtype=np.int64)
    radices = np.asarray(radices, dtype=np.int64)
    t = len(radices)
    places = np.ones(t, dtype=np.int64)
    for u in range(t - 2, -1, -1):
        places[u] = places[u + 1] * radices[u + 1]

    def add_rows(g1):
        return ((digits[g1][:, None, :] + digits[None, :, :]) % radices) @ places

    return _run_scan(sec, n_sectors, d_flat, add_rows, max(t, 1), threads)


def popcount(x: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned integer array."""
    return np.bitwise_count(x)


def scan_stats(size: int, d_flat: np.ndarray, realized: np.ndarray) -> dict:
    """Check counts reported in certificates produced from a pair scan."""
    return {
        "group_order": size,
        "pairs_checked": size * size,
        "admissible_triples": int(d_flat.sum()),
        "realized_triples": int(np.count_nonzero(realized)),
    }


def first_uncovered_triple(
    d_flat: np.ndarray, realized: np.ndarray, n: int
) -> tuple[int, int, int] | None:
    """First (i, j, k) in canonical order that is admissible but never realized."""
    missing = (d_flat != 0) & (realized == 0)
    if not missing.any():
        return None
    i, j, k = np.unravel_index(int(np.argmax(missing)), (n, n, n))
    return int(i), int(j), int(k)
