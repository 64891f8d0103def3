"""Shared fixtures: model handles and the two published golden tables.

The c = 1/2 (Ising) and c = 7/10 (tricritical Ising) tables below are
transcribed from the literature and frozen here; several suites compare
computed output against them cell for cell.  Table rows/columns follow the
source's own sector order, which differs from this package's canonical
(lexicographic Kac label) order for c = 7/10.
"""

import subprocess
import sys
from math import gcd

import numpy as np
import pytest

from fusioncover import ModelParams, fusion_tensor

# Kac tables: rows m = 1..p-1, columns n = 1..q-1, exact fraction strings.
KNOWN_KAC = {
    (3, 4): [
        ["0", "1/16", "1/2"],
        ["1/2", "1/16", "0"],
    ],
    (4, 5): [
        ["0", "1/10", "3/5", "3/2"],
        ["7/16", "3/80", "3/80", "7/16"],
        ["3/2", "3/5", "1/10", "0"],
    ],
}

# Fusion tables as printed: a sector order and, per row, one entry list per
# cell.  Cell entries are compared as sets (the printed order inside a cell
# is not canonical).
KNOWN_FUSION = {
    (3, 4): {
        "order": ["[0]", "[1/16]", "[1/2]"],
        "cells": [
            [["[0]"], ["[1/16]"], ["[1/2]"]],
            [["[1/16]"], ["[0]", "[1/2]"], ["[1/16]"]],
            [["[1/2]"], ["[1/16]"], ["[0]"]],
        ],
    },
    (4, 5): {
        "order": ["[0]", "[3/5]", "[7/16]", "[3/80]", "[1/10]", "[3/2]"],
        "cells": [
            [["[0]"], ["[3/5]"], ["[7/16]"], ["[3/80]"], ["[1/10]"], ["[3/2]"]],
            [
                ["[3/5]"],
                ["[0]", "[3/5]"],
                ["[3/80]"],
                ["[3/80]", "[7/16]"],
                ["[1/10]", "[3/2]"],
                ["[1/10]"],
            ],
            [
                ["[7/16]"],
                ["[3/80]"],
                ["[0]", "[3/2]"],
                ["[1/10]", "[3/5]"],
                ["[3/80]"],
                ["[7/16]"],
            ],
            [
                ["[3/80]"],
                ["[3/80]", "[7/16]"],
                ["[1/10]", "[3/5]"],
                ["[0]", "[3/5]", "[3/2]", "[1/10]"],
                ["[7/16]", "[3/80]"],
                ["[3/80]"],
            ],
            [
                ["[1/10]"],
                ["[1/10]", "[3/2]"],
                ["[3/80]"],
                ["[7/16]", "[3/80]"],
                ["[0]", "[3/5]"],
                ["[3/5]"],
            ],
            [["[3/2]"], ["[1/10]"], ["[7/16]"], ["[3/80]"], ["[3/5]"], ["[0]"]],
        ],
    },
}

# The Z4 labeling of the Ising sectors and the Z12 labeling of the
# tricritical Ising sectors: the Kac label of each element, in code order.
Z4_ISING_LABELS = [(1, 1), (1, 2), (1, 3), (1, 2)]
Z12_TRICRITICAL_LABELS = [
    (1, 1), (2, 2), (1, 2), (2, 1), (1, 3), (2, 2),
    (1, 4), (2, 2), (1, 3), (2, 1), (1, 2), (2, 2),
]


def coprime_models(max_p: int, max_q: int, max_sum: int | None = None):
    """All ModelParams with 2 <= p < q within the bounds, gcd(p, q) = 1."""
    out = []
    for q in range(3, max_q + 1):
        for p in range(2, min(q, max_p + 1)):
            if gcd(p, q) == 1 and (max_sum is None or p + q <= max_sum):
                out.append(ModelParams(p, q))
    return out


def run_python_with_peak_rss(args, show_output=True, timeout=120):
    """Run ``python *args`` in a child; return its exit code, peak RSS in KiB
    and stdout lines.

    A wrapper process runs the child as its one child, so the wrapper's
    RUSAGE_CHILDREN is the child's own peak resident set: a child forked
    straight from the test process would report the test process's peak.
    """
    wrapper = (
        "import resource, subprocess, sys\n"
        "out = None if sys.argv[1] == 'show' else subprocess.DEVNULL\n"
        "code = subprocess.run(sys.argv[2:], stdout=out).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    show = "show" if show_output else "discard"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, show, sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    *out, last = proc.stdout.splitlines()
    code, max_rss_kib = map(int, last.split())
    return code, max_rss_kib, out


def exhaustive_scan(sec, n, d_flat, add_rows):
    """First closure violation and realized-triple tensor, from all |G|^2 pairs.

    The oracle for the witness scan and the support of the pair counts.
    ``add_rows`` maps a block of g1 values to the (rows, |G|) block of sums
    g1 + g2.  Returns ((g1, g2) of the first pair in canonical order on an
    inadmissible triple, or (-1, -1)), and the flattened uint8 tensor
    marking every realized triple.  Rows go in blocks of about 2^22 pairs.
    """
    sec = np.asarray(sec, dtype=np.int64)
    size = len(sec)
    realized = np.zeros(n**3, dtype=np.uint8)
    first = (-1, -1)
    step = max(1, (1 << 22) // size)
    for a in range(0, size, step):
        g1 = np.arange(a, min(a + step, size), dtype=np.int64)
        idx = ((sec[g1] * n)[:, None] + sec) * n + sec[add_rows(g1)]
        realized[idx.reshape(-1)] = 1
        bad = d_flat[idx] == 0
        if first[0] < 0 and bad.any():
            r, c = divmod(int(np.argmax(bad)), size)
            first = (a + r, c)
    return first, realized


def xor_rows(size):
    """``add_rows`` for the cosets of a 2-group quotient, added by XOR."""
    g2 = np.arange(size, dtype=np.int64)
    return lambda g1: g1[:, None] ^ g2


def group_rows(digits, radices):
    """``add_rows`` for mixed-radix digit tuples added componentwise."""
    digits = np.asarray(digits, dtype=np.int64)
    radices = np.asarray(radices, dtype=np.int64)
    places = np.array([np.prod(radices[u + 1:]) for u in range(len(radices))], dtype=np.int64)
    return lambda g1: ((digits[g1][:, None, :] + digits) % radices) @ places


@pytest.fixture(scope="session")
def ising():
    return ModelParams(3, 4)


@pytest.fixture(scope="session")
def tricritical():
    return ModelParams(4, 5)


@pytest.fixture(scope="session")
def ising_tensor(ising):
    return fusion_tensor(ising)


@pytest.fixture(scope="session")
def tricritical_tensor(tricritical):
    return fusion_tensor(tricritical)


def assert_matches_known_fusion(tensor, known):
    """Compare a fusion tensor cell-for-cell against a frozen printed table."""
    by_name = {s.name: s.index for s in tensor.sectors}
    order = [by_name[name] for name in known["order"]]
    for a, i in enumerate(order):
        for b, j in enumerate(order):
            got = {tensor.sectors[k].name for k in np.flatnonzero(tensor.coefficients[i, j])}
            expected = set(known["cells"][a][b])
            assert got == expected, (
                f"cell ({known['order'][a]}, {known['order'][b]}): "
                f"got {sorted(got)}, expected {sorted(expected)}"
            )
