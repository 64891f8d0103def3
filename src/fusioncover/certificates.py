"""Machine-checkable verdicts for fusion-cover verification.

A certificate is either a PASS, or a FAIL carrying a concrete witness that
can be re-checked independently of the verifier that produced it: a pair of
group elements whose sum lands outside the admissible triples (closure
violation), or an admissible sector triple no pair of elements realizes
(uncovered triple).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Callable, Sequence, Union

import numpy as np

from . import _kernels
from .errors import CountCheckError
from .minimal_model import FusionTensor, Sector

PASS = "PASS"
FAIL = "FAIL"

# Group elements in witnesses are ints (cosets of a 2-group quotient) or
# digit tuples (general abelian groups).
Element = Union[int, tuple]


@dataclass(frozen=True)
class ClosureViolation:
    """Elements g1 + g2 = g3 whose sector triple is not admissible."""

    g1: Element
    g2: Element
    g3: Element
    sectors: tuple[Sector, Sector, Sector]

    def describe(self, element_str: Callable[[Element], str] = str) -> str:
        i, j, k = self.sectors
        g1, g2, g3 = (element_str(g) for g in (self.g1, self.g2, self.g3))
        return (
            f"{g1} + {g2} = {g3} maps to {i.name} x {j.name} -> {k.name}, "
            f"but {k.name} does not occur in {i.name} x {j.name}"
        )


@dataclass(frozen=True)
class UncoveredTriple:
    """An admissible sector triple realized by no pair g1 + g2 = g3."""

    sectors: tuple[Sector, Sector, Sector]

    def describe(self, element_str: Callable[[Element], str] = str) -> str:
        """The witness names no elements, so ``element_str`` is not used."""
        i, j, k = self.sectors
        return (
            f"admissible triple {i.name} x {j.name} -> {k.name} is realized by "
            f"no pair of group elements"
        )


Witness = Union[ClosureViolation, UncoveredTriple]


@dataclass(frozen=True)
class CoverCertificate:
    """PASS/FAIL verdict of a cover check, with witness on FAIL and scan stats."""

    verdict: str
    witness: Witness | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in (PASS, FAIL):
            raise ValueError(f"verdict must be PASS or FAIL, got {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise ValueError("a FAIL certificate requires a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def certify(
    counts: np.ndarray,
    tensor: FusionTensor,
    factors: tuple[int, ...],
    labels: Callable[[], Sequence[int]],
    element: Callable[[int], Element],
) -> CoverCertificate:
    """The certificate of a labeled group Z_k1 x ... x Z_kt from its exact pair counts.

    ``counts`` are ``_kernels.pair_counts`` or ``two_group_cover.canonical_counts``,
    both checked to sum to |G|^2.  Only if they put a pair on an inadmissible
    triple is ``labels()``, the sector of every element code, read and
    ``_kernels.first_violation`` run; ``element`` turns the codes it names
    into the elements of the witness.  Coverage is read off the counts alone.
    """
    d_flat = tensor.coefficients.reshape(-1)
    realized = counts.reshape(-1)
    stats = _kernels.scan_stats(prod(factors), d_flat, realized)
    secs = tensor.sectors
    if realized[d_flat == 0].any():
        sec = labels()
        codes = _kernels.first_violation(sec, tensor.n, d_flat, factors)
        if codes is None:
            raise CountCheckError("the counts show a closure violation the pair scan does not")
        triple = tuple(secs[sec[g]] for g in codes)
        witness = ClosureViolation(*(element(g) for g in codes), triple)
        return CoverCertificate(FAIL, witness, stats)
    miss = _kernels.first_uncovered_triple(d_flat, realized, tensor.n)
    if miss is not None:
        i, j, k = miss
        return CoverCertificate(FAIL, UncoveredTriple((secs[i], secs[j], secs[k])), stats)
    return CoverCertificate(PASS, None, stats)
