"""Segment data model for generic tempered representations of GL_m over the
quadratic extension, their conductors, unramified parts, and Satake-parameter
symmetry predicates."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .numerics import ensure_finite

#: relative tolerance within which a parameter matches an inverse
SELFDUAL_REL_TOL = 1e-10


@dataclass(frozen=True)
class SatakeSet:
    """Multiset of nonzero complex parameters of an unramified representation,
    together with the residue size of its base field."""

    params: tuple[complex, ...]
    base: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(complex(a) for a in self.params))
        for a in self.params:
            ensure_finite(a)
            if a == 0:
                raise ValueError("Satake parameters must be nonzero")
        if self.base < 2:
            raise ValueError("base must be >= 2")

    def __len__(self) -> int:
        return len(self.params)

    def __iter__(self) -> Iterator[complex]:
        return iter(self.params)


@dataclass(frozen=True)
class UnramChar:
    """Unramified character of the extension field, recorded by its value
    at a uniformizer."""

    alpha: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.alpha == 0:
            raise ValueError("character value at the uniformizer must be nonzero")


@dataclass(frozen=True)
class RamCusp:
    """Opaque ramified cuspidal support: only its dimension and conductor
    exponent enter any formula in scope."""

    dim: int
    cond: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.cond < 1:
            raise ValueError("ramified support needs conductor >= 1")


CuspSupport = Union[UnramChar, RamCusp]


@dataclass(frozen=True)
class Segment:
    base: CuspSupport
    length: int = 1

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("segment length must be >= 1")

    @property
    def rank(self) -> int:
        dim = 1 if isinstance(self.base, UnramChar) else self.base.dim
        return self.length * dim

    @property
    def conductor(self) -> int:
        # k*a(rho) + (k-1)*dim(rho^I); unramified characters have a=0 and a
        # one-dimensional inertia-fixed line, ramified cuspidals have none.
        k = self.length
        if isinstance(self.base, UnramChar):
            return k - 1
        return k * self.base.cond


@dataclass(frozen=True)
class GenericRep:
    """Generic representation given by its multiset of segments."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def rank(self) -> int:
        return sum(seg.rank for seg in self.segments)

    def conductor(self) -> int:
        return sum(seg.conductor for seg in self.segments)

    def is_ramified(self) -> bool:
        return self.conductor() > 0

    def unramified_part(self, q_e: int) -> SatakeSet:
        """The parameters of the unramified-character supports, ordered by
        decreasing real part of the exponent t with alpha = q_e^-t (i.e. by
        increasing modulus), ties broken deterministically."""
        alphas = [seg.base.alpha for seg in self.segments if isinstance(seg.base, UnramChar)]
        alphas.sort(key=lambda a: (abs(a), cmath.phase(a), a.real, a.imag))
        return SatakeSet(tuple(alphas), q_e)

    def to_json(self) -> dict:
        segs = []
        for seg in self.segments:
            if isinstance(seg.base, UnramChar):
                segs.append(
                    {"type": "unram", "alpha": [seg.base.alpha.real, seg.base.alpha.imag], "k": seg.length}
                )
            else:
                entry = {"type": "ram", "dim": seg.base.dim, "cond": seg.base.cond, "k": seg.length}
                if seg.base.label:
                    entry["label"] = seg.base.label
                segs.append(entry)
        return {"segments": segs}

    @classmethod
    def from_json(cls, data: dict) -> "GenericRep":
        segments = []
        for entry in data["segments"]:
            kind = entry["type"]
            k = int(entry.get("k", 1))
            if kind == "unram":
                re, im = entry["alpha"]
                segments.append(Segment(UnramChar(complex(re, im)), k))
            elif kind == "ram":
                segments.append(
                    Segment(RamCusp(int(entry["dim"]), int(entry["cond"]), entry.get("label", "")), k)
                )
            else:
                raise ValueError(f"unknown segment type {kind!r}")
        return cls(tuple(segments))


def _perfect_matching(adj: list[list[bool]]) -> bool:
    """Bipartite perfect matching via augmenting paths (sets are tiny)."""
    n = len(adj)
    match_to: list[int] = [-1] * n

    def try_augment(i: int, seen: list[bool]) -> bool:
        for j in range(n):
            if adj[i][j] and not seen[j]:
                seen[j] = True
                if match_to[j] == -1 or try_augment(match_to[j], seen):
                    match_to[j] = i
                    return True
        return False

    return all(try_augment(i, [False] * n) for i in range(n))


def is_conjugate_selfdual(s: SatakeSet | Sequence[complex]) -> bool:
    """True iff the multiset of parameters equals the multiset of their
    inverses, under bipartite pairing of values that agree to
    SELFDUAL_REL_TOL relative to the larger modulus."""
    params = tuple(s)
    if any(a == 0 for a in params):
        raise ValueError("parameters must be nonzero")
    inv = [1 / a for a in params]
    adj = [[abs(a - b) <= SELFDUAL_REL_TOL * max(abs(a), abs(b)) for b in inv] for a in params]
    return _perfect_matching(adj)


def selfdual_unit_defect(s: SatakeSet) -> str | None:
    """Why s is not conjugate-self-dual on the unit circle, the hypothesis
    of the edge-point identities, or None when it is."""
    if not is_conjugate_selfdual(s):
        return "parameters not conjugate-self-dual"
    if any(abs(abs(a) - 1) > 1e-9 for a in s):
        return "parameters not on the unit circle"
    return None
