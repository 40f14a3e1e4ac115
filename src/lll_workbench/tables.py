"""Seeded lazy tables of precomputed randomness.

Entries are pure functions of (seed, position): a counter-based construction
hashes the position into 64 uniform bits, so any access order, any worker
count, and any table reconstruction yield identical values.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .graphs import InputError

_SCALE = 1 << 64


def unit_fraction(seed: int | str, *position) -> Fraction:
    """Deterministic dyadic sample in [0, 1) for a (seed, position) key."""
    key = ":".join(str(x) for x in (seed, *position)).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return Fraction(int.from_bytes(digest, "big"), _SCALE)


class ResamplingTable:
    """Row per variable, infinitely many columns of i.i.d. samples.

    Column 1 seeds the initial assignment; resampling a variable advances its
    row cursor. Values are drawn through the variable's distribution.
    """

    def __init__(self, variables, seed: int | str):
        self.variables = tuple(variables)
        self.seed = seed

    def entry(self, j: int, k: int):
        if not (1 <= j <= len(self.variables) and k >= 1):
            raise InputError(f"table position ({j},{k}) out of range")
        return self.variables[j - 1].value_from_unit(unit_fraction(self.seed, "x", j, k))


class FixedResamplingTable:
    """Finite table given explicitly; used to enumerate small sample spaces."""

    def __init__(self, entries: dict[tuple[int, int], object]):
        self.entries = dict(entries)

    def entry(self, j: int, k: int):
        try:
            return self.entries[(j, k)]
        except KeyError:
            raise InputError(f"fixed table has no entry ({j},{k})") from None


class FixedAuxiliaryTable:
    """Explicit finite auxiliary table for exhaustive enumeration."""

    def __init__(self, entries: dict[tuple[tuple[int, int], int], int]):
        self.entries = {((min(p), max(p)), k): v for (p, k), v in entries.items()}

    def entry(self, pair: tuple[int, int], k: int) -> int:
        key = ((min(pair), max(pair)), k)
        try:
            return self.entries[key]
        except KeyError:
            raise InputError(f"fixed auxiliary table has no entry {key}") from None
