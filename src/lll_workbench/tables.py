"""Seeded lazy tables of precomputed randomness.

Entries are pure functions of (seed, position): a counter-based construction
hashes the position into 64 uniform bits, so any access order, any worker
count, and any table reconstruction yield identical values.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .graphs import InputError

#: every sample is k / SCALE for 64 hashed bits k
SCALE = 1 << 64


def _key(seed: int | str, *position) -> bytes:
    return ":".join(str(x) for x in (seed, *position)).encode()


def _bits(key: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def unit_bits(seed: int | str, *position) -> int:
    """The 64 uniform bits behind unit_fraction(seed, *position)."""
    return _bits(_key(seed, *position))


def unit_fraction(seed: int | str, *position) -> Fraction:
    """Deterministic dyadic sample in [0, 1) for a (seed, position) key."""
    return Fraction(unit_bits(seed, *position), SCALE)


class ResamplingTable:
    """Row per variable, infinitely many columns of i.i.d. samples.

    Column 1 seeds the initial assignment; resampling a variable advances its
    row cursor. `draw(j, k)` is the entry's 64 bits, the key unit_fraction
    hashes for (seed, "x", j, k); `entry(j, k)` is the value they give through
    the variable's distribution.
    """

    def __init__(self, variables, seed: int | str):
        self.variables = tuple(variables)
        self.seed = seed
        # the key of (seed, "x", j, k) is row j's prefix followed by k
        base = _key(seed, "x")
        self._rows = tuple(b"%s:%d:" % (base, j) for j in range(1, len(self.variables) + 1))

    def draw(self, j: int, k: int) -> int:
        """Unchecked: 1 <= j <= len(variables) and k >= 1 are the caller's."""
        return _bits(b"%s%d" % (self._rows[j - 1], k))

    def entry(self, j: int, k: int):
        if not (1 <= j <= len(self.variables) and k >= 1):
            raise InputError(f"table position ({j},{k}) out of range")
        return self.variables[j - 1].value_from_unit(Fraction(self.draw(j, k), SCALE))


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
