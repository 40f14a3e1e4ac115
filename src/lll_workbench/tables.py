"""Seeded lazy tables of precomputed randomness.

Entries are pure functions of (seed, position): a counter-based construction
hashes the key "seed:position..." with blake2b into 64 uniform bits, so any
access order, any worker count, and any table reconstruction yield identical
values. A resampling table keeps one blake2b state per row, already fed with
the row's key prefix, and copies it for each column it reads; that gives the
same bits as hashing the whole key afresh.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .graphs import InputError

#: every sample is k / SCALE for 64 hashed bits k
SCALE = 1 << 64


def _key(seed: int | str, *position) -> bytes:
    return ":".join(str(x) for x in (seed, *position)).encode()


def unit_bits(seed: int | str, *position) -> int:
    """The 64 uniform bits behind unit_fraction(seed, *position)."""
    return int.from_bytes(hashlib.blake2b(_key(seed, *position), digest_size=8).digest(), "big")


def unit_fraction(seed: int | str, *position) -> Fraction:
    """Deterministic dyadic sample in [0, 1) for a (seed, position) key."""
    return Fraction(unit_bits(seed, *position), SCALE)


class ResamplingTable:
    """Row per variable, infinitely many columns of i.i.d. samples.

    Column 1 seeds the initial assignment; resampling a variable advances its
    row cursor. Entry (j, k) is unit_bits(seed, "x", j, k), the blake2b digest
    of the key "{seed}:x:{j}:{k}". rows[j] is a blake2b state fed with row j's
    prefix "{seed}:x:{j}:" (one copy of a state fed with "{seed}:x:"), and
    rows[0] is None, so that rows index by variable. A column is read by
    copying the row's state and feeding it b"%d" % k: `draw(j, k)` returns
    those 64 bits, and the engine's loop does the same inline. `entry(j, k)`
    is the variable's value at that draw, its value(k). The states
    are the table's only storage, one per row, freed with the table.
    """

    def __init__(self, variables, seed: int | str):
        self.variables = tuple(variables)
        self.seed = seed
        base = hashlib.blake2b((str(seed) + ":x:").encode(), digest_size=8)  # as _key joins it
        rows: list = [None]
        for j in range(1, len(self.variables) + 1):
            row = base.copy()
            row.update(b"%d:" % j)
            rows.append(row)
        self.rows = tuple(rows)

    def draw(self, j: int, k: int) -> int:
        """Unchecked: 1 <= j <= len(variables) and k >= 1 are the caller's."""
        h = self.rows[j].copy()
        h.update(b"%d" % k)
        return int.from_bytes(h.digest(), "big")

    def entry(self, j: int, k: int):
        if not (1 <= j <= len(self.variables) and k >= 1):
            raise InputError(f"table position ({j},{k}) out of range")
        return self.variables[j - 1].value(self.draw(j, k))


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
