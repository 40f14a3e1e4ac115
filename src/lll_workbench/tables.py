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

from .graphs import InputError

#: every sample is k / SCALE for 64 hashed bits k
SCALE = 1 << 64


def _key(seed: int | str, *position) -> bytes:
    return ":".join(str(x) for x in (seed, *position)).encode()


def unit_bits(seed: int | str, *position) -> int:
    """64 uniform bits for a (seed, position) key: the sample is their value
    over SCALE."""
    return int.from_bytes(hashlib.blake2b(_key(seed, *position), digest_size=8).digest(), "big")


def row_states(n: int):
    """The row states of a table over n variables, as a function of the seed.

    Entry (j, k) is unit_bits(seed, "x", j, k), the blake2b digest of the key
    "{seed}:x:{j}:{k}". The returned function gives, for a seed, the list
    whose item j is a blake2b state fed with row j's prefix "{seed}:x:{j}:"
    (one copy of a state fed with "{seed}:x:"), item 0 being None, so that
    rows index by variable. A column is read by copying the row's state and
    feeding it b"%d" % k. The rows' suffixes b"{j}:" are formatted once, here,
    and every seed the function is called with reuses them."""
    suffixes = [b"%d:" % j for j in range(1, n + 1)]

    def states(seed: int | str) -> list:
        base = hashlib.blake2b((str(seed) + ":x:").encode(), digest_size=8)  # as _key joins it
        rows: list = [None]
        for suffix in suffixes:
            row = base.copy()
            row.update(suffix)
            rows.append(row)
        return rows

    return states


class ResamplingTable:
    """Row per variable, infinitely many columns of i.i.d. samples.

    Column 1 seeds the initial assignment; resampling a variable advances its
    row cursor. rows are the row states of row_states, which also lays out
    the keys: `draw(j, k)` copies row j's state, feeds it the column and
    returns those 64 bits, as the engine's loop does inline. `entry(j, k)` is
    the variable's value at that draw, its value(k). The states are the
    table's only storage, one per row, freed with the table.
    """

    def __init__(self, variables, seed: int | str):
        self.variables = tuple(variables)
        self.seed = seed
        self.rows = tuple(row_states(len(self.variables))(seed))

    def draw(self, j: int, k: int) -> int:
        """Unchecked: 1 <= j <= len(variables) and k >= 1 are the caller's."""
        h = self.rows[j].copy()
        h.update(b"%d" % k)
        return int.from_bytes(h.digest(), "big")

    def entry(self, j: int, k: int):
        if not (1 <= j <= len(self.variables) and k >= 1):
            raise InputError(f"table position ({j},{k}) out of range")
        return self.variables[j - 1].value(self.draw(j, k))


class FixedTable:
    """Finite table given explicitly, keyed as its entry() reads are: (j, k)
    for a resampling table, ((i, i2), k) with i < i2 for an auxiliary one.
    Used to enumerate small sample spaces."""

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def entry(self, *key):
        try:
            return self.entries[key]
        except KeyError:
            raise InputError(f"fixed table has no entry {key}") from None
