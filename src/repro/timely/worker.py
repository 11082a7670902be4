"""Deterministic record-to-worker sharding.

Timely Dataflow distributes the records of a stream across workers using a
hash of an exchange key. We reproduce that with a stable hash so that work
attribution (and therefore simulated parallel time) is reproducible across
runs and machines — Python's built-in ``hash`` is salted for strings, so we
roll a small FNV-1a instead.
"""

from __future__ import annotations

from typing import Any

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash(value: Any) -> int:
    """Return a 64-bit hash that is stable across processes.

    Supports the record components used by the engine: ints, strings,
    booleans, floats, bytes, None, frozensets, and (nested) tuples
    thereof. Simulated sharding, and with it ``parallel_time``, depends on
    this being identical in every interpreter — never fall back to the
    salted built-in ``hash``, and never depend on an iteration order that
    the string hash seed can perturb (see the frozenset branch).
    """
    if isinstance(value, bool):
        return 0x9E3779B97F4A7C15 if value else 0x2545F4914F6CDD1D
    if isinstance(value, int):
        # Avalanche small ints so consecutive vertex ids spread over workers.
        h = (value ^ (value >> 33)) & _MASK
        h = (h * 0xFF51AFD7ED558CCD) & _MASK
        h ^= h >> 33
        return h
    if isinstance(value, float):
        # Keys that compare equal must hash equal regardless of numeric
        # type: a vertex id arriving as 3.0 (e.g. parsed from a weighted
        # CSV column) must land on the same worker as the int 3, and
        # -0.0 == 0.0 must not split across shards via their distinct hex
        # spellings ('-0x0.0p+0' vs '0x0.0p+0').
        if value.is_integer():
            return stable_hash(int(value))
        return stable_hash(value.hex())
    if value is None:
        return 0x6A09E667F3BCC908
    if isinstance(value, str):
        h = _FNV_OFFSET
        for byte in value.encode("utf-8"):
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK
        return h
    if isinstance(value, bytes):
        # Domain-separate from str so b"abc" and "abc" don't collide
        # systematically.
        h = (_FNV_OFFSET * _FNV_PRIME) & _MASK
        for byte in value:
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK
        return h
    if isinstance(value, tuple):
        h = _FNV_OFFSET
        for item in value:
            h ^= stable_hash(item)
            h = (h * _FNV_PRIME) & _MASK
        return h
    if isinstance(value, frozenset):
        # A frozenset's iteration order (and hence its repr) follows the
        # built-in hash, which is seeded per process for strings — the old
        # repr fallback silently sharded {"a", "b"} differently under
        # different PYTHONHASHSEEDs. Fold with XOR, which is order
        # insensitive, then avalanche through the int branch.
        h = 0
        for item in value:
            h ^= stable_hash(item)
        return stable_hash(h)
    # Fall back to the repr for exotic-but-hashable records.
    return stable_hash(repr(value))


def shard_for(key: Any, workers: int) -> int:
    """Assign ``key`` to one of ``workers`` workers (hash partitioning)."""
    if workers <= 1:
        return 0
    return stable_hash(key) % workers


def canonical_order_key(value: Any) -> tuple:
    """A total-order sort key for (nested) records of mixed types.

    Sorting by ``repr`` is not canonical: ``3`` and ``3.0`` compare equal
    (and :func:`stable_hash` hashes them equal) but repr differently, and
    int/str record components interleave by accidents of their repr text
    (``'(10'`` sorts before ``'(9'``). This key ranks by type class first
    and compares numbers by numeric value, so equal-comparing records of
    different numeric spelling order identically and heterogeneous
    records have one stable, meaningful order everywhere outputs are
    rendered.
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (4, value)
    if isinstance(value, (tuple, list)):
        return (5, tuple(canonical_order_key(item) for item in value))
    if isinstance(value, frozenset):
        return (6, tuple(sorted(canonical_order_key(item)
                                for item in value)))
    return (7, repr(value))
