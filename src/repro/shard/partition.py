"""Stable hash partitioning of the key space across engine shards.

The whole sharding story rests on one function: ``shard(key) -> index``.
It has to be

* **total** — every hashable key maps to exactly one shard in ``[0, P)``;
* **deterministic across processes** — Python salts ``hash(str)`` per
  interpreter (:envvar:`PYTHONHASHSEED`), so the builtin is unusable for a
  multiprocessing backend or for recovery (the re-fed suffix must route to
  the same shards as the crashed run); :func:`stable_hash` canonicalizes
  the key to bytes and digests it with BLAKE2b instead;
* **stable under resharding** — growing ``P`` shards to ``P + 1`` should
  move only the ``1/(P+1)`` of keys that land on the new shard, not
  reshuffle everything the way plain ``hash % P`` does.  The jump
  consistent hash (Lamping & Veach, "A Fast, Minimal Memory, Consistent
  Hash Algorithm") gives exactly that guarantee in a few integer ops.

All three properties are pinned by Hypothesis tests in
``tests/test_shard_properties.py``.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Any, Callable

from ..core.errors import ReproError

__all__ = ["stable_hash", "jump_hash", "HashPartitioner"]

_JUMP_MASK = (1 << 64) - 1


def _canonical_bytes(key: Any) -> bytes:
    """A process-independent byte encoding of a partition key.

    Distinct types get distinct tags so ``1``, ``1.0``, and ``"1"`` cannot
    collide by encoding (``1`` and ``True`` intentionally do: they are the
    same dict key in Python, and a partitioner that separated them would
    route "equal" keys to different shards).
    """
    if key is None:
        return b"N"
    if isinstance(key, bool):
        key = int(key)
    if isinstance(key, int):
        return b"i" + str(key).encode()
    if isinstance(key, float):
        if key != key:
            raise ReproError("NaN is not a usable partition key "
                             "(NaN != NaN breaks routing determinism)")
        if not math.isinf(key) and key == int(key):
            # 2.0 and 2 hash equal as dict keys; ±inf has no int form.
            return b"i" + str(int(key)).encode()
        return b"f" + struct.pack(">d", key)
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, bytes):
        return b"b" + key
    if isinstance(key, tuple):
        parts = [b"t", str(len(key)).encode(), b":"]
        for item in key:
            enc = _canonical_bytes(item)
            parts.append(str(len(enc)).encode())
            parts.append(b":")
            parts.append(enc)
        return b"".join(parts)
    if isinstance(key, frozenset):
        return b"F" + _canonical_bytes(tuple(
            sorted((_canonical_bytes(i).hex() for i in key))))
    raise ReproError(
        f"unsupported partition key type {type(key).__name__!r}: keys must "
        "be None/bool/int/float/str/bytes or tuples/frozensets of those")


def stable_hash(key: Any) -> int:
    """A 64-bit hash of ``key`` that is identical in every process."""
    digest = hashlib.blake2b(_canonical_bytes(key), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def jump_hash(h: int, buckets: int) -> int:
    """Jump consistent hash: map 64-bit ``h`` onto ``[0, buckets)``.

    Growing ``buckets`` by one relocates each key with probability exactly
    ``1/(buckets+1)``, and a relocated key always moves *to the new
    bucket* — the resharding-stability property the Hypothesis suite pins.
    """
    if buckets <= 0:
        raise ReproError(f"jump_hash needs a positive bucket count, "
                         f"got {buckets}")
    b, j = -1, 0
    while j < buckets:
        b = j
        h = (h * 2862933555777941757 + 1) & _JUMP_MASK
        j = int((b + 1) * ((1 << 31) / ((h >> 33) + 1)))
    return b


#: Distinct keys a :class:`HashPartitioner` remembers before it forgets
#: them all and starts over.
ROUTE_CACHE_LIMIT = 1 << 16

#: Key types whose routes are memoised.  Exact types only: an instance of
#: any other type may compare equal to a supported key (``Decimal(1) ==
#: 1``) yet be rejected by :func:`_canonical_bytes`, and containers may
#: hold such values, so those keys are encoded on every call.
_MEMO_TYPES = frozenset({int, str, float, bool, bytes, type(None)})


class HashPartitioner:
    """Routes keys (or payloads, via a key function) to shard indices.

    Routing memoises ``key -> shard`` for scalar keys (up to
    :data:`ROUTE_CACHE_LIMIT` of them), so a key is hashed once per
    partitioner, not once per row.  Keys that are equal as dict keys
    (``1``/``1.0``/``True``, ``0.0``/``-0.0``) share an entry, which is
    sound because they already encode identically; a key that raises is
    never stored, so it raises on every call.  A reshard builds a new
    partitioner and therefore starts with an empty memo.

    Args:
        shards: Number of shards ``P``; indices are ``0..P-1``.
        key_fn: Optional payload-to-key extractor used by
            :meth:`shard_for_payload`; a field name string is accepted as
            shorthand for ``payload[name]``.
    """

    __slots__ = ("shards", "key_fn", "_routes")

    def __init__(self, shards: int,
                 key_fn: Callable[[Any], Any] | str | None = None) -> None:
        if shards <= 0:
            raise ReproError(f"shard count must be positive, got {shards}")
        self.shards = int(shards)
        if isinstance(key_fn, str):
            field = key_fn
            key_fn = lambda payload: payload[field]  # noqa: E731
        self.key_fn = key_fn
        self._routes: dict[Any, int] = {}

    def __call__(self, key: Any) -> int:
        if type(key) not in _MEMO_TYPES:
            return jump_hash(stable_hash(key), self.shards)
        routes = self._routes
        shard = routes.get(key)
        if shard is None:
            shard = jump_hash(stable_hash(key), self.shards)
            if len(routes) >= ROUTE_CACHE_LIMIT:
                routes.clear()
            routes[key] = shard
        return shard

    def shard_for_payload(self, payload: Any) -> int:
        """Route a payload through ``key_fn`` (identity when unset)."""
        key = self.key_fn(payload) if self.key_fn is not None else payload
        return self(key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashPartitioner(shards={self.shards})"
