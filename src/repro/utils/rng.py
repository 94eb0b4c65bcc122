"""Keyed ``random.Random`` streams for everything outside the engines.

:func:`derive_rng` returns a stream seeded from a key tuple such as
``(seed, "erdos-renyi", n)`` and :func:`derive_seed` the 64-bit seed
itself, a BLAKE2b digest that is the same in every process and Python
version.  They serve the graph generators, the workloads, the hash
partitioner's salt and the retry backoff's jitter, so each of those
reproduces from its seed alone.

The label-propagation engines draw nothing from here: every pick, repick
and keep lottery is a SplitMix64 hash of its slot in
:mod:`repro.core.randomness`, which is what makes the reference, array and
distributed engines bit-identical per seed.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Tuple

__all__ = ["derive_seed", "derive_rng"]

_HASH_BYTES = 8


def _encode_key(parts: Tuple) -> bytes:
    """Serialise a key tuple into a stable byte string.

    Integers are encoded with an explicit tag and fixed width so that e.g.
    ``(1, 23)`` and ``(12, 3)`` cannot collide; strings are length-prefixed.
    """
    chunks = []
    for part in parts:
        if isinstance(part, bool):  # bool is an int subclass; tag separately
            chunks.append(b"b" + (b"\x01" if part else b"\x00"))
        elif isinstance(part, int):
            chunks.append(b"i" + struct.pack(">Q", part & 0xFFFFFFFFFFFFFFFF))
        elif isinstance(part, str):
            encoded = part.encode("utf-8")
            chunks.append(b"s" + struct.pack(">I", len(encoded)) + encoded)
        elif isinstance(part, bytes):
            chunks.append(b"y" + struct.pack(">I", len(part)) + part)
        elif isinstance(part, float):
            chunks.append(b"f" + struct.pack(">d", part))
        elif part is None:
            chunks.append(b"n")
        else:
            raise TypeError(
                f"unsupported RNG key component {part!r} of type {type(part).__name__}"
            )
    return b"\x1f".join(chunks)


def derive_seed(*key) -> int:
    """Derive a 64-bit seed from an arbitrary key tuple.

    The derivation is a keyed BLAKE2b hash, so seeds are stable across
    processes and Python versions (unlike ``hash()``, which is salted).
    """
    digest = hashlib.blake2b(_encode_key(tuple(key)), digest_size=_HASH_BYTES)
    return int.from_bytes(digest.digest(), "big")


def derive_rng(*key) -> random.Random:
    """Return a fresh :class:`random.Random` seeded from ``key``.

    >>> derive_rng(7, "demo", 3).random() == derive_rng(7, "demo", 3).random()
    True
    """
    return random.Random(derive_seed(*key))
