"""Counter-based randomness for label propagation (scalar + vectorised).

Every pick in Algorithm 1 and every repick/lottery in Algorithm 2 is a pure
function of ``(seed, vertex, iteration, epoch)``.  This module implements
that function once with SplitMix64 mixing, in two exactly-matching forms:

* scalar Python integers — used by the reference propagator, the incremental
  Correction Propagation, and the distributed vertex programs;
* vectorised numpy ``uint64`` — used by the fast propagator.

Because both forms compute the *same* bits, all engines produce identical
label states for a given seed, which the test suite asserts directly.  The
draws Correction Propagation composes from them (:func:`keep_lottery_uniform`,
:func:`repick_draw`) and the provenance sentinel :data:`NO_SOURCE` live here
too, so every engine takes them from one place.  The
``epoch`` field gives the incremental algorithm fresh randomness for a
repicked slot without disturbing any other slot — the literal version of the
paper's "pretend we used the same series of random numbers" argument
(Section IV-A).

SplitMix64 passes BigCrush; the modulo reduction introduces a bias below
``range / 2^64``, which is irrelevant at graph scale (the statistical tests
in the suite bound uniformity empirically).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "NO_SOURCE",
    "check_vertex_ids",
    "keep_lottery_uniform",
    "repick_draw",
    "mix64",
    "mix64_array",
    "slot_hash",
    "draw_src_index",
    "draw_position",
    "draw_keep_uniform",
    "slot_hash_array",
    "slot_hash_flex",
    "draw_src_index_array",
    "draw_position_array",
    "draw_position_flex",
    "draw_keep_uniform_array",
]

_MASK = (1 << 64) - 1

#: Sentinel provenance for slots that did not fetch from a neighbour
#: (iteration 0, and the degree-0 fallback).
NO_SOURCE = -1


def check_vertex_ids(vertices, what: str) -> None:
    """Refuse vertex id :data:`NO_SOURCE` (−1) in ``vertices`` (any container).

    Label state stores ``src = NO_SOURCE`` for a slot with no source, so a
    slot that fetched from vertex −1 would read as a fallback slot.
    """
    if NO_SOURCE in vertices:
        raise ValueError(
            f"{what} has vertex id {NO_SOURCE}, which label state reserves "
            f"as the NO_SOURCE sentinel; relabel the vertices "
            f"(repro.graph.relabel_to_integers)"
        )

# Domain-separation constants (random 64-bit primes / odd constants).
_C_VERTEX = 0xA24BAED4963EE407
_C_ITER = 0x9FB21C651E98DF25
_C_EPOCH = 0xD6E8FEB86659FD93
_C_SRC = 0x2545F4914F6CDD1D
_C_POS = 0x27220A95FE1EFAAD
_C_KEEP = 0x3C79AC492BA7B653

_TWO64 = float(1 << 64)


def mix64(x: int) -> int:
    """SplitMix64 finaliser: a strong 64-bit mixing permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def slot_hash(seed: int, vertex: int, iteration: int, epoch: int) -> int:
    """The base hash of a (vertex, iteration, epoch) slot under ``seed``."""
    h = mix64((seed & _MASK) ^ ((vertex * _C_VERTEX) & _MASK))
    h = mix64(h ^ ((iteration * _C_ITER) & _MASK))
    h = mix64(h ^ ((epoch * _C_EPOCH) & _MASK))
    return h


def draw_src_index(h: int, degree: int) -> int:
    """Index of the chosen source neighbour, uniform in [0, degree)."""
    if degree <= 0:
        raise ValueError(f"degree must be positive, got {degree}")
    return mix64(h ^ _C_SRC) % degree


def draw_position(h: int, iteration: int) -> int:
    """The chosen position, uniform in [0, iteration) (i.e. pos <= t-1)."""
    if iteration <= 0:
        raise ValueError(f"iteration must be positive, got {iteration}")
    return mix64(h ^ _C_POS) % iteration


def draw_keep_uniform(h: int) -> float:
    """A uniform float in [0, 1) for the Category-3 keep lottery."""
    return mix64(h ^ _C_KEEP) / _TWO64


# ----------------------------------------------------------------------
# Vectorised forms (numpy uint64) — bit-identical to the scalar forms.
# ----------------------------------------------------------------------

_NP_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _np_mix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _NP_MASK
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _NP_MASK
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _NP_MASK
    return x ^ (x >> np.uint64(31))


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`mix64` over a ``uint64`` array (same bits).

    Public entry point for callers that compose their own hash chains —
    the vectorised partitioners and the columnar BSP programs' tie-breaks
    both reduce to one :func:`mix64` over an id array.
    """
    return _np_mix64(np.asarray(x, dtype=np.uint64))


def slot_hash_array(
    seed: int, vertices: np.ndarray, iteration: int, epoch: int = 0
) -> np.ndarray:
    """Vectorised :func:`slot_hash` over an array of vertex ids."""
    v = vertices.astype(np.uint64, copy=False)
    h = _np_mix64(np.uint64(seed & _MASK) ^ (v * np.uint64(_C_VERTEX)))
    h = _np_mix64(h ^ np.uint64((iteration * _C_ITER) & _MASK))
    h = _np_mix64(h ^ np.uint64((epoch * _C_EPOCH) & _MASK))
    return h


def slot_hash_flex(seed, vertices, iterations, epochs) -> np.ndarray:
    """Fully-broadcasting :func:`slot_hash`: every argument may be an array.

    Unlike :func:`slot_hash_array` (scalar iteration/epoch), this takes
    per-element iteration and epoch arrays — what the incremental engine
    needs, where each repicked slot sits at its own ``(v, t, epoch)`` — and
    an *array* seed, which lets the Theorem-5 keep lottery chain two hashes
    (``slot_hash(slot_hash(seed, v, t, 0), v, t, batch_epoch)``) without
    leaving numpy.  uint64 wraparound matches the scalar ``& _MASK`` exactly.
    """
    if isinstance(seed, (int, np.integer)):
        seed = np.uint64(int(seed) & _MASK)
    v = np.asarray(vertices).astype(np.uint64, copy=False)
    it = np.asarray(iterations).astype(np.uint64, copy=False)
    ep = np.asarray(epochs).astype(np.uint64, copy=False)
    h = _np_mix64(seed ^ (v * np.uint64(_C_VERTEX)))
    h = _np_mix64(h ^ (it * np.uint64(_C_ITER)))
    h = _np_mix64(h ^ (ep * np.uint64(_C_EPOCH)))
    return h


def draw_keep_uniform_array(h: np.ndarray) -> np.ndarray:
    """Vectorised :func:`draw_keep_uniform` (same float64 bits)."""
    return _np_mix64(h ^ np.uint64(_C_KEEP)) / _TWO64


def draw_src_index_array(h: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Vectorised :func:`draw_src_index`; degree-0 entries yield index 0.

    Callers mask degree-0 vertices out separately (they take the fallback
    label); the placeholder index keeps the computation branch-free.
    """
    safe = np.maximum(degrees.astype(np.uint64, copy=False), np.uint64(1))
    return (_np_mix64(h ^ np.uint64(_C_SRC)) % safe).astype(np.int64)


def draw_position_array(h: np.ndarray, iteration: int) -> np.ndarray:
    """Vectorised :func:`draw_position`."""
    if iteration <= 0:
        raise ValueError(f"iteration must be positive, got {iteration}")
    return (_np_mix64(h ^ np.uint64(_C_POS)) % np.uint64(iteration)).astype(np.int64)


def draw_position_flex(h: np.ndarray, iterations: np.ndarray) -> np.ndarray:
    """:func:`draw_position` with a per-element iteration array.

    Zero iterations are clamped to 1 as a branch-free placeholder (position
    draws at ``t = 0`` never occur; callers never read those entries).
    """
    safe = np.maximum(np.asarray(iterations).astype(np.uint64, copy=False), np.uint64(1))
    return (_np_mix64(h ^ np.uint64(_C_POS)) % safe).astype(np.int64)


def keep_lottery_uniform(seed: int, vertex: int, iteration: int, batch_epoch: int) -> float:
    """The Theorem-5 keep-lottery draw for a slot, fresh per batch.

    Shared by the sequential corrector and the distributed program so both
    make identical keep/switch decisions.
    """
    base = slot_hash(seed, vertex, iteration, 0)
    return draw_keep_uniform(slot_hash(base, vertex, iteration, batch_epoch))


def repick_draw(
    seed: int, vertex: int, iteration: int, epoch: int, num_candidates: int
) -> Tuple[int, int]:
    """The (candidate index, position) pair for a repick at a given epoch."""
    h = slot_hash(seed, vertex, iteration, epoch)
    return draw_src_index(h, num_candidates), draw_position(h, iteration)


#: The (source index, position) pair of any slot: the same draw.
draw_src_pos = repick_draw
