"""Exponential backoff with deterministic jitter.

Retry loops that back off on a fixed exponential schedule synchronise:
every client that failed together retries together, and the thundering
herd re-collides forever (the classic analysis is AWS's "exponential
backoff and jitter").  The fix is jitter — but naive ``random()`` jitter
would break this library's reproducibility contract, where every test
replays bit-identically.  :class:`JitteredBackoff` squares the two: the
jitter is drawn from a :class:`random.Random` stream derived from a
caller-supplied key through :func:`repro.utils.rng.derive_rng`, so two
retriers with different keys decorrelate while any single retrier
replays the exact same delays run after run.

Users: the tcp wire's child redial
(:class:`repro.runtime.TcpChildEndpoint`, keyed by the wire cookie and
child id — the BSP engine's and the replicated service's tcp wires both
dial through it) and the replication layer's
:class:`~repro.service.replication.ReplicatedClient` (keyed by the
service seed and request number).
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from repro.utils.rng import derive_rng

__all__ = ["JitteredBackoff"]


class JitteredBackoff:
    """A bounded exponential backoff schedule with keyed jitter.

    Delay ``i`` (0-based) is ``base * factor**i``, capped at ``max_delay``,
    then scaled by a jitter factor uniform in ``[1 - jitter, 1 + jitter]``
    drawn from the stream derived from ``key``.  ``jitter=0`` recovers the
    deterministic schedule exactly.

    >>> list(JitteredBackoff(0.05, attempts=3, jitter=0.0).delays())
    [0.05, 0.1, 0.2]
    >>> a = list(JitteredBackoff(0.05, attempts=3, key=("x", 1)).delays())
    >>> a == list(JitteredBackoff(0.05, attempts=3, key=("x", 1)).delays())
    True
    """

    def __init__(
        self,
        base: float,
        attempts: int,
        factor: float = 2.0,
        jitter: float = 0.5,
        max_delay: Optional[float] = None,
        key: tuple = (),
    ):
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.base = base
        self.attempts = attempts
        self.factor = factor
        self.jitter = jitter
        self.max_delay = max_delay
        self._rng = derive_rng("backoff", *key)

    def delays(self) -> Iterator[float]:
        """Yield the ``attempts`` jittered delays, in order."""
        delay = self.base
        for _ in range(self.attempts):
            capped = delay if self.max_delay is None else min(delay, self.max_delay)
            if self.jitter:
                capped *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
            yield capped
            delay *= self.factor

    def retry(self, attempt, exceptions=(OSError,)):
        """Call ``attempt()`` until it succeeds, sleeping the schedule between.

        The final failure propagates: ``attempts`` tries means
        ``attempts - 1`` sleeps.  Returns whatever ``attempt`` returns.
        """
        last_delay = None
        for i, delay in enumerate(self.delays()):
            if i:
                time.sleep(last_delay)
            last_delay = delay
            try:
                return attempt()
            except exceptions:
                if i == self.attempts - 1:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover
