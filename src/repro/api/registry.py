"""Named component registries: partitioners, transports, service wires.

One uniform mechanism maps configuration strings onto components:
components are registered by name, callers resolve them through
:meth:`Registry.resolve`, and plugins extend any axis without touching
repro code::

    from repro.api.registry import PARTITIONERS

    PARTITIONERS.register("stripe", lambda workers, caps: MyPartitioner(workers))
    run_distributed_rslpa(graph, config=ExecutionConfig(partitioner="stripe"))

Calling conventions per registry (what a resolved component *is*):

* :data:`PARTITIONERS` — a builder ``f(num_workers, caps) -> Partitioner``
  (``caps`` is the :class:`~repro.api.plan.GraphCaps`, so range-style
  partitioners can size themselves to the graph).
* :data:`TRANSPORTS` — the multiprocess BSP engine's
  :class:`~repro.runtime.Wire` *class* (instantiated per engine with
  ``crash_error=WorkerCrashedError``); its one wire per worker carries
  command verbs and column payloads alike.  ``"pipe"`` is
  :class:`~repro.runtime.PipeWire`, ``"tcp"`` is
  :class:`~repro.runtime.TcpWire`, and ``"shm"`` is :class:`~repro.
  distributed.transport.SharedMemoryTransport`, a ``PipeWire`` whose
  column payloads travel through zero-copy shared-memory rings.
* :data:`SERVICE_TRANSPORTS` — the replication control-plane
  :class:`~repro.runtime.Wire` *class* (instantiated with no arguments
  per supervisor; the built-ins are the same
  :class:`~repro.runtime.PipeWire` and :class:`~repro.runtime.TcpWire`);
  ships pickled WAL records and query traffic between the supervisor
  and its primary/replica children.

Built-ins are registered lazily (the loader imports on first resolve), so
importing :mod:`repro.api` never drags in the distributed machinery.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

__all__ = [
    "Registry",
    "PARTITIONERS",
    "TRANSPORTS",
    "SERVICE_TRANSPORTS",
]


class Registry:
    """A small name → component map with lazy built-in loaders."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Any] = {}
        self._lazy: Dict[str, Callable[[], Any]] = {}

    def register(self, name: str, component: Any, *, overwrite: bool = False) -> None:
        """Register ``component`` under ``name`` (error if taken)."""
        if not overwrite and name in self:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._lazy.pop(name, None)
        self._entries[name] = component

    def register_lazy(
        self, name: str, loader: Callable[[], Any], *, overwrite: bool = False
    ) -> None:
        """Register a zero-arg ``loader`` resolved (once) on first use."""
        if not overwrite and name in self:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._entries.pop(name, None)
        self._lazy[name] = loader

    def resolve(self, name: str) -> Any:
        """Return the component registered under ``name``."""
        if name in self._entries:
            return self._entries[name]
        if name in self._lazy:
            # Cache (and drop the loader) only on success, so a transient
            # loader failure stays retryable instead of turning into a
            # misleading "unknown name" on the next resolve.
            component = self._lazy[name]()
            self._entries[name] = component
            del self._lazy[name]
            return component
        raise KeyError(
            f"unknown {self.kind} {name!r}; registered: {self.names()}"
        )

    def names(self) -> List[str]:
        return sorted(set(self._entries) | set(self._lazy))

    def resolve_all(self) -> Dict[str, Any]:
        """Resolve every registered name (forcing lazy loaders), by name.

        Enumeration order is :meth:`names` order, so consumers that
        instantiate everything (e.g. the lint runner walking
        :data:`repro.analysis.context.RULES`) behave deterministically.
        """
        return {name: self.resolve(name) for name in self.names()}

    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._lazy

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, names={self.names()})"


PARTITIONERS = Registry("partitioner")
TRANSPORTS = Registry("transport")
SERVICE_TRANSPORTS = Registry("service transport")


# ----------------------------------------------------------------------
# Built-in partitioner builders (module-level functions: picklable).
# ----------------------------------------------------------------------
def build_hash_partitioner(num_workers, caps):
    from repro.graph.partition import HashPartitioner

    return HashPartitioner(num_workers)


def build_range_partitioner(num_workers, caps):
    from repro.graph.partition import ContiguousPartitioner

    return ContiguousPartitioner(num_workers, caps.num_vertices)


PARTITIONERS.register("hash", build_hash_partitioner)
PARTITIONERS.register("range", build_range_partitioner)


# ----------------------------------------------------------------------
# Built-in wires: the BSP engine's transports and the service's wires.
# ----------------------------------------------------------------------
def _load_pipe_wire():
    from repro.runtime import PipeWire

    return PipeWire


def _load_tcp_wire():
    from repro.runtime import TcpWire

    return TcpWire


def _load_shm_transport():
    from repro.distributed.transport import SharedMemoryTransport

    return SharedMemoryTransport


TRANSPORTS.register_lazy("pipe", _load_pipe_wire)
TRANSPORTS.register_lazy("shm", _load_shm_transport)
TRANSPORTS.register_lazy("tcp", _load_tcp_wire)
SERVICE_TRANSPORTS.register_lazy("pipe", _load_pipe_wire)
SERVICE_TRANSPORTS.register_lazy("tcp", _load_tcp_wire)
