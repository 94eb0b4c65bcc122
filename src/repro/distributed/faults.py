"""Deterministic fault injection for both child-process planes.

Fault-tolerance code is only trustworthy if its failure paths run in CI,
and failure paths only run in CI if failures can be *scripted*.  A
:class:`FaultPlan` is that script: an immutable, picklable table of
:class:`Event` rows ``(action, child, step, phase)``, handed to
:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine` or
:class:`~repro.service.replication.ServiceSupervisor` (and from there to
every child process), so tests and benchmarks replay the exact same
failure on every run.

Both planes are message loops over *stepped verbs*, and a step is the
verb's number: the engine's superstep (0 is the ``start`` barrier,
``s >= 1`` the ``step`` verb of superstep ``s``) and the service's WAL
sequence number (the primary's ``apply`` and a replica's ``wal``).  A
child is a worker id, a replica id, or :data:`PRIMARY`, the role of
whichever process is the service primary (promotion moves the role from
one process to another).  Every stepped verb has the same two seams,
where :func:`repro.runtime.fire_faults` SIGKILLs the child or sleeps:

``recv``
    The verb arrived and no work is done yet.
``reply``
    The work is done and the reply is not sent yet.  A service child
    reaches it only after a fresh apply: an idempotent re-send, a
    failed validation or a replica's nack skips it.

The BSP worker loop (``_worker_main`` in
:mod:`repro.distributed.multiprocess`) fires both seams around its
``start`` and ``step`` verbs, the service child loop
(``_service_child_main`` in :mod:`repro.service.replication`) around the
primary's ``apply`` and a replica's ``wal``.  Three phases belong to one
plane each and are read where they act: the worker loop's ``snapshot``
reply (the worker truncates the checkpoint blob it returns, keeping the
CRC of the intact blob, so the driver rejects the whole cut), the
service supervisor's ``ship`` of a WAL record (it drops that shipped
copy once, so the replica's gap detection must nack) and the primary's
``wal`` append (before applying the record, the primary appends the first
half of its line to the log, fsyncs and SIGKILLs itself, so the promoted
replica's first append must cut the torn line away).

Eight keywords build the table; each takes one site tuple or a list of
them:

====================  ========================  =========================
keyword               site                      event (action @ phase)
====================  ========================  =========================
``kill``              ``(child, step)``         kill @ recv
``drop_send``         ``(child, step)``         kill @ reply
``stall``             ``(child, step, s)``      stall @ recv (sleep ``s``)
``delay``             ``(child, step, s)``      stall @ reply (sleep ``s``)
``torn_snapshot``     ``(child, step)``         tear @ snapshot
``drop_wal_record``   ``(child, step)``         drop @ ship
``kill_primary``      ``(seq, "recv")``         kill @ recv of PRIMARY
                      ``(seq, "applied")``      kill @ reply of PRIMARY
``torn_wal``          ``(seq,)``                tear @ wal of PRIMARY
====================  ========================  =========================

So a kill or a stall scripted for a worker id fires on the replica with
that id too.  A kill at ``recv`` is the hard crash (OOM killer, machine
loss); a kill at ``reply`` is a send that never completes, which the
supervisor cannot tell from a crash (by design: a half-sent step must
never be half-applied).  A stall is the slow-child / GC-pause case: the
supervisor must wait it out, or on the service mark the replica lapsed
and re-route, and never misdiagnose it as a crash.

The plan only *decides*; the child loops act, so the decisions stay
unit-testable in-process.  A supervisor strips a respawned child's
events (``plan.without(child=...)``: a replacement child is healthy),
and a fired primary kill or tear or a fired ship drop
(``plan.without(event=...)``), so every scripted failure fires exactly
once and replay terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

__all__ = ["Event", "FaultPlan", "PRIMARY"]

#: The child id of the service primary's role, whichever process holds it.
PRIMARY = -1

#: ``kill_primary``'s phase names -> the seams they strike.
_PRIMARY_PHASES = {"recv": "recv", "applied": "reply"}

#: keyword -> (action, phase, site fields); a site starting with ``seq``
#: strikes PRIMARY, and kill_primary's phase is in its site.
_KEYWORDS = {
    "kill": ("kill", "recv", ("child", "step")),
    "drop_send": ("kill", "reply", ("child", "step")),
    "stall": ("stall", "recv", ("child", "step", "seconds")),
    "delay": ("stall", "reply", ("child", "step", "seconds")),
    "torn_snapshot": ("tear", "snapshot", ("child", "step")),
    "drop_wal_record": ("drop", "ship", ("child", "step")),
    "kill_primary": ("kill", None, ("seq", "phase")),
    "torn_wal": ("tear", "wal", ("seq",)),
}


class Event(NamedTuple):
    """One scripted fault: ``action`` strikes ``child`` at ``phase`` of
    stepped verb ``step``; a stall sleeps ``seconds``."""

    action: str
    child: int
    step: int
    phase: str
    seconds: float = 0.0


def _event(keyword: str, site) -> Event:
    action, phase, fields = _KEYWORDS[keyword]
    if not isinstance(site, tuple) or len(site) != len(fields):
        spelled = ", ".join(fields) + ("," if len(fields) == 1 else "")
        raise ValueError(
            f"{keyword} fault must be a ({spelled}) tuple, got {site!r}"
        )
    if fields[0] == "seq":
        child, step = PRIMARY, site[0]
    else:
        child, step = site[:2]
    if phase is None:  # kill_primary: the site names the phase
        when = site[1]
        if when not in _PRIMARY_PHASES:
            raise ValueError(
                f"{keyword} phase must be one of {tuple(_PRIMARY_PHASES)}, "
                f"got {when!r}"
            )
        phase = _PRIMARY_PHASES[when]
    child, step = int(child), int(step)
    seconds = float(site[2]) if len(fields) == 3 else 0.0
    if (child < 0 and child != PRIMARY) or step < 0:
        raise ValueError(
            f"{keyword} fault needs child >= 0 (or PRIMARY) and step >= 0, "
            f"got ({child}, {step})"
        )
    if seconds < 0:
        raise ValueError(f"{keyword} seconds must be >= 0, got {seconds}")
    return Event(action, child, step, phase, seconds)


@dataclass(frozen=True, init=False)
class FaultPlan:
    """A deterministic failure script: a sorted table of :class:`Event` rows.

    Each keyword takes one site tuple or a list of them (see the module
    docstring for the table).  Plans are immutable, picklable (they cross
    the process boundary with every child's arguments), comparable and
    hashable by value, and false when empty.

    >>> plan = FaultPlan(kill=(1, 3), stall=[(0, 2, 0.1)])
    >>> plan.at(1, 3, "recv")
    (Event(action='kill', child=1, step=3, phase='recv', seconds=0.0),)
    >>> plan.without(child=1).at(1, 3, "recv")
    ()
    """

    events: Tuple[Event, ...]

    def __init__(self, kill=None, drop_send=None, stall=None, delay=None,
                 torn_snapshot=None, drop_wal_record=None, kill_primary=None,
                 torn_wal=None):
        table = set()
        for keyword, sites in (
            ("kill", kill), ("drop_send", drop_send), ("stall", stall),
            ("delay", delay), ("torn_snapshot", torn_snapshot),
            ("drop_wal_record", drop_wal_record), ("kill_primary", kill_primary),
            ("torn_wal", torn_wal),
        ):
            if sites is not None:
                for site in sites if isinstance(sites, list) else [sites]:
                    table.add(_event(keyword, site))
        object.__setattr__(self, "events", tuple(sorted(table)))

    def at(self, child: int, step: int, phase: str) -> Tuple[Event, ...]:
        """The events scripted for ``child`` at ``phase`` of ``step``, in
        table order (a kill before a stall)."""
        return tuple(e for e in self.events if e[1:4] == (child, step, phase))

    def without(self, child: Optional[int] = None,
                event: Optional[Event] = None) -> "FaultPlan":
        """The plan minus every event of ``child``, or minus one fired
        ``event``."""
        plan = FaultPlan()
        object.__setattr__(plan, "events", tuple(
            e for e in self.events if e.child != child and e != event
        ))
        return plan

    def __bool__(self) -> bool:
        return bool(self.events)
