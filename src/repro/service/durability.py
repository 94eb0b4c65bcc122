"""Durability plane: binary checkpoints plus a write-ahead log.

The service's recovery contract is *bit-identical restart*: after a crash,
``recover()`` must produce exactly the label matrices (and therefore
exactly the extracted cover) that the uninterrupted run would hold.  Two
pieces make that possible:

* **Checkpoints** — the full :class:`~repro.core.labels_array.ArrayLabelState`
  (with its vertex ids, so any ids checkpoint) written array-native by
  :func:`repro.core.serialize.write_npz` (the ``core.serialize`` npz layout),
  together with the graph's edge column — the ascending ``(u, v)`` id
  pairs with ``u < v``, which a fast service reads off its repair's array
  adjacency — and the run metadata (seed, batch epoch, edits applied).
  Version 3 stores each int column at the narrowest signed dtype that
  holds its min and max, in uncompressed (``ZIP_STORED``) members: the
  write costs about its fsync, the file is about the size deflate made,
  and the CRC-32 the reader checks covers every stored byte.  A load
  widens the columns back to int64 and hands the edge column back as an
  ``(m, 2)`` array; the restore builds the adjacency from it (no tuples,
  no dict graph).  Version 2 checkpoints (deflated int64 columns) and
  version 1 ones (no ids, loaded as ids ``0..n-1``) still load.  Writes go
  to a temp file and are published with ``os.replace``, so a crash
  mid-write never corrupts the latest good checkpoint; a temp file such a
  crash leaves behind is deleted by the next checkpoint.
* **Write-ahead log** — every applied :class:`~repro.graph.edits.EditBatch`
  is appended (fsynced, CRC-tagged JSON lines) *before* the in-memory
  apply.  Because every random draw in Correction Propagation is keyed by
  ``(seed, slot, epoch)`` — never by wall clock or iteration order —
  replaying the logged batches from the checkpoint's epoch reproduces the
  exact post-crash state on either backend.

A torn tail (the record being written when the process died) fails its CRC
and is discarded; everything before it replays.  Every scan of the log
checks each line's CRC straight from the encoder's canonical layout and
JSON-decodes only the records its caller keeps (a recovery's tail), so a
rotation, the cut and a record count decode none.  A store cuts the log back
to that intact prefix before its first append, so a record it appends never
lands behind a torn line, where every later read would stop short of it;
only writers append, so a reader (a replica, which may see the primary's
in-flight append as a torn line) never cuts.  On checkpoint the WAL is
rotated down to the records newer than the *oldest retained* checkpoint
epoch (the surviving lines are copied verbatim into a new log, published by
rename; the store directory is fsynced before the next append, so the
rename cannot be lost) and older checkpoint files are pruned, so disk
usage stays bounded
by ``keep`` checkpoints + ``keep`` WAL windows — and, crucially, every
retained checkpoint has a complete WAL tail, so recovery can fall back to
an older checkpoint (a torn latest file raises
:class:`CorruptCheckpointError`) and still replay to the exact same state.

The store is thread-safe for the append/rotate pair: a WAL append racing
a checkpoint's rotation (the facade is single-threaded, but embedders and
the replication supervisor are not obliged to be) can never drop a
CRC-valid record — the internal lock serialises the two.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.labels_array import ArrayLabelState
from repro.core.serialize import (
    read_npz,
    state_from_arrays,
    state_to_arrays,
    write_npz,
)
from repro.graph.edits import EditBatch

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "CorruptCheckpointError",
    "encode_wal_record",
    "parse_wal_line",
]

CHECKPOINT_FORMAT = "repro.service_checkpoint"
#: Version 2 added the ids column, version 3 narrowed the int columns and
#: stopped deflating them; every version loads.
CHECKPOINT_VERSION = 3
WAL_NAME = "wal.log"

#: The checkpoint's int columns: stored narrowed, loaded as int64.
_INT_COLUMNS = ("labels", "srcs", "poss", "epochs", "ids", "edges")

#: The encoder's line layout (:func:`encode_wal_record`), field for field.
#: The edge lists match as runs of the characters their JSON uses: the
#: CRC, rebuilt over the matched bytes, vouches for the rest.
_WAL_LINE = re.compile(
    rb'\{"epoch":(-?[0-9]+),"ins":(\[[][0-9,-]*\]),"del":(\[[][0-9,-]*\]),'
    rb'"crc":([0-9]+)\}\n?'
)


class CorruptCheckpointError(RuntimeError):
    """A checkpoint file failed to load: torn write, bad zip, missing keys,
    or bytes that no longer decode (a flipped bit anywhere in the file).

    Carries the offending ``path`` and ``epoch`` so recovery code can fall
    back to an older retained checkpoint (the WAL keeps every retained
    checkpoint's full tail, so the fallback still replays exactly).
    """

    def __init__(self, path, epoch: int, cause: BaseException):
        self.path = Path(path)
        self.epoch = epoch
        self.cause = cause
        super().__init__(
            f"checkpoint {self.path} (epoch {epoch}) is corrupt: "
            f"{type(cause).__name__}: {cause}"
        )


@dataclass
class Checkpoint:
    """One recovered checkpoint: the state, the graph's edges as ascending
    ``(u, v)`` id pairs (an ``(m, 2)`` int64 array; the state's live
    vertices are the vertex set), and the run metadata.  Every int column
    is int64, whatever width the file stored it at."""

    state: ArrayLabelState
    edges: np.ndarray
    seed: int
    batch_epoch: int
    edits_applied: int

    @property
    def iterations(self) -> int:
        return self.state.num_iterations


def _narrowest(column: np.ndarray) -> np.ndarray:
    """``column`` at the narrowest signed int dtype that holds its min and
    max (int8 when it is empty)."""
    column = np.asarray(column)
    if not column.size:
        return column.astype(np.int8)
    low, high = int(column.min()), int(column.max())
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return column.astype(dtype)
    return column


def _body_crc(epoch: bytes, ins: bytes, dels: bytes) -> int:
    """CRC-32 of a record's body, the sorted-keys dump
    ``{"del":…,"epoch":…,"ins":…}``, from its fields' canonical JSON."""
    return zlib.crc32(b'{"del":%s,"epoch":%s,"ins":%s}' % (dels, epoch, ins))


def _wal_crc(epoch: int, ins: List[List[int]], dels: List[List[int]]) -> int:
    body = json.dumps(
        {"epoch": epoch, "ins": ins, "del": dels},
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(body.encode("utf-8"))


def encode_wal_record(epoch: int, batch: EditBatch) -> str:
    """One WAL line; the single encoder append, rotation, and the
    replication plane's record shipping all use, so every copy of a record
    re-passes its CRC wherever it is read.

    Each edge list is sorted and dumped once, and both the CRC body (the
    sorted-keys form :func:`_wal_crc` checks) and the line are built from
    those strings: ``{"epoch":…,"ins":…,"del":…,"crc":…}``.
    """
    stamp = json.dumps(epoch)
    ins = json.dumps(sorted(batch.insertions), separators=(",", ":"))
    dels = json.dumps(sorted(batch.deletions), separators=(",", ":"))
    crc = _body_crc(stamp.encode(), ins.encode(), dels.encode())
    return f'{{"epoch":{stamp},"ins":{ins},"del":{dels},"crc":{crc}}}\n'


def parse_wal_line(line: str) -> Optional[Tuple[int, EditBatch]]:
    """Decode one WAL line, or ``None`` if it is torn or fails its CRC.

    The inverse of :func:`encode_wal_record`; the replication plane runs
    every shipped record through this before applying it, so a record
    corrupted in transit is indistinguishable from a torn disk tail and
    triggers the same re-fetch path.
    """
    try:
        payload = json.loads(line)
        epoch = payload["epoch"]
        ins = payload["ins"]
        dels = payload["del"]
        if payload["crc"] != _wal_crc(epoch, ins, dels):
            return None
        batch = EditBatch(
            insertions=frozenset(tuple(e) for e in ins),
            deletions=frozenset(tuple(e) for e in dels),
        )
    except (ValueError, KeyError, TypeError):
        return None
    return epoch, batch


def _wal_epoch(line: bytes) -> Optional[int]:
    """The epoch of an intact WAL line, or ``None`` if it is torn or fails
    its CRC: :func:`parse_wal_line`'s verdict, without decoding the edges.

    A line in the encoder's layout is checked from its bytes, the CRC body
    rebuilt from the matched fields; any other line (re-spaced JSON, a
    torn or flipped one) goes through :func:`parse_wal_line`.
    """
    match = _WAL_LINE.fullmatch(line)
    if match is None:
        try:
            record = parse_wal_line(line.decode("utf-8"))
        except UnicodeDecodeError:
            return None
        return None if record is None else record[0]
    epoch, ins, dels, crc = match.groups()
    return int(epoch) if _body_crc(epoch, ins, dels) == int(crc) else None


class CheckpointStore:
    """Checkpoint + WAL files under one directory.

    Layout: ``checkpoint-<epoch>.npz`` (zero-padded batch epochs) and one
    ``wal.log``.  The store is an inert file manager — the replay policy
    (which checkpoint to load, which records to apply, in what order)
    lives in the service's one restore, ``CommunityService._restore``,
    which both :meth:`CommunityService.recover` and every read replica run.
    """

    #: Observability context (:class:`repro.obs.Obs`) the service attaches
    #: when traced; records WAL fsync latency and a ``service.checkpoint``
    #: span plus a write-time histogram over each whole checkpoint.
    #: ``None`` (the default) keeps the durability path metric-free.
    obs = None

    def __init__(self, directory: Union[str, Path], keep: int = 2):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._wal_handle = None
        # Serialises WAL appends against checkpoint rotation: an append
        # racing _rotate_wal's close/replace could land its record in the
        # just-unlinked file and silently lose it.
        self._lock = threading.RLock()
        #: Records dropped by the last scan of the log (a :meth:`read_wal`,
        #: a rotation, or the cut before the first append) because a torn
        #: or corrupt line cut it — by write-ahead ordering they were
        #: never applied, but recovery should still surface the loss.
        self.last_discarded_records = 0
        # Whether the log is known to hold only intact records, each ending
        # its line: set by the cut before the first append, and kept by
        # every rotation, which rewrites the log from its intact records.
        self._wal_intact = False

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoint_path(self, epoch: int) -> Path:
        return self.directory / f"checkpoint-{epoch:010d}.npz"

    def checkpoint_epochs(self) -> List[int]:
        """Epochs of all on-disk checkpoints, ascending."""
        epochs = []
        for path in self.directory.glob("checkpoint-*.npz"):
            try:
                epochs.append(int(path.stem.split("-", 1)[1]))
            except ValueError:
                continue  # foreign file; not ours to interpret
        return sorted(epochs)

    def latest_epoch(self) -> Optional[int]:
        epochs = self.checkpoint_epochs()
        return epochs[-1] if epochs else None

    def write_checkpoint(
        self,
        state: ArrayLabelState,
        edges: np.ndarray,
        seed: int,
        batch_epoch: int,
        edits_applied: int = 0,
    ) -> Path:
        """Atomically publish a checkpoint, rotate the WAL, prune old files.

        ``edges`` is the graph's edge column: the ascending ``(u, v)`` id
        pairs with ``u < v``, an ``(m, 2)`` int64 array (what
        ``RSLPADetector.edge_array`` returns).  The file is version 3:
        every int column at its narrowest signed dtype, in stored members.
        Traced, the ``service.checkpoint`` span holds
        ``service.checkpoint.write`` (narrowing, members, fsync) and
        ``service.checkpoint.rotate`` (the WAL scan, its rewrite and the
        directory fsync).
        """
        obs = self.obs
        if obs is not None:
            start = time.time_ns()
        arrays = state_to_arrays(state)
        arrays.update(
            ckpt_format=np.array(CHECKPOINT_FORMAT),
            ckpt_version=np.array(CHECKPOINT_VERSION, dtype=np.int64),
            edges=edges,
            seed=np.array(seed, dtype=np.int64),
            batch_epoch=np.array(batch_epoch, dtype=np.int64),
            edits_applied=np.array(edits_applied, dtype=np.int64),
        )
        for name in _INT_COLUMNS:
            arrays[name] = _narrowest(arrays[name])
        final = self._checkpoint_path(batch_epoch)
        tmp = final.with_suffix(".npz.tmp")
        with open(tmp, "wb") as handle:
            write_npz(handle, arrays, compression=zipfile.ZIP_STORED)
            handle.flush()
            os.fsync(handle.fileno())
        if obs is not None:
            obs.trace.record("service.checkpoint.write", start, plane="service",
                             superstep=batch_epoch)
        with self._lock:
            os.replace(tmp, final)
            for epoch in self.checkpoint_epochs()[: -self.keep]:
                self._checkpoint_path(epoch).unlink(missing_ok=True)
            # Temp files of writes a crash cut short are never published.
            for stale in self.directory.glob("checkpoint-*.npz.tmp"):
                stale.unlink(missing_ok=True)
            if obs is not None:
                rotate_start = time.time_ns()
            # Rotate down to the *oldest retained* checkpoint, not the one
            # just written: every surviving checkpoint keeps its full
            # replay tail, so recovery can fall back past a corrupt latest
            # file and still reach the identical state.
            self._rotate_wal(self.checkpoint_epochs()[0])
        if obs is not None:
            end = time.time_ns()
            obs.trace.record("service.checkpoint.rotate", rotate_start,
                             plane="service", superstep=batch_epoch, end_ns=end)
            obs.trace.record("service.checkpoint", start, plane="service",
                             superstep=batch_epoch, end_ns=end)
            obs.metrics.histogram("service.checkpoint_write_seconds").observe(
                (end - start) * 1e-9
            )
        return final

    def load_checkpoint(self, epoch: Optional[int] = None) -> Checkpoint:
        """Load the checkpoint at ``epoch`` (latest by default).

        Any version loads; its int columns come back as int64.
        """
        if epoch is None:
            epoch = self.latest_epoch()
            if epoch is None:
                raise FileNotFoundError(
                    f"no checkpoints under {self.directory}"
                )
        path = self._checkpoint_path(epoch)
        try:
            arrays = read_npz(path)
            if str(arrays["ckpt_format"]) != CHECKPOINT_FORMAT:
                raise ValueError(f"{path} is not a service checkpoint")
            if int(arrays["ckpt_version"]) not in (1, 2, CHECKPOINT_VERSION):
                raise ValueError(
                    f"{path}: unsupported checkpoint version "
                    f"{int(arrays['ckpt_version'])}"
                )
            for name in _INT_COLUMNS:
                column = arrays.get(name)
                if column is not None:
                    if column.dtype.kind != "i":
                        raise ValueError(f"{path}: {name} column is {column.dtype}")
                    arrays[name] = column.astype(np.int64, copy=False)
            state = state_from_arrays(arrays)
            edges = arrays["edges"]
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError(f"{path}: edge column is {edges.dtype} {edges.shape}")
            meta = {
                key: int(arrays[key])
                for key in ("seed", "batch_epoch", "edits_applied")
            }
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, zlib.error, RuntimeError, KeyError,
                EOFError, OSError, ValueError) as exc:
            # A torn copy, disk fault or flipped byte surfaces as one typed
            # error the caller can catch to fall back an epoch: zipfile
            # rejects a bad header or CRC (RuntimeError: an unknown method
            # or the encryption flag), zlib a bad stream, and numpy or
            # state_from_arrays a member that decodes to the wrong thing.
            raise CorruptCheckpointError(path, epoch, exc) from exc
        return Checkpoint(state=state, edges=edges, **meta)

    # ------------------------------------------------------------------
    # Write-ahead log
    # ------------------------------------------------------------------
    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    def append_wal(self, epoch: int, batch: EditBatch) -> None:
        """Durably append one applied batch (call *before* the apply)."""
        with self._lock:
            if self._wal_handle is None:
                if not self._wal_intact:
                    self._cut_torn_tail()
                self._wal_handle = open(self.wal_path, "a", encoding="utf-8")
            self._wal_handle.write(encode_wal_record(epoch, batch))
            self._wal_handle.flush()
            obs = self.obs
            if obs is not None:
                fsync_start = time.perf_counter()
            # An unlocked fsync could race _rotate_wal and hit a closed
            # fd — holding the lock across it IS the append/rotate
            # serialisation this store promises.
            # repro-lint: disable=RPL005 -- rotation swaps the handle; the lock must cover the fsync
            os.fsync(self._wal_handle.fileno())
            if obs is not None:
                obs.metrics.histogram("service.wal_fsync_seconds").observe(
                    time.perf_counter() - fsync_start
                )

    def _scan_wal(
        self, decode_after: Optional[int] = None
    ) -> Tuple[List[Tuple[int, Optional[EditBatch], bytes]], int]:
        """The intact WAL records as ``(epoch, batch, line)``, in order,
        and the byte length of that intact prefix.

        Every line's CRC is checked (:func:`_wal_epoch`), but only the
        records with an epoch above ``decode_after`` are decoded, through
        :func:`parse_wal_line`; the others carry ``None`` as their batch,
        and with ``decode_after=None`` (a rotation, the cut, a count) every
        record does.  The scan stops at the first torn or corrupt line —
        by the write-ahead ordering everything from there on was never
        applied — and counts the lines cut off there (the torn one
        included) in :attr:`last_discarded_records`.  Call under the lock.
        """
        self.last_discarded_records = 0
        if not self.wal_path.exists():
            return [], 0
        with open(self.wal_path, "rb") as handle:
            lines = handle.readlines()
        records: List[Tuple[int, Optional[EditBatch], bytes]] = []
        intact = 0
        for position, line in enumerate(lines):
            epoch, batch = _wal_epoch(line), None
            if epoch is not None and decode_after is not None and epoch > decode_after:
                # The codec also refuses a line whose CRC holds but whose
                # batch does not build, which no encoder line is.
                epoch, batch = parse_wal_line(line.decode("utf-8")) or (None, None)
            if epoch is None:
                self.last_discarded_records = len(lines) - position
                break
            records.append((epoch, batch, line))
            intact += len(line)
        return records, intact

    def read_wal(self, after_epoch: int = -1) -> List[Tuple[int, EditBatch]]:
        """All intact WAL records with epoch > ``after_epoch``, in order.

        Reading stops at the first torn or corrupt record; the number of
        lines discarded that way is kept in :attr:`last_discarded_records`.
        Only the records returned are decoded.  A read never changes the
        file.
        """
        with self._lock:
            records, _intact = self._scan_wal(decode_after=after_epoch)
        return [
            (epoch, batch) for epoch, batch, _line in records if epoch > after_epoch
        ]

    def _cut_torn_tail(self) -> None:
        """Cut the log back to its intact prefix: truncate it at the first
        bad line, end a last record that lost only its newline, and fsync.

        The first append of a store runs this, so only a writer (a
        recovered service, a promoted replica) ever cuts.  Call under the
        lock.
        """
        records, intact = self._scan_wal()
        unended = bool(records) and not records[-1][2].endswith(b"\n")
        if self.last_discarded_records or unended:
            with open(self.wal_path, "r+b") as handle:
                handle.truncate(intact)
                if unended:
                    handle.seek(intact)
                    handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
        self._wal_intact = True

    def _rotate_wal(self, checkpoint_epoch: int) -> None:
        """Drop WAL records the oldest retained checkpoint made redundant.

        The survivors' lines are CRC-checked, not decoded, and copied as
        read: the encoder is canonical, so they are the bytes
        :func:`encode_wal_record` would write.
        """
        with self._lock:
            survivors = [
                # A record cut just short of its newline still passes its
                # CRC; end it, so the next append starts a line of its own.
                line if line.endswith(b"\n") else line + b"\n"
                for epoch, _batch, line in self._scan_wal()[0]
                if epoch > checkpoint_epoch
            ]
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None
            tmp = self.wal_path.with_suffix(".log.tmp")
            with open(tmp, "wb") as handle:
                handle.writelines(survivors)
                handle.flush()
                # The replace() below must not publish an un-synced tail,
                # and appends must stay blocked until it lands.
                # repro-lint: disable=RPL005 -- tmp must be durable before replace() publishes it
                os.fsync(handle.fileno())
            os.replace(tmp, self.wal_path)
            # A rename is durable only once its directory is synced; until
            # then a power loss can bring back the old log and lose every
            # later append.  The sync also covers the checkpoint's replace
            # and the pruning done under the same lock.
            directory = os.open(self.directory, os.O_RDONLY)
            try:
                # repro-lint: disable=RPL005 -- no append may be acknowledged before the rename is durable
                os.fsync(directory)
            finally:
                os.close(directory)
            self._wal_intact = True

    def wal_records(self) -> int:
        """Number of intact records currently in the WAL (none decoded)."""
        with self._lock:
            return len(self._scan_wal()[0])

    def close(self) -> None:
        with self._lock:
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, "
            f"checkpoints={self.checkpoint_epochs()}, wal={self.wal_records()})"
        )
