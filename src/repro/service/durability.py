"""Durability plane: binary checkpoints plus a write-ahead log.

The service's recovery contract is *bit-identical restart*: after a crash,
``recover()`` must produce exactly the label matrices (and therefore
exactly the extracted cover) that the uninterrupted run would hold.  Two
pieces make that possible:

* **Checkpoints** — the full :class:`~repro.core.labels_array.ArrayLabelState`
  (with its vertex ids, so any ids checkpoint) written array-native with
  :func:`numpy.savez_compressed` (the ``core.serialize`` npz layout),
  together with the graph's edge array and the run metadata (seed, batch
  epoch, edits applied).  Version 1 checkpoints (no ids) still load, as
  ids ``0..n-1``.  Writes go to a
  temp file and are published with ``os.replace``, so a crash mid-write
  never corrupts the latest good checkpoint.
* **Write-ahead log** — every applied :class:`~repro.graph.edits.EditBatch`
  is appended (fsynced, CRC-tagged JSON lines) *before* the in-memory
  apply.  Because every random draw in Correction Propagation is keyed by
  ``(seed, slot, epoch)`` — never by wall clock or iteration order —
  replaying the logged batches from the checkpoint's epoch reproduces the
  exact post-crash state on either backend.

A torn tail (the record being written when the process died) fails its CRC
and is discarded; everything before it replays.  On checkpoint the WAL is
rotated down to the records newer than the *oldest retained* checkpoint
epoch and older checkpoint files are pruned, so disk usage stays bounded
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
import threading
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.labels_array import ArrayLabelState
from repro.core.serialize import state_from_arrays, state_to_arrays
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "CorruptCheckpointError",
    "encode_wal_record",
    "parse_wal_line",
]

CHECKPOINT_FORMAT = "repro.service_checkpoint"
CHECKPOINT_VERSION = 2
WAL_NAME = "wal.log"


class CorruptCheckpointError(RuntimeError):
    """A checkpoint file failed to load: torn write, bad zip, missing keys.

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
    """One recovered checkpoint: state + graph + the run metadata."""

    state: ArrayLabelState
    graph: Graph
    seed: int
    batch_epoch: int
    edits_applied: int

    @property
    def iterations(self) -> int:
        return self.state.num_iterations


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
    re-passes its CRC wherever it is read."""
    ins = [list(e) for e in sorted(batch.insertions)]
    dels = [list(e) for e in sorted(batch.deletions)]
    record = {
        "epoch": epoch,
        "ins": ins,
        "del": dels,
        "crc": _wal_crc(epoch, ins, dels),
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


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


class CheckpointStore:
    """Checkpoint + WAL files under one directory.

    Layout: ``checkpoint-<epoch>.npz`` (zero-padded batch epochs) and one
    ``wal.log``.  The store is an inert file manager — the replay policy
    (which records to apply, in what order) lives in
    :meth:`CommunityService.recover`.
    """

    #: Observability context (:class:`repro.obs.Obs`) the service attaches
    #: when traced; records WAL fsync latency and checkpoint write time.
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
        #: Records dropped by the last :meth:`read_wal` because a torn or
        #: corrupt line cut the log — by write-ahead ordering they were
        #: never applied, but recovery should still surface the loss.
        self.last_discarded_records = 0

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
        graph: Graph,
        seed: int,
        batch_epoch: int,
        edits_applied: int = 0,
    ) -> Path:
        """Atomically publish a checkpoint, rotate the WAL, prune old files."""
        edges = sorted(graph.edges())
        arrays = state_to_arrays(state)
        arrays.update(
            ckpt_format=np.array(CHECKPOINT_FORMAT),
            ckpt_version=np.array(CHECKPOINT_VERSION, dtype=np.int64),
            edges=np.array(edges, dtype=np.int64).reshape(len(edges), 2),
            seed=np.array(seed, dtype=np.int64),
            batch_epoch=np.array(batch_epoch, dtype=np.int64),
            edits_applied=np.array(edits_applied, dtype=np.int64),
        )
        final = self._checkpoint_path(batch_epoch)
        tmp = final.with_suffix(".npz.tmp")
        obs = self.obs
        if obs is not None:
            write_start = time.perf_counter()
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        if obs is not None:
            obs.metrics.histogram("service.checkpoint_write_seconds").observe(
                time.perf_counter() - write_start
            )
        with self._lock:
            os.replace(tmp, final)
            for epoch in self.checkpoint_epochs()[: -self.keep]:
                self._checkpoint_path(epoch).unlink(missing_ok=True)
            # Rotate down to the *oldest retained* checkpoint, not the one
            # just written: every surviving checkpoint keeps its full
            # replay tail, so recovery can fall back past a corrupt latest
            # file and still reach the identical state.
            self._rotate_wal(self.checkpoint_epochs()[0])
        return final

    def load_checkpoint(self, epoch: Optional[int] = None) -> Checkpoint:
        """Load the checkpoint at ``epoch`` (latest by default)."""
        if epoch is None:
            epoch = self.latest_epoch()
            if epoch is None:
                raise FileNotFoundError(
                    f"no checkpoints under {self.directory}"
                )
        path = self._checkpoint_path(epoch)
        try:
            with np.load(path) as arrays:
                if str(arrays["ckpt_format"]) != CHECKPOINT_FORMAT:
                    raise ValueError(f"{path} is not a service checkpoint")
                if int(arrays["ckpt_version"]) not in (1, CHECKPOINT_VERSION):
                    raise ValueError(
                        f"{path}: unsupported checkpoint version "
                        f"{int(arrays['ckpt_version'])}"
                    )
                state = state_from_arrays(arrays)
                edges = [tuple(edge) for edge in arrays["edges"].tolist()]
                meta = {
                    key: int(arrays[key])
                    for key in ("seed", "batch_epoch", "edits_applied")
                }
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, KeyError, EOFError, OSError) as exc:
            # A torn write (crash mid-publish never does this, but a torn
            # copy, disk fault, or truncation can) surfaces as one typed
            # error the caller can catch to fall back an epoch.
            raise CorruptCheckpointError(path, epoch, exc) from exc
        graph = Graph.from_edges(edges, vertices=state.vertices())
        return Checkpoint(state=state, graph=graph, **meta)

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

    def read_wal(self, after_epoch: int = -1) -> List[Tuple[int, EditBatch]]:
        """All intact WAL records with epoch > ``after_epoch``, in order.

        Reading stops at the first torn or corrupt record — by the
        write-ahead ordering everything after it was never applied.  The
        number of lines discarded that way (the torn one included) is
        kept in :attr:`last_discarded_records`.
        """
        with self._lock:
            self.last_discarded_records = 0
            if not self.wal_path.exists():
                return []
            records: List[Tuple[int, EditBatch]] = []
            with open(self.wal_path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            for position, line in enumerate(lines):
                record = parse_wal_line(line)
                if record is None:
                    self.last_discarded_records = len(lines) - position
                    break
                epoch, batch = record
                if epoch > after_epoch:
                    records.append((epoch, batch))
            return records

    def _rotate_wal(self, checkpoint_epoch: int) -> None:
        """Drop WAL records the oldest retained checkpoint made redundant."""
        with self._lock:
            survivors = self.read_wal(after_epoch=checkpoint_epoch)
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None
            tmp = self.wal_path.with_suffix(".log.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for epoch, batch in survivors:
                    handle.write(encode_wal_record(epoch, batch))
                handle.flush()
                # The replace() below must not publish an un-synced tail,
                # and appends must stay blocked until it lands.
                # repro-lint: disable=RPL005 -- tmp must be durable before replace() publishes it
                os.fsync(handle.fileno())
            os.replace(tmp, self.wal_path)

    def wal_records(self) -> int:
        """Number of intact records currently in the WAL."""
        return len(self.read_wal())

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
