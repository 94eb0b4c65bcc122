"""Persistence for detector state: save/load label states and covers.

The paper's operating mode keeps a long-lived label state that absorbs edit
batches for hours (Section V-B3).  A production deployment needs to survive
restarts, so this module serialises the full label state — sequences,
provenance, epochs — in two interchangeable formats:

* **JSON** (the original path): a :class:`LabelState` as a compact text
  document — portable, human-inspectable, id-agnostic.
* **npz** (array-native): an :class:`ArrayLabelState`'s ``(T+1, n)``
  matrices and its column → vertex id array written directly by
  :func:`write_npz` — no dict-state detour on either side, which is what
  the service layer's checkpoints use (loading restores the matrices bit
  for bit).  Version 1 files have no id array and load as ids ``0..n-1``.

:func:`write_npz` and :func:`read_npz` are the one npz writer and reader:
numpy's container and member layout (what :func:`numpy.load` reads),
deflated at :data:`NPZ_COMPRESSLEVEL` (or stored, for the service's
checkpoints), and read back whole member by member so that each one's
CRC-32 is checked.  Files numpy's own writer made load the same way.

Reverse records are *not* stored in either format: they are a pure function
of the provenance and are rebuilt on load (smaller files, no consistency
risk).  :func:`save_state` picks the format from the target (``.npz``
suffix or a binary file object → npz), converting between the two state
representations when needed; :func:`load_state` sniffs the zip magic, so
callers can round-trip either state class through either format.

Both formats are versioned and validated on load; covers serialise
alongside for snapshotting extraction results.
"""

from __future__ import annotations

import io
import json
import zipfile
from typing import IO, Dict, Mapping, Union

import numpy as np

from repro.core.communities import Cover
from repro.core.labels import LabelState
from repro.core.labels_array import ArrayLabelState
from repro.core.randomness import NO_SOURCE

__all__ = [
    "state_to_dict",
    "state_from_dict",
    "state_to_arrays",
    "state_from_arrays",
    "save_state",
    "load_state",
    "write_npz",
    "read_npz",
    "cover_to_dict",
    "cover_from_dict",
    "save_cover",
    "load_cover",
]

FORMAT_VERSION = 1

#: Version of the array-native npz layout (independent of the JSON one);
#: version 2 added the ``ids`` array.
ARRAY_FORMAT_VERSION = 2

ARRAY_FORMAT_NAME = "repro.array_label_state"

#: zlib level of :func:`write_npz`'s deflated members (:func:`save_state`'s
#: files).  Level 1 deflates the int64 label matrices ~5x faster than
#: numpy's level 6 for ~10% more bytes; storing them uncompressed writes
#: ~6x the bytes.  The service's checkpoints store their columns instead,
#: each narrowed to the smallest dtype that holds it, which costs about the
#: bytes of level 1 at a tenth of its time (:mod:`repro.service.durability`).
NPZ_COMPRESSLEVEL = 1

AnyLabelState = Union[LabelState, ArrayLabelState]


def state_to_dict(state: LabelState) -> dict:
    """Serialise a label state to a JSON-compatible dict."""
    return {
        "format": "repro.label_state",
        "version": FORMAT_VERSION,
        "iterations": state.num_iterations,
        "vertices": {
            # JSON keys must be strings; vertex ids are ints.
            str(v): {
                "labels": state.labels[v],
                "srcs": state.srcs[v],
                "poss": state.poss[v],
                "epochs": state.epochs[v],
            }
            for v in state.vertices()
        },
    }


def state_from_dict(payload: dict) -> LabelState:
    """Rebuild a label state (including reverse records) from a dict.

    Raises ``ValueError`` on version/format mismatches or structural
    corruption (the rebuilt state is fully validated).
    """
    if payload.get("format") != "repro.label_state":
        raise ValueError(f"not a label-state document: {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported version {payload.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    state = LabelState()
    iterations = payload["iterations"]
    for key, record in payload["vertices"].items():
        v = int(key)
        labels = list(record["labels"])
        srcs = list(record["srcs"])
        poss = list(record["poss"])
        epochs = list(record["epochs"])
        if not (len(labels) == len(srcs) == len(poss) == len(epochs)):
            raise ValueError(f"vertex {v}: ragged arrays in document")
        if len(labels) != iterations + 1:
            raise ValueError(
                f"vertex {v}: sequence length {len(labels)} != T+1 = {iterations + 1}"
            )
        state.labels[v] = labels
        state.srcs[v] = srcs
        state.poss[v] = poss
        state.epochs[v] = epochs
        state.receivers[v] = {}
    # Rebuild the reverse records from provenance.
    for v in state.labels:
        srcs = state.srcs[v]
        poss = state.poss[v]
        for t in range(1, len(srcs)):
            src = srcs[t]
            if src != NO_SOURCE:
                if src not in state.receivers:
                    raise ValueError(
                        f"vertex {v} iteration {t}: unknown source {src}"
                    )
                state.receivers[src].setdefault(poss[t], set()).add((v, t))
    state.set_num_iterations(iterations)
    state.validate()
    return state


def state_to_arrays(state: ArrayLabelState) -> Dict[str, np.ndarray]:
    """The array-native payload: matrices, ids and a version/format header.

    Reverse records are deliberately absent: they are a function of the
    provenance matrices, which the loaded state's first repair rebuilds
    them from (``ArrayLabelState.reindex``), so the payload cannot go
    inconsistent and a load never pays for them.
    """
    return {
        "format": np.array(ARRAY_FORMAT_NAME),
        "version": np.array(ARRAY_FORMAT_VERSION, dtype=np.int64),
        "labels": state.labels,
        "srcs": state.srcs,
        "poss": state.poss,
        "epochs": state.epochs,
        "alive": state.alive,
        "ids": state.ids,
    }


def state_from_arrays(arrays) -> ArrayLabelState:
    """Rebuild an :class:`ArrayLabelState` from :func:`state_to_arrays` output.

    Accepts any mapping of name -> array (:func:`read_npz` output);
    a version-1 payload (no ``ids``) loads as ids ``0..n-1``.  Raises
    ``ValueError`` on format/version mismatches or missing arrays.
    """
    try:
        fmt = str(arrays["format"])
    except KeyError:
        raise ValueError("not an array label-state payload: no format marker")
    if fmt != ARRAY_FORMAT_NAME:
        raise ValueError(f"not an array label-state payload: {fmt!r}")
    version = int(arrays["version"])
    if version not in (1, ARRAY_FORMAT_VERSION):
        raise ValueError(
            f"unsupported array-state version {version} "
            f"(expected 1 or {ARRAY_FORMAT_VERSION})"
        )
    names = ("labels", "srcs", "poss", "epochs", "alive") + (
        ("ids",) if version > 1 else ()
    )
    missing = [k for k in names if k not in arrays]
    if missing:
        raise ValueError(f"array label-state payload missing arrays: {missing}")
    return ArrayLabelState(
        arrays["labels"],
        arrays["srcs"],
        arrays["poss"],
        arrays["epochs"],
        alive=np.asarray(arrays["alive"], dtype=bool),
        ids=arrays["ids"] if version > 1 else None,
    )


def write_npz(
    file: Union[str, IO[bytes]],
    arrays: Mapping[str, np.ndarray],
    compression: int = zipfile.ZIP_DEFLATED,
) -> None:
    """Write ``arrays`` as an npz archive: one ``<name>.npy`` member each.

    The container :func:`numpy.savez_compressed` writes (zip64 members,
    the npy format inside), so :func:`numpy.load` reads it back; members
    are deflated at :data:`NPZ_COMPRESSLEVEL`, or written as they are with
    ``compression=zipfile.ZIP_STORED`` (the container :func:`numpy.savez`
    writes), where the CRC-32 :func:`read_npz` checks still covers every
    byte.  ``file`` is a path or a binary stream.
    """
    with zipfile.ZipFile(
        file, "w", compression,
        compresslevel=NPZ_COMPRESSLEVEL, allowZip64=True,
    ) as archive:
        for name, value in arrays.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(value), allow_pickle=False
                )


def read_npz(file: Union[str, IO[bytes]]) -> Dict[str, np.ndarray]:
    """Every array of an npz archive (a path or a binary stream), by name.

    Each member is read to its end, which is what makes :mod:`zipfile`
    check its CRC-32: :func:`numpy.load` stops after the bytes its npy
    header asks for, so a damaged header that asks for fewer bytes would
    load wrong data unchecked.
    """
    with zipfile.ZipFile(file) as archive:
        return {
            name[: -len(".npy")]: np.lib.format.read_array(
                io.BytesIO(archive.read(name)), allow_pickle=False
            )
            for name in archive.namelist()
            if name.endswith(".npy")
        }


def _wants_npz(target) -> bool:
    """npz iff the target says so: ``.npz`` path suffix or a binary stream."""
    if isinstance(target, str):
        return target.endswith(".npz")
    mode = getattr(target, "mode", "")
    return "b" in mode or isinstance(target, (io.BytesIO, io.BufferedIOBase))


def save_state(state: AnyLabelState, target: Union[str, IO]) -> None:
    """Write a label state to a path or file object.

    The format follows the target — a ``.npz`` path (or binary stream) gets
    the array-native npz layout, anything else the JSON document — and the
    state is converted as needed, so both :class:`LabelState` and
    :class:`ArrayLabelState` round-trip through either format, for any
    vertex ids.
    """
    if _wants_npz(target):
        if not isinstance(state, ArrayLabelState):
            state = ArrayLabelState.from_label_state(state)
        write_npz(target, state_to_arrays(state))
        return
    if isinstance(state, ArrayLabelState):
        state = state.to_label_state()
    payload = state_to_dict(state)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
    else:
        json.dump(payload, target, separators=(",", ":"))


def load_state(source: Union[str, IO]) -> AnyLabelState:
    """Read a label state from a path or file object.

    The format is sniffed (npz files carry the zip magic), not inferred
    from the name: npz sources return an :class:`ArrayLabelState`, JSON
    sources a :class:`LabelState`.
    """
    if isinstance(source, str):
        with open(source, "rb") as probe:
            magic = probe.read(2)
        if magic == b"PK":
            return state_from_arrays(read_npz(source))
        with open(source, "r", encoding="utf-8") as handle:
            return state_from_dict(json.load(handle))
    seekable = getattr(source, "seekable", None)
    if seekable is not None and not source.seekable():
        # Non-seekable streams (pipes, stdin) keep the original JSON
        # contract — npz needs random access anyway (numpy seeks the zip).
        return state_from_dict(json.load(source))
    pos = source.tell()
    head = source.read(2)
    source.seek(pos)
    if head == b"PK":
        return state_from_arrays(read_npz(source))
    return state_from_dict(json.load(source))


def cover_to_dict(cover: Cover) -> dict:
    """Serialise a cover (communities as sorted member lists)."""
    return {
        "format": "repro.cover",
        "version": FORMAT_VERSION,
        "communities": [sorted(c) for c in cover],
    }


def cover_from_dict(payload: dict) -> Cover:
    if payload.get("format") != "repro.cover":
        raise ValueError(f"not a cover document: {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
    return Cover(set(members) for members in payload["communities"])


def save_cover(cover: Cover, target: Union[str, IO[str]]) -> None:
    payload = cover_to_dict(cover)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
    else:
        json.dump(payload, target, separators=(",", ":"))


def load_cover(source: Union[str, IO[str]]) -> Cover:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    return cover_from_dict(payload)
