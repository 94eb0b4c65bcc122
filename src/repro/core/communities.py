"""The :class:`Cover` datatype: a set of (possibly overlapping) communities.

Detection algorithms return covers; metrics consume them.  A cover is
stored as two int64 CSR arrays: community → ascending member ids, with the
communities in the canonical ``(−size, sorted members)`` order, and, built
on first use, vertex → ascending community indices.  The extraction builds
one straight from its ``(community, vertex)`` pairs
(:meth:`Cover.from_pairs`), the matcher of :mod:`repro.core.tracking` joins
two covers on their membership columns, and a cover pickles as its two
member arrays.  The frozenset view (:attr:`Cover.communities`, iteration,
indexing) and the membership dict behind :meth:`Cover.memberships_of` are
built lazily, once, for callers that ask for them.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.metrics.entropy import size_entropy_from_sizes

__all__ = ["Cover"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _int64(values, name: str) -> np.ndarray:
    """``values`` as int64, refusing anything a cast would change."""
    array = np.asarray(values)
    if array.size and not (
        array.dtype.kind == "i"
        or (array.dtype.kind == "u" and int(array.max()) < 2**63)
    ):
        raise TypeError(f"{name} must be integers that fit int64, got {array.dtype}")
    return array.astype(np.int64, copy=False)


def _runs(keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in ``keys``."""
    start = np.ones(keys.size, dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(start)


def _sorted_pairs(major: np.ndarray, minor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``(major, minor)`` int64 pairs, in ascending order.

    When both ranges fit one int64 key the pairs sort as single keys
    (a plain sort: ``np.unique`` without counts takes a hash path that is
    an order of magnitude slower on int64); otherwise they go through a
    lexsort.
    """
    if not major.size:
        return major, minor
    major_lo, minor_lo = int(major.min()), int(minor.min())
    span = int(minor.max()) - minor_lo + 1
    if (int(major.max()) - major_lo + 1) * span < 2**63:
        keys = np.sort((major - major_lo) * span + (minor - minor_lo))
        major, minor = np.divmod(keys[_runs(keys)], span)
        return major + major_lo, minor + minor_lo
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    keep = np.ones(major.size, dtype=bool)
    keep[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    return major[keep], minor[keep]


def _canonical_order(
    starts: np.ndarray, sizes: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """Communities in ``(−size, sorted members)`` order, stable among equals.

    Community ``c`` holds ``members[starts[c]:starts[c] + sizes[c]]``,
    ascending.  One lexsort orders them by size and smallest member; only
    communities that tie on both (equal sizes sharing their smallest member,
    which the extraction makes only through a weakly attached vertex) are
    refined further, one member position at a time.
    """
    order = np.lexsort((members[starts], -sizes))
    sizes = sizes[order]
    head = members[starts[order]]
    # tie[i]: the communities at order[i] and order[i + 1] are equal so far.
    tie = (sizes[1:] == sizes[:-1]) & (head[1:] == head[:-1])
    position = 1
    while True:
        tie &= sizes[1:] > position  # equal through the last member: duplicates
        if not tie.any():
            return order
        group = np.cumsum(np.concatenate(([0], ~tie)))
        at = np.flatnonzero(np.concatenate((tie, [False])) | np.concatenate(([False], tie)))
        nxt = members[starts[order[at]] + position]
        order[at] = order[at][np.lexsort((nxt, group[at]))]
        head[at] = members[starts[order[at]] + position]
        tie &= head[1:] == head[:-1]
        position += 1


class Cover:
    """An overlapping community assignment.

    >>> cover = Cover([{0, 1, 2}, {2, 3}])
    >>> sorted(cover.memberships_of(2))
    [0, 1]
    >>> cover.overlapping_vertices()
    frozenset({2})
    """

    __slots__ = ("_indptr", "_members", "_by_vertex", "_communities", "_membership")

    def __init__(self, communities: Iterable[Collection[int]]):
        if isinstance(communities, Cover):
            self._adopt(
                communities._indptr, communities._members,
                communities._by_vertex, communities._communities,
            )
            return
        groups = [c if isinstance(c, (set, frozenset, list, tuple)) else list(c)
                  for c in communities]
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        members = _int64(list(chain.from_iterable(groups)), "vertex ids")
        labels = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
        self._build(labels, members)

    # ------------------------------------------------------------------
    # Array construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, labels: np.ndarray, vertices: np.ndarray) -> "Cover":
        """Build from aligned ``(community label, vertex id)`` int arrays.

        Pairs sharing a label form one community; repeated pairs count once
        and the labels' values only group, so the result is the canonical
        cover whatever order the pairs come in.
        """
        cover = cls.__new__(cls)
        cover._build(_int64(labels, "labels"), _int64(vertices, "vertex ids"))
        return cover

    def _build(self, labels: np.ndarray, members: np.ndarray) -> None:
        labels, members = _sorted_pairs(labels, members)
        starts = _runs(labels)
        sizes = np.diff(np.append(starts, labels.size))
        order = _canonical_order(starts, sizes, members)
        sizes = sizes[order]
        indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        gather = np.repeat(starts[order] - indptr[:-1], sizes) + np.arange(members.size)
        self._adopt(indptr, members[gather])

    def _adopt(self, indptr, members, by_vertex=None, communities=None) -> None:
        """Take canonical arrays, plus any views already built over them."""
        self._indptr = _frozen(indptr)
        self._members = _frozen(members)
        self._by_vertex = by_vertex
        self._communities = communities
        self._membership = None

    def __reduce__(self):
        return _from_csr, (self._indptr, self._members)

    @property
    def indptr(self) -> np.ndarray:
        """``(k+1,)`` int64 offsets: community ``c`` is
        ``member_ids[indptr[c]:indptr[c+1]]``."""
        return self._indptr

    @property
    def member_ids(self) -> np.ndarray:
        """Every community's ascending member ids, back to back (int64)."""
        return self._members

    def by_vertex(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vertex → community CSR: ``(vertices, offsets, communities)``.

        ``vertices`` holds the covered vertex ids ascending, and vertex
        ``vertices[r]`` belongs to the communities
        ``communities[offsets[r]:offsets[r+1]]``, ascending.  Built on
        first use, by sorting the ``(vertex, community)`` pairs.
        """
        if self._by_vertex is None:
            community = np.repeat(
                np.arange(len(self), dtype=np.int64), np.diff(self._indptr)
            )
            members, community = _sorted_pairs(self._members, community)
            starts = _runs(members)
            offsets = np.append(starts, members.size)
            self._by_vertex = (
                _frozen(members[starts]), _frozen(offsets), _frozen(community)
            )
        return self._by_vertex

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def communities(self) -> Tuple[FrozenSet[int], ...]:
        if self._communities is None:
            flat = self._members.tolist()
            bounds = self._indptr.tolist()
            self._communities = tuple(
                frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])
            )
        return self._communities

    def __len__(self) -> int:
        return self._indptr.size - 1

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self.communities)

    def __getitem__(self, index: int) -> FrozenSet[int]:
        return self.communities[index]

    def __bool__(self) -> bool:
        return self._indptr.size > 1

    def __eq__(self, other) -> bool:
        """Covers are equal as *multisets* of communities.

        The canonical order is a total order on communities, so two
        multisets are equal exactly when their arrays are.
        """
        if not isinstance(other, Cover):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._members, other._members
        )

    def __repr__(self) -> str:
        sizes = self.sizes()
        preview = sizes[:6]
        suffix = "..." if len(sizes) > 6 else ""
        return f"Cover(k={len(self)}, sizes={preview}{suffix})"

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def _index(self) -> Dict[int, Tuple[int, ...]]:
        if self._membership is None:
            vertices, offsets, communities = self.by_vertex()
            self._membership = tuples_by_vertex(vertices, offsets, communities)
        return self._membership

    def memberships_of(self, vertex: int) -> Tuple[int, ...]:
        """Community indices containing ``vertex`` (empty tuple if none)."""
        return self._index().get(vertex, ())

    def covered_vertices(self) -> FrozenSet[int]:
        return frozenset(self.by_vertex()[0].tolist())

    def overlapping_vertices(self) -> FrozenSet[int]:
        """Vertices belonging to two or more communities."""
        vertices, offsets, _communities = self.by_vertex()
        return frozenset(vertices[np.diff(offsets) > 1].tolist())

    def sizes(self) -> List[int]:
        return np.diff(self._indptr).tolist()

    def size_entropy(self, num_vertices: int) -> float:
        """Eq. 1 entropy of this cover's relative community sizes."""
        return size_entropy_from_sizes(self.sizes(), num_vertices)

    def membership_counts(self) -> Dict[int, int]:
        """Vertex -> number of communities it belongs to."""
        vertices, offsets, _communities = self.by_vertex()
        return dict(zip(vertices.tolist(), np.diff(offsets).tolist()))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_membership(cls, membership: Dict[int, Iterable[int]]) -> "Cover":
        """Build from a vertex -> community-ids mapping."""
        groups: Dict[int, Set[int]] = {}
        for vertex, cids in membership.items():
            for cid in cids:
                groups.setdefault(cid, set()).add(vertex)
        return cls(groups.values())

    def restricted_to(self, universe: Collection[int]) -> "Cover":
        """Drop vertices outside ``universe`` (empty communities vanish)."""
        keep = set(universe)
        return Cover(c & keep for c in self.communities)

    def without_smaller_than(self, min_size: int) -> "Cover":
        """Drop communities with fewer than ``min_size`` members."""
        return Cover(c for c in self.communities if len(c) >= min_size)

    def as_sets(self) -> List[Set[int]]:
        """Mutable copies of the communities (for metric functions)."""
        return [set(c) for c in self.communities]


def _from_csr(indptr: np.ndarray, members: np.ndarray) -> Cover:
    """Unpickle a :class:`Cover` from its (already canonical) arrays."""
    cover = Cover.__new__(Cover)
    cover._adopt(indptr, members)
    return cover


def tuples_by_vertex(
    vertices: np.ndarray, offsets: np.ndarray, values: np.ndarray
) -> Dict[int, Tuple[int, ...]]:
    """``{vertices[r]: tuple(values[offsets[r]:offsets[r+1]])}`` as a dict.

    Most vertices sit in one community, so their one-tuples come from one
    ``zip`` and only the overlapping vertices are sliced.
    """
    counts = np.diff(offsets)
    single = counts == 1
    index: Dict[int, Tuple[int, ...]] = dict(
        zip(vertices[single].tolist(), zip(values[offsets[:-1][single]].tolist()))
    )
    flat = values.tolist()
    for v, a, b in zip(
        vertices[~single].tolist(),
        offsets[:-1][~single].tolist(),
        offsets[1:][~single].tolist(),
    ):
        index[v] = tuple(flat[a:b])
    return index
