"""Graph substrate: dynamic binary graphs, array graphs, edits, partitioning.

Three graph types, each with one role:

* :class:`Graph` (``repro.graph.adjacency``) — *mutable* dict-of-set
  adjacency over arbitrary integer ids: the library's input and export
  type.  Callers build one and pass it in; the dynamic workloads and the
  reference engines edit it in place.
* :class:`CSRGraph` (``repro.graph.csr``) — an *immutable* compressed
  sparse row **snapshot** (sorted ``indptr``/``indices`` arrays over
  contiguous ids ``0..n-1``), the substrate for **compute**: the
  vectorised engines (``FastPropagator``, ``FastSLPA``), distributed shard
  slicing (:func:`slice_csr`) and the benchmarks scan its arrays.
* :class:`EdgeKeys` (``repro.graph.csr``) — the CSR layout as sorted
  directed edge keys ``u·2³² + v``, advanced in place by one sorted merge
  per edit batch: the **live graph** of the vectorised Correction
  Propagation (over its label state's columns), which the extraction, the
  service's checkpoints and the repair's candidate pools read.  A fast
  detector or service builds a :class:`Graph` from it only on demand.

Construction is vectorised throughout.  A :class:`Graph` and its snapshot
round-trip losslessly (``CSRGraph.from_graph(g).to_graph() == g``).
"""

from repro.graph.adjacency import Graph, normalize_edge
from repro.graph.csr import CSRGraph, EdgeKeys, build_csr_arrays
from repro.graph.edits import EditBatch, apply_batch, diff_graphs
from repro.graph.generators import (
    chung_lu,
    erdos_renyi,
    planted_partition,
    powerlaw_degree_sequence,
    random_regular_ish,
    ring_of_cliques,
)
from repro.graph.io import (
    from_networkx,
    parse_edge_lines,
    read_edge_list,
    relabel_to_integers,
    to_networkx,
    write_edge_list,
)
from repro.graph.partition import (
    ContiguousPartitioner,
    HashPartitioner,
    Partitioner,
    partition_counts,
    slice_csr,
)
from repro.graph.transform import (
    aggregate_weights,
    binarize,
    binarize_top_k,
    quantile_threshold,
)

__all__ = [
    "Graph",
    "normalize_edge",
    "CSRGraph",
    "EdgeKeys",
    "build_csr_arrays",
    "EditBatch",
    "apply_batch",
    "diff_graphs",
    "erdos_renyi",
    "random_regular_ish",
    "chung_lu",
    "powerlaw_degree_sequence",
    "ring_of_cliques",
    "planted_partition",
    "Partitioner",
    "HashPartitioner",
    "ContiguousPartitioner",
    "partition_counts",
    "slice_csr",
    "read_edge_list",
    "write_edge_list",
    "parse_edge_lines",
    "to_networkx",
    "from_networkx",
    "relabel_to_integers",
    "binarize",
    "binarize_top_k",
    "quantile_threshold",
    "aggregate_weights",
]
