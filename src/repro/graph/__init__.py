"""Graph substrate: dynamic binary graphs, CSR snapshots, edits, partitioning.

The library deliberately keeps **two graph representations** with distinct
roles (the two-representation architecture):

* :class:`Graph` (``repro.graph.adjacency``) — *mutable* dict-of-set
  adjacency.  This is the substrate for **edits**: O(1) edge insert/delete/
  lookup, vertex insertion/deletion, the dynamic workloads and the
  incremental Correction Propagation all mutate it freely.  Vertex ids are
  arbitrary integers.
* :class:`CSRGraph` (``repro.graph.csr``) — an *immutable* compressed
  sparse row **snapshot** (sorted ``indptr``/``indices`` arrays over
  contiguous ids ``0..n-1``).  This is the substrate for **compute**: the
  vectorised engines (``FastPropagator``, ``FastSLPA``), distributed shard
  slicing (:func:`slice_csr`) and the benchmarks all scan its arrays.
  Construction is vectorised.

Typical flow: mutate a :class:`Graph`, snapshot it with
:meth:`CSRGraph.from_graph`, and hand the snapshot to whichever engine or
shard slicer needs array speed.
Both representations describe the same binary graph and round-trip
losslessly (``CSRGraph.from_graph(g).to_graph() == g``).
"""

from repro.graph.adjacency import Graph, normalize_edge
from repro.graph.csr import CSRGraph, build_csr_arrays
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
