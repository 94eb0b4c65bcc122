"""rSLPA: overlapping community detection over distributed dynamic graphs.

Reproduction of Jian, Lian & Chen, ICDE 2018 (arXiv:1801.05946).

Quickstart::

    from repro import Graph, RSLPADetector, random_edit_batch

    graph = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    detector = RSLPADetector(graph, seed=7, iterations=100).fit()
    print(detector.communities())

    batch = random_edit_batch(detector.graph, size=2, seed=1)
    detector.update(batch)          # incremental Correction Propagation
    print(detector.communities())

Execution selection — local backend, distributed message plane, shard
storage, state format — goes through one declarative layer
(:mod:`repro.api`): configs resolve to a ``RunPlan`` with recorded
provenance (``plan_for(graph, ExecutionConfig(...)).explain()``), and
``AlgoConfig`` / ``ExecutionConfig`` / ``ServicePlanConfig`` drive the
detector, the cluster wrappers, and the serving facade uniformly.

See ``DESIGN.md`` at the repository root for the architecture (config →
plan → execution planes, plus the three-plane service layer),
``ROADMAP.md`` for the north star, and ``README.md`` for the execution-
plan guide and the ``BENCH_*.json`` paper-vs-measured records.
"""

from repro.api import (
    AlgoConfig,
    DetectionResult,
    DistributedResult,
    ExecutionConfig,
    GraphCaps,
    RunPlan,
    ServicePlanConfig,
    UpdateResult,
    plan_for,
    resolve_plan,
)
from repro.baselines import SLPA, FastSLPA, fast_slpa_detect, lpa_detect, slpa_detect
from repro.core import (
    ArrayLabelState,
    CorrectionPropagator,
    Cover,
    FastCorrectionPropagator,
    FastPropagator,
    LabelState,
    PostprocessResult,
    ReferencePropagator,
    RSLPADetector,
    UpdateReport,
    detect_communities,
    extract_communities,
)
from repro.graph import (
    CSRGraph,
    EditBatch,
    Graph,
    HashPartitioner,
    apply_batch,
    diff_graphs,
    from_networkx,
    read_edge_list,
    relabel_to_integers,
    to_networkx,
    write_edge_list,
)
from repro.metrics import nmi_overlapping, omega_index, overlapping_f1
from repro.service import (
    CheckpointStore,
    CommunityService,
    EditQueue,
    MembershipIndex,
)
from repro.workloads import (
    EditStream,
    LFRParams,
    WebGraphParams,
    generate_lfr,
    generate_webgraph,
    random_edit_batch,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # unified execution-plan api
    "AlgoConfig",
    "ExecutionConfig",
    "ServicePlanConfig",
    "GraphCaps",
    "RunPlan",
    "resolve_plan",
    "plan_for",
    "DetectionResult",
    "UpdateResult",
    "DistributedResult",
    # graph substrate
    "Graph",
    "CSRGraph",
    "EditBatch",
    "apply_batch",
    "diff_graphs",
    "HashPartitioner",
    "read_edge_list",
    "write_edge_list",
    "to_networkx",
    "from_networkx",
    "relabel_to_integers",
    # core
    "RSLPADetector",
    "detect_communities",
    "ReferencePropagator",
    "FastPropagator",
    "CorrectionPropagator",
    "FastCorrectionPropagator",
    "UpdateReport",
    "LabelState",
    "ArrayLabelState",
    "Cover",
    "PostprocessResult",
    "extract_communities",
    # service layer
    "CommunityService",
    "EditQueue",
    "MembershipIndex",
    "CheckpointStore",
    # baselines
    "SLPA",
    "FastSLPA",
    "slpa_detect",
    "fast_slpa_detect",
    "lpa_detect",
    # workloads
    "LFRParams",
    "generate_lfr",
    "random_edit_batch",
    "EditStream",
    "WebGraphParams",
    "generate_webgraph",
    # metrics
    "nmi_overlapping",
    "omega_index",
    "overlapping_f1",
]
