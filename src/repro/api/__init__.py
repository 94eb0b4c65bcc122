"""The unified execution-plan API: one front door for every mode.

The paper's claim is one algorithm that runs unchanged across static,
dynamic, and distributed settings; this package makes the *library* say
the same thing.  Three layers (see ``DESIGN.md`` at the repo root):

1. **Configs** (:mod:`repro.api.config`) — frozen declarative dataclasses:
   :class:`AlgoConfig` (seed, horizon T, τ sweep),
   :class:`ExecutionConfig` (backend / state format / workers /
   partitioner / multiprocess / transport / fault tolerance / trace),
   :class:`ServicePlanConfig` (a full service deployment).
2. **Plan resolution** (:mod:`repro.api.plan`) —
   :func:`resolve_plan(caps, config) <resolve_plan>` negotiates every
   ``"auto"`` against the graph's :class:`GraphCaps` in exactly one
   place and returns a :class:`RunPlan` whose :meth:`RunPlan.explain`
   says why each fallback fired.  Components (partitioners, transports,
   service wires) resolve by name through :mod:`repro.api.registry`, so
   plugins extend any axis.
3. **Results** (:mod:`repro.api.results`) — :class:`DetectionResult` /
   :class:`UpdateResult` / :class:`DistributedResult` carry the cover,
   the live state handle, comm stats, timings, and the plan that
   produced them.

:func:`detect` / :func:`update` / :func:`run_distributed`
(:mod:`repro.api.run`) are the one-call forms.  The kwargs on
:class:`~repro.core.detector.RSLPADetector`, the cluster wrappers, and
:class:`~repro.service.CommunityService` remain supported shims that
construct these configs internally — bit-identical per seed either way.
"""

from repro.api.config import (
    DEFAULT_ITERATIONS,
    AlgoConfig,
    ExecutionConfig,
    ServicePlanConfig,
)
from repro.api.plan import (
    GraphCaps,
    PlanDecision,
    RunPlan,
    ServiceRunPlan,
    plan_for,
    resolve_plan,
    resolve_service_plan,
)
from repro.api.registry import PARTITIONERS, SERVICE_TRANSPORTS, Registry
from repro.api.results import (
    DetectionResult,
    DistributedResult,
    ReplicatedRunResult,
    UpdateResult,
)
from repro.api.run import detect, run_distributed, update

__all__ = [
    "DEFAULT_ITERATIONS",
    "AlgoConfig",
    "ExecutionConfig",
    "ServicePlanConfig",
    "GraphCaps",
    "PlanDecision",
    "RunPlan",
    "ServiceRunPlan",
    "resolve_plan",
    "resolve_service_plan",
    "plan_for",
    "Registry",
    "PARTITIONERS",
    "SERVICE_TRANSPORTS",
    "DetectionResult",
    "UpdateResult",
    "DistributedResult",
    "ReplicatedRunResult",
    "detect",
    "update",
    "run_distributed",
]
