"""High-level rSLPA detector: fit / update / communities lifecycle.

This is the public face of the library.  Typical use::

    from repro import RSLPADetector

    detector = RSLPADetector(graph, seed=7, iterations=200)
    detector.fit()                      # Algorithm 1
    cover = detector.communities()      # Section III-B post-processing

    report = detector.update(batch)     # Algorithm 2 (Correction Propagation)
    cover = detector.communities()      # re-extract on the maintained state

Execution selection goes through the unified plan layer
(:mod:`repro.api`): the detector holds an
:class:`~repro.api.config.AlgoConfig` + :class:`~repro.api.config.ExecutionConfig`
pair (individual keywords are thin shims that construct them), and every
fit resolves one :class:`~repro.api.plan.RunPlan` via
:func:`repro.api.plan.resolve_plan` — ``detector.plan().explain()`` says
which substrate a fit would take and why.  The fast plan (``auto``'s
choice for every graph) runs the whole lifecycle on the array substrate
(:class:`~repro.core.fast.FastPropagator` →
:class:`~repro.core.incremental_fast.FastCorrectionPropagator`) for any
vertex ids; the reference plan, run only when asked for, keeps the
pure-Python :class:`~repro.core.rslpa.ReferencePropagator` +
:class:`~repro.core.incremental.CorrectionPropagator` pair.  Both are
bit-identical per seed for fit *and* every subsequent update.  Vertex id
−1 is refused on both: label state reserves it as ``NO_SOURCE``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Union

from repro.api.config import DEFAULT_ITERATIONS, AlgoConfig, ExecutionConfig
from repro.api.plan import GraphCaps, RunPlan, resolve_plan
from repro.core.communities import Cover
from repro.core.fast import FastPropagator
from repro.core.incremental import CorrectionPropagator
from repro.core.incremental_fast import FastCorrectionPropagator, UpdateReport
from repro.core.labels import LabelState
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import PostprocessResult, extract_communities
from repro.core.randomness import check_vertex_ids
from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.utils.validation import check_type

__all__ = ["RSLPADetector", "detect_communities", "DEFAULT_ITERATIONS"]


def _shim_configs(seed, iterations, tau_step, backend, algo, execution) -> tuple:
    """Map the keyword shims onto (AlgoConfig, ExecutionConfig).

    Keywords and config objects are exclusive per axis so a call can never
    silently contradict itself.
    """
    if execution is not None:
        if backend is not None:
            raise ValueError(
                "pass the backend either via execution=/ExecutionConfig or "
                "via the backend= keyword, not both"
            )
    else:
        execution = ExecutionConfig(
            backend=backend if backend is not None else "auto"
        )
    if algo is not None:
        if (seed, iterations, tau_step) != (0, DEFAULT_ITERATIONS, 0.001):
            raise ValueError(
                "pass the algorithm parameters either via algo=/AlgoConfig "
                "or via the seed=/iterations=/tau_step= keywords, not both"
            )
    else:
        algo = AlgoConfig(seed=seed, iterations=iterations, tau_step=tau_step)
    return algo, execution


class RSLPADetector:
    """Overlapping community detection with incremental maintenance.

    Parameters
    ----------
    graph:
        The graph to monitor.  The detector takes ownership of a private
        copy, so the caller's graph is never mutated by updates.
    seed:
        Randomness seed (counter-based; identical results per seed).
    iterations:
        The propagation horizon T (paper default 200 for rSLPA).
    backend:
        ``"auto"`` or ``"fast"`` (the CSR/array substrate, for any vertex
        ids) or ``"reference"`` (pure-Python propagator).  The choice
        covers the whole lifecycle — static fit *and* incremental
        ``update`` — and both backends are bit-identical per seed.
    tau_step:
        Grid step of the τ1 entropy sweep (paper suggests 0.001).
    algo / execution:
        The config-object forms of the same parameters
        (:class:`~repro.api.config.AlgoConfig`,
        :class:`~repro.api.config.ExecutionConfig`); exclusive with the
        corresponding keywords.

    Everything after ``iterations`` is keyword-only.
    """

    def __init__(
        self,
        graph: Graph,
        seed: int = 0,
        iterations: int = DEFAULT_ITERATIONS,
        *,
        tau_step: float = 0.001,
        backend: Optional[str] = None,
        algo: Optional[AlgoConfig] = None,
        execution: Optional[ExecutionConfig] = None,
    ):
        self.algo, self.execution = _shim_configs(
            seed, iterations, tau_step, backend, algo, execution
        )
        self.graph = graph.copy()
        self.seed = self.algo.seed
        self.iterations = self.algo.iterations
        self.tau_step = self.algo.tau_step
        self.backend = self.execution.backend
        self._corrector: Optional[
            Union[CorrectionPropagator, FastCorrectionPropagator]
        ] = None
        self._postprocess_cache: Optional[PostprocessResult] = None
        self._label_state_cache: Optional[LabelState] = None
        #: CommStats of the last fit_distributed() run (None for local fits).
        self.comm_stats = None
        #: The RunPlan of the last fit (None before the first fit).
        self.last_plan: Optional[RunPlan] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._corrector is not None

    def plan(self, execution: Optional[ExecutionConfig] = None) -> RunPlan:
        """Resolve the execution plan against the current graph.

        All negotiation lives in :func:`repro.api.plan.resolve_plan`; this
        is the detector's view of it (``detector.plan().explain()``).
        """
        return resolve_plan(GraphCaps.of(self.graph), execution or self.execution)

    def _install_corrector(self, state, use_fast: bool) -> None:
        """Install the corrector the plan's backend runs on, converting the
        state representation as needed (shared by the distributed-fit and
        restart paths)."""
        check_vertex_ids(self.graph, "graph")
        if use_fast:
            astate = (
                state
                if isinstance(state, ArrayLabelState)
                else ArrayLabelState.from_label_state(state)
            )
            self._corrector = FastCorrectionPropagator(self.graph, astate, self.seed)
        else:
            lstate = (
                state.to_label_state()
                if isinstance(state, ArrayLabelState)
                else state
            )
            propagator = ReferencePropagator.from_state(
                self.graph, self.seed, lstate
            )
            self._corrector = CorrectionPropagator(propagator)

    def fit(self) -> "RSLPADetector":
        """Run Algorithm 1 from scratch on the current graph."""
        check_vertex_ids(self.graph, "graph")
        # A local fit, whatever the config's worker count says: the recorded
        # plan must describe what actually ran.
        plan = self.plan(replace(self.execution, num_workers=0))
        if plan.use_fast:
            # The whole lifecycle stays on the array substrate: one CSR
            # snapshot feeds the vectorised propagator, whose array export
            # feeds the vectorised corrector — no dict round trip.
            fast = FastPropagator(self.graph, seed=self.seed)
            fast.propagate(self.iterations)
            self._corrector = FastCorrectionPropagator.from_fast_propagator(
                fast, self.graph
            )
        else:
            propagator = ReferencePropagator(self.graph, seed=self.seed)
            propagator.propagate(self.iterations)
            self._corrector = CorrectionPropagator(propagator)
        self.comm_stats = None  # a local fit has no communication counters
        self.last_plan = plan
        self._postprocess_cache = None
        self._label_state_cache = None
        return self

    def fit_distributed(
        self,
        num_workers: Optional[int] = None,
        partitioner=None,
    ) -> "RSLPADetector":
        """Run Algorithm 1 on the simulated BSP cluster instead of locally.

        Produces exactly the state :meth:`fit` produces (all engines are
        bit-identical per seed) and installs the same corrector the
        resolved plan's ``backend`` would, so the ``update``/
        ``communities`` lifecycle continues unchanged; the run's
        communication counters are kept in :attr:`comm_stats`.  Keywords
        override the detector's :class:`ExecutionConfig` per call (see
        :func:`repro.distributed.run_distributed_rslpa`); defaults come
        from the config (4 workers when the config is local).
        """
        from repro.distributed.cluster import run_distributed_rslpa

        cfg = self.execution
        run_cfg = replace(
            cfg,
            # Always distributed here: None or 0 falls back to the config's
            # worker count, then to the wrapper default of 4, so the
            # recorded plan and the cluster run can never disagree.
            num_workers=num_workers or cfg.num_workers or 4,
            partitioner=partitioner if partitioner is not None else cfg.partitioner,
        )
        plan = self.plan(run_cfg)
        state, stats = run_distributed_rslpa(
            self.graph,  # read-only for the wrapper: shards snapshot/copy
            seed=self.seed,
            iterations=self.iterations,
            config=run_cfg,
        )
        self._install_corrector(state, plan.use_fast)
        self.comm_stats = stats
        self.last_plan = plan
        self._postprocess_cache = None
        self._label_state_cache = None
        return self

    @classmethod
    def from_state(
        cls,
        graph: Graph,
        state: Union[LabelState, ArrayLabelState],
        seed: int,
        backend: str = "auto",
        tau_step: float = 0.001,
        batch_epoch: int = 0,
    ) -> "RSLPADetector":
        """Adopt a previously fitted label state without re-propagating.

        This is the restart path: a state loaded from disk (either
        representation — it is converted to whatever the chosen ``backend``
        runs on) comes back as a fitted detector whose ``update`` /
        ``communities`` lifecycle continues exactly where it left off.
        ``seed`` and ``batch_epoch`` must match the original run for the
        correction lotteries to keep drawing the same numbers; ``state`` is
        adopted (mutated by future updates), not copied.
        """
        check_type(batch_epoch, int, "batch_epoch")
        detector = cls(
            graph,
            seed=seed,
            iterations=state.num_iterations,
            backend=backend,
            tau_step=tau_step,
        )
        plan = detector.plan()
        detector._install_corrector(state, plan.use_fast)
        detector._corrector.batch_epoch = batch_epoch
        detector.last_plan = plan
        return detector

    def _require_fitted(self) -> None:
        if self._corrector is None:
            raise RuntimeError("detector is not fitted; call fit() first")

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------
    def update(self, batch: EditBatch) -> UpdateReport:
        """Incrementally apply an edit batch (Algorithm 2).

        Runs on whichever corrector ``fit`` installed — the vectorised
        array engine on the fast path, the event-driven reference engine
        otherwise; both make bit-identical repairs, for any vertex ids.
        """
        self._require_fitted()
        check_type(batch, EditBatch, "batch")
        check_vertex_ids(batch.touched_vertices(), "edit batch")
        report = self._corrector.apply_batch(batch)
        self._postprocess_cache = None
        self._label_state_cache = None
        return report

    def update_many(self, batches: Iterable[EditBatch]) -> List[UpdateReport]:
        """Apply several batches in order."""
        return [self.update(batch) for batch in batches]

    def remove_vertex(self, vertex: int) -> UpdateReport:
        """Delete a vertex and all incident edges, maintaining the state."""
        self._require_fitted()
        report = self._corrector.remove_vertex(vertex)
        self._postprocess_cache = None
        self._label_state_cache = None
        return report

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def state(self) -> Union[LabelState, ArrayLabelState]:
        """The live label state, in whichever representation the plan runs on."""
        self._require_fitted()
        return self._corrector.state

    @property
    def array_state(self) -> Optional[ArrayLabelState]:
        """The live array-backed state (fast path only; ``None`` otherwise)."""
        self._require_fitted()
        state = self._corrector.state
        return state if isinstance(state, ArrayLabelState) else None

    @property
    def label_state(self) -> LabelState:
        """The maintained label sequences (read-only by convention).

        On the fast path this is a dict-backed *export* of the live array
        state (cached until the next update); mutate nothing through it.
        """
        self._require_fitted()
        state = self._corrector.state
        if isinstance(state, ArrayLabelState):
            if self._label_state_cache is None:
                self._label_state_cache = state.to_label_state()
            return self._label_state_cache
        return state

    def postprocess(self) -> PostprocessResult:
        """Run (or reuse) the Section III-B extraction on the current state."""
        self._require_fitted()
        if self._postprocess_cache is None:
            state = self._corrector.state
            sequences = (
                state.sequences_dict()
                if isinstance(state, ArrayLabelState)
                else state.labels
            )
            self._postprocess_cache = extract_communities(
                self.graph, sequences, step=self.tau_step
            )
        return self._postprocess_cache

    def communities(self) -> Cover:
        """The current overlapping communities."""
        return self.postprocess().cover

    def __repr__(self) -> str:
        status = f"T={self.iterations}" if self.is_fitted else "unfitted"
        return f"RSLPADetector(seed={self.seed}, {status}, graph={self.graph!r})"


def detect_communities(
    graph: Graph,
    seed: int = 0,
    iterations: int = DEFAULT_ITERATIONS,
    tau_step: float = 0.001,
    backend: str = "auto",
) -> Cover:
    """One-shot static detection: fit rSLPA and extract the cover.

    >>> from repro.graph import ring_of_cliques
    >>> cover = detect_communities(ring_of_cliques(4, 5), seed=1, iterations=60)
    >>> len(cover) >= 2
    True
    """
    detector = RSLPADetector(
        graph, seed=seed, iterations=iterations, tau_step=tau_step, backend=backend
    )
    return detector.fit().communities()
