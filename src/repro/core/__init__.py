"""Core rSLPA: label propagation, post-processing, incremental maintenance.

Engine matrix — every stage exists in a pure-Python reference form and an
array-substrate fast form, bit-identical per seed:

====================  =============================  ================================
stage                 reference (dict/list state)    fast (numpy array state)
====================  =============================  ================================
static propagation    :class:`ReferencePropagator`   :class:`FastPropagator`
label state           :class:`LabelState`            :class:`ArrayLabelState`
incremental repair    :class:`CorrectionPropagator`  :class:`FastCorrectionPropagator`
====================  =============================  ================================

The fast column chains without leaving numpy: ``FastPropagator`` runs on a
CSR snapshot, ``to_array_state()`` exports its ``(T+1, n)`` matrices as an
:class:`ArrayLabelState` (reverse records built by one argsort), and
``FastCorrectionPropagator`` repairs that state with O(η) vectorised passes
per edit batch.  Both columns take any vertex ids but −1 (``NO_SOURCE``):
the array state carries a column → id array and every draw is keyed by
the vertex id.  ``to_label_state()`` / ``ArrayLabelState.from_label_state``
cross between the columns at any point; the reference column remains the
semantic ground truth the tests compare against, and runs only when
``backend="reference"`` is asked for.
"""

from repro.core.communities import Cover
from repro.core.complexity import (
    best_case_updates,
    change_probability,
    change_probability_paper_verbatim,
    expected_updates,
    survival_probabilities,
    worst_case_updates,
)
from repro.core.detector import RSLPADetector, detect_communities
from repro.core.fast import FastPropagator
from repro.core.incremental import CorrectionPropagator
from repro.core.incremental_fast import FastCorrectionPropagator, UpdateReport
from repro.core.labels import LabelState
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import (
    PostprocessResult,
    edge_weights,
    extract_communities,
    sequence_similarity,
    sweep_tau1,
    weak_threshold,
)
from repro.core.randomness import NO_SOURCE
from repro.core.rslpa import ReferencePropagator
from repro.core.serialize import (
    load_cover,
    load_state,
    save_cover,
    save_state,
    state_from_dict,
    state_to_dict,
)
from repro.core.tracking import CommunityEvent, CommunityTracker, TransitionReport, match_covers
from repro.core.voting import (
    distribution_levels,
    max_win_probability,
    plurality_win_distribution,
    uniform_pick_distribution,
    uniform_pick_from_multiset,
)

__all__ = [
    "Cover",
    "RSLPADetector",
    "detect_communities",
    "ReferencePropagator",
    "FastPropagator",
    "CorrectionPropagator",
    "FastCorrectionPropagator",
    "UpdateReport",
    "LabelState",
    "ArrayLabelState",
    "NO_SOURCE",
    "PostprocessResult",
    "extract_communities",
    "edge_weights",
    "sequence_similarity",
    "sweep_tau1",
    "weak_threshold",
    "change_probability",
    "change_probability_paper_verbatim",
    "survival_probabilities",
    "expected_updates",
    "best_case_updates",
    "worst_case_updates",
    "plurality_win_distribution",
    "uniform_pick_distribution",
    "uniform_pick_from_multiset",
    "max_win_probability",
    "distribution_levels",
    "save_state",
    "load_state",
    "state_to_dict",
    "state_from_dict",
    "save_cover",
    "load_cover",
    "CommunityTracker",
    "CommunityEvent",
    "TransitionReport",
    "match_covers",
]
