"""Tests for label-state and cover persistence."""

import io
import json

import pytest

from repro.core.communities import Cover
from repro.core.incremental import CorrectionPropagator
from repro.core.rslpa import ReferencePropagator
from repro.core.serialize import (
    cover_from_dict,
    cover_to_dict,
    load_cover,
    load_state,
    save_cover,
    save_state,
    state_from_dict,
    state_to_dict,
)
from repro.workloads.dynamic import random_edit_batch


@pytest.fixture
def state(cliques_ring):
    propagator = ReferencePropagator(cliques_ring, seed=5)
    propagator.propagate(20)
    return propagator.state


class TestStateRoundtrip:
    def test_dict_roundtrip_preserves_everything(self, state):
        rebuilt = state_from_dict(state_to_dict(state))
        assert rebuilt.labels == state.labels
        assert rebuilt.srcs == state.srcs
        assert rebuilt.poss == state.poss
        assert rebuilt.epochs == state.epochs
        assert rebuilt.receivers == state.receivers
        assert rebuilt.num_iterations == state.num_iterations

    def test_file_roundtrip(self, state, tmp_path):
        path = str(tmp_path / "state.json")
        save_state(state, path)
        rebuilt = load_state(path)
        assert rebuilt.labels == state.labels

    def test_stream_roundtrip(self, state):
        buffer = io.StringIO()
        save_state(state, buffer)
        buffer.seek(0)
        rebuilt = load_state(buffer)
        assert rebuilt.receivers == state.receivers

    def test_document_is_plain_json(self, state):
        text = json.dumps(state_to_dict(state))
        assert "repro.label_state" in text

    def test_loaded_state_supports_incremental_updates(self, state, cliques_ring):
        """The round-tripped state must be fully operational."""
        rebuilt = state_from_dict(state_to_dict(state))
        propagator = ReferencePropagator.from_state(cliques_ring, 5, rebuilt)
        corrector = CorrectionPropagator(propagator)
        batch = random_edit_batch(cliques_ring, 4, seed=1)
        corrector.apply_batch(batch)
        rebuilt.validate(cliques_ring)

    def test_epochs_preserved_after_updates(self, state, cliques_ring):
        propagator = ReferencePropagator.from_state(cliques_ring, 5, state)
        corrector = CorrectionPropagator(propagator)
        corrector.apply_batch(random_edit_batch(cliques_ring, 6, seed=2))
        rebuilt = state_from_dict(state_to_dict(state))
        assert rebuilt.epochs == state.epochs

    def test_from_state_rejects_vertex_mismatch(self, state):
        from repro.graph.adjacency import Graph

        with pytest.raises(ValueError, match="do not match"):
            ReferencePropagator.from_state(Graph.from_edges([(0, 1)]), 5, state)


class TestStateValidation:
    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a label-state"):
            state_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self, state):
        payload = state_to_dict(state)
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            state_from_dict(payload)

    def test_rejects_ragged_arrays(self, state):
        payload = state_to_dict(state)
        first = next(iter(payload["vertices"].values()))
        first["srcs"] = first["srcs"][:-1]
        with pytest.raises(ValueError, match="ragged"):
            state_from_dict(payload)

    def test_rejects_wrong_length(self, state):
        payload = state_to_dict(state)
        first = next(iter(payload["vertices"].values()))
        for key in ("labels", "srcs", "poss", "epochs"):
            first[key] = first[key] + [0]
        with pytest.raises(ValueError, match="sequence length"):
            state_from_dict(payload)

    def test_rejects_unknown_source(self, state):
        payload = state_to_dict(state)
        first = next(iter(payload["vertices"].values()))
        first["srcs"][1] = 10_000
        with pytest.raises((ValueError, AssertionError)):
            state_from_dict(payload)

    def test_corrupted_label_caught_by_validate(self, state):
        payload = state_to_dict(state)
        first = next(iter(payload["vertices"].values()))
        first["labels"][1] = 987654  # breaks label == source-value invariant
        with pytest.raises(AssertionError):
            state_from_dict(payload)


class TestCoverRoundtrip:
    def test_dict_roundtrip(self):
        cover = Cover([{0, 1, 2}, {2, 3}])
        assert cover_from_dict(cover_to_dict(cover)) == cover

    def test_file_roundtrip(self, tmp_path):
        cover = Cover([{5, 6}, {7}])
        path = str(tmp_path / "cover.json")
        save_cover(cover, path)
        assert load_cover(path) == cover

    def test_stream_roundtrip(self):
        cover = Cover([{1, 2, 3}])
        buffer = io.StringIO()
        save_cover(cover, buffer)
        buffer.seek(0)
        assert load_cover(buffer) == cover

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a cover"):
            cover_from_dict({"format": "nope"})

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            cover_from_dict({"format": "repro.cover", "version": -1})


class TestArrayStateNpz:
    """The array-native npz sidecar: no dict-state detour on either side."""

    @pytest.fixture
    def array_state(self, state):
        from repro.core.labels_array import ArrayLabelState

        return ArrayLabelState.from_label_state(state)

    def test_npz_roundtrip_is_bitwise(self, array_state, tmp_path):
        import numpy as np

        path = str(tmp_path / "state.npz")
        save_state(array_state, path)
        rebuilt = load_state(path)
        assert type(rebuilt).__name__ == "ArrayLabelState"
        for name in ("labels", "srcs", "poss", "epochs"):
            assert np.array_equal(getattr(rebuilt, name), getattr(array_state, name))
        assert np.array_equal(rebuilt.alive, array_state.alive)

    def test_npz_layout_matches_numpy_writer(self, array_state, tmp_path):
        """The one writer keeps numpy's container: the same deflated
        ``<name>.npy`` members, dtypes and shapes as savez_compressed."""
        import zipfile

        import numpy as np

        from repro.core.serialize import state_to_arrays

        ours, numpys = tmp_path / "ours.npz", tmp_path / "numpy.npz"
        save_state(array_state, str(ours))
        np.savez_compressed(numpys, **state_to_arrays(array_state))
        with zipfile.ZipFile(ours) as a, zipfile.ZipFile(numpys) as b:
            assert a.namelist() == b.namelist()
            assert {i.compress_type for i in a.infolist()} == {zipfile.ZIP_DEFLATED}
        with np.load(ours) as a, np.load(numpys) as b:
            for name in b.files:
                assert a[name].dtype == b[name].dtype, name
                assert np.array_equal(a[name], b[name]), name

    def test_label_state_converts_through_npz(self, state, tmp_path):
        path = str(tmp_path / "state.npz")
        save_state(state, path)
        rebuilt = load_state(path)
        assert rebuilt.to_label_state().labels == state.labels

    def test_array_state_converts_through_json(self, array_state, state, tmp_path):
        path = str(tmp_path / "state.json")
        save_state(array_state, path)
        rebuilt = load_state(path)
        assert rebuilt.labels == state.labels
        assert rebuilt.receivers == state.receivers

    def test_binary_stream_roundtrip(self, array_state):
        import numpy as np

        buffer = io.BytesIO()
        save_state(array_state, buffer)
        buffer.seek(0)
        rebuilt = load_state(buffer)
        assert np.array_equal(rebuilt.labels, array_state.labels)

    def test_format_sniffed_not_suffixed(self, array_state, tmp_path):
        """A .npz file renamed to .json still loads as an array state."""
        import os

        npz = str(tmp_path / "state.npz")
        save_state(array_state, npz)
        disguised = str(tmp_path / "state.json")
        os.rename(npz, disguised)
        assert type(load_state(disguised)).__name__ == "ArrayLabelState"

    def test_roundtripped_state_supports_updates(self, array_state, cliques_ring, tmp_path):
        from repro.core.incremental_fast import FastCorrectionPropagator
        from repro.workloads.dynamic import random_edit_batch

        path = str(tmp_path / "state.npz")
        save_state(array_state, path)
        rebuilt = load_state(path)
        corrector = FastCorrectionPropagator(cliques_ring.copy(), rebuilt, 5)
        corrector.apply_batch(random_edit_batch(cliques_ring, 4, seed=1))
        rebuilt.validate()

    def test_rejects_wrong_array_version(self, array_state, tmp_path):
        import numpy as np

        from repro.core.serialize import state_to_arrays

        arrays = state_to_arrays(array_state)
        arrays["version"] = np.array(999)
        path = str(tmp_path / "state.npz")
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_state(path)

    def test_rejects_missing_arrays(self, array_state, tmp_path):
        import numpy as np

        from repro.core.serialize import state_to_arrays

        arrays = state_to_arrays(array_state)
        del arrays["epochs"]
        path = str(tmp_path / "state.npz")
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="missing"):
            load_state(path)

    def test_rejects_foreign_npz(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "other.npz")
        np.savez_compressed(path, values=np.arange(3))
        with pytest.raises(ValueError, match="format"):
            load_state(path)

    def test_non_seekable_stream_keeps_json_contract(self, state):
        """Pipes/stdin (no seeking) must still load JSON states."""

        class OneWayReader(io.TextIOBase):
            def __init__(self, text):
                self._inner = io.StringIO(text)

            def read(self, size=-1):
                return self._inner.read(size)

            def seekable(self):
                return False

        buffer = io.StringIO()
        save_state(state, buffer)
        rebuilt = load_state(OneWayReader(buffer.getvalue()))
        assert rebuilt.labels == state.labels
