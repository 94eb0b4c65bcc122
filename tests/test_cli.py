"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main, parse_edit_file
from repro.core.serialize import load_state
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path, cliques_ring):
    path = str(tmp_path / "graph.txt")
    write_edge_list(cliques_ring, path)
    return path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParseEditFile:
    def test_parses_inserts_and_deletes(self, tmp_path):
        path = tmp_path / "edits.txt"
        path.write_text("# comment\n+ 1 2\n- 3 4\n\n+ 5 6\n")
        batch = parse_edit_file(str(path))
        assert batch.insertions == frozenset({(1, 2), (5, 6)})
        assert batch.deletions == frozenset({(3, 4)})

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "edits.txt"
        path.write_text("* 1 2\n")
        with pytest.raises(ValueError, match="expected"):
            parse_edit_file(str(path))

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "edits.txt"
        path.write_text("+ a b\n")
        with pytest.raises(ValueError, match="non-integer"):
            parse_edit_file(str(path))


class TestStats:
    def test_stats_output(self, graph_file):
        code, output = run_cli("stats", graph_file)
        assert code == 0
        payload = json.loads(output)
        assert payload["vertices"] == 30
        assert payload["edges"] == 80
        assert payload["connected_components"] == 1

    def test_missing_file_is_error(self):
        code, _ = run_cli("stats", "/nonexistent/graph.txt")
        assert code == 2


class TestDetect:
    def test_detect_prints_cover_summary(self, graph_file):
        code, output = run_cli(
            "detect", graph_file, "--seed", "1", "-T", "60",
            "--tau-step", "0.005",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["num_communities"] == 5
        assert sorted(payload["sizes"]) == [6, 6, 6, 6, 6]

    def test_detect_saves_state_and_cover(self, graph_file, tmp_path):
        state_path = str(tmp_path / "state.json")
        cover_path = str(tmp_path / "cover.json")
        code, output = run_cli(
            "detect", graph_file, "--seed", "1", "-T", "40",
            "--state", state_path, "--cover", cover_path,
        )
        assert code == 0
        state = load_state(state_path)
        assert state.num_iterations == 40
        assert json.load(open(cover_path))["format"] == "repro.cover"

    def test_detect_distributed_matches_local(self, graph_file, tmp_path):
        """--distributed N produces the same state/cover as a local fit."""
        local_state = str(tmp_path / "local.json")
        dist_state = str(tmp_path / "dist.json")
        code, _ = run_cli(
            "detect", graph_file, "--seed", "1", "-T", "40",
            "--state", local_state,
        )
        assert code == 0
        code, output = run_cli(
            "detect", graph_file, "--seed", "1", "-T", "40",
            "--state", dist_state, "--distributed", "3",
        )
        assert code == 0
        assert "distributed fit:" in output
        assert load_state(dist_state).labels == load_state(local_state).labels


class TestUpdate:
    def test_full_detect_update_cycle(self, graph_file, tmp_path, cliques_ring):
        state_path = str(tmp_path / "state.json")
        code, _ = run_cli(
            "detect", graph_file, "--seed", "3", "-T", "40",
            "--state", state_path,
        )
        assert code == 0

        edits_path = tmp_path / "edits.txt"
        edits_path.write_text("- 0 1\n+ 0 12\n")
        code, output = run_cli(
            "update", state_path, graph_file, str(edits_path),
            "--seed", "3", "--tau-step", "0.01",
        )
        assert code == 0
        assert "labels touched" in output

        # The saved state must reflect the post-batch graph.
        state = load_state(state_path)
        updated = cliques_ring.copy()
        updated.remove_edge(0, 1)
        updated.add_edge(0, 12)
        state.validate(updated)

    def test_update_backends_write_identical_state(self, graph_file, tmp_path):
        ref_path = str(tmp_path / "state_ref.json")
        fast_path = str(tmp_path / "state_fast.json")
        run_cli("detect", graph_file, "--seed", "3", "-T", "30",
                "--state", ref_path)
        run_cli("detect", graph_file, "--seed", "3", "-T", "30",
                "--state", fast_path)
        edits_path = tmp_path / "edits.txt"
        edits_path.write_text("- 0 1\n+ 0 12\n+ 30 4\n")
        for path, backend in ((ref_path, "reference"), (fast_path, "fast")):
            code, _ = run_cli(
                "update", path, graph_file, str(edits_path),
                "--seed", "3", "--backend", backend,
            )
            assert code == 0
        with open(ref_path) as ref, open(fast_path) as fast:
            assert json.load(ref) == json.load(fast)

    def test_update_fast_backend_accepts_gappy_ids(self, tmp_path):
        from repro.graph.adjacency import Graph

        gap_graph = str(tmp_path / "gap.txt")
        write_edge_list(Graph.from_edges([(10, 20), (20, 30)]), gap_graph)
        edits_path = tmp_path / "edits.txt"
        edits_path.write_text("+ 10 30\n+ 30 45\n")
        states = []
        for backend in ("reference", "fast"):
            state_path = str(tmp_path / f"state_{backend}.json")
            code, _ = run_cli("detect", gap_graph, "--seed", "1", "-T", "10",
                              "--backend", "reference", "--state", state_path)
            assert code == 0
            code, _ = run_cli(
                "update", state_path, gap_graph, str(edits_path),
                "--seed", "1", "--backend", backend,
            )
            assert code == 0
            with open(state_path) as handle:
                states.append(json.load(handle))
        assert states[0] == states[1]

    def test_update_auto_falls_back_on_gap_vertex_batch(self, graph_file, tmp_path):
        auto_path = str(tmp_path / "state_auto.json")
        ref_path = str(tmp_path / "state_ref.json")
        run_cli("detect", graph_file, "--seed", "3", "-T", "30",
                "--state", auto_path)
        run_cli("detect", graph_file, "--seed", "3", "-T", "30",
                "--state", ref_path)
        edits_path = tmp_path / "edits.txt"
        edits_path.write_text("+ 0 100\n")  # vertex 100 leaves a gap
        code, _ = run_cli("update", auto_path, graph_file, str(edits_path),
                          "--seed", "3")  # default --backend auto
        assert code == 0
        code, _ = run_cli("update", ref_path, graph_file, str(edits_path),
                          "--seed", "3", "--backend", "reference")
        assert code == 0
        with open(auto_path) as a, open(ref_path) as r:
            assert json.load(a) == json.load(r)

    def test_update_corrupt_state_is_clean_error(self, graph_file, tmp_path):
        state_path = str(tmp_path / "state.json")
        run_cli("detect", graph_file, "--seed", "3", "-T", "20",
                "--state", state_path)
        with open(state_path) as handle:
            payload = json.load(handle)
        payload["vertices"]["0"]["labels"][5] = 999_999  # break an invariant
        with open(state_path, "w") as handle:
            json.dump(payload, handle)
        edits_path = tmp_path / "edits.txt"
        edits_path.write_text("- 0 1\n")
        for backend in ("auto", "reference", "fast"):
            code, _ = run_cli("update", state_path, graph_file,
                              str(edits_path), "--seed", "3",
                              "--backend", backend)
            assert code == 2  # clean CLI error, not a traceback

    def test_update_with_cover_extraction(self, graph_file, tmp_path):
        state_path = str(tmp_path / "state.json")
        run_cli("detect", graph_file, "--seed", "3", "-T", "40",
                "--state", state_path)
        edits_path = tmp_path / "edits.txt"
        edits_path.write_text("- 0 1\n")
        cover_path = str(tmp_path / "cover.json")
        code, output = run_cli(
            "update", state_path, graph_file, str(edits_path),
            "--seed", "3", "--cover", cover_path, "--tau-step", "0.01",
        )
        assert code == 0
        assert "num_communities" in output


class TestServe:
    def test_serve_runs_and_reports(self, graph_file, tmp_path):
        edits = tmp_path / "edits.txt"
        edits.write_text("+ 0 12\n+ 3 18\n- 0 1\n+ 0 1\n- 0 1\n")
        code, output = run_cli(
            "serve", graph_file, "--seed", "3", "-T", "40",
            "--edits", str(edits), "--batch-size", "2", "--query", "0",
        )
        assert code == 0
        payload = json.loads(output)
        # 5 raw edits: one insert/delete pair cancels in the queue, the
        # re-offered delete lands in the final flush -> 2 batches, 3 edits.
        assert payload["stats"]["batches_applied"] == 2
        assert payload["stats"]["edits_applied"] == 3
        assert payload["stats"]["queue_cancelled_pairs"] == 1
        assert payload["memberships"]["0"]["communities"]

    def test_serve_with_durability_then_recover(self, graph_file, tmp_path):
        ckpt_dir = str(tmp_path / "svc")
        edits = tmp_path / "edits.txt"
        edits.write_text("+ 0 12\n+ 3 18\n+ 7 25\n")
        code, first = run_cli(
            "serve", graph_file, "--seed", "3", "-T", "40",
            "--edits", str(edits), "--batch-size", "2",
            "--checkpoint-dir", ckpt_dir, "--query", "0",
        )
        assert code == 0
        code, second = run_cli(
            "serve", "--recover", "--checkpoint-dir", ckpt_dir, "--query", "0",
        )
        assert code == 0
        body = second[second.index("{"):]
        recovered = json.loads(body)
        original = json.loads(first)
        assert recovered["stats"]["batches_applied"] == \
            original["stats"]["batches_applied"]
        assert recovered["stats"]["edges"] == original["stats"]["edges"]
        assert recovered["memberships"] == original["memberships"]

    def test_serve_recover_requires_dir(self):
        code, _ = run_cli("serve", "--recover")
        assert code == 2

    def test_serve_requires_graph_without_recover(self):
        code, _ = run_cli("serve")
        assert code == 2

    def test_serve_distributed_matches_local(self, graph_file):
        code_l, local = run_cli("serve", graph_file, "--seed", "3", "-T", "40",
                                "--query", "5")
        code_d, dist = run_cli("serve", graph_file, "--seed", "3", "-T", "40",
                               "--query", "5", "--distributed", "2")
        assert code_l == 0 and code_d == 0
        assert json.loads(local)["memberships"] == json.loads(dist)["memberships"]


class TestUpdateNpzState:
    """`update` must handle array-native state files exactly like JSON ones."""

    @pytest.mark.parametrize("backend", ["auto", "fast", "reference"])
    def test_npz_state_update_matches_json_state_update(
        self, graph_file, tmp_path, backend
    ):
        json_state = str(tmp_path / "state.json")
        npz_state = str(tmp_path / "state.npz")
        for state_path in (json_state, npz_state):
            code, _ = run_cli(
                "detect", graph_file, "--seed", "1", "-T", "40",
                "--state", state_path,
            )
            assert code == 0
        edits = tmp_path / "edits.txt"
        edits.write_text("+ 0 12\n- 0 1\n+ 7 25\n- 6 8\n")
        outputs = {}
        for state_path in (json_state, npz_state):
            cover_path = state_path + ".cover"
            code, output = run_cli(
                "update", state_path, graph_file, str(edits),
                "--seed", "1", "--backend", backend, "--cover", cover_path,
            )
            assert code == 0
            # "applied N edits: R repicked, L labels touched; state saved..."
            outputs[state_path] = output.splitlines()[0].split("; state saved")[0]
        # Identical repick/η line and identical covers for both formats.
        assert outputs[json_state] == outputs[npz_state]
        from repro.core.serialize import load_cover

        assert load_cover(json_state + ".cover") == load_cover(npz_state + ".cover")

    def test_npz_state_stays_npz_after_update(self, graph_file, tmp_path):
        npz_state = str(tmp_path / "state.npz")
        run_cli("detect", graph_file, "--seed", "1", "-T", "40",
                "--state", npz_state)
        edits = tmp_path / "edits.txt"
        edits.write_text("+ 0 12\n")
        code, _ = run_cli("update", npz_state, graph_file, str(edits),
                          "--seed", "1")
        assert code == 0
        with open(npz_state, "rb") as handle:
            assert handle.read(2) == b"PK"
        assert type(load_state(npz_state)).__name__ == "ArrayLabelState"


class TestFaultToleranceFlags:
    def test_plan_resolves_fault_tolerance(self, graph_file):
        code, output = run_cli(
            "plan", graph_file, "--distributed", "2", "--multiprocess",
            "--fault-tolerance", "--checkpoint-interval", "2",
        )
        assert code == 0
        assert "fault_tolerance=on (checkpoint_interval=2, max_restarts=3)" in output
        assert "checkpoint_interval" in output
        assert "explicitly requested" in output

    def test_fault_tolerance_requires_multiprocess(self, graph_file):
        code, output = run_cli(
            "plan", graph_file, "--distributed", "2", "--fault-tolerance"
        )
        assert code != 0

    def test_knobs_require_fault_tolerance(self, graph_file):
        code, _ = run_cli(
            "plan", graph_file, "--distributed", "2", "--multiprocess",
            "--max-restarts", "5",
        )
        assert code != 0
