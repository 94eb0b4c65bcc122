"""Tests for the static invariant checker (repro.analysis).

Rule-by-rule positive/negative fixtures (snippets routed through
``check_source`` with repro-package paths so scoping applies), the
suppression and baseline machinery, the CLI surface, and — the one that
matters most — the self-check: ``repro lint`` must be clean on the
shipped tree, because CI runs exactly that on every push.
"""

import io
import json
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Finding,
    FRAMEWORK_RULE,
    LintReport,
    RULES,
    check_source,
    format_github,
    format_json,
    format_text,
    lint_paths,
    run_checks,
)
from repro.analysis.context import ModuleContext, Rule, package_relative
from repro.cli import main

CORE = "src/repro/core/snippet.py"
GRAPH = "src/repro/graph/snippet.py"
DISTRIBUTED = "src/repro/distributed/snippet.py"
SERVICE = "src/repro/service/snippet.py"
TRANSPORT = "src/repro/distributed/transport.py"
DURABILITY = "src/repro/service/durability.py"


def rules_of(source, path, **kwargs):
    """Rule ids of all findings for a snippet (dedented, deduplicated)."""
    findings = check_source(textwrap.dedent(source), path, **kwargs)
    return sorted({f.rule for f in findings})


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# RPL001 — determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_wall_clock_flagged_in_scope(self):
        src = """
            import time
            def stamp():
                return time.time()
        """
        assert rules_of(src, CORE) == ["RPL001"]

    def test_monotonic_and_perf_counter_allowed(self):
        src = """
            import time
            def deadline():
                return time.monotonic() + 1.0
            def metric():
                return time.perf_counter(), time.time_ns()
        """
        assert rules_of(src, CORE) == []

    def test_wall_clock_out_of_scope_not_flagged(self):
        # graph/ and workloads/ are not algorithm planes.
        src = """
            import time
            def stamp():
                return time.time()
        """
        assert rules_of(src, GRAPH) == []

    def test_datetime_now_flagged(self):
        src = """
            from datetime import datetime
            def stamp():
                return datetime.now()
        """
        assert rules_of(src, SERVICE) == ["RPL001"]

    def test_global_random_flagged_seeded_instance_allowed(self):
        bad = """
            import random
            def pick(xs):
                return random.choice(xs)
        """
        good = """
            import random
            def pick(xs, seed):
                return random.Random(seed).choice(xs)
        """
        assert rules_of(bad, CORE) == ["RPL001"]
        assert rules_of(good, CORE) == []

    def test_from_import_random_resolved_through_alias(self):
        src = """
            from random import shuffle
            def mix(xs):
                shuffle(xs)
        """
        assert rules_of(src, DISTRIBUTED) == ["RPL001"]

    def test_numpy_global_rng_flagged_seeded_default_rng_allowed(self):
        bad = """
            import numpy as np
            def draw(n):
                return np.random.rand(n)
        """
        unseeded = """
            import numpy as np
            def gen():
                return np.random.default_rng()
        """
        seeded = """
            import numpy as np
            def gen(seed):
                return np.random.default_rng(seed)
        """
        assert rules_of(bad, CORE) == ["RPL001"]
        assert rules_of(unseeded, CORE) == ["RPL001"]
        assert rules_of(seeded, CORE) == []

    def test_set_iteration_is_warning_sorted_is_clean(self):
        bad = """
            def route(edges):
                for edge in set(edges):
                    yield edge
        """
        good = """
            def route(edges):
                for edge in sorted(set(edges)):
                    yield edge
        """
        findings = check_source(textwrap.dedent(bad), DISTRIBUTED)
        assert [f.rule for f in findings] == ["RPL001"]
        assert findings[0].severity == "warning"
        assert rules_of(good, DISTRIBUTED) == []

    def test_set_literal_comprehension_iteration_flagged(self):
        src = """
            def labels(xs):
                return [x for x in {v.label for v in xs}]
        """
        assert rules_of(src, CORE) == ["RPL001"]

    def test_id_and_hash_in_ordering_keys_flagged(self):
        by_id = """
            def order(xs):
                return sorted(xs, key=lambda v: id(v))
        """
        by_hash = """
            def order(xs):
                xs.sort(key=lambda v: hash(v.name))
        """
        by_value = """
            def order(xs):
                return sorted(xs, key=lambda v: v.name)
        """
        assert rules_of(by_id, CORE) == ["RPL001"]
        assert rules_of(by_hash, CORE) == ["RPL001"]
        assert rules_of(by_value, CORE) == []


# ----------------------------------------------------------------------
# RPL002 — obs overhead
# ----------------------------------------------------------------------
class TestObsOverheadRule:
    def test_module_level_import_flagged(self):
        for stmt in (
            "from repro.obs import Obs",
            "import repro.obs",
            "import repro.obs.metrics",
            "from repro.obs.trace import TraceRecorder",
            "from repro import obs",
        ):
            assert rules_of(stmt + "\n", CORE) == ["RPL002"], stmt

    def test_function_scoped_import_allowed(self):
        src = """
            def traced_path(enabled):
                if not enabled:
                    return None
                from repro.obs import Obs
                return Obs()
        """
        assert rules_of(src, DISTRIBUTED) == []

    def test_type_checking_guard_allowed(self):
        src = """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.obs import Obs
        """
        assert rules_of(src, CORE) == []

    def test_obs_package_itself_exempt(self):
        src = "from repro.obs.metrics import MetricsRegistry\n"
        assert rules_of(src, "src/repro/obs/trace.py") == []

    def test_unrelated_module_level_imports_clean(self):
        src = "from repro.core.labels import LabelState\n"
        assert rules_of(src, SERVICE) == []


# ----------------------------------------------------------------------
# RPL003 — resource discipline
# ----------------------------------------------------------------------
class TestResourceDisciplineRule:
    def test_straight_line_close_is_not_enough(self):
        # An exception between create and close leaks the socket: the
        # rule demands with/try-finally/owner escape, not happy-path close.
        src = """
            import socket
            def dial(host):
                sock = socket.create_connection((host, 9))
                sock.sendall(b"hello")
                sock.close()
        """
        assert rules_of(src, TRANSPORT) == ["RPL003"]

    def test_try_finally_release_accepted(self):
        src = """
            import socket
            def dial(host):
                sock = socket.create_connection((host, 9))
                try:
                    sock.sendall(b"hello")
                finally:
                    sock.close()
        """
        assert rules_of(src, TRANSPORT) == []

    def test_with_statement_accepted(self):
        src = """
            def publish(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
        """
        assert rules_of(src, DURABILITY) == []

    def test_escape_to_attribute_accepted(self):
        src = """
            import socket
            class Wire:
                def connect(self, host):
                    self._sock = socket.create_connection((host, 9))
        """
        assert rules_of(src, TRANSPORT) == []

    def test_escape_to_subscripted_owner_accepted(self):
        # The transport ring pattern: a local that lands in self._slots
        # is released by the owner's close()/shutdown() path.
        src = """
            from multiprocessing import shared_memory
            class Ring:
                def grow(self, slot, size):
                    segment = shared_memory.SharedMemory(create=True, size=size)
                    self._slots[slot] = segment
                    return segment.name
        """
        assert rules_of(src, TRANSPORT) == []

    def test_shared_memory_leak_flagged(self):
        src = """
            from multiprocessing import shared_memory
            def scratch(size):
                segment = shared_memory.SharedMemory(create=True, size=size)
                segment.buf[:4] = b"demo"
        """
        assert rules_of(src, TRANSPORT) == ["RPL003"]

    def test_write_handle_leak_flagged_read_handle_ignored(self):
        bad = """
            def append(path, line):
                handle = open(path, "a")
                handle.write(line)
        """
        read = """
            def load(path):
                handle = open(path)
                return handle.read()
        """
        assert rules_of(bad, DURABILITY) == ["RPL003"]
        assert rules_of(read, DURABILITY) == []

    def test_returned_resource_is_callers_problem(self):
        src = """
            import socket
            def dial(host):
                return socket.create_connection((host, 9))
        """
        assert rules_of(src, TRANSPORT) == []

    def test_out_of_scope_module_not_checked(self):
        src = """
            import socket
            def dial(host):
                sock = socket.create_connection((host, 9))
                sock.close()
        """
        assert rules_of(src, CORE) == []


# ----------------------------------------------------------------------
# RPL004 — API hygiene
# ----------------------------------------------------------------------
class TestApiHygieneRule:
    def test_backend_kwarg_clean(self):
        src = """
            from repro.core.detector import RSLPADetector
            def fit(graph):
                return RSLPADetector(graph, backend="fast").fit()
        """
        assert rules_of(src, SERVICE) == []

    def test_execution_config_engine_axis_not_confused(self):
        # ExecutionConfig(engine="array") is an accepted spelling of the
        # one message plane; RPL004 must not flag it.
        src = """
            from repro.api.config import ExecutionConfig
            def plan():
                return ExecutionConfig(engine="array")
        """
        assert rules_of(src, SERVICE) == []

    def test_unfrozen_config_dataclass_flagged(self):
        bad = """
            from dataclasses import dataclass
            @dataclass
            class RetryConfig:
                attempts: int = 3
        """
        good = """
            from dataclasses import dataclass
            @dataclass(frozen=True)
            class RetryConfig:
                attempts: int = 3
        """
        non_config = """
            from dataclasses import dataclass
            @dataclass
            class RetryState:
                attempts: int = 3
        """
        assert rules_of(bad, CORE) == ["RPL004"]
        assert rules_of(good, CORE) == []
        assert rules_of(non_config, CORE) == []

    def test_concrete_transport_import_flagged_outside_registry(self):
        src = "from repro.distributed.transport import SharedMemoryTransport\n"
        assert rules_of(src, DISTRIBUTED) == ["RPL004"]
        # Home module, registry, and package __init__ re-exports are exempt.
        assert rules_of(src, "src/repro/api/registry.py") == []
        assert rules_of(src, "src/repro/distributed/__init__.py") == []

    def test_abstract_transport_types_importable_anywhere(self):
        src = "from repro.distributed.transport import Transport, WorkerEndpoint\n"
        assert rules_of(src, DISTRIBUTED) == []


# ----------------------------------------------------------------------
# RPL005 — concurrency
# ----------------------------------------------------------------------
class TestConcurrencyRule:
    def test_bare_except_flagged_typed_clean(self):
        bad = """
            def swallow(fn):
                try:
                    fn()
                except:
                    pass
        """
        good = """
            def swallow(fn):
                try:
                    fn()
                except OSError:
                    pass
        """
        assert rules_of(bad, CORE) == ["RPL005"]
        assert rules_of(good, CORE) == []

    def test_mutable_default_flagged_in_pickled_planes_only(self):
        src = """
            class Program:
                def __init__(self, hooks=[]):
                    self.hooks = hooks
        """
        assert rules_of(src, DISTRIBUTED) == ["RPL005"]
        assert rules_of(src, SERVICE) == ["RPL005"]
        assert rules_of(src, CORE) == []  # not a worker-pickled plane

    def test_none_default_clean(self):
        src = """
            class Program:
                def __init__(self, hooks=None):
                    self.hooks = hooks or []
        """
        assert rules_of(src, DISTRIBUTED) == []

    def test_fsync_under_lock_flagged(self):
        src = """
            import os
            class Store:
                def append(self, handle):
                    with self._lock:
                        handle.flush()
                        os.fsync(handle.fileno())
        """
        assert rules_of(src, SERVICE) == ["RPL005"]

    def test_fsync_outside_lock_clean(self):
        src = """
            import os
            class Store:
                def append(self, handle):
                    handle.flush()
                    os.fsync(handle.fileno())
                    with self._lock:
                        self._records += 1
        """
        assert rules_of(src, SERVICE) == []

    def test_blocking_send_under_lock_flagged(self):
        src = """
            class Wire:
                def ship(self, payload):
                    with self._lock:
                        self._sock.sendall(payload)
        """
        assert rules_of(src, SERVICE) == ["RPL005"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_disable_with_reason_suppresses(self):
        src = """
            import os
            class Store:
                def append(self, handle):
                    with self._lock:
                        os.fsync(handle.fileno())  # repro-lint: disable=RPL005 -- the lock IS the contract
        """
        assert rules_of(src, SERVICE) == []

    def test_standalone_disable_covers_next_code_line(self):
        src = """
            import os
            class Store:
                def append(self, handle):
                    with self._lock:
                        # repro-lint: disable=RPL005 -- the lock IS the contract
                        os.fsync(handle.fileno())
        """
        assert rules_of(src, SERVICE) == []

    def test_disable_without_reason_is_flagged_but_still_suppresses(self):
        src = """
            import os
            class Store:
                def append(self, handle):
                    with self._lock:
                        os.fsync(handle.fileno())  # repro-lint: disable=RPL005
        """
        findings = check_source(textwrap.dedent(src), SERVICE)
        assert [f.rule for f in findings] == [FRAMEWORK_RULE]
        assert "justification" in findings[0].message

    def test_unused_disable_is_flagged(self):
        src = "x = 1  # repro-lint: disable=RPL001 -- stale excuse\n"
        findings = check_source(src, CORE)
        assert [f.rule for f in findings] == [FRAMEWORK_RULE]
        assert "unused suppression" in findings[0].message

    def test_disable_for_other_rule_does_not_suppress(self):
        src = """
            def swallow(fn):
                try:
                    fn()
                except:  # repro-lint: disable=RPL001 -- wrong rule id
                    pass
        """
        rule_ids = rules_of(src, CORE)
        assert "RPL005" in rule_ids      # the real finding survives
        assert FRAMEWORK_RULE in rule_ids  # and the disable is unused

    def test_unknown_rule_id_in_disable_is_flagged(self):
        src = "x = 1  # repro-lint: disable=RPL999999 -- typo\n"
        findings = check_source(src, CORE)
        assert [f.rule for f in findings] == [FRAMEWORK_RULE]

    def test_docstring_mention_is_not_a_directive(self):
        src = '''
            def helper():
                """Explains the marker: # repro-lint: disable=RPL001."""
                return 1
        '''
        assert rules_of(src, CORE) == []


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def _finding(self, rule="RPL001", path=CORE, symbol="f"):
        return Finding(rule=rule, path=path, line=3, col=0,
                       message="m", symbol=symbol)

    def test_round_trip_and_matching(self, tmp_path):
        finding = self._finding()
        baseline = Baseline.from_findings([finding], justification="debt")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        reloaded = Baseline.load(path)
        fresh, grandfathered, stale = reloaded.split([finding])
        assert fresh == [] and grandfathered == [finding] and stale == []

    def test_line_drift_still_matches(self, tmp_path):
        baseline = Baseline.from_findings(
            [self._finding()], justification="debt"
        )
        moved = Finding(rule="RPL001", path=CORE, line=99, col=4,
                        message="m", symbol="f")
        fresh, grandfathered, _ = baseline.split([moved])
        assert fresh == [] and grandfathered == [moved]

    def test_unmatched_finding_is_fresh_and_entry_goes_stale(self):
        baseline = Baseline.from_findings(
            [self._finding(symbol="old_site")], justification="debt"
        )
        other = self._finding(symbol="new_site")
        fresh, grandfathered, stale = baseline.split([other])
        assert fresh == [other] and grandfathered == []
        assert [e.symbol for e in stale] == ["old_site"]

    def test_entry_without_justification_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "RPL001", "path": CORE, "symbol": "f",
                         "justification": "  "}],
        }))
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)
        with pytest.raises(ValueError, match="justification"):
            BaselineEntry("RPL001", CORE, "f", "")

    def test_version_and_shape_checked(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="baseline"):
            Baseline.load(path)


# ----------------------------------------------------------------------
# Framework: context, registry, runner, formats
# ----------------------------------------------------------------------
class TestFramework:
    def test_package_relative(self):
        assert package_relative("src/repro/core/detector.py") == "core/detector.py"
        assert package_relative("repro/obs/trace.py") == "obs/trace.py"
        assert package_relative("tests/test_x.py") is None

    def test_syntax_error_is_a_framework_finding(self):
        findings = check_source("def broken(:\n", CORE)
        assert [f.rule for f in findings] == [FRAMEWORK_RULE]
        assert "syntax error" in findings[0].message

    def test_import_alias_resolution(self):
        ctx = ModuleContext(CORE, textwrap.dedent("""
            import numpy as np
            from multiprocessing import shared_memory
            from time import time as now
        """))
        assert ctx.imports["np"] == "numpy"
        assert ctx.imports["shared_memory"] == "multiprocessing.shared_memory"
        assert ctx.imports["now"] == "time.time"

    def test_plugin_rule_registration(self):
        class NoTodoRule(Rule):
            rule_id = "RPL901"
            title = "no TODO constants"
            scope_any_file = True

            def check(self, ctx):
                import ast
                for node in ctx.walk(ast.Constant):
                    if node.value == "TODO":
                        yield self.finding(ctx, node, "TODO constant")

        RULES.register("RPL901", NoTodoRule)
        try:
            findings = check_source(
                'MARKER = "TODO"\n', CORE, rules=[NoTodoRule()]
            )
            assert [f.rule for f in findings] == ["RPL901"]
        finally:
            RULES._entries.pop("RPL901", None)

    def test_findings_sorted_and_deduplicated(self):
        src = """
            import time
            def a():
                return time.time()
            def b():
                return time.time()
        """
        findings = check_source(textwrap.dedent(src), CORE)
        assert len(findings) == 2
        assert findings == sorted(findings, key=Finding.sort_key)

    def test_run_checks_over_directory(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nT = time.time()\n")
        (pkg / "good.py").write_text("X = 1\n")
        findings = run_checks([tmp_path / "src"])
        assert [f.rule for f in findings] == ["RPL001"]
        assert findings[0].path.endswith("core/bad.py")

    def test_formats(self):
        finding = Finding(rule="RPL001", path=CORE, line=3, col=4,
                          message="msg % with\nnewline", symbol="f")
        report = LintReport([finding], [], [], files_checked=1)
        text = format_text(report, stats=True)
        assert f"{CORE}:3:5: RPL001 error" in text
        assert "RPL001: 1" in text
        github = format_github(report)
        assert f"::error file={CORE},line=3,col=5,title=RPL001::" in github
        assert "%25" in github and "%0A" in github  # escaped payload
        payload = json.loads(format_json(report))
        assert payload["counts_by_rule"] == {"RPL001": 1}
        assert payload["findings"][0]["symbol"] == "f"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestLintCli:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nT = time.time()\n")
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("X = 1\n")
        code, output = run_cli("lint", str(tmp_path / "src"))
        assert code == 0
        assert "0 error(s)" in output

    def test_findings_exit_one(self, dirty_tree):
        code, output = run_cli("lint", str(dirty_tree / "src"))
        assert code == 1
        assert "RPL001" in output

    def test_github_format(self, dirty_tree):
        code, output = run_cli(
            "lint", str(dirty_tree / "src"), "--format", "github"
        )
        assert code == 1
        assert "::error file=" in output and "title=RPL001" in output

    def test_json_format_and_stats(self, dirty_tree):
        code, output = run_cli(
            "lint", str(dirty_tree / "src"), "--format", "json", "--stats"
        )
        assert code == 1
        assert json.loads(output)["counts_by_rule"] == {"RPL001": 1}
        code, output = run_cli("lint", str(dirty_tree / "src"), "--stats")
        assert "per-rule finding counts:" in output
        assert "RPL001: 1" in output

    def test_write_baseline_then_clean(self, dirty_tree):
        baseline = dirty_tree / "baseline.json"
        code, output = run_cli(
            "lint", str(dirty_tree / "src"),
            "--baseline", str(baseline), "--write-baseline",
        )
        assert code == 0 and "grandfathered" in output
        code, output = run_cli(
            "lint", str(dirty_tree / "src"), "--baseline", str(baseline)
        )
        assert code == 0
        assert "1 grandfathered" in output

    def test_write_baseline_requires_path(self, dirty_tree):
        code, _ = run_cli("lint", str(dirty_tree / "src"), "--write-baseline")
        assert code == 2

    def test_strict_promotes_warnings(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "warn.py").write_text(
            "def f(xs):\n    return [x for x in set(xs)]\n"
        )
        code, _ = run_cli("lint", str(tmp_path / "src"))
        assert code == 0  # warning severity does not gate by default
        code, _ = run_cli("lint", str(tmp_path / "src"), "--strict")
        assert code == 1

    def test_missing_path_is_usage_error(self, tmp_path):
        code, _ = run_cli("lint", str(tmp_path / "nope"))
        assert code == 2


# ----------------------------------------------------------------------
# The self-check: the shipped tree is clean (CI runs exactly this)
# ----------------------------------------------------------------------
class TestShippedTreeClean:
    def test_repro_lint_smoke_clean_on_shipped_tree(self, repo_root):
        report = lint_paths([repo_root / "src" / "repro"])
        messages = [str(f) for f in report.findings]
        assert report.exit_code() == 0, (
            "repro lint must be clean on the shipped tree:\n"
            + "\n".join(messages)
        )
        # Warnings would also be new debt; the tree ships with none.
        assert messages == []
        assert report.files_checked >= 75

    def test_committed_baseline_is_empty_or_justified(self, repo_root):
        baseline = Baseline.load(repo_root / ".repro-lint-baseline.json")
        for entry in baseline.entries:
            assert entry.justification.strip()
        # The shipped tree carries no grandfathered debt.
        assert len(baseline) == 0

    def test_cli_self_check(self, repo_root):
        code, output = run_cli(
            "lint", str(repo_root / "src" / "repro"),
            "--baseline", str(repo_root / ".repro-lint-baseline.json"),
            "--stats",
        )
        assert code == 0
        assert "0 error(s), 0 warning(s)" in output


@pytest.fixture
def repo_root():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():  # pragma: no cover
        pytest.skip("source tree not available (installed package)")
    return root
