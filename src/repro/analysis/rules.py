"""The built-in rule pack: the codebase's invariants, statically enforced.

Each rule is the static twin of a dynamic contract this repo already
tests (see DESIGN.md "Static invariants" for the full mapping):

* **RPL001 determinism** — the paper's Correction-Propagation guarantee
  (incremental == recomputation, bit-identical per seed) dies the moment
  wall-clock time, process-salted hashes, or unseeded module-level RNG
  feeds an algorithm decision.  Scoped to the algorithm planes.
* **RPL002 obs-overhead** — untraced runs must never import
  :mod:`repro.obs`; the ``sys.modules`` booby-trap test catches an
  executed violation, this rule catches it at diff time.
* **RPL003 resource discipline** — shared-memory segments, sockets, and
  write handles in the transport, runtime and durability modules must
  reach a release on *all* paths (``with``, ``try/finally``, or escape
  to a long-lived owner with a shutdown path); the SIGKILL tests assert
  ``/dev/shm`` stays clean, this rule asserts the code shape that makes
  them pass.
* **RPL004 API hygiene** — configs stay frozen dataclasses, concrete
  components are resolved through :mod:`repro.api.registry`, never
  imported directly.
* **RPL005 concurrency** — no blocking I/O (fsync, socket sends) while
  holding the durability lock, no bare ``except``, no mutable default
  arguments on code that crosses pickle boundaries into workers.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.context import ModuleContext, Rule, RULES
from repro.analysis.findings import WARNING, Finding

__all__ = [
    "DeterminismRule",
    "ObsOverheadRule",
    "ResourceDisciplineRule",
    "ApiHygieneRule",
    "ConcurrencyRule",
]


# ----------------------------------------------------------------------
# RPL001 — determinism
# ----------------------------------------------------------------------
#: Wall-clock reads that must never feed algorithm decisions.  Deadlines
#: use time.monotonic; metrics use time.perf_counter/time.time_ns; the
#: algorithm planes use neither (every draw is (seed, slot, epoch)-keyed).
_WALL_CLOCK_CALLS = {
    "time.time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Module-level random functions that draw from the shared, unseeded
#: global stream.  Constructing a seeded instance (random.Random(seed),
#: numpy.random.default_rng(seed)) is the sanctioned pattern
#: (repro.utils.rng wraps it).
_GLOBAL_RANDOM_FUNCS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randint", "random", "randrange", "sample", "seed", "shuffle",
    "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}

#: numpy.random attributes that are types/utilities, not global-stream
#: draws; everything else under numpy.random.* is banned in scope.
_NP_RANDOM_ALLOWED = {
    "Generator", "BitGenerator", "SeedSequence", "PCG64", "Philox",
    "MT19937", "SFC64",
}


class DeterminismRule(Rule):
    """RPL001: no wall clock, global RNG, salted hashes, or raw-set
    iteration order in the algorithm planes."""

    rule_id = "RPL001"
    title = "determinism: seeded, order-stable algorithm code"
    scope = ("core/", "distributed/", "service/", "baselines/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.walk(ast.Call):
            name = ctx.call_name(call)
            if name is None:
                continue
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, call,
                    f"wall-clock read {name}() in algorithm code: results "
                    "must be a pure function of (graph, seed, batch "
                    "sequence); use time.monotonic for deadlines and "
                    "time.perf_counter/time.time_ns only for metrics",
                )
            elif (
                name.startswith("random.")
                and name.split(".", 1)[1] in _GLOBAL_RANDOM_FUNCS
            ):
                yield self.finding(
                    ctx, call,
                    f"{name}() draws from the unseeded process-global "
                    "stream; derive a seeded generator via "
                    "repro.utils.rng.derive_rng instead",
                )
            elif name.startswith("numpy.random."):
                tail = name.rsplit(".", 1)[1]
                if tail in _NP_RANDOM_ALLOWED:
                    continue
                if tail == "default_rng" and (call.args or call.keywords):
                    continue  # explicitly seeded generator: sanctioned
                yield self.finding(
                    ctx, call,
                    f"{name}() uses numpy's module-level (or unseeded) RNG; "
                    "pass an explicit seed (numpy.random.default_rng(seed) "
                    "via repro.utils.rng.derive_seed)",
                )
        yield from self._check_set_iteration(ctx)
        yield from self._check_ordering_keys(ctx)

    # -- raw set iteration feeding loops/comprehensions ----------------
    def _iteration_sites(self, ctx: ModuleContext) -> Iterator[ast.AST]:
        for node in ctx.walk(ast.For, ast.AsyncFor):
            yield node.iter
        for node in ctx.walk(ast.comprehension):
            yield node.iter

    def _check_set_iteration(self, ctx: ModuleContext) -> Iterator[Finding]:
        for source in self._iteration_sites(ctx):
            is_raw_set = isinstance(source, (ast.Set, ast.SetComp)) or (
                isinstance(source, ast.Call)
                and ctx.call_name(source) in ("set", "frozenset")
            )
            if is_raw_set:
                yield self.finding(
                    ctx, source,
                    "iterating a set in creation order: set order is "
                    "hash-salted and differs across processes, so any "
                    "message routing or label selection fed by this loop "
                    "diverges between workers; iterate sorted(...) instead",
                    severity=WARNING,
                )

    # -- id()/default hash() inside ordering keys ----------------------
    def _check_ordering_keys(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.walk(ast.Call):
            name = ctx.call_name(call)
            is_ordering = name in ("sorted", "min", "max") or (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "sort"
            )
            if not is_ordering:
                continue
            for keyword in call.keywords:
                if keyword.arg != "key":
                    continue
                for sub in ast.walk(keyword.value):
                    if (
                        isinstance(sub, ast.Call)
                        and ctx.call_name(sub) in ("id", "hash")
                    ):
                        yield self.finding(
                            ctx, sub,
                            f"{ctx.call_name(sub)}() inside an ordering "
                            "key: id() is an address (differs per process) "
                            "and hash() is salted for str/bytes, so this "
                            "sort order is not reproducible; key on the "
                            "value itself or a derive_seed-style digest",
                        )


# ----------------------------------------------------------------------
# RPL002 — obs overhead
# ----------------------------------------------------------------------
class ObsOverheadRule(Rule):
    """RPL002: no module-level import of repro.obs outside repro/obs."""

    rule_id = "RPL002"
    title = "obs-overhead: repro.obs is imported lazily, on traced paths only"
    scope = ()  # every repro file except the obs package itself

    def applies_to(self, ctx: ModuleContext) -> bool:
        rel = ctx.package_rel
        return rel is not None and not rel.startswith("obs")

    def _flag(self, ctx: ModuleContext, node: ast.AST) -> Finding:
        return self.finding(
            ctx, node,
            "module-level import of repro.obs outside repro/obs: the "
            "zero-overhead contract says untraced runs never import the "
            "observability plane (the sys.modules booby-trap test enforces "
            "this at runtime); import inside the traced code path, behind "
            "the `if obs is not None` / trace-enabled guard",
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.walk(ast.Import, ast.ImportFrom):
            if not ctx.at_module_scope(node) or ctx.in_type_checking_block(node):
                continue
            if isinstance(node, ast.Import):
                if any(
                    alias.name == "repro.obs"
                    or alias.name.startswith("repro.obs.")
                    for alias in node.names
                ):
                    yield self._flag(ctx, node)
            else:
                module = node.module or ""
                if module == "repro.obs" or module.startswith("repro.obs."):
                    yield self._flag(ctx, node)
                elif module == "repro" and any(
                    alias.name == "obs" for alias in node.names
                ):
                    yield self._flag(ctx, node)


# ----------------------------------------------------------------------
# RPL003 — resource discipline
# ----------------------------------------------------------------------
#: Resource-creating calls (resolved through import aliases) and what
#: they allocate.
_RESOURCE_CALLS = {
    "multiprocessing.shared_memory.SharedMemory": "shared-memory segment",
    "socket.socket": "socket",
    "socket.create_server": "listening socket",
    "socket.create_connection": "connected socket",
}

#: Releasing method names accepted as close evidence inside ``finally``.
_RELEASE_METHODS = {"close", "unlink", "shutdown", "release", "terminate"}


def _open_write_mode(call: ast.Call) -> Optional[str]:
    """The write-ish mode string of an ``open`` call, else ``None``."""
    mode_node: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if not isinstance(mode_node, ast.Constant) or not isinstance(
        mode_node.value, str
    ):
        return None  # absent (read) or dynamic (not statically decidable)
    mode = mode_node.value
    return mode if any(ch in mode for ch in "wax+") else None


class ResourceDisciplineRule(Rule):
    """RPL003: every resource creation reaches a release on all paths."""

    rule_id = "RPL003"
    title = "resource discipline: with / try-finally / owner escape"
    scope = (
        "distributed/transport.py",
        "runtime.py",
        "service/durability.py",
    )

    def _classify(self, ctx: ModuleContext, call: ast.Call) -> Optional[str]:
        name = ctx.call_name(call)
        if name in _RESOURCE_CALLS:
            return _RESOURCE_CALLS[name]
        if name == "open":
            mode = _open_write_mode(call)
            if mode is not None:
                return f"write handle (mode {mode!r})"
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.walk(ast.Call):
            what = self._classify(ctx, call)
            if what is None:
                continue
            parent = ctx.parent(call)
            if isinstance(parent, ast.withitem):
                continue  # context manager: released on every path
            if isinstance(parent, (ast.Return, ast.Yield, ast.Await)):
                continue  # ownership handed to the caller
            if isinstance(parent, (ast.Call, ast.keyword)):
                continue  # ownership handed to the callee
            if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                target = parent.targets[0]
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    # Escapes to a long-lived owner (self.x / ring[slot]):
                    # the owner's close/shutdown path is the release.
                    continue
                if isinstance(target, ast.Name) and self._name_is_released(
                    ctx, call, target.id
                ):
                    continue
            yield self.finding(
                ctx, call,
                f"{what} created without a guaranteed release: an "
                "exception between creation and close leaks it past "
                "process death (the SIGKILL tests assert /dev/shm and the "
                "fd table stay clean); use `with`, release in "
                "`try/finally`, or store it on a shut-down owner",
            )

    def _name_is_released(
        self, ctx: ModuleContext, creation: ast.Call, name: str
    ) -> bool:
        """Release evidence for a local binding inside its function."""
        scope: ast.AST = ctx.enclosing_function(creation) or ctx.tree

        def references(node: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(node)
            )

        finally_bodies: List[ast.AST] = []
        for node in ast.walk(scope):
            if isinstance(node, (ast.Try,)):
                finally_bodies.extend(node.finalbody)
            if isinstance(node, ast.withitem) and references(node.context_expr):
                return True
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                )
                and references(node.value)
            ):
                return True  # escapes to a long-lived owner
            if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
                if references(node.value):
                    return True
            if isinstance(node, ast.Call) and node is not creation:
                # Passed as an argument: ownership transferred (append to
                # a ring, handed to a closer helper, ...).
                if any(references(arg) for arg in node.args) or any(
                    references(kw.value) for kw in node.keywords
                ):
                    return True
        for body_node in finally_bodies:
            for sub in ast.walk(body_node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _RELEASE_METHODS
                    and references(sub.func.value)
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# RPL004 — API hygiene
# ----------------------------------------------------------------------
#: Concrete component classes that must be resolved through
#: repro.api.registry, keyed by their home module.
_REGISTRY_ONLY = {
    "repro.distributed.transport": {"SharedMemoryTransport"},
    "repro.runtime": {"PipeWire", "TcpWire"},
}

#: Files allowed to name concrete component classes directly: the home
#: modules themselves, the registry's lazy loaders, and package
#: __init__ re-exports (public API surface).
_REGISTRY_EXEMPT = ("distributed/transport.py", "runtime.py",
                    "api/registry.py")


class ApiHygieneRule(Rule):
    """RPL004: frozen configs, registry resolution."""

    rule_id = "RPL004"
    title = "API hygiene: frozen configs, registry-resolved components"
    scope = ()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_frozen_configs(ctx)
        yield from self._check_registry_resolution(ctx)

    def _check_frozen_configs(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.walk(ast.ClassDef):
            if not node.name.endswith("Config"):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) \
                    else decorator
                resolved = ctx.resolve(target) or ""
                if resolved.rsplit(".", 1)[-1] != "dataclass":
                    continue
                frozen = isinstance(decorator, ast.Call) and any(
                    kw.arg == "frozen"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in decorator.keywords
                )
                if not frozen:
                    yield self.finding(
                        ctx, node,
                        f"config dataclass {node.name} is not frozen: "
                        "configs are value objects shared across plan "
                        "resolution, pickled worker factories, and "
                        "replicas — mutation after resolve desynchronises "
                        "them; declare @dataclass(frozen=True)",
                    )

    def _check_registry_resolution(self, ctx: ModuleContext) -> Iterator[Finding]:
        rel = ctx.package_rel or ""
        if rel in _REGISTRY_EXEMPT or rel.endswith("__init__.py"):
            return
        for node in ctx.walk(ast.ImportFrom):
            concrete = _REGISTRY_ONLY.get(node.module or "")
            if not concrete:
                continue
            for alias in node.names:
                if alias.name in concrete:
                    yield self.finding(
                        ctx, node,
                        f"direct import of concrete component "
                        f"{alias.name}: execution components are resolved "
                        "by name through repro.api.registry (TRANSPORTS / "
                        "SERVICE_TRANSPORTS) so plans stay declarative and "
                        "plugins can substitute implementations",
                    )


# ----------------------------------------------------------------------
# RPL005 — concurrency
# ----------------------------------------------------------------------
_MUTABLE_DEFAULT_SCOPE = ("distributed/", "service/")
_LOCK_IO_SCOPE = ("service/",)
_BLOCKING_SEND_METHODS = {"sendall"}


def _is_mutable_default(ctx: ModuleContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and ctx.call_name(node) in ("list", "dict", "set", "bytearray")
    )


class ConcurrencyRule(Rule):
    """RPL005: no I/O under the durability lock, no bare except, no
    mutable defaults across pickle boundaries."""

    rule_id = "RPL005"
    title = "concurrency: lock discipline, typed excepts, pickle-safe defaults"
    scope = ()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_bare_except(ctx)
        rel = ctx.package_rel or ""
        if any(rel.startswith(p) for p in _MUTABLE_DEFAULT_SCOPE):
            yield from self._check_mutable_defaults(ctx)
        if any(rel.startswith(p) for p in _LOCK_IO_SCOPE):
            yield from self._check_io_under_lock(ctx)

    def _check_bare_except(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.walk(ast.ExceptHandler):
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare `except:` also swallows KeyboardInterrupt and "
                    "SystemExit, turning a worker kill into a silent hang "
                    "at the next barrier; catch the concrete exceptions "
                    "(or at most Exception)",
                )

    def _check_mutable_defaults(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(ctx, default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument on {node.name}(): in "
                        "the worker-pickled planes a shared default that "
                        "mutates pre-fork diverges between driver and "
                        "respawned workers; default to None and allocate "
                        "inside the body",
                    )

    def _check_io_under_lock(self, ctx: ModuleContext) -> Iterator[Finding]:
        for with_node in ctx.walk(ast.With):
            if not self._holds_lock(ctx, with_node):
                continue
            for body_stmt in with_node.body:
                for sub in ast.walk(body_stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    name = ctx.call_name(sub)
                    if name == "os.fsync":
                        yield self.finding(
                            ctx, sub,
                            "fsync while holding the store lock: every "
                            "append/rotate/recover path now queues behind "
                            "disk latency; move the fsync outside the "
                            "critical section or justify the serialisation",
                        )
                    elif (
                        isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _BLOCKING_SEND_METHODS
                    ):
                        yield self.finding(
                            ctx, sub,
                            "blocking socket send while holding the store "
                            "lock: a stalled peer freezes every other "
                            "lock path; buffer under the lock, send "
                            "outside it",
                        )

    def _holds_lock(self, ctx: ModuleContext, node: ast.With) -> bool:
        for item in node.items:
            resolved = ctx.resolve(item.context_expr)
            if resolved and "lock" in resolved.rsplit(".", 1)[-1].lower():
                return True
        return False


RULES.register("RPL001", DeterminismRule)
RULES.register("RPL002", ObsOverheadRule)
RULES.register("RPL003", ResourceDisciplineRule)
RULES.register("RPL004", ApiHygieneRule)
RULES.register("RPL005", ConcurrencyRule)
