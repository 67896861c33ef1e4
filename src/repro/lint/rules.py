"""The per-file rule set (RL001, RL002, RL004–RL010, RL016), one class per code.

Each rule encodes an invariant the distributed runtime depends on; see
DESIGN.md §5e for the failure mode behind every code.  Rules are scoped by
path fragment so e.g. numeric-hygiene checks only run on the hot kernels.
The cross-module rules (RL011–RL013, RL015) live in :mod:`repro.lint.flow`
and run over the :class:`~repro.lint.graph.ProjectGraph` instead of single
files.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .core import MESSAGES_MODULE, ModuleContext, Rule, Walker

__all__ = ["default_rules", "RULE_CLASSES"]

#: Packages imported by forked worker processes (``_worker_loop`` pulls in
#: nn, the model blocks, compression, partition geometry, runtime messages,
#: and telemetry constants).  Fork-safety rules apply to all of them.
WORKER_PACKAGES = (
    "repro/nn",
    "repro/models",
    "repro/compression",
    "repro/partition",
    "repro/runtime",
    "repro/telemetry",
)

#: The closed telemetry event schema — mirrors
#: ``repro.telemetry.recorder.STAGES`` (a test asserts they stay in sync).
STAGES = (
    "partition",
    "compress",
    "transfer",
    "conv_compute",
    "result_transfer",
    "merge",
    "central_layers",
)
#: Trace-tree stages layered on top of the pipeline schema (§5h): the
#: per-request root span and the admission-wait span.  Kept out of
#: ``STAGES`` so per-stage pipeline reports are unchanged, but legal as
#: span names.
REQUEST_STAGES = ("request", "queue_wait")
STAGE_CONSTANT_NAMES = frozenset(
    {
        "STAGE_REQUEST",
        "STAGE_QUEUE_WAIT",
        "STAGE_PARTITION",
        "STAGE_COMPRESS",
        "STAGE_TRANSFER",
        "STAGE_CONV_COMPUTE",
        "STAGE_RESULT_TRANSFER",
        "STAGE_MERGE",
        "STAGE_CENTRAL",
    }
)


def _declared_messages(path: Path) -> tuple[frozenset[str], frozenset[str]]:
    """``(every message, the data-path messages)`` declared in ``path``: its
    top-level dataclasses, and the names its ``DATA_MESSAGES`` tuple lists
    (the only messages whose fields may hold an ndarray)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    messages: set[str] = set()
    data: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            _dotted(d.func if isinstance(d, ast.Call) else d).rsplit(".", 1)[-1] == "dataclass"
            for d in node.decorator_list
        ):
            messages.add(node.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "DATA_MESSAGES" for t in node.targets
        ) and isinstance(node.value, ast.Tuple):
            data.update(e.id for e in node.value.elts if isinstance(e, ast.Name))
    return frozenset(messages), frozenset(data)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ''."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _receiver_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on valid trees
        return ""


# ---------------------------------------------------------------------- RL001
class ForkSafetyRule(Rule):
    """No module-level mutable state or import-time/global RNG in modules
    imported by worker processes.

    Fork copies module state into every worker: a module-level dict or the
    global NumPy RNG silently diverges per process (identical "random"
    streams in every worker, registries that look shared but are not).
    Randomness must flow through an explicit ``Generator`` parameter.
    """

    code = "RL001"
    name = "fork-safety"
    description = "no module-level mutable state or global/import-time RNG in worker modules"
    include = WORKER_PACKAGES

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "defaultdict", "deque", "bytearray", "OrderedDict", "Counter"}
    )
    _LOCAL_RNG_ATTRS = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "PCG64",
            "Philox",
            "MT19937",
            "RandomState",
            "BitGenerator",
        }
    )
    _RNG_FACTORIES = frozenset(
        {
            "np.random.default_rng",
            "numpy.random.default_rng",
            "np.random.RandomState",
            "numpy.random.RandomState",
            "random.Random",
        }
    )

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and walker.at_module_level:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                return
            value = node.value
            if value is not None and self._is_mutable(value):
                ctx.report(
                    self.code,
                    node,
                    f"module-level mutable state {'/'.join(names) or '<target>'} in a "
                    "worker-imported module (fork copies it per process; use a tuple, "
                    "frozenset, or types.MappingProxyType)",
                )
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if walker.at_module_level and dotted in self._RNG_FACTORIES:
                ctx.report(
                    self.code,
                    node,
                    f"import-time RNG construction {dotted}() in a worker-imported module "
                    "(every forked worker inherits the same stream; take a Generator "
                    "parameter instead)",
                )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                attr = dotted.rsplit(".", 1)[1]
                if attr not in self._LOCAL_RNG_ATTRS:
                    ctx.report(
                        self.code,
                        node,
                        f"global NumPy RNG call {dotted}() (mutates interpreter-wide state "
                        "shared through fork; use an explicit np.random.Generator)",
                    )

    def _is_mutable(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = _dotted(value.func).rsplit(".", 1)[-1]
            return name in self._MUTABLE_CALLS
        return False


# ---------------------------------------------------------------------- RL002
class QueueMessageRule(Rule):
    """Queue- and pipe-crossing dataclasses live in ``runtime/messages.py``,
    are frozen + slotted, and only data-path messages carry ndarrays.

    Everything put on an mp queue or sent on a worker channel is pickled;
    ad-hoc payloads (dict literals, arbitrary classes) break the re-dispatch
    protocol, and mutable or ``__dict__``-bearing messages invite
    cross-process aliasing bugs.
    """

    code = "RL002"
    name = "queue-message-hygiene"
    description = "mp-queue and channel messages are declared, frozen+slots dataclasses"
    include = ("repro/runtime",)

    _QUEUE_NAMES = frozenset({"q", "tq", "rq", "task_queue", "result_queue"})
    #: Receivers whose name holds one of these are queues or channels.
    _QUEUE_FRAGMENTS = ("queue", "channel")

    def __init__(self) -> None:
        #: The message set, read from ``runtime/messages.py`` — never restated.
        self.messages, self.data_messages = _declared_messages(MESSAGES_MODULE)

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if ctx.posix_path.endswith("messages.py"):
            if isinstance(node, ast.ClassDef) and not walker.scope_stack:
                self._check_message_class(node, ctx)
            return
        if isinstance(node, ast.Call):
            self._check_put(node, ctx)

    def _check_message_class(self, node: ast.ClassDef, ctx: ModuleContext) -> None:
        frozen = slots = is_dataclass = False
        for dec in node.decorator_list:
            name = _dotted(dec.func if isinstance(dec, ast.Call) else dec)
            if name.rsplit(".", 1)[-1] != "dataclass":
                continue
            is_dataclass = True
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if isinstance(kw.value, ast.Constant) and kw.value.value is True:
                        frozen = frozen or kw.arg == "frozen"
                        slots = slots or kw.arg == "slots"
        if not (is_dataclass and frozen and slots):
            ctx.report(
                self.code,
                node,
                f"queue message {node.name} must be @dataclass(frozen=True, slots=True) "
                "(immutable, no __dict__, stable pickle layout)",
            )
        if node.name not in self.data_messages:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and "ndarray" in _receiver_text(stmt.annotation):
                    ctx.report(
                        self.code,
                        stmt,
                        f"control-path message {node.name} carries a raw ndarray field "
                        "(bulk data belongs on the data path: "
                        f"{'/'.join(sorted(self.data_messages))})",
                    )

    def _check_put(self, node: ast.Call, ctx: ModuleContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in ("put", "put_nowait", "send"):
            return
        recv = _receiver_text(func.value)
        if recv not in self._QUEUE_NAMES and not any(
            frag in recv.lower() for frag in self._QUEUE_FRAGMENTS
        ):
            return
        if not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.Lambda, ast.GeneratorExp)):
            ctx.report(
                self.code,
                arg,
                "ad-hoc object enqueued on an mp queue or channel (declare a frozen+slots "
                "dataclass in runtime/messages.py instead)",
            )
            return
        if isinstance(arg, ast.Call):
            name = _dotted(arg.func).rsplit(".", 1)[-1]
            if name and name[0].isupper() and name not in self.messages:
                ctx.report(
                    self.code,
                    arg,
                    f"{name} enqueued on an mp queue or channel but is not declared in "
                    "runtime/messages.py",
                )


# ---------------------------------------------------------------------- RL004
class TelemetryDisciplineRule(Rule):
    """Span names come from the fixed schema; no bare/silently-swallowed
    exceptions in runtime loops.

    The exporters and the report aggregate by stage name — a free-form span
    name silently falls out of every report.  ``except: pass`` in a worker
    or supervision loop turns a protocol bug into a hang with no telemetry
    record (use ``contextlib.suppress`` for genuinely-ignorable cleanup, or
    route the event through the telemetry recorder).
    """

    code = "RL004"
    name = "telemetry-discipline"
    description = "closed span schema; no bare or silently-swallowed excepts"
    #: bare-except applies everywhere; the other checks gate on path below.
    include = ()

    _RUNTIME_PATHS = ("repro/runtime", "repro/telemetry", "repro/simulator")

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                ctx.report(
                    self.code,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt and hides worker "
                    "death (catch a concrete exception type)",
                )
            elif ctx.in_path(*self._RUNTIME_PATHS):
                caught = _dotted(node.type)
                if caught in ("Exception", "BaseException") and all(
                    isinstance(s, ast.Pass) for s in node.body
                ):
                    ctx.report(
                        self.code,
                        node,
                        f"except {caught}: pass silently swallows failures in runtime "
                        "code (record through telemetry or use contextlib.suppress with "
                        "a narrower type)",
                    )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and node.args
            and ctx.in_path(*self._RUNTIME_PATHS)
        ):
            first = node.args[0]
            if isinstance(first, ast.Name) and first.id.startswith("STAGE_"):
                if first.id not in STAGE_CONSTANT_NAMES:
                    ctx.report(
                        self.code,
                        first,
                        f"span stage constant {first.id} is not part of the fixed "
                        "telemetry schema",
                    )
            elif isinstance(first, ast.Constant) and isinstance(first.value, str):
                if first.value not in STAGES and first.value not in REQUEST_STAGES:
                    ctx.report(
                        self.code,
                        first,
                        f"span name {first.value!r} is outside the fixed schema "
                        f"{STAGES + REQUEST_STAGES} (free-form spans fall out of "
                        "every report)",
                    )


# ---------------------------------------------------------------------- RL005
class NumericHygieneRule(Rule):
    """No float64 creep in the hot kernels.

    The runtime is float32 end-to-end; a float64 literal or a dtype-less
    allocation in ``compression/`` or ``nn/functional.py`` silently doubles
    wire bytes and promotes every downstream op.
    """

    code = "RL005"
    name = "numeric-hygiene"
    description = "no float64 literals or dtype-less allocations in hot kernels"
    include = ("repro/compression", "repro/nn/functional.py", "repro/nn/fused.py")

    _ALLOC_FUNCS = frozenset({"zeros", "ones", "empty", "full", "arange"})

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if isinstance(node, ast.Attribute) and node.attr == "float64":
            ctx.report(
                self.code,
                node,
                "float64 in a hot kernel (the runtime is float32 end-to-end; a single "
                "float64 promotes every downstream op and doubles wire bytes)",
            )
        if isinstance(node, ast.Constant) and node.value == "float64":
            ctx.report(self.code, node, 'dtype string "float64" in a hot kernel')
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and parts[1] in self._ALLOC_FUNCS
                and not any(kw.arg == "dtype" for kw in node.keywords)
            ):
                default = (
                    "a platform-dependent integer/float dtype"
                    if parts[1] == "arange"
                    else "float64"
                )
                ctx.report(
                    self.code,
                    node,
                    f"{dotted}() without an explicit dtype defaults to {default} "
                    "(pass dtype=np.float32 or the source array's dtype)",
                )


# ---------------------------------------------------------------------- RL006
class WorkerTargetRule(Rule):
    """``Process(target=...)`` must point at a module-level function.

    A lambda or bound-method target drags its enclosing state through fork
    (and cannot be pickled at all under spawn), breaking the fresh-queue
    respawn path where the same target is re-launched later.
    """

    code = "RL006"
    name = "worker-target"
    description = "Process targets are module-level functions, not closures/bound methods"
    include = ("repro/runtime", "repro/simulator")

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if not isinstance(node, ast.Call):
            return
        if _dotted(node.func).rsplit(".", 1)[-1] != "Process":
            return
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            if isinstance(kw.value, ast.Lambda):
                ctx.report(
                    self.code,
                    kw.value,
                    "lambda Process target (captures enclosing frame through fork and "
                    "cannot be respawned under spawn; use a module-level function)",
                )
            elif isinstance(kw.value, ast.Attribute):
                ctx.report(
                    self.code,
                    kw.value,
                    f"bound-method Process target {_receiver_text(kw.value)} (drags the "
                    "whole instance through fork; use a module-level function taking "
                    "explicit arguments)",
                )


# ---------------------------------------------------------------------- RL007
class ImportEffectsRule(Rule):
    """No import-time side effects in worker-imported modules.

    Workers import these modules inside ``fork()``; a stray ``print``,
    ``open``, process/thread launch, or ``set_start_method`` at module level
    runs once per worker at unpredictable times (or deadlocks outright).
    Side effects belong under ``if __name__ == "__main__":`` or in functions.
    """

    code = "RL007"
    name = "import-effects"
    description = "no import-time side effects in worker-imported modules"
    include = WORKER_PACKAGES

    _EFFECT_FUNCS = frozenset(
        {"print", "open", "set_start_method", "sleep", "Process", "Thread", "Pool", "SharedMemory"}
    )

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if not (isinstance(node, ast.Expr) and walker.at_module_level):
            return
        call = node.value
        if not isinstance(call, ast.Call):
            return
        name = _dotted(call.func).rsplit(".", 1)[-1]
        if name in self._EFFECT_FUNCS:
            ctx.report(
                self.code,
                node,
                f"import-time call to {name}() in a worker-imported module (runs once "
                'per forked worker; move it under if __name__ == "__main__" or into a '
                "function)",
            )


# ---------------------------------------------------------------------- RL008
class ControllerAuthorityRule(Rule):
    """Scheduling authority stays in the controller layer: no direct
    ``allocate_tiles`` or EWMA-collector mutation from driver code.

    The point of the :class:`~repro.runtime.controller.CentralController`
    extraction (DESIGN.md §5f) is that both backends make *identical*
    decisions from identical event traces.  A driver that calls Algorithm 3
    or ``StatisticsCollector.update`` directly forks the decision state
    behind the controller's back, and the differential conformance harness
    can no longer vouch for backend parity.  Allocation goes through an
    :class:`~repro.runtime.policies.AllocationPolicy`; rate credits flow in
    as ``ResultReceived`` events.
    """

    code = "RL008"
    name = "controller-authority"
    description = "allocation and rate-statistics mutations only inside the controller layer"
    include = ("repro/runtime",)
    #: The controller layer itself, plus the module that *defines*
    #: Algorithm 3 and the collector.
    exclude = (
        "runtime/controller.py",
        "runtime/policies.py",
        "runtime/scheduler.py",
    )

    _STATS_RECEIVER_HINTS = ("stats", "statistics", "collector")

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if not isinstance(node, ast.Call):
            return
        dotted = _dotted(node.func)
        if dotted.rsplit(".", 1)[-1] == "allocate_tiles":
            ctx.report(
                self.code,
                node,
                "direct allocate_tiles() call outside the controller layer (route "
                "allocation through CentralController and an AllocationPolicy so both "
                "backends make identical decisions)",
            )
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr == "update":
            recv = _receiver_text(node.func.value)
            if any(h in recv.lower() for h in self._STATS_RECEIVER_HINTS):
                ctx.report(
                    self.code,
                    node,
                    f"direct {recv}.update() outside the controller layer (EWMA rate "
                    "state is controller-owned; drivers report ResultReceived events "
                    "instead of feeding credits by hand)",
                )


# ---------------------------------------------------------------------- RL009
class MetricNameRule(Rule):
    """Metric names fed to the registry are literal ``adcnn_*`` strings.

    Prometheus/Grafana dashboards and the run report key on metric names;
    a dynamically-built or off-convention name silently creates a new
    series no dashboard is watching.  Every ``count``/``gauge``/``observe``
    (and registry ``counter``/``gauge``/``histogram``) call must pass a
    string literal matching ``adcnn_[a-z0-9_]+``, as must the name in a
    controller ``EmitTelemetry("count"|"gauge", ...)`` command.  The two
    driver sites that *relay* an already-validated controller name use an
    inline ``repro-lint: disable=RL009``.
    """

    code = "RL009"
    name = "metric-name"
    description = "metric names are adcnn_* string literals at every emission site"
    include = (
        "repro/runtime",
        "repro/telemetry",
        "repro/serving",
        "repro/simulator",
        "repro/sharding",
    )
    #: The registry/recorder internals and the flight ring pass names
    #: through by construction; emission *sites* are what the rule guards.
    exclude = (
        "telemetry/recorder.py",
        "telemetry/metrics.py",
        "telemetry/flight.py",
    )

    _METRIC_METHODS = frozenset({"count", "observe", "counter", "gauge", "histogram"})
    _RECEIVER_HINTS = ("tel", "telemetry", "metric", "registry", "reg", "recorder", "sink")
    _NAME_RE = re.compile(r"adcnn_[a-z0-9_]+")

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if not isinstance(node, ast.Call):
            return
        dotted = _dotted(node.func)
        if dotted.rsplit(".", 1)[-1] == "EmitTelemetry":
            self._check_emit(node, ctx)
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._METRIC_METHODS:
            return
        recv = _receiver_text(func.value).lower()
        if not any(h in recv for h in self._RECEIVER_HINTS):
            return
        if node.args:
            self._check_name(node.args[0], ctx, f"{recv}.{func.attr}")

    def _check_emit(self, node: ast.Call, ctx: ModuleContext) -> None:
        # Only "count"/"gauge" commands carry a metric name; "record" ops
        # carry an event kind ("dispatch", "deadline", ...) instead.
        op = node.args[0] if node.args else None
        if not (isinstance(op, ast.Constant) and op.value in ("count", "gauge")):
            return
        metric = node.args[1] if len(node.args) > 1 else None
        if metric is None:
            for kw in node.keywords:
                if kw.arg == "metric":
                    metric = kw.value
        if metric is not None:
            self._check_name(metric, ctx, f'EmitTelemetry("{op.value}")')

    def _check_name(self, name_node: ast.AST, ctx: ModuleContext, site: str) -> None:
        if not (isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)):
            ctx.report(
                self.code,
                name_node,
                f"dynamic metric name at {site} (names must be string literals so "
                "dashboards and the report can key on a closed series set)",
            )
            return
        if not self._NAME_RE.fullmatch(name_node.value):
            ctx.report(
                self.code,
                name_node,
                f"metric name {name_node.value!r} does not match adcnn_[a-z0-9_]+ "
                "(the exporter namespace every dashboard scrapes)",
            )


# ---------------------------------------------------------------------- RL010
class TileLoopForwardRule(Rule):
    """Per-tile Python-loop forwards are forbidden outside the sanctioned
    batched helpers.

    FDSP tiles within a grid are identically shaped, so the hot path stacks
    them into one block and runs the separable stack *once*
    (``split_stacked``/``fdsp_forward``, DESIGN.md §5i).  A
    ``separable(t) for t in tiles``-shaped loop reintroduces per-tile layer
    dispatch, graph construction, and one GEMM call per tile — silently
    undoing the batched win.  The sanctioned per-tile reference
    (``fdsp._fdsp_forward_looped``) carries an inline disable; benign
    per-tile bookkeeping (attribute access, builtins, constructors) is not
    flagged.
    """

    code = "RL010"
    name = "tile-loop-forward"
    description = "no per-tile Python-loop forwards outside the sanctioned batched helpers"
    include = ("repro/partition", "repro/runtime", "repro/nn", "repro/models", "repro/training")

    #: Calls that *produce* per-tile iterables.
    _TILE_SPLITTERS = frozenset({"split_tensor", "split_array"})
    #: Variable names that hold per-tile iterables.
    _TILE_NAME_RE = re.compile(r"(^|_)tiles$")
    #: Callees that never run a forward pass over a tile.
    _BENIGN_CALLEES = frozenset(
        {
            "len", "min", "max", "sum", "abs", "sorted", "reversed", "list",
            "tuple", "set", "frozenset", "iter", "next", "enumerate", "zip",
            "print", "id", "type", "float", "int", "str", "bool", "repr",
            "range", "isinstance", "hash", "getattr", "hasattr",
        }
    )

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            targets: set[str] = set()
            for gen in node.generators:
                if self._is_tile_iter(gen.iter):
                    targets |= self._target_names(gen.target)
            if targets:
                for sub in ast.walk(node):
                    self._check_call(sub, targets, ctx)
        elif isinstance(node, ast.For):
            if not self._is_tile_iter(node.iter):
                return
            targets = self._target_names(node.target)
            if not targets:
                return
            for stmt in node.body:
                for sub in self._body_nodes(stmt):
                    self._check_call(sub, targets, ctx)

    def _check_call(self, node: ast.AST, targets: set[str], ctx: ModuleContext) -> None:
        # The forbidden shape: a bare-Name callable applied to the loop's
        # tile variable (``separable(t)``, ``clip(sep(t))``...).  Uppercase
        # names are constructors (``Tensor(t)``) — wrapping, not forwarding.
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            return
        fn = node.func.id
        if fn in self._BENIGN_CALLEES or fn[:1].isupper():
            return
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in targets:
                ctx.report(
                    self.code,
                    node,
                    f"per-tile loop forward {fn}({arg.id}) — stack the grid with "
                    "split_stacked/fdsp_forward (one batched pass, DESIGN.md §5i) "
                    "instead of looping over tiles",
                )
                return

    def _is_tile_iter(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            last = _dotted(node.func).rsplit(".", 1)[-1]
            if last in self._TILE_SPLITTERS:
                return True
            if last == "enumerate" and node.args:
                return self._is_tile_iter(node.args[0])
            return False
        name = _dotted(node)
        if name:
            return bool(self._TILE_NAME_RE.search(name.rsplit(".", 1)[-1]))
        return False

    @staticmethod
    def _target_names(target: ast.AST) -> set[str]:
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            out: set[str] = set()
            for elt in target.elts:
                out |= TileLoopForwardRule._target_names(elt)
            return out
        return set()

    @staticmethod
    def _body_nodes(stmt: ast.AST) -> list[ast.AST]:
        """Every node under a loop-body statement, nested function/lambda
        bodies excluded (they are scanned when the walker reaches them)."""
        out: list[ast.AST] = [stmt]

        def rec(n: ast.AST) -> None:
            for child in ast.iter_child_nodes(n):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                out.append(child)
                rec(child)

        rec(stmt)
        return out


# ---------------------------------------------------------------------- RL016
class ClusterConstructionRule(Rule):
    """Driver tiers never construct clusters directly (DESIGN.md §5k):
    ``ProcessCluster(...)`` and ``ADCNNSystem(...)`` calls are forbidden
    inside ``repro.serving`` and ``repro.sharding`` — go through
    :func:`repro.sharding.make_cluster_handle` (or accept prebuilt
    instances/factories from the caller).

    The factory is what makes clusters *rebuildable*: it captures the full
    recipe in a closure so cluster-level supervision can tear a failed
    incarnation down and build a fresh one, and it labels each incarnation's
    telemetry with the shard name so metrics from sibling clusters never
    collide.  A direct construction site in a driver bypasses both — the
    resulting cluster is a one-off the supervisor cannot restart.
    """

    code = "RL016"
    name = "cluster-construction"
    description = (
        "drivers build clusters via make_cluster_handle, not "
        "ProcessCluster()/ADCNNSystem() directly"
    )
    include = ("repro/serving", "repro/sharding")

    _FORBIDDEN = frozenset({"ProcessCluster", "ADCNNSystem"})

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: Walker) -> None:
        if not isinstance(node, ast.Call):
            return
        name = _dotted(node.func).rsplit(".", 1)[-1]
        if name in self._FORBIDDEN:
            ctx.report(
                self.code,
                node,
                f"direct {name}() construction in a driver tier (go through "
                "repro.sharding.make_cluster_handle or a caller-supplied "
                "factory so cluster supervision can rebuild it and telemetry "
                "stays shard-attributed)",
            )


RULE_CLASSES: tuple[type[Rule], ...] = (
    ForkSafetyRule,
    QueueMessageRule,
    TelemetryDisciplineRule,
    NumericHygieneRule,
    WorkerTargetRule,
    ImportEffectsRule,
    ControllerAuthorityRule,
    MetricNameRule,
    TileLoopForwardRule,
    ClusterConstructionRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]
