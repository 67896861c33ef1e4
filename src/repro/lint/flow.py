"""Phase 2 of the whole-program analyzer: cross-module rule families.

These rules run over the :class:`~repro.lint.graph.ProjectGraph` (never
over raw ASTs) so they see the seams the per-file rules cannot: the
controller's event/command protocol spanning three modules, the
BatchTask/BatchResult wire schema crossing the fork boundary, and blocking
primitives buried several calls below an ``async def``.

Every rule is *conservative by construction*: name-level matching
over-approximates the real call graph and field flow, so a rule only
reports when even the over-approximation finds no handler/consumer — the
direction that keeps false positives out of the gate.  Each rule no-ops
gracefully when its anchor modules (controller, messages, consumers) are
not part of the linted file set, so ``python -m repro.lint some/subdir``
stays usable.

Suppression is honored through the summaries' precise per-line maps; the
driver in :mod:`repro.lint.core` filters reported violations centrally.
"""

from __future__ import annotations

from typing import Any

from .core import Violation
from .graph import ModuleSummary, ProjectGraph

__all__ = [
    "ProjectRule",
    "ProtocolExhaustivenessRule",
    "MessageFlowRule",
    "BlockingCallRule",
    "MetricOrphanRule",
    "PROJECT_RULE_CLASSES",
    "default_project_rules",
]


class ProjectRule:
    """Base class for one cross-module rule (phase 2)."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, graph: ProjectGraph) -> list[Violation]:
        raise NotImplementedError


def _violation(summary: ModuleSummary, line: int, code: str, message: str) -> Violation:
    return Violation(summary.path, line, 0, code, message)


def _constructed(summary: ModuleSummary, cls_name: str) -> list[int]:
    """Lines where ``cls_name(...)`` is called anywhere in the module."""
    lines = []
    for fn in summary.functions:
        for call in fn["calls"]:
            if call["name"] == cls_name:
                lines.append(call["line"])
    return sorted(lines)


# ---------------------------------------------------------------------- RL011
class ProtocolExhaustivenessRule(ProjectRule):
    """The controller protocol stays closed across all three modules.

    The ``Event``/``Command`` unions in ``runtime/controller.py`` are the
    decision-layer vocabulary (DESIGN.md §5f); both backend drivers must
    speak all of it.  A driver that silently drops a command (no
    ``isinstance``/``match`` dispatch branch) executes a *subset* of the
    controller's decisions — exactly the divergence the differential
    conformance harness exists to prevent, except it would only surface at
    runtime on the path that emits that command.  Checked here instead:

    - every ``Command`` member must be dispatched in **both** drivers, and
      must actually be constructed by the controller (else it is dead
      vocabulary);
    - every ``Event`` member must be consumed (``isinstance``-tested) by
      the controller, and constructed by at least one backend (else dead).
    """

    code = "RL011"
    name = "protocol-exhaustiveness"
    description = "Command/Event union members dispatched in both drivers and consumed by the controller"

    CONTROLLER_SUFFIX = "runtime/controller.py"
    DRIVER_SUFFIXES = ("runtime/process_backend.py", "runtime/system.py")
    COMMAND_ALIAS = "Command"
    EVENT_ALIAS = "Event"
    #: Event constructions only count inside the shipped package tree (tests
    #: constructing events for conformance checks are not backends).
    PRODUCER_FRAGMENT = "repro/"

    def check(self, graph: ProjectGraph) -> list[Violation]:
        controller = graph.find_endswith(self.CONTROLLER_SUFFIX)
        if controller is None:
            return []
        commands = controller.union_aliases.get(self.COMMAND_ALIAS, {})
        events = controller.union_aliases.get(self.EVENT_ALIAS, {})
        out: list[Violation] = []
        drivers = [
            (suffix, graph.find_endswith(suffix)) for suffix in self.DRIVER_SUFFIXES
        ]
        for cmd in commands.get("members", ()):
            for suffix, driver in drivers:
                if driver is None:
                    continue
                if cmd not in driver.isinstance_tests:
                    out.append(
                        _violation(
                            driver,
                            1,
                            self.code,
                            f"backend driver {suffix} never dispatches controller "
                            f"command {cmd} (no isinstance/match branch): the "
                            "controller's decision would be silently dropped",
                        )
                    )
            if not _constructed(controller, cmd):
                out.append(
                    _violation(
                        controller,
                        commands.get("line", 1),
                        self.code,
                        f"dead protocol member: command {cmd} is in the Command "
                        "union but the controller never constructs it",
                    )
                )
        producers = [
            s
            for s in graph.find(self.PRODUCER_FRAGMENT)
            if s.path != controller.path
        ]
        for event in events.get("members", ()):
            sites = [
                (s, line) for s in producers for line in _constructed(s, event)
            ]
            if not sites:
                out.append(
                    _violation(
                        controller,
                        events.get("line", 1),
                        self.code,
                        f"dead protocol member: event {event} is in the Event "
                        "union but no backend ever constructs it",
                    )
                )
            elif event not in controller.isinstance_tests:
                summary, line = sites[0]
                out.append(
                    _violation(
                        summary,
                        line,
                        self.code,
                        f"backend constructs event {event} but the controller "
                        "never isinstance-dispatches it: the event would hit "
                        "the unknown-event TypeError at runtime",
                    )
                )
        return out


# ---------------------------------------------------------------------- RL012
class MessageFlowRule(ProjectRule):
    """Wire-message fields flow end to end across the fork/IPC boundary.

    The dataclasses in ``runtime/messages.py`` are the only things that
    cross an mp queue; a field assigned at a producer site that no consumer
    ever reads is dead wire weight (and a stale contract), while a field
    read somewhere but never explicitly set anywhere — and lacking a
    default — can only raise at construction time.  Field *reads* are
    matched by attribute name across the runtime/serving scope
    (conservative: any ``.probe`` read counts for a ``probe`` field, since
    name-level analysis cannot type the receiver).
    """

    code = "RL012"
    name = "ipc-message-flow"
    description = "every produced BatchTask/BatchResult field is consumed across the IPC boundary"

    MESSAGES_SUFFIX = "runtime/messages.py"
    #: Where producer/consumer sites live: the IPC boundary itself.
    SCOPE_FRAGMENTS = ("repro/runtime", "repro/serving")

    def check(self, graph: ProjectGraph) -> list[Violation]:
        messages = graph.find_endswith(self.MESSAGES_SUFFIX)
        if messages is None:
            return []
        scope: list[ModuleSummary] = []
        for fragment in self.SCOPE_FRAGMENTS:
            for s in graph.find(fragment):
                if s not in scope:
                    scope.append(s)
        out: list[Violation] = []
        for cls_name, info in messages.classes.items():
            if not info.get("is_dataclass") or not info.get("fields"):
                continue
            fields = [(f[0], bool(f[1]), int(f[2])) for f in info["fields"]]
            field_order = [f[0] for f in fields]
            assigned: dict[str, tuple[ModuleSummary, int]] = {}
            for s in scope:
                for fn in s.functions:
                    for call in fn["calls"]:
                        if call["name"] != cls_name:
                            continue
                        explicit = field_order[: call["nargs"]] + [
                            k for k in call["kwargs"] if k in field_order
                        ]
                        for fname in explicit:
                            assigned.setdefault(fname, (s, call["line"]))
            if not assigned:
                continue  # class never constructed in scope: nothing to check
            read_fields = {
                fname
                for fname in field_order
                if any(fname in s.attr_reads for s in scope)
            }
            for fname, has_default, field_line in fields:
                if fname in assigned and fname not in read_fields:
                    site, line = assigned[fname]
                    out.append(
                        _violation(
                            site,
                            line,
                            self.code,
                            f"{cls_name}.{fname} is assigned at this producer site "
                            "but never read at any consumer across the IPC "
                            "boundary (dead wire field, or a missing consumer)",
                        )
                    )
                if fname in read_fields and fname not in assigned and not has_default:
                    out.append(
                        _violation(
                            messages,
                            field_line,
                            self.code,
                            f"{cls_name}.{fname} is read by consumers but never "
                            "explicitly set at any producer site and has no "
                            "default — construction cannot succeed",
                        )
                    )
        return out


# ---------------------------------------------------------------------- RL013
class BlockingCallRule(ProjectRule):
    """No blocking primitive reachable from serving coroutines.

    ``repro.serving`` bridges asyncio clients onto the thread-based driver
    loop; the contract (DESIGN.md §5g) is that *everything* blocking lives
    on the driver thread and coroutines touch only non-blocking submission
    plus ``asyncio.wrap_future``.  A ``queue.Queue.get``, ``time.sleep`` or
    ``multiprocessing.connection.wait`` reached from a coroutine stalls the
    entire event loop — every client session, not just the caller.  The walk: conservative call graph from each
    ``async def`` in ``repro/serving`` (callee name -> every project
    function of that name), flagging recorded blocking sites.  Handing a
    callable to ``asyncio.to_thread``/``run_in_executor`` is naturally
    sanctioned — a function *reference* is not a call site.
    """

    code = "RL013"
    name = "async-blocking"
    description = "no blocking primitive reachable from an async def in repro.serving"

    ROOT_FRAGMENT = "repro/serving"
    #: Names whose queue-like receivers mark an mp/thread queue.
    _QUEUE_RECEIVER_NAMES = frozenset({"q", "tq", "rq", "task_queue", "result_queue"})
    _MAX_DEPTH = 12

    def check(self, graph: ProjectGraph) -> list[Violation]:
        roots = [
            (s, fn)
            for s in graph.find(self.ROOT_FRAGMENT)
            for fn in s.functions
            if fn["is_async"]
        ]
        if not roots:
            return []
        out: list[Violation] = []
        reported: set[tuple[str, int]] = set()
        for root_summary, root_fn in roots:
            stack: list[tuple[ModuleSummary, dict[str, Any], tuple[str, ...]]] = [
                (root_summary, root_fn, (root_fn["qualname"],))
            ]
            seen: set[tuple[str, str]] = set()
            while stack:
                summary, fn, chain = stack.pop()
                key = (summary.path, fn["qualname"])
                if key in seen or len(chain) > self._MAX_DEPTH:
                    continue
                seen.add(key)
                for call in fn["calls"]:
                    blocked = self._blocking_reason(call)
                    if blocked is not None:
                        site = (summary.path, call["line"])
                        if site not in reported:
                            reported.add(site)
                            via = " -> ".join(chain)
                            out.append(
                                _violation(
                                    summary,
                                    call["line"],
                                    self.code,
                                    f"blocking {blocked} reachable from async def "
                                    f"{root_fn['qualname']} (via {via}); offload "
                                    "with asyncio.to_thread/run_in_executor or "
                                    "use the non-blocking variant",
                                )
                            )
                        continue
                    for callee_summary, callee_fn in graph.functions_named(call["name"]):
                        stack.append(
                            (callee_summary, callee_fn, chain + (callee_fn["qualname"],))
                        )
        return out

    def _blocking_reason(self, call: dict[str, Any]) -> str | None:
        name, dotted, recv = call["name"], call["dotted"], call["recv"]
        if name == "sleep" and dotted.startswith(("time.", "sleep")):
            return "time.sleep()"
        if name == "get" and ("queue" in recv or recv in self._QUEUE_RECEIVER_NAMES):
            return f"queue get on {recv!r}"
        if name == "wait" and "connection" in (recv + dotted.lower()):
            return "multiprocessing.connection.wait()"
        return None


# ---------------------------------------------------------------------- RL015
class MetricOrphanRule(ProjectRule):
    """Every emitted ``adcnn_*`` metric has a consumer, and vice versa.

    RL009 (per-file) guarantees emission sites use literal, well-formed
    names; this cross-module extension closes the loop: a metric emitted
    anywhere in the runtime that neither ``telemetry/report.py`` nor
    ``telemetry/top.py`` ever mentions is a series no report renders (an
    orphan dashboards silently miss), and a name the report keys on that
    no site emits is a column that will always read zero.  Pass-through
    modules (recorder/registry/flight internals) are excluded on both
    sides, mirroring RL009.
    """

    code = "RL015"
    name = "metric-orphans"
    description = "emitted adcnn_* metrics are consumed by report/top, and vice versa"

    EMITTER_FRAGMENTS = (
        "repro/runtime",
        "repro/serving",
        "repro/simulator",
        "repro/telemetry",
        "repro/sharding",
    )
    EMITTER_EXCLUDES = ("telemetry/recorder.py", "telemetry/metrics.py", "telemetry/flight.py")
    CONSUMER_SUFFIXES = ("telemetry/report.py", "telemetry/top.py")

    def check(self, graph: ProjectGraph) -> list[Violation]:
        consumers = [
            s
            for suffix in self.CONSUMER_SUFFIXES
            if (s := graph.find_endswith(suffix)) is not None
        ]
        if not consumers:
            return []  # reporting layer not in the linted set: nothing to anchor
        consumed: dict[str, tuple[ModuleSummary, int]] = {}
        for s in consumers:
            for mname, lines in s.adcnn_literals.items():
                consumed.setdefault(mname, (s, lines[0]))
        emitters: list[ModuleSummary] = []
        for fragment in self.EMITTER_FRAGMENTS:
            for s in graph.find(fragment):
                if s in emitters or any(s.path.endswith(e) for e in self.EMITTER_EXCLUDES):
                    continue
                emitters.append(s)
        emitted: dict[str, tuple[ModuleSummary, int]] = {}
        for s in emitters:
            for mname, line in s.metric_emissions:
                emitted.setdefault(mname, (s, line))
        out: list[Violation] = []
        for mname, (s, line) in sorted(emitted.items()):
            if mname not in consumed:
                out.append(
                    _violation(
                        s,
                        line,
                        self.code,
                        f"metric {mname} is emitted here but neither "
                        "telemetry/report.py nor telemetry/top.py ever consumes "
                        "it (orphan series no report renders)",
                    )
                )
        for mname, (s, line) in sorted(consumed.items()):
            if mname not in emitted:
                out.append(
                    _violation(
                        s,
                        line,
                        self.code,
                        f"report/top keys on metric {mname} but no runtime site "
                        "emits it (the column will always read zero)",
                    )
                )
        return out


PROJECT_RULE_CLASSES: tuple[type[ProjectRule], ...] = (
    ProtocolExhaustivenessRule,
    MessageFlowRule,
    BlockingCallRule,
    MetricOrphanRule,
)


def default_project_rules() -> list[ProjectRule]:
    """Fresh instances of every registered cross-module rule."""
    return [cls() for cls in PROJECT_RULE_CLASSES]
