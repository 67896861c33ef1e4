"""Shared AST visitor framework for the project linter (DESIGN.md §5e).

The runtime's correctness rests on cross-process invariants — fork-safe
module state, picklable queue messages, a closed telemetry schema — that
ordinary linters cannot see.  ``repro.lint`` encodes them as AST rules
sharing a single tree walk per file:

- every :class:`Rule` registers for a set of path scopes (``include``
  fragments matched against the file's POSIX path);
- the :class:`Walker` traverses each module **once**, maintaining the
  scope stack (enclosing functions/classes, ``if __name__ == "__main__"``
  guards) and fanning every node out to the applicable rules;
- rules report :class:`Violation` objects through their
  :class:`ModuleContext`; suppressions are applied centrally.

Suppression syntax is position-precise: a trailing comment shields *its
own* line only, a comment-only line shields the *next* line only::

    something_flagged()  # repro-lint: disable=RL001
    # repro-lint: disable=RL002,RL004
    call_that_needs_both()

A file-level opt-out for one code, placed anywhere in the first 20 lines::

    # repro-lint: disable-file=RL005

Beyond the per-file walk, :func:`analyze_paths` runs the two-phase
whole-program analyzer: phase 1 lints each file and extracts a
:class:`~repro.lint.graph.ModuleSummary`, phase 2 runs the cross-module
rules in :mod:`repro.lint.flow` over the assembled
:class:`~repro.lint.graph.ProjectGraph`.  Phase 1 results are cached on
disk keyed by file content hashes (:class:`LintCache`), and intentional
findings can be parked in a committed baseline file.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

__all__ = [
    "Violation",
    "ModuleContext",
    "Rule",
    "Walker",
    "LintResult",
    "LintCache",
    "lint_file",
    "lint_paths",
    "analyze_paths",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
]

#: Directories never descended into when walking a tree.  ``_lint_fixtures``
#: holds deliberately-bad snippets for the linter's own tests — they are
#: linted by passing their paths explicitly, never via directory walks.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "_lint_fixtures", ".ruff_cache"}
)

#: The module that declares every wire message; RL002 reads it from source.
MESSAGES_MODULE = Path(__file__).resolve().parents[1] / "runtime" / "messages.py"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9, ]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9, ]+)")


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule finding, addressable as ``path:line:col: code message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "Violation":
        return cls(
            str(data["path"]),
            int(data["line"]),  # type: ignore[arg-type]
            int(data["col"]),  # type: ignore[arg-type]
            str(data["code"]),
            str(data["message"]),
        )

    def fingerprint(self) -> tuple[str, str, str]:
        """Line-insensitive identity used by the baseline mechanism."""
        return (self.path, self.code, self.message)


class ModuleContext:
    """Per-file state shared by every rule during one walk."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.posix_path = PurePosixPath(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.violations: list[Violation] = []
        self._suppressed_lines: dict[int, set[str]] = {}
        self._suppressed_file: set[str] = set()
        self._scan_suppressions()

    # ------------------------------------------------------------ suppression
    def _scan_suppressions(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(text)
            if m:
                codes = {c.strip() for c in m.group(1).split(",") if c.strip()}
                # Position-precise: a comment-only line shields the *next*
                # line, a trailing comment shields its *own* line — never
                # both, so flagged code on a comment-bearing line cannot
                # leak suppression onto an unrelated neighbour.
                target = lineno + 1 if text.lstrip().startswith("#") else lineno
                self._suppressed_lines.setdefault(target, set()).update(codes)
            if lineno <= 20:
                m = _SUPPRESS_FILE_RE.search(text)
                if m:
                    self._suppressed_file.update(
                        c.strip() for c in m.group(1).split(",") if c.strip()
                    )

    def is_suppressed(self, code: str, line: int) -> bool:
        if code in self._suppressed_file:
            return True
        return code in self._suppressed_lines.get(line, set())

    def suppression_map(self) -> tuple[set[str], dict[int, set[str]]]:
        """The file-level codes and per-line code sets (for summaries)."""
        return self._suppressed_file, self._suppressed_lines

    # -------------------------------------------------------------- reporting
    def report(self, code: str, node: ast.AST | int, message: str, col: int | None = None) -> None:
        if isinstance(node, int):
            line, column = node, col or 0
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0) if col is None else col
        if self.is_suppressed(code, line):
            return
        self.violations.append(Violation(self.path, line, column, code, message))

    def in_path(self, *fragments: str) -> bool:
        """True when this file's path contains any of the given fragments."""
        return any(f in self.posix_path for f in fragments)


class Rule:
    """Base class for one lint rule.

    Subclasses set ``code``/``name``/``description`` and implement any of
    the three hooks.  ``include`` restricts the rule to files whose POSIX
    path contains one of the fragments (empty = every file); ``exclude``
    removes files the same way and wins over ``include``.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, posix_path: str) -> bool:
        if any(f in posix_path for f in self.exclude):
            return False
        if not self.include:
            return True
        return any(f in posix_path for f in self.include)

    def begin_module(self, ctx: ModuleContext) -> None:
        """Called once per file before the walk."""

    def visit(self, node: ast.AST, ctx: ModuleContext, walker: "Walker") -> None:
        """Called for every AST node during the shared walk."""

    def end_module(self, ctx: ModuleContext) -> None:
        """Called once per file after the walk."""


def _is_main_guard(node: ast.AST) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class Walker:
    """Single shared traversal that fans nodes out to every active rule.

    Rules read traversal state through the walker: ``scope_stack`` (the
    enclosing function/class nodes), :attr:`function_depth`,
    :attr:`at_module_level`, and :attr:`in_main_guard`.
    """

    def __init__(self, ctx: ModuleContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.rules = [r for r in rules if r.applies_to(ctx.posix_path)]
        self.scope_stack: list[ast.AST] = []
        self._main_guard_depth = 0

    # ------------------------------------------------------- traversal state
    @property
    def function_depth(self) -> int:
        return sum(1 for n in self.scope_stack if isinstance(n, _FUNC_NODES))

    @property
    def current_function(self) -> ast.AST | None:
        for node in reversed(self.scope_stack):
            if isinstance(node, _FUNC_NODES):
                return node
        return None

    @property
    def at_module_level(self) -> bool:
        """True for statements executed at import time (outside any def,
        class body, or ``if __name__ == "__main__"`` guard)."""
        return not self.scope_stack and self._main_guard_depth == 0

    @property
    def in_main_guard(self) -> bool:
        return self._main_guard_depth > 0

    # --------------------------------------------------------------- driving
    def run(self) -> None:
        if not self.rules:
            return
        for rule in self.rules:
            rule.begin_module(self.ctx)
        self._visit(self.ctx.tree)
        for rule in self.rules:
            rule.end_module(self.ctx)

    def _visit(self, node: ast.AST) -> None:
        for rule in self.rules:
            rule.visit(node, self.ctx, self)
        is_scope = isinstance(node, _SCOPE_NODES)
        is_guard = _is_main_guard(node)
        if is_scope:
            self.scope_stack.append(node)
        if is_guard:
            self._main_guard_depth += 1
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if is_guard:
            self._main_guard_depth -= 1
        if is_scope:
            self.scope_stack.pop()


# --------------------------------------------------------------------- driver
@dataclass(slots=True)
class LintResult:
    """Outcome of linting a set of paths.

    ``stats`` carries driver-level counters from :func:`analyze_paths`
    (``parsed``/``reused`` file counts for the incremental cache,
    ``baselined`` for findings parked in the baseline file); it stays
    empty for the plain per-file :func:`lint_paths` path.
    """

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors


def iter_python_files(
    paths: Iterable[str | Path], excluded_dirs: frozenset[str] = DEFAULT_EXCLUDED_DIRS
) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    Files named explicitly are always included (this is how the test suite
    lints ``_lint_fixtures`` snippets); directory walks skip
    ``excluded_dirs``.
    """
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            if p.suffix == ".py" and p not in seen:
                seen.add(p)
                out.append(p)
            continue
        for f in sorted(p.rglob("*.py")):
            if any(part in excluded_dirs for part in f.parts):
                continue
            if f not in seen:
                seen.add(f)
                out.append(f)
    return out


def lint_file(path: str | Path, rules: Sequence[Rule]) -> LintResult:
    """Lint one file with the given rules."""
    result = LintResult(files_checked=1)
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(p))
    except (OSError, SyntaxError, ValueError) as exc:
        result.parse_errors.append(f"{p}: {exc}")
        return result
    ctx = ModuleContext(str(p), source, tree)
    Walker(ctx, rules).run()
    result.violations.extend(ctx.violations)
    return result


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintResult:
    """Lint files/directories, optionally restricting the rule set."""
    active = _filter_rules(list(rules), select, ignore)
    total = LintResult()
    for f in iter_python_files(paths):
        one = lint_file(f, active)
        total.files_checked += one.files_checked
        total.violations.extend(one.violations)
        total.parse_errors.extend(one.parse_errors)
    total.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return total


def _filter_rules(active: list, select: Iterable[str] | None, ignore: Iterable[str] | None) -> list:
    if select is not None:
        wanted = set(select)
        active = [r for r in active if r.code in wanted]
    if ignore is not None:
        dropped = set(ignore)
        active = [r for r in active if r.code not in dropped]
    return active


# ---------------------------------------------------------------------- cache
def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _analyzer_digest() -> str:
    """Hash of the linter's own sources and of the message module RL002
    reads: any change to either invalidates every cache entry (rules may
    report differently)."""
    h = hashlib.sha256()
    for src in [*sorted(Path(__file__).parent.glob("*.py")), MESSAGES_MODULE]:
        h.update(src.name.encode())
        if src.is_file():
            h.update(src.read_bytes())
    return h.hexdigest()


class LintCache:
    """On-disk incremental cache for phase 1 (per-file) results.

    One JSON file maps each analyzed path to its content hash plus the
    per-file violations and :class:`~repro.lint.graph.ModuleSummary` it
    produced.  A file whose content hash is unchanged skips parse + walk
    entirely — phase 2 re-runs over the (cheap, already-extracted)
    summaries every time, so cross-module rules always see the current
    project even when every file is a cache hit.  The global key folds in
    the analyzer's own source hash and the active rule codes, so
    upgrading the linter or changing ``--select`` never serves stale
    results.
    """

    VERSION = 1

    def __init__(self, path: str | Path, rules_signature: str) -> None:
        self.path = Path(path)
        self.key = f"v{self.VERSION}:{_analyzer_digest()}:{rules_signature}"
        self._entries: dict[str, dict] = {}
        self._dirty = False
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            if data.get("key") == self.key:
                self._entries = data.get("files", {})
        except (OSError, ValueError):
            pass

    def get(self, path: str, digest: str) -> dict | None:
        entry = self._entries.get(path)
        if entry is not None and entry.get("digest") == digest:
            return entry
        return None

    def put(
        self,
        path: str,
        digest: str,
        violations: list[Violation],
        summary_json: dict | None,
        parse_error: str | None = None,
    ) -> None:
        self._entries[path] = {
            "digest": digest,
            "violations": [v.to_json() for v in violations],
            "summary": summary_json,
            "parse_error": parse_error,
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": self.key, "files": self._entries}
        self.path.write_text(json.dumps(payload), encoding="utf-8")
        self._dirty = False


# ------------------------------------------------------------------- baseline
def load_baseline(path: str | Path) -> set[tuple[str, str, str]]:
    """Read a committed baseline file into a set of fingerprints."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return set()
    return {
        (str(e["path"]), str(e["code"]), str(e["message"]))
        for e in data.get("findings", [])
        if isinstance(e, dict) and {"path", "code", "message"} <= e.keys()
    }


def write_baseline(path: str | Path, violations: Sequence[Violation]) -> None:
    """Persist current findings as the accepted baseline (line-insensitive)."""
    findings = sorted(
        {v.fingerprint() for v in violations}
    )
    payload = {
        "comment": "accepted repro-lint findings; regenerate with --write-baseline",
        "findings": [
            {"path": p, "code": c, "message": m} for p, c, m in findings
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------- two-phase driver
def analyze_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence | None = None,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    cache_path: str | Path | None = None,
    baseline_path: str | Path | None = None,
) -> LintResult:
    """Run the full two-phase analyzer over files/directories.

    Phase 1 lints every file with the per-file rules and extracts a
    ``ModuleSummary`` (served from ``cache_path`` when content hashes
    match).  Phase 2 assembles the :class:`~repro.lint.graph.ProjectGraph`
    and runs the cross-module rules from :mod:`repro.lint.flow`.
    Violations whose fingerprints appear in ``baseline_path`` are dropped
    (counted in ``stats["baselined"]``).
    """
    from .graph import ModuleSummary, ProjectGraph, extract_summary

    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    if project_rules is None:
        from .flow import default_project_rules

        project_rules = default_project_rules()
    active = _filter_rules(list(rules), select, ignore)
    active_project = _filter_rules(list(project_rules), select, ignore)
    signature = ",".join(
        sorted([r.code for r in active] + [r.code for r in active_project])
    )
    cache = LintCache(cache_path, signature) if cache_path else None

    result = LintResult()
    summaries: list[ModuleSummary] = []
    parsed = reused = 0
    for f in iter_python_files(paths):
        path_str = str(f)
        result.files_checked += 1
        try:
            source = f.read_text(encoding="utf-8")
        except OSError as exc:
            result.parse_errors.append(f"{f}: {exc}")
            continue
        digest = _sha256(source)
        entry = cache.get(path_str, digest) if cache else None
        if entry is not None:
            reused += 1
            if entry.get("parse_error"):
                result.parse_errors.append(entry["parse_error"])
                continue
            result.violations.extend(
                Violation.from_json(v) for v in entry.get("violations", [])
            )
            if entry.get("summary") is not None:
                summaries.append(ModuleSummary.from_json(entry["summary"]))
            continue
        parsed += 1
        try:
            tree = ast.parse(source, filename=path_str)
        except (SyntaxError, ValueError) as exc:
            err = f"{f}: {exc}"
            result.parse_errors.append(err)
            if cache:
                cache.put(path_str, digest, [], None, parse_error=err)
            continue
        ctx = ModuleContext(path_str, source, tree)
        Walker(ctx, active).run()
        result.violations.extend(ctx.violations)
        suppressed_file, suppressed_lines = ctx.suppression_map()
        summary = extract_summary(
            ctx.posix_path, tree, suppressed_file, suppressed_lines
        )
        summaries.append(summary)
        if cache:
            cache.put(path_str, digest, ctx.violations, summary.to_json())

    graph = ProjectGraph(summaries)
    for rule in active_project:
        for v in rule.check(graph):
            if not graph.is_suppressed(v.path, v.code, v.line):
                result.violations.append(v)

    baselined = 0
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        if baseline:
            kept = []
            for v in result.violations:
                if v.fingerprint() in baseline:
                    baselined += 1
                else:
                    kept.append(v)
            result.violations = kept

    if cache:
        cache.save()
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    result.stats = {"parsed": parsed, "reused": reused, "baselined": baselined}
    return result
