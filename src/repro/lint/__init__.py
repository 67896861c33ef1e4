"""Project-invariant static analysis for the ADCNN runtime (DESIGN.md §5e, §5j).

Run as ``python -m repro.lint [paths...]``.  Per-file rules RL001, RL002,
RL004–RL010 and RL016 check cross-process invariants (fork safety,
queue-message hygiene, telemetry discipline, numeric hygiene, worker
targets, import-time effects, controller authority, metric naming, one
forward per batch, cluster construction) one module at a time; the whole-program phase
(:mod:`repro.lint.flow`) then checks RL011 protocol exhaustiveness,
RL012 IPC message-flow conformance, RL013 async-blocking reachability,
and RL015 metric orphans over the assembled
:class:`~repro.lint.graph.ProjectGraph`.  Suppress with
``# repro-lint: disable=RLxxx``.
"""

from .core import (
    LintCache,
    LintResult,
    ModuleContext,
    Rule,
    Violation,
    Walker,
    analyze_paths,
    iter_python_files,
    lint_file,
    lint_paths,
    load_baseline,
    write_baseline,
)
from .flow import PROJECT_RULE_CLASSES, ProjectRule, default_project_rules
from .graph import ModuleSummary, ProjectGraph, extract_summary
from .rules import RULE_CLASSES, default_rules

__all__ = [
    "Violation",
    "ModuleContext",
    "Rule",
    "ProjectRule",
    "Walker",
    "LintResult",
    "LintCache",
    "ModuleSummary",
    "ProjectGraph",
    "extract_summary",
    "lint_file",
    "lint_paths",
    "analyze_paths",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
    "RULE_CLASSES",
    "PROJECT_RULE_CLASSES",
    "default_rules",
    "default_project_rules",
]
