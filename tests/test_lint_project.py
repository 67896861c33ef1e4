"""The whole-program analyzer (DESIGN.md §5j): ProjectGraph resolution,
the cross-module rules RL011–RL013 and RL015 against their fixture
packages, the incremental cache, baselines, and SARIF output.

Fixture packages live under ``tests/_lint_fixtures`` and are linted by
explicit file list — directory walks exclude that tree by design.
"""

import ast
import json
from pathlib import Path

from repro.lint import (
    LintCache,
    ProjectGraph,
    analyze_paths,
    default_rules,
    extract_summary,
    load_baseline,
    write_baseline,
)
from repro.lint.cli import main
from repro.lint.graph import module_name_for
from repro.lint.sarif import to_sarif

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "_lint_fixtures"
PROTO_GOOD = sorted((FIXTURES / "proto_good" / "repro" / "runtime").glob("*.py"))
PROTO_BAD = sorted((FIXTURES / "proto_bad" / "repro" / "runtime").glob("*.py"))


def check(files, select):
    result = analyze_paths([str(f) for f in files], select=select)
    assert not result.parse_errors
    return [(Path(v.path).name, v.line, v.code) for v in result.violations]


def graph_of(paths) -> ProjectGraph:
    summaries = []
    for p in paths:
        source = p.read_text(encoding="utf-8")
        posix = p.as_posix()
        summaries.append(extract_summary(posix, ast.parse(source, filename=posix)))
    return ProjectGraph(summaries)


# ------------------------------------------------------------- ProjectGraph
def test_module_name_derivation():
    assert module_name_for("src/repro/runtime/system.py") == ("repro.runtime.system", False)
    assert module_name_for("src/repro/runtime/__init__.py") == ("repro.runtime", True)
    # Fixture trees mirroring the package layout resolve from `repro`.
    assert module_name_for("tests/_lint_fixtures/proto_bad/repro/runtime/controller.py") == (
        "repro.runtime.controller",
        False,
    )
    # Anything else falls back to its last two components.
    assert module_name_for("tools/helper.py") == ("tools.helper", False)


def test_resolve_export_follows_package_reexport():
    pkg = FIXTURES / "graphpkg" / "pkg"
    graph = graph_of(sorted(pkg.glob("*.py")))
    # pkg/__init__.py re-exports Thing from pkg/impl.py.
    assert graph.resolve_export("pkg", "Thing") == ("pkg.impl", "Thing")
    # The defining module answers for itself.
    assert graph.resolve_export("pkg.impl", "Thing") == ("pkg.impl", "Thing")


def test_resolve_export_terminates_on_import_cycle():
    pkg = FIXTURES / "graphpkg" / "pkg"
    graph = graph_of(sorted(pkg.glob("*.py")))
    # cycle_a and cycle_b import missing_name from each other; neither
    # defines it — the chase must terminate and admit defeat.
    assert graph.resolve_export("pkg.cycle_a", "missing_name") is None
    assert graph.resolve_export("pkg.cycle_b", "missing_name") is None


def test_resolve_export_stops_at_external_boundary():
    graph = graph_of([FIXTURES / "graphpkg" / "pkg" / "__init__.py"])
    # impl.py absent from the graph: the import edge is the best answer.
    assert graph.resolve_export("pkg", "Thing") == ("pkg.impl", "Thing")


# ------------------------------------------------- RL011 protocol exhaustiveness
def test_rl011_clean_on_good_protocol_fixture():
    assert check(PROTO_GOOD, select=["RL011"]) == []


def test_rl011_flags_dropped_dead_and_unhandled_members():
    found = check(PROTO_BAD, select=["RL011"])
    assert ("system.py", 1, "RL011") in found  # ArmDeadline silently dropped
    assert ("controller.py", 42, "RL011") in found  # TriggerMerge never emitted
    assert ("process_backend.py", 20, "RL011") in found  # WorkerDied unhandled
    assert len(found) == 3


def test_rl011_fires_on_real_tree_when_dispatch_branch_removed(tmp_path):
    # The acceptance drill: strip one isinstance dispatch branch from the
    # real in-process driver and the linter must fail with RL011.
    runtime = REPO / "src" / "repro" / "runtime"
    shadow = tmp_path / "repro" / "runtime"
    shadow.mkdir(parents=True)
    for f in runtime.glob("*.py"):
        text = f.read_text(encoding="utf-8")
        if f.name == "system.py":
            assert "isinstance(cmd, TriggerMerge)" in text
            text = text.replace("isinstance(cmd, TriggerMerge)", "isinstance(cmd, SendBatch)")
        (shadow / f.name).write_text(text, encoding="utf-8")
    result = analyze_paths([str(shadow)], select=["RL011"])
    assert any(
        v.code == "RL011" and "TriggerMerge" in v.message and v.path.endswith("system.py")
        for v in result.violations
    )


# --------------------------------------------------- RL012 IPC message flow
def test_rl012_clean_on_good_protocol_fixture():
    assert check(PROTO_GOOD, select=["RL012"]) == []


def test_rl012_flags_dead_and_unset_wire_fields():
    found = check(PROTO_BAD, select=["RL012"])
    assert ("process_backend.py", 18, "RL012") in found  # slot produced, never read
    assert ("messages.py", 18, "RL012") in found  # trace read, never set, no default
    assert len(found) == 2


def test_rl012_fires_on_real_tree_when_field_read_removed(tmp_path):
    # The other acceptance drill: drop the only read of a BatchResult field
    # and RL012 must flag the now-dead wire field at its producer site.
    runtime = REPO / "src" / "repro" / "runtime"
    shadow = tmp_path / "repro" / "runtime"
    shadow.mkdir(parents=True)
    for f in runtime.glob("*.py"):
        text = f.read_text(encoding="utf-8")
        if f.name == "process_backend.py":
            assert ".compress_seconds" in text
            text = text.replace(".compress_seconds", ".compress_seconds_unused")
        (shadow / f.name).write_text(text, encoding="utf-8")
    result = analyze_paths([str(shadow)], select=["RL012"])
    assert any(
        v.code == "RL012" and "BatchResult.compress_seconds" in v.message
        for v in result.violations
    )


# ------------------------------------------------------ RL013 async blocking
def test_rl013_clean_on_offloaded_fixture():
    good = FIXTURES / "flow_async" / "repro" / "serving" / "good_async.py"
    assert check([good], select=["RL013"]) == []


def test_rl013_flags_blocking_calls_reachable_from_coroutines():
    bad = FIXTURES / "flow_async" / "repro" / "serving" / "bad_async.py"
    found = check([bad], select=["RL013"])
    assert ("bad_async.py", 16, "RL013") in found  # time.sleep two calls down
    assert ("bad_async.py", 21, "RL013") in found  # queue get in a helper
    assert len(found) == 2


# ------------------------------------------------------- RL015 metric orphans
def test_rl015_flags_orphan_emission(tmp_path):
    emitter = tmp_path / "repro" / "runtime" / "worker.py"
    emitter.parent.mkdir(parents=True)
    emitter.write_text(
        "def loop(tel):\n"
        '    tel.count("adcnn_ghost_total", 1)\n',
        encoding="utf-8",
    )
    report = tmp_path / "repro" / "telemetry" / "report.py"
    report.parent.mkdir(parents=True)
    report.write_text('_COUNTERS = ("adcnn_phantom_total",)\n', encoding="utf-8")
    result = analyze_paths([str(emitter), str(report)], select=["RL015"])
    messages = sorted(v.message for v in result.violations)
    assert len(messages) == 2
    assert "adcnn_ghost_total" in messages[0]  # emitted, never consumed
    assert "adcnn_phantom_total" in messages[1]  # consumed, never emitted


def test_rl015_clean_on_shipped_tree():
    result = analyze_paths([str(REPO / "src")], select=["RL015"])
    assert [v.format() for v in result.violations] == []


# ------------------------------------------------------------------- cache
def test_cache_cold_then_warm(tmp_path):
    cache = tmp_path / "cache.json"
    target = str(REPO / "src" / "repro" / "lint")
    cold = analyze_paths([target], cache_path=cache)
    assert cold.stats["parsed"] == cold.files_checked > 0
    assert cold.stats["reused"] == 0
    warm = analyze_paths([target], cache_path=cache)
    assert warm.stats["parsed"] == 0
    assert warm.stats["reused"] == warm.files_checked == cold.files_checked
    assert [v.format() for v in warm.violations] == [v.format() for v in cold.violations]


def test_cache_invalidates_on_content_change(tmp_path):
    mod = tmp_path / "repro" / "nn" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("X = 1\n", encoding="utf-8")
    cache = tmp_path / "cache.json"
    analyze_paths([str(mod)], cache_path=cache)
    mod.write_text("CACHE = {}\n", encoding="utf-8")
    redo = analyze_paths([str(mod)], cache_path=cache)
    assert redo.stats == {"parsed": 1, "reused": 0, "baselined": 0}
    assert [v.code for v in redo.violations] == ["RL001"]


def test_cache_invalidates_on_rule_selection(tmp_path):
    mod = tmp_path / "repro" / "nn" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("CACHE = {}\n", encoding="utf-8")
    cache = tmp_path / "cache.json"
    analyze_paths([str(mod)], cache_path=cache, select=["RL001"])
    # Different active rule set -> different global key -> full re-parse.
    other = analyze_paths([str(mod)], cache_path=cache, select=["RL007"])
    assert other.stats["parsed"] == 1


def test_cache_serves_parse_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def (:\n", encoding="utf-8")
    cache = tmp_path / "cache.json"
    cold = analyze_paths([str(broken)], cache_path=cache)
    warm = analyze_paths([str(broken)], cache_path=cache)
    assert cold.parse_errors and warm.parse_errors == cold.parse_errors
    assert warm.stats["reused"] == 1


def test_cache_key_rejects_stale_payload(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(json.dumps({"key": "bogus", "files": {"x.py": {}}}))
    cache = LintCache(cache_file, "RL001")
    assert cache.get("x.py", "anydigest") is None


# ---------------------------------------------------------------- baseline
def test_baseline_round_trip(tmp_path):
    mod = tmp_path / "repro" / "nn" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("CACHE = {}\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    first = analyze_paths([str(mod)])
    assert len(first.violations) == 1
    write_baseline(baseline, first.violations)
    assert len(load_baseline(baseline)) == 1
    # With the finding baselined, the same tree reports clean...
    second = analyze_paths([str(mod)], baseline_path=baseline)
    assert second.violations == []
    assert second.stats["baselined"] == 1
    # ...and the fingerprint is line-insensitive: shifting the file down
    # keeps the match.
    mod.write_text("\n\nCACHE = {}\n", encoding="utf-8")
    third = analyze_paths([str(mod)], baseline_path=baseline)
    assert third.violations == []


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == set()


# ------------------------------------------------------------------- SARIF
#: A fixture with exactly one finding: RL007 at line 3.
ONE_FINDING = FIXTURES / "repro" / "nn" / "bad_import_effects.py"


def test_sarif_structure():
    result = analyze_paths([str(ONE_FINDING)], select=["RL007"])
    log = to_sarif(result, default_rules())
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "RL007" in rule_ids
    (finding,) = run["results"]
    assert finding["ruleId"] == "RL007"
    loc = finding["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("bad_import_effects.py")
    assert loc["region"]["startLine"] == 3
    assert loc["region"]["startColumn"] >= 1


def test_cli_sarif_output(tmp_path):
    out = tmp_path / "lint.sarif"
    code = main(
        [
            str(ONE_FINDING),
            "--select",
            "RL007",
            "--format",
            "sarif",
            "--output",
            str(out),
        ]
    )
    assert code == 1
    log = json.loads(out.read_text())
    assert log["runs"][0]["results"][0]["ruleId"] == "RL007"


# --------------------------------------------------------------------- CLI
def test_cli_write_baseline_then_clean(tmp_path):
    bad = ONE_FINDING
    baseline = tmp_path / "baseline.json"
    assert (
        main([str(bad), "--select", "RL007", "--baseline", str(baseline), "--write-baseline"])
        == 0
    )
    assert main([str(bad), "--select", "RL007", "--baseline", str(baseline)]) == 0
    # Without the baseline the finding still gates.
    assert main([str(bad), "--select", "RL007"]) == 1


def test_cli_write_baseline_requires_path():
    assert main(["--write-baseline"]) == 2


def test_cli_clean_on_all_four_trees():
    # The acceptance gate: source, tests, benchmarks, and examples all
    # lint clean under the full two-phase rule set with no baseline.
    paths = [str(REPO / d) for d in ("src", "tests", "benchmarks", "examples")]
    assert main(paths) == 0
