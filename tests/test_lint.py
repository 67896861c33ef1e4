"""repro.lint: one failing-fixture test per rule, suppression handling,
CLI output formats, and the shipped tree staying clean."""

import json
from pathlib import Path

from repro.lint import default_rules, lint_file, lint_paths
from repro.lint.cli import main
from repro.lint.rules import RULE_CLASSES, STAGE_CONSTANT_NAMES, STAGES

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "_lint_fixtures" / "repro"


def violations_in(path: Path) -> list[tuple[str, int]]:
    result = lint_file(path, default_rules())
    assert not result.parse_errors
    return [(v.code, v.line) for v in result.violations]


# ------------------------------------------------------------ one per rule
def test_rl001_fork_safety_fixture():
    found = violations_in(FIXTURES / "nn" / "bad_fork_safety.py")
    assert ("RL001", 5) in found  # module-level mutable dict
    assert ("RL001", 7) in found  # import-time RNG construction
    assert ("RL001", 11) in found  # global np.random call
    assert all(code == "RL001" for code, _ in found)
    assert len(found) == 3  # the Generator-parameter function is clean


def test_rl002_message_declaration_fixture():
    found = violations_in(FIXTURES / "runtime" / "messages.py")
    assert ("RL002", 9) in found  # dataclass without frozen+slots
    assert ("RL002", 16) in found  # ndarray on a control-path message
    assert len(found) == 2


def test_rl002_queue_put_fixture():
    found = violations_in(FIXTURES / "runtime" / "bad_queue_put.py")
    assert ("RL002", 9) in found  # dict literal enqueued
    assert ("RL002", 10) in found  # undeclared class enqueued
    assert ("RL002", 14) in found  # dict literal sent on a channel
    assert ("RL002", 15) in found  # undeclared class sent on a channel
    assert len(found) == 4


def test_rl004_telemetry_fixture():
    found = violations_in(FIXTURES / "runtime" / "bad_telemetry.py")
    assert ("RL004", 5) in found  # span name outside the schema
    assert ("RL004", 11) in found  # except Exception: pass
    assert ("RL004", 18) in found  # bare except
    assert len(found) == 3


def test_rl005_numeric_fixture():
    found = violations_in(FIXTURES / "compression" / "bad_numeric.py")
    assert ("RL005", 7) in found  # np.float64
    assert ("RL005", 11) in found  # dtype-less allocation
    assert len(found) == 2


def test_rl006_worker_target_fixture():
    found = violations_in(FIXTURES / "runtime" / "bad_worker_target.py")
    assert ("RL006", 11) in found  # bound-method target
    assert ("RL006", 14) in found  # lambda target
    assert len(found) == 2


def test_rl007_import_effects_fixture():
    found = violations_in(FIXTURES / "nn" / "bad_import_effects.py")
    assert found == [("RL007", 3)]  # main-guard print is allowed


def test_rl008_controller_authority_fixture():
    found = violations_in(FIXTURES / "runtime" / "bad_policy_site.py")
    assert ("RL008", 9) in found  # direct Algorithm 3 call from a driver
    assert ("RL008", 10) in found  # EWMA collector fed by hand
    assert ("RL008", 15) in found  # ditto, via a differently-named receiver
    assert len(found) == 3


def test_rl009_metric_name_fixture():
    found = violations_in(FIXTURES / "runtime" / "bad_metric_name.py")
    assert ("RL009", 5) in found  # missing adcnn_ prefix
    assert ("RL009", 6) in found  # uppercase in the name
    assert ("RL009", 7) in found  # dynamic (f-string) name
    assert ("RL009", 12) in found  # EmitTelemetry count op with a bad name
    assert all(code == "RL009" for code, _ in found)
    assert len(found) == 4  # the literal observe() and the record op are clean


def test_rl016_cluster_construction_fixture():
    found = violations_in(FIXTURES / "serving" / "bad_cluster_construction.py")
    assert ("RL016", 8) in found  # direct ProcessCluster() in a driver tier
    assert ("RL016", 13) in found  # direct ADCNNSystem() in a driver tier
    assert ("RL016", 19) in found  # dotted rt.ProcessCluster() form
    assert all(code == "RL016" for code, _ in found)
    assert len(found) == 3


def test_rl016_sanctioned_paths_clean():
    found = violations_in(FIXTURES / "sharding" / "good_cluster_construction.py")
    # Factory use, adoption, and the audited suppression are all clean.
    assert found == []


def test_rl010_tile_loop_fixture():
    found = violations_in(FIXTURES / "partition" / "bad_tile_loop.py")
    assert ("RL010", 5) in found  # comprehension forward over a tiles name
    assert ("RL010", 6) in found  # comprehension forward over split_tensor(...)
    assert ("RL010", 8) in found  # for-body forward over enumerate(tiles)
    assert ("RL010", 9) in found  # generator forward over split_array(...)
    assert all(code == "RL010" for code, _ in found)
    # attribute access, benign builtins, constructors, and non-tile
    # iterables are all clean
    assert len(found) == 4


def test_rl008_allows_the_controller_layer():
    src = REPO / "src" / "repro" / "runtime"
    for allowed in ("controller.py", "policies.py", "scheduler.py"):
        result = lint_file(src / allowed, default_rules())
        assert not [v for v in result.violations if v.code == "RL008"]


# ------------------------------------------------------------- suppression
def test_inline_and_preceding_line_suppression():
    assert violations_in(FIXTURES / "nn" / "suppressed.py") == []


def test_suppression_is_position_precise(tmp_path):
    # Regression: a trailing disable used to also shield the *next* line,
    # and a comment-only disable used to shield its own line's neighbours.
    bad = tmp_path / "repro" / "nn" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "CACHE = {}  # repro-lint: disable=RL001\n"
        "LEAKED = {}\n",
        encoding="utf-8",
    )
    # Line 1 suppressed by its trailing comment; line 2 must still fire.
    assert violations_in(bad) == [("RL001", 2)]

    bad.write_text(
        "# repro-lint: disable=RL001\n"
        "SHIELDED = {}\n"
        "LEAKED = {}\n",
        encoding="utf-8",
    )
    # A comment-only disable shields exactly the next line, nothing else.
    assert violations_in(bad) == [("RL001", 3)]


def test_file_level_suppression(tmp_path):
    bad = tmp_path / "repro" / "nn" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "# repro-lint: disable-file=RL001\nCACHE = {}\nOTHER = []\n",
        encoding="utf-8",
    )
    assert violations_in(bad) == []


def test_rule_scoping_by_path(tmp_path):
    # The same source outside a worker package triggers nothing.
    out = tmp_path / "scripts" / "tool.py"
    out.parent.mkdir(parents=True)
    out.write_text("CACHE = {}\n", encoding="utf-8")
    assert violations_in(out) == []


def test_select_and_ignore():
    path = FIXTURES / "nn" / "bad_fork_safety.py"
    only = lint_paths([path], default_rules(), select=["RL001"])
    assert {v.code for v in only.violations} == {"RL001"}
    none = lint_paths([path], default_rules(), ignore=["RL001"])
    assert none.violations == []


# ------------------------------------------------------------------ schema
def test_stage_schema_in_sync():
    from repro.telemetry import recorder

    assert set(STAGES) == set(recorder.STAGES)
    real_constants = {n for n in dir(recorder) if n.startswith("STAGE_")}
    assert STAGE_CONSTANT_NAMES == real_constants


def test_rule_registry_well_formed():
    from repro.lint import PROJECT_RULE_CLASSES

    codes = [cls.code for cls in RULE_CLASSES] + [cls.code for cls in PROJECT_RULE_CLASSES]
    assert len(codes) == len(set(codes))  # per-file and project codes disjoint
    assert all(code.startswith("RL") for code in codes)
    assert 6 <= len(codes) <= 20
    assert all(cls.name and cls.description for cls in RULE_CLASSES)
    assert all(cls.name and cls.description for cls in PROJECT_RULE_CLASSES)


# --------------------------------------------------------------------- CLI
def test_cli_clean_on_shipped_tree():
    # The acceptance gate: the real source + test tree lints clean
    # (fixtures are excluded from directory walks by design).
    assert main([str(REPO / "src"), str(REPO / "tests")]) == 0


def test_cli_json_report(tmp_path):
    out = tmp_path / "lint.json"
    code = main(
        [
            str(FIXTURES / "compression" / "bad_numeric.py"),
            "--format",
            "json",
            "--output",
            str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["version"] == 2
    assert report["files_checked"] == 1
    assert report["violation_count"] == 2
    assert {v["code"] for v in report["violations"]} == {"RL005"}
    assert all({"path", "line", "col", "message"} <= set(v) for v in report["violations"])


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in RULE_CLASSES:
        assert cls.code in out


def test_cli_parse_error_exit_code(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def (:\n", encoding="utf-8")
    assert main([str(broken)]) == 2
