"""End-user surface: commands, exit codes, limits."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import rimcert
from rimcert.cli import EXIT_CERTIFIED, EXIT_ERROR, EXIT_INCONCLUSIVE, explain_text, main
from rimcert.enumeration import DEFAULT_MAX_COSETS
from rimcert.report import DEFAULT_TIMEOUT
from rimcert.surgery import spec_from_json


def _run(*args):
    """Run main in this process; stdout and stderr land in one buffer."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = main(list(args))
    return SimpleNamespace(exit_code=code, output=out.getvalue())


def test_certify_text_exit_zero():
    r = _run("certify", "--knot", "3_1", "--d", "2", "--m", "1")
    assert r.exit_code == EXIT_CERTIFIED
    assert "verdict: cyclic" in r.output
    assert "pairwise homeomorphism" in r.output


def test_certify_non_cyclic_is_still_certified():
    r = _run("certify", "--knot", "3_1", "--d", "2", "--m", "0")
    assert r.exit_code == EXIT_CERTIFIED
    assert "verdict: non_cyclic" in r.output
    assert "meridian_subgroup_index=3" in r.output


def test_certify_json_output():
    r = _run("certify", "--knot", "unknot", "--d", "3", "--json")
    assert r.exit_code == EXIT_CERTIFIED
    doc = json.loads(r.output)
    assert doc["schema"] == "rimcert.report/1"
    assert doc["verdict"]["status"] == "cyclic"
    assert doc["spec"] == {"knot": "unknot", "d": 3, "m": 0, "n": 0,
                           "kind": "rim"}


def test_certify_inconclusive_exit_two():
    r = _run("certify", "--knot", "4_1", "--d", "3", "--m", "1", "--n", "20",
             "--max-cosets", "500")
    assert r.exit_code == EXIT_INCONCLUSIVE
    assert "verdict: inconclusive" in r.output


def test_certify_unknown_knot_exit_one():
    r = _run("certify", "--knot", "9_99", "--d", "2")
    assert r.exit_code == EXIT_ERROR
    assert "error:" in r.output


def test_certify_rejects_bad_order():
    r = _run("certify", "--knot", "unknot", "--d", "0")
    assert r.exit_code == EXIT_ERROR


def test_zero_timeout_disables_the_deadline():
    r = _run("certify", "--knot", "unknot", "--d", "2", "--json",
             "--timeout", "0")
    assert json.loads(r.output)["limits"]["timeout"] is None


def test_negative_timeout_is_an_error():
    # An infinite timeout would be written as Infinity, which is not JSON.
    for args in (["--timeout", "-1"], ["--timeout", "inf", "--json"],
                 ["--timeout", "nan", "--json"]):
        r = _run("certify", "--knot", "5_2", "--d", "3", "--m", "1", "--n", "3", *args)
        assert r.exit_code == EXIT_ERROR
        assert "error: timeout" in r.output
        assert "limits:" not in r.output


@pytest.mark.parametrize("args", [
    ["certify", "--knot", "3_1"],
    ["certify", "--knot", "3_1", "--d", "x"],
    ["certify", "--knot", "3_1", "--d", "2", "--kind", "torus"],
    ["batch", "--config", "missing/config.json"],
    ["frobnicate"],
    [],
], ids=["missing-d", "bad-d", "unknown-kind", "missing-config", "unknown-command", "bare"])
def test_usage_errors_exit_one_not_the_inconclusive_two(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    r = _run(*args)
    assert r.exit_code == EXIT_ERROR
    assert "error:" in r.output
    assert "verdict:" not in r.output


def test_flags_are_not_abbreviated_and_limits_default(monkeypatch):
    # Limits come from flags alone; no environment variable sets them.
    monkeypatch.setenv("RIMCERT_MAX_COSETS", "abc")
    monkeypatch.setenv("RIMCERT_TIMEOUT", "30")
    r = _run("certify", "--knot", "4_1", "--d", "3", "--m", "1", "--n", "20",
             "--max", "500")
    assert r.exit_code == EXIT_ERROR
    assert "verdict:" not in r.output
    r = _run("certify", "--knot", "unknot", "--d", "2", "--json")
    assert json.loads(r.output)["limits"] == {"max_cosets": DEFAULT_MAX_COSETS,
                                              "timeout": DEFAULT_TIMEOUT}


def test_batch_roundtrip_to_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "specs": [{"knot": "unknot", "d": 2}],
        "sweeps": [{"knots": ["3_1"], "d": 2, "m": [0, 1]}],
    }))
    out = tmp_path / "out.json"
    r = _run("batch", "--config", str(config), "--out", str(out))
    assert r.exit_code == EXIT_CERTIFIED
    doc = json.loads(out.read_text())
    assert doc["schema"] == "rimcert.batch/1"
    assert doc["summary"]["total"] == 3
    assert doc["summary"]["cyclic"] == 2
    assert doc["summary"]["non_cyclic"] == 1


def test_batch_stdout_matches_file_output(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"specs": [{"knot": "unknot", "d": 2}]}))
    to_stdout = _run("batch", "--config", str(config))
    out = tmp_path / "out.json"
    _run("batch", "--config", str(config), "--out", str(out))
    assert to_stdout.output == out.read_text()


def test_batch_bad_config_exit_one(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{\"max_cosets\": 0}")
    r = _run("batch", "--config", str(config))
    assert r.exit_code == EXIT_ERROR


def test_list_config_exits_one_naming_the_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    r = _run("batch", "--config", str(config))
    assert r.exit_code == EXIT_ERROR
    assert "batch config must be a JSON object" in r.output


@pytest.mark.parametrize("module", ["rimcert", "rimcert.cli"])
def test_python_dash_m_runs_the_commands(module, tmp_path):
    # Both the package and the cli module run as scripts from a source
    # tree, exactly as the installed rimcert command does.
    src = str(Path(rimcert.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    r = subprocess.run(
        [sys.executable, "-m", module, "certify", "--knot", "3_1", "--d", "2", "--m", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert r.returncode == EXIT_CERTIFIED, r.stderr
    assert "verdict: cyclic" in r.stdout
    # The exit code survives the module entry points: inconclusive and usage error.
    for args, code in [(["--d", "3", "--m", "1", "--n", "20", "--max-cosets", "500"],
                        EXIT_INCONCLUSIVE),
                       ([], EXIT_ERROR)]:
        r = subprocess.run(
            [sys.executable, "-m", module, "certify", "--knot", "4_1", *args],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert r.returncode == code, r.stderr


def test_explain_traces_the_construction():
    r = _run("explain", "--knot", "3_1", "--d", "2", "--m", "1")
    assert r.exit_code == 0
    assert "regluing matrix" in r.output
    assert "standard-ambient gluing exists: 2*0 + 1*1 = 1" in r.output
    assert "surgery relator: meridian^2" in r.output
    assert "conjugator:" in r.output


def test_explain_flags_non_coprime_parameters():
    r = _run("explain", "--knot", "3_1", "--d", "2", "--m", "2")
    assert "no standard-ambient gluing" in r.output


# sha256 of the explain panel below, frozen from the commit before the
# regluing matrix was printed without a matrix class.
EXPLAIN_DIGEST = "1bb6cc9d11ff2829c4152aca8db9e06a2992854b3d062898e54b9adb836811ea"


def test_explain_text_is_pinned():
    texts = []
    for knot in ("unknot", "3_1", "4_1", "5_1", "5_2"):
        for kind in ("rim", "annulus"):
            for d in (1, 2, 3, 6):
                for m, n in ((0, 0), (1, 1), (2, 3), (4, 0)):
                    spec = spec_from_json(
                        {"knot": knot, "d": d, "m": m, "n": n, "kind": kind}
                    )
                    texts.append(explain_text(spec))
    blob = json.dumps(texts).encode()
    assert hashlib.sha256(blob).hexdigest() == EXPLAIN_DIGEST


def test_explain_trivial_order_note():
    r = _run("explain", "--knot", "unknot", "--d", "1")
    assert "d=1 kills the meridian" in r.output
    assert "conjugator: trivial" in r.output


def test_explain_annulus_boundary_relators():
    r = _run("explain", "--knot", "3_1", "--d", "3", "--kind", "annulus")
    assert "tangle group:" in r.output
    assert "surface meridian power:" in r.output
    assert "strand meridians agree:" in r.output


def test_invariants_command():
    r = _run("invariants", "--knot", "4_1")
    assert r.exit_code == 0
    assert "alexander polynomial: t^2-3t+1" in r.output
    assert "determinant: 5" in r.output
    assert "arf invariant: 1" in r.output
    r = _run("invariants", "--knot", "5_2", "--json")
    assert json.loads(r.output)["determinant"] == 7


def test_invariants_accepts_braid_literals():
    r = _run("invariants", "--knot", "B3: 1 -2 1 -2", "--json")
    assert json.loads(r.output)["alexander_polynomial"] == "t^2-3t+1"


def test_public_api_names_are_bound_and_unique():
    missing = [name for name in rimcert.__all__ if not hasattr(rimcert, name)]
    assert not missing
    assert len(set(rimcert.__all__)) == len(rimcert.__all__)
    # The cover construction is a test helper, not part of the package.
    # The per-kind surgery functions and TangleGroup gave way to one
    # recipe and a plain marked presentation.
    dropped = {"EnumerationOverflow", "SubgroupPresentation",
               "reidemeister_schreier", "meridian_kernel_words",
               "unbranched_cover_group", "TangleGroup", "rim_surgery_group",
               "annulus_rim_surgery_group", "twist_roll_conjugator",
               # The regluing wrappers only explain read, and the table
               # lookup that only tests called.
               "GluingMatrix", "gluing_matrix", "validate_gluing",
               "builtin_knot",
               # A spec's companion is always named, so the report builds
               # the closed diagram inline.
               "companion_diagram"}
    assert not dropped & set(rimcert.__all__)
    assert not [name for name in dropped if hasattr(rimcert, name)]
