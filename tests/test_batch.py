"""Batch expansion, execution, and deterministic serialization."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import rimcert
from rimcert import batch, batch_json, expand_config, run_batch
from rimcert.braids import resolve_knot
from rimcert.diagrams import band_double, braid_closure_diagram
from rimcert.batch import expand_sweep
from rimcert.surgery import spec_from_json


def test_sweep_expansion_order_and_coprime_filter():
    rows = expand_sweep(
        {"knots": ["3_1", "4_1"], "d": [2, 3], "m": [1, 3], "n": 0,
         "coprime": True}
    )
    # knots outer, then d, then m; gcd(d, m) > 1 pairs dropped.
    assert [(r["knot"], r["d"], r["m"]) for r in rows] == [
        ("3_1", 2, 1), ("3_1", 2, 3), ("3_1", 3, 1), ("3_1", 3, 2),
        ("4_1", 2, 1), ("4_1", 2, 3), ("4_1", 3, 1), ("4_1", 3, 2),
    ]
    assert all(r["n"] == 0 and r["kind"] == "rim" for r in rows)


def test_scalar_and_range_parameters():
    rows = expand_sweep({"knot": "unknot", "d": 2, "m": [0, 2], "n": 5})
    assert [(r["d"], r["m"], r["n"]) for r in rows] == [
        (2, 0, 5), (2, 1, 5), (2, 2, 5)
    ]
    assert expand_sweep({"knot": "unknot"}) == [
        {"knot": "unknot", "d": 1, "m": 0, "n": 0, "kind": "rim"}
    ]


def test_sweep_rejects_malformed_input():
    with pytest.raises(ValueError):
        expand_sweep({"d": 2})
    with pytest.raises(ValueError):
        expand_sweep({"knot": "unknot", "d": [3, 1]})
    with pytest.raises(ValueError):
        expand_sweep({"knot": "unknot", "d": True})
    with pytest.raises(ValueError):
        expand_sweep({"knot": "unknot", "d": [1, 2, 3]})
    # "false" is a non-empty string, which bool() would read as true.
    for coprime in ("false", 0, 1, None):
        with pytest.raises(ValueError):
            expand_sweep({"knot": "unknot", "d": [2, 4], "coprime": coprime})
    with pytest.raises(ValueError):
        expand_sweep({"knot": "unknot", "kind": "bogus"})
    with pytest.raises(ValueError):
        run_batch({"sweeps": [{"knot": "unknot", "d": 2, "coprime": "false"}]})
    # Both keys ran the 'knots' list alone, and an object swept its keys.
    with pytest.raises(ValueError, match="'knots' and 'knot'"):
        expand_sweep({"knots": ["3_1"], "knot": "4_1", "d": 2})
    for knots in ({"a": 1}, 5, None):
        with pytest.raises(ValueError, match="'knots' must be"):
            expand_sweep({"knots": knots, "d": 2})


@pytest.mark.parametrize(
    "run, unknown",
    [
        # These ran with the key ignored: as rim(3_1, d=5, m=0, n=4), with
        # the default limits, with m = 0 only, and as an empty batch.
        (lambda: spec_from_json({"knot": "3_1", "d": 5, "M": 1, "n": 4}), ["'M'"]),
        (lambda: run_batch({"specs": [], "max_coset": 10, "timout": 1}),
         ["'max_coset'", "'timout'"]),
        (lambda: expand_sweep({"knot": "3_1", "d": 2, "ms": [0, 2]}), ["'ms'"]),
        (lambda: expand_config({"spec": [{"knot": "3_1", "d": 2}]}), ["'spec'"]),
    ],
    ids=["spec", "batch-config", "sweep", "config-spec"],
)
def test_unknown_keys_are_rejected_by_name(run, unknown):
    with pytest.raises(ValueError, match="unknown") as err:
        run()
    assert all(key in str(err.value) for key in unknown)


def test_config_lists_specs_before_sweeps():
    config = {
        "specs": [{"knot": "5_1", "d": 4}],
        "sweeps": [
            {"knot": "unknot", "d": 2},
            {"knot": "3_1", "d": 3, "kind": "annulus"},
        ],
    }
    rows = expand_config(config)
    assert [r["knot"] for r in rows] == ["5_1", "unknot", "3_1"]
    assert rows[2]["kind"] == "annulus"
    assert expand_config({}) == []


def test_run_batch_counts_and_isolates_errors():
    config = {
        "specs": [
            {"knot": "unknot", "d": 2},
            {"knot": "no_such_knot", "d": 2},
            {"knot": "3_1", "d": 2, "m": 0},
        ],
        "max_cosets": 20_000,
    }
    doc = run_batch(config)
    assert doc["schema"] == "rimcert.batch/1"
    assert doc["summary"] == {
        "total": 3, "cyclic": 1, "non_cyclic": 1, "inconclusive": 0, "error": 1,
    }
    good, bad, refuted = doc["rows"]
    assert good["verdict"]["status"] == "cyclic"
    assert "timing" not in good
    assert bad["spec"] == {"knot": "no_such_knot", "d": 2}
    assert "no_such_knot" in bad["error"]
    assert refuted["verdict"]["status"] == "non_cyclic"


def test_empty_config_yields_empty_document():
    doc = run_batch({})
    assert doc["rows"] == []
    assert doc["summary"]["total"] == 0


def test_a_spec_that_is_not_an_object_is_a_row_error():
    # dict() once turned a list of pairs into the 3_1 spec, and aborted
    # the whole batch on a bare string.
    docs = [[["knot", "3_1"], ["d", 2]], "3_1", {"knot": "unknot", "d": 2}]
    doc = run_batch({"specs": docs})
    assert doc["summary"]["error"] == 2 and doc["summary"]["cyclic"] == 1
    for row, spec in zip(doc["rows"][:2], docs):
        assert row["spec"] == spec
        assert row["error"] == "surgery spec must be a JSON object"


def test_a_raw_diagram_braid_must_be_the_braid_it_closes():
    # The figure eight's braid beside the trefoil's crossings once certified
    # cyclic, echoing the figure eight as the spec's knot; a non-string
    # braid failed with "expected string or bytes-like object".
    from rimcert.braids import resolve_knot
    from rimcert.diagrams import braid_closure_diagram

    trefoil = braid_closure_diagram(resolve_knot("3_1")).to_json()
    braids = ["B3: 1 -2 1 -2", 5, ["B2: 1 1 1"], trefoil["braid"], None]
    specs = [{"knot": {**trefoil, "braid": b}, "d": 2, "m": 1} for b in braids]
    doc = run_batch({"specs": specs})
    assert doc["summary"]["error"] == 3 and doc["summary"]["cyclic"] == 2
    mismatch, number, listed = (row["error"] for row in doc["rows"][:3])
    assert mismatch == "diagram field 'braid' does not close to this diagram"
    assert number == listed == "diagram field 'braid' must be a string or null"


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_TREFOIL = braid_closure_diagram(resolve_knot("3_1"))
_KNOT = _TREFOIL.to_json()
_TANGLE = band_double(_TREFOIL, 0).to_json()


@pytest.mark.parametrize(
    "kind, knot, error",
    [
        pytest.param("rim", {**_KNOT, "crossings": 5},
                     "diagram field 'crossings' must be a list of crossing objects",
                     id="crossings-number"),
        pytest.param("rim", {**_KNOT, "crossings": [list(c.values()) for c in _KNOT["crossings"]]},
                     "crossing must be a JSON object", id="crossing-list"),
        pytest.param("rim", _without(_KNOT, "arcs"), "diagram field 'arcs' is missing",
                     id="missing-arcs"),
        pytest.param("rim", {**_KNOT, "extra": 1},
                     "unknown knot diagram keys 'extra'; "
                     "accepted: crossings, arcs, writhe, braid", id="knot-extra"),
        pytest.param("rim", {**_KNOT, "crossings": [{**_KNOT["crossings"][0], "x": 1}]},
                     "unknown crossing keys 'x'; accepted: over, under_in, under_out, sign",
                     id="crossing-extra"),
        pytest.param("rim", {**_KNOT, "crossings": [_without(_KNOT["crossings"][0], "sign")]},
                     "diagram field 'sign' is missing", id="crossing-missing-sign"),
        pytest.param("annulus", {**_TANGLE, "crossings": {}},
                     "diagram field 'crossings' must be a list of crossing objects",
                     id="tangle-crossings-object"),
        pytest.param("annulus", _without(_TANGLE, "strand2"),
                     "diagram field 'strand2' is missing", id="tangle-missing-strand"),
        pytest.param("annulus", {**_TANGLE, "writhe": 0},
                     "unknown tangle diagram keys 'writhe'; accepted: crossings, arcs, "
                     "strand1, strand2, a1, a2, a3, source_writhe", id="tangle-extra"),
    ],
)
def test_a_malformed_raw_diagram_is_a_row_error_naming_the_field(kind, knot, error):
    spec = {"knot": knot, "d": 2, "m": 1, "kind": kind}
    doc = run_batch({"specs": [spec, {"knot": "3_1", "d": 2, "m": 1, "kind": kind}]})
    bad, good = doc["rows"]
    assert bad == {"schema": "rimcert.batch/1", "spec": spec, "error": error}
    assert good["verdict"]["status"] == "cyclic"


def test_the_process_pool_loads_only_for_a_parallel_batch(tmp_path):
    # Importing the package and its CLI, and a serial batch, leave the
    # multiprocessing modules unloaded; a fresh interpreter shows it.
    src = str(Path(rimcert.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "import sys, rimcert, rimcert.cli\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "print([m for m in pool if m in sys.modules])\n"
        "rimcert.run_batch({'specs': [{'knot': '3_1', 'd': 2}] * 2})\n"
        "print([m for m in pool if m in sys.modules])\n"
        "rimcert.run_batch({'specs': [{'knot': '3_1', 'd': 2}] * 2, 'parallelism': 2})\n"
        "print([m for m in pool if m in sys.modules])\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, cwd=tmp_path, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "[]", "[]", "['multiprocessing', 'concurrent.futures.process']",
    ]


@pytest.mark.parametrize("key", ["specs", "sweeps"])
@pytest.mark.parametrize("value", ["3_1", {"knot": "3_1", "d": 2}, None])
def test_specs_and_sweeps_must_be_arrays(key, value):
    with pytest.raises(ValueError, match=f"batch config '{key}' must be a JSON array"):
        expand_config({key: value})


@pytest.mark.parametrize("config", [[1], "specs", None])
def test_run_batch_rejects_a_config_that_is_not_an_object(config):
    # Checked before any limit is read, so the error names the config,
    # not a missing dict method.
    with pytest.raises(ValueError, match="batch config must be a JSON object"):
        run_batch(config)


def test_run_batch_validates_limits():
    with pytest.raises(ValueError):
        run_batch({"max_cosets": 0})
    with pytest.raises(ValueError):
        run_batch({"parallelism": 0})
    with pytest.raises(ValueError):
        run_batch({"timeout": -1})


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_cosets", True),
        ("max_cosets", "50000"),
        ("max_cosets", 50000.0),
        ("parallelism", 1.7),
        ("parallelism", True),
        ("timeout", True),
        ("timeout", "60"),
        ("timeout", float("nan")),
        ("timeout", float("inf")),
    ],
)
def test_run_batch_takes_only_json_numbers_as_limits(key, value):
    # A bool is no count, a string is no number, and nan or inf would be
    # written back as NaN or Infinity, which is not JSON.
    spec = {"knot": "unknot", "d": 2}
    with pytest.raises(ValueError, match=key):
        run_batch({"specs": [spec], key: value})


def test_run_batch_echoes_valid_limits():
    doc = run_batch({"specs": [], "max_cosets": 500, "timeout": 5})
    assert doc["limits"] == {"max_cosets": 500, "timeout": 5.0}
    assert run_batch({"timeout": None})["limits"]["timeout"] is None


def test_parallelism_does_not_change_the_bytes():
    config = {
        "sweeps": [{"knots": ["unknot", "3_1", "4_1"], "d": [2, 3],
                    "m": 1, "n": [0, 1]}],
        "max_cosets": 50_000,
    }
    serial = batch_json(run_batch({**config, "parallelism": 1}))
    parallel = batch_json(run_batch({**config, "parallelism": 4}))
    assert serial == parallel


def test_a_dying_worker_costs_only_its_own_row(monkeypatch):
    # The d=3 row kills the process that runs it, as an out-of-memory kill
    # would.  Workers inherit the patch through fork, and the test process
    # never runs a row itself.  One pool of two workers breaks, then each
    # row without a result runs in a pool of one: at most five processes.
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit the patched certify only through fork")
    parent = os.getpid()
    real = batch.certify

    def certify(spec, **limits):
        assert os.getpid() != parent
        if spec.d == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(spec, **limits)

    config = {
        "specs": [
            {"knot": "unknot", "d": 2},
            {"knot": "4_1", "d": 3, "m": 1},
            {"knot": "3_1", "d": 2, "m": 0},
        ],
        "max_cosets": 20_000,
        "parallelism": 2,
    }
    with monkeypatch.context() as patch:
        patch.setattr(batch, "certify", certify)
        doc = run_batch(config)
    first, dead, last = doc["rows"]
    assert dead == {
        "schema": "rimcert.batch/1",
        "spec": {"knot": "4_1", "d": 3, "m": 1},
        "error": "worker process died",
    }
    serial = run_batch({**config, "parallelism": 1})["rows"]
    assert [first, last] == [serial[0], serial[2]]
    assert doc["summary"] == {
        "total": 3, "cyclic": 1, "non_cyclic": 1, "inconclusive": 0, "error": 1,
    }


def test_batch_json_is_canonical():
    doc = run_batch({"specs": [{"knot": "unknot", "d": 1}]})
    text = batch_json(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc
    assert text == batch_json(json.loads(text))
