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
from rimcert import batch
from rimcert.batch import batch_json, expand_config, expand_sweep, run_batch
from rimcert.braids import resolve_knot
from rimcert.diagrams import band_double, braid_closure_diagram
from rimcert.surgery import spec_from_json

from oracles import knot_diagram_json, tangle_diagram_json


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
    rows = expand_sweep({"knots": ["unknot"], "d": 2, "m": [0, 2], "n": 5})
    assert [(r["d"], r["m"], r["n"]) for r in rows] == [
        (2, 0, 5), (2, 1, 5), (2, 2, 5)
    ]
    assert expand_sweep({"knots": ["unknot"]}) == [
        {"knot": "unknot", "d": 1, "m": 0, "n": 0, "kind": "rim"}
    ]


def test_sweep_rejects_malformed_input():
    with pytest.raises(ValueError):
        expand_sweep({"d": 2})
    with pytest.raises(ValueError):
        expand_sweep({"knots": ["unknot"], "d": [3, 1]})
    with pytest.raises(ValueError):
        expand_sweep({"knots": ["unknot"], "d": True})
    with pytest.raises(ValueError):
        expand_sweep({"knots": ["unknot"], "d": [1, 2, 3]})
    # "false" is a non-empty string, which bool() would read as true.
    for coprime in ("false", 0, 1, None):
        with pytest.raises(ValueError):
            expand_sweep({"knots": ["unknot"], "d": [2, 4], "coprime": coprime})
    with pytest.raises(ValueError):
        expand_sweep({"knots": ["unknot"], "kind": "bogus"})
    with pytest.raises(ValueError):
        run_batch({"sweeps": [{"knots": ["unknot"], "d": 2, "coprime": "false"}]})
    # Companions are named one way, as a 'knots' list: a single 'knot'
    # is an unknown key, and a string, an object or a number is not a list.
    with pytest.raises(ValueError, match="unknown sweep keys 'knot'"):
        expand_sweep({"knot": "3_1", "d": 2})
    with pytest.raises(ValueError, match="unknown sweep keys 'knot'"):
        expand_sweep({"knots": ["3_1"], "knot": "4_1", "d": 2})
    for knots in ("3_1", {"a": 1}, 5, None):
        with pytest.raises(ValueError, match="sweep 'knots' must be a JSON list"):
            expand_sweep({"knots": knots, "d": 2})


@pytest.mark.parametrize(
    "run, unknown",
    [
        # These ran with the key ignored: as rim(3_1, d=5, m=0, n=4), with
        # the default limits, with m = 0 only, and as an empty batch.
        (lambda: spec_from_json({"knot": "3_1", "d": 5, "M": 1, "n": 4}), ["'M'"]),
        (lambda: run_batch({"specs": [], "max_coset": 10, "timout": 1}),
         ["'max_coset'", "'timout'"]),
        (lambda: expand_sweep({"knots": ["3_1"], "d": 2, "ms": [0, 2]}), ["'ms'"]),
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
            {"knots": ["unknot"], "d": 2},
            {"knots": ["3_1"], "d": 3, "kind": "annulus"},
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


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_TREFOIL = resolve_knot("3_1")
_KNOT = knot_diagram_json(braid_closure_diagram(_TREFOIL), _TREFOIL)
_TANGLE = tangle_diagram_json(band_double(_TREFOIL, 0), _TREFOIL.writhe())
# A 4-crossing Gauss diagram with Alexander polynomial 2t - 1, which is
# not symmetric, so it is no classical knot; it was certified cyclic.
PROBE_2T_MINUS_1 = {
    "crossings": [
        {"over": 0, "under_in": 0, "under_out": 1, "sign": 1},
        {"over": 0, "under_in": 2, "under_out": 3, "sign": 1},
        {"over": 2, "under_in": 3, "under_out": 0, "sign": -1},
        {"over": 0, "under_in": 1, "under_out": 2, "sign": -1},
    ],
    "arcs": 4, "writhe": 0, "braid": None,
}
# The trefoil band with its first crossing's sign flipped is no band
# double; it was certified non_cyclic.
FLIPPED_BAND = {
    **_TANGLE,
    "crossings": [{**_TANGLE["crossings"][0], "sign": -_TANGLE["crossings"][0]["sign"]}]
    + _TANGLE["crossings"][1:],
}
KNOT_ERROR = "'knot' must be a table name or a braid literal"


@pytest.mark.parametrize(
    "kind, knot",
    [
        pytest.param("rim", {**_KNOT, "crossings": 5}, id="crossings-number"),
        pytest.param("rim", {**_KNOT, "crossings": [list(c.values()) for c in _KNOT["crossings"]]},
                     id="crossing-list"),
        pytest.param("rim", _without(_KNOT, "arcs"), id="missing-arcs"),
        pytest.param("rim", {**_KNOT, "extra": 1}, id="knot-extra"),
        pytest.param("rim", {**_KNOT, "crossings": [{**_KNOT["crossings"][0], "x": 1}]},
                     id="crossing-extra"),
        pytest.param("rim", {**_KNOT, "crossings": [_without(_KNOT["crossings"][0], "sign")]},
                     id="crossing-missing-sign"),
        pytest.param("rim", {"crossings": [], "arcs": 1, "writhe": 1}, id="crossingless-writhe"),
        pytest.param("annulus", {**_TANGLE, "crossings": {}}, id="tangle-crossings-object"),
        pytest.param("annulus", _without(_TANGLE, "strand2"), id="tangle-missing-strand"),
        pytest.param("annulus", {**_TANGLE, "writhe": 0}, id="tangle-extra"),
        pytest.param("rim", _KNOT, id="trefoil"),
        pytest.param("annulus", _TANGLE, id="trefoil-band"),
        pytest.param("rim", PROBE_2T_MINUS_1, id="probe-2t-1-rim"),
        pytest.param("annulus", PROBE_2T_MINUS_1, id="probe-2t-1-annulus"),
        pytest.param("rim", FLIPPED_BAND, id="flipped-band-rim"),
        pytest.param("annulus", FLIPPED_BAND, id="flipped-band-annulus"),
    ],
)
def test_a_malformed_raw_diagram_is_a_row_error_naming_the_field(kind, knot):
    # A companion is named by table name or braid literal only, so every
    # diagram document, well formed or not, is a row error naming 'knot'.
    spec = {"knot": knot, "d": 2, "m": 1, "kind": kind}
    doc = run_batch({"specs": [spec, {"knot": "3_1", "d": 2, "m": 1, "kind": kind}]})
    bad, good = doc["rows"]
    assert bad == {"schema": "rimcert.batch/1", "spec": spec, "error": KNOT_ERROR}
    assert good["verdict"]["status"] == "cyclic"
    assert doc["summary"]["error"] == 1


@pytest.mark.parametrize("kind", ["rim", "annulus"])
@pytest.mark.parametrize("knot", [PROBE_2T_MINUS_1, FLIPPED_BAND],
                         ids=["probe-2t-1", "flipped-band"])
def test_spec_from_json_rejects_a_diagram_object_knot(knot, kind):
    with pytest.raises(ValueError, match=KNOT_ERROR):
        spec_from_json({"knot": knot, "d": 3, "m": 1, "n": 1, "kind": kind})


def _fresh_python(code: str, cwd: Path) -> list[str]:
    """The lines code prints in a fresh interpreter that imports this rimcert."""
    src = str(Path(rimcert.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, cwd=cwd, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()


def test_the_process_pool_loads_only_for_a_parallel_batch(tmp_path):
    # Importing the package and its CLI, and a serial batch, leave the
    # multiprocessing modules unloaded; a fresh interpreter shows it.
    code = (
        "import sys, rimcert.batch, rimcert.cli\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "print([m for m in pool if m in sys.modules])\n"
        "rimcert.batch.run_batch({'specs': [{'knot': '3_1', 'd': 2}] * 2})\n"
        "print([m for m in pool if m in sys.modules])\n"
        "rimcert.batch.run_batch({'specs': [{'knot': '3_1', 'd': 2}] * 2, 'parallelism': 2})\n"
        "print([m for m in pool if m in sys.modules])\n"
    )
    assert _fresh_python(code, tmp_path) == [
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
        ("timeout", False),
        ("timeout", "60"),
        ("timeout", float("nan")),
        ("timeout", float("inf")),
    ],
)
def test_run_batch_takes_only_json_numbers_as_limits(key, value):
    # A bool is no count and no number (false neither, though it equals 0
    # and a timeout of 0 means none), a string is no number, and nan or inf
    # would be written back as NaN or Infinity, which is not JSON.
    spec = {"knot": "unknot", "d": 2}
    with pytest.raises(ValueError, match=key):
        run_batch({"specs": [spec], key: value})


def test_run_batch_echoes_valid_limits():
    doc = run_batch({"specs": [], "max_cosets": 500, "timeout": 5})
    assert doc["limits"] == {"max_cosets": 500, "timeout": 5.0}
    assert run_batch({"timeout": None})["limits"]["timeout"] is None
    # 0 means no deadline, as `rimcert certify --timeout 0` does.
    for zero in (0, 0.0):
        doc = run_batch({"specs": [{"knot": "3_1", "d": 2, "m": 1}], "timeout": zero})
        assert doc["limits"]["timeout"] is doc["rows"][0]["limits"]["timeout"] is None
        assert doc["rows"][0]["verdict"]["status"] == "cyclic"


SMALL_SWEEP = {
    "sweeps": [{"knots": ["unknot", "3_1", "4_1"], "d": [2, 3], "m": 1, "n": [0, 1]}],
    "max_cosets": 50_000,
}


def test_parallelism_does_not_change_the_bytes():
    serial = batch_json(run_batch({**SMALL_SWEEP, "parallelism": 1}))
    parallel = batch_json(run_batch({**SMALL_SWEEP, "parallelism": 4}))
    assert serial == parallel


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_the_pool_gives_the_serial_bytes_under_each_start_method(tmp_path, method):
    # On Linux the pool forks by default; macOS spawns, and Python 3.14
    # makes forkserver the Linux default.  Workers started either way
    # import rimcert afresh, so they must rebuild each row from the job
    # alone.  A fresh interpreter sets the method before any pool starts.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    code = (
        "import multiprocessing, rimcert.batch\n"
        f"multiprocessing.set_start_method({method!r})\n"
        f"config = {SMALL_SWEEP!r}\n"
        "serial = rimcert.batch.batch_json(rimcert.batch.run_batch(config))\n"
        "pooled = rimcert.batch.run_batch({**config, 'parallelism': 3})\n"
        "print(multiprocessing.get_start_method(), pooled['summary']['total'])\n"
        "print(rimcert.batch.batch_json(pooled) == serial)\n"
    )
    assert _fresh_python(code, tmp_path) == [f"{method} 12", "True"]


def test_the_pool_gets_no_more_workers_than_rows(monkeypatch):
    # Under fork a pool starts all its workers at the first submit, so a
    # wide parallelism on a short config would fork idle processes.  The
    # recording pool maps in this process and starts none.
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = {"specs": [{"knot": "unknot", "d": 2}, {"knot": "3_1", "d": 2, "m": 1}]}
    doc = run_batch({**config, "parallelism": 64})
    assert sizes == [2]
    assert doc == run_batch(config)


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
