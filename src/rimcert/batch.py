"""Sweep runner: many specs in, one deterministic JSON document out.

The config lists explicit specs and/or rectangular sweeps.  Expansion
order is the config order (specs first, sweeps in sequence, knots outer,
then d, m, n), rows come back in exactly that order whatever the
parallelism, and per-row timing is dropped, so two runs of the same
config are byte-identical files.
"""

from __future__ import annotations

import json
import math

from .certify import check_limits
from .diagrams import check_keys, is_integer
from .enumeration import DEFAULT_MAX_COSETS
from .report import DEFAULT_TIMEOUT, certify
from .surgery import KINDS, spec_from_json

BATCH_SCHEMA = "rimcert.batch/1"


def _as_range(value, what: str) -> list[int]:
    """An int means itself; [lo, hi] means the inclusive range."""
    if is_integer(value):
        return [value]
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(is_integer(v) for v in value)
    ):
        lo, hi = value
        if hi < lo:
            raise ValueError(f"{what} range [{lo}, {hi}] is empty")
        return list(range(lo, hi + 1))
    raise ValueError(f"{what} must be an integer or [lo, hi]")


def expand_sweep(sweep: dict) -> list[dict]:
    check_keys(sweep, ("knots", "kind", "coprime", "d", "m", "n"), "sweep")
    knots = sweep.get("knots")
    if not isinstance(knots, list):
        raise ValueError("sweep 'knots' must be a JSON list")
    kind = sweep.get("kind", "rim")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    coprime = sweep.get("coprime", False)
    if not isinstance(coprime, bool):
        raise ValueError("coprime must be true or false")
    ds = _as_range(sweep.get("d", 1), "d")
    ms = _as_range(sweep.get("m", 0), "m")
    ns = _as_range(sweep.get("n", 0), "n")
    out = []
    for knot in knots:
        for d in ds:
            for m in ms:
                if coprime and math.gcd(d, m) != 1:
                    continue
                for n in ns:
                    out.append({"knot": knot, "d": d, "m": m, "n": n, "kind": kind})
    return out


def expand_config(config: dict) -> list[dict]:
    check_keys(config, ("specs", "sweeps", "max_cosets", "timeout", "parallelism"),
               "batch config")
    for key in ("specs", "sweeps"):
        if not isinstance(config.get(key, []), list):
            raise ValueError(f"batch config {key!r} must be a JSON array")
    # Specs reach spec_from_json as they are: a non-object is a row error.
    rows = list(config.get("specs", []))
    for sweep in config.get("sweeps", []):
        rows.extend(expand_sweep(sweep))
    return rows


def _run_row(args: tuple[dict, int, float | None]) -> dict:
    """Module-level so process pools can pickle it; errors stay in the row."""
    doc, max_cosets, timeout = args
    try:
        spec = spec_from_json(doc)
        return certify(spec, max_cosets=max_cosets, timeout=timeout).to_json(
            timing=False
        )
    except Exception as exc:
        return {"schema": BATCH_SCHEMA, "spec": doc, "error": str(exc)}


def _run_isolated(job: tuple[dict, int, float | None]) -> dict:
    """Run one row in a pool of its own; a dead worker becomes a row error."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_run_row, job).result()
        except BrokenProcessPool:
            return {"schema": BATCH_SCHEMA, "spec": job[0],
                    "error": "worker process died"}


def run_batch(config: dict) -> dict:
    """Certify every spec in the config; summary counts every verdict."""
    # Expanding first rejects a config that is not an object, or that has
    # a misspelt key, before any limit is read from it.
    docs = expand_config(config)
    max_cosets = config.get("max_cosets", DEFAULT_MAX_COSETS)
    timeout = config.get("timeout", DEFAULT_TIMEOUT)
    # 0 means no deadline, as `rimcert certify --timeout 0` does; a JSON
    # false is no number and stays an error.
    if type(timeout) in (int, float) and timeout == 0:
        timeout = None
    check_limits(max_cosets, timeout)
    timeout = None if timeout is None else float(timeout)
    parallelism = config.get("parallelism", 1)
    if not (is_integer(parallelism) and parallelism >= 1):
        raise ValueError("parallelism must be an integer >= 1")

    jobs = [(doc, max_cosets, timeout) for doc in docs]
    if parallelism == 1 or len(jobs) <= 1:
        rows = [_run_row(job) for job in jobs]
    else:
        # The pool modules load only here and in _run_isolated, so library
        # imports and serial batches do not pay for them.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # map() preserves submission order, which is the config order.  A
        # worker that dies (out of memory, a signal) breaks the whole pool:
        # the rows with no result yet then run one by one, each in its own
        # pool, so only the row that kills its worker is lost.
        rows = []
        try:
            with ProcessPoolExecutor(max_workers=parallelism) as pool:
                for row in pool.map(_run_row, jobs):
                    rows.append(row)
        except BrokenProcessPool:
            rows += [_run_isolated(job) for job in jobs[len(rows):]]

    summary = {"total": len(rows), "cyclic": 0, "non_cyclic": 0,
               "inconclusive": 0, "error": 0}
    for row in rows:
        if "error" in row:
            summary["error"] += 1
        else:
            summary[row["verdict"]["status"]] += 1

    return {
        "schema": BATCH_SCHEMA,
        "limits": {"max_cosets": max_cosets, "timeout": timeout},
        "rows": rows,
        "summary": summary,
    }


def batch_json(result: dict) -> str:
    """Canonical serialization; fixed key order makes runs comparable."""
    return json.dumps(result, indent=2, sort_keys=True) + "\n"
