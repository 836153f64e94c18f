"""Freeze the verdict table and the workload pools into pool.json.

Run once, at the commit whose verdicts become the reference, from the
root of a checkout:

    python3 perfbench/freeze.py

Every spec of the proposition sweep (knots 3_1, 4_1, 5_1, 5_2; d in 2..5;
m in 1..5 coprime to d; n in 0..5) runs at the CLI default limits.  A wider
grid (rim surgery with m = 0 or m not coprime to d; annulus surgery with m
and n in 0..3) is screened with a 1 s timeout instead: a verdict certified
before the timeout fires is the verdict at the default limits, because
enumeration is deterministic, and a spec that needs longer is too slow for
the decided pool anyway.  Two worker processes share the specs; the
per-spec times recorded are those of this two-process run.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from verdicts import POOL_PATH, overflow_reasons, spec_key  # noqa: E402

KNOTS = ("3_1", "4_1", "5_1", "5_2")
LIMITS = {"max_cosets": 100_000, "timeout": 60.0}
SCREEN_TIMEOUT = 1.0
DECIDED_MS_MAX = 50.0
# 5_2 d=4 m=3 n=1 (group order 48576) takes over 6 s, 60% of a pass over
# all 22 non-cyclic specs; without it a run holds several passes.
FINITE_MS_MAX = 2000.0
# The batch slice, in sweep order: a head the seed picks, one row of each
# verdict class with the inconclusive row taking about 5 s, then every 5_1
# row.  Those rows run on the other worker while the inconclusive row runs,
# so row latencies are sampled over most of a pass.
BATCH_HEADS = [
    {"knots": ["4_1"], "d": 4, "m": m, "n": [0, 2], "coprime": True} for m in (1, 3, 5)
]
BATCH_REST = {"knots": ["5_1"], "d": [2, 5], "m": [1, 5], "n": [0, 5], "coprime": True}


def sweep_docs() -> list[dict]:
    return [
        {"knot": k, "d": d, "m": m, "n": n, "kind": "rim"}
        for k in KNOTS for d in range(2, 6) for m in range(1, 6)
        if math.gcd(d, m) == 1 for n in range(6)
    ]


def wide_docs() -> list[dict]:
    rim = [
        {"knot": k, "d": d, "m": m, "n": n, "kind": "rim"}
        for k in KNOTS for d in range(2, 6) for m in range(6)
        if m == 0 or math.gcd(d, m) != 1 for n in range(6)
    ]
    annulus = [
        {"knot": k, "d": d, "m": m, "n": n, "kind": "annulus"}
        for k in KNOTS for d in range(2, 6) for m in range(4) for n in range(4)
    ]
    return rim + annulus


def measure(job: tuple[dict, float]) -> dict:
    from rimcert.report import certify
    from rimcert.surgery import spec_from_json

    doc, timeout = job
    spec = spec_from_json(doc)
    start = time.perf_counter()
    verdict = certify(spec, LIMITS["max_cosets"], timeout).verdict.to_json()
    ms = (time.perf_counter() - start) * 1000
    return {
        "spec": doc,
        "status": verdict["status"],
        "witness": verdict["witness"],
        "stage": verdict["certificate"]["stage"],
        "reasons": overflow_reasons(verdict),
        "ms": round(ms, 3),
    }


def batch_sha256(head: dict) -> str:
    from rimcert.batch import batch_json, run_batch

    config = {"sweeps": [head, BATCH_REST], **LIMITS, "parallelism": 1}
    return hashlib.sha256(batch_json(run_batch(config)).encode()).hexdigest()


def main() -> None:
    jobs = [(doc, LIMITS["timeout"]) for doc in sweep_docs()]
    jobs += [(doc, SCREEN_TIMEOUT) for doc in wide_docs()]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        measured = list(pool.map(measure, jobs))

    verdicts = {}
    for (doc, timeout), entry in zip(jobs, measured):
        # A screened spec is frozen only if it was decided far inside the
        # screen's timeout, so the timeout cannot have shaped its verdict.
        screened = timeout == SCREEN_TIMEOUT
        if screened and (entry["status"] == "inconclusive" or entry["ms"] > DECIDED_MS_MAX):
            continue
        verdicts[spec_key(doc)] = entry

    sweep = [spec_key(doc) for doc in sweep_docs()]
    pools = {
        "decided_sweep": sorted(
            key for key, e in verdicts.items()
            if e["status"] != "inconclusive" and e["ms"] <= DECIDED_MS_MAX
            and not (key in sweep and e["status"] == "non_cyclic")
        ),
        "finite_noncyclic": [
            k for k in sweep
            if verdicts[k]["status"] == "non_cyclic" and verdicts[k]["ms"] <= FINITE_MS_MAX
        ],
        "overflow": [k for k in sweep if verdicts[k]["status"] == "inconclusive"],
    }
    doc = {
        "limits": LIMITS,
        "decided_ms_max": DECIDED_MS_MAX,
        "finite_ms_max": FINITE_MS_MAX,
        "verdicts": verdicts,
        "pools": pools,
        "batch": {
            "heads": BATCH_HEADS,
            "rest": BATCH_REST,
            "seed_sha256": [batch_sha256(head) for head in BATCH_HEADS],
        },
    }
    with open(POOL_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print({name: len(keys) for name, keys in pools.items()})


if __name__ == "__main__":
    main()
