"""The frozen verdict table and the rule that checks a verdict against it.

``pool.json`` holds, for every spec a workload may draw, the outcome the
reference commit produced at the CLI default limits: status, witness,
certificate stage, the overflow reasons of an inconclusive verdict, and
the time it took (used only to stratify samples by cost).
"""

from __future__ import annotations

import json
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"


def spec_key(doc: dict) -> str:
    return "{kind} {knot} d={d} m={m} n={n}".format(
        kind=doc.get("kind", "rim"), knot=doc["knot"], d=doc["d"],
        m=doc.get("m", 0), n=doc.get("n", 0),
    )


def load_pool(path: Path = POOL_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def overflow_reasons(verdict: dict) -> list[str]:
    cert = verdict["certificate"]
    return [
        cert[k]["reason"]
        for k in ("meridian_enumeration", "order_enumeration")
        if k in cert and cert[k]["reason"] is not None
    ]


def check(frozen: dict, verdict: dict) -> tuple[bool, str | None]:
    """Return (certified, failure) for a verdict of a frozen spec.

    A failure is a certified verdict whose status differs from the frozen
    one, a certified verdict that drops or changes a frozen witness value,
    or an overflow on the timeout, which would make the verdict depend on
    machine speed.  An inconclusive spec that is now certified is allowed.
    """
    status = verdict["status"]
    if "timeout" in overflow_reasons(verdict):
        return False, "an enumeration overflowed on its timeout"
    if status == "inconclusive":
        return False, None
    if frozen["status"] == "inconclusive":
        return True, None
    if status != frozen["status"]:
        return True, f"status {status}, frozen {frozen['status']}"
    for key, value in frozen["witness"].items():
        if verdict["witness"].get(key) != value:
            return True, (
                f"witness {key}={verdict['witness'].get(key)}, frozen {value}"
            )
    return True, None
