"""Verdict reports for single surgery specifications.

A report bundles what was asked, what the enumeration certified, the
classical invariants of the companion knot, and the conclusions those
facts support.  The conclusions block is a pure function of the verdict
status and the invariants block, nothing else; that keeps it cheap to
property-test and keeps batch output stable across processes.
"""

from __future__ import annotations

import time

from .certify import CYCLIC, INCONCLUSIVE, NON_CYCLIC, CyclicityVerdict, certify_cyclic
# braid_closure_diagram is not called here: diagrams are built by
# surgery.base_group.  It stays bound because perfbench/spans.py's
# PROBES rebinds this name in this module and fails if it is missing;
# ROADMAP item 7 (in-package spans) ends that.
from .braids import BraidWord
from .diagrams import braid_closure_diagram
from .enumeration import DEFAULT_MAX_COSETS
from .invariants import alexander_polynomial, knot_determinant, normal_invariant_report
from .laurent import LaurentPolynomial
from .record import Record
from .surgery import SurgerySpec, surgered_group

REPORT_SCHEMA = "rimcert.report/1"
DEFAULT_TIMEOUT = 60.0

# Conclusion texts keyed by verdict status.  The cyclic text is the only
# place the pairwise-homeomorphism claim may appear; tests grep for it.
TOPOLOGICAL_TEXT = {
    CYCLIC: (
        "topologically standard (pairwise homeomorphism); in a simply "
        "connected ambient manifold the surgered surface is topologically "
        "isotopic to the original"
    ),
    NON_CYCLIC: (
        "not certified standard: the exterior group is not cyclic, so the "
        "standardness theorems do not apply"
    ),
    INCONCLUSIVE: (
        "undetermined: enumeration exhausted its limits before certifying "
        "the exterior group either way"
    ),
}

SMOOTHNESS_CAVEAT = "conditional on nontrivial Seiberg-Witten hypothesis"


def invariant_block(braid: BraidWord) -> dict:
    delta = alexander_polynomial(braid)
    nir = normal_invariant_report(delta)
    return {
        "alexander_polynomial": str(delta),
        "alexander_coefficients": delta.to_json(),
        "alexander_trivial": delta == LaurentPolynomial.one(),
        "determinant": knot_determinant(delta),
        "arf": nir.arf,
        "normal_invariant": nir.label,
    }


def conclusions_for(status: str, invariants: dict) -> dict:
    """Conclusions as a pure function of (verdict status, invariants).

    The smooth-knotting flag is simply "Alexander polynomial nontrivial";
    it is meaningful only under the gauge-theoretic hypothesis named in
    the caveat, which is quoted rather than checked.
    """
    if status not in TOPOLOGICAL_TEXT:
        raise ValueError(f"unknown verdict status {status!r}")
    return {
        "topological": TOPOLOGICAL_TEXT[status],
        "smoothly_knotted": not invariants["alexander_trivial"],
        "smoothness_caveat": SMOOTHNESS_CAVEAT,
        "normal_invariant": invariants["normal_invariant"],
    }


class CertificationReport(Record):
    __slots__ = ("spec", "verdict", "group", "invariants", "conclusions", "limits",
                 "elapsed")

    def __init__(self, spec: SurgerySpec, verdict: CyclicityVerdict, group: dict,
                 invariants: dict, conclusions: dict, limits: dict, elapsed: float) -> None:
        self._set(spec, verdict, group, invariants, conclusions, limits, elapsed)

    def to_json(self, timing: bool = True) -> dict:
        doc = {
            "schema": REPORT_SCHEMA,
            "spec": self.spec.to_json(),
            "label": self.spec.label(),
            "verdict": self.verdict.to_json(),
            "group": self.group,
            "invariants": self.invariants,
            "conclusions": self.conclusions,
            "limits": self.limits,
        }
        # Timing is real but nondeterministic; batch rows drop it so sweep
        # output can be compared bytewise.
        if timing:
            doc["timing"] = {"elapsed_seconds": round(self.elapsed, 3)}
        return doc


def certify(
    spec: SurgerySpec,
    max_cosets: int = DEFAULT_MAX_COSETS,
    timeout: float | None = DEFAULT_TIMEOUT,
) -> CertificationReport:
    """Build the surgered group, certify cyclicity, assemble the report."""
    start = time.monotonic()
    group = surgered_group(spec)
    verdict = certify_cyclic(group, spec.d, max_cosets=max_cosets, timeout=timeout)
    # The invariants are the closed companion's, also for an annulus spec,
    # whose own diagram is the band tangle.
    invariants = invariant_block(spec.braid)
    return CertificationReport(
        spec=spec,
        verdict=verdict,
        group={
            "generators": group.ngens,
            "relators": len(group.relators),
            "enumerated_index": verdict.witness.get("meridian_subgroup_index"),
        },
        invariants=invariants,
        conclusions=conclusions_for(verdict.status, invariants),
        limits={"max_cosets": max_cosets, "timeout": timeout},
        elapsed=time.monotonic() - start,
    )


def render_text(report: CertificationReport) -> str:
    v = report.verdict
    lines = [report.spec.label()]
    certified = "certified" if v.certified else "not certified"
    lines.append(f"verdict: {v.status} (expected order {v.order}, {certified})")
    lines.append(f"  {v.justification}")
    if v.witness:
        parts = ", ".join(f"{k}={val}" for k, val in sorted(v.witness.items()))
        lines.append(f"  witness: {parts}")
    g = report.group
    idx = g["enumerated_index"]
    enum = f"; enumerated index {idx}" if idx is not None else ""
    lines.append(
        f"group: {g['generators']} generators, {g['relators']} relators{enum}"
    )
    inv = report.invariants
    lines.append(
        "invariants: alexander polynomial {p}, determinant {d}, arf {a}".format(
            p=inv["alexander_polynomial"], d=inv["determinant"], a=inv["arf"]
        )
    )
    c = report.conclusions
    lines.append("conclusions:")
    lines.append(f"  topological: {c['topological']}")
    flag = "yes" if c["smoothly_knotted"] else "no"
    lines.append(f"  smoothly knotted: {flag} ({c['smoothness_caveat']})")
    lines.append(f"  normal invariant: {c['normal_invariant']}")
    timeout = report.limits["timeout"]
    budget = "no timeout" if timeout is None else f"{timeout:g} s timeout"
    lines.append(f"limits: {report.limits['max_cosets']} cosets, {budget}")
    lines.append(f"elapsed: {report.elapsed:.2f} s")
    return "\n".join(lines)
