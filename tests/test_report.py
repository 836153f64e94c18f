"""Report assembly: invariant blocks, conclusions, JSON, text rendering."""

import hashlib
import itertools
import json

import pytest

from rimcert import (
    CertificationReport,
    certify,
    conclusions_for,
    invariant_block,
    render_text,
    spec_from_json,
)
from rimcert.braids import resolve_knot
from rimcert.diagrams import braid_closure_diagram
from rimcert.report import REPORT_SCHEMA, SMOOTHNESS_CAVEAT, TOPOLOGICAL_TEXT
from rimcert.surgery import named_diagram

STATUSES = ("cyclic", "non_cyclic", "inconclusive")


def _invariant_samples():
    for name in ("unknot", "3_1", "4_1"):
        yield invariant_block(braid_closure_diagram(resolve_knot(name)))


def test_conclusions_pure_and_total():
    for status, inv in itertools.product(STATUSES, _invariant_samples()):
        first = conclusions_for(status, inv)
        again = conclusions_for(status, inv)
        assert first == again
        assert first["topological"] == TOPOLOGICAL_TEXT[status]
        assert first["smoothness_caveat"] == SMOOTHNESS_CAVEAT
        assert first["smoothly_knotted"] == (not inv["alexander_trivial"])
        assert first["normal_invariant"] == inv["normal_invariant"]


def test_pairwise_homeomorphism_claim_only_when_cyclic():
    inv = next(_invariant_samples())
    for status in STATUSES:
        text = conclusions_for(status, inv)["topological"]
        claimed = "pairwise homeomorphism" in text
        assert claimed == (status == "cyclic")
    assert "standardness theorems do not apply" in TOPOLOGICAL_TEXT["non_cyclic"]
    assert "undetermined" in TOPOLOGICAL_TEXT["inconclusive"]


def test_unknown_status_rejected():
    with pytest.raises(ValueError):
        conclusions_for("certified", next(_invariant_samples()))


def test_certified_cyclic_report():
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 1, "n": 0})
    report = certify(spec)
    doc = report.to_json()
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["label"] == "rim(3_1, d=2, m=1, n=0)"
    assert doc["verdict"]["status"] == "cyclic"
    assert doc["verdict"]["certified"] is True
    assert doc["group"]["enumerated_index"] == 1
    inv = doc["invariants"]
    assert inv["alexander_polynomial"] == "t^2-t+1"
    assert inv["alexander_trivial"] is False
    assert inv["determinant"] == 3
    assert inv["arf"] == 1
    assert inv["normal_invariant"] == "1*PD(T')"
    assert doc["conclusions"]["smoothly_knotted"] is True
    assert doc["timing"]["elapsed_seconds"] >= 0


def test_reports_share_no_invariant_block():
    # The Alexander polynomial is cached per companion, but every report
    # builds its own invariants dict, so changing one report's block
    # leaves the next report's alone.
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 1, "n": 0})
    first, second = certify(spec), certify(spec)
    assert first.invariants == second.invariants
    assert first.invariants is not second.invariants
    coeffs = first.invariants["alexander_coefficients"]
    assert coeffs is not second.invariants["alexander_coefficients"]
    coeffs["coeffs"].append(7)
    assert certify(spec).invariants == second.invariants


def test_unknot_is_not_smoothly_knotted():
    report = certify(spec_from_json({"knot": "unknot", "d": 3}))
    assert report.verdict.status == "cyclic"
    assert report.invariants["alexander_trivial"] is True
    assert report.conclusions["smoothly_knotted"] is False
    assert report.conclusions["normal_invariant"] == "0*PD(T')"


def test_inconclusive_report_has_no_enumerated_index():
    spec = spec_from_json({"knot": "4_1", "d": 3, "m": 1, "n": 20})
    report = certify(spec, max_cosets=500)
    assert report.verdict.status == "inconclusive"
    assert report.group["enumerated_index"] is None
    assert "undetermined" in report.conclusions["topological"]
    assert report.limits == {"max_cosets": 500, "timeout": 60.0}


def test_timing_block_is_optional():
    report = certify(spec_from_json({"knot": "unknot", "d": 2}))
    assert "timing" in report.to_json()
    assert "timing" not in report.to_json(timing=False)


def test_companion_of_rim_spec_is_its_own_diagram():
    spec = spec_from_json({"knot": "5_2", "d": 2})
    assert spec.diagram is named_diagram("5_2", "rim")
    assert certify(spec).invariants == invariant_block(spec.diagram)


def test_companion_of_named_annulus_spec_is_the_closure():
    spec = spec_from_json({"knot": "3_1", "d": 2, "kind": "annulus"})
    expected = braid_closure_diagram(resolve_knot("3_1"))
    assert certify(spec).invariants == invariant_block(expected)


def test_render_text_mentions_the_load_bearing_facts():
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 1, "n": 0})
    report = certify(spec, timeout=None)
    text = render_text(report)
    assert "rim(3_1, d=2, m=1, n=0)" in text
    assert "verdict: cyclic" in text
    assert "witness: meridian_subgroup_index=1" in text
    assert "alexander polynomial t^2-t+1" in text
    assert "pairwise homeomorphism" in text
    assert SMOOTHNESS_CAVEAT in text
    assert "no timeout" in text


def test_report_is_a_frozen_record():
    report = certify(spec_from_json({"knot": "unknot", "d": 2}))
    assert isinstance(report, CertificationReport)
    with pytest.raises(AttributeError):
        report.elapsed = 0.0


def _pinned_panel():
    for knot in ("unknot", "3_1", "4_1", "5_1", "5_2"):
        for d, m, n in itertools.product((2, 3), (0, 1, 2), (0, 1)):
            yield {"knot": knot, "d": d, "m": m, "n": n}
    for knot in ("3_1", "4_1"):
        for d, m, n in itertools.product((2, 3), (0, 1), (0, 1)):
            yield {"knot": knot, "d": d, "m": m, "n": n, "kind": "annulus"}
    yield {"knot": "4_1", "d": 5, "m": 1, "n": 4}


# sha256 of the panel's reports at the default limits, frozen from the
# commit before cosets were defined through one routine.  The panel has
# cyclic specs, non-cyclic ones with a group order, and one overflow at
# 100000 cosets, so a change that moves any byte of a report shows here.
REPORTS_DIGEST = "b1227ed95200985245101278adea2dca859f9aa7f512db913eb82c99b4f39acb"


def test_report_bytes_are_pinned():
    docs = [
        certify(spec_from_json(doc), 100_000, 60).to_json(timing=False)
        for doc in _pinned_panel()
    ]
    assert len(docs) == 77
    blob = json.dumps(docs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORTS_DIGEST


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_cosets", True),
        ("max_cosets", 0),
        ("max_cosets", 1e5),
        ("timeout", True),
        ("timeout", 0),
        ("timeout", -1.0),
        ("timeout", float("nan")),
        ("timeout", float("inf")),
    ],
)
def test_library_certify_checks_its_limits(key, value):
    # nan would never time out, inf and nan are not JSON, a bool is no
    # count, and a float budget would be echoed as 100000.0.
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 1})
    with pytest.raises(ValueError, match=key):
        certify(spec, **{key: value})


def test_library_certify_echoes_valid_limits_unconverted():
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 1})
    assert certify(spec, 500, 5).limits == {"max_cosets": 500, "timeout": 5}
    assert certify(spec, timeout=None).limits["timeout"] is None
