import json
import math
import random
from pathlib import Path

import pytest

from rimcert.abelian import abelian_invariants
from rimcert.certify import certify_cyclic
from rimcert.braids import resolve_knot
from rimcert.diagrams import band_double, braid_closure_diagram
from rimcert.enumeration import todd_coxeter
from rimcert.groups import GroupPresentation, Word
from rimcert.invariants import wirtinger
from rimcert.report import certify
from rimcert.surgery import (
    SurgerySpec,
    base_group,
    plotnick_matrix,
    spec_from_json,
    surgered_group,
    surgery_recipe,
)

from covers import meridian_kernel_words, unbranched_cover_group
from oracles import artin_rim_group

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"


def _rim_spec(knot, d, m=0, n=0):
    return spec_from_json({"knot": knot, "d": d, "m": m, "n": n})


# -- the standard-ambient regluing ---------------------------------------------


def test_plotnick_matrices_on_random_coprime_pairs():
    rng = random.Random(71)
    count = 0
    while count < 100:
        d = rng.randint(1, 1000)
        m = rng.randint(1, 1000)
        if math.gcd(d, m) != 1:
            continue
        count += 1
        pm = plotnick_matrix(d, m)
        assert pm.determinant() == 1
        assert d * pm.complement + m * pm.inverse_residue == 1
        assert 0 <= pm.inverse_residue < max(d, 1)


def test_plotnick_rejects_non_coprime():
    with pytest.raises(ValueError):
        plotnick_matrix(4, 2)
    with pytest.raises(ValueError):
        plotnick_matrix(0, 1)


# -- specs ---------------------------------------------------------------------


def test_spec_parsing_and_labels():
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 1, "n": 4})
    assert spec.label() == "rim(3_1, d=2, m=1, n=4)"
    assert spec.to_json()["knot"] == "3_1"
    spec = spec_from_json({"knot": "3_1", "d": 2, "kind": "annulus"})
    assert spec.kind == "annulus"
    assert spec.label().startswith("annulus(3_1")


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_from_json({"knot": "3_1"})
    with pytest.raises(ValueError):
        spec_from_json({"knot": "3_1", "d": 0})
    with pytest.raises(ValueError):
        spec_from_json({"knot": "3_1", "d": 2, "kind": "ribbon"})
    with pytest.raises(ValueError):
        spec_from_json({"knot": "3_1", "d": 2, "m": -1})
    # Counts are JSON integers, as in batch sweeps: no bool, float or string
    # is coerced into a different spec.
    for key, value in [("d", 2.9), ("d", True), ("m", True), ("m", 1.0),
                       ("n", "1"), ("n", None)]:
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            spec_from_json({"knot": "3_1", "d": 2, key: value})
    # The constructor checks them the same way, so a bool is not certified
    # as a count and a float does not fail late in a word power.
    for key, value in [("d", True), ("d", 2.0), ("m", True), ("m", 1.0),
                       ("n", False), ("n", 1.5)]:
        counts = {"d": 2, "m": 1, "n": 0, key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            SurgerySpec("3_1", **counts)
    # A companion is named by table name or braid literal, never given as
    # a diagram.
    for kind in ("rim", "annulus"):
        with pytest.raises(ValueError, match="'knot' must be a table name"):
            SurgerySpec(knot=braid_closure_diagram(resolve_knot("3_1")), d=2,
                        kind=kind)


# -- surgered groups -----------------------------------------------------------


def test_named_companions_are_built_once_per_process():
    rim = [_rim_spec("5_2", d, m=1, n=n) for d, n in ((3, 1), (5, 2))]
    annulus = [spec_from_json({"knot": "5_2", "d": d, "kind": "annulus"}) for d in (3, 4)]
    # Every spec holds its companion's braid, whatever its kind; the group
    # a kind cuts along is built from it once per process.
    assert all(spec.braid is resolve_knot("5_2") for spec in rim + annulus)
    assert base_group(rim[0].braid, "rim") is base_group(rim[1].braid, "rim")
    band = base_group(annulus[0].braid, "annulus")
    assert band is base_group(annulus[1].braid, "annulus")
    assert band[0] == wirtinger(band_double(rim[0].braid, 0))
    # A braid literal resolves to an equal braid, so it hits the same entry.
    literal = _rim_spec("B3: 1 1 1 2 -1 2", 3)
    assert literal.braid == rim[0].braid
    assert base_group(literal.braid, "rim") is base_group(rim[0].braid, "rim")
    # A name that does not resolve is never cached: it raises every time.
    for _ in range(2):
        with pytest.raises(ValueError, match="no_such_knot"):
            spec_from_json({"knot": "no_such_knot", "d": 2})
    # An unknown kind is rejected by the spec, not keyed.
    with pytest.raises(ValueError, match="kind must be one of"):
        spec_from_json({"knot": "5_2", "d": 2, "kind": ["annulus"]})


def test_shared_base_group_is_never_altered():
    # Specs on one companion and kind share one cached base group: certifying
    # another spec on it must leave the first spec's report as it was.
    for kind in ("rim", "annulus"):
        a = spec_from_json({"knot": "3_1", "d": 2, "m": 1, "kind": kind})
        b = spec_from_json({"knot": "3_1", "d": 3, "m": 2, "n": 1, "kind": kind})

        def report_bytes(spec):
            return json.dumps(certify(spec).to_json(timing=False), sort_keys=True)

        first = report_bytes(a)
        report_bytes(b)
        assert report_bytes(a) == first
        assert base_group(a.braid, kind) == base_group.__wrapped__(a.braid, kind)


def test_annulus_core_is_the_difference_loop_of_the_strands():
    # The core loop is a1 * a2^-1: a1 on strand 1's first arc, a2 on strand
    # 2's last, read off the band double at framing 0.
    for name in ("unknot", "3_1", "4_1", "5_2"):
        braid = resolve_knot(name)
        strand1, strand2 = band_double(braid, 0).strands
        base, core = base_group(braid, "annulus")
        assert base.meridian == Word.gen(strand1[0])
        assert core == Word.gen(strand1[0]) * Word.gen(strand2[-1]).inverse()


def test_conjugator_word():
    p = wirtinger(braid_closure_diagram(resolve_knot("3_1")))
    base, w, boundary = surgery_recipe(_rim_spec("3_1", 2, m=2))
    assert base == p
    assert w == p.meridian**2
    assert boundary == [p.meridian**2]
    assert surgery_recipe(_rim_spec("3_1", 2))[1].is_identity()
    assert surgery_recipe(_rim_spec("3_1", 2, n=3))[1] == p.longitude**3
    # The annulus twist runs around the band's core circle, whose meridian
    # is the difference loop a3, not the surface meridian a1.
    t = band_double(resolve_knot("3_1"), 0)
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 2, "n": 1, "kind": "annulus"})
    base, w, boundary = surgery_recipe(spec)
    strand1, strand2 = t.strands
    a1, a2 = Word.gen(strand1[0]), Word.gen(strand2[-1])
    a3 = a1 * a2.inverse()
    assert base == wirtinger(t)
    assert w == base.longitude * a3**2
    assert boundary == [a1**2, a3, a1 * a2.inverse()]


def test_rim_group_h1_is_z_mod_d():
    for knot in ("unknot", "3_1", "4_1", "5_2"):
        for d in (1, 2, 3, 5):
            g = surgered_group(_rim_spec(knot, d, m=1, n=1))
            inv = abelian_invariants(g)
            assert inv.is_cyclic_of_order(d)


def test_rim_group_relator_budget():
    # crossing relators + meridian power + one commutator per generator
    spec = _rim_spec("4_1", 2, m=1, n=1)
    base = wirtinger(braid_closure_diagram(resolve_knot("4_1")))
    g = surgered_group(spec)
    assert g.ngens == base.ngens
    assert len(g.relators) == len(base.relators) + 1 + base.ngens


def test_rim_group_trivial_conjugator_has_no_commutators():
    spec = _rim_spec("4_1", 2, m=0, n=0)
    base = wirtinger(braid_closure_diagram(resolve_knot("4_1")))
    g = surgered_group(spec)
    assert len(g.relators) == len(base.relators) + 1


def test_annulus_group_h1_is_z_mod_d():
    for knot in ("3_1", "4_1"):
        for d in (1, 2, 3):
            spec = spec_from_json(
                {"knot": knot, "d": d, "m": 1, "n": 1, "kind": "annulus"}
            )
            inv = abelian_invariants(surgered_group(spec))
            assert inv.is_cyclic_of_order(d)


def test_annulus_meridian_is_rebadged():
    # The surgered group keeps the tangle group's mark, the surface
    # meridian a1, not the a3 difference loop that the twist runs around.
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 1, "kind": "annulus"})
    t = band_double(resolve_knot("3_1"), 0)
    g = surgered_group(spec)
    assert g.meridian == Word.gen(t.strands[0][0]) == wirtinger(t).meridian
    assert g.meridian.length() == 1
    assert g.ngens == t.n_arcs


def test_rim_group_matches_the_artin_construction_on_decided_pool_specs():
    # An independent construction from the braid's Artin action, sharing
    # no code with the diagrams or the Wirtinger walk, gives the same
    # meridian index on every rim spec the frozen pool decides.
    verdicts = json.loads(POOL.read_text())["verdicts"].values()
    docs = [v["spec"] for v in verdicts
            if v["spec"]["kind"] == "rim" and v["status"] != "inconclusive"]
    assert len(docs) == 395
    differ = []
    for doc in docs:
        braid = resolve_knot(doc["knot"])
        ngens, relators = artin_rim_group(
            braid.strands, braid.letters, doc["d"], doc["m"], doc["n"]
        )
        oracle = GroupPresentation(ngens, tuple(Word(r) for r in relators))
        expected = todd_coxeter(oracle, [Word.gen(0)], 100000)
        got = certify_cyclic(surgered_group(spec_from_json(doc)), doc["d"], 100000)
        index = got.witness.get("meridian_subgroup_index")
        if not expected.complete or index != expected.index:
            differ.append(doc)
    assert not differ


def test_d_equals_one_gives_trivial_group():
    for kind in ("rim", "annulus"):
        spec = spec_from_json({"knot": "3_1", "d": 1, "m": 1, "n": 2, "kind": kind})
        r = todd_coxeter(surgered_group(spec), [])
        assert r.complete and r.index == 1


# -- covers ----------------------------------------------------------------------


def test_meridian_kernel_words_shape():
    words = meridian_kernel_words(0, 4, 3)
    # (ngens-1) per transversal slot plus the closing power
    assert len(words) == 3 * 3 + 1
    assert words[-1] == Word.gen(0) ** 3
    # all arc generators are conjugate meridians, so membership in the
    # mod-3 kernel is total exponent sum divisible by 3
    for w in words:
        assert w.exponent_sum() % 3 == 0


def test_unbranched_cover_detects_cyclic_cases():
    # cyclic surgered group <=> trivial cover group
    cyc = _rim_spec("3_1", 2, m=1, n=0)
    cover = unbranched_cover_group(cyc)
    r = todd_coxeter(cover, [])
    assert r.complete and r.index == 1

    non = _rim_spec("3_1", 2, m=0, n=0)  # S3 complement group, kernel Z/3
    cover = unbranched_cover_group(non)
    r = todd_coxeter(cover, [])
    assert r.complete and r.index == 3


def test_cover_requires_rim_kind():
    spec = spec_from_json({"knot": "3_1", "d": 2, "kind": "annulus"})
    with pytest.raises(ValueError):
        unbranched_cover_group(spec)
