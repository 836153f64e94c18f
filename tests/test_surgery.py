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
from rimcert.invariants import tangle_wirtinger, wirtinger
from rimcert.surgery import (
    SurgerySpec,
    named_diagram,
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
    assert rim[0].diagram is rim[1].diagram
    assert annulus[0].diagram is annulus[1].diagram
    assert annulus[0].diagram == band_double(rim[0].diagram, 0)
    # The report's closed companion of an annulus spec is the rim diagram.
    assert named_diagram(annulus[0].knot, "rim") is rim[0].diagram
    # A braid literal is keyed by its text, and builds the same diagram.
    literal = _rim_spec("B3: 1 1 1 2 -1 2", 3)
    assert literal.diagram == rim[0].diagram
    assert literal.diagram is named_diagram("B3: 1 1 1 2 -1 2", "rim")
    # A name that does not resolve is never cached: it raises every time.
    for _ in range(2):
        with pytest.raises(ValueError, match="no_such_knot"):
            spec_from_json({"knot": "no_such_knot", "d": 2})
    # An unknown kind is rejected by the spec, not keyed.
    with pytest.raises(ValueError, match="kind must be one of"):
        spec_from_json({"knot": "5_2", "d": 2, "kind": ["annulus"]})


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
    t = band_double(braid_closure_diagram(resolve_knot("3_1")), 0)
    spec = spec_from_json({"knot": "3_1", "d": 2, "m": 2, "n": 1, "kind": "annulus"})
    base, w, boundary = surgery_recipe(spec)
    a1, a2, a3 = Word(t.a1), Word(t.a2), Word(t.a3)
    assert base == tangle_wirtinger(t)
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
    t = band_double(braid_closure_diagram(resolve_knot("3_1")), 0)
    g = surgered_group(spec)
    assert g.meridian == Word(t.a1) == tangle_wirtinger(t).meridian
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
