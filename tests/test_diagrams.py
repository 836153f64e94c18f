import hashlib
import json
import random

import pytest

from rimcert.braids import BraidWord, parse_braid, resolve_knot
from rimcert.diagrams import (
    Crossing,
    KnotDiagram,
    TangleDiagram,
    band_double,
    braid_closure_diagram,
)
from rimcert.report import certify
from rimcert.surgery import SurgerySpec, spec_from_json

TABLE_KNOTS = ("unknot", "3_1", "4_1", "5_1", "5_2")


def test_crossing_sign_validation():
    with pytest.raises(ValueError):
        Crossing(0, 0, 1, 2)


def test_unknot_closure_has_no_crossings():
    d = braid_closure_diagram(parse_braid("B1:"))
    d.validate()
    assert d.n_arcs == 1 and not d.crossings and d.writhe == 0


def test_closure_rejects_links():
    from rimcert.braids import BraidWord

    with pytest.raises(ValueError):
        braid_closure_diagram(BraidWord(2, (1, 1)))


def test_trefoil_closure_structure():
    d = braid_closure_diagram(resolve_knot("3_1"))
    d.validate()
    assert len(d.crossings) == 3 and d.n_arcs == 3
    assert d.writhe == 3
    assert all(c.sign == 1 for c in d.crossings)


def test_closures_of_all_table_knots_validate():
    for name in TABLE_KNOTS:
        d = braid_closure_diagram(resolve_knot(name))
        d.validate()
        assert d.n_arcs == max(1, len(d.crossings))


def test_diagram_json_round_trip():
    for name in TABLE_KNOTS:
        d = braid_closure_diagram(resolve_knot(name))
        assert KnotDiagram.from_json(d.to_json()) == d


def test_diagrams_given_lists_store_tuples_and_certify():
    # A knot built with a list of crossings used to pass validate() and
    # then fail certify with "unhashable type: 'list'" in the cached
    # Alexander polynomial.
    knot = braid_closure_diagram(resolve_knot("3_1"))
    listed = KnotDiagram(list(knot.crossings), knot.n_arcs, knot.writhe, knot.braid)
    assert listed == knot and hash(listed) == hash(knot)
    assert certify(SurgerySpec(knot=listed, d=2, m=1)).verdict.status == "cyclic"
    band = band_double(knot, 0)
    listed_band = TangleDiagram(
        list(band.crossings), band.n_arcs, list(band.strand1),
        list(band.strand2), band.source_writhe,
    )
    assert listed_band == band and hash(listed_band) == hash(band)
    spec = SurgerySpec(knot=listed_band, d=3, m=1, n=1, kind="annulus")
    assert certify(spec).verdict.status == "cyclic"


def test_knot_diagram_arcs_must_follow_the_traversal():
    # Swapping arcs 1 and 2 of the trefoil still has every arc end and
    # start one underpass, but the longitude would read the underpasses
    # out of order: this spec was certified cyclic, while the named
    # trefoil spec is non-cyclic of order 600.
    doc = braid_closure_diagram(resolve_knot("3_1")).to_json()
    swap = {1: 2, 2: 1}
    for c in doc["crossings"]:
        for key in ("over", "under_in", "under_out"):
            c[key] = swap.get(c[key], c[key])
    with pytest.raises(ValueError, match="traversal order"):
        spec_from_json({"knot": doc, "d": 5, "m": 1, "n": 4})
    # A Hopf link: each one-arc component dives under the other and comes
    # back to itself.  A diagram is checked when it is made.
    with pytest.raises(ValueError, match="traversal order"):
        KnotDiagram(
            crossings=(Crossing(1, 0, 0, 1), Crossing(0, 1, 1, 1)),
            n_arcs=2,
            writhe=2,
        )


def test_band_double_counts():
    src = braid_closure_diagram(resolve_knot("3_1"))
    t = band_double(src, 0)
    t.validate()
    # four crossings per source crossing plus two per clasp twist
    clasps = abs(0 - src.writhe)
    assert len(t.crossings) == 4 * len(src.crossings) + 2 * clasps
    assert len(t.strand1) + len(t.strand2) == t.n_arcs


def test_band_double_framing_changes_clasps():
    src = braid_closure_diagram(resolve_knot("4_1"))  # writhe 0
    assert len(band_double(src, 2).crossings) - len(
        band_double(src, 0).crossings
    ) == 4


def test_band_double_of_unknot():
    src = braid_closure_diagram(parse_braid("B1:"))
    t = band_double(src, 0)
    t.validate()


def test_tangle_json_round_trip():
    t = band_double(braid_closure_diagram(resolve_knot("3_1")), 0)
    assert TangleDiagram.from_json(t.to_json()) == t


def test_tangle_boundary_loops_shape():
    t = band_double(braid_closure_diagram(resolve_knot("5_2")), 0)
    assert len(t.a1) == 1 and len(t.a2) == 1 and len(t.a3) == 2


@pytest.mark.parametrize(
    "loop, slot, value",
    [
        # Sign 0 made the meridian the identity and sign 5 its fifth
        # power; both raw tangles were certified as surgery specs.
        ("a1", 1, 0),
        ("a1", 1, 5),
        ("a3", 1, 2),
        ("a2", 0, -1),
        ("a3", 0, 10**6),
    ],
    ids=["a1-sign-0", "a1-sign-5", "a3-sign-2", "a2-arc-negative", "a3-arc-too-big"],
)
def test_tangle_boundary_loops_need_unit_signs_and_known_arcs(loop, slot, value):
    doc = band_double(braid_closure_diagram(resolve_knot("3_1")), 0).to_json()
    pairs = [list(p) for p in doc[loop]]
    pairs[0][slot] = value
    bad = dict(doc, **{loop: pairs})
    with pytest.raises(ValueError, match=f"boundary loop {loop} must be"):
        spec_from_json({"knot": bad, "d": 3, "m": 1, "kind": "annulus"})


def test_tangle_boundary_loops_sit_at_the_shared_end():
    # Unit signs on known arcs, but a1 on strand 2's last arc and a3 on
    # strand 2's first: this raw tangle was certified non_cyclic at the
    # abelianization (Z + Z/3), while the band of the trefoil has H1 = Z/3.
    doc = band_double(braid_closure_diagram(resolve_knot("3_1")), 0).to_json()
    assert (doc["strand1"][0], doc["strand2"][0], doc["strand2"][-1]) == (0, 10, 19)
    bad = dict(doc, a1=[[19, 1]], a2=[[19, 1]], a3=[[10, 1], [19, -1]])
    with pytest.raises(ValueError, match="boundary loop a1 must be"):
        spec_from_json({"knot": bad, "d": 3, "m": 1, "kind": "annulus"})
    # The loops are derived from the strands, so a document may leave them out.
    lean = {k: v for k, v in doc.items() if k not in ("a1", "a2", "a3")}
    assert TangleDiagram.from_json(lean) == TangleDiagram.from_json(doc)


def test_tangle_crossings_all_sit_on_the_strands():
    # A crossing where strand 1 ends adds a relator that no arc of the
    # band accounts for; this raw tangle was certified cyclic.
    doc = band_double(braid_closure_diagram(resolve_knot("3_1")), 0).to_json()
    doc["crossings"].append({"over": 0, "under_in": 9, "under_out": 10, "sign": 1})
    with pytest.raises(ValueError, match="two more arcs than crossings"):
        spec_from_json({"knot": doc, "d": 3, "m": 1, "kind": "annulus"})


@pytest.mark.parametrize("kind", ["rim", "annulus"])
@pytest.mark.parametrize("past_end", [False, True], ids=["negative", "n_arcs"])
def test_over_arcs_must_be_known_arcs(kind, past_end):
    # A tangle took any over arc: one past its last arc failed certify with
    # a relator on a generator outside the group, and -1 with a negative
    # generator index.
    knot = braid_closure_diagram(resolve_knot("3_1"))
    doc = (band_double(knot, 0) if kind == "annulus" else knot).to_json()
    doc["crossings"][0]["over"] = doc["arcs"] if past_end else -1
    with pytest.raises(ValueError, match="crossing references an unknown over arc"):
        spec_from_json({"knot": doc, "d": 3, "m": 1, "kind": kind})


@pytest.mark.parametrize(
    "kind, path, value",
    [
        # A float over arc failed late in the relator's XOR, a float sign
        # in a sequence product; a float strand was certified cyclic.
        ("rim", ("crossings", 0, "over"), 1.0),
        ("rim", ("crossings", 1, "sign"), 1.0),
        ("rim", ("crossings", 2, "under_in"), True),
        ("rim", ("arcs",), "3"),
        ("rim", ("writhe",), 3.0),
        ("annulus", ("crossings", 0, "under_out"), 1.0),
        ("annulus", ("strand1", 0), 0.0),
        ("annulus", ("strand2",), "10"),
        ("annulus", ("source_writhe",), 3.0),
    ],
    ids=["over", "sign", "under_in", "arcs", "writhe", "under_out", "strand1",
         "strand2", "source_writhe"],
)
def test_diagram_json_takes_only_json_integers(kind, path, value):
    knot = braid_closure_diagram(resolve_knot("3_1"))
    doc = (band_double(knot, 0) if kind == "annulus" else knot).to_json()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    field = [key for key in path if isinstance(key, str)][-1]
    with pytest.raises(ValueError, match=f"diagram field '{field}' must be"):
        spec_from_json({"knot": doc, "d": 3, "m": 1, "kind": kind})


def _random_knot_braids(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 10))
        )
        braid = BraidWord(strands, letters)
        if braid.is_knot():
            out.append(braid)
    return out


# sha256 of the builders' JSON below, frozen from the commit before the
# closure and the band doubling shared one strand walk.
BUILDERS_DIGEST = "f8d1cc794c4f718c17ad1f823d68dc1ff92ee004d9e4da1ea7f5ed3a30d69008"


def test_diagram_builders_are_pinned():
    # The closure half also has the Artin oracle of test_surgery_properties;
    # the band half has no independent oracle, so its bytes are pinned.
    braids = [resolve_knot(name) for name in TABLE_KNOTS]
    braids += _random_knot_braids(1717, 200)
    docs = []
    for braid in braids:
        knot = braid_closure_diagram(braid)
        bands = [band_double(knot, f).to_json() for f in (-2, 0, 3)]
        docs.append([knot.to_json()] + bands)
    blob = json.dumps(docs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BUILDERS_DIGEST
