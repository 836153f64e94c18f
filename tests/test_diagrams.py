import pytest

from rimcert.braids import parse_braid, resolve_knot
from rimcert.diagrams import (
    Crossing,
    KnotDiagram,
    TangleDiagram,
    band_double,
    braid_closure_diagram,
)
from rimcert.surgery import spec_from_json

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
    # back to itself.
    hopf = KnotDiagram(
        crossings=(Crossing(1, 0, 0, 1), Crossing(0, 1, 1, 1)),
        n_arcs=2,
        writhe=2,
    )
    with pytest.raises(ValueError, match="traversal order"):
        hopf.validate()


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
    "loop, slot, value, message",
    [
        # Sign 0 made the meridian the identity and sign 5 its fifth
        # power; both raw tangles were certified as surgery specs.
        ("a1", 1, 0, "signs"),
        ("a1", 1, 5, "signs"),
        ("a3", 1, 2, "signs"),
        ("a2", 0, -1, "unknown arc"),
        ("a3", 0, 10**6, "unknown arc"),
    ],
    ids=["a1-sign-0", "a1-sign-5", "a3-sign-2", "a2-arc-negative", "a3-arc-too-big"],
)
def test_tangle_boundary_loops_need_unit_signs_and_known_arcs(
    loop, slot, value, message
):
    doc = band_double(braid_closure_diagram(resolve_knot("3_1")), 0).to_json()
    pairs = [list(p) for p in doc[loop]]
    pairs[0][slot] = value
    bad = dict(doc, **{loop: pairs})
    with pytest.raises(ValueError, match=message):
        spec_from_json({"knot": bad, "d": 3, "m": 1, "kind": "annulus"})
