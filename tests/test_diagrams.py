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
from rimcert.invariants import alexander_polynomial, tangle_wirtinger

from oracles import knot_diagram_json, tangle_diagram_json

TABLE_KNOTS = ("unknot", "3_1", "4_1", "5_1", "5_2")


def test_crossing_sign_validation():
    with pytest.raises(ValueError):
        Crossing(0, 0, 1, 2)


def test_unknot_closure_has_no_crossings():
    d = braid_closure_diagram(parse_braid("B1:"))
    d.validate()
    assert d.n_arcs == 1 and not d.crossings and d.writhe == 0


def test_a_crossingless_diagram_has_writhe_zero():
    # A crossingless diagram once took any stored writhe and echoed it.
    for writhe in (5, -3):
        with pytest.raises(ValueError, match="writhe"):
            KnotDiagram((), 1, writhe)


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


def test_diagrams_given_lists_store_tuples_and_certify():
    # A knot built with a list of crossings used to pass validate() and
    # then fail certify with "unhashable type: 'list'" in the cached
    # Alexander polynomial.
    knot = braid_closure_diagram(resolve_knot("3_1"))
    listed = KnotDiagram(list(knot.crossings), knot.n_arcs, knot.writhe, knot.braid)
    assert listed == knot and hash(listed) == hash(knot)
    assert alexander_polynomial(listed) == alexander_polynomial(knot)
    band = band_double(knot, 0)
    listed_band = TangleDiagram(
        list(band.crossings), band.n_arcs, list(band.strand1), list(band.strand2),
    )
    assert listed_band == band and hash(listed_band) == hash(band)
    assert tangle_wirtinger(listed_band) == tangle_wirtinger(band)


def test_knot_diagram_arcs_must_follow_the_traversal():
    # Swapping arcs 1 and 2 of the trefoil still has every arc end and
    # start one underpass, but the longitude would read the underpasses
    # out of order: as a spec this was certified cyclic, while the named
    # trefoil spec is non-cyclic of order 600.
    knot = braid_closure_diagram(resolve_knot("3_1"))
    swap = {1: 2, 2: 1}.get
    swapped = [
        Crossing(swap(x.over, x.over), swap(x.under_in, x.under_in),
                 swap(x.under_out, x.under_out), x.sign)
        for x in knot.crossings
    ]
    with pytest.raises(ValueError, match="traversal order"):
        KnotDiagram(swapped, knot.n_arcs, knot.writhe)
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


def test_tangle_boundary_loops_shape():
    t = band_double(braid_closure_diagram(resolve_knot("5_2")), 0)
    assert len(t.a1) == 1 and len(t.a2) == 1 and len(t.a3) == 2


def test_tangle_boundary_loops_sit_at_the_shared_end():
    # The loops are derived from the strands: a1 on strand 1's first arc,
    # a2 on strand 2's last, where strand 1 starts, and a3 = a1 * a2^-1.
    t = band_double(braid_closure_diagram(resolve_knot("3_1")), 0)
    assert (t.strand1[0], t.strand2[0], t.strand2[-1]) == (0, 10, 19)
    assert (t.a1, t.a2, t.a3) == (((0, 1),), ((19, 1),), ((0, 1), (19, -1)))


def _tangle(band, **changes):
    fields = {"crossings": band.crossings, "n_arcs": band.n_arcs,
              "strand1": band.strand1, "strand2": band.strand2}
    return TangleDiagram(**{**fields, **changes})


def test_tangle_crossings_all_sit_on_the_strands():
    # A crossing where strand 1 ends adds a relator that no arc of the
    # band accounts for; as a spec this tangle was certified cyclic.
    band = band_double(braid_closure_diagram(resolve_knot("3_1")), 0)
    extra = band.crossings + (Crossing(0, 9, 10, 1),)
    with pytest.raises(ValueError, match="two more arcs than crossings"):
        _tangle(band, crossings=extra)
    # Strand arcs follow one another through underpasses.
    s1 = band.strand1
    with pytest.raises(ValueError, match="not chained by underpasses"):
        _tangle(band, strand1=(s1[0], s1[2], s1[1]) + s1[3:])


@pytest.mark.parametrize("kind", ["rim", "annulus"])
@pytest.mark.parametrize("past_end", [False, True], ids=["negative", "n_arcs"])
def test_over_arcs_must_be_known_arcs(kind, past_end):
    # A tangle took any over arc: one past its last arc failed certify with
    # a relator on a generator outside the group, and -1 with a negative
    # generator index.
    knot = braid_closure_diagram(resolve_knot("3_1"))
    diagram = band_double(knot, 0) if kind == "annulus" else knot
    first, *rest = diagram.crossings
    bad = (Crossing(diagram.n_arcs if past_end else -1, first.under_in,
                    first.under_out, first.sign), *rest)
    with pytest.raises(ValueError, match="crossing references an unknown over arc"):
        if kind == "annulus":
            _tangle(diagram, crossings=bad)
        else:
            KnotDiagram(bad, knot.n_arcs, knot.writhe, knot.braid)


_TREFOIL = braid_closure_diagram(resolve_knot("3_1"))
_BAND = band_double(_TREFOIL, 0)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: KnotDiagram((), 2, 0), "a crossingless knot diagram has exactly one arc"),
        (lambda: KnotDiagram(_TREFOIL.crossings, 4, 3), "as many arcs as crossings"),
        (lambda: KnotDiagram((_TREFOIL.crossings[0], Crossing(2, 1, 2, 1),
                              _TREFOIL.crossings[2]), 3, 3),
         "each arc must end exactly one underpass"),
        (lambda: _tangle(_BAND, strand1=_BAND.strand1[:-1]), "partition the arcs"),
        (lambda: _tangle(_BAND, crossings=(Crossing(19, 3, 3, -1),) + _BAND.crossings[1:]),
         "an arc ends at more than one underpass"),
        (lambda: band_double(KnotDiagram(_TREFOIL.crossings, 3, 3), 0),
         "needs a diagram built from a braid word"),
    ],
    ids=["crossingless-arcs", "knot-arcs", "knot-underpasses", "tangle-partition",
         "tangle-underpasses", "double-without-braid"],
)
def test_validate_rejects_each_broken_rule(build, error):
    # The checks that every diagram passes when it is built, one rule each.
    with pytest.raises(ValueError, match=error):
        build()


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
        bands = [tangle_diagram_json(band_double(knot, f), knot.writhe) for f in (-2, 0, 3)]
        docs.append([knot_diagram_json(knot)] + bands)
    blob = json.dumps(docs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BUILDERS_DIGEST
