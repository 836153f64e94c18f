import hashlib
import json
import random

import pytest

from rimcert.braids import BraidWord, parse_braid, resolve_knot
from rimcert.diagrams import Diagram, band_double, braid_closure_diagram
from rimcert.groups import Word
from rimcert.invariants import alexander_polynomial, wirtinger

from oracles import knot_diagram_json, tangle_diagram_json

TABLE_KNOTS = ("unknot", "3_1", "4_1", "5_1", "5_2")


# A diagram is never given, only built from a braid word, so the rules it
# keeps are checked here, on what the builders emit.


def _check_crossings(d):
    assert all(x.sign in (-1, 1) for x in d.crossings)
    assert all(0 <= x.over < d.n_arcs for x in d.crossings)


def _check_knot(d):
    # Arcs are numbered in traversal order: arc k dives under into arc k+1,
    # and the last arc closes up into arc 0.  The longitude reads the
    # underpasses in this order, and it also makes the diagram one
    # component.
    _check_crossings(d)
    c = len(d.crossings)
    assert d.n_arcs == max(1, c)
    assert sorted(x.under_in for x in d.crossings) == list(range(c))
    assert all(x.under_out == (x.under_in + 1) % c for x in d.crossings)
    assert d.strands == ((*range(c), 0),)


def _check_tangle(t):
    # Each strand's arcs follow one another through underpasses, and every
    # crossing sits on the strands: one off them would add a relator that
    # no arc of the band accounts for.
    _check_crossings(t)
    strand1, strand2 = t.strands
    assert strand1 and strand2
    assert sorted(strand1 + strand2) == list(range(t.n_arcs))
    assert len(t.crossings) == t.n_arcs - 2
    by_in = {x.under_in: x for x in t.crossings}
    assert len(by_in) == len(t.crossings)
    for strand in t.strands:
        for a, b in zip(strand, strand[1:]):
            assert by_in[a].under_out == b


def test_unknot_closure_has_no_crossings():
    d = braid_closure_diagram(parse_braid("B1:"))
    _check_knot(d)
    assert d == Diagram((), 1, ((0,),))


def test_closure_rejects_links():
    # Everything read off a braid needs its closure to be a knot.
    link = BraidWord(2, (1, 1))
    for build in (braid_closure_diagram, lambda b: band_double(b, 0), alexander_polynomial):
        with pytest.raises(ValueError, match="braid closure is a link"):
            build(link)


def test_trefoil_closure_structure():
    d = braid_closure_diagram(resolve_knot("3_1"))
    _check_knot(d)
    assert len(d.crossings) == 3 and d.n_arcs == 3
    assert all(c.sign == 1 for c in d.crossings)


def test_closures_of_all_table_knots_validate():
    for name in TABLE_KNOTS:
        _check_knot(braid_closure_diagram(resolve_knot(name)))


def test_diagrams_given_lists_store_tuples_and_certify():
    # A diagram whose fields were lists failed certify with "unhashable
    # type: 'list'".  The builders store tuples, so what they emit hashes
    # and builds its group.
    braid = resolve_knot("3_1")
    knot, band = braid_closure_diagram(braid), band_double(braid, 0)
    for d in (knot, band):
        # Every field of Diagram (crossings, n_arcs, strands) but the count.
        stored = [d.crossings, d.strands]
        assert all(type(v) is tuple for v in stored)
        hash(d)
    assert wirtinger(knot).ngens == 3
    assert wirtinger(band).ngens == band.n_arcs


def test_band_double_counts():
    braid = resolve_knot("3_1")
    t = band_double(braid, 0)
    _check_tangle(t)
    # four crossings per source crossing plus two per clasp twist
    clasps = abs(0 - braid.writhe())
    assert len(t.crossings) == 4 * len(braid.letters) + 2 * clasps
    assert sum(map(len, t.strands)) == t.n_arcs


def test_band_double_framing_changes_clasps():
    braid = resolve_knot("4_1")  # writhe 0
    assert len(band_double(braid, 2).crossings) - len(
        band_double(braid, 0).crossings
    ) == 4


def test_band_double_of_unknot():
    _check_tangle(band_double(parse_braid("B1:"), 0))


def test_tangle_boundary_loops_shape():
    # A band tangle has exactly two strands; each boundary loop a1, a2
    # encircles one arc, so the difference loop a1 * a2^-1 has two letters.
    t = band_double(resolve_knot("5_2"), 0)
    assert len(t.strands) == 2
    a1, a2 = Word.gen(t.strands[0][0]), Word.gen(t.strands[1][-1])
    assert (a1 * a2.inverse()).length() == 2


def test_tangle_boundary_loops_sit_at_the_shared_end():
    # The loops are read off the strands: a1 on strand 1's first arc and a2
    # on strand 2's last, where strand 1 starts.  Arc 0 starts strand 1.
    t = band_double(resolve_knot("3_1"), 0)
    strand1, strand2 = t.strands
    assert (strand1[0], strand2[0], strand2[-1]) == (0, 10, 19)
    a1, a2 = Word.gen(strand1[0]), Word.gen(strand2[-1])
    assert a1 == wirtinger(t).meridian
    assert a1 * a2.inverse() == Word(((0, 1), (19, -1)))


def test_knot_diagram_arcs_must_follow_the_traversal():
    # A hand-built trefoil with arcs 1 and 2 swapped was once certified
    # cyclic, while the named trefoil spec is non-cyclic of order 600; the
    # closure keeps the traversal order on every braid.
    for braid in _random_knot_braids(1818, 200):
        _check_knot(braid_closure_diagram(braid))


def test_tangle_crossings_all_sit_on_the_strands():
    # A hand-built tangle with a crossing where strand 1 ends was once
    # certified cyclic; every band double keeps its crossings on the
    # strands, at any framing.
    for braid in _random_knot_braids(1819, 200):
        for framing in (-2, 0, 3):
            _check_tangle(band_double(braid, framing))


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
        bands = [tangle_diagram_json(band_double(braid, f), braid.writhe()) for f in (-2, 0, 3)]
        docs.append([knot_diagram_json(braid_closure_diagram(braid), braid)] + bands)
    blob = json.dumps(docs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BUILDERS_DIGEST
