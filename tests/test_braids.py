import random

import pytest

from rimcert.braids import (
    KNOT_TABLE,
    BraidWord,
    format_braid,
    parse_braid,
    resolve_knot,
)


def test_parse_round_trip():
    b = parse_braid("B3: 1 -2 1 -2")
    assert (b.strands, b.letters) == (3, (1, -2, 1, -2))
    assert parse_braid(format_braid(b)) == b


def test_parse_rejects_garbage():
    for text in ("", "B: 1", "B2 1 1", "B2: 0", "B2: 2", "B2: x"):
        with pytest.raises(ValueError):
            parse_braid(text)


def test_parse_rejects_links():
    # closure of an even power of the generator has two components
    with pytest.raises(ValueError):
        parse_braid("B2: 1 1")


def test_writhe_and_mirror():
    b = parse_braid("B3: 1 -2 1 -2")
    assert b.writhe() == 0


def _walked_components(strands, letters):
    """Closure components by walking each strand down the braid.

    Letter l crosses positions |l| - 1 and |l| (0-based); the closure joins
    each bottom position to the same top position.
    """
    seen = set()
    components = 0
    for start in range(strands):
        if start in seen:
            continue
        components += 1
        pos = start
        while pos not in seen:
            seen.add(pos)
            for l in letters:
                if pos == abs(l) - 1:
                    pos += 1
                elif pos == abs(l):
                    pos -= 1
    return components


def test_closure_components_counts_the_strand_cycles():
    assert BraidWord(1, ()).closure_components() == 1
    assert BraidWord(3, (1, 2)).closure_components() == 1
    assert BraidWord(3, ()).closure_components() == 3
    assert BraidWord(2, (1, 1)).closure_components() == 2
    rng = random.Random(41)
    counts = set()
    for _ in range(200):
        strands = rng.randint(1, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 12) if strands > 1 else 0)
        )
        expected = _walked_components(strands, letters)
        assert BraidWord(strands, letters).closure_components() == expected
        counts.add(expected)
    # Knots, links and split unions of up to five components all occur.
    assert counts == {1, 2, 3, 4, 5}


def test_table_entries_close_to_knots():
    assert set(KNOT_TABLE) == {"unknot", "3_1", "4_1", "5_1", "5_2"}
    for name in KNOT_TABLE:
        assert KNOT_TABLE[name].is_knot()


def test_resolve_accepts_names_and_literals():
    assert resolve_knot("4_1") == KNOT_TABLE["4_1"]
    assert resolve_knot("B3: 1 -2 1 -2") == KNOT_TABLE["4_1"]
    with pytest.raises(ValueError):
        resolve_knot("6_1")
