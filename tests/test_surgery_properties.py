"""Property tests on random knot braids: the rim group agrees with an
independent construction from the braid, and each surgered group depends
only on the twist class of m."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rimcert.braids import BraidWord  # noqa: E402
from rimcert.certify import certify_cyclic  # noqa: E402
from rimcert.enumeration import todd_coxeter  # noqa: E402
from rimcert.groups import GroupPresentation, Word  # noqa: E402
from rimcert.surgery import spec_from_json, surgered_group  # noqa: E402

from oracles import artin_rim_group  # noqa: E402

MAX_COSETS = 3000


@st.composite
def knot_braids(draw):
    strands = draw(st.integers(2, 4))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1))),
            min_size=1,
            max_size=6,
        )
    )
    braid = BraidWord(strands, tuple(i * s for i, s in pairs))
    assume(braid.is_knot())
    return braid


def _meridian_index(doc):
    """The certifier's meridian index, or None when it overflows."""
    v = certify_cyclic(surgered_group(spec_from_json(doc)), doc["d"], MAX_COSETS)
    return v.witness.get("meridian_subgroup_index")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(knot_braids(), st.integers(1, 5), st.integers(0, 5), st.integers(0, 3))
def test_rim_group_matches_the_artin_construction(braid, d, m, n):
    ngens, relators = artin_rim_group(braid.strands, braid.letters, d, m, n)
    oracle = GroupPresentation(ngens, tuple(Word(r) for r in relators))
    expected = todd_coxeter(oracle, [Word.gen(0)], MAX_COSETS)
    got = _meridian_index({"knot": str(braid), "d": d, "m": m, "n": n})
    assume(expected.complete and got is not None)
    assert got == expected.index


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    knot_braids(),
    st.sampled_from(("rim", "annulus")),
    st.integers(1, 5),
    st.integers(0, 9),
    st.integers(0, 3),
)
def test_surgered_group_depends_only_on_the_twist_class(braid, kind, d, m, n):
    # meridian^d is a relator, so the rim conjugator's twist counts mod d;
    # the annulus conjugator twists along a3, itself a relator, so m drops
    # out altogether.
    doc = {"knot": str(braid), "d": d, "n": n, "kind": kind}
    index = _meridian_index(dict(doc, m=m))
    reduced = _meridian_index(dict(doc, m=m % d if kind == "rim" else 0))
    assume(index is not None and reduced is not None)
    assert index == reduced
