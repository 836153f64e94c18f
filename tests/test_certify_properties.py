"""Property tests: the certifier's premise holds on surgery specs, a
derived group order equals the enumerated one, and stage 1 may abelianize
the collapsed presentation."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rimcert.abelian import abelian_invariants  # noqa: E402
from rimcert.certify import CYCLIC, NON_CYCLIC, certify_cyclic  # noqa: E402
from rimcert.braids import BraidWord  # noqa: E402
from rimcert.enumeration import todd_coxeter  # noqa: E402
from rimcert.groups import (  # noqa: E402
    GroupPresentation,
    Word,
    collapse_presentation,
    cyclic_normal_form,
    quotient,
)
from rimcert.surgery import spec_from_json, surgered_group  # noqa: E402

A, B = Word.gen(0), Word.gen(1)
MAX_COSETS = 5000


LETTER = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))


@st.composite
def marked_presentations(draw):
    """<a, b | a^d, b = u a u^-1, v^k a^-s> marked by a.

    b is a conjugate of a, so the group with a killed is trivial, which is
    the certifier's premise; the power v^k makes non-cyclic quotients
    common, and a^-s, with s the exponent sum of v^k, keeps H1 = Z/d.
    Whether the group is finite is left to the test to check.
    """
    d = draw(st.integers(2, 5))
    u = Word(tuple(draw(st.lists(LETTER, min_size=1, max_size=3))))
    v = Word(tuple(draw(st.lists(LETTER, min_size=2, max_size=4))))
    r = v ** draw(st.integers(2, 3))
    r = r * A ** -r.exponent_sum()
    conjugate = B.inverse() * u * A * u.inverse()
    p = GroupPresentation(ngens=2, relators=(A**d, conjugate, r), meridian=A)
    return p, d


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(marked_presentations())
def test_derived_order_equals_enumerated_order(case):
    p, d = case
    assert abelian_invariants(quotient(p, [p.meridian])).is_cyclic_of_order(1)
    assert abelian_invariants(p).is_cyclic_of_order(d)
    merid = todd_coxeter(p, [p.meridian], MAX_COSETS)
    order = todd_coxeter(p, [], MAX_COSETS)
    assume(merid.complete and order.complete)

    assert merid.index * d == order.index
    v = certify_cyclic(p, d, max_cosets=MAX_COSETS)
    if merid.index == 1:
        assert v.status == CYCLIC
        return
    assert v.status == NON_CYCLIC
    assert v.witness == {
        "meridian_subgroup_index": merid.index,
        "group_order": order.index,
    }
    assert v.certificate["order_derivation"]["meridian_order"] == d


@st.composite
def braid_specs(draw):
    """A rim or annulus spec on a random knot braid of 2-4 strands."""
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
    return {
        "knot": str(braid),
        "d": draw(st.integers(1, 6)),
        "m": draw(st.integers(0, 5)),
        "n": draw(st.integers(0, 4)),
        "kind": draw(st.sampled_from(("rim", "annulus"))),
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braid_specs())
def test_surgered_groups_meet_the_premise_of_the_meridian_index(doc):
    # The certifier enumerates only the meridian subgroup.  Its index
    # decides a surgery spec because the meridian normally generates the
    # group (the group with it killed has trivial H1) and meridian^d is a
    # relator of the presentation it enumerates, collapsed or not.
    g = surgered_group(spec_from_json(doc))
    assert g.meridian.length() == 1
    assert abelian_invariants(quotient(g, [g.meridian])).is_cyclic_of_order(1)
    power = cyclic_normal_form((g.meridian ** doc["d"]).cyclically_reduced())
    small = collapse_presentation(g, protect=(g.meridian.max_generator(),))
    for p in (g, small):
        assert power in {cyclic_normal_form(r) for r in p.relators}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(braid_specs())
def test_collapse_keeps_the_abelian_invariants_of_surgered_groups(doc):
    # Stage 1 abelianizes the presentation the certifier enumerates, the
    # collapsed one when the group is wide.  A collapse is a chain of
    # Tietze moves, so H1 is that of the surgered group as built.
    g = surgered_group(spec_from_json(doc))
    small = collapse_presentation(g, protect=(g.meridian.max_generator(),))
    assert abelian_invariants(small) == abelian_invariants(g)
