"""Verdict semantics for the cyclicity certifier."""

import pytest

from rimcert.certify import CYCLIC, INCONCLUSIVE, NON_CYCLIC, certify_cyclic
from rimcert.enumeration import todd_coxeter
from rimcert.groups import GroupPresentation, Word, collapse_presentation, parse_word
from rimcert.surgery import spec_from_json, surgered_group

AB = ("a", "b")


def _rim(knot, d, m=1, n=0):
    return surgered_group(spec_from_json({"knot": knot, "d": d, "m": m, "n": n}))


# S3 presented as the trefoil group with the meridian squared killed.
S3_MOD_MERIDIAN = GroupPresentation(
    ngens=2,
    relators=(
        parse_word("a b a B A B", AB),
        parse_word("a a", AB),
    ),
    meridian=Word.gen(0),
)


def test_cyclic_verdict_fields():
    v = certify_cyclic(_rim("unknot", 3), 3)
    assert v.status == CYCLIC
    assert v.certified
    assert v.order == 3
    assert v.witness == {"meridian_subgroup_index": 1}
    cert = v.certificate
    assert cert["stage"] == "meridian_index"
    assert cert["enumeration"]["complete"]
    assert cert["enumeration"]["index"] == 1
    assert cert["abelian_invariants"] == {"free_rank": 0, "torsion": [3]}
    assert cert["limits"]["max_cosets"] > 0


def test_refuted_by_abelianization():
    # Z/2 x Z/2 is not cyclic of order 4; stage 1 settles it with no
    # enumeration at all.
    klein = GroupPresentation(
        ngens=2,
        relators=(
            parse_word("a a", AB),
            parse_word("b b", AB),
            parse_word("a b A B", AB),
        ),
        meridian=Word.gen(0),
    )
    v = certify_cyclic(klein, 4)
    assert v.status == NON_CYCLIC
    assert v.certified
    assert v.certificate["stage"] == "abelianization"
    assert v.witness["abelian_invariants"]["torsion"] == [2, 2]
    assert "enumeration" not in v.certificate


def test_abelianization_refutation_of_a_collapsed_presentation():
    # The Klein four-group again, on five generators: c = ab, d = c and
    # e = d are eliminated before stage 1, which abelianizes the collapsed
    # copy.  The collapse is not part of an abelianization certificate.
    names = ("a", "b", "c", "d", "e")
    wide = GroupPresentation(
        ngens=5,
        relators=tuple(
            parse_word(r, names)
            for r in ("a a", "b b", "a b A B", "c B A", "d C", "e D")
        ),
        meridian=Word.gen(0),
    )
    assert collapse_presentation(wide, protect=(0,)).ngens == 2
    v = certify_cyclic(wide, 4, max_cosets=500, timeout=5.0)
    assert v.status == NON_CYCLIC
    assert v.witness == {"abelian_invariants": {"free_rank": 0, "torsion": [2, 2]}}
    assert v.certificate == {
        "stage": "abelianization",
        "limits": {"max_cosets": 500, "timeout": 5.0},
    }


def test_abelianization_of_a_dense_presentation_ends_in_time(time_limit):
    # Eight generators and eight relators, every exponent in +-[2, 9], so
    # collapse eliminates nothing and the dense 8x8 relator matrix goes to
    # the Smith form as it is.  The timeout bounds only the enumeration; a
    # Smith form whose entries grow without bound would never return.
    relators = (
        ((1, -9), (4, -5), (1, 9), (7, 8)),
        ((0, 2), (7, 2), (4, -5), (3, -2), (1, 9), (5, -5)),
        ((3, 4), (7, -3), (4, -8), (0, 6), (6, -9)),
        ((0, -3), (7, -3), (3, 8), (6, -9), (2, 9), (5, 6)),
        ((2, -9), (3, -2), (0, -4), (3, 8), (6, 9), (5, -5)),
        ((7, -2), (5, 4), (6, 3), (5, -2), (0, 3), (5, 9)),
        ((4, 7), (3, -3), (1, 4)),
        ((2, -3), (4, 6), (7, -7), (5, -5), (7, -3)),
    )
    p = GroupPresentation(
        ngens=8, relators=tuple(Word(r) for r in relators), meridian=Word.gen(0)
    )
    assert collapse_presentation(p, protect=(0,)).ngens == 8
    with time_limit(10):
        v = certify_cyclic(p, 2, max_cosets=1000, timeout=1.0)
    assert v.status == NON_CYCLIC
    assert v.certificate["stage"] == "abelianization"
    assert v.witness["abelian_invariants"] == {"free_rank": 0, "torsion": [3, 728406]}


def test_non_cyclic_meridian_index_with_order():
    # Abelianization Z/2 survives stage 1, but the meridian subgroup
    # closes at index 3.  The meridian generates H1 and "a a" is a
    # relator, so the meridian has order 2 and the group order 3*2 = 6 is
    # derived, not enumerated.
    v = certify_cyclic(S3_MOD_MERIDIAN, 2)
    assert v.status == NON_CYCLIC
    assert v.certified
    assert v.witness == {"meridian_subgroup_index": 3, "group_order": 6}
    cert = v.certificate
    assert cert["stage"] == "meridian_index"
    assert cert["enumeration"]["index"] == 3
    derivation = cert["order_derivation"]
    assert derivation["meridian_order"] == 2
    position = derivation["meridian_power_relator"]
    assert S3_MOD_MERIDIAN.relators[position] == parse_word("a a", AB)
    assert derivation["meridian_quotient_invariants"] == {
        "free_rank": 0,
        "torsion": [],
    }
    # The enumeration the derivation replaces agrees.
    order = todd_coxeter(S3_MOD_MERIDIAN, [])
    assert order.complete and order.index == 6


# S3 again, with a^2 = 1 only as a consequence of "a a b b" and "b b".
S3_WITHOUT_MERIDIAN_POWER = GroupPresentation(
    ngens=2,
    relators=tuple(parse_word(r, AB) for r in ("a a b b", "b b", "a b a b a b")),
    meridian=Word.gen(0),
)


def test_index_alone_refutes_when_meridian_power_is_no_relator():
    # The premise holds, so the index refutes cyclicity; no relator word
    # says the meridian has order d, so no group order is derived, and the
    # whole group is not enumerated.
    v = certify_cyclic(S3_WITHOUT_MERIDIAN_POWER, 2)
    assert v.status == NON_CYCLIC
    assert v.certified
    assert v.witness == {"meridian_subgroup_index": 3}
    cert = v.certificate
    assert cert["stage"] == "meridian_index"
    assert cert["enumeration"]["index"] == 3
    assert "order_derivation" not in cert


@pytest.mark.parametrize(
    "knot, d, m, n, order",
    [
        # Criterion 4: the trefoil at d=2 with m=0 and m=2.
        ("3_1", 2, 0, 0, 6),
        ("3_1", 2, 2, 0, 6),
        # Criterion 2: the trefoil family d=5, 5 | m+n, of order 600.
        ("3_1", 5, 1, 4, 600),
        ("3_1", 5, 2, 3, 600),
        ("3_1", 5, 3, 2, 600),
        ("3_1", 5, 4, 1, 600),
    ],
)
def test_acceptance_non_cyclic_specs_take_the_derived_order(knot, d, m, n, order):
    # The non-cyclic specs the acceptance tests certify must derive their
    # group order from a meridian^d relator; without one the witness would
    # hold the index alone.
    v = certify_cyclic(_rim(knot, d, m, n), d)
    assert v.status == NON_CYCLIC
    assert v.witness["group_order"] == order
    cert = v.certificate
    assert cert["order_derivation"]["meridian_order"] == d


def test_inconclusive_is_honest_about_limits():
    p = _rim("4_1", 3, 1, 20)
    v = certify_cyclic(p, 3, max_cosets=500)
    assert v.status == INCONCLUSIVE
    assert not v.certified
    assert v.witness == {}
    cert = v.certificate
    assert cert["stage"] == "overflow"
    assert not cert["meridian_enumeration"]["complete"]
    assert cert["meridian_enumeration"]["reason"] == "max_cosets"
    assert cert["limits"]["max_cosets"] == 500


Z4_MARKED_BY_A2 = GroupPresentation(
    ngens=1, relators=(parse_word("a a a a", "a"),), meridian=Word.gen(0, 2)
)
Z6_MARKED_BY_A = GroupPresentation(
    ngens=2,
    relators=(
        parse_word("a a a", AB),
        parse_word("b b", AB),
        parse_word("a b A B", AB),
    ),
    meridian=Word.gen(0),
)
# S3 x Z/3 marked by a transposition: H1 is Z/6 and the group has order 18.
S3_X_Z3_MARKED_BY_A = GroupPresentation(
    ngens=3,
    relators=tuple(
        parse_word(r, ("a", "b", "c"))
        for r in ("a a", "b b", "a b a b a b", "c c c", "a c A C", "b c B C")
    ),
    meridian=Word.gen(0),
)


@pytest.mark.parametrize(
    "p, d",
    [(Z4_MARKED_BY_A2, 4), (Z6_MARKED_BY_A, 6), (S3_X_Z3_MARKED_BY_A, 6)],
    ids=["z4", "z6", "s3xz3"],
)
def test_meridian_missing_part_of_h1_is_inconclusive(p, d):
    # The meridian's index is > 1, but the meridian does not generate the
    # abelianization, so the index proves nothing: two of these groups are
    # cyclic of order d and one is not.  The certifier does not enumerate
    # the whole group, so it says so instead of deciding.
    v = certify_cyclic(p, d)
    assert v.status == INCONCLUSIVE
    assert not v.certified
    assert v.witness == {}
    assert "does not enumerate the whole group" in v.justification
    cert = v.certificate
    assert cert["stage"] == "premise"
    assert cert["meridian_enumeration"]["complete"]
    assert cert["meridian_enumeration"]["index"] > 1
    assert cert["meridian_quotient_invariants"]["torsion"] != []


def test_timeout_reported_in_certificate():
    v = certify_cyclic(_rim("4_1", 3, 1, 20), 3, timeout=1e-9)
    assert v.status == INCONCLUSIVE
    assert v.certificate["meridian_enumeration"]["reason"] == "timeout"
    assert v.certificate["limits"]["timeout"] == 1e-9


def test_wide_presentation_notes_collapse():
    p = _rim("4_1", 2)
    assert p.ngens > 3
    v = certify_cyclic(p, 2)
    assert v.status == CYCLIC
    note = v.certificate["collapsed_presentation"]
    assert 1 <= note["generators"] < p.ngens
    assert note["total_relator_length"] > 0


def test_narrow_presentation_runs_as_is():
    v = certify_cyclic(S3_MOD_MERIDIAN, 2)
    assert "collapsed_presentation" not in v.certificate


def _widen(p):
    """p with three more generators, each equal to the one before it."""
    extra = tuple(
        Word.gen(g) * Word.gen(g - 1).inverse()
        for g in range(p.ngens, p.ngens + 3)
    )
    return GroupPresentation(
        ngens=p.ngens + 3, relators=p.relators + extra, meridian=p.meridian
    )


# Every certificate past the abelianization of a collapsed presentation.
COLLAPSED = {"stage", "limits", "collapsed_presentation"}
INDEX = COLLAPSED | {"enumeration", "abelian_invariants"}


@pytest.mark.parametrize(
    "build, d, status, stage, keys",
    [
        (lambda: _rim("4_1", 3, 1, 20), 3, INCONCLUSIVE, "overflow",
         COLLAPSED | {"meridian_enumeration"}),
        (lambda: _rim("4_1", 2), 2, CYCLIC, "meridian_index", INDEX),
        (lambda: _widen(S3_MOD_MERIDIAN), 2, NON_CYCLIC, "meridian_index",
         INDEX | {"order_derivation"}),
        (lambda: _widen(S3_WITHOUT_MERIDIAN_POWER), 2, NON_CYCLIC,
         "meridian_index", INDEX),
        (lambda: _widen(Z4_MARKED_BY_A2), 4, INCONCLUSIVE, "premise",
         COLLAPSED | {"meridian_enumeration", "meridian_quotient_invariants"}),
    ],
    ids=["overflow", "cyclic", "non_cyclic-derived", "non_cyclic-index", "premise"],
)
def test_certificate_keys_of_each_verdict_kind(build, d, status, stage, keys):
    # The abelianization kind, which has no collapse record, is pinned whole
    # by test_abelianization_refutation_of_a_collapsed_presentation.
    p = build()
    assert p.ngens > 3
    v = certify_cyclic(p, d, max_cosets=500)
    assert (v.status, v.order, v.certificate["stage"]) == (status, d, stage)
    assert set(v.certificate) == keys


def test_verdict_json_deterministic():
    a = certify_cyclic(_rim("3_1", 3, 2, 1), 3).to_json()
    b = certify_cyclic(_rim("3_1", 3, 2, 1), 3).to_json()
    assert a == b
    assert a["status"] == CYCLIC
    assert a["certified"] is True


def test_bad_inputs_raise():
    with pytest.raises(ValueError):
        certify_cyclic(S3_MOD_MERIDIAN, 0)
    unmarked = GroupPresentation(ngens=1, relators=(parse_word("a a", "a"),))
    with pytest.raises(ValueError):
        certify_cyclic(unmarked, 2)


@pytest.mark.parametrize("d", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_expected_order_must_be_an_int(d):
    # The order is a JSON integer: a float would reach the report as
    # "order": 2.0 or fail in a word power, and a bool would be read as 1.
    z2 = GroupPresentation(ngens=1, relators=(parse_word("a a", "a"),),
                           meridian=Word.gen(0))
    s3 = GroupPresentation(
        ngens=2,
        relators=tuple(parse_word(r, AB) for r in ("a a", "b b", "a b a b a b")),
        meridian=Word.gen(0),
    )
    for p in (z2, s3):
        with pytest.raises(ValueError, match="expected order"):
            certify_cyclic(p, d)
