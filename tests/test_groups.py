import random

import pytest

from rimcert.abelian import abelian_invariants
from rimcert.enumeration import todd_coxeter
from rimcert.groups import (
    MAX_RELATOR_LENGTH,
    GroupPresentation,
    Word,
    collapse_presentation,
    commutator,
    format_word,
    parse_word,
    quotient,
)
from rimcert.surgery import spec_from_json, surgered_group

from oracles import reference_collapse


def w(*letters):
    return Word(tuple(letters))


def _random_word(rng, ngens, max_len=8):
    return Word(
        tuple(
            (rng.randrange(ngens), rng.choice((1, -1)))
            for _ in range(rng.randint(0, max_len))
        )
    )


# -- words -------------------------------------------------------------------


def test_free_reduction_cancels_adjacent_inverses():
    assert w((0, 1), (0, -1)).is_identity()
    assert w((0, 1), (1, 1), (1, -1), (0, -1)).is_identity()
    assert w((0, 1), (1, 1), (0, -1)).length() == 3


def test_word_group_axioms_random():
    rng = random.Random(41)
    for _ in range(200):
        a = _random_word(rng, 3)
        b = _random_word(rng, 3)
        c = _random_word(rng, 3)
        assert (a * b) * c == a * (b * c)
        assert (a * a.inverse()).is_identity()
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert a * Word.identity() == a


def test_powers_and_exponent_sums():
    a = Word.gen(0)
    b = Word.gen(1)
    assert (a * b) ** 0 == Word.identity()
    assert (a * b) ** 2 == a * b * a * b
    assert (a * b) ** -1 == b.inverse() * a.inverse()
    assert (a**3 * b * a**-3).exponent_sum(0) == 0
    assert (a**3 * b).exponent_sum() == 4


def test_cyclic_reduction():
    word = w((0, 1), (1, 1), (0, -1))
    assert word.cyclically_reduced() == Word.gen(1)
    assert commutator(Word.gen(0), Word.gen(1)).cyclically_reduced().length() == 4


def test_format_parse_round_trip():
    rng = random.Random(43)
    names = ("a", "b", "c")
    for _ in range(100):
        word = _random_word(rng, 3)
        assert parse_word(format_word(word, names), names) == word


# -- presentations -----------------------------------------------------------


def test_quotient_appends_relators_and_keeps_marks():
    a, b = Word.gen(0), Word.gen(1)
    braid = a * b * a * b.inverse() * a.inverse() * b.inverse()
    p = GroupPresentation(ngens=2, relators=(braid,), meridian=a, longitude=b)
    q = quotient(p, [a**2])
    assert len(q.relators) == 2
    assert q.meridian == a and q.longitude == b
    with pytest.raises(ValueError):
        quotient(p, [Word.gen(5)])
    # The added relators land where a new presentation's sort puts them.
    # Short words share lengths and repeat, and some are not cyclically
    # reduced or reduce to the identity.
    rng = random.Random(31)
    for _ in range(300):
        p = GroupPresentation(
            ngens=2,
            relators=tuple(_random_word(rng, 2, 4) for _ in range(rng.randint(0, 6))),
            meridian=a,
        )
        extra = [_random_word(rng, 2, 4) for _ in range(rng.randint(0, 6))]
        assert quotient(p, extra) == GroupPresentation(
            ngens=2, relators=p.relators + tuple(extra), meridian=a
        )


# -- collapse_presentation ---------------------------------------------------


def _s3_wide():
    """S3 padded with conjugation-shaped generators collapse can remove."""
    a, b, c, d = (Word.gen(i) for i in range(4))
    rels = (
        a * b * a * b.inverse() * a.inverse() * b.inverse(),
        a**2,
        c * (b * a * b.inverse()).inverse(),
        d * (a * c * a.inverse()).inverse(),
    )
    return GroupPresentation(ngens=4, relators=rels, meridian=a, longitude=b)


def test_collapse_eliminates_single_occurrence_generators():
    p = _s3_wide()
    q = collapse_presentation(p)
    assert q.ngens == 2
    r = todd_coxeter(q, [])
    assert r.complete and r.index == 6


def test_collapse_preserves_h1_and_meridian_index():
    p = _s3_wide()
    q = collapse_presentation(p)
    a, b = abelian_invariants(p), abelian_invariants(q)
    assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)
    before = todd_coxeter(p, [p.meridian])
    after = todd_coxeter(q, [q.meridian])
    assert before.complete and after.complete
    assert before.index == after.index == 3


def test_collapse_protect_keeps_generator_alive():
    p = _s3_wide()
    # Unprotected, both a and the padded copy of bab^-1 get eliminated and
    # the meridian becomes a conjugation word.
    assert collapse_presentation(p).meridian != Word.gen(0)
    q = collapse_presentation(p, protect=(0, 2))
    assert q.ngens == 3
    assert q.meridian == Word.gen(0)
    r = todd_coxeter(q, [])
    assert r.complete and r.index == 6


def test_collapse_tolerates_growth_where_tietze_stalls():
    rng = random.Random(53)
    a, b = Word.gen(0), Word.gen(1)
    rels = [a * b * a * b.inverse() * a.inverse() * b.inverse(), a**2]
    ngens = 2
    # chain of conjugation-defined generators: x_k = w x_{k-1} w^-1
    for k in range(2, 8):
        conj = _random_word(rng, ngens, 5)
        prev = Word.gen(rng.randrange(ngens))
        rels.append(Word.gen(k) * (conj * prev * conj.inverse()).inverse())
        ngens += 1
    p = GroupPresentation(ngens=ngens, relators=tuple(rels), meridian=a)
    q = collapse_presentation(p)
    assert q.ngens == 2
    assert todd_coxeter(q, []).index == 6


def test_collapse_single_free_generator_is_fixed_point():
    p = GroupPresentation(ngens=1, relators=(), meridian=Word.gen(0))
    q = collapse_presentation(p)
    assert (q.ngens, q.relators, q.meridian) == (1, (), Word.gen(0))


def _protect_like_certify(p):
    """The generator certify_cyclic keeps: the meridian, if it is one letter."""
    syl = p.meridian.syllables
    return (syl[0][0],) if len(syl) == 1 and abs(syl[0][1]) == 1 else ()


def _sweep_group(knot, d, m, n, kind="rim"):
    return surgered_group(
        spec_from_json({"knot": knot, "d": d, "m": m, "n": n, "kind": kind})
    )


@pytest.mark.parametrize("k, ngens", [(1024, 2), (1025, 3)])
def test_collapse_stops_at_the_relator_length_cap(k, ngens):
    # S3 padded with y = abab^-1 (= b) and x = (ab^-1)^k, an involution at
    # every k, so x^2 = 1 holds.  y goes first; eliminating x then turns x^2
    # into a relator of 4k letters, which just fits the cap at k = 1024.
    a, b, x, y = (Word.gen(i) for i in range(4))
    rels = (
        a**2,
        b**3,
        (a * b) ** 2,
        y.inverse() * a * b * a * b.inverse(),
        y**3,
        x.inverse() * (a * b.inverse()) ** k,
        x**2,
    )
    p = GroupPresentation(ngens=4, relators=rels, meridian=a)
    q = collapse_presentation(p)
    assert 4 * 1024 == MAX_RELATOR_LENGTH
    assert q.ngens == ngens
    assert max(r.length() for r in q.relators) <= MAX_RELATOR_LENGTH
    before, after = abelian_invariants(p), abelian_invariants(q)
    assert (before.free_rank, before.torsion) == (after.free_rank, after.torsion)
    r = todd_coxeter(q, [])
    assert r.complete and r.index == 6


def _later_copies(r):
    """A rotation and an inverse of r that sort after r, where there are.

    Relators sort by length, then syllables; copies that sort after r leave
    r the first of its class, the copy collapse keeps.
    """

    def rotations(word):
        ls = list(word.letters())
        return [
            Word(tuple(ls[i:] + ls[:i])).cyclically_reduced() for i in range(len(ls))
        ]

    def key(word):
        return (word.length(), word.syllables)

    copies = (max(rotations(r), key=key), max(rotations(r.inverse()), key=key))
    return [c for c in copies if key(c) > key(r)]


@pytest.mark.parametrize(
    "make", [_s3_wide, lambda: _sweep_group("5_2", 3, 1, 3)], ids=["s3", "5_2"]
)
def test_collapse_drops_rotations_and_inverses_of_relators(make):
    p = make()
    extra = [c for r in p.relators for c in _later_copies(r)]
    padded = quotient(p, extra)
    assert len(padded.relators) > len(p.relators)
    for protect in ((), _protect_like_certify(p)):
        assert collapse_presentation(padded, protect=protect) == (
            collapse_presentation(p, protect=protect)
        )


@pytest.mark.parametrize(
    "spec, shape",
    [
        (("5_2", 3, 1, 3), (2, 8, 655)),
        (("4_1", 3, 1, 7), (2, 6, 589)),
        (("3_1", 2, 1, 1, "annulus"), (1, 1, 2)),
    ],
    ids=["rim-5_2-3-1-3", "rim-4_1-3-1-7", "annulus-3_1-2-1-1"],
)
def test_collapse_shape_of_sweep_specs(spec, shape):
    # (generators, relators, total relator length) as certify_cyclic
    # collapses them; a change in elimination order or tie-breaks shows here.
    p = _sweep_group(*spec)
    q = collapse_presentation(p, protect=_protect_like_certify(p))
    assert (q.ngens, len(q.relators), q.total_relator_length()) == shape


def test_collapse_moves_a_merged_end_syllable_to_the_front():
    # x = a^2 turns x b a^-3 into a^2 b a^-3, which cyclically reduces to
    # a^-1 b as Word.cyclically_reduced does, not to the rotation b a^-1
    # that stripping inverse letters from the ends alone would leave.
    a, b, x = (Word.gen(i) for i in range(3))
    assert (a**2 * b * a**-3).cyclically_reduced() == a.inverse() * b
    assert (a**2 * b * a**3).cyclically_reduced() == a**5 * b
    p = GroupPresentation(
        ngens=3, relators=(x.inverse() * a**2, x * b * a**-3), meridian=x
    )
    q = collapse_presentation(p, protect=(0, 1))
    assert q.ngens == 2
    assert q.relators == (a.inverse() * b,)
    assert q.meridian == a**2


def test_collapse_keeps_the_presentation_when_the_cap_is_hit_mid_elimination():
    # a = y goes first.  Eliminating x = (y b^-1)^700 then rewrites x^2 to
    # 2800 letters, within the cap, before x^3 would take 4200 letters: the
    # whole elimination is dropped, x^2 included, and the collapse stops.
    a, b, x, y = (Word.gen(i) for i in range(4))
    p = GroupPresentation(
        ngens=4,
        relators=(y.inverse() * a, x**2, x**3, x.inverse() * (a * b.inverse()) ** 700),
        meridian=a,
    )
    q = collapse_presentation(p)
    b, x, y = (Word.gen(i) for i in range(3))
    assert q.relators == (x**2, x**3, x.inverse() * (y * b.inverse()) ** 700)
    assert q.meridian == y
    expected = reference_collapse(
        p.ngens, tuple(r.syllables for r in p.relators), p.meridian.syllables,
        None,
    )
    assert expected == (3, tuple(r.syllables for r in q.relators),
                        q.meridian.syllables, None)
