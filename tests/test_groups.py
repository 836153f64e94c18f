import random

import pytest

from rimcert.abelian import abelian_invariants
from rimcert.enumeration import todd_coxeter
from rimcert.groups import (
    GroupPresentation,
    Word,
    collapse_presentation,
    commutator,
    format_word,
    free_reduce,
    parse_word,
    presentation_from_json,
    presentation_to_json,
    quotient,
)


def w(*letters):
    return Word.from_letters(letters)


def _random_word(rng, ngens, max_len=8):
    return Word.from_letters(
        (rng.randrange(ngens), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
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


def test_presentation_json_round_trip():
    a, b = Word.gen(0), Word.gen(1)
    p = GroupPresentation(
        ngens=2,
        relators=(a * b * a.inverse() * b.inverse(), b**3),
        meridian=a,
        longitude=b,
        gen_names=("m", "l"),
    )
    assert presentation_from_json(presentation_to_json(p)) == p


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


def test_free_reduce_accepts_raw_syllables():
    assert free_reduce([(0, 2), (0, -2)]).is_identity()
