"""Property tests: collapse on letter tuples matches the syllable oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rimcert.groups import (  # noqa: E402
    GroupPresentation,
    Word,
    collapse_presentation,
    cyclic_normal_form,
    dedupe_relators,
)

from oracles import reference_collapse  # noqa: E402


def _words(ngens, min_size=0, max_size=6):
    letter = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    return st.lists(letter, min_size=min_size, max_size=max_size).map(
        lambda letters: Word(tuple(letters))
    )


@st.composite
def conjugation_presentations(draw):
    """Two or three base generators and a chain of conjugates of them.

    Each added generator x_k gets a relator x_k = u x_j u^-1 for a random
    word u over the generators before it, as surgery presentations do.
    A few random relators over all generators, and random peripheral
    words, make single occurrences, ties and cancellations common.
    """
    base = draw(st.integers(2, 3))
    extra = draw(st.integers(0, 5))
    ngens = base + extra
    rels = draw(st.lists(_words(base, 1, 6), min_size=1, max_size=3))
    for k in range(base, ngens):
        u = draw(_words(k, 0, 4))
        j = draw(st.integers(0, k - 1))
        rels.append(Word.gen(k).inverse() * u * Word.gen(j) * u.inverse())
    rels += draw(st.lists(_words(ngens, 1, 8), max_size=2))
    meridian = draw(st.one_of(st.just(Word.gen(0)), _words(ngens), st.none()))
    longitude = draw(st.one_of(_words(ngens, 0, 8), st.none()))
    return GroupPresentation(
        ngens=ngens,
        relators=tuple(rels),
        meridian=meridian,
        longitude=longitude,
    )


def _syllables(w):
    return None if w is None else w.syllables


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conjugation_presentations(), st.sampled_from(((), (0,), (1,), (0, 2))))
def test_collapse_matches_the_syllable_oracle(p, protect):
    for prot in ((), tuple(g for g in protect if g < p.ngens)):
        q = collapse_presentation(p, protect=prot)
        expected = reference_collapse(
            p.ngens,
            tuple(r.syllables for r in p.relators),
            _syllables(p.meridian),
            _syllables(p.longitude),
            protect=prot,
        )
        got = (
            q.ngens,
            tuple(r.syllables for r in q.relators),
            _syllables(q.meridian),
            _syllables(q.longitude),
        )
        assert got == expected


def _brute_normal_form(w):
    forms = []
    for cand in (w, w.inverse()):
        cols = cand.cols
        forms += [cols[i:] + cols[:i] for i in range(len(cols))]
    return min(forms, default=())


@settings(deadline=None, derandomize=True, database=None)
@given(st.lists(_words(3, 0, 8), max_size=8), st.randoms(use_true_random=False))
def test_dedupe_keeps_the_first_relator_of_each_class(words, rng):
    # Pad the list with rotations and inverses of its own words.
    relators = list(words)
    for w in words:
        letters = list(w.letters())
        if letters:
            i = rng.randrange(len(letters))
            turned = Word(tuple(letters[i:] + letters[:i]))
            relators.insert(rng.randrange(len(relators) + 1), turned.inverse())
    seen, expected = set(), []
    for r in relators:
        r = r.cyclically_reduced()
        key = _brute_normal_form(r)
        assert cyclic_normal_form(r) == key
        if key and key not in seen:
            seen.add(key)
            expected.append(r)
    assert dedupe_relators(relators) == expected
