"""Property tests: Word against letter-by-letter and syllable free reduction,
relator_matrix against exponent_sum, and the relator order against
syllable keys."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rimcert.abelian import relator_matrix  # noqa: E402
from rimcert.groups import GroupPresentation, Word, _relator_sort_key  # noqa: E402

from oracles import _cyclic_reduce, _free_reduce, _word_inverse  # noqa: E402

SYLLABLES = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=12
)


def _cancel_letters(syllables):
    """Free reduction by expanding to single letters and cancelling on a stack."""
    stack = []
    for gen, exp in syllables:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if stack and stack[-1] == (gen, -step):
                stack.pop()
            else:
                stack.append((gen, step))
    runs = []
    for gen, step in stack:
        if runs and runs[-1][0] == gen:
            runs[-1][1] += step
        else:
            runs.append([gen, step])
    return tuple((gen, exp) for gen, exp in runs)


@given(SYLLABLES)
@example([(0, 2), (0, -2)])
@example([(0, 1), (1, 2), (1, -2), (0, -1)])
@example([(0, 1), (1, 0), (0, 1)])
def test_word_syllables_are_freely_reduced(syllables):
    # Built from a list, which must come back as a tuple like any other.
    got = Word(syllables).syllables
    assert all(exp != 0 for _, exp in got)
    assert all(g != h for (g, _), (h, _) in zip(got, got[1:]))
    assert got == _cancel_letters(syllables)


@given(SYLLABLES, SYLLABLES, st.integers(-3, 3))
@example([(0, 2), (1, 1), (0, -3)], [], 1)
@example([(0, 3), (1, 1), (0, -1)], [], 1)
@example([(0, 2), (1, 1), (0, 1)], [], 1)
@example([(0, 1), (1, 1), (2, 1), (1, -1), (0, 2)], [], 1)
def test_word_operations_match_the_syllable_oracles(s, t, k):
    a, b = Word(s), Word(t)
    ref_a, ref_b = _free_reduce(s), _free_reduce(t)
    assert Word(a.syllables) == a
    assert (a * b).syllables == _free_reduce(ref_a + ref_b)
    assert a.inverse().syllables == _word_inverse(ref_a)
    base = ref_a if k > 0 else _word_inverse(ref_a)
    assert (a**k).syllables == _free_reduce(base * abs(k))
    assert a.cyclically_reduced().syllables == _cyclic_reduce(ref_a)


@given(st.lists(SYLLABLES, max_size=5), st.integers(0, 2))
@example([[(0, 2), (2, -3), (0, 1)], [(1, -1)]], 1)
def test_relator_matrix_matches_the_exponent_sums(relators, extra):
    # A letter count per relator gives the row that exponent_sum gives
    # generator by generator; generators no relator uses get zero columns.
    p = GroupPresentation(3 + extra, tuple(Word(s) for s in relators))
    assert relator_matrix(p) == [
        [r.exponent_sum(g) for g in range(p.ngens)] for r in p.relators
    ]


# Two generators and a few high powers, so that many words share a length,
# and a list of words with their reverses and inverses, which share it too.
ORDER_WORDS = st.lists(
    st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from([-9, -8, -3, -2, -1, 1, 2, 3, 8, 9])),
        min_size=1, max_size=4,
    ),
    max_size=10,
)


def _syllable_order(words):
    return sorted(words, key=lambda w: (w.length(), w.syllables))


@given(ORDER_WORDS)
@example([[(0, 3), (1, 1)], [(0, 2), (1, 2)], [(0, -3), (1, 1)], [(0, -2), (1, 2)],
          [(0, 1), (1, 3)], [(1, 3), (0, 1)], [(0, 4)], [(0, -4)], [(1, -4)]])
@example([[(0, 9), (1, -8)], [(0, 9), (1, 8)], [(0, 8), (1, -9)], [(0, -9), (1, 8)]])
def test_relators_sort_as_their_syllables_order_them(syllables):
    words = [Word(s) for s in syllables]
    words += [Word(s[::-1]) for s in syllables] + [w.inverse() for w in words]
    assert sorted(words, key=_relator_sort_key) == _syllable_order(words)
    # The constructor sorts the cyclically reduced relators the same way.
    reduced = [w.cyclically_reduced() for w in words]
    p = GroupPresentation(2, tuple(words))
    assert list(p.relators) == _syllable_order([w for w in reduced if w.cols])
