"""Freely reduced words and finite group presentations.

A word is stored as its letters, one int per letter: 2g for the generator
x_g and 2g+1 for its inverse, so two letters are inverse exactly when
their xor is 1.  These are also the coset-table columns the enumerator
scans.  Generators are 0-based integer indices.  Words are built from
run-length (generator, exponent) syllables, so that high powers such as
mu^d are short to write, and read back as syllables for display and
ordering.
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from itertools import groupby
from operator import indexOf, ne
from typing import Iterable, Iterator, Sequence

from .record import Record

Syllable = tuple[int, int]


def is_integer(value) -> bool:
    """A JSON integer: an int that is not a bool (floats and strings fail)."""
    return isinstance(value, int) and not isinstance(value, bool)


# --- letter tuples ------------------------------------------------------------


def _append(out: list[int], piece: Sequence[int]) -> None:
    """Extend the freely reduced out by the freely reduced piece.

    Both are reduced already, so letters can cancel only where they meet.
    """
    k = 0
    while out and k < len(piece) and out[-1] ^ piece[k] == 1:
        out.pop()
        k += 1
    out.extend(piece[k:])


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map((1).__xor__, reversed(w)))


def _cyclically_reduce(w: tuple[int, ...]) -> tuple[int, ...]:
    """Cyclic reduction of the freely reduced letters w.

    Inverse letters are stripped from both ends.  If what is left starts
    and ends with the same letter, or its last letters are what a partial
    cancellation left of the last run, that trailing run moves to the
    front: the two end runs become one syllable at the front, so
    a^2 X a^-3 becomes a^-1 X, not X a^-1.
    """
    i, j = 0, len(w) - 1
    while i < j and w[i] ^ w[j] == 1:
        i += 1
        j -= 1
    if i > j:
        return ()
    last = w[j]
    if w[i] == last or (j + 1 < len(w) and w[j + 1] == last):
        k = j
        while k > i and w[k - 1] == last:
            k -= 1
        if k > i:
            return w[k : j + 1] + w[i:k]
    return w[i : j + 1]


class Word(Record):
    """A freely reduced word in a free group on indexed generators.

    ``Word(syllables)`` reduces the (generator, nonzero exponent) pairs it
    is given; ``cols`` holds the result as letters, no letter beside its
    inverse.
    """

    __slots__ = ("cols",)

    def __init__(self, syllables: Iterable[Syllable] = ()) -> None:
        out: list[int] = []
        for gen, exp in syllables:
            if gen < 0:
                raise ValueError(f"negative generator index {gen}")
            _append(out, (2 * gen + (exp < 0),) * abs(exp))
        object.__setattr__(self, "cols", tuple(out))

    @staticmethod
    def _of(cols: tuple[int, ...]) -> "Word":
        """The Word of letters that are freely reduced already."""
        w = object.__new__(Word)
        object.__setattr__(w, "cols", cols)
        return w

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def gen(index: int, exp: int = 1) -> "Word":
        return Word(((index, exp),))

    @property
    def syllables(self) -> tuple[Syllable, ...]:
        """Runs of one letter as (generator, exponent); neighbours differ."""
        out = []
        for c, run in groupby(self.cols):
            n = len(tuple(run))
            out.append((c >> 1, -n if c & 1 else n))
        return tuple(out)

    def __mul__(self, other: "Word") -> "Word":
        out = list(self.cols)
        _append(out, other.cols)
        return Word._of(tuple(out))

    def inverse(self) -> "Word":
        return Word._of(_inverse(self.cols))

    def __pow__(self, k: int) -> "Word":
        """u^k as v c^k v^-1, where u = v c v^-1 and c's ends are not inverse.

        No letters cancel where the copies of c meet, so u^k is built in
        time linear in its length.
        """
        if k == 0:
            return Word._of(())
        u = self.cols if k > 0 else _inverse(self.cols)
        i, j = 0, len(u)
        while i < j and u[i] ^ u[j - 1] == 1:
            i += 1
            j -= 1
        return Word._of(u[:i] + u[i:j] * abs(k) + u[j:])

    def is_identity(self) -> bool:
        return not self.cols

    def length(self) -> int:
        """Number of letters."""
        return len(self.cols)

    def letters(self) -> Iterator[tuple[int, int]]:
        """Yield single letters (gen, +1|-1) left to right."""
        for c in self.cols:
            yield c >> 1, -1 if c & 1 else 1

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the identity."""
        return max(self.cols) >> 1 if self.cols else -1

    def exponent_sum(self, gen: int | None = None) -> int:
        if gen is None:
            return len(self.cols) - 2 * sum(c & 1 for c in self.cols)
        return self.cols.count(2 * gen) - self.cols.count(2 * gen + 1)

    def cyclically_reduced(self) -> "Word":
        return Word._of(_cyclically_reduce(self.cols))

    def __str__(self) -> str:
        if not self.cols:
            return "1"
        return "*".join(
            f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in self.syllables
        )


def commutator(a: Word, b: Word) -> Word:
    return a.inverse() * b.inverse() * a * b


def _compare_equal_length(a: Word, b: Word) -> int:
    """Order two relators of one length as their syllables order them.

    The words agree before their first differing letter, and so do their
    syllables, up to the run of the letter just before it.  If one word
    repeats that letter, its run is the longer one, so its exponent is the
    larger for a generator and the smaller for an inverse.  Otherwise both
    start a syllable there, and the lower generator comes first, or for
    one generator the negative exponent: the order of the letters with
    their last bit flipped.  Equal lengths rule out a proper prefix.
    """
    x, y = a.cols, b.cols
    if x == y:
        return 0
    i = indexOf(map(ne, x, y), True)
    prev = x[i - 1] if i else -1
    if x[i] == prev or y[i] == prev:
        a_longer = 1 if x[i] == prev else -1
        return -a_longer if prev & 1 else a_longer
    return -1 if x[i] ^ 1 < y[i] ^ 1 else 1


_by_letters = cmp_to_key(_compare_equal_length)


def _relator_sort_key(w: Word) -> tuple:
    """The (length, syllables) order, with no syllables built.

    A tuple comparison reaches the second items only when the lengths are
    equal, so only relators of one length reach _compare_equal_length.
    """
    return (w.length(), _by_letters(w))


def default_generator_names(ngens: int) -> tuple[str, ...]:
    """a..z for the first 26 generators, then g26, g27, ..."""
    names = []
    for i in range(ngens):
        names.append(chr(ord("a") + i) if i < 26 else f"g{i}")
    return tuple(names)


class GroupPresentation(Record):
    """<x0..x{ngens-1} | relators>, optionally with peripheral words.

    Relators are cyclically reduced, nonempty, and ordered by length then
    lexicographically so that identical groups enumerate identically.
    """

    __slots__ = ("ngens", "relators", "meridian", "longitude")

    def __init__(self, ngens: int, relators: tuple[Word, ...] = (),
                 meridian: Word | None = None, longitude: Word | None = None) -> None:
        if ngens < 0:
            raise ValueError("generator count must be nonnegative")
        rels = []
        for r in relators:
            if r.max_generator() >= ngens:
                raise ValueError(
                    f"relator {r} uses a generator outside x0..x{ngens - 1}"
                )
            r = r.cyclically_reduced()
            if not r.is_identity():
                rels.append(r)
        rels.sort(key=_relator_sort_key)
        for name, w in (("meridian", meridian), ("longitude", longitude)):
            if w is not None and w.max_generator() >= ngens:
                raise ValueError(f"{name} word uses an undefined generator")
        self._set(ngens, tuple(rels), meridian, longitude)

    def names(self) -> tuple[str, ...]:
        return default_generator_names(self.ngens)

    def total_relator_length(self) -> int:
        return sum(r.length() for r in self.relators)


def quotient(p: GroupPresentation, extra_relators: Iterable[Word]) -> GroupPresentation:
    """Add relators; peripheral data carries over unchanged.

    The constructor normalizes the relators; its stable sort puts each added
    relator after the old ones with an equal key.
    """
    return GroupPresentation(
        p.ngens, p.relators + tuple(extra_relators), p.meridian, p.longitude
    )


# --- relator normal forms, for duplicate detection and relator lookup -----


def _positions(w: tuple[int, ...], x: int) -> list[int]:
    found = []
    try:
        i = w.index(x)
        while True:
            found.append(i)
            i = w.index(x, i + 1)
    except ValueError:
        return found


def cyclic_normal_form(w: Word) -> tuple[int, ...]:
    """Least rotation of the letter sequence of w and of w^-1.

    A least rotation starts at a least letter, so only those rotations are
    compared.
    """
    cols = w.cols
    if not cols:
        return ()
    best = cols
    for letters in (cols, _inverse(cols)):
        for i in _positions(letters, min(letters)):
            rot = letters[i:] + letters[:i]
            if rot < best:
                best = rot
    return best


def _letter_counts(w: Word) -> tuple[tuple[int, int], ...]:
    """Letters per generator, which rotation and inversion both keep."""
    counts: dict[int, int] = {}
    for c, k in Counter(w.cols).items():
        counts[c >> 1] = counts.get(c >> 1, 0) + k
    return tuple(sorted(counts.items()))


def dedupe_relators(relators: Iterable[Word]) -> list[Word]:
    """Cyclically reduced relators, without identities, one per class.

    Relators that are rotations or inverses of an earlier one are dropped.
    Two relators can only be such copies when they have the same letters
    per generator, so the cyclic normal forms are computed only within a
    group of relators that agree there.
    """
    first: dict[tuple, Word] = {}
    forms: dict[tuple, set[tuple[int, ...]]] = {}
    out = []
    for r in relators:
        r = r.cyclically_reduced()
        if r.is_identity():
            continue
        counts = _letter_counts(r)
        if counts not in first:
            first[counts] = r
            out.append(r)
            continue
        seen = forms.get(counts)
        if seen is None:
            seen = forms[counts] = {cyclic_normal_form(first[counts])}
        key = cyclic_normal_form(r)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


# --- generator elimination, on letter tuples ---------------------------------

# Collapse stops at the first substitution that would make a relator longer
# than this many letters.
MAX_RELATOR_LENGTH = 4096


def _substitute(
    w: tuple[int, ...], col: int, image: tuple[int, ...], inverse: tuple[int, ...]
) -> tuple[int, ...]:
    """w with letter col replaced by image and col ^ 1 by inverse.

    The pieces between occurrences are freely reduced already, and so are
    image and inverse.
    """
    if col not in w and col ^ 1 not in w:
        return w
    hits = sorted(_positions(w, col) + _positions(w, col ^ 1))
    out = list(w[: hits[0]])
    for pos, end in zip(hits, hits[1:] + [len(w)]):
        _append(out, image if w[pos] == col else inverse)
        _append(out, w[pos + 1 : end])
    return tuple(out)


def _single_occurrence(
    relators: list[tuple[int, ...]], protect: frozenset[int]
) -> tuple[int, int] | None:
    """(relator index, generator) with the generator there exactly once.

    Candidates are ordered by (relator length, generator, relator index),
    and generators in ``protect`` are never offered.
    """
    best: tuple[int, int, int] | None = None
    for idx, r in enumerate(relators):
        n = len(r)
        if best is not None and n > best[0]:
            continue
        for g in sorted({c >> 1 for c in set(r)}):
            if g not in protect and r.count(2 * g) + r.count(2 * g + 1) == 1:
                if best is None or (n, g, idx) < best:
                    best = (n, g, idx)
                break
    return None if best is None else (best[2], best[1])


def collapse_presentation(
    p: GroupPresentation, protect: tuple[int, ...] = ()
) -> GroupPresentation:
    """Eliminate generators before enumeration, tolerating relator growth.

    Conjugation-shaped presentations (x_out = w x_in w^-1) lengthen the
    other relators with every elimination, so a simplifier that never lets
    the total relator length grow would leave them untouched.  Coset
    enumeration is usually far cheaper over two or three generators with
    long relators than over many short ones, so this routine keeps
    eliminating any generator that occurs as a single letter in some
    relator until none is left.  Candidates are taken shortest relator
    first, then lowest generator, then first relator.  It stops at the
    first elimination that would make a relator longer than
    MAX_RELATOR_LENGTH (4096 letters), keeping the presentation from
    before it.  Marked peripheral words are rewritten through every
    elimination; the result presents the same marked group.

    The work is done on the letter tuples Words hold.  A relator
    r = u x_g^s v solves to x_g^s = (v u)^-1, and each occurrence of x_g
    or its inverse elsewhere is replaced by that image or its inverse,
    cancelling only where the pieces meet.  Relators without x_g are kept
    as they are, and the others are cyclically reduced as
    Word.cyclically_reduced does.

    Generators keep their input numbers while others are eliminated.  The
    survivors are renumbered once at the end, in their input order, in
    relators and peripheral words alike; Words are built only
    then, and duplicate relators (up to rotation and inversion) are
    dropped at the same point.

    Generators listed in ``protect`` survive the collapse.  Keeping the
    meridian generator alive lets a caller enumerate its cyclic subgroup
    over a one-letter generator instead of a rewritten conjugation word.
    """
    relators = [r.cols for r in p.relators]
    meridian = None if p.meridian is None else p.meridian.cols
    longitude = None if p.longitude is None else p.longitude.cols
    live = list(range(p.ngens))
    kept = frozenset(protect)

    while len(live) > 1:
        cand = _single_occurrence(relators, kept)
        if cand is None:
            break
        idx, gen = cand
        solved = relators[idx]
        col = 2 * gen
        pos = solved.index(col) if col in solved else solved.index(col + 1)
        rest = solved[pos + 1 :] + solved[:pos]
        # solved is a rotation of x_g^s rest, so x_g^s = rest^-1.
        if solved[pos] == col:
            image, inverse = _inverse(rest), rest
        else:
            image, inverse = rest, _inverse(rest)
        new_rels = []
        for k, r in enumerate(relators):
            if k == idx:
                continue
            sub = _cyclically_reduce(_substitute(r, col, image, inverse))
            if len(sub) > MAX_RELATOR_LENGTH:
                break
            if sub:
                new_rels.append(sub)
        else:
            # Every relator fits under the cap: the elimination stands.
            relators = new_rels
            if meridian is not None:
                meridian = _substitute(meridian, col, image, inverse)
            if longitude is not None:
                longitude = _substitute(longitude, col, image, inverse)
            live.remove(gen)
            continue
        # The cap was hit: keep the presentation from before this elimination.
        break

    colmap = [0] * (2 * p.ngens)
    for i, g in enumerate(live):
        colmap[2 * g], colmap[2 * g + 1] = 2 * i, 2 * i + 1

    def word(w: tuple[int, ...]) -> Word:
        return Word._of(tuple(map(colmap.__getitem__, w)))

    return GroupPresentation(
        ngens=len(live),
        relators=tuple(dedupe_relators(word(r) for r in relators)),
        meridian=None if meridian is None else word(meridian),
        longitude=None if longitude is None else word(longitude),
    )


# --- serialization ----------------------------------------------------------

def format_word(w: Word, names: Sequence[str]) -> str:
    """Letter form: inverses are capitalized, letters space-separated."""
    toks = []
    for g, s in w.letters():
        name = names[g]
        toks.append(name if s > 0 else name[0].upper() + name[1:])
    return " ".join(toks)


def parse_word(text: str, names: Sequence[str]) -> Word:
    index = {n: (i, 1) for i, n in enumerate(names)}
    index.update({n[0].upper() + n[1:]: (i, -1) for i, n in enumerate(names)})
    letters = []
    for tok in text.split():
        if tok not in index:
            raise ValueError(f"unknown generator token {tok!r}")
        g, s = index[tok]
        letters.append((g, s))
    return Word(tuple(letters))
