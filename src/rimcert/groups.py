"""Freely reduced words and finite group presentations.

Words are stored run-length encoded as (generator, exponent) syllables so
that high powers such as mu^d stay short.  Generators are 0-based integer
indices; exponents are nonzero.  Adjacent syllables always have distinct
generators, which is exactly the freely reduced normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Syllable = tuple[int, int]


def _reduce_syllables(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """Merge adjacent syllables with equal generators, dropping zeros.

    One stack pass suffices: a syllable that cancels is popped, and the next
    syllable is merged with the neighbour that the pop exposed.
    """
    out: list[list[int]] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if gen < 0:
            raise ValueError(f"negative generator index {gen}")
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word in a free group on indexed generators."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self) -> None:
        reduced = _reduce_syllables(self.syllables)
        if reduced != self.syllables:
            object.__setattr__(self, "syllables", reduced)

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def gen(index: int, exp: int = 1) -> "Word":
        return Word(((index, exp),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "Word":
        if k == 0:
            return Word(())
        base = self if k > 0 else self.inverse()
        return Word(base.syllables * abs(k))

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        """Number of letters (total absolute exponent)."""
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> Iterator[tuple[int, int]]:
        """Yield single letters (gen, +1|-1) left to right."""
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield g, step

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the identity."""
        return max((g for g, _ in self.syllables), default=-1)

    def exponent_sum(self, gen: int | None = None) -> int:
        if gen is None:
            return sum(e for _, e in self.syllables)
        return sum(e for g, e in self.syllables if g == gen)

    def cyclically_reduced(self) -> "Word":
        syls = list(self.syllables)
        while len(syls) > 1 and syls[0][0] == syls[-1][0]:
            g = syls[0][0]
            head, tail = syls[0][1], syls[-1][1]
            if head + tail == 0:
                syls = syls[1:-1]
            else:
                syls = [(g, head + tail)] + syls[1:-1]
                break
        return Word(tuple(syls))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return "*".join(
            f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in self.syllables
        )


def commutator(a: Word, b: Word) -> Word:
    return a.inverse() * b.inverse() * a * b


def _relator_sort_key(w: Word) -> tuple:
    return (w.length(), w.syllables)


def default_generator_names(ngens: int) -> tuple[str, ...]:
    """a..z for the first 26 generators, then g26, g27, ..."""
    names = []
    for i in range(ngens):
        names.append(chr(ord("a") + i) if i < 26 else f"g{i}")
    return tuple(names)


@dataclass(frozen=True, slots=True)
class GroupPresentation:
    """<x0..x{ngens-1} | relators>, optionally with peripheral words.

    Relators are cyclically reduced, nonempty, and ordered by length then
    lexicographically so that identical groups enumerate identically.
    """

    ngens: int
    relators: tuple[Word, ...] = ()
    meridian: Word | None = None
    longitude: Word | None = None
    gen_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.ngens < 0:
            raise ValueError("generator count must be nonnegative")
        rels = []
        for r in self.relators:
            if not isinstance(r, Word):
                r = Word(tuple(r))
            if r.max_generator() >= self.ngens:
                raise ValueError(
                    f"relator {r} uses a generator outside x0..x{self.ngens - 1}"
                )
            r = r.cyclically_reduced()
            if not r.is_identity():
                rels.append(r)
        rels.sort(key=_relator_sort_key)
        object.__setattr__(self, "relators", tuple(rels))
        for name, w in (("meridian", self.meridian), ("longitude", self.longitude)):
            if w is not None and w.max_generator() >= self.ngens:
                raise ValueError(f"{name} word uses an undefined generator")
        if self.gen_names is not None:
            names = tuple(self.gen_names)
            if len(names) != self.ngens:
                raise ValueError("gen_names length must equal ngens")
            object.__setattr__(self, "gen_names", names)

    def names(self) -> tuple[str, ...]:
        return self.gen_names or default_generator_names(self.ngens)

    def total_relator_length(self) -> int:
        return sum(r.length() for r in self.relators)


def quotient(p: GroupPresentation, extra_relators: Iterable[Word]) -> GroupPresentation:
    """Add relators; peripheral data carries over unchanged."""
    extra = tuple(extra_relators)
    for r in extra:
        if r.max_generator() >= p.ngens:
            raise ValueError(f"extra relator {r} uses an undefined generator")
    return GroupPresentation(
        ngens=p.ngens,
        relators=p.relators + extra,
        meridian=p.meridian,
        longitude=p.longitude,
        gen_names=p.gen_names,
    )


# --- relator normal forms, for duplicate detection and relator lookup -----


def word_columns(w: Word) -> tuple[int, ...]:
    """Letters as single ints: 2g for x_g, 2g+1 for its inverse.

    These are also the coset-table columns the enumerator scans.
    """
    return tuple(2 * g if s > 0 else 2 * g + 1 for g, s in w.letters())


def cyclic_normal_form(w: Word) -> tuple[int, ...]:
    """Least rotation of the letter sequence of w and of w^-1."""
    best: tuple[int, ...] | None = None
    for cand in (w, w.inverse()):
        letters = word_columns(cand)
        n = len(letters)
        for i in range(max(n, 1)):
            rot = letters[i:] + letters[:i]
            if best is None or rot < best:
                best = rot
    return best if best is not None else ()


# --- generator elimination -------------------------------------------------


def _substitute_generator(w: Word, gen: int, image: Word, inverse: Word) -> Word:
    """Replace gen by image, and its inverse by inverse, inside w."""
    syls: list[Syllable] = []
    for g, e in w.syllables:
        if g != gen:
            syls.append((g, e))
            continue
        img = image if e > 0 else inverse
        for _ in range(abs(e)):
            syls.extend(img.syllables)
    return Word(tuple(syls))


# Collapse stops at the first substitution that would make a relator longer
# than this many letters.
MAX_RELATOR_LENGTH = 4096


def _renumber(w: Word, index: dict[int, int]) -> Word:
    return Word(tuple((index[g], e) for g, e in w.syllables))


def dedupe_relators(relators: Iterable[Word]) -> list[Word]:
    """Cyclically reduced relators, without identities, one per class.

    Relators that are rotations or inverses of an earlier one are dropped.
    """
    seen: set[tuple[int, ...]] = set()
    out = []
    for r in relators:
        r = r.cyclically_reduced()
        key = cyclic_normal_form(r)
        if key and key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _find_single_occurrence(
    relators: list[Word], protect: frozenset[int] = frozenset()
) -> tuple[int, int] | None:
    """(relator index, generator) where the generator occurs exactly once.

    The occurrence must be a single letter in that relator; candidates are
    ordered by relator length then generator index for determinism.
    Generators in ``protect`` are never offered for elimination.
    """
    best: tuple[int, int, int] | None = None
    for idx, r in enumerate(relators):
        per_gen: dict[int, int] = {}
        for g, e in r.syllables:
            per_gen[g] = per_gen.get(g, 0) + abs(e)
        for g, c in sorted(per_gen.items()):
            if c == 1 and g not in protect:
                key = (r.length(), g, idx)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[2], best[1]


def _solve_for(r: Word, gen: int) -> Word:
    """Given relator r containing gen exactly once, express gen's value."""
    letters = list(r.letters())
    pos = next(i for i, (g, _) in enumerate(letters) if g == gen)
    sign = letters[pos][1]
    # rotate so the gen letter is first: r ~ g^sign * w  =>  g^sign = w^-1
    rest = letters[pos + 1 :] + letters[:pos]
    w = Word(tuple(rest))
    return w.inverse() if sign > 0 else w


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
    relator until none is left.  It stops at the first elimination that
    would make a relator longer than MAX_RELATOR_LENGTH (4096 letters),
    keeping the presentation from before it.  Marked peripheral words are
    rewritten through every elimination; the result presents the same
    marked group.

    Generators keep their input numbers while others are eliminated.  The
    survivors are renumbered once at the end, in their input order, in
    relators, peripheral words and names alike; duplicate relators (up to
    rotation and inversion) are dropped at the same point.

    Generators listed in ``protect`` survive the collapse.  Keeping the
    meridian generator alive lets a caller enumerate its cyclic subgroup
    over a one-letter generator instead of a rewritten conjugation word.
    """
    relators = list(p.relators)
    meridian = p.meridian
    longitude = p.longitude
    live = list(range(p.ngens))
    kept = frozenset(protect)

    while len(live) > 1:
        cand = _find_single_occurrence(relators, kept)
        if cand is None:
            break
        idx, gen = cand
        image = _solve_for(relators[idx], gen)
        inverse = image.inverse()
        new_rels = []
        ok = True
        for k, r in enumerate(relators):
            if k == idx:
                continue
            sub = _substitute_generator(r, gen, image, inverse).cyclically_reduced()
            if sub.length() > MAX_RELATOR_LENGTH:
                ok = False
                break
            if not sub.is_identity():
                new_rels.append(sub)
        if not ok:
            break
        relators = new_rels
        if meridian is not None:
            meridian = _substitute_generator(meridian, gen, image, inverse)
        if longitude is not None:
            longitude = _substitute_generator(longitude, gen, image, inverse)
        live.remove(gen)

    index = {g: i for i, g in enumerate(live)}
    names = p.names()
    return GroupPresentation(
        ngens=len(live),
        relators=tuple(_renumber(r, index) for r in dedupe_relators(relators)),
        meridian=None if meridian is None else _renumber(meridian, index),
        longitude=None if longitude is None else _renumber(longitude, index),
        gen_names=tuple(names[g] for g in live),
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
