"""Knot and tangle diagrams built by sweeping braid words.

A braid word names the companion; a diagram is only ever derived from
one, by `braid_closure_diagram` or `band_double`, never given.  It is a
list of crossings over arc identifiers.  Arcs are the maximal overpasses
of the curve: a new arc starts every time the curve dives under a
crossing.  Arc ids are assigned in traversal order, so arc 0
of a closed braid is the arc entering strand 1 at the top; its Wirtinger
generator is the marked meridian downstream.

Band doubling replaces every strand of the source braid by two parallel
copies (each crossing becomes four) and appends clasp pairs until the band
framing matches the request; the closure arcs of the first pair are then
cut, leaving a two-strand tangle in a ball with four boundary points.  The
two boundary arcs of the band are anti-parallel, which is what makes the
loop around both of them a product x * y^-1 of their meridians.
"""

from __future__ import annotations

from .braids import BraidWord
from .record import Record


class Crossing(Record):
    __slots__ = ("over", "under_in", "under_out", "sign")

    def __init__(self, over: int, under_in: int, under_out: int, sign: int) -> None:
        self._set(over, under_in, under_out, sign)


class Diagram(Record):
    """Crossings over `n_arcs` arcs, and the arcs of each strand in order.

    A closure has one strand, whose arcs are numbered in traversal order:
    arc k dives under into arc k+1, and the last arc closes up into arc 0,
    which the strand lists again at its end.  A band tangle has two open
    strands, anti-parallel copies of the source knot, so strand 1 starts
    where strand 2 ends.  Arc 0 starts the first strand in both.
    """

    __slots__ = ("crossings", "n_arcs", "strands")

    def __init__(self, crossings: tuple[Crossing, ...], n_arcs: int,
                 strands: tuple[tuple[int, ...], ...]) -> None:
        self._set(crossings, n_arcs, strands)


def _walk(
    letters: list[int] | tuple[int, ...], start: int, ends: tuple[int, ...]
) -> tuple[list[tuple[int, bool]], int]:
    """Follow the strand that enters the top of position `start`.

    The strand runs down through the letters and back up the closure arcs
    until it leaves the bottom at a position in `ends`.  Returns its
    passages (letter index, over?) in drawing order and that end position.
    """
    passages: list[tuple[int, bool]] = []
    pos = start
    while True:
        for h, l in enumerate(letters):
            i = abs(l) - 1
            if pos == i or pos == i + 1:
                passages.append((h, (l > 0) == (pos == i)))
                pos = i + 1 if pos == i else i
        if pos in ends:
            return passages, pos


def _number_arcs(
    walks: list[list[tuple[int, bool]]], n: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, ...]]]:
    """Number arcs along the walks in order, a new arc after each underpass.

    Returns the (over, under_in, under_out) arcs of each of the n crossings
    and the arcs of each walk.
    """
    over, under_in, under_out = [-1] * n, [-1] * n, [-1] * n
    strands = []
    arc = 0
    for walk in walks:
        arcs = [arc]
        for h, is_over in walk:
            if is_over:
                over[h] = arc
            else:
                under_in[h] = arc
                arc += 1
                under_out[h] = arc
                arcs.append(arc)
        strands.append(tuple(arcs))
        arc += 1
    return list(zip(over, under_in, under_out)), strands


def braid_closure_diagram(braid: BraidWord) -> Diagram:
    """Diagram of the braid closure; requires a one-component closure."""
    if not braid.is_knot():
        raise ValueError("braid closure is a link, not a knot")
    k = len(braid.letters)
    if k == 0:
        return Diagram(crossings=(), n_arcs=1, strands=((0,),))

    # Walk the whole knot from the top of position 0; each crossing is met
    # twice, once over and once under.  The arc after the last underpass is
    # the closing arc, which is arc 0 again.
    walk, _ = _walk(braid.letters, 0, (0,))
    arcs, (strand,) = _number_arcs([walk], k)
    if len(strand) != k + 1:
        raise AssertionError("traversal must dive under every crossing once")
    crossings = tuple(
        Crossing(o % k, i, u % k, 1 if l > 0 else -1)
        for (o, i, u), l in zip(arcs, braid.letters)
    )
    return Diagram(crossings, n_arcs=k, strands=((*range(k), 0),))


def _double_letters(braid: BraidWord, framing: int) -> tuple[list[int], int]:
    """2-cable the braid word and append clasp letters; returns (letters, clasps)."""
    doubled: list[int] = []
    for l in braid.letters:
        j = abs(l)
        if l > 0:
            doubled.extend([2 * j, 2 * j - 1, 2 * j + 1, 2 * j])
        else:
            doubled.extend([-2 * j, -(2 * j + 1), -(2 * j - 1), -2 * j])
    twists = framing - braid.writhe()
    s = 1 if twists > 0 else -1
    doubled.extend([s] * (2 * abs(twists)))
    return doubled, abs(twists)


def band_double(braid: BraidWord, framing: int) -> Diagram:
    """Double the braid's closure into the two boundary arcs of a band with
    `framing`; requires a one-component closure.

    Every crossing of the source becomes four crossings between the copies;
    |framing - writhe| clasp pairs bring the blackboard framing to the
    requested one.  The copies are anti-parallel: the second strand runs
    against the braid direction.
    """
    if not braid.is_knot():
        raise ValueError("braid closure is a link, not a knot")
    letters, clasp_pairs = _double_letters(braid, framing)

    # The closure arcs of positions 0 and 1 are cut to form the tangle ends.
    (walk1, end1), (walk2, end2) = (_walk(letters, p, (0, 1)) for p in (0, 1))
    if end1 != 0 or end2 != 1:
        raise AssertionError("doubled strands must come back to the cut pair")
    seen = sorted(h for w in (walk1, walk2) for h, _ in w)
    if seen != sorted(list(range(len(letters))) * 2):
        raise AssertionError("every doubled crossing is passed exactly twice")

    # The second copy is oriented against the drawing, so its passages run
    # in reverse and every mixed crossing flips sign.
    on_strand2 = [0] * len(letters)
    for h, _ in walk2:
        on_strand2[h] += 1
    arcs, (s1, s2) = _number_arcs([walk1, walk2[::-1]], len(letters))
    crossings = tuple(
        Crossing(*a, (1 if l > 0 else -1) * (-1 if on2 == 1 else 1))
        for a, l, on2 in zip(arcs, letters, on_strand2)
    )
    if len(crossings) != 4 * len(braid.letters) + 2 * clasp_pairs:
        raise AssertionError("doubling must yield 4c + 2|framing - writhe| crossings")
    return Diagram(crossings, n_arcs=s2[-1] + 1, strands=(s1, s2))
