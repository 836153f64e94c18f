"""Knot and tangle diagrams built by sweeping braid words.

A diagram is a list of crossings over arc identifiers.  Arcs are the
maximal overpasses of the curve: a new arc starts every time the curve
dives under a crossing.  Arc ids are assigned in traversal order, so arc 0
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

from dataclasses import dataclass

from .braids import BraidWord


def is_integer(value) -> bool:
    """A JSON integer: an int that is not a bool (floats and strings fail)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_keys(doc, allowed: tuple[str, ...], what: str) -> None:
    """Reject a `doc` that is not a JSON object or has keys outside `allowed`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = [k for k in doc if k not in allowed]
    if unknown:
        raise ValueError(
            f"unknown {what} keys {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(allowed)}"
        )


def _check_over_arcs(crossings: tuple[Crossing, ...], n_arcs: int) -> None:
    if any(not (0 <= x.over < n_arcs) for x in crossings):
        raise ValueError("crossing references an unknown over arc")


@dataclass(frozen=True, slots=True)
class Crossing:
    over: int
    under_in: int
    under_out: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("crossing sign must be +1 or -1")


@dataclass(frozen=True, slots=True)
class KnotDiagram:
    """A one-component closed diagram, checked by `validate` when made."""

    crossings: tuple[Crossing, ...]
    n_arcs: int
    writhe: int
    braid: BraidWord | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crossings", tuple(self.crossings))
        self.validate()

    def validate(self) -> None:
        c = len(self.crossings)
        if self.writhe != sum(x.sign for x in self.crossings):
            raise ValueError("stored writhe disagrees with crossing signs")
        if c == 0:
            if self.n_arcs != 1:
                raise ValueError("a crossingless knot diagram has exactly one arc")
            return
        if self.n_arcs != c:
            raise ValueError("a knot diagram has as many arcs as crossings")
        # Arcs are numbered in traversal order: arc k dives under into arc
        # k+1, and the last arc closes up into arc 0.  The longitude reads
        # the underpasses in this order, and it also makes the diagram one
        # component.
        if sorted(x.under_in for x in self.crossings) != list(range(c)):
            raise ValueError("each arc must end exactly one underpass")
        if any(x.under_out != (x.under_in + 1) % c for x in self.crossings):
            raise ValueError("arcs must be numbered in traversal order")
        _check_over_arcs(self.crossings, self.n_arcs)


@dataclass(frozen=True, slots=True)
class TangleDiagram:
    """Two open strands in a ball, with the three marked boundary loops.

    `strand1` and `strand2` list each strand's arcs in order along its own
    orientation; the strands are anti-parallel copies of the source knot,
    so strand 1 starts where strand 2 ends.  The boundary loops are signed
    arc sequences at that shared end, derived from the strands: a1 and a2
    each encircle one arc, a3 = a1 * a2^-1 encircles both.  The tangle is
    checked when it is made, with its arc lists stored as tuples.
    """

    crossings: tuple[Crossing, ...]
    n_arcs: int
    strand1: tuple[int, ...]
    strand2: tuple[int, ...]

    def __post_init__(self) -> None:
        for key in ("crossings", "strand1", "strand2"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        self.validate()

    @property
    def a1(self) -> tuple[tuple[int, int], ...]:
        return ((self.strand1[0], 1),)

    @property
    def a2(self) -> tuple[tuple[int, int], ...]:
        return ((self.strand2[-1], 1),)

    @property
    def a3(self) -> tuple[tuple[int, int], ...]:
        return self.a1 + ((self.strand2[-1], -1),)

    def validate(self) -> None:
        arcs = sorted(self.strand1 + self.strand2)
        if not (self.strand1 and self.strand2) or arcs != list(range(self.n_arcs)):
            raise ValueError("strand arc lists must partition the arcs")
        if len(self.crossings) != self.n_arcs - 2:
            raise ValueError("a two-strand tangle has two more arcs than crossings")
        by_in = {x.under_in: x for x in self.crossings}
        if len(by_in) != len(self.crossings):
            raise ValueError("an arc ends at more than one underpass")
        for strand in (self.strand1, self.strand2):
            for a, b in zip(strand, strand[1:]):
                x = by_in.get(a)
                if x is None or x.under_out != b:
                    raise ValueError("strand arcs are not chained by underpasses")
        _check_over_arcs(self.crossings, self.n_arcs)


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
) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
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
        strands.append(arcs)
        arc += 1
    return list(zip(over, under_in, under_out)), strands


def braid_closure_diagram(braid: BraidWord) -> KnotDiagram:
    """Diagram of the braid closure; requires a one-component closure."""
    if not braid.is_knot():
        raise ValueError("braid closure is a link, not a knot")
    k = len(braid.letters)
    if k == 0:
        return KnotDiagram(crossings=(), n_arcs=1, writhe=0, braid=braid)

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
    return KnotDiagram(crossings, n_arcs=k, writhe=braid.writhe(), braid=braid)


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


def band_double(diagram: KnotDiagram, framing: int) -> TangleDiagram:
    """Double the knot into the two boundary arcs of a band with `framing`.

    Every crossing of the source becomes four crossings between the copies;
    |framing - writhe| clasp pairs bring the blackboard framing to the
    requested one.  The copies are anti-parallel: the second strand runs
    against the braid direction.
    """
    if diagram.braid is None:
        raise ValueError("band doubling needs a diagram built from a braid word")
    braid = diagram.braid
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
    t = TangleDiagram(
        crossings=crossings,
        n_arcs=s2[-1] + 1,
        strand1=s1,
        strand2=s2,
    )
    if len(crossings) != 4 * len(braid.letters) + 2 * clasp_pairs:
        raise AssertionError("doubling must yield 4c + 2|framing - writhe| crossings")
    return t
