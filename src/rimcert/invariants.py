"""Knot group presentations and abelian knot invariants from diagrams.

Generators are arc meridians, one per arc, numbered by the arc ids of the
diagram.  Relator convention at a crossing with sign s:

    out^-1 * over^s * in * over^-s

so the outgoing under-arc is the over-conjugate of the incoming one.  The
meridian is the generator of arc 0 and the longitude is the product of
over-arc letters along the traversal, compensated to exponent sum zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagrams import Crossing, KnotDiagram, TangleDiagram
from .groups import GroupPresentation, Word
from .laurent import LaurentPolynomial, poly_determinant


def _crossing_relator(c: Crossing) -> Word:
    return Word(
        (
            (c.under_out, -1),
            (c.over, c.sign),
            (c.under_in, 1),
            (c.over, -c.sign),
        )
    )


def _marked_group(
    crossings: tuple[Crossing, ...], n_arcs: int, meridian: Word, arcs: tuple[int, ...]
) -> GroupPresentation:
    """Crossing relators, marked by `meridian` and by the longitude of the
    strand that runs along `arcs`.

    With the out = over^s * in * over^-s relator convention, the framed
    push-off picks up the inverse over-meridian at each underpass; a power
    of the last arc then cancels the strand's linking with itself.  The
    sign pairing is forced: the wrong pairing fails [longitude, meridian]
    = 1, checked in finite quotients by the tests.
    """
    by_in = {c.under_in: c for c in crossings}
    letters = [(by_in[a].over, -by_in[a].sign) for a in arcs[:-1]]
    strand = set(arcs)
    letters.append((arcs[-1], -sum(s for g, s in letters if g in strand)))
    return GroupPresentation(
        ngens=n_arcs,
        relators=tuple(_crossing_relator(c) for c in crossings),
        meridian=meridian,
        longitude=Word(letters),
    )


def wirtinger(diagram: KnotDiagram) -> GroupPresentation:
    """Knot group of the diagram with meridian and longitude marked.

    Arcs are numbered in traversal order, so the longitude walks them in
    order and closes up on arc 0.
    """
    arcs = (*range(len(diagram.crossings)), 0)
    return _marked_group(diagram.crossings, diagram.n_arcs, Word.gen(0), arcs)


def tangle_wirtinger(tangle: TangleDiagram) -> GroupPresentation:
    """Group of the doubled-band tangle, marked by the boundary loop a1.

    The longitude runs along the second strand with its own linking
    cancelled, so at framing zero it also links the first strand zero
    times.
    """
    return _marked_group(tangle.crossings, tangle.n_arcs, Word(tangle.a1), tangle.strand2)


# -- Fox calculus ---------------------------------------------------------


def _poly(coeffs: dict[int, int]) -> LaurentPolynomial:
    coeffs = {e: c for e, c in coeffs.items() if c != 0}
    if not coeffs:
        return LaurentPolynomial.zero()
    lo, hi = min(coeffs), max(coeffs)
    return LaurentPolynomial(
        tuple(coeffs.get(e, 0) for e in range(lo, hi + 1)), lo
    )


def fox_derivative(w: Word, gen: int) -> LaurentPolynomial:
    """Free derivative of w by the generator, abelianized gen -> t.

    Every generator is sent to t, which is the right specialization for
    knot groups where all arc meridians are conjugate.
    """
    coeffs: dict[int, int] = {}
    prefix = 0
    for g, s in w.letters():
        if g == gen:
            # x contributes t^prefix; x^-1 contributes -t^(prefix - 1).
            at = prefix if s > 0 else prefix - 1
            coeffs[at] = coeffs.get(at, 0) + s
        prefix += s
    return _poly(coeffs)


def alexander_matrix(diagram: KnotDiagram) -> list[list[LaurentPolynomial]]:
    """Fox derivative matrix, one row per crossing, one column per arc."""
    return [
        [fox_derivative(_crossing_relator(c), g) for g in range(diagram.n_arcs)]
        for c in diagram.crossings
    ]


@lru_cache(maxsize=64)
def alexander_polynomial(diagram: KnotDiagram) -> LaurentPolynomial:
    """Normalized Alexander polynomial: lowest exponent 0, leading sign +.

    Two independent minors of the column-deleted Fox matrix are computed
    and must agree; evaluation at 1 must be a unit.  Both checks guard the
    crossing bookkeeping, not the theory.

    A sweep certifies many specs on a few companions, so the polynomial is
    cached per diagram (a frozen value) for the life of the process; the
    polynomial is immutable, so callers share nothing they could change.
    """
    c = len(diagram.crossings)
    if c == 0:
        return LaurentPolynomial.one()
    rows = alexander_matrix(diagram)
    reduced = [row[1:] for row in rows]

    def minor(skip: int) -> LaurentPolynomial:
        mat = [row for i, row in enumerate(reduced) if i != skip]
        return poly_determinant(mat).normalized()

    delta = minor(0)
    check = minor(c - 1)
    if c > 1 and delta != check:
        raise AssertionError("row-deleted minors disagree")
    if delta.evaluate(1) not in (1, -1):
        raise AssertionError("polynomial must evaluate to a unit at 1")
    return delta


def knot_determinant(delta: LaurentPolynomial) -> int:
    """|Delta(-1)| of a knot's Alexander polynomial Delta."""
    return abs(delta.evaluate(-1))


def arf_invariant(delta: LaurentPolynomial) -> int:
    """Arf invariant of a knot from its Alexander polynomial Delta.

    Levine: the Arf invariant is 0 exactly when the determinant |Delta(-1)|
    is 1 or 7 mod 8.
    """
    det = knot_determinant(delta)
    if det % 2 == 0:
        raise AssertionError("knot determinant must be odd")
    return 0 if det % 8 in (1, 7) else 1


@dataclass(frozen=True, slots=True)
class NormalInvariantReport:
    """Degree-one comparison data for the surgered surface exterior."""

    arf: int
    normally_trivial: bool
    label: str


def normal_invariant_report(delta: LaurentPolynomial) -> NormalInvariantReport:
    """Normal invariant data from the companion's Alexander polynomial."""
    a = arf_invariant(delta)
    return NormalInvariantReport(
        arf=a,
        normally_trivial=(a == 0),
        label=f"{a}*PD(T')",
    )
