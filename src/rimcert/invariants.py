"""Knot group presentations and abelian knot invariants from diagrams.

Generators are arc meridians, one per arc, numbered by the arc ids of the
diagram.  Relator convention at a crossing with sign s:

    out^-1 * over^s * in * over^-s

so the outgoing under-arc is the over-conjugate of the incoming one.  The
meridian is the generator of arc 0 and the longitude is the product of
over-arc letters along a strand, compensated to exponent sum zero.
The Alexander polynomial comes from the Burau matrix of the braid word
that the closure diagram is built from.
"""

from __future__ import annotations

from functools import lru_cache

from .braids import BraidWord
from .diagrams import Crossing, Diagram
from .groups import GroupPresentation, Word
from .laurent import LaurentPolynomial, poly_determinant
from .record import Record


def _crossing_relator(c: Crossing) -> Word:
    return Word(
        (
            (c.under_out, -1),
            (c.over, c.sign),
            (c.under_in, 1),
            (c.over, -c.sign),
        )
    )


def wirtinger(diagram: Diagram) -> GroupPresentation:
    """Group of the diagram, marked by the generator of the first strand's
    first arc and by the longitude of its last strand.

    For a closure that is the knot group with its meridian and longitude;
    for a band tangle, the mark is the boundary loop a1 and the longitude
    runs along the second strand.  With the out = over^s * in * over^-s
    relator convention, the framed push-off picks up the inverse
    over-meridian at each underpass; a power of the strand's last arc then
    cancels its linking with itself, so at framing zero the tangle's
    longitude also links the first strand zero times.  The sign pairing is
    forced: the wrong pairing fails [longitude, meridian] = 1, checked in
    finite quotients by the tests.
    """
    arcs = diagram.strands[-1]
    by_in = {c.under_in: c for c in diagram.crossings}
    letters = [(by_in[a].over, -by_in[a].sign) for a in arcs[:-1]]
    strand = set(arcs)
    letters.append((arcs[-1], -sum(s for g, s in letters if g in strand)))
    return GroupPresentation(
        ngens=diagram.n_arcs,
        relators=tuple(_crossing_relator(c) for c in diagram.crossings),
        meridian=Word.gen(diagram.strands[0][0]),
        longitude=Word(letters),
    )


# -- Alexander polynomial -------------------------------------------------


def _burau(braid: BraidWord) -> list[list[LaurentPolynomial]]:
    """Unreduced Burau matrix of the braid, one 2x2 block per letter.

    sigma_i acts on strands i, i+1 by [[1-t, t], [1, 0]] and its inverse
    by [[0, 1], [t^-1, 1-t^-1]]; the running matrix is right-multiplied by
    each letter's block, so only columns i and i+1 change.
    """
    one, zero = LaurentPolynomial.one(), LaurentPolynomial.zero()
    t, t_inv = LaurentPolynomial((1,), 1), LaurentPolynomial((1,), -1)
    u, u_inv = one - t, one - t_inv
    s = braid.strands
    b = [[one if i == j else zero for j in range(s)] for i in range(s)]
    for l in braid.letters:
        i = abs(l) - 1
        for row in b:
            x, y = row[i], row[i + 1]
            if l > 0:
                row[i], row[i + 1] = u * x + y, t * x
            else:
                row[i], row[i + 1] = t_inv * y, x + u_inv * y
    return b


@lru_cache(maxsize=64)
def alexander_polynomial(braid: BraidWord) -> LaurentPolynomial:
    """Normalized Alexander polynomial of the braid's closure, which must be
    a knot: lowest exponent 0, leading sign +.

    I - B is the Alexander matrix of the closure's group <x_i | x_i =
    beta(x_i)>, with B the unreduced Burau matrix of the braid beta: its
    leading (s-1)x(s-1) minor, for s strands, is the polynomial up to a
    unit.  Evaluation at 1 must be a unit, a guard on the matrix
    bookkeeping, not the theory.

    A sweep certifies many specs on a few companions, so the polynomial is
    cached per braid (a frozen value) for the life of the process; the
    polynomial is immutable, so callers share nothing they could change.
    """
    if not braid.is_knot():
        raise ValueError("braid closure is a link, not a knot")
    k = braid.strands - 1
    minor = [row[:k] for row in _burau(braid)[:k]]
    for i, row in enumerate(minor):
        row[i] -= LaurentPolynomial.one()
    # det(B - I) is det(I - B) up to sign, which normalizing drops.
    delta = poly_determinant(minor).normalized()
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


class NormalInvariantReport(Record):
    """Degree-one comparison data for the surgered surface exterior."""

    __slots__ = ("arf", "label")

    def __init__(self, arf: int, label: str) -> None:
        self._set(arf, label)


def normal_invariant_report(delta: LaurentPolynomial) -> NormalInvariantReport:
    """Normal invariant data from the companion's Alexander polynomial."""
    a = arf_invariant(delta)
    return NormalInvariantReport(
        arf=a,
        label=f"{a}*PD(T')",
    )
