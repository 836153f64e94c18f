"""Knot group presentations and abelian knot invariants from diagrams.

Generators are arc meridians, one per arc, numbered by the arc ids of the
diagram.  Relator convention at a crossing with sign s:

    out^-1 * over^s * in * over^-s

so the outgoing under-arc is the over-conjugate of the incoming one.  The
meridian is the generator of arc 0 and the longitude is the product of
over-arc letters along the traversal, compensated to exponent sum zero.
The Alexander polynomial comes from the Burau matrix of the braid word the
diagram was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braids import BraidWord
from .diagrams import Crossing, KnotDiagram, TangleDiagram, braid_closure_diagram
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
def alexander_polynomial(diagram: KnotDiagram) -> LaurentPolynomial:
    """Normalized Alexander polynomial: lowest exponent 0, leading sign +.

    I - B is the Alexander matrix of the closure's group <x_i | x_i =
    beta(x_i)>, with B the unreduced Burau matrix of the diagram's braid
    beta: its leading (s-1)x(s-1) minor, for s strands, is the polynomial
    up to a unit.  The diagram must be the closure of its braid, so the
    polynomial is that of the crossings `wirtinger` reads; evaluation at 1
    must be a unit, a guard on the matrix bookkeeping, not the theory.

    A sweep certifies many specs on a few companions, so the polynomial is
    cached per diagram (a frozen value) for the life of the process; the
    polynomial is immutable, so callers share nothing they could change.
    """
    braid = diagram.braid
    if braid is None:
        raise ValueError("the Alexander polynomial needs a diagram built from a braid word")
    if diagram != braid_closure_diagram(braid):
        raise ValueError("diagram is not the closure of its braid word")
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


@dataclass(frozen=True, slots=True)
class NormalInvariantReport:
    """Degree-one comparison data for the surgered surface exterior."""

    arf: int
    label: str


def normal_invariant_report(delta: LaurentPolynomial) -> NormalInvariantReport:
    """Normal invariant data from the companion's Alexander polynomial."""
    a = arf_invariant(delta)
    return NormalInvariantReport(
        arf=a,
        label=f"{a}*PD(T')",
    )
