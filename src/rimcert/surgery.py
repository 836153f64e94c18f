"""Surgered-complement group presentations and the associated gluing data.

The surgeries cut out a circle's neighborhood and reglue it with a twist
(m times around the surface meridian) and a roll (n times around the
companion longitude).  At the group level the regluing does two things:
it kills the d-th power of the surface meridian and forces every
generator to commute with the conjugator word w built from the twist and
roll counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .braids import resolve_knot
from .diagrams import (
    KnotDiagram,
    TangleDiagram,
    band_double,
    braid_closure_diagram,
    check_keys,
    is_integer,
)
from .groups import GroupPresentation, Word, commutator, quotient
from .invariants import tangle_wirtinger, wirtinger

RIM = "rim"
ANNULUS = "annulus"
KINDS = (RIM, ANNULUS)


@dataclass(frozen=True, slots=True)
class PlotnickMatrix:
    """Regluing that exhibits the twisted cover complement inside S^4.

    ``inverse_residue`` is the least nonnegative inverse of ``twists``
    modulo ``order`` and ``complement`` completes the Bezout identity
    order*complement + twists*inverse_residue = 1.  The general
    homology-sphere gluing form carries two bottom-row parameters; these
    ``rows`` set both to zero, which is what makes the ambient manifold
    standard.
    """

    order: int
    twists: int
    inverse_residue: int
    complement: int
    rows: tuple[tuple[int, int, int], ...]

    def determinant(self) -> int:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )


def plotnick_matrix(d: int, m: int) -> PlotnickMatrix:
    """Build the standard-ambient gluing for coprime order and twist count."""
    if d < 1:
        raise ValueError("cover order must be positive")
    if math.gcd(d, m) != 1:
        raise ValueError(f"twist count {m} and order {d} must be coprime")
    beta = pow(m, -1, d)
    gamma = (1 - m * beta) // d
    mat = PlotnickMatrix(
        order=d,
        twists=m,
        inverse_residue=beta,
        complement=gamma,
        rows=((m, d, 0), (-gamma, beta, 0), (0, 0, 1)),
    )
    if d * gamma + m * beta != 1:
        raise AssertionError("Bezout identity failed")
    if mat.determinant() != 1:
        raise AssertionError("matrix determinant must be 1")
    return mat


# -- surgery specifications -------------------------------------------------


@dataclass(frozen=True, slots=True)
class SurgerySpec:
    """One surgery instance: what to cut along and how to reglue.

    ``knot`` names the companion: a table name or a braid literal.  Every
    classical knot is a braid closure (Alexander), so the two spellings
    name every companion the construction admits.  ``diagram`` is what
    `named_diagram` resolves the name to for this ``kind``, once, when the
    spec is made: the braid closure for rim surgery and its band double at
    framing 0 for the annulus flavor.  A name that does not resolve fails
    here.
    """

    knot: str
    d: int
    m: int = 0
    n: int = 0
    kind: str = RIM
    diagram: KnotDiagram | TangleDiagram = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.knot, str):
            raise ValueError("'knot' must be a table name or a braid literal")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.m < 0:
            raise ValueError("twist count m must be nonnegative")
        object.__setattr__(self, "diagram", named_diagram(self.knot, self.kind))

    def label(self) -> str:
        return f"{self.kind}({self.knot}, d={self.d}, m={self.m}, n={self.n})"

    def to_json(self) -> dict:
        return {
            "knot": self.knot,
            "d": self.d,
            "m": self.m,
            "n": self.n,
            "kind": self.kind,
        }


@lru_cache(maxsize=64)
def named_diagram(text: str, kind: str) -> KnotDiagram | TangleDiagram:
    """The diagram that a knot name or braid literal gives a `kind` spec.

    The braid closure for rim, and its band double for annulus.  A sweep
    names a few companions over many specs, so each (text, kind) is
    resolved, closed and checked once per process; diagrams are frozen, so
    the specs share them.  A name that does not resolve raises every time:
    lru_cache keeps no exceptions.
    """
    if kind == ANNULUS:
        return band_double(named_diagram(text, RIM), 0)
    return braid_closure_diagram(resolve_knot(text))


def spec_from_json(doc: dict) -> SurgerySpec:
    """Parse {"knot": name|braid, "d", "m", "n", "kind"}.

    Only ``knot`` and ``d`` are required; the counts are JSON integers, and
    a ``knot`` that is not a string is rejected by `SurgerySpec`.
    """
    check_keys(doc, ("knot", "d", "m", "n", "kind"), "surgery spec")
    if "knot" not in doc or "d" not in doc:
        raise ValueError("surgery spec needs at least 'knot' and 'd'")
    counts = {}
    for key in ("d", "m", "n"):
        value = doc.get(key, 0)
        if not is_integer(value):
            raise ValueError(f"{key} must be an integer")
        counts[key] = value
    return SurgerySpec(knot=doc["knot"], kind=doc.get("kind", RIM), **counts)


# -- surgered groups --------------------------------------------------------


def surgery_recipe(spec: SurgerySpec) -> tuple[GroupPresentation, Word, list[Word]]:
    """The base group marked by the surface meridian, the conjugator and
    the boundary relators.

    Rim: the knot group; the regluing kills meridian^d.  Annulus: the band
    tangle's group, marked by the first boundary loop a1; the regluing
    kills a1^d and the difference loop a3, and identifies the two strand
    meridians.  The conjugator is longitude^n * core^m, where the core
    loop is the meridian (rim) or a3, the meridian of the band's core
    circle (annulus).  The two factors commute in the group but not
    freely; the order is fixed once here.
    """
    if spec.kind == RIM:
        base = wirtinger(spec.diagram)
        core = base.meridian
        boundary = [core ** spec.d]
    else:
        base = tangle_wirtinger(spec.diagram)
        core = Word(spec.diagram.a3)
        a1, a2 = base.meridian, Word(spec.diagram.a2)
        boundary = [a1 ** spec.d, core, a1 * a2.inverse()]
    return base, (base.longitude ** spec.n) * (core ** spec.m), boundary


def surgered_group(spec: SurgerySpec) -> GroupPresentation:
    """Group of the complement after the spec's surgery.

    Relators on top of the base group: the boundary relators, and one
    commutator per generator forcing the conjugator to be central.
    """
    base, w, extra = surgery_recipe(spec)
    if not w.is_identity():
        extra += [commutator(Word.gen(i), w) for i in range(base.ngens)]
    return quotient(base, extra)
