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
from dataclasses import dataclass

from .braids import resolve_knot
from .diagrams import (
    KnotDiagram,
    TangleDiagram,
    band_double,
    braid_closure_diagram,
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

    ``knot`` is a closed diagram for plain rim surgery and a doubled-band
    tangle for the annulus flavor.  ``source`` keeps the human-readable
    origin (a table name or braid literal) purely for reporting.
    """

    knot: KnotDiagram | TangleDiagram
    d: int
    m: int = 0
    n: int = 0
    kind: str = RIM
    source: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.m < 0:
            raise ValueError("twist count m must be nonnegative")
        if self.kind == RIM and not isinstance(self.knot, KnotDiagram):
            raise ValueError("rim surgery needs a closed knot diagram")
        if self.kind == ANNULUS and not isinstance(self.knot, TangleDiagram):
            raise ValueError("annulus surgery needs a doubled-band tangle")

    def label(self) -> str:
        src = self.source or f"{len(self.knot.crossings)} crossings"
        return f"{self.kind}({src}, d={self.d}, m={self.m}, n={self.n})"

    def to_json(self) -> dict:
        knot = self.source if self.source is not None else self.knot.to_json()
        return {
            "knot": knot,
            "d": self.d,
            "m": self.m,
            "n": self.n,
            "kind": self.kind,
        }


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


def spec_from_json(doc: dict) -> SurgerySpec:
    """Parse {"knot": name|braid|diagram, "d", "m", "n", "kind"}."""
    check_keys(doc, ("knot", "d", "m", "n", "kind"), "surgery spec")
    if "knot" not in doc or "d" not in doc:
        raise ValueError("surgery spec needs at least 'knot' and 'd'")
    counts = {}
    for key in ("d", "m", "n"):
        value = doc.get(key, 0)
        if not is_integer(value):
            raise ValueError(f"{key} must be an integer")
        counts[key] = value
    kind = doc.get("kind", RIM)
    knot = doc["knot"]
    source = None
    if isinstance(knot, str):
        source = knot
        braid = resolve_knot(knot)
        diagram = braid_closure_diagram(braid)
        knot = band_double(diagram, 0) if kind == ANNULUS else diagram
    elif isinstance(knot, dict):
        loader = TangleDiagram if kind == ANNULUS else KnotDiagram
        knot = loader.from_json(knot)
    else:
        raise ValueError("'knot' must be a name, a braid literal, or a diagram")
    return SurgerySpec(knot=knot, kind=kind, source=source, **counts)


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
        base = wirtinger(spec.knot)
        core = base.meridian
        boundary = [core ** spec.d]
    else:
        base = tangle_wirtinger(spec.knot)
        core = Word(spec.knot.a3)
        a1, a2 = base.meridian, Word(spec.knot.a2)
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
