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
from functools import lru_cache

from .braids import BraidWord, resolve_knot
from .diagrams import band_double, braid_closure_diagram
from .groups import GroupPresentation, Word, commutator, is_integer, quotient
from .invariants import wirtinger
from .record import Record

RIM = "rim"
ANNULUS = "annulus"
KINDS = (RIM, ANNULUS)


class PlotnickMatrix(Record):
    """Regluing that exhibits the twisted cover complement inside S^4.

    ``inverse_residue`` is the least nonnegative inverse of ``twists``
    modulo ``order`` and ``complement`` completes the Bezout identity
    order*complement + twists*inverse_residue = 1.  The general
    homology-sphere gluing form carries two bottom-row parameters; these
    ``rows`` set both to zero, which is what makes the ambient manifold
    standard.
    """

    __slots__ = ("order", "twists", "inverse_residue", "complement", "rows")

    def __init__(self, order: int, twists: int, inverse_residue: int, complement: int,
                 rows: tuple[tuple[int, int, int], ...]) -> None:
        self._set(order, twists, inverse_residue, complement, rows)

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


class SurgerySpec(Record):
    """One surgery instance: what to cut along and how to reglue.

    ``knot`` names the companion: a table name or a braid literal.  Every
    classical knot is a braid closure (Alexander), so the two spellings
    name every companion the construction admits.  ``braid`` is the braid
    word the name resolves to, once, when the spec is made; the spec's
    diagram and its invariants are derived from it.  A name that does not
    resolve fails here, and so do counts that are not ints (a bool is not
    one).  Equality, hashing and the repr leave out ``braid``, which the
    other fields determine.
    """

    __slots__ = ("knot", "d", "m", "n", "kind", "braid")
    _fields = __slots__[:-1]

    def __init__(self, knot: str, d: int, m: int = 0, n: int = 0, kind: str = RIM) -> None:
        # Counts first: a spec document with several faults names its counts.
        for key, value in (("d", d), ("m", m), ("n", n)):
            if not is_integer(value):
                raise ValueError(f"{key} must be an integer")
        if not isinstance(knot, str):
            raise ValueError("'knot' must be a table name or a braid literal")
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if d < 1:
            raise ValueError("d must be a positive integer")
        if m < 0:
            raise ValueError("twist count m must be nonnegative")
        self._set(knot, d, m, n, kind, resolve_knot(knot))

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
def base_group(braid: BraidWord, kind: str) -> tuple[GroupPresentation, Word]:
    """The marked group a `kind` spec cuts along, and its core loop.

    Rim: the group of the braid's closure, whose core loop is the meridian.
    Annulus: the group of its band double at framing 0, marked by the
    boundary loop a1 on strand 1's first arc; the core loop is the
    difference loop a1 * a2^-1, with a2 on strand 2's last arc, where
    strand 1 starts.  A sweep certifies many specs on a few companions, so
    each (braid, kind) is built once per process; groups and words are
    frozen, so the specs share them.
    """
    if kind == ANNULUS:
        diagram = band_double(braid, 0)
        base = wirtinger(diagram)
        return base, base.meridian * Word.gen(diagram.strands[1][-1], -1)
    base = wirtinger(braid_closure_diagram(braid))
    return base, base.meridian


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
    """Parse {"knot": name|braid, "d", "m", "n", "kind"}.

    Only ``knot`` and ``d`` are required; `SurgerySpec` rejects a ``knot``
    that is not a string and counts that are not JSON integers.
    """
    check_keys(doc, ("knot", "d", "m", "n", "kind"), "surgery spec")
    if "knot" not in doc or "d" not in doc:
        raise ValueError("surgery spec needs at least 'knot' and 'd'")
    return SurgerySpec(
        knot=doc["knot"],
        d=doc["d"],
        m=doc.get("m", 0),
        n=doc.get("n", 0),
        kind=doc.get("kind", RIM),
    )


# -- surgered groups --------------------------------------------------------


def surgery_recipe(spec: SurgerySpec) -> tuple[GroupPresentation, Word, list[Word]]:
    """The base group marked by the surface meridian, the conjugator and
    the boundary relators.

    Rim: the knot group; the regluing kills meridian^d.  Annulus: the band
    tangle's group, marked by the first boundary loop a1; the regluing
    kills a1^d and the difference loop a1 * a2^-1, and identifies the two
    strand meridians.  The conjugator is longitude^n * core^m, where the
    core loop is the meridian (rim) or the difference loop, the meridian
    of the band's core circle (annulus).  The two factors commute in the
    group but not freely; the order is fixed once here.
    """
    base, core = base_group(spec.braid, spec.kind)
    boundary = [base.meridian ** spec.d]
    if spec.kind == ANNULUS:
        # The difference loop dies and the strand meridians agree: one word,
        # a1 * a2^-1, entered twice.  ROADMAP decision 9c owns dropping the
        # duplicate, which changes the reports' relator counts.
        boundary += [core, core]
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
