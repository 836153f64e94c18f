"""Sound cyclicity certification for marked group presentations.

The question is always the same: is the presented group cyclic of the
expected order d?  The answer is three-valued and every "yes" or "no"
carries a finite certificate that a skeptical checker could replay.
One coset enumeration decides it, that of the meridian subgroup.
"inconclusive" is never a guess: either that enumeration hit its limits,
or the meridian does not generate the abelianization, which the
meridian's index needs to prove anything.
"""

from __future__ import annotations

import math
import time

from .abelian import AbelianInvariants, abelian_invariants
from .enumeration import DEFAULT_MAX_COSETS, todd_coxeter
from .groups import (
    GroupPresentation,
    Word,
    collapse_presentation,
    cyclic_normal_form,
    is_integer,
    quotient,
)
from .record import Record

CYCLIC = "cyclic"
NON_CYCLIC = "non_cyclic"
INCONCLUSIVE = "inconclusive"


class CyclicityVerdict(Record):
    """A three-valued answer with its witness and replayable certificate.

    ``order`` is the order d that was asked about, on every status; it is
    not a computed group order.  A derived group order, where there is
    one, is ``witness["group_order"]``.
    """

    __slots__ = ("status", "order", "justification", "witness", "certificate")

    def __init__(self, status: str, order: int, justification: str,
                 witness: dict | None = None, certificate: dict | None = None) -> None:
        self._set(status, order, justification, {} if witness is None else witness,
                  {} if certificate is None else certificate)

    @property
    def certified(self) -> bool:
        return self.status != INCONCLUSIVE

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "order": self.order,
            "certified": self.certified,
            "justification": self.justification,
            "witness": self.witness,
            "certificate": self.certificate,
        }


def _invariants_json(inv: AbelianInvariants) -> dict:
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def check_limits(max_cosets, timeout) -> None:
    """Reject limits that cannot hold or be written back as JSON.

    max_cosets must be a JSON integer >= 1, and timeout null or a finite
    number > 0; nan and inf would be written as NaN or Infinity.  Valid
    limits are left as they are, so a report echoes what it was given.
    """
    if not (is_integer(max_cosets) and max_cosets >= 1):
        raise ValueError("max_cosets must be an integer >= 1")
    finite = type(timeout) in (int, float) and math.isfinite(timeout)
    if timeout is not None and not (finite and timeout > 0):
        raise ValueError("timeout must be a positive number or null")


def certify_cyclic(
    p: GroupPresentation,
    d: int,
    max_cosets: int = DEFAULT_MAX_COSETS,
    timeout: float | None = None,
) -> CyclicityVerdict:
    """Decide whether the presented group is cyclic of order d.

    A wide presentation is first collapsed by Tietze generator
    elimination, which keeps the group and the meridian subgroup; both
    stages then work on that copy.  Stage 1 compares abelian invariants
    (cheap, exact, refutation only), which a collapse does not change.
    Stage 2 enumerates cosets of the marked meridian subgroup, the only
    enumeration.  Index 1 together with the stage-1 abelianization pins
    the group down to Z/d.  A finished index k > 1 refutes cyclicity when
    the meridian generates the abelianization, checked as a trivial
    abelianization of the group with the meridian killed: in a cyclic
    group such an element generates everything.  The group order is then
    k*d when meridian^d is a relator, since the meridian has order exactly
    d; otherwise the index alone is the witness.  When that premise fails
    the index proves nothing, and the run ends inconclusive at stage
    "premise": the whole group is not enumerated.  A surgered group always
    meets the premise, since its meridian normally generates it.  A
    meridian enumeration that overflows ends the run inconclusive.

    Every verdict has order d.  Its certificate holds the stage, that
    stage's records and the limits, and, on every stage after the
    abelianization, a collapsed_presentation record when the input was
    collapsed.
    """
    check_limits(max_cosets, timeout)
    if not (is_integer(d) and d >= 1):
        raise ValueError("expected order must be an integer >= 1")
    if p.meridian is None:
        raise ValueError("presentation has no marked meridian")
    deadline = time.monotonic() + timeout if timeout is not None else None
    limits = {"max_cosets": max_cosets, "timeout": timeout}

    # Abelianize and enumerate a generator-collapsed copy when the
    # presentation is wide: same group, same meridian subgroup, a smaller
    # relator matrix and far fewer table columns.  The meridian generator
    # is protected so the stage-2 subgroup generator stays a single letter
    # instead of a rewritten conjugation word.
    work = p
    collapsed = None
    if p.ngens > 3:
        m = p.meridian
        keep = (m.max_generator(),) if m.length() == 1 else ()
        small = collapse_presentation(p, protect=keep)
        if small.ngens < p.ngens:
            work = small
            collapsed = {
                "generators": small.ngens,
                "relators": len(small.relators),
                "total_relator_length": small.total_relator_length(),
            }

    def verdict(status, justification, witness, stage, **records):
        certificate = {"stage": stage, **records, "limits": limits}
        if collapsed is not None and stage != "abelianization":
            certificate["collapsed_presentation"] = collapsed
        return CyclicityVerdict(status, d, justification, witness, certificate)

    inv = abelian_invariants(work)
    inv_json = _invariants_json(inv)
    if not inv.is_cyclic_of_order(d):
        return verdict(
            NON_CYCLIC,
            f"first homology is {inv}, not that of the cyclic group of "
            f"order {d}",
            {"abelian_invariants": inv_json},
            "abelianization",
        )

    merid = todd_coxeter(work, [work.meridian], max_cosets, deadline)
    if not merid.complete:
        return verdict(
            INCONCLUSIVE,
            "coset enumeration hit its limits before completing; raising "
            "max_cosets or the timeout may settle the question",
            {},
            "overflow",
            meridian_enumeration=merid.stats(),
        )
    if merid.index == 1:
        return verdict(
            CYCLIC,
            "the meridian generates: its subgroup has index 1, and the "
            f"abelianization is already cyclic of order {d}, so the group is "
            "cyclic of that order",
            {"meridian_subgroup_index": 1},
            "meridian_index",
            enumeration=merid.stats(),
            abelian_invariants=inv_json,
        )

    premise = abelian_invariants(quotient(work, [work.meridian]))
    premise_json = _invariants_json(premise)
    if not premise.is_cyclic_of_order(1):
        return verdict(
            INCONCLUSIVE,
            f"the meridian subgroup has index {merid.index} > 1, but the "
            "meridian does not generate the abelianization, so the index "
            "proves nothing; the certifier does not enumerate the whole group",
            {},
            "premise",
            meridian_enumeration=merid.stats(),
            meridian_quotient_invariants=premise_json,
        )
    # The index witness stands on its own; a group order strengthens the
    # certificate.  The meridian generates H1 = Z/d, so its order is a
    # multiple of d, and a meridian^d relator makes it exactly d.
    witness = {"meridian_subgroup_index": merid.index}
    extra = {}
    power = _relator_position(work, work.meridian**d)
    if power is not None:
        witness["group_order"] = merid.index * d
        extra["order_derivation"] = {
            "meridian_order": d,
            "meridian_power_relator": power,
            "meridian_quotient_invariants": premise_json,
        }
    return verdict(
        NON_CYCLIC,
        "the meridian normally generates but its cyclic subgroup has finite "
        f"index {merid.index} > 1; in a cyclic group an element generating "
        "the abelianization generates everything",
        witness,
        "meridian_index",
        enumeration=merid.stats(),
        abelian_invariants=inv_json,
        **extra,
    )


def _relator_position(p: GroupPresentation, w: Word) -> int | None:
    """Index of a relator of p equal to w up to rotation and inversion."""
    w = w.cyclically_reduced()
    n = w.length()
    key = cyclic_normal_form(w)
    for i, r in enumerate(p.relators):
        if r.length() == n and cyclic_normal_form(r) == key:
            return i
    return None

