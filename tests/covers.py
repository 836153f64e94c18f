"""The d-fold cyclic cover of a surgered complement, for cross-checks.

The certifier decides cyclicity from the meridian enumeration and never
builds a cover.  The tests check its verdicts against an independent
route: the surgered group is cyclic of order d exactly when the group of
its d-fold unbranched cyclic cover is trivial.  The cover is presented by
Reidemeister-Schreier on the mod-d meridian-exponent kernel, on top of
rimcert's coset enumerator, so this module imports rimcert and is kept
apart from oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from rimcert.diagrams import braid_closure_diagram
from rimcert.enumeration import DEFAULT_MAX_COSETS, CosetTable, todd_coxeter
from rimcert.groups import GroupPresentation, Word, dedupe_relators, quotient
from rimcert.invariants import wirtinger
from rimcert.surgery import RIM, SurgerySpec


class EnumerationOverflow(RuntimeError):
    """Raised when a subgroup presentation needs a table that did not complete."""


# -- Reidemeister-Schreier ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class SubgroupPresentation:
    """Subgroup presentation on Schreier generators plus rewriting data."""

    presentation: GroupPresentation
    index: int
    transversal: tuple[Word, ...]  # coset -> transversal word in the big group
    schreier_words: tuple[Word, ...]  # subgroup generator -> word in the big group
    table: CosetTable
    _tree: frozenset[tuple[int, int]]
    _gen_index: dict[tuple[int, int], int]

    def rewrite(self, w: Word) -> Word:
        """Rewrite a word of the big group lying in the subgroup."""
        return self._rewrite_from(0, w, expect_return=True)

    def _rewrite_from(self, start: int, w: Word, expect_return: bool) -> Word:
        table = self.table.rows()
        out: list[tuple[int, int]] = []
        c = start
        for g, s in w.letters():
            if s > 0:
                if (c, g) not in self._tree:
                    out.append((self._gen_index[(c, g)], 1))
                c = table[c][2 * g]
            else:
                prev = table[c][2 * g + 1]
                if (prev, g) not in self._tree:
                    out.append((self._gen_index[(prev, g)], -1))
                c = prev
        if expect_return and c != start:
            raise ValueError("word does not lie in the subgroup")
        return Word(tuple(out))


def reidemeister_schreier(
    p: GroupPresentation,
    subgroup: list[Word] | tuple[Word, ...],
    max_cosets: int = DEFAULT_MAX_COSETS,
    deadline: float | None = None,
) -> SubgroupPresentation:
    """Present the subgroup generated by the given words.

    The transversal is Schreier (BFS over the standardized table, columns in
    generator order), generators are the non-tree table edges, and relators
    are the rewrites of every conjugate of every relator by a transversal
    representative.  The free rank bookkeeping index*(ngens-1)+1 holds by
    construction and is asserted.
    """
    result = todd_coxeter(p, subgroup, max_cosets, deadline)
    if not result.complete:
        raise EnumerationOverflow(
            f"coset enumeration exhausted {result.reason} "
            f"(defined {result.cosets_defined}, limit {result.max_cosets})"
        )
    table = result.table
    assert table is not None
    rows = table.rows()
    n = result.index or 1

    transversal: list[Word | None] = [None] * n
    transversal[0] = Word.identity()
    tree: set[tuple[int, int]] = set()
    queue = [0]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for col in range(table.ncols):
            v = rows[c][col]
            if v is not None and transversal[v] is None:
                g = col >> 1
                step = 1 if col % 2 == 0 else -1
                transversal[v] = transversal[c] * Word.gen(g, step)
                tree.add((c, g) if step > 0 else (v, g))
                queue.append(v)
    if any(t is None for t in transversal):
        raise AssertionError("coset table is not connected")

    gen_index: dict[tuple[int, int], int] = {}
    schreier_words: list[Word] = []
    for c in range(n):
        for g in range(p.ngens):
            if (c, g) in tree:
                continue
            target = rows[c][2 * g]
            gen_index[(c, g)] = len(schreier_words)
            schreier_words.append(
                transversal[c] * Word.gen(g) * transversal[target].inverse()
            )
    if p.ngens > 0 and len(schreier_words) != n * (p.ngens - 1) + 1:
        raise AssertionError("Schreier generator count must be n*(rank-1)+1")

    sub = SubgroupPresentation(
        presentation=GroupPresentation(ngens=len(schreier_words)),
        index=n,
        transversal=tuple(transversal),
        schreier_words=tuple(schreier_words),
        table=table,
        _tree=frozenset(tree),
        _gen_index=gen_index,
    )

    relators = dedupe_relators(
        sub._rewrite_from(c, r, expect_return=True)
        for c in range(n)
        for r in p.relators
    )
    final = GroupPresentation(ngens=len(schreier_words), relators=tuple(relators))
    return replace(sub, presentation=final)


# -- cyclic covers of the surgered complement -------------------------------


def meridian_kernel_words(meridian_gen: int, ngens: int, d: int) -> list[Word]:
    """Generators of the kernel of (meridian exponent mod d).

    Schreier generators for the transversal 1, mu, ..., mu^(d-1): each
    non-meridian generator conjugated through the transversal, plus the
    d-th meridian power closing the cycle.
    """
    mu = meridian_gen
    words = []
    for j in range(d):
        for i in range(ngens):
            if i == mu:
                continue
            words.append(
                Word.gen(mu, j) * Word.gen(i) * Word.gen(mu, -((j + 1) % d))
            )
    words.append(Word.gen(mu, d))
    return words


def unbranched_cover_group(
    spec: SurgerySpec, max_cosets: int = DEFAULT_MAX_COSETS
) -> GroupPresentation:
    """Group of the d-fold cyclic cover of the surgered complement.

    The mod-d kernel of the meridian exponent is presented by
    Reidemeister-Schreier, then two relator families are added: the
    rewritten lifts of meridian^d through every transversal representative,
    and the deck/regluing action, one relator per Schreier generator s
    saying s equals its conjugate by w = meridian^m * longitude^n.

    The surgered group is cyclic of order d exactly when this group is
    trivial.  The certifier does not use the cover; acceptance criterion 5
    checks its verdicts against this equivalence on a sample of specs.
    """
    if spec.kind != RIM:
        raise ValueError("covers are built for rim specs")
    base = wirtinger(braid_closure_diagram(spec.braid))
    assert base.meridian == Word.gen(0)
    sub = reidemeister_schreier(
        base, meridian_kernel_words(0, base.ngens, spec.d), max_cosets
    )
    if sub.index != spec.d:
        raise AssertionError(
            f"meridian-exponent kernel has index {sub.index}, expected {spec.d}"
        )
    mu_power = base.meridian ** spec.d
    merid_lifts = [
        sub.rewrite(t * mu_power * t.inverse()) for t in sub.transversal
    ]
    w = (base.meridian ** spec.m) * (base.longitude ** spec.n)
    action = []
    for s_index, s_word in enumerate(sub.schreier_words):
        image = sub.rewrite(w.inverse() * s_word * w)
        action.append(Word.gen(s_index, -1) * image)
    return quotient(sub.presentation, merid_lifts + action)
