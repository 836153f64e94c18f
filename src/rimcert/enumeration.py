"""Coset enumeration.

The enumerator is the relator-based HLT strategy with coincidence handling
and a lookahead pass when the table fills up.  Everything is deterministic:
relators are scanned in the presentation's normalized order, undefined
entries are filled lowest coset first, lowest column first, and coincidences
always keep the smallest coset number as representative.  Outcomes are
values, not exceptions: either Complete(index) with the finished table or
Overflow with the limit that was hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import eq

from .groups import GroupPresentation, Word

DEFAULT_MAX_COSETS = 100_000


class _TableFull(Exception):
    pass


class _Deadline(Exception):
    pass


class CosetTable:
    """Rows are cosets, columns alternate generator and inverse."""

    __slots__ = (
        "ngens",
        "ncols",
        "table",
        "p",
        "defined",
        "limit",
        "deadline",
    )

    def __init__(self, ngens: int, limit: int, deadline: float | None = None):
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p: list[int] = [0]
        self.defined = 1
        self.limit = limit
        self.deadline = deadline

    # -- bookkeeping ---------------------------------------------------

    def is_alive(self, c: int) -> bool:
        return self.p[c] == c

    def _poll(self) -> None:
        """Raise _Deadline once the deadline has passed.

        Callers poll once per 1024 definitions, merges or lookahead rows,
        which keeps the clock reads off the hot path.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Deadline

    def define(self, alpha: int, col: int) -> int:
        if len(self.table) >= self.limit:
            raise _TableFull
        if self.defined & 1023 == 0:
            self._poll()
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.defined += 1
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        return beta

    def coincidence(self, alpha: int, beta: int) -> None:
        """Merge two cosets and everything their merge forces.

        Each merge keeps the smaller representative and queues the larger
        one, whose row is then folded into its representative's.  Finding
        a representative walks the parent list without compressing it:
        only the parents of dead cosets would differ, and compress needs
        nothing from those except that each is smaller than its child.
        """
        table, p = self.table, self.p
        while p[alpha] != alpha:
            alpha = p[alpha]
        while p[beta] != beta:
            beta = p[beta]
        if alpha == beta:
            return
        if alpha > beta:
            alpha, beta = beta, alpha
        p[beta] = alpha
        queue = [beta]
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            if qi & 1023 == 0:
                self._poll()
            row = table[gamma]
            for x, delta in enumerate(row):
                if delta is None:
                    continue
                xi = x ^ 1
                table[delta][xi] = None
                mu = gamma
                while p[mu] != mu:
                    mu = p[mu]
                nu = delta
                while p[nu] != nu:
                    nu = p[nu]
                phi = table[mu][x]
                if phi is not None:
                    psi = nu
                else:
                    phi = table[nu][xi]
                    if phi is None:
                        table[mu][x] = nu
                        table[nu][xi] = mu
                        continue
                    psi = mu
                # Merge the class of phi with psi, a representative already.
                while p[phi] != phi:
                    phi = p[phi]
                if phi < psi:
                    p[psi] = phi
                    queue.append(psi)
                elif phi > psi:
                    p[phi] = psi
                    queue.append(phi)

    # -- scanning --------------------------------------------------------

    def scan(self, alpha: int, word: tuple[int, ...]) -> None:
        """Scan word from alpha, defining cosets until it closes."""
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j:
                nxt = table[f][word[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                prev = table[b][word[j] ^ 1]
                if prev is None:
                    break
                b = prev
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])

    def lookahead(self, relators: list[tuple[int, ...]], start: int) -> None:
        """Scan each relator from each live coset from start on; define none.

        Rows below start must be complete, as HLT leaves the rows below its
        cursor.  This is the non-filling scan, inlined: one forward and one
        backward pass per relator.  A gap of one letter is filled as a
        deduction, and a scan whose two ends meet at different cosets merges
        them; only such a merge can kill alpha.
        """
        table, p = self.table, self.p
        scans = [(r, tuple(x ^ 1 for x in r), len(r) - 1) for r in relators]
        for alpha in range(start, len(table)):
            if alpha & 1023 == 1023:
                self._poll()
            if p[alpha] != alpha:
                continue
            for word, back, last in scans:
                f, i = alpha, 0
                while i <= last:
                    nxt = table[f][word[i]]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                if i > last:
                    if f != alpha:
                        self.coincidence(f, alpha)
                        if p[alpha] != alpha:
                            break
                    continue
                b, j = alpha, last
                while j >= i:
                    prev = table[b][back[j]]
                    if prev is None:
                        break
                    b = prev
                    j -= 1
                if j < i:
                    self.coincidence(f, b)
                    if p[alpha] != alpha:
                        break
                elif j == i:
                    table[f][word[i]] = b
                    table[b][back[i]] = f

    def compress(self) -> int:
        """Renumber the live cosets 0..n-1 and return how many were freed.

        A dead coset's parent is always a smaller coset (merges keep the
        smaller number), so one ascending pass maps every coset, dead or
        alive, to the new number of its representative.  The enumeration
        compresses once, when its table is complete, and does not poll.
        """
        p = self.p
        new = [0] * len(p)
        live: list[int] = []
        for c, parent in enumerate(p):
            if parent == c:
                new[c] = len(live)
                live.append(c)
            else:
                new[c] = new[parent]
        table = self.table
        self.table = [
            [None if v is None else new[v] for v in table[c]] for c in live
        ]
        self.p = list(range(len(live)))
        return len(p) - len(live)

    def standardize(self) -> None:
        n = len(self.table)
        order: dict[int, int] = {0: 0}
        queue = [0]
        qi = 0
        while qi < len(queue):
            c = queue[qi]
            qi += 1
            for col in range(self.ncols):
                v = self.table[c][col]
                if v is not None and v not in order:
                    order[v] = len(order)
                    queue.append(v)
        for c in range(n):
            order.setdefault(c, len(order))
        new: list[list[int | None]] = [[] for _ in range(n)]
        for c in range(n):
            new[order[c]] = [
                order[v] if v is not None else None for v in self.table[c]
            ]
        self.table = new


@dataclass(frozen=True, slots=True)
class EnumerationResult:
    complete: bool
    index: int | None
    cosets_defined: int
    max_cosets: int
    reason: str | None = None  # "max_cosets" | "timeout" when incomplete
    table: CosetTable | None = None

    def stats(self) -> dict:
        return {
            "complete": self.complete,
            "index": self.index,
            "cosets_defined": self.cosets_defined,
            "max_cosets": self.max_cosets,
            "reason": self.reason,
        }


def _overflow(table: CosetTable, max_cosets: int, reason: str) -> EnumerationResult:
    return EnumerationResult(
        complete=False,
        index=None,
        cosets_defined=table.defined,
        max_cosets=max_cosets,
        reason=reason,
    )


def _finish(table: CosetTable, max_cosets: int) -> EnumerationResult:
    table.compress()
    table.standardize()
    return EnumerationResult(
        complete=True,
        index=len(table.table),
        cosets_defined=table.defined,
        max_cosets=max_cosets,
        table=table,
    )


def _hlt(
    relators: list[tuple[int, ...]],
    subgroup_cols: list[tuple[int, ...]],
    ngens: int,
    max_cosets: int,
    deadline: float | None,
) -> EnumerationResult:
    """HLT, with a lookahead round each time the table fills.

    The rows below alpha are complete, so HLT resumes and lookahead starts
    there; merges keep the smaller coset, so no round needs a renumbering.
    The enumeration gives up after a round that frees under 5% of
    max_cosets, leaves the table full, or frees so few rows, against the
    round before it, that the next round is predicted to free under 5%.
    """
    table = CosetTable(ngens, max_cosets, deadline)
    alpha = 0
    floor = max(1, max_cosets // 20)
    last = max_cosets
    try:
        while True:
            try:
                for w in subgroup_cols:
                    table.scan(0, w)
                while alpha < len(table.table):
                    if table.is_alive(alpha):
                        for r in relators:
                            if not table.is_alive(alpha):
                                break
                            table.scan(alpha, r)
                        if table.is_alive(alpha):
                            row = table.table[alpha]
                            for col in range(table.ncols):
                                if row[col] is None:
                                    table.define(alpha, col)
                    alpha += 1
                break
            except _TableFull:
                pass
            table.lookahead(relators, alpha)
            # A lookahead that recovers under 5% of the budget is thrashing,
            # not converging; repeated full rescans would burn seconds for a
            # few hundred cosets of headroom.  Rounds decay, so the next one
            # is predicted to free freed * (freed / last): give up when that
            # is under 5% too, rather than pay for a round that would fail.
            # A round that passed freed at least floor rows, so last >= floor
            # and the one test also catches a round that freed under 5%.
            # Dead rows stay put and the limit grows by them, so define and
            # freed count what they would count in a compressed table.
            live = sum(map(eq, table.p, range(len(table.p))))
            dead = len(table.p) - live
            freed = dead - (table.limit - max_cosets)
            if freed * freed < last * floor or live >= max_cosets:
                return _overflow(table, max_cosets, "max_cosets")
            last = freed
            table.limit = max_cosets + dead
    except _Deadline:
        # Lookahead and coincidence poll the deadline too, so it can fire
        # outside a definition.
        return _overflow(table, max_cosets, "timeout")
    # No poll past this point: the table is complete, and a late deadline
    # must not throw it away.
    return _finish(table, max_cosets)


def todd_coxeter(
    p: GroupPresentation,
    subgroup: list[Word] | tuple[Word, ...] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
    deadline: float | None = None,
) -> EnumerationResult:
    """Enumerate cosets of <subgroup> in the presented group.

    Returns Complete(index) with a compressed, standardized table, or an
    Overflow result naming the exhausted limit.  A later retry with a larger
    limit can only turn Overflow into Complete, never change an index.
    Relators are scanned whole (HLT) and lookahead recovers space when the
    table fills.  The limit is exhausted when a lookahead round frees under
    5% of max_cosets, or when its yield freed * (freed / last), with last
    the previous round's yield (max_cosets before the first round), predicts
    a next round under 5%.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    relators = [r.cols for r in p.relators]
    subgroup_cols = [w.cols for w in subgroup]
    for w in subgroup:
        if w.max_generator() >= p.ngens:
            raise ValueError("subgroup word uses an undefined generator")
    return _hlt(relators, subgroup_cols, p.ngens, max_cosets, deadline)
