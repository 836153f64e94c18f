"""Coset enumeration.

The enumerator is the relator-based HLT strategy with coincidence handling
and a lookahead pass when the table fills up.  Everything is deterministic:
relators are scanned in the presentation's normalized order, undefined
entries are filled lowest coset first, lowest column first, and coincidences
always keep the smallest coset number as representative.  Outcomes are
values, not exceptions: either Complete(index) with the finished table or
Overflow with the limit that was hit.

The table is stored by column, one list per letter, so that a scan step is
two subscripts: each relator's views, the column lists its letters read
forward and the columns of their inverses read backward, are built once per
enumeration, and a step from coset f at letter i is fw[i][f].
CosetTable.define is the one place cosets are defined: a chain of them
along a view, appended to every column by one list extension.  HLT fills
the gap its two walks leave in a relator with one chain, and a row's empty
entries with chains of one; on decided specs nearly all of these cosets
die in coincidences.  A complete table is renumbered once, breadth-first
from coset 0, which skips its dead rows.  Lookahead reads a relator's
first forward and last backward entry at a coset before it scans: a scan
of two or more letters that can step neither way does nothing, and about a
sixth of the lookahead scans of an overflowing enumeration are skipped
that way.
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
    """One list per column: cols[x][c] is coset c times letter x.

    Columns alternate generator and inverse, so letter x ^ 1 is the inverse
    of letter x.  A definition appends one entry to every column.  Columns
    are never replaced, only rebuilt in place, so the views of a relator
    (see views) stay valid for the whole enumeration.
    """

    __slots__ = (
        "ncols",
        "cols",
        "p",
        "defined",
        "limit",
        "deadline",
    )

    def __init__(self, ngens: int, limit: int, deadline: float | None = None):
        self.ncols = 2 * ngens
        self.cols: list[list[int | None]] = [[None] for _ in range(self.ncols)]
        self.p: list[int] = [0]
        self.defined = 1
        self.limit = limit
        self.deadline = deadline

    # -- bookkeeping ---------------------------------------------------

    def rows(self) -> list[list[int | None]]:
        """The table one list per coset, dead cosets included."""
        cols = self.cols
        return [[col[c] for col in cols] for c in range(len(self.p))]

    def views(self, word: tuple[int, ...]) -> tuple[tuple, tuple]:
        """The columns a scan of word reads, built once per enumeration.

        fw[i] is the column of word[i] and bw[i] that of its inverse, so a
        step forward from f is fw[i][f] and a step backward from b, which
        reads the word from its end, is bw[j][b].
        """
        col = self.cols.__getitem__
        return tuple(map(col, word)), tuple(map(col, map((1).__xor__, word)))

    def _poll(self) -> None:
        """Raise _Deadline once the deadline has passed.

        Callers poll once per 1024 definitions, merges or lookahead rows,
        which keeps the clock reads off the hot path.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Deadline

    def define(self, f: int, view: tuple[tuple, tuple], i: int, n: int) -> int:
        """Define n cosets along view from coset f at letter i; return the last.

        The first new coset is fw[i][f], the next is fw[i + 1] of that one,
        and so on, each inverse entry set to match.  At the limit the chain
        stops where single definitions would and _TableFull is raised.  The
        deadline is polled once per 1024 definitions, splitting the chain.
        """
        fw, bw = view
        p, cols = self.p, self.cols
        room = self.limit - len(p)
        stop = i + min(n, room)
        while i < stop:
            defined = self.defined
            if defined & 1023 == 0:
                self._poll()
            k = min(stop - i, 1024 - (defined & 1023))
            beta = len(p)
            # p and the columns share the new coset numbers' int objects.
            chain = list(range(beta, beta + k))
            pad = [None] * k
            for col in cols:
                col += pad
            p += chain
            self.defined = defined + k
            for beta in chain:
                fw[i][f] = beta
                bw[i][beta] = f
                f = beta
                i += 1
        if n > room:
            raise _TableFull
        return f

    def coincidence(self, alpha: int, beta: int) -> None:
        """Merge two cosets and everything their merge forces.

        Each merge keeps the smaller representative and queues the larger
        one, whose entries are then folded into its representative's.
        Finding a representative walks the parent list without compressing
        it: only the parents of dead cosets would differ, and only compress
        reads those, needing no more than that each is below its child.
        """
        p = self.p
        while p[alpha] != alpha:
            alpha = p[alpha]
        while p[beta] != beta:
            beta = p[beta]
        if alpha == beta:
            return
        if alpha > beta:
            alpha, beta = beta, alpha
        p[beta] = alpha
        # Each column beside its inverse's, in column order.
        cols = self.cols
        pairs = [(col, cols[x ^ 1]) for x, col in enumerate(cols)]
        queue = [beta]
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            if qi & 1023 == 0:
                self._poll()
            for col, inv in pairs:
                delta = col[gamma]
                if delta is None:
                    continue
                inv[delta] = None
                mu = gamma
                while p[mu] != mu:
                    mu = p[mu]
                nu = delta
                while p[nu] != nu:
                    nu = p[nu]
                phi = col[mu]
                if phi is not None:
                    psi = nu
                else:
                    phi = inv[nu]
                    if phi is None:
                        col[mu] = nu
                        inv[nu] = mu
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

    def scan(self, alpha: int, view: tuple[tuple, tuple]) -> None:
        """Scan a word's views from alpha, defining cosets until it closes.

        The word must be freely reduced.  A gap of j - i > 1 letters is
        filled by one chain of j - i fresh cosets and the closing deduction,
        which is what defining them one at a time gives: a fresh coset's
        only entry is in the inverse column of the letter that defined it,
        and the next letter of a reduced word never reads that column, so
        the forward walk stops at each fresh coset.  The backward walk
        stands on a coset b that the chain does not create, and a definition
        changes what b reads only when f == b and bw[j] is fw[i]; then one
        coset is defined alone and the walks go on.
        """
        fw, bw = view
        f, i = alpha, 0
        b, j = alpha, len(fw) - 1
        while True:
            while i <= j:
                nxt = fw[i][f]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                prev = bw[j][b]
                if prev is None:
                    break
                b = prev
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                fw[i][f] = b
                bw[i][b] = f
                return
            n = 1 if f == b and bw[j] is fw[i] else j - i
            f = self.define(f, view, i, n)
            i += n

    def lookahead(self, views: list[tuple[tuple, tuple]], start: int) -> None:
        """Scan each relator from each live coset from start on; define none.

        Rows below start must be complete, as HLT leaves the rows below its
        cursor.  This is the non-filling scan, inlined: one forward and one
        backward pass per relator.  A gap of one letter is filled as a
        deduction, and a scan whose two ends meet at different cosets merges
        them; only such a merge can kill alpha.  A scan of two or more
        letters that can step neither forward nor backward from alpha does
        nothing, so it is skipped after reading those two entries.
        """
        p = self.p
        scans = [(fw, bw, fw[0], bw[-1], len(fw) - 1) for fw, bw in views]
        for alpha in range(start, len(p)):
            if alpha & 1023 == 1023:
                self._poll()
            if p[alpha] != alpha:
                continue
            for fw, bw, first, back, last in scans:
                f = first[alpha]
                if f is None:
                    if last and back[alpha] is None:
                        continue
                    f, i = alpha, 0
                else:
                    i = 1
                    while i <= last:
                        nxt = fw[i][f]
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
                    prev = bw[j][b]
                    if prev is None:
                        break
                    b = prev
                    j -= 1
                if j < i:
                    self.coincidence(f, b)
                    if p[alpha] != alpha:
                        break
                elif j == i:
                    fw[i][f] = b
                    bw[i][b] = f

    def compress(self) -> int:
        """Renumber the live cosets 0..n-1 and return how many were freed.

        A dead coset's parent is always a smaller coset (merges keep the
        smaller number), so one ascending pass maps every coset, dead or
        alive, to the new number of its representative.  The enumeration
        does not call it, as standardize drops dead rows itself; it serves
        a round loop that restarts HLT from coset 0, as a test oracle does.
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
        for col in self.cols:
            col[:] = [None if v is None else new[v] for v in map(col.__getitem__, live)]
        p[:] = range(len(live))
        return len(new) - len(live)

    def standardize(self) -> int:
        """Renumber breadth-first from coset 0; return how many cosets remain.

        The table must be complete.  Then every live coset is reached from
        coset 0, and no live row names a dead coset, since coincidence
        reroutes every entry into a coset it kills.  So the walk reaches
        exactly the live cosets, and the dead rows are dropped unread.  It
        does not poll.
        """
        cols = self.cols
        order: list[int | None] = [None] * len(self.p)
        order[0] = 0
        queue = [0]
        for c in queue:
            for col in cols:
                v = col[c]
                if v is not None and order[v] is None:
                    order[v] = len(queue)
                    queue.append(v)
        for col in cols:
            col[:] = [
                None if v is None else order[v] for v in map(col.__getitem__, queue)
            ]
        self.p[:] = range(len(queue))
        return len(queue)


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
    return EnumerationResult(
        complete=True,
        index=table.standardize(),
        cosets_defined=table.defined,
        max_cosets=max_cosets,
        table=table,
    )


def todd_coxeter(
    p: GroupPresentation,
    subgroup: list[Word] | tuple[Word, ...] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
    deadline: float | None = None,
) -> EnumerationResult:
    """Enumerate cosets of <subgroup> in the presented group.

    Returns Complete(index) with a standardized table, or an Overflow
    result naming the exhausted limit.  A later retry with a larger limit
    can only turn Overflow into Complete, never change an index.  HLT scans
    relators whole, then defines a row's empty entries one coset each.
    Each time the table fills, a lookahead round recovers space.  The rows
    below the HLT cursor alpha are complete, so HLT resumes and lookahead
    starts there; merges keep the smaller coset, so no round renumbers.
    The limit is exhausted when a round frees under 5% of max_cosets,
    leaves the table full, or has a yield freed * (freed / last), with last
    the previous round's yield (max_cosets at first), predicting a next
    round under 5%.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    for w in subgroup:
        if w.max_generator() >= p.ngens:
            raise ValueError("subgroup word uses an undefined generator")
    table = CosetTable(p.ngens, max_cosets, deadline)
    parent, cols = table.p, table.cols
    views = [table.views(r.cols) for r in p.relators]
    subgroup_views = [table.views(w.cols) for w in subgroup]
    letter_views = [table.views((x,)) for x in range(table.ncols)]
    alpha = 0
    floor = max(1, max_cosets // 20)
    last = max_cosets
    try:
        while True:
            try:
                for v in subgroup_views:
                    table.scan(0, v)
                while alpha < len(parent):
                    if parent[alpha] == alpha:
                        for v in views:
                            if parent[alpha] != alpha:
                                break
                            table.scan(alpha, v)
                        if parent[alpha] == alpha:
                            for col, view in zip(cols, letter_views):
                                if col[alpha] is None:
                                    table.define(alpha, view, 0, 1)
                    alpha += 1
                break
            except _TableFull:
                pass
            table.lookahead(views, alpha)
            # A lookahead that recovers under 5% of the budget is thrashing,
            # not converging; repeated full rescans would burn seconds for a
            # few hundred cosets of headroom.  Rounds decay, so the next one
            # is predicted to free freed * (freed / last): give up when that
            # is under 5% too, rather than pay for a round that would fail.
            # A round that passed freed at least floor rows, so last >= floor
            # and the one test also catches a round that freed under 5%.
            # Dead rows stay put and the limit grows by them, so define and
            # freed count what they would count in a compressed table.
            live = sum(map(eq, parent, range(len(parent))))
            dead = len(parent) - live
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
