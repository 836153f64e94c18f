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
die in coincidences.  No row is removed before the table is complete, so
the cosets defined are the table's length.  A complete table is
renumbered once, breadth-first from coset 0, which skips its dead rows.
Lookahead is most of the time of an enumeration that overflows.  It runs
as a pass generated for the presentation's relator pattern, how many
relators there are and which have four or more letters, with one
straight-line block per relator and that relator's columns bound to local
names.  A pass is compiled the first time a table with its pattern needs a
lookahead and cached per pattern, so nothing compiles at import or for an
enumeration whose table never fills.  A block reads at most the first two
steps each way before it walks: in a relator of four or more letters,
walks of at most one step each leave a gap of two or more letters, where
the scan neither deduces nor merges, so it moves on.  That settles about
60% of the scans of a full overflowing table.  Every other scan walks,
deduces and merges as the plain loop over relators does, in the same
order, so each pass leaves the same rows and parents.
"""

from __future__ import annotations

import gc
import time
from functools import lru_cache
from operator import eq

from .groups import GroupPresentation, Word, is_integer
from .record import Record

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
    (see views) and the column pairs coincidence reads stay valid for the
    whole enumeration.  Dead cosets keep their rows until standardize, so
    len(p) is the number of cosets defined.
    """

    __slots__ = (
        "ncols",
        "cols",
        "pairs",
        "p",
        "limit",
        "deadline",
    )

    def __init__(self, ngens: int, limit: int, deadline: float | None = None):
        self.ncols = 2 * ngens
        self.cols: list[list[int | None]] = [[None] for _ in range(self.ncols)]
        # Each column beside its inverse's, in column order, for coincidence.
        self.pairs = [(col, self.cols[x ^ 1]) for x, col in enumerate(self.cols)]
        self.p: list[int] = [0]
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

        Callers poll once per 1024 definitions or merges, lookahead once
        per up to 1024 rows and view building once per 2^20 letters, which
        keeps the clock reads off the hot path.
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
            beta = len(p)
            if beta & 1023 == 0:
                self._poll()
            k = min(stop - i, 1024 - (beta & 1023))
            # p and the columns share the new coset numbers' int objects.
            chain = list(range(beta, beta + k))
            pad = [None] * k
            for col in cols:
                col += pad
            p += chain
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
        it: compressing would change only the parents of dead cosets, and
        every walk reaches the same representative either way.
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
        pairs = self.pairs
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
        cursor.  Each scan is the non-filling scan, one forward and one
        backward walk: a gap of one letter is filled as a deduction, and a
        scan whose two ends meet at different cosets merges them; only such
        a merge can kill alpha, which ends alpha's scans.  The deadline is
        polled by work: every 2^(20 - b) rows, b the bit length of the views'
        total letters, but at least every row and at most every 1024 rows, so
        short relators keep a poll per 1024 rows and long ones walk no more
        than about 2^20 letters per poll.  The pass is the one _lookahead_pass
        compiles for the views' pattern.  It reads the first two steps of a
        relator of four or more letters each way before it walks: a scan
        whose walks take at most one step each leaves a gap of two or more
        letters, which neither deduces nor merges, so it is skipped exactly.
        The garbage collector is paused for the pass: binding the walks
        builds a tuple per relator letter, which would start hundreds of
        collections on long relators, and the pass makes no cycles.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            letters = sum(len(fw) for fw, _ in views)
            mask = (1 << max(0, min(10, 20 - letters.bit_length()))) - 1
            pattern = tuple(len(fw) >= 4 for fw, _ in views)
            _lookahead_pass(pattern)(self, views, start, mask)
        finally:
            if enabled:
                gc.enable()

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


# The lookahead pass that _lookahead_pass generates.  Each relator k binds
# its views W{k} (forward) and V{k} (backward) and L{k}, the index of its
# last letter, to locals, with the columns of its first step each way, F{k}
# and B{k}, and the (index, column) pairs its walks read: R{k} backward from
# letter L{k} down to 0, and E{k} forward from letter 1.  A relator of four
# or more letters binds its second steps, G{k} and C{k}, and the walks past
# them, H{k} forward from letter 2 and S{k} backward from letter L{k} - 2, in
# place of E{k}.  The loop over alpha holds one block per relator.
#
# A backward walk is not stopped where the forward walk stopped, at letter
# i: it only reads, and if it passes letter i, a walk stopped there would
# have met the forward walk, so merge walks to that meeting point again.
# That is the rare case; the common one saves a test per step.
_PASS = """\
def lookahead(table, views, start, mask):
    p = table.p
    coincidence = table.coincidence
    poll = table._poll

    def merge(alpha, f, i, back):
        b = alpha
        for j, col in back:
            if j < i:
                break
            b = col[b]
        coincidence(f, b)
        return p[alpha] != alpha
{binds}
    for alpha in range(start, len(p)):
        if alpha & mask == mask:
            poll()
        if p[alpha] != alpha:
            continue
{blocks}"""

_BIND = """\
    W{k}, V{k} = views[{k}]
    L{k} = len(W{k}) - 1
    F{k}, B{k} = W{k}[0], V{k}[L{k}]
    R{k} = tuple(enumerate(V{k}))[::-1]
"""

_BIND_SHORT = _BIND + """\
    E{k} = tuple(enumerate(W{k}))[1:]
"""

_BIND_LONG = _BIND + """\
    G{k}, C{k} = W{k}[1], V{k}[L{k} - 1]
    H{k}, S{k} = tuple(enumerate(W{k}))[2:], R{k}[2:]
"""

# The backward walk along {back} from b, then what the two walks found: a
# merge when they met (which may kill alpha and so end its scans), or a
# deduction when one letter is left.  {ind} indents it.
_BACK = """\
{ind}for j, col in {back}:
{ind}    prev = col[b]
{ind}    if prev is None:
{ind}        break
{ind}    b = prev
{ind}else:
{ind}    j = -1
{ind}if j < i:
{ind}    if merge(alpha, f, i, R{k}):
{ind}        continue
{ind}elif j == i:
{ind}    W{k}[i][f] = b
{ind}    V{k}[i][b] = f
"""

# The forward walk; a scan it completes merges its ends.
_FORWARD = """\
            for i, col in {walk}:
                nxt = col[f]
                if nxt is None:
                    break
                f = nxt
            else:
                i = L{k} + 1
            if i > L{k}:
                if f != alpha:
                    coincidence(f, alpha)
                    if p[alpha] != alpha:
                        continue
            else:
                b = alpha
{back}"""

# One to three letters: scanned unless both first steps are undefined in a
# relator of two or more letters.
_BLOCK = """\
        f = F{k}[alpha]
        if f is not None:
{forward}        elif not L{k} or B{k}[alpha] is not None:
            f, i, b = alpha, 0, alpha
{rest}"""

# Four or more letters: scanned only when a walk takes two steps, since
# walks of at most one step each leave a gap of two or more letters.  The
# steps the test took are not taken again.
_BLOCK_LONG = """\
        f = F{k}[alpha]
        if f is not None and (g := G{k}[f]) is not None:
            f = g
{forward}        elif (b := B{k}[alpha]) is not None and (g := C{k}[b]) is not None:
            if f is None:
                f, i = alpha, 0
            else:
                i = 1
            b = g
{rest}"""


@lru_cache(maxsize=64)
def _lookahead_pass(pattern: tuple[bool, ...]):
    """The lookahead pass for relators whose lengths follow pattern.

    pattern[k] says whether relator k has four or more letters.  The pass is
    compiled the first time a table with this pattern needs a lookahead, and
    every later table with it shares the compiled pass.
    """
    binds, blocks = [], []
    for k, long in enumerate(pattern):
        walk, rest = (f"H{k}", f"S{k}") if long else (f"E{k}", f"R{k}")
        back = _BACK.format(ind=" " * 16, back=f"R{k}", k=k)
        binds.append((_BIND_LONG if long else _BIND_SHORT).format(k=k))
        blocks.append((_BLOCK_LONG if long else _BLOCK).format(
            k=k,
            forward=_FORWARD.format(walk=walk, back=back, k=k),
            rest=_BACK.format(ind=" " * 12, back=rest, k=k),
        ))
    source = _PASS.format(binds="".join(binds), blocks="".join(blocks))
    namespace: dict = {}
    exec(compile(source, "<lookahead>", "exec"), namespace)
    return namespace["lookahead"]


class EnumerationResult(Record):
    # index is None when incomplete, and reason then names the limit that was
    # hit: "max_cosets" or "timeout".
    __slots__ = ("index", "cosets_defined", "max_cosets", "reason", "table")

    def __init__(self, index: int | None, cosets_defined: int, max_cosets: int,
                 reason: str | None = None, table: CosetTable | None = None) -> None:
        self._set(index, cosets_defined, max_cosets, reason, table)

    @property
    def complete(self) -> bool:
        return self.index is not None

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
        index=None,
        cosets_defined=len(table.p),
        max_cosets=max_cosets,
        reason=reason,
    )


def _finish(table: CosetTable, max_cosets: int) -> EnumerationResult:
    defined = len(table.p)  # standardize drops the dead rows
    return EnumerationResult(
        index=table.standardize(),
        cosets_defined=defined,
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
    if not (is_integer(max_cosets) and max_cosets >= 1):
        raise ValueError("max_cosets must be an integer >= 1")
    for w in subgroup:
        if w.max_generator() >= p.ngens:
            raise ValueError("subgroup word uses an undefined generator")
    table = CosetTable(p.ngens, max_cosets, deadline)
    parent, cols = table.p, table.cols
    alpha = 0
    floor = max(1, max_cosets // 20)
    last = max_cosets
    try:
        # Building the views of long relators can take seconds, so it polls
        # once per 2^20 letters, the budget a lookahead poll walks.
        views, letters = [], 0
        for r in p.relators:
            if letters >> 20:
                table._poll()
                letters = 0
            views.append(table.views(r.cols))
            letters += len(r.cols)
        subgroup_views = [table.views(w.cols) for w in subgroup]
        letter_views = [table.views((x,)) for x in range(table.ncols)]
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
            # Dead rows stay put and the limit grows by them, so the room
            # define sees and freed are what a table without them would give.
            live = sum(map(eq, parent, range(len(parent))))
            dead = len(parent) - live
            freed = dead - (table.limit - max_cosets)
            if freed * freed < last * floor or live >= max_cosets:
                return _overflow(table, max_cosets, "max_cosets")
            last = freed
            table.limit = max_cosets + dead
    except _Deadline:
        # View building, lookahead and coincidence poll the deadline too,
        # so it can fire outside a definition.
        return _overflow(table, max_cosets, "timeout")
    # No poll past this point: the table is complete, and a late deadline
    # must not throw it away.
    return _finish(table, max_cosets)
