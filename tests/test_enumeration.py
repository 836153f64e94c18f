import functools
import gc
import random
import time

import pytest

from rimcert import enumeration
from rimcert.abelian import abelian_invariants
from rimcert.enumeration import (
    CosetTable,
    EnumerationResult,
    _finish,
    _TableFull,
    todd_coxeter,
)
from rimcert.groups import GroupPresentation, Word, commutator

from covers import EnumerationOverflow, reidemeister_schreier
from oracles import (
    RowTable,
    compress,
    reference_coincidence,
    reference_lookahead,
    reference_scan,
)


def _p(ngens, *relators):
    return GroupPresentation(ngens=ngens, relators=tuple(relators))


A, B = Word.gen(0), Word.gen(1)

# Hand-checked coset tables back these indices: the symmetric group on
# three letters, cyclic groups, and the quaternion group of order 8.
S3 = _p(2, A**2, B**2, (A * B) ** 3)
Q8 = _p(2, A**4, A**2 * B**-2, B.inverse() * A * B * A)
TREFOIL_MOD2 = _p(2, A * B * A * B.inverse() * A.inverse() * B.inverse(), A**2)
DIHEDRAL5 = _p(2, A**5, B**2, (A * B) ** 2)


def test_symmetric_group_order_six():
    r = todd_coxeter(S3, [])
    assert r.complete and r.index == 6


def test_cyclic_groups_all_orders():
    for d in range(1, 9):
        p = _p(1, Word.gen(0) ** d)
        r = todd_coxeter(p, [])
        assert r.complete and r.index == d


def test_quaternion_group_order_eight():
    r = todd_coxeter(Q8, [])
    assert r.complete and r.index == 8


def test_subgroup_indices_in_s3():
    assert todd_coxeter(S3, [A]).index == 3
    assert todd_coxeter(S3, [A * B]).index == 2
    assert todd_coxeter(S3, [A, B]).index == 1


def test_trefoil_mod_square_is_s3():
    assert todd_coxeter(TREFOIL_MOD2, []).index == 6
    assert todd_coxeter(TREFOIL_MOD2, [A]).index == 3


def test_overflow_is_honest_and_retryable():
    r = todd_coxeter(Q8, [], max_cosets=3)
    assert not r.complete
    assert r.index is None
    assert r.reason == "max_cosets"
    retry = todd_coxeter(Q8, [], max_cosets=100)
    assert retry.complete and retry.index == 8


def test_timeout_reports_reason():
    # The deadline is polled between batches of work, so use an
    # enumeration that cannot finish within the first batch.
    free = _p(2)
    r = todd_coxeter(free, [], deadline=time.monotonic() - 1.0)
    assert not r.complete and r.reason == "timeout"


def test_free_group_only_overflows():
    free = _p(2)
    r = todd_coxeter(free, [], max_cosets=50)
    assert not r.complete


def test_invalid_arguments():
    with pytest.raises(ValueError):
        todd_coxeter(S3, [], max_cosets=0)
    with pytest.raises(ValueError):
        todd_coxeter(S3, [Word.gen(7)])


@pytest.mark.parametrize("max_cosets", [2.5, 1e5, True], ids=["frac", "float", "bool"])
def test_max_cosets_must_be_an_int(max_cosets):
    # The limit is a JSON integer, as certify_cyclic's check_limits has it:
    # 2.5 would fail later inside range, 1e5 would run and echo 100000.0 in
    # the stats, and True would run as a limit of 1.
    with pytest.raises(ValueError, match="max_cosets"):
        todd_coxeter(S3, [A], max_cosets=max_cosets)


def test_results_are_deterministic():
    first = todd_coxeter(S3, [A]).stats()
    second = todd_coxeter(S3, [A]).stats()
    assert first == second


def _sympy_index(p, sub):
    """Index of <sub> by sympy's coset enumeration, which shares no code."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    F, *gens = free_group(" ".join(f"x{i}" for i in range(p.ngens)))

    def word(w):
        out = F.identity
        for g, e in w.syllables:
            out = out * gens[g] ** e
        return out

    table = FpGroup(F, [word(r) for r in p.relators]).coset_enumeration(
        [word(w) for w in sub]
    )
    table.compress()
    return len(table.table)


def test_strategies_agree_on_finite_groups():
    pytest.importorskip("sympy")
    cases = [
        (S3, []),
        (S3, [A]),
        (Q8, []),
        (TREFOIL_MOD2, []),
        (TREFOIL_MOD2, [A]),
        (DIHEDRAL5, []),
        (_p(1, Word.gen(0) ** 12), []),
    ]
    for p, sub in cases:
        hlt = todd_coxeter(p, sub)
        assert hlt.complete
        assert hlt.index == _sympy_index(p, sub)


def test_strategies_agree_on_random_finite_quotients():
    pytest.importorskip("sympy")
    rng = random.Random(59)
    for _ in range(25):
        # abelian-ish quotients stay finite: two generators of bounded
        # order forced to commute, plus one random extra relator
        da, db = rng.randint(1, 6), rng.randint(1, 6)
        extra = Word(
            tuple(
                (rng.randrange(2), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))
            )
        )
        p = _p(2, A**da, B**db, commutator(A, B), extra)
        hlt = todd_coxeter(p, [], max_cosets=2000)
        assert hlt.complete
        assert hlt.index == _sympy_index(p, [])


@functools.lru_cache(maxsize=None)
def _overflow_run(max_cosets):
    """The collapsed meridian enumeration of 5_2 d=3 m=1 n=3, and the
    seconds that its run with no deadline takes to give up."""
    from rimcert.groups import collapse_presentation
    from rimcert.surgery import spec_from_json, surgered_group

    p = surgered_group(spec_from_json({"knot": "5_2", "d": 3, "m": 1, "n": 3}))
    q = collapse_presentation(p, protect=(p.meridian.syllables[0][0],))
    start = time.monotonic()
    r = todd_coxeter(q, [q.meridian], max_cosets)
    assert r.reason == "max_cosets"
    return q, time.monotonic() - start


@pytest.mark.parametrize(
    "max_cosets, fraction", [(100_000, 0.25), (400_000, 0.25), (400_000, 0.7)]
)
def test_deadline_holds_through_lookahead(monkeypatch, max_cosets, fraction):
    # This enumeration fills its table early and then spends most of its
    # time in lookahead and coincidence handling, which must poll the
    # deadline just as defining a coset does.  Both table sizes give up
    # after two lookahead rounds: on 2 vCPUs (Python 3.11) the rounds run
    # over about 6-44% and 48-98% of the run, the gap between them is HLT
    # defining cosets again, and the 400000-row run takes about 2 s.  Each
    # deadline is a fraction of a timed run with no deadline, so it fires
    # in the first or the second round however fast the host is.
    q, seconds = _overflow_run(max_cosets)
    fired_in_lookahead = []
    lookahead = CosetTable.lookahead

    def recording_lookahead(table, views, start):
        try:
            lookahead(table, views, start)
        except enumeration._Deadline:
            fired_in_lookahead.append(True)
            raise

    monkeypatch.setattr(CosetTable, "lookahead", recording_lookahead)
    start = time.monotonic()
    r = todd_coxeter(q, [q.meridian], max_cosets, deadline=start + fraction * seconds)
    elapsed = time.monotonic() - start
    assert r.reason == "timeout"
    assert fired_in_lookahead == [True]
    assert elapsed < fraction * seconds + 0.5


def test_a_scan_polls_the_deadline_while_it_defines():
    # The first relator scan of <a | a^3000> defines 2999 cosets without
    # leaving scan, so it must poll the deadline on its 1024th definition,
    # just as define does.
    r = todd_coxeter(_p(1, A**3000), [], deadline=time.monotonic() - 1.0)
    assert r.reason == "timeout"
    assert r.cosets_defined == 1024


def test_building_the_relator_views_polls_the_deadline():
    # Each relator has 2^21 letters, so the views of the second are built
    # only after a poll, which the passed deadline ends before any scan.
    # Without it the first scan would run to its 1024th definition.
    n = 1 << 20
    r = todd_coxeter(_p(2, (A * B) ** n, (A * B**-1) ** n), [],
                     deadline=time.monotonic() - 1.0)
    assert r.reason == "timeout"
    assert r.cosets_defined == 1


def test_completed_table_survives_a_passed_deadline():
    # The standardize in _finish never polls, so a table that completed just
    # before its deadline still returns its index.
    r = todd_coxeter(_p(1, A**3000), [], max_cosets=10_000)
    assert r.complete
    r.table.deadline = time.monotonic() - 1.0
    again = _finish(r.table, 10_000)
    assert again.complete and again.index == 3000


def test_the_compiled_lookahead_pass_polls_the_deadline_once_per_1024_rows():
    # The a^3000 cycle of 3000 cosets, defined with no deadline; the pass
    # scans b^4, whose column is empty, so it neither merges nor deduces.
    # Rows 2048 to 2999 hold no poll; a pass from row 1 polls at row 1023.
    table = CosetTable(2, 10_000)
    table.scan(0, table.views((0,) * 3000))
    table.deadline = time.monotonic() - 1.0
    relators = [(2, 2, 2, 2)]
    _lookahead(table, relators, 2048)
    with pytest.raises(enumeration._Deadline):
        _lookahead(table, relators, 1)


def test_the_compiled_lookahead_pass_polls_long_relators_more_often():
    # A relator of 2^14 letters makes the pass poll once per 2^(20 - 15)
    # = 32 rows.  From row 1 of a 40-row table, a poll per 1024 rows would
    # come at row 1023, past the table's end; this pass polls at row 31.
    table = CosetTable(2, 100)
    table.scan(0, table.views((0,) * 40))
    table.deadline = time.monotonic() - 1.0
    relators = [(2,) * (1 << 14)]
    _lookahead(table, [(2, 2, 2, 2)], 1)
    with pytest.raises(enumeration._Deadline):
        _lookahead(table, relators, 1)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_lookahead_pauses_the_garbage_collector_and_restores_it(enabled):
    # Binding the walks of (a b)^50000 and (a^2 b^-1)^30000 builds a tuple
    # per letter; with the collector running, that started 542 collections.
    # The pass runs none, and leaves the collector as it found it, whether
    # the pass returns or the deadline ends it.  The tables are built and
    # the young generation emptied first, so nothing else starts one.
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    def set_collector(on):
        if on:
            gc.enable()
        else:
            gc.disable()

    table = CosetTable(2, 10)
    views = [table.views(r) for r in ((0, 2) * 50_000, (0, 0, 3) * 30_000)]
    # The a^3000 cycle, whose pass from row 1 polls a passed deadline.
    late = CosetTable(2, 10_000)
    late.scan(0, late.views((0,) * 3000))
    late.deadline = time.monotonic() - 1.0
    late_views = [late.views((2, 2, 2, 2))]
    was = gc.isenabled()
    set_collector(enabled)
    gc.collect()
    gc.callbacks.append(record)
    try:
        table.lookahead(views, 0)
        assert started == []
        assert gc.isenabled() is enabled
        with pytest.raises(enumeration._Deadline):
            late.lookahead(late_views, 1)
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(record)
        set_collector(was)


# -- a gap filled by one chain defines what single definitions define ---------


def _reference_scan(table, alpha, view):
    """CosetTable.scan's signature over reference_scan: letters from views."""
    letter = {id(col): x for x, col in enumerate(table.cols)}
    reference_scan(table, alpha, tuple(letter[id(col)] for col in view[0]))


def _enumerate(monkeypatch, p, subgroup, limit, scan=None):
    """todd_coxeter, optionally with scan in place of CosetTable.scan.

    Returns the result and the table it ran on, complete or not.
    """
    tables = []

    class Table(CosetTable):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    if scan is not None:
        Table.scan = scan
    with monkeypatch.context() as m:
        m.setattr(enumeration, "CosetTable", Table)
        result = todd_coxeter(p, subgroup, limit)
    return result, tables[0]


def _chain_cases(seed, count):
    """Random presentations on 2-3 generators with conjugate subgroup words.

    A subgroup word u v u^-1 reads its first letter forward and its last
    letter backward in one column, and a relator x y x^-1 w does so with x
    and x^-1: there the two walks can meet at one coset with bw[j] is
    fw[i], where a definition gives the backward walk a step.  About half the limits are small, so
    chains stop at the limit.
    """
    rng = random.Random(seed)
    for _ in range(count):
        ngens = rng.randint(2, 3)

        def word(n):
            return Word(
                tuple((rng.randrange(ngens), rng.choice((1, -1))) for _ in range(n))
            )

        x, y = Word.gen(rng.randrange(ngens)), word(rng.randint(1, 2))
        rels = [Word.gen(g) ** rng.randint(2, 6) for g in range(ngens)]
        rels += [word(rng.randint(2, 12)) for _ in range(rng.randint(0, 2))]
        rels.append(x * y * x.inverse() * word(rng.randint(1, 4)))
        u, v = word(rng.randint(1, 3)), word(rng.randint(1, 2))
        subgroup = [u * v * u.inverse(), word(rng.randint(0, 3))]
        limit = rng.randint(2, 12) if rng.random() < 0.5 else rng.randint(12, 3000)
        yield _p(ngens, *(r for r in rels if not r.is_identity())), subgroup, limit


def test_chain_scan_matches_one_definition_at_a_time(monkeypatch):
    # The whole enumeration, lookahead rounds included, runs once with the
    # chain scan and once with the reference scan: the same table, dead
    # cosets included, the same parents and the same definition count.
    complete = filled = 0
    for p, subgroup, limit in _chain_cases(83, 300):
        chain, table = _enumerate(monkeypatch, p, subgroup, limit)
        ref, ref_table = _enumerate(monkeypatch, p, subgroup, limit, _reference_scan)
        assert chain.stats() == ref.stats()
        assert table.rows() == ref_table.rows()
        assert table.p == ref_table.p
        complete += chain.complete
        # A lookahead round that goes on raises the limit by the dead rows.
        filled += not chain.complete or table.limit > limit
    assert complete > 50 and filled > 50


def test_a_definition_that_the_backward_walk_reads_is_made_alone():
    # Scanning x y x^-1 from coset 0 of an empty table: both walks stand on
    # coset 0 with a gap of three letters, and bw[2] is the column of x.
    # Defining 0.x = 1 lets the backward walk step from 0 to 1 as well, so
    # the gap closes as 1.y = 1: one coset is defined, not a chain of two.
    word = (A * B * A.inverse()).cols
    table, ref = CosetTable(2, 100), CosetTable(2, 100)
    table.scan(0, table.views(word))
    reference_scan(ref, 0, word)
    assert len(table.p) == len(ref.p) == 2
    assert table.rows() == ref.rows() == [[1, None, None, None], [None, 0, 1, 1]]


def _full(scan, *args):
    """Whether the scan stopped at the limit."""
    try:
        scan(*args)
    except _TableFull:
        return True
    return False


def test_a_chain_stops_at_the_limit():
    # <a | a^50> from coset 0 has a gap of 49 letters.  With room for fewer
    # cosets the chain defines exactly as many as single definitions
    # would, and then the table is full.
    word = (A**50).cols
    for limit in (1, 10, 49, 50):
        table, ref = CosetTable(1, limit), CosetTable(1, limit)
        full = _full(table.scan, 0, table.views(word))
        assert full == _full(reference_scan, ref, 0, word) == (limit < 50)
        assert len(table.p) == len(ref.p) == limit
        assert table.rows() == ref.rows()
        assert table.p == ref.p


def test_a_chain_shares_each_coset_number_between_p_and_the_columns():
    # An overflowing table holds one int object per coset number; a chain
    # that built its numbers twice (once for p, once for the columns)
    # would hold two.  Numbers above 256 are not CPython's cached small
    # ints, so only a shared object passes for the whole chain.
    table = CosetTable(1, 1000)
    table.scan(0, table.views((0,) * 600))
    assert len(table.p) == 600
    assert all(table.cols[0][c - 1] is table.p[c] for c in range(1, 600))


# -- lookahead and the round loop do the same work as the plain loops ---------


def _hlt_pass(table, relators, subgroup_cols):
    """One HLT pass of todd_coxeter from coset 0.

    Returns the row the pass was on when the table filled up, or None if
    the pass completes.
    """
    views = [table.views(r) for r in relators]
    p = table.p
    alpha = 0
    try:
        for w in subgroup_cols:
            table.scan(0, table.views(w))
        while alpha < len(p):
            if p[alpha] == alpha:
                for v in views:
                    if p[alpha] != alpha:
                        break
                    table.scan(alpha, v)
                if p[alpha] == alpha:
                    for x, col in enumerate(table.cols):
                        if col[alpha] is None:
                            table.define(alpha, table.views((x,)), 0, 1)
            alpha += 1
    except _TableFull:
        return alpha
    return None


def _full_table(p, subgroup, limit):
    """The HLT pass of todd_coxeter, stopped where the table fills up.

    Returns the full table, the relators and the HLT cursor; the table is
    None if the pass completes.
    """
    relators = [r.cols for r in p.relators]
    table = CosetTable(p.ngens, limit)
    cursor = _hlt_pass(table, relators, [w.cols for w in subgroup])
    return (None if cursor is None else table), relators, cursor


def _random_presentation(rng):
    def word(n):
        return Word(
            tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(n))
        )

    rels = [A ** rng.randint(2, 7), B ** rng.randint(2, 7)]
    rels += [word(rng.randint(3, 10)) for _ in range(rng.randint(1, 2))]
    return _p(2, *rels), [word(rng.randint(0, 2))]


def _full_tables(seed, count):
    """(presentation, subgroup, limit) drawn until count of them fill up."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        p, sub = _random_presentation(rng)
        limit = rng.randint(8, 300)
        if _full_table(p, sub, limit)[0] is not None:
            cases.append((p, sub, limit))
    return cases


def _mirror(table):
    """A row-major copy of table's state, for the reference passes."""
    return RowTable(table.rows(), table.p, table.ncols)


def _lookahead(table, relators, start):
    table.lookahead([table.views(r) for r in relators], start)


def _short_relators(rng):
    """A one-letter, a two-letter and a three-letter relator on 2 generators.

    The three-letter one is x y x^-1: its first letter and its last inverse
    letter read the same column, the two entries lookahead reads before it
    decides to scan.  Lookahead takes letter tuples as they come, reduced
    or not.
    """
    x, y = rng.randrange(4), rng.randrange(4)
    return [(x,), (rng.randrange(4), rng.randrange(4)), (x, y, x ^ 1)]


def test_lookahead_matches_the_reference_loop():
    rng = random.Random(72)
    merged = deduced = short = 0
    # The table's pass starts at the HLT cursor, the reference's at coset 0:
    # the rows below the cursor are complete, so scans from them find
    # nothing.
    for p, sub, limit in _full_tables(71, 150):
        table, relators, cursor = _full_table(p, sub, limit)
        reference = _mirror(table)
        before = table.rows(), list(table.p)
        _lookahead(table, relators, cursor)
        reference_lookahead(reference, relators)
        assert table.rows() == reference.table
        assert table.p == reference.p
        merged += table.p != before[1]
        deduced += table.p == before[1] and table.rows() != before[0]
        # A second pass over short relators too, which the rows below the
        # cursor need not close, so it starts at coset 0.  Short scans are
        # where a scan steps backward but not forward from its first coset,
        # and where a one-letter relator fills its own gap.
        relators = relators + _short_relators(rng)
        reference = _mirror(table)
        before = table.rows()
        _lookahead(table, relators, 0)
        reference_lookahead(reference, relators)
        assert table.rows() == reference.table
        assert table.p == reference.p
        short += table.rows() != before
    # Both kinds of lookahead work occur: some passes merge cosets, others
    # only fill entries by deduction.
    assert merged > 10 and deduced > 10
    # Nearly every short pass changes the table.
    assert short > 100


def _representatives(p):
    reps = []
    for c in range(len(p)):
        while p[c] != c:
            c = p[c]
        reps.append(c)
    return reps


def test_coincidence_matches_the_reference_union_find():
    # Random merges of live cosets in full tables: the same rows, and the
    # same representative for every coset, dead ones included.  Parents of
    # dead cosets may differ, since coincidence does not compress paths.
    rng = random.Random(79)
    cascades = 0
    for p, sub, limit in _full_tables(79, 80):
        table, _, _ = _full_table(p, sub, limit)
        reference = _mirror(table)
        for _ in range(rng.randint(1, 4)):
            live = [c for c in range(len(table.p)) if table.p[c] == c]
            if len(live) < 2:
                break
            alpha, beta = rng.sample(live, 2)
            table.coincidence(alpha, beta)
            reference_coincidence(reference, alpha, beta)
            assert table.rows() == reference.table
            reps = _representatives(reference.p)
            assert _representatives(table.p) == reps
            cascades += len(live) - len(set(reps)) > 1
        assert all(table.p[c] < c for c in range(len(table.p)) if table.p[c] != c)
    # Most merges force further merges, so the queue is exercised.
    assert cascades > 100


def _collapsed_sweep_spec(knot, d, n, m=1):
    """The presentation certify_cyclic enumerates for rim knot d m n."""
    from rimcert.groups import collapse_presentation
    from rimcert.surgery import spec_from_json, surgered_group

    p = surgered_group(spec_from_json({"knot": knot, "d": d, "m": m, "n": n}))
    return collapse_presentation(p, protect=(p.meridian.syllables[0][0],))


def test_lookahead_matches_the_reference_loop_on_a_sweep_spec():
    q = _collapsed_sweep_spec("5_2", 3, 3)
    table, relators, cursor = _full_table(q, [q.meridian], 3000)
    reference = _mirror(table)
    _lookahead(table, relators, cursor)
    reference_lookahead(reference, relators)
    assert table.rows() == reference.table
    assert table.p == reference.p


def _mixed_relators(rng, relators):
    """1 to 12 relators that mix one to three letters with four or more.

    Each is one of the presentation's relators, one of the words
    _short_relators builds, or a random word of 1 to 3 or of 4 to 9 letters;
    the random words need not be reduced.
    """
    drawn = list(relators) + _short_relators(rng)
    mixed = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.randrange(3)
        if kind == 0:
            mixed.append(rng.choice(drawn))
        else:
            n = rng.randint(1, 3) if kind == 1 else rng.randint(4, 9)
            mixed.append(tuple(rng.randrange(4) for _ in range(n)))
    return mixed


def test_generated_passes_match_the_reference_loop_on_mixed_patterns():
    # Each pattern, the relator count and which relators have four or more
    # letters, compiles its own pass with one block per relator.  Two passes
    # over each full table, from coset 0, since the mixed relators need not
    # close the rows below the HLT cursor.
    rng = random.Random(113)
    patterns = set()
    changed = 0
    for p, sub, limit in _full_tables(113, 100):
        table, relators, _ = _full_table(p, sub, limit)
        for _ in range(2):
            mixed = _mixed_relators(rng, relators)
            reference = _mirror(table)
            before = table.rows()
            _lookahead(table, mixed, 0)
            reference_lookahead(reference, mixed)
            assert table.rows() == reference.table
            assert table.p == reference.p
            patterns.add(tuple(len(r) >= 4 for r in mixed))
            changed += table.rows() != before
    # Most draws are new patterns, and most passes change the table.
    assert len(patterns) > 100 and changed > 100


def test_tables_with_one_relator_pattern_share_one_compiled_pass():
    passes = enumeration._lookahead_pass
    passes.cache_clear()
    # A table that never fills compiles nothing.
    assert todd_coxeter(S3, [], 100).complete
    assert passes.cache_info().currsize == 0
    # Letters 0, 1 are a, a^-1 and 2, 3 are b, b^-1: the first two relator
    # lists differ but share the pattern (four or more letters, fewer).
    for relators in ([(0,) * 5, (2, 2)], [(0, 2, 1, 3), (0, 0, 0)]):
        _lookahead(CosetTable(2, 10), relators, 0)
    info = passes.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    _lookahead(CosetTable(2, 10), [(2, 2), (0,) * 5], 0)
    assert passes.cache_info().misses == 2
    assert passes((False, True)) is not passes((True, False))


def test_one_breadth_first_pass_finishes_a_table_with_dead_rows(monkeypatch):
    # A complete table goes to _finish uncompressed.  Its live rows name no
    # dead coset, and one breadth-first pass from coset 0 gives the rows and
    # index that compressing first and then standardizing gives.
    captured = []
    finish = enumeration._finish

    def capture(table, max_cosets):
        copy = CosetTable(table.ncols // 2, max_cosets)
        copy.cols = [list(col) for col in table.cols]
        copy.p = list(table.p)
        captured.append(copy)
        return finish(table, max_cosets)

    monkeypatch.setattr(enumeration, "_finish", capture)
    rng = random.Random(97)
    cases = [(*_random_presentation(rng), 2000) for _ in range(60)]
    checked = lookahead = 0
    for p, sub, limit in cases + _full_tables(98, 100):
        captured.clear()
        got = todd_coxeter(p, sub, limit)
        if not got.complete:
            continue
        before = captured[0]
        live = [c for c, parent in enumerate(before.p) if parent == c]
        if len(live) == len(before.p):
            continue
        dead = set(range(len(before.p))) - set(live)
        assert not any(col[c] in dead for col in before.cols for c in live)
        assert got.index == len(live) == len(before.p) - compress(before)
        before.standardize()
        assert got.table.rows() == before.rows()
        checked += 1
        # A table that filled up, and completed after a lookahead round.
        lookahead += got.cosets_defined >= limit
    assert checked > 40 and lookahead > 5


def _restarting_hlt(p, subgroup, max_cosets):
    """The round loop as todd_coxeter first ran it, and its lookahead rounds.

    After a lookahead that does not give up, the live cosets are renumbered
    and HLT starts again at coset 0, rescanning the rows it had finished.
    Lookahead is the reference pass over every coset, run on a row-major
    copy whose rows and parents are then copied back.  The give-up rule is
    todd_coxeter's: a round that frees under 5% of the budget, or whose
    yield predicts a next round under 5%, ends the enumeration.  The cosets
    defined are the table's length plus the rows the renumberings freed.
    """
    relators = [r.cols for r in p.relators]
    subgroup_cols = [w.cols for w in subgroup]
    table = CosetTable(p.ngens, max_cosets)
    floor = max(1, max_cosets // 20)
    last = max_cosets
    rounds = freed_rows = 0
    while _hlt_pass(table, relators, subgroup_cols) is not None:
        rounds += 1
        reference = _mirror(table)
        reference_lookahead(reference, relators)
        for x, col in enumerate(table.cols):
            col[:] = [row[x] for row in reference.table]
        table.p[:] = reference.p
        live = sum(c == parent for c, parent in enumerate(table.p))
        freed = len(table.p) - live
        if freed < floor or freed * freed < last * floor or live >= max_cosets:
            overflow = EnumerationResult(
                None, len(table.p) + freed_rows, max_cosets, "max_cosets"
            )
            return overflow, rounds
        last = freed
        freed_rows += compress(table)
    result = _finish(table, max_cosets)
    result = EnumerationResult(
        result.index, result.cosets_defined + freed_rows, result.max_cosets,
        result.reason, result.table,
    )
    return result, rounds


def test_round_loop_matches_the_restarting_loop():
    # Dead rows kept in place and HLT resumed at its cursor do the same
    # work as compressing and restarting: the same counters, and the same
    # standardized table when the enumeration completes.
    several = resumed = 0
    for p, sub, limit in _full_tables(89, 150):
        expected, rounds = _restarting_hlt(p, sub, limit)
        got = todd_coxeter(p, sub, limit)
        assert got.stats() == expected.stats()
        if expected.complete:
            assert got.table.rows() == expected.table.rows()
        several += rounds >= 2
        resumed += rounds >= 1 and expected.complete
    # Both kinds of run occur: some go on after two or more lookahead
    # rounds, and some complete after a lookahead round.
    assert several > 10 and resumed > 10


def test_tiny_limits_overflow_in_the_subgroup_scan():
    # The subgroup scan alone fills tables of up to four rows, so it must
    # run inside the round loop; six rows complete the enumeration.
    p = _p(2, A**6, B**2, (A * B) ** 2)
    sub = [A**5 * B]
    for k in range(1, 5):
        r = todd_coxeter(p, sub, max_cosets=k)
        assert (r.complete, r.reason, r.cosets_defined) == (False, "max_cosets", k)
    r = todd_coxeter(p, sub, max_cosets=6)
    assert r.complete and r.index == 6


@pytest.mark.parametrize(
    "knot, d, n, cosets_defined",
    [("5_2", 3, 3, 137099), ("4_1", 5, 4, 100000)],
)
def test_overflowing_meridian_enumerations_define_the_same_cosets(
    knot, d, n, cosets_defined
):
    # The counters of two sweep specs that overflow at the default limit,
    # pinned so that faster lookahead or coincidence cannot change the work.
    # 5_2 gives up after its second lookahead round, whose yield predicts a
    # third under 5% of the table; 4_1 gives up after its first.
    q = _collapsed_sweep_spec(knot, d, n)
    r = todd_coxeter(q, [q.meridian], 100_000)
    assert (r.complete, r.reason) == (False, "max_cosets")
    assert r.cosets_defined == cosets_defined


def test_the_decided_spec_that_fills_its_table_still_completes(monkeypatch):
    # 5_2 d=4 m=3 n=1 is the one decided sweep spec whose meridian table
    # fills at the default limit.  Its one lookahead round frees about 63%
    # of the table, so the give-up rule lets HLT go on, and it completes.
    from rimcert.report import certify
    from rimcert.surgery import spec_from_json

    rounds = []
    lookahead = CosetTable.lookahead

    def counted(table, relators, start):
        rounds.append(start)
        lookahead(table, relators, start)

    q = _collapsed_sweep_spec("5_2", 4, 1, m=3)
    with monkeypatch.context() as patch:
        patch.setattr(CosetTable, "lookahead", counted)
        r = todd_coxeter(q, [q.meridian], 100_000)
    assert r.complete and r.index == 12144
    assert len(rounds) == 1
    spec = spec_from_json({"knot": "5_2", "d": 4, "m": 3, "n": 1})
    verdict = certify(spec, max_cosets=100_000, timeout=60).verdict
    assert verdict.status == "non_cyclic"
    assert verdict.witness["group_order"] == 48576


# -- Reidemeister-Schreier ---------------------------------------------------


def _mod_n_kernel_words(ngens, n):
    """Generators of the kernel of exponent-sum-of-gen-0 mod n."""
    mu = Word.gen(0)
    words = [mu**n]
    for j in range(n):
        for i in range(1, ngens):
            words.append(mu**j * Word.gen(i) * mu ** (-((j + 1) % n) + 1) * mu**-1)
    return words


def test_free_subgroup_rank_formula():
    # Nielsen-Schreier: index n in free of rank g gives rank n(g-1)+1.
    for g in (2, 3):
        for n in (2, 3, 5):
            free = _p(g)
            sub = reidemeister_schreier(free, _mod_n_kernel_words(g, n))
            assert sub.index == n
            assert sub.presentation.ngens == n * (g - 1) + 1
            assert not sub.presentation.relators


def test_rs_subgroup_order_multiplies_out():
    sub = reidemeister_schreier(S3, [A * B])
    assert sub.index == 2
    r = todd_coxeter(sub.presentation, [])
    assert r.complete and r.index == 3


def test_rs_abelianization_of_s3_even_part():
    sub = reidemeister_schreier(S3, [A * B])
    inv = abelian_invariants(sub.presentation)
    assert (inv.free_rank, inv.torsion) == (0, (3,))


def test_rs_transversal_is_schreier():
    sub = reidemeister_schreier(S3, [A])
    assert sub.transversal[0].is_identity()
    # BFS transversal: word lengths never decrease along the coset list
    lengths = [t.length() for t in sub.transversal]
    assert lengths == sorted(lengths)


def test_rs_rewrite_membership():
    sub = reidemeister_schreier(S3, [A])
    back = sub.rewrite(A)
    assert back.max_generator() < sub.presentation.ngens
    with pytest.raises(ValueError):
        sub.rewrite(B)  # b is not in <a>


def test_rs_overflow_propagates():
    free = _p(2)
    with pytest.raises(EnumerationOverflow):
        reidemeister_schreier(free, [A], max_cosets=20)
