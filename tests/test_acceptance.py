"""Acceptance criteria, one test per criterion, one summary line each.

Each test records "criterion N: PASS/FAIL - detail" before its asserts so
the final ledger is printed even when a criterion fails.  Expected values
come from hand enumeration, from the oracles in oracles.py, or from the
literature, and are frozen literals here; nothing is recomputed from the
code under test.  Criterion 2's group order 600 is Coxeter's order of
B3/<<sigma1^5>> (1957); a second test replays it with sympy's coset
enumerator, which shares no code with rimcert, and records no ledger line.
"""

import math
import random
import time

import pytest

from conftest import record_acceptance
from covers import reidemeister_schreier, unbranched_cover_group
from oracles import (
    SEIFERT,
    alexander_from_seifert,
    arf_from_seifert,
    int_det,
    is_palindrome,
    smith_diagonal_by_minors,
)

from rimcert.abelian import smith_normal_form
from rimcert.batch import batch_json, expand_config, run_batch
from rimcert.braids import BraidWord
from rimcert.enumeration import todd_coxeter
from rimcert.groups import GroupPresentation, Word, collapse_presentation, parse_word
from rimcert.invariants import alexander_polynomial, arf_invariant
from rimcert.laurent import LaurentPolynomial
from rimcert.report import certify
from rimcert.surgery import plotnick_matrix, spec_from_json


def _spec(knot, d, m=0, n=0, kind="rim"):
    return spec_from_json({"knot": knot, "d": d, "m": m, "n": n, "kind": kind})


def test_criterion_1_unknot_rim_surgery_is_neutral():
    slow = []
    wrong = []
    worst = 0.0
    total = 0
    for d in range(1, 6):
        for m in range(4):
            for n in range(4):
                total += 1
                report = certify(_spec("unknot", d, m, n))
                worst = max(worst, report.elapsed)
                if report.verdict.status != "cyclic" or report.verdict.order != d:
                    wrong.append((d, m, n, report.verdict.status))
                if report.elapsed >= 1.0:
                    slow.append((d, m, n, report.elapsed))
    ok = not wrong and not slow
    record_acceptance(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - {total - len(wrong)}/{total} "
        f"unknot specs certified cyclic of order d, slowest {worst:.3f} s"
    )
    assert not wrong, f"non-cyclic verdicts on the unknot: {wrong}"
    assert not slow, f"specs over the 1 s budget: {slow}"


# The paper's conclusion; report.py puts it in the cyclic text only.
STANDARDNESS_CLAIM = "pairwise homeomorphism"


def _criterion_2_problems(rows):
    """One line per violated claim about the 336-spec proposition sweep."""
    problems = []
    if len(rows) != 336:
        problems.append(f"sweep has {len(rows)} specs, expected 336")
    untwisted = trefoil = 0
    for row in rows:
        spec = row["spec"]
        if "error" in row:
            problems.append(f"{spec}: error row: {row['error']}")
            continue
        label = row["label"]
        verdict = row["verdict"]
        status = verdict["status"]
        group_order = verdict["witness"].get("group_order")
        d = spec["d"]
        if spec["n"] == 0:
            untwisted += 1
            if status != "cyclic" or verdict["order"] != d:
                problems.append(f"{label}: n=0 forces Z/{d}, got {status}")
        if status == "non_cyclic" and (
            not isinstance(group_order, int) or group_order == d
        ):
            problems.append(
                f"{label}: non_cyclic without a group order "
                f"other than {d} (witness {verdict['witness']})"
            )
        if spec["knot"] == "3_1" and d == 5 and (spec["m"] + spec["n"]) % 5 == 0:
            trefoil += 1
            if (status, group_order) != ("non_cyclic", 600):
                problems.append(
                    f"{label}: expected non_cyclic of order 600, got "
                    f"{status} with group order {group_order}"
                )
        claimed = STANDARDNESS_CLAIM in row["conclusions"]["topological"]
        if claimed != (status == "cyclic"):
            problems.append(f"{label}: standardness claimed={claimed} on {status}")
        stage = verdict["certificate"]["stage"]
        if status == "inconclusive" and stage != "overflow":
            problems.append(f"{label}: inconclusive at stage {stage}, not overflow")
    # Guards against passing by vacuity if the sweep loses a family.
    if untwisted != 56:
        problems.append(f"{untwisted} n=0 specs, expected 56")
    if trefoil != 4:
        problems.append(f"{trefoil} trefoil d=5, 5 | m+n specs, expected 4")
    return problems


def test_criterion_2_proposition_sweep_claims_every_spec_cyclic():
    """The proposition sweep, checked where "every spec cyclic" is a theorem.

    The name states the claim this criterion was written for: every spec
    of the sweep (knots 3_1, 4_1, 5_1, 5_2; d in 2..5; coprime m in
    1..5; n in 0..5) certifies cyclic.  Completed enumerations refute
    that claim, and the paper does not make it: its theorem is
    conditional (*if* the exterior group is cyclic of order d, *then*
    the surgered surface is topologically standard) and does not say
    which twist and roll counts give a cyclic group.  So the test checks
    the claim where it is a theorem, and what else the construction
    proves:

    1. Every n=0 spec is cyclic of order d.  The surgery adds mu^d and
       makes w = lambda^n mu^m central.  With n=0, gcd(m, d) = 1 gives
       a*m + b*d = 1, so mu = (mu^m)^a (mu^d)^b is central.  Every
       Wirtinger generator is a conjugate of mu, hence equal to mu, and
       the group is Z/d.
    2. Every non_cyclic row carries a group order other than d, enumerated
       or derived exactly (meridian index times the meridian's order d),
       which refutes Z/d by itself, without the meridian-index inference.
    3. The trefoil family is pinned.  The 3_1 longitude is a central
       element times mu^(+-6), the sign set by the table's orientation,
       so at d=5 with 5 | m+n the centrality relators follow from
       mu^5 = 1 and the group is B3/<<sigma1^5>>, of order 600 (Coxeter,
       "Factor groups of the braid group", 1957).  The literal comes
       from there; test_criterion_2_frozen_trefoil_order_matches_sympy
       cross-checks it with sympy's coset enumerator.
    4. The report claims the paper's conclusion exactly on cyclic rows.
    5. Every inconclusive row ends at the overflow stage, an honest
       resource failure.

    The per-status counts go into the ledger line but are not frozen:
    a stronger certifier may decide more of the inconclusive band.
    """
    config = {
        "sweeps": [{
            "knots": ["3_1", "4_1", "5_1", "5_2"],
            "d": [2, 5], "m": [1, 5], "n": [0, 5],
            "coprime": True,
        }],
        "max_cosets": 100_000,
        "timeout": 60,
        "parallelism": 1,
    }
    start = time.monotonic()
    doc = run_batch(config)
    wall = time.monotonic() - start
    summary = doc["summary"]
    exceptions = {}
    for row in doc["rows"]:
        status = row["verdict"]["status"] if "verdict" in row else "error"
        if status != "cyclic":
            exceptions.setdefault(status, set()).add(str(row["spec"]["knot"]))
    problems = _criterion_2_problems(doc["rows"])
    ok = not problems and wall < 600
    detail = (
        f"{summary['cyclic']}/{summary['total']} certified cyclic "
        f"in {wall:.0f} s"
    )
    for status, knots in sorted(exceptions.items()):
        detail += f"; {summary[status]} {status} ({', '.join(sorted(knots))})"
    detail += f"; {len(problems)} violated claims"
    record_acceptance(f"criterion 2: {'PASS' if ok else 'FAIL'} - {detail}")
    assert wall < 600, f"sweep took {wall:.0f} s, budget is 600 s"
    assert not problems, "; ".join(problems)


def test_criterion_2_frozen_trefoil_order_matches_sympy():
    """Cross-check the frozen 600 with a coset enumerator outside rimcert.

    |<a, b | aba = bab, a^5>| = |B3/<<sigma1^5>>| = 600 (Coxeter 1957).
    """
    pytest.importorskip("sympy")
    from sympy.combinatorics.coset_table import coset_enumeration_r
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, a, b = free_group("a b")
    braid_quotient = FpGroup(free, [a * b * a * (b * a * b) ** -1, a**5])
    table = coset_enumeration_r(braid_quotient, [])
    table.compress()
    assert len(table.table) == 600


def test_criterion_3_figure_eight_remark_at_desk_scale():
    start = time.monotonic()
    wrong = []
    total = 0
    for d in (2, 3):
        for n in range(26):
            total += 1
            report = certify(_spec("4_1", d, 1, n))
            if report.verdict.status != "cyclic":
                wrong.append((d, n, report.verdict.status))
    wall = time.monotonic() - start
    ok = not wrong and wall < 120
    record_acceptance(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - {total - len(wrong)}/{total} "
        f"figure-eight specs cyclic in {wall:.0f} s"
    )
    assert not wrong, f"uncertified figure-eight specs: {wrong}"
    assert wall < 120, f"took {wall:.0f} s, budget is 120 s"


def test_criterion_4_trefoil_non_cyclic_witnesses():
    # Hand enumeration of <a,b | abab^-1a^-1b^-1, a^2>: six elements,
    # meridian subgroup {1, a} of index 3.  Both twist counts reduce to it.
    results = {}
    for m in (0, 2):
        verdict = certify(_spec("3_1", 2, m, 0)).verdict
        results[m] = (verdict.status, dict(verdict.witness))
    expected = (
        "non_cyclic",
        {"meridian_subgroup_index": 3, "group_order": 6},
    )
    ok = all(results[m] == expected for m in (0, 2))
    record_acceptance(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - trefoil d=2 m=0,2 verdicts "
        f"{results[0][0]}/{results[2][0]} with witnesses "
        f"{results[0][1]} and {results[2][1]}"
    )
    assert results[0] == expected
    assert results[2] == expected


def test_criterion_5_direct_and_cover_certifications_agree():
    c2 = expand_config({"sweeps": [{
        "knots": ["3_1", "4_1", "5_1", "5_2"],
        "d": [2, 5], "m": [1, 5], "n": [0, 5], "coprime": True,
    }]})
    c3 = [{"knot": "4_1", "d": d, "m": 1, "n": n, "kind": "rim"}
          for d in (2, 3) for n in range(26)]
    c4 = [{"knot": "3_1", "d": 2, "m": m, "n": 0, "kind": "rim"}
          for m in (0, 2)]
    sample = random.Random(8).sample(c2 + c3 + c4, 20)

    disagreements = []
    statuses = {"cyclic": 0, "non_cyclic": 0, "inconclusive": 0}
    for doc in sample:
        spec = spec_from_json(doc)
        direct = certify(spec).verdict.status
        statuses[direct] += 1
        cover = collapse_presentation(unbranched_cover_group(spec))
        enum = todd_coxeter(cover, [], 100_000)
        cover_trivial = enum.complete and enum.index == 1
        if (direct == "cyclic") != cover_trivial:
            disagreements.append((doc, direct, enum.index))
    ok = not disagreements
    record_acceptance(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - "
        f"{20 - len(disagreements)}/20 direct/cover agreements "
        f"({statuses['cyclic']} cyclic, {statuses['non_cyclic']} non-cyclic, "
        f"{statuses['inconclusive']} inconclusive)"
    )
    assert not disagreements, disagreements


def test_criterion_6_annulus_surgery_on_band_and_control():
    wrong = []
    total = 0
    for knot in ("3_1", "unknot"):
        for d in (2, 3):
            for m in range(3):
                for n in range(3):
                    total += 1
                    verdict = certify(_spec(knot, d, m, n, "annulus")).verdict
                    if verdict.status != "cyclic" or verdict.order != d:
                        wrong.append((knot, d, m, n, verdict.status))
    ok = not wrong
    record_acceptance(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - {total - len(wrong)}/{total} "
        "annulus specs (trefoil band and trivial-band control) cyclic of order d"
    )
    assert not wrong, f"annulus specs not certified cyclic: {wrong}"


def test_criterion_7_invariants_match_independent_oracles():
    # Frozen from the Seifert-matrix oracle, which shares no code with the
    # Burau-matrix route under test.
    frozen_delta = {
        "unknot": "1",
        "3_1": "t^2-t+1",
        "4_1": "t^2-3t+1",
        "5_1": "t^4-t^3+t^2-t+1",
        "5_2": "2t^2-3t+2",
    }
    frozen_arf = {"unknot": 0, "3_1": 1, "4_1": 1, "5_1": 1, "5_2": 0}
    mismatches = []
    for name, seifert in SEIFERT.items():
        braid = spec_from_json({"knot": name, "d": 1}).braid
        delta = alexander_polynomial(braid)
        if str(delta) != frozen_delta[name]:
            mismatches.append((name, "frozen", str(delta)))
        oracle = LaurentPolynomial(tuple(alexander_from_seifert(seifert)), 0)
        if delta != oracle:
            mismatches.append((name, "oracle", str(delta)))
        arf = arf_invariant(delta)
        if arf != frozen_arf[name]:
            mismatches.append((name, "arf-frozen", arf))
        if arf != arf_from_seifert(seifert):
            mismatches.append((name, "arf-oracle", arf))

    rng = random.Random(71)
    checked = 0
    while checked < 200:
        strands = rng.randint(2, 4)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 8))
        )
        braid = BraidWord(strands, letters)
        if not braid.is_knot():
            continue
        checked += 1
        delta = alexander_polynomial(braid)
        if abs(delta.evaluate(1)) != 1 or not is_palindrome(delta.coeffs):
            mismatches.append(("random", str(braid), str(delta)))
    ok = not mismatches
    record_acceptance(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - 5 table knots match the "
        f"Seifert oracle, {checked} random braid closures satisfy unit value "
        "and palindromicity"
    )
    assert not mismatches, mismatches


def test_criterion_8_core_algorithm_oracles():
    problems = []

    # Coset enumeration against textbook orders.
    s3 = GroupPresentation(ngens=2, relators=(
        parse_word("a a", "ab"), parse_word("b b", "ab"),
        parse_word("a b a b a b", "ab")))
    if todd_coxeter(s3, []).index != 6:
        problems.append("triangle-group order")
    for d in range(1, 9):
        p = GroupPresentation(ngens=1, relators=(Word.gen(0) ** d,))
        if todd_coxeter(p, []).index != d:
            problems.append(f"cyclic order {d}")
    q8 = GroupPresentation(ngens=2, relators=(
        parse_word("a a a a", "ab"),
        parse_word("a a B B", "ab"),
        parse_word("B a b a", "ab")))
    if todd_coxeter(q8, []).index != 8:
        problems.append("quaternion order")

    # Smith normal form on a hundred random integer matrices.
    rng = random.Random(17)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        dmat = smith_normal_form(a)
        diag = [dmat[i][i] for i in range(min(rows, cols))]
        if diag != smith_diagonal_by_minors(a):
            problems.append("snf diagonal")
        for prev, cur in zip(diag, diag[1:]):
            if cur and (prev == 0 or cur % prev):
                problems.append("snf divisor chain")
            if prev == 0 and cur:
                problems.append("snf zero ordering")

    # Subgroup presentations obey the free-rank formula n(g-1)+1.
    def kernel_words(g, n):
        mu = Word.gen(0)
        words = [mu**n]
        for j in range(n):
            for i in range(1, g):
                words.append(
                    mu**j * Word.gen(i) * mu ** (-((j + 1) % n) + 1) * mu**-1
                )
        return words

    for g in (2, 3):
        for n in (2, 3, 5):
            free = GroupPresentation(ngens=g, relators=())
            sub = reidemeister_schreier(free, kernel_words(g, n))
            if sub.index != n or sub.presentation.ngens != n * (g - 1) + 1:
                problems.append(f"schreier rank g={g} n={n}")
            if sub.presentation.relators:
                problems.append(f"free subgroup relators g={g} n={n}")

    ok = not problems
    record_acceptance(
        f"criterion 8: {'PASS' if ok else 'FAIL'} - enumeration orders, "
        "100 random Smith forms, and subgroup ranks all match their oracles"
    )
    assert not problems, problems


def test_criterion_9_regluing_matrices_are_unimodular():
    rng = random.Random(31)
    pairs = []
    while len(pairs) < 100:
        d = rng.randint(1, 1000)
        m = rng.randint(0, 1000)
        if math.gcd(d, m) == 1:
            pairs.append((d, m))
    bad = []
    for d, m in pairs:
        mat = plotnick_matrix(d, m)
        if mat.determinant() != 1 or int_det([list(r) for r in mat.rows]) != 1:
            bad.append((d, m))
        if (d * mat.complement + m * mat.inverse_residue) != 1:
            bad.append((d, m, "bezout"))
    rejected = 0
    for d, m in ((4, 2), (9, 6), (1000, 500)):
        with pytest.raises(ValueError):
            plotnick_matrix(d, m)
        rejected += 1
    ok = not bad and rejected == 3
    record_acceptance(
        f"criterion 9: {'PASS' if ok else 'FAIL'} - 100 coprime regluing "
        "matrices have determinant 1, non-coprime inputs rejected"
    )
    assert not bad, bad


def test_criterion_10_batch_output_is_parallelism_invariant():
    config = {
        "specs": [
            {"knot": "3_1", "d": 2, "kind": "annulus"},
            {"knot": "B3: 1 -2 1 -2", "d": 2, "m": 1},
            {"knot": "no_such_knot", "d": 2},
        ],
        "sweeps": [{"knots": ["unknot", "3_1", "4_1"], "d": [2, 3],
                    "m": 1, "n": [0, 1]}],
        "max_cosets": 50_000,
    }
    serial = batch_json(run_batch({**config, "parallelism": 1}))
    parallel = batch_json(run_batch({**config, "parallelism": 8}))
    ok = serial == parallel
    rows = len(expand_config(config))
    record_acceptance(
        f"criterion 10: {'PASS' if ok else 'FAIL'} - {rows}-spec batch is "
        "byte-identical at parallelism 1 and 8"
    )
    assert ok, "batch output differs between parallelism 1 and 8"
