import random

from rimcert.abelian import abelian_invariants
from rimcert.braids import BraidWord, KNOT_TABLE, resolve_knot
from rimcert.certify import CYCLIC, certify_cyclic
from rimcert.diagrams import band_double, braid_closure_diagram
from rimcert.enumeration import todd_coxeter
from rimcert.groups import GroupPresentation, Word, commutator, quotient
from rimcert.invariants import (
    alexander_polynomial,
    arf_invariant,
    knot_determinant,
    normal_invariant_report,
    wirtinger,
)
from rimcert.laurent import LaurentPolynomial

from oracles import (
    SEIFERT,
    alexander_from_fox,
    alexander_from_seifert,
    arf_from_seifert,
    fox_derivative,
    is_palindrome,
)


def _diagram(name):
    return braid_closure_diagram(resolve_knot(name))


def _alexander(name):
    return alexander_polynomial(resolve_knot(name))


# -- Alexander polynomials and Arf against the Seifert oracle -----------------


def test_alexander_matches_seifert_oracle():
    for name, v in SEIFERT.items():
        mine = _alexander(name)
        assert mine == LaurentPolynomial(tuple(alexander_from_seifert(v)), 0)


def test_arf_matches_seifert_oracle():
    for name, v in SEIFERT.items():
        arf = arf_invariant(_alexander(name))
        assert arf == arf_from_seifert(v)


def test_determinants():
    expected = {"unknot": 1, "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7}
    for name, det in expected.items():
        assert knot_determinant(_alexander(name)) == det


def _braid_connected_sum(a: BraidWord, b: BraidWord) -> BraidWord:
    """Closure of the result is the connected sum of the two closures."""
    shift = a.strands - 1
    shifted = tuple(l + shift if l > 0 else l - shift for l in b.letters)
    return BraidWord(a.strands + b.strands - 1, a.letters + shifted)


def test_alexander_multiplies_under_connected_sum():
    a = resolve_knot("3_1")
    b = resolve_knot("4_1")
    joined = _braid_connected_sum(a, b)
    product = _alexander("3_1") * _alexander("4_1")
    assert alexander_polynomial(joined) == product.normalized()


def _random_knot_braids(count, seed, max_strands=4, min_letters=1, max_letters=8):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        strands = rng.randint(2, max_strands)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(min_letters, max_letters))
        )
        b = BraidWord(strands, letters)
        if b.is_knot():
            found.append(b)
    return found


def test_alexander_properties_on_random_braids():
    # unit value at 1 and palindromic coefficients, two hundred samples
    for braid in _random_knot_braids(200, seed=61):
        delta = alexander_polynomial(braid)
        assert abs(delta.evaluate(1)) == 1
        assert is_palindrome(delta.coeffs)
        assert knot_determinant(delta) % 2 == 1


def test_cached_alexander_polynomial_equals_a_fresh_computation():
    # The polynomial is cached per braid for the life of the process; a
    # hit must give what computing it again gives, on the table knots and
    # on random braids, the second lookup of each a hit.
    fresh = alexander_polynomial.__wrapped__
    braids = list(KNOT_TABLE.values()) + _random_knot_braids(200, seed=62)
    assert len(KNOT_TABLE) == 5
    for b in braids:
        assert alexander_polynomial(b) == fresh(b)
        assert alexander_polynomial(b) == fresh(b)
    # An equal braid built again is a hit on the same entry.
    assert alexander_polynomial(BraidWord(3, (1, -2, 1, -2))) is _alexander("4_1")


def test_burau_matches_the_fox_oracle_on_random_braids():
    # The Fox oracle reads the crossings that wirtinger reads, so the
    # polynomial from the braid's Burau matrix is that diagram's.
    braids = _random_knot_braids(200, seed=73, max_strands=6, min_letters=3, max_letters=16)
    for braid in braids:
        d = braid_closure_diagram(braid)
        oracle = LaurentPolynomial(tuple(alexander_from_fox(d.crossings)), 0)
        assert alexander_polynomial(braid) == oracle, str(braid)


def test_alexander_polynomial_is_kept_by_markov_moves():
    # Closures of braids related by Markov moves are the same knot, so the
    # polynomial read off the braid itself must not move: conjugation by
    # sigma_i and stabilization by sigma_s^(+-1) onto a new strand.
    rng = random.Random(97)
    for braid in _random_knot_braids(100, seed=83):
        delta = alexander_polynomial(braid)
        s = braid.strands
        i = rng.choice((1, -1)) * rng.randint(1, s - 1)
        conjugate = BraidWord(s, (i, *braid.letters, -i))
        assert alexander_polynomial(conjugate) == delta, (str(braid), i)
        for sign in (1, -1):
            stabilized = BraidWord(s + 1, (*braid.letters, sign * s))
            assert alexander_polynomial(stabilized) == delta, (str(braid), sign)


def _fox_shifted_sum(a, b, shift):
    out = dict(a)
    for k, c in b.items():
        out[k + shift] = out.get(k + shift, 0) + c
    return {k: c for k, c in out.items() if c}


def test_fox_derivative_product_rule():
    # Checks the Fox oracle itself, on syllable tuples of unit exponents.
    rng = random.Random(67)

    def rand_word():
        return tuple(
            (rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))
        )

    for _ in range(100):
        u, v = rand_word(), rand_word()
        for g in (0, 1):
            # d(uv) = du + u dv with u abelianized to t^(exponent sum)
            right = _fox_shifted_sum(
                fox_derivative(u, g), fox_derivative(v, g), sum(e for _, e in u)
            )
            assert fox_derivative(u + v, g) == right


def test_fox_derivative_basics():
    x = ((0, 1),)
    assert fox_derivative(x, 0) == {0: 1}
    assert fox_derivative(((0, -1),), 0) == {-1: -1}
    assert fox_derivative(x, 1) == {}


# -- Wirtinger presentations ---------------------------------------------------


def test_wirtinger_shape_and_h1():
    for name in ("3_1", "4_1", "5_1", "5_2"):
        d = _diagram(name)
        p = wirtinger(d)
        assert p.ngens == d.n_arcs
        assert len(p.relators) == len(d.crossings)
        inv = abelian_invariants(p)
        assert (inv.free_rank, inv.torsion) == (1, ())


def test_wirtinger_longitude_is_nullhomologous():
    # exponent sum zero = linking number zero with the knot
    for name in ("unknot", "3_1", "4_1", "5_1", "5_2"):
        p = wirtinger(_diagram(name))
        assert p.longitude.exponent_sum() == 0


def _image_permutation(table, word):
    """Permutation of the cosets of a completed regular table."""
    rows = table.rows()
    out = []
    for c in range(len(rows)):
        x = c
        for g, s in word.letters():
            x = rows[x][2 * g] if s > 0 else rows[x][2 * g + 1]
        out.append(x)
    return out


def test_peripheral_pair_commutes_in_finite_quotients():
    # [meridian, longitude] must die in every quotient; check the regular
    # representation of knot group mod meridian^d for small d.
    cases = [("3_1", 2), ("3_1", 3), ("4_1", 2), ("5_2", 2)]
    for name, d in cases:
        p = wirtinger(_diagram(name))
        q = quotient(p, [p.meridian**d])
        r = todd_coxeter(q, [])
        assert r.complete
        comm = commutator(p.meridian, p.longitude)
        n = len(r.table.rows())
        assert _image_permutation(r.table, comm) == list(range(n))


def test_unknot_wirtinger_group_is_z():
    p = wirtinger(_diagram("unknot"))
    assert p.ngens == 1 and not p.relators
    assert p.longitude.is_identity()


# -- tangle groups -------------------------------------------------------------


def test_tangle_group_h1_is_rank_two():
    for name in ("3_1", "4_1"):
        t = band_double(resolve_knot(name), 0)
        p = wirtinger(t)
        assert len(p.relators) == len(t.crossings)
        inv = abelian_invariants(p)
        assert (inv.free_rank, inv.torsion) == (2, ())


def test_tangle_marked_words():
    # The loops sit at the band's shared end: where strand 1 starts and
    # strand 2, which runs against it, ends.  The band is a disk, so capping
    # both its ends closes the two strands into its boundary, an unknot.
    # Anti-parallel strands meet head to tail at each cap, which then
    # identifies the meridians of the two arcs it joins: strand 2's last
    # with strand 1's first, strand 1's last with strand 2's first.  The
    # capped group is Z, and Z/2 with a1^2 killed.  Strands drawn with a
    # wrong orientation make some cap identify a meridian with an inverse.
    braids = [resolve_knot(name) for name in KNOT_TABLE]
    braids += _random_knot_braids(50, seed=232)
    for braid in braids:
        for framing in (-2, 0, 3):
            t = band_double(braid, framing)
            p = wirtinger(t)
            strand1, strand2 = t.strands
            a1, a2 = Word.gen(strand1[0]), Word.gen(strand2[-1])
            assert a1 == p.meridian and a1 != a2
            caps = (
                a2 * a1.inverse(),
                Word.gen(strand1[-1]) * Word.gen(strand2[0]).inverse(),
            )
            capped = quotient(p, caps + (a1**2,))
            assert certify_cyclic(capped, 2).status == CYCLIC, (braid, framing)


def test_tangle_longitude_owns_no_self_linking():
    for name in ("3_1", "4_1"):
        t = band_double(resolve_knot(name), 0)
        p = wirtinger(t)
        strand2 = set(t.strands[1])
        own = sum(s for g, s in p.longitude.letters() if g in strand2)
        assert own == 0


def test_normal_invariant_labels():
    def report(name):
        return normal_invariant_report(_alexander(name))

    assert report("3_1").label == "1*PD(T')"
    assert report("5_2").label == "0*PD(T')"
    assert report("unknot").arf == 0


def test_arf_requires_odd_determinant():
    # all genuine knots have odd determinant; the assertion is a guard on
    # the diagram bookkeeping, not reachable through the public builders
    for name in ("3_1", "4_1", "5_1", "5_2"):
        assert arf_invariant(_alexander(name)) in (0, 1)
