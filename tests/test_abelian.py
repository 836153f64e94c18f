import random

import pytest

from rimcert.abelian import AbelianInvariants, abelian_invariants, smith_normal_form
from rimcert.groups import GroupPresentation, Word

from oracles import int_det, smith_diagonal_by_minors


def _assert_snf(a):
    rows, cols = len(a), len(a[0]) if a else 0
    d = smith_normal_form(a)
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert diag == smith_diagonal_by_minors(a)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for x in diag:
        assert x >= 0
    for prev, cur in zip(diag, diag[1:]):
        if cur:
            assert prev != 0 and cur % prev == 0
        # zeros may only trail nonzero entries
        if prev == 0:
            assert cur == 0
    return diag


def test_snf_on_hundred_random_matrices(time_limit):
    rng = random.Random(23)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _assert_snf(a)
    # Dense draws, where a reduction that does not pivot on the least entry
    # each round lets the entries grow to hundreds of digits.
    rng = random.Random(1)
    with time_limit(10):
        for rows, cols in ((6, 7), (8, 8)):
            for _ in range(60):
                a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
                _assert_snf(a)


def test_snf_of_a_dense_matrix_ends_in_time(time_limit):
    a = [
        [-9, 4, 6, 0, 4, 1, 5],
        [5, -6, -3, -5, -4, -7, 2],
        [3, 6, -5, 8, -1, -6, -1],
        [-4, 0, -2, -8, 6, -8, 2],
        [2, 1, -8, -9, 5, 6, -5],
        [-6, 1, 0, 5, -2, -4, -8],
    ]
    with time_limit(5):
        assert _assert_snf(a) == [1, 1, 1, 1, 1, 2]


def test_snf_preserves_determinant_up_to_sign():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        d = smith_normal_form(a)
        prod = 1
        for i in range(n):
            prod *= d[i][i]
        assert prod == abs(int_det(a))


def test_snf_known_divisor_chains():
    # 2x2 with elementary divisors 1, 6: gcd of entries 1, det 6.
    diag = _assert_snf([[2, 4], [4, 2]])
    assert diag == [2, 6]
    diag = _assert_snf([[1, 0], [0, 1]])
    assert diag == [1, 1]
    diag = _assert_snf([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_abelian_invariants_reject_bad_chains():
    with pytest.raises(ValueError):
        AbelianInvariants(free_rank=0, torsion=(2, 3))
    with pytest.raises(ValueError):
        AbelianInvariants(free_rank=0, torsion=(1,))


def test_cyclic_recognition():
    assert AbelianInvariants(0, (5,)).is_cyclic_of_order(5)
    assert AbelianInvariants(0, ()).is_cyclic_of_order(1)
    assert not AbelianInvariants(1, ()).is_cyclic_of_order(1)
    assert not AbelianInvariants(0, (2, 4)).is_cyclic_of_order(8)


def test_invariants_of_presentations():
    a, b = Word.gen(0), Word.gen(1)
    # Z x Z/3
    p = GroupPresentation(ngens=2, relators=(b**3, a * b * a.inverse() * b.inverse()))
    inv = abelian_invariants(p)
    assert (inv.free_rank, inv.torsion) == (1, (3,))
    # free group of rank 2
    free = GroupPresentation(ngens=2, relators=())
    inv = abelian_invariants(free)
    assert (inv.free_rank, inv.torsion) == (2, ())
    # Z/2 x Z/6 needs two torsion slots
    p = GroupPresentation(
        ngens=2,
        relators=(a**2, b**6, a * b * a.inverse() * b.inverse()),
    )
    inv = abelian_invariants(p)
    assert (inv.free_rank, inv.torsion) == (0, (2, 6))
    # Random presentations against the minors oracle, on exponent sums
    # counted from the drawn syllables rather than by relator_matrix.
    rng = random.Random(41)
    for _ in range(200):
        ngens = rng.randint(1, 4)
        rows = []
        relators = []
        for _ in range(rng.randint(1, 5)):
            syllables = [
                (rng.randrange(ngens), rng.choice((1, -1)) * rng.randint(1, 3))
                for _ in range(rng.randint(1, 6))
            ]
            row = [0] * ngens
            for gen, exp in syllables:
                row[gen] += exp
            rows.append(row)
            relators.append(Word(syllables))
        p = GroupPresentation(ngens=ngens, relators=tuple(relators))
        nonzero = [x for x in smith_diagonal_by_minors(rows) if x]
        inv = abelian_invariants(p)
        assert inv.free_rank == ngens - len(nonzero)
        assert inv.torsion == tuple(x for x in nonzero if x > 1)
