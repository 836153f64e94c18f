import random

import pytest

from rimcert.laurent import LaurentPolynomial, poly_determinant

from oracles import is_palindrome, poly_det, poly_eval, poly_mul


def L(coeffs, base=0):
    return LaurentPolynomial(tuple(coeffs), base)


def test_trimming_normalizes_representation():
    assert L([0, 1, 2, 0, 0], -1) == L([1, 2], 0)
    assert L([0, 0, 0]).is_zero()
    assert L([]).is_zero()


def test_ring_axioms_on_random_samples():
    rng = random.Random(7)

    def rand_poly():
        return L([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))],
                 rng.randint(-3, 3))

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + LaurentPolynomial.zero() == a
        assert a * LaurentPolynomial.one() == a
        assert (a - a).is_zero()


def test_evaluate_matches_oracle():
    rng = random.Random(11)
    for _ in range(100):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        p = L(coeffs)
        t = rng.choice([-3, -2, -1, 1, 2, 3])
        assert p.evaluate(t) == poly_eval(coeffs, t)


def test_evaluate_rejects_zero_with_negative_exponents():
    with pytest.raises(ValueError):
        L([1], -1).evaluate(0)


def test_divexact_inverts_multiplication():
    rng = random.Random(13)
    for _ in range(100):
        a = L([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))],
              rng.randint(-2, 2))
        b = L([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))],
              rng.randint(-2, 2))
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).divexact(b) == a


def test_divexact_rejects_remainders():
    with pytest.raises(ValueError):
        L([1, 1]).divexact(L([3]))  # t+1 is not divisible by 3
    with pytest.raises(ZeroDivisionError):
        L([1]).divexact(LaurentPolynomial.zero())


def test_normalized_and_palindrome():
    p = L([-1, 3, -1], -4)
    q = p.normalized()
    assert q.base == 0 and q.coeffs[-1] > 0
    assert is_palindrome(q.coeffs)
    assert not is_palindrome(L([1, -3, 2]).coeffs)


def test_str_round_trips_through_known_forms():
    assert str(L([1, -3, 1])) == "t^2-3t+1"
    assert str(L([2, -3, 2])) == "2t^2-3t+2"
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(LaurentPolynomial.one()) == "1"


def test_matrix_determinant_matches_cofactor_oracle():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [
            [[rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
             for _ in range(n)]
            for _ in range(n)
        ]
        mine = poly_determinant(
            [[L(c) for c in row] for row in rows]
        )
        oracle = poly_det([[list(c) for c in row] for row in rows])
        assert mine == L(oracle)
