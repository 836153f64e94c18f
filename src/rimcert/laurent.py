"""Laurent polynomials in one variable over the integers.

Coefficients are exact Python ints.  A polynomial is a coefficient tuple
together with the exponent of its first entry, trimmed so that the first
and last coefficients are nonzero (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

from dataclasses import dataclass


def _trim(coeffs: list[int], base: int) -> tuple[tuple[int, ...], int]:
    lo = 0
    hi = len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return (), 0
    return tuple(coeffs[lo:hi]), base + lo


@dataclass(frozen=True, slots=True)
class LaurentPolynomial:
    coeffs: tuple[int, ...] = ()
    base: int = 0

    def __post_init__(self) -> None:
        c, b = _trim(list(self.coeffs), self.base)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "base", b)

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial()

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial((1,), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_exp(self) -> int:
        return self.base + len(self.coeffs) - 1

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.base, other.base)
        hi = max(self.max_exp(), other.max_exp())
        out = [0] * (hi - lo + 1)
        for p in (self, other):
            for i, c in enumerate(p.coeffs):
                out[p.base + i - lo] += c
        return LaurentPolynomial(tuple(out), lo)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple(-c for c in self.coeffs), self.base)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.is_zero() or other.is_zero():
            return LaurentPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LaurentPolynomial(tuple(out), self.base + other.base)

    def divexact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises if the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial()
        num = list(self.coeffs)
        den = list(other.coeffs)
        if len(num) < len(den):
            raise ValueError("inexact polynomial division")
        q = [0] * (len(num) - len(den) + 1)
        for k in range(len(q) - 1, -1, -1):
            head = num[k + len(den) - 1]
            if head % den[-1] != 0:
                raise ValueError("inexact polynomial division")
            q[k] = head // den[-1]
            if q[k]:
                for j, d in enumerate(den):
                    num[k + j] -= q[k] * d
        if any(num):
            raise ValueError("inexact polynomial division")
        return LaurentPolynomial(tuple(q), self.base - other.base)

    def evaluate(self, t: int) -> int:
        """Exact value at an integer t != 0 (negative exponents allowed)."""
        if t == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        if self.base >= 0:
            return acc * t**self.base
        denom = t ** (-self.base)
        if acc % denom != 0:
            raise ValueError("nonintegral value at this point")
        return acc // denom

    def normalized(self) -> "LaurentPolynomial":
        """Canonical associate: lowest exponent 0, top coefficient positive."""
        if self.is_zero():
            return self
        c = self.coeffs
        if c[-1] < 0:
            c = tuple(-x for x in c)
        return LaurentPolynomial(c, 0)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            e = self.base + i
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                if e == 1:
                    term = f"{mag}t"
                else:
                    term = f"{mag}t^{e}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("-" if c < 0 else "+") + term)
        return "".join(parts)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "base": self.base}


def poly_determinant(mat: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Fraction-free (Bareiss) determinant over Z[t, t^-1].

    Row swaps pick the first column entry that is nonzero; every division
    in the elimination is exact by the Bareiss identity.
    """
    n = len(mat)
    if n == 0:
        return LaurentPolynomial.one()
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    m = [row[:] for row in mat]
    sign = 1
    prev = LaurentPolynomial.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return LaurentPolynomial.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.divexact(prev)
            m[i][k] = LaurentPolynomial.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
