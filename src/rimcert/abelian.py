"""Exact integer Smith normal form and abelianization of presentations.

Everything runs over Python ints, so nothing overflows, but entries can
still grow; the Smith form therefore pivots every round on the least
nonzero entry left, and a remainder is always the next pivot.  Only the
diagonal form D is computed: it is unique and it is all that H_1 reads.
The operations that reach it are not recorded: no certificate carries
them, and on dense matrices their products grow far past D's entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .groups import GroupPresentation

Matrix = list[list[int]]


def _min_abs_pivot(m: Matrix, t: int) -> tuple[int, int] | None:
    """Position of the least |nonzero| entry in the trailing submatrix."""
    best: tuple[int, int, int] | None = None
    for i in range(t, len(m)):
        for j in range(t, len(m[0])):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return best[1], best[2]
    return None if best is None else (best[1], best[2])


def smith_normal_form(a: Matrix) -> Matrix:
    """Return D, the Smith normal form of A, as a matrix of A's shape.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ... , and
    unimodular row and column operations carry A to it.  Each round moves
    the least nonzero entry of the trailing submatrix to the pivot and
    reduces its row and column by floor division; any remainder is smaller
    than the pivot and becomes the next round's pivot.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [row[:] for row in a]
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    t = 0
    while t < min(rows, cols):
        pos = _min_abs_pivot(m, t)
        if pos is None:
            break
        pi, pj = pos
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        p = m[t][t]
        for i in range(t + 1, rows):
            q = m[i][t] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
        for j in range(t + 1, cols):
            q = m[t][j] // p
            if q:
                for row in m:
                    row[j] -= q * row[t]
        if any(m[i][t] for i in range(t + 1, rows)) or any(m[t][t + 1 :]):
            continue  # a remainder is left: it is the next round's pivot
        # The pivot must divide the rest; if it does not, the sum of row t
        # and an offending row leaves a remainder in row t next round.
        bad = [i for i in range(t + 1, rows) if any(x % p for x in m[i][t + 1 :])]
        if bad:
            m[t] = [x + y for x, y in zip(m[t], m[bad[0]])]
            continue
        if p < 0:
            m[t] = [-x for x in m[t]]
        t += 1
    return m


@dataclass(frozen=True, slots=True)
class AbelianInvariants:
    """H_1 of a presentation: free rank plus the torsion divisor chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, d in enumerate(self.torsion):
            if d <= 1:
                raise ValueError("torsion divisors must exceed 1")
            if i and d % self.torsion[i - 1] != 0:
                raise ValueError("torsion divisors must form a chain")

    def is_cyclic_of_order(self, d: int) -> bool:
        if d == 1:
            return self.free_rank == 0 and not self.torsion
        return self.free_rank == 0 and self.torsion == (d,)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def relator_matrix(p: GroupPresentation) -> Matrix:
    """Exponent-sum matrix: rows index relators, columns index generators.

    Each relator's letters are counted at C level: letter c is generator
    c >> 1, with exponent -1 when c is odd.
    """
    mat = []
    for r in p.relators:
        row = [0] * p.ngens
        for c, k in Counter(r.cols).items():
            row[c >> 1] += -k if c & 1 else k
        mat.append(row)
    return mat


def abelian_invariants(p: GroupPresentation) -> AbelianInvariants:
    mat = relator_matrix(p)
    if not mat:
        return AbelianInvariants(free_rank=p.ngens, torsion=())
    d = smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    nonzero = [x for x in diag if x != 0]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianInvariants(free_rank=p.ngens - len(nonzero), torsion=torsion)
