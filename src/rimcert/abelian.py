"""Exact integer Smith normal form and abelianization of presentations.

Everything runs over Python ints, so there is no overflow to manage.  The
SNF routine returns the full decomposition U*A*V = D with unimodular U, V,
which is what makes the abelianization step certifiable rather than merely
plausible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .groups import GroupPresentation

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*A*V = D, |det U| = |det V| = 1.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ... .
    Pivots are chosen by least absolute value, which keeps intermediate
    entries small without any randomness.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [row[:] for row in a]
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        pos = _min_abs_pivot(m, t)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, q)
                    if m[i][t]:  # remainder became the smaller pivot
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, q)
                    if m[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if not dirty and all(m[i][t] == 0 for i in range(t + 1, rows)) and all(
                m[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        # divisibility: pivot must divide the rest of the submatrix
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    row_op(t, i, -1)  # add row i to row t, then redo
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, m, v


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
    _, d, _ = smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    nonzero = [x for x in diag if x != 0]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianInvariants(free_rank=p.ngens - len(nonzero), torsion=torsion)
