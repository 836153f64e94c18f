"""Independent oracles the test suite checks the package against.

Nothing here imports rimcert.  Alexander polynomials come from Seifert
matrices via det(V^T - t V), the Arf invariant from the mod-2 Seifert
quadratic form over a symplectic basis, determinants from fraction-free
elimination, and coset-table lookahead from a plain scan of its own.
Frozen expected values in the tests were produced by these routines, not
by the code under test.
"""

# Polynomials are plain coefficient lists, index = exponent.


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_neg(a):
    return [-c for c in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_eval(a, t):
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def poly_det(mat):
    """Cofactor expansion; fine for the tiny matrices Seifert forms give."""
    n = len(mat)
    if n == 0:
        return [1]
    if n == 1:
        return list(mat[0][0])
    total = []
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = poly_mul(mat[0][j], poly_det(minor))
        if j % 2:
            term = poly_neg(term)
        total = poly_add(total, term)
    return total


def alexander_from_seifert(v):
    """det(V^T - t V), normalized to lowest exponent 0 and positive lead."""
    n = len(v)
    mat = [
        [poly_trim([v[j][i], -v[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    delta = poly_det(mat)
    if not delta:
        raise ValueError("degenerate Seifert matrix")
    while delta and delta[0] == 0:
        delta.pop(0)
    if delta[-1] < 0:
        delta = poly_neg(delta)
    return delta


def arf_from_seifert(v):
    """Arf = sum of q(a_i) q(b_i) over a mod-2 symplectic basis.

    q(x) = x V x^T mod 2 is the Seifert self-linking form; the basis is
    found by greedy symplectic reduction of the mod-2 intersection form
    V + V^T.  Deliberately avoids the determinant-residue shortcut the
    package uses, so the two computations are independent.
    """
    n = len(v)

    def q(x):
        return sum(x[i] * v[i][j] * x[j] for i in range(n) for j in range(n)) % 2

    def pair(x, y):
        return sum(
            x[i] * ((v[i][j] + v[j][i]) % 2) * y[j]
            for i in range(n)
            for j in range(n)
        ) % 2

    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    arf = 0
    while basis:
        a = basis.pop(0)
        partner = None
        for k, b in enumerate(basis):
            if pair(a, b):
                partner = basis.pop(k)
                break
        if partner is None:
            continue
        arf = (arf + q(a) * q(partner)) % 2
        # Make the rest symplectically orthogonal to the (a, partner) pair.
        fixed = []
        for c in basis:
            c1 = list(c)
            if pair(c1, partner):
                c1 = [(x + y) % 2 for x, y in zip(c1, a)]
            if pair(c1, a):
                c1 = [(x + y) % 2 for x, y in zip(c1, partner)]
            fixed.append(c1)
        basis = fixed
    return arf


# Seifert matrices from genus-minimal spanning surfaces of the table
# knots; banded form for the (2,5) torus knot.
SEIFERT = {
    "unknot": [],
    "3_1": [[-1, 1], [0, -1]],
    "4_1": [[1, 1], [0, -1]],
    "5_1": [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]],
    "5_2": [[2, 1], [0, 1]],
}


def int_det(rows):
    """Bareiss fraction-free determinant for integer matrices."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# Coset-table lookahead, as the enumerator first ran it: every relator is
# scanned from every live coset with a plain non-filling scan.  It takes a
# CosetTable by duck typing (``table``, ``p`` and ``coincidence``) and has its
# own scan, so it shares no scanning code with the table it checks.  It does
# not poll a deadline.


def _scan_without_filling(ct, alpha, word):
    table = ct.table
    f, i = alpha, 0
    b, j = alpha, len(word) - 1
    while i <= j and table[f][word[i]] is not None:
        f = table[f][word[i]]
        i += 1
    if i > j:
        if f != b:
            ct.coincidence(f, b)
        return
    while j >= i and table[b][word[j] ^ 1] is not None:
        b = table[b][word[j] ^ 1]
        j -= 1
    if j < i:
        ct.coincidence(f, b)
    elif j == i:
        table[f][word[i]] = b
        table[b][word[i] ^ 1] = f


def reference_lookahead(ct, relators):
    for alpha in range(len(ct.table)):
        if ct.p[alpha] != alpha:
            continue
        for r in relators:
            if ct.p[alpha] != alpha:
                break
            _scan_without_filling(ct, alpha, r)
