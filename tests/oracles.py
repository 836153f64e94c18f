"""Independent oracles the test suite checks the package against.

Nothing here imports rimcert.  Alexander polynomials come from Seifert
matrices via det(V^T - t V) and from the Fox matrix of a diagram's
crossings, both by cofactor expansion, the Arf invariant from the mod-2
Seifert quadratic form over a symplectic basis, determinants from fraction-free
elimination, Smith diagonals from the gcds of minors, coset-table
lookahead from a plain scan of its own on a row-major table of its own,
relator scans from a walk that defines one coset per step, coincidence
from a union-find of its own, the restarting round loop's renumbering
from one ascending pass over the parents, generator collapse from
syllable arithmetic on plain tuples, and the rim-surgered group from the
braid's Artin action on such tuples, with no diagram.  Frozen expected
values in the tests were produced by these routines, not by the code
under test.
"""

from itertools import combinations, product
from math import gcd

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


def is_palindrome(coeffs):
    """Coefficients that read the same from either end (symmetric up to a
    power of t, for a Laurent polynomial's trimmed coefficient tuple)."""
    return tuple(coeffs) == tuple(reversed(coeffs))


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
    """Cofactor expansion along the rows in order, each minor memoized by
    the columns it keeps, and zero entries skipped: fine for the tiny
    matrices Seifert forms give and for the sparse Fox matrices of the
    test braids, at most 16 crossings."""
    n = len(mat)
    memo = {}

    def minor(cols):
        if not cols:
            return [1]
        if cols not in memo:
            row = mat[n - len(cols)]
            total = []
            for k, j in enumerate(cols):
                if row[j]:
                    term = poly_mul(row[j], minor(cols[:k] + cols[k + 1:]))
                    total = poly_add(total, poly_neg(term) if k % 2 else term)
            memo[cols] = total
        return memo[cols]

    return list(minor(tuple(range(n))))


def _normalized(delta):
    """Lowest exponent 0 and positive lead."""
    while delta and delta[0] == 0:
        delta.pop(0)
    return poly_neg(delta) if delta and delta[-1] < 0 else delta


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
    return _normalized(delta)


def fox_derivative(word, gen):
    """Free derivative of a syllable word by generator gen, every generator
    sent to t, as {exponent: coefficient} with the zeros dropped."""
    out = {}
    prefix = 0
    for g, e in _word_letters(word):
        if g == gen:
            # x contributes t^prefix; x^-1 contributes -t^(prefix - 1).
            at = prefix if e > 0 else prefix - 1
            out[at] = out.get(at, 0) + e
        prefix += e
    return {k: c for k, c in out.items() if c}


def alexander_from_fox(crossings):
    """Delta of a knot diagram from the Fox matrix of its Wirtinger relators.

    A crossing's relator is out^-1 over^s in over^-s, read from the plain
    attributes over, under_in, under_out and sign; the arcs are numbered
    0..len(crossings)-1.  Deleting the first crossing's row and arc 0's
    column leaves Delta up to a unit.  Each row is shifted to nonnegative
    exponents, another unit.  Normalized like alexander_from_seifert.
    """
    n = len(crossings)
    rows = []
    for c in crossings[1:]:
        relator = ((c.under_out, -1), (c.over, c.sign), (c.under_in, 1), (c.over, -c.sign))
        derivs = [fox_derivative(relator, g) for g in range(1, n)]
        low = min((k for d in derivs for k in d), default=0)
        rows.append([
            poly_trim([d.get(k, 0) for k in range(low, max(d, default=low) + 1)])
            for d in derivs
        ])
    return _normalized(poly_det(rows))


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


def smith_diagonal_by_minors(a):
    """The Smith diagonal of an integer matrix by Smith's theorem (1861).

    d_k, the product of the first k diagonal entries, is the gcd of the
    k x k minors; entry k is d_k / d_(k-1), and zeros follow once d_k = 0.
    The gcd may stop at d_(k-1), which divides every k x k minor.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    size = min(rows, cols)
    diag = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for r, c in product(combinations(range(rows), k), combinations(range(cols), k)):
            g = gcd(g, int_det([[a[i][j] for j in c] for i in r]))
            if g == prev:
                break
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag + [0] * (size - len(diag))


# Coset tables one list per coset, as the enumerator first stored them.  The
# reference passes below run on a RowTable built from the start state of the
# table they check (``CosetTable.rows()`` and ``p``), so they share no
# storage and no scanning code with it.  RowTable.coincidence is the
# enumerator's merge as it first ran on rows: a queue of dead cosets, the
# smaller representative kept, parents walked without path compression.  So
# a RowTable and a CosetTable that merge the same cosets end with the same
# parent lists, dead cosets included.


class RowTable:
    def __init__(self, rows, p, ncols):
        self.table = [list(row) for row in rows]
        self.p = list(p)
        self.ncols = ncols

    def coincidence(self, alpha, beta):
        table, p = self.table, self.p
        while p[alpha] != alpha:
            alpha = p[alpha]
        while p[beta] != beta:
            beta = p[beta]
        if alpha == beta:
            return
        if alpha > beta:
            alpha, beta = beta, alpha
        p[beta] = alpha
        queue = [beta]
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for x, delta in enumerate(table[gamma]):
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu = gamma
                while p[mu] != mu:
                    mu = p[mu]
                nu = delta
                while p[nu] != nu:
                    nu = p[nu]
                if table[mu][x] is not None:
                    phi, psi = table[mu][x], nu
                elif table[nu][x ^ 1] is not None:
                    phi, psi = table[nu][x ^ 1], mu
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
                    continue
                while p[phi] != phi:
                    phi = p[phi]
                if phi != psi:
                    lo, hi = min(phi, psi), max(phi, psi)
                    p[hi] = lo
                    queue.append(hi)


# Coset-table lookahead, as the enumerator first ran it: every relator is
# scanned from every live coset with a plain non-filling scan.  It takes a
# RowTable (``table``, ``p`` and ``coincidence``) and does not poll a
# deadline.


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


# Relator scan, as the enumerator ran it before it filled a gap with one
# chain of cosets: both walks are retried after every single definition.
# It works on a coset table's columns and defines through the table's own
# ``define`` (which polls the deadline and stops at the limit) and merges
# through its ``coincidence``; the word is a tuple of column letters.


def reference_scan(ct, alpha, word):
    cols = ct.cols
    f, i = alpha, 0
    b, j = alpha, len(word) - 1
    while True:
        while i <= j and cols[word[i]][f] is not None:
            f = cols[word[i]][f]
            i += 1
        if i > j:
            if f != b:
                ct.coincidence(f, b)
            return
        while j >= i and cols[word[j] ^ 1][b] is not None:
            b = cols[word[j] ^ 1][b]
            j -= 1
        if j < i:
            ct.coincidence(f, b)
            return
        if j == i:
            cols[word[i]][f] = b
            cols[word[i] ^ 1][b] = f
            return
        f = ct.define(f, ct.views(word), i, 1)
        i += 1


# Coincidence, as the enumerator first ran it: a union-find with path
# compression, each merge keeping the smaller representative.  It takes a
# RowTable (``table``, ``p`` and ``ncols``) and does not poll a deadline.


def _reference_rep(ct, k):
    p = ct.p
    r = k
    while p[r] != r:
        r = p[r]
    while p[k] != r:
        p[k], k = r, p[k]
    return r


def _reference_merge(ct, k, l, queue):
    phi, psi = _reference_rep(ct, k), _reference_rep(ct, l)
    if phi != psi:
        mu, nu = (phi, psi) if phi < psi else (psi, phi)
        ct.p[nu] = mu
        queue.append(nu)


def reference_coincidence(ct, alpha, beta):
    table = ct.table
    queue = []
    _reference_merge(ct, alpha, beta, queue)
    qi = 0
    while qi < len(queue):
        gamma = queue[qi]
        qi += 1
        row = table[gamma]
        for x in range(ct.ncols):
            delta = row[x]
            if delta is None:
                continue
            table[delta][x ^ 1] = None
            mu = _reference_rep(ct, gamma)
            nu = _reference_rep(ct, delta)
            if table[mu][x] is not None:
                _reference_merge(ct, nu, table[mu][x], queue)
            elif table[nu][x ^ 1] is not None:
                _reference_merge(ct, mu, table[nu][x ^ 1], queue)
            else:
                table[mu][x] = nu
                table[nu][x ^ 1] = mu


# Renumbering, as the enumerator's round loop first ran it before restarting
# HLT at coset 0.  It works on a coset table's columns (``cols`` and ``p``).


def compress(ct):
    """Renumber the live cosets 0..n-1 and return how many were freed.

    A dead coset's parent is always a smaller coset (merges keep the
    smaller number), so one ascending pass maps every coset, dead or
    alive, to the new number of its representative.
    """
    p = ct.p
    new = [0] * len(p)
    live = []
    for c, parent in enumerate(p):
        if parent == c:
            new[c] = len(live)
            live.append(c)
        else:
            new[c] = new[parent]
    for col in ct.cols:
        col[:] = [None if v is None else new[v] for v in map(col.__getitem__, live)]
    p[:] = range(len(live))
    return len(new) - len(live)


# Generator collapse, as it first ran on syllables.  Words are tuples of
# (generator, nonzero exponent) syllables; relators come in as a
# presentation holds them (cyclically reduced, shortest first).  The result
# is (ngens, relators, meridian, longitude), with the relators sorted the
# way a presentation sorts them.


def _free_reduce(syllables):
    out = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


def _word_inverse(w):
    return tuple((g, -e) for g, e in reversed(w))


def _word_length(w):
    return sum(abs(e) for _, e in w)


def _word_letters(w):
    return [(g, 1 if e > 0 else -1) for g, e in w for _ in range(abs(e))]


def _cyclic_reduce(w):
    syls = list(w)
    while len(syls) > 1 and syls[0][0] == syls[-1][0]:
        g, head, tail = syls[0][0], syls[0][1], syls[-1][1]
        if head + tail == 0:
            syls = syls[1:-1]
        else:
            syls = [(g, head + tail)] + syls[1:-1]
            break
    return _free_reduce(syls)


def _rotation_class(w):
    """Least rotation of the letters of w and of w^-1."""
    rots = []
    for cand in (w, _word_inverse(w)):
        letters = _word_letters(cand)
        rots += [tuple(letters[i:] + letters[:i]) for i in range(len(letters))]
    return min(rots, default=())


def _substitute(w, gen, image):
    inverse = _word_inverse(image)
    out = []
    for g, e in w:
        if g != gen:
            out.append((g, e))
            continue
        for _ in range(abs(e)):
            out.extend(image if e > 0 else inverse)
    return _free_reduce(out)


def _single_occurrence(relators, protect):
    best = None
    for idx, r in enumerate(relators):
        per_gen = {}
        for g, e in r:
            per_gen[g] = per_gen.get(g, 0) + abs(e)
        for g, c in sorted(per_gen.items()):
            if c == 1 and g not in protect:
                key = (_word_length(r), g, idx)
                if best is None or key < best:
                    best = key
    return None if best is None else (best[2], best[1])


def _solve_for(r, gen):
    letters = _word_letters(r)
    pos = next(i for i, (g, _) in enumerate(letters) if g == gen)
    rest = _free_reduce(letters[pos + 1:] + letters[:pos])
    return _word_inverse(rest) if letters[pos][1] > 0 else rest


def reference_collapse(ngens, relators, meridian, longitude, protect=(), cap=4096):
    relators = list(relators)
    live = list(range(ngens))
    while len(live) > 1:
        cand = _single_occurrence(relators, frozenset(protect))
        if cand is None:
            break
        idx, gen = cand
        image = _solve_for(relators[idx], gen)
        new_rels = []
        for k, r in enumerate(relators):
            if k == idx:
                continue
            sub = _cyclic_reduce(_substitute(r, gen, image))
            if _word_length(sub) > cap:
                break
            if sub:
                new_rels.append(sub)
        else:
            relators = new_rels
            if meridian is not None:
                meridian = _substitute(meridian, gen, image)
            if longitude is not None:
                longitude = _substitute(longitude, gen, image)
            live.remove(gen)
            continue
        break

    seen = set()
    kept = []
    for r in relators:
        key = _rotation_class(r)
        if key not in seen:
            seen.add(key)
            kept.append(r)
    index = {g: i for i, g in enumerate(live)}

    def renumber(w):
        return None if w is None else tuple((index[g], e) for g, e in w)

    kept = sorted(
        (renumber(r) for r in kept), key=lambda w: (_word_length(w), w)
    )
    return (
        len(live),
        tuple(kept),
        renumber(meridian),
        renumber(longitude),
    )


# The rim-surgered group of a braid closure from the braid's Artin action
# (Birman, *Braids, Links, and Mapping Class Groups*, 1974).  Generator j
# is the meridian of the strand at position j (0-based) at the top of the
# braid; words are syllable tuples as above.


def _artin_letter(letter, j):
    """Image of generator j under sigma_i (letter i) or its inverse (-i)."""
    i = abs(letter) - 1
    if j not in (i, i + 1):
        return ((j, 1),)
    if letter > 0:
        return ((i, 1), (i + 1, 1), (i, -1)) if j == i else ((i, 1),)
    return ((i + 1, 1),) if j == i else ((i + 1, -1), (i, 1), (i + 1, 1))


def _artin_apply(letter, w):
    out = []
    for g, e in _word_letters(w):
        image = _artin_letter(letter, g)
        out.extend(image if e > 0 else _word_inverse(image))
    return _free_reduce(out)


def _artin_images(strands, letters):
    """The images of the generators under the braid, one word each."""
    images = [((j, 1),) for j in range(strands)]
    for letter in letters:
        images = [_artin_apply(letter, w) for w in images]
    return images


def _artin_longitude(images):
    """The longitude at generator 0 of the closure of the braid.

    Each image is a conjugate W x_k W^-1 of a generator.  Following the
    closure's strand from x_0 through k multiplies the W's into a word
    that commutes with x_0 in the closure's group; a power of x_0 cancels
    its exponent sum, and the inverse gives the package's orientation.
    """
    conj = []
    for w in images:
        letters = _word_letters(w)
        mid = len(letters) // 2
        head, (k, e), tail = letters[:mid], letters[mid], letters[mid + 1:]
        if e != 1 or tuple(tail) != _word_inverse(tuple(head)):
            raise AssertionError("a braid image must conjugate a generator")
        conj.append((head, k))
    word, j = [], 0
    while True:
        head, j = conj[j]
        word.extend(head)
        if j == 0:
            break
    total = sum(e for _, e in word)
    return _word_inverse(_free_reduce(word + [(0, -total)]))


def artin_rim_group(strands, letters, d, m, n):
    """(ngens, relators) of the m-twisted n-rolled rim surgery group.

    The closure's group is <x_j | x_j = beta(x_j)>; the surgery kills x_0^d
    and makes longitude^n * x_0^m central.  x_0 is the meridian.
    """
    images = _artin_images(strands, letters)
    relators = [_free_reduce(((j, -1),) + w) for j, w in enumerate(images)]
    relators.append(((0, d),))
    longitude = _artin_longitude(images)
    conjugator = _free_reduce(longitude * n + ((0, m),))
    if conjugator:
        for j in range(strands):
            relators.append(
                _free_reduce(
                    ((j, -1),) + _word_inverse(conjugator) + ((j, 1),) + conjugator
                )
            )
    return strands, [r for r in relators if r]


# Diagrams as JSON documents, in the field layout the builders' digest was
# frozen with.  Plain attribute reads, so no rimcert import here either.


def _crossing_json(x):
    return {"over": x.over, "under_in": x.under_in, "under_out": x.under_out,
            "sign": x.sign}


def knot_diagram_json(d, braid):
    """The closure diagram `d` of `braid`."""
    return {
        "crossings": [_crossing_json(x) for x in d.crossings],
        "arcs": d.n_arcs,
        "writhe": braid.writhe(),
        "braid": str(braid),
    }


def tangle_diagram_json(t, source_writhe):
    """The band tangle `t` of a knot whose diagram has `source_writhe`.

    The boundary loops are signed arc sequences at the strands' shared
    end: a1 on strand 1's first arc, a2 on strand 2's last, a3 = a1 a2^-1.
    """
    strand1, strand2 = t.strands
    return {
        "crossings": [_crossing_json(x) for x in t.crossings],
        "arcs": t.n_arcs,
        "strand1": list(strand1),
        "strand2": list(strand2),
        "a1": [[strand1[0], 1]],
        "a2": [[strand2[-1], 1]],
        "a3": [[strand1[0], 1], [strand2[-1], -1]],
        "source_writhe": source_writhe,
    }
