"""Seeded scenario generator for the finalg-m3 workload.

The algebra is the n x n matrix algebra in a q-scaled basis f_ij = q^s(i,j) E_ij
with s(i,i) = 0, so f_ij f_jk = q^(s(i,j)+s(j,k)-s(i,k)) f_ik.  The group is
the sign conjugations by diag(1, +-1, ..., +-1), and the distinguished element
a is diagonal with non-integral rational entries, hence fixed by the group.

Before the file is handed to homtwist, the generator re-reads its own
coefficient strings and checks the scenario in a plain Fraction model of
n x n matrices that shares no code with homtwist: a generator bug must not
pass for a homtwist failure.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction

# Specialisation points for the Fraction model.  Every identity checked is
# between single monomials c*q^e, which differ at q = 2 or q = 3/5 whenever
# they differ as Laurent polynomials.
_Q_POINTS = (Fraction(2), Fraction(3, 5))


def generate(seed, n=3):
    """Return the scenario document for this seed, after checking it."""
    rng = random.Random(seed)
    s = {
        (i, j): 0 if i == j else rng.randint(-2, 2)
        for i in range(n)
        for j in range(n)
    }
    pairs = [(i, j) for i in range(n) for j in range(n)]
    index = {pair: idx for idx, pair in enumerate(pairs)}
    constants = []
    for i, j, k in itertools.product(range(n), repeat=3):
        exp = s[i, j] + s[j, k] - s[i, k]
        constants.append([index[i, j], index[j, k], index[i, k], _q_text(exp)])
    signs = [(1,) + rest for rest in itertools.product((1, -1), repeat=n - 1)]
    rng.shuffle(signs)
    group = [
        [
            [str(d[r[0]] * d[r[1]]) if r == c else "0" for c in pairs]
            for r in pairs
        ]
        for d in signs
    ]
    diagonal = [_non_integral(rng) for _ in range(n)]
    element = [str(diagonal[i]) if i == j else "0" for i, j in pairs]
    doc = {
        "labels": [f"e{i + 1}{j + 1}" for i, j in pairs],
        "constants": constants,
        "unit": ["1" if i == j else "0" for i, j in pairs],
        "group": group,
        "element": element,
    }
    for q in _Q_POINTS:
        check(doc, n, s, q)
    return doc


def write(path, seed, n=3):
    with open(path, "w") as fh:
        json.dump(generate(seed, n), fh)
        fh.write("\n")


def _q_text(exp):
    return "1" if exp == 0 else f"q^{exp}"


def _non_integral(rng):
    while True:
        value = Fraction(rng.randint(1, 12), rng.randint(2, 7)) * rng.choice((1, -1))
        if value.denominator != 1:
            return value


_COEFF = re.compile(r"^(-?\d+(?:/\d+)?)$|^q\^(-?\d+)$")


def _value(text, q):
    """Evaluate one generated coefficient string at q (the generator's own grammar)."""
    match = _COEFF.match(text)
    if not match:
        raise ValueError(f"generator wrote an unexpected coefficient {text!r}")
    if match.group(1) is not None:
        return Fraction(match.group(1))
    return q ** int(match.group(2))


def _matmul(x, y):
    n = len(x)
    return [
        [sum((x[i][k] * y[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def _det(matrix):
    m = [row[:] for row in matrix]
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def check(doc, n, s, q):
    """Check the scenario at one value of q; raise ValueError on any defect."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    dim = len(pairs)

    def basis_matrix(idx):
        i, j = pairs[idx]
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][j] = q ** s[i, j]
        return m

    def coords(matrix):
        # f_ij = q^s(i,j) E_ij, so the f_ij coordinate is entry (i,j) / q^s(i,j)
        return [matrix[i][j] / q ** s[i, j] for i, j in pairs]

    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, text in doc["constants"]:
        table[i][j][k] += _value(text, q)

    def mul(v, w):
        out = [Fraction(0)] * dim
        for i, vi in enumerate(v):
            if vi:
                for j, wj in enumerate(w):
                    if wj:
                        row = table[i][j]
                        for k in range(dim):
                            if row[k]:
                                out[k] += vi * wj * row[k]
        return out

    basis = [[Fraction(int(k == i)) for k in range(dim)] for i in range(dim)]
    # the table is the matrix product in the scaled basis, hence associative
    for x in range(dim):
        for y in range(dim):
            want = coords(_matmul(basis_matrix(x), basis_matrix(y)))
            if mul(basis[x], basis[y]) != want:
                raise ValueError(f"structure constants differ from matrices at {x},{y}")
    products = [[mul(basis[x], basis[y]) for y in range(dim)] for x in range(dim)]
    for x, y, z in itertools.product(range(dim), repeat=3):
        if mul(products[x][y], basis[z]) != mul(basis[x], products[y][z]):
            raise ValueError(f"not associative at {x},{y},{z}")
    unit = [_value(t, q) for t in doc["unit"]]
    for x in range(dim):
        if mul(unit, basis[x]) != basis[x] or mul(basis[x], unit) != basis[x]:
            raise ValueError("unit is not a two-sided unit")
    a = [_value(t, q) for t in doc["element"]]
    left_a = [[mul(a, basis[j])[k] for j in range(dim)] for k in range(dim)]
    if _det(left_a) == 0:
        raise ValueError("distinguished element is not invertible")
    for g_idx, rows in enumerate(doc["group"]):
        g = [[_value(t, q) for t in row] for row in rows]

        def apply(v, g=g):
            return [sum((g[r][c] * v[c] for c in range(dim)), Fraction(0)) for r in range(dim)]

        if _det(g) == 0:
            raise ValueError(f"group element {g_idx} is not invertible")
        for x in range(dim):
            for y in range(dim):
                if apply(products[x][y]) != mul(apply(basis[x]), apply(basis[y])):
                    raise ValueError(f"group element {g_idx} is not an automorphism")
        if apply(a) != a:
            raise ValueError(f"group element {g_idx} does not fix a")
