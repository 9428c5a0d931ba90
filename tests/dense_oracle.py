"""Independent dense model of the finite-dimensional scenarios (finalg).

An algebra is its structure constants as a dense n x n x n array of QLaurent,
an element is a dense vector and an operator a dense n x n matrix whose
column j is the image of basis vector j.  The product, the inverse, the
inner automorphism i_a(b) = a b a^-1 and the composition of operators are
written out here from their definitions.  The model reads a scenario
document (the finalg file format) or builds the 2x2 matrix example itself,
and shares no code with homcore or finalg, so agreement between the two is
genuine evidence.
"""

from fractions import Fraction

from homtwist.scalars import ONE, ZERO, QLaurent


class Model:
    """Structure constants c[i][j][k], a unit, a group of matrices and an element a."""

    def __init__(self, constants, n, unit, group, element):
        self.n, self.unit, self.group, self.element = n, unit, group, element
        self.c = [[[constants.get((i, j, k), ZERO) for k in range(n)] for j in range(n)]
                  for i in range(n)]

    def basis(self, j):
        return [ONE if i == j else ZERO for i in range(self.n)]

    def mul(self, v, w):
        n = self.n
        return [sum((v[i] * w[j] * self.c[i][j][k] for i in range(n) for j in range(n)), ZERO)
                for k in range(n)]

    def inverse(self, a):
        """The x with a x = 1, by Gauss-Jordan elimination over Fraction; a
        must have q-free coordinates and be invertible.
        """
        n = self.n
        columns = [self.mul(a, self.basis(j)) for j in range(n)]
        rows = [[_constant(columns[j][k]) for j in range(n)] + [_constant(self.unit[k])]
                for k in range(n)]
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [x / rows[col][col] for x in rows[col]]
            for r in range(n):
                if r != col:
                    rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
        return [QLaurent.of(row[n]) for row in rows]

    def conjugation(self, a):
        """The matrix of i_a: column j is a e_j a^-1."""
        a_inv = self.inverse(a)
        columns = [self.mul(self.mul(a, self.basis(j)), a_inv) for j in range(self.n)]
        return [list(row) for row in zip(*columns)]


def _constant(c: QLaurent) -> Fraction:
    assert set(c.terms) <= {0}, "the dense model inverts q-free elements only"
    return Fraction(c.terms.get(0, 0))


def apply(matrix, v):
    """The image of the dense vector v."""
    return [sum((m * x for m, x in zip(row, v)), ZERO) for row in matrix]


def compose(m1, m2):
    """The matrix of m1 o m2."""
    return [list(row) for row in zip(*(apply(m1, column) for column in zip(*m2)))]


def from_document(doc) -> Model:
    """The model of a scenario document in the finalg file format."""
    read = QLaurent.parse
    constants = {(i, j, k): read(c) for i, j, k, c in doc["constants"]}
    group = [[[read(c) for c in row] for row in matrix] for matrix in doc["group"]]
    return Model(constants, len(doc["labels"]), [read(c) for c in doc["unit"]], group,
                 [read(c) for c in doc["element"]])


def m2() -> Model:
    """The 2x2 matrices E11, E12, E21, E22 with E_ij E_jl = E_il; the group of
    the identity and the conjugation by diag(1, -1); a = diag(2, 3).
    """
    units = [(1, 1), (1, 2), (2, 1), (2, 2)]
    at = units.index
    constants = {(at((i, j)), at((j, l)), at((i, l))): ONE for i, j in units for l in (1, 2)}
    diagonal = lambda values: [[QLaurent.of(values[r]) if r == c else ZERO for c in range(4)]
                               for r in range(4)]
    group = [diagonal([1, 1, 1, 1]), diagonal([1 if i == j else -1 for i, j in units])]
    element = [QLaurent.of({1: 2, 2: 3}[i]) if i == j else ZERO for i, j in units]
    return Model(constants, 4, [ONE if i == j else ZERO for i, j in units], group, element)
