"""Finite-dimensional carriers: structure-constant algebras, linear operators,
group bialgebras of automorphisms, and the inner-automorphism deformation.

Everything here is finite, so axiom sweeps run over the complete basis and a
pass is a full proof for the instance, not a degree-bounded truncation.
Matrix inversion is exact Gaussian elimination over rationals; operators with
genuinely q-dependent entries are rejected for inversion rather than
implementing a rational-function field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from .homcore import (
    Carrier,
    ModuleAlgebraScenario,
    Scenario,
    basis_terms,
    check_hom_associativity,
    check_multiplicativity,
    deform_scenario,
    key_ids,
    key_map,
    on_ids,
    yau_twist_algebra,
)
from .scalars import ONE, ZERO, QLaurent, extend_bilinear, extend_linear


class StructAlgebra:
    """Associative algebra given by structure constants e_i e_j = sum_k c_ijk e_k.

    Elements are sparse coordinate maps {basis index: nonzero QLaurent}, and
    the constants are kept as {(i, j): {k: c_ijk}}, so mul is a sparse
    contraction.  Distinct non-empty string labels and associativity on all
    basis triples are hard load-time preconditions.
    """

    def __init__(self, labels, constants, unit=None):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        first = {}
        for idx, label in enumerate(self.labels):
            if not isinstance(label, str) or not label:
                raise ValueError(f"label {idx} is not a non-empty string: {label!r}")
            if first.setdefault(label, idx) != idx:
                raise ValueError(f"labels {first[label]} and {idx} are both {label!r}")
        table = {}
        for (i, j, k), coeff in constants.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim and 0 <= k < self.dim):
                raise ValueError(f"structure constant index out of range: {(i, j, k)}")
            if not isinstance(coeff, QLaurent):
                coeff = QLaurent.of(coeff)
            if coeff:
                table.setdefault((i, j), {})[k] = coeff
        self.constants = table
        self.unit = unit
        if self.unit is not None and not all(0 <= i < self.dim for i in self.unit):
            raise ValueError("unit vector has an index out of range")
        self._verify_associativity()
        if self.unit is not None:
            self._verify_unit()

    def basis_vector(self, i):
        return {i: ONE}

    def mul(self, v, w):
        row = lambda i, j: self.constants.get((i, j), {}).items()
        return extend_bilinear(row, v.items(), w.items())

    def render(self, v):
        if not v:
            return "0"
        parts = []
        for i in sorted(v):
            c = v[i]
            ctext = str(c)
            if " + " in ctext or " - " in ctext:
                ctext = f"({ctext})"
            parts.append(f"{self.labels[i]}" if c == ONE else f"{ctext}*{self.labels[i]}")
        return " + ".join(parts)

    def _verify_associativity(self):
        # Eq. (1.2) with the identity structure map is associativity; the
        # error names the first failing triple only, so no side is rendered
        carrier = algebra_carrier(self)._replace(render_elem=lambda coords: "")
        report = check_hom_associativity(carrier)
        if not report.passed:
            raise ValueError(
                "structure constants are not associative at "
                f"({', '.join(report.counterexamples[0].rendered_inputs)})"
            )

    def _verify_unit(self):
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise ValueError("declared unit is not a two-sided unit")

    def inverse(self, a):
        """Two-sided inverse of a, by solving the left-multiplication system."""
        if self.unit is None:
            raise ValueError("algebra has no unit; inverses undefined")
        # left multiplication matrix: column j holds a * e_j
        columns = [self.mul(a, self.basis_vector(j)) for j in range(self.dim)]
        solution = _solve_rational(
            _dense(columns), [self.unit.get(k, ZERO) for k in range(self.dim)]
        )
        if solution is None:
            raise ValueError(f"element {self.render(a)} is not invertible")
        inv = {i: c for i, c in enumerate(solution) if c}
        if self.mul(inv, a) != self.unit:
            raise ValueError(f"element {self.render(a)} has no two-sided inverse")
        return inv


class LinOp:
    """Exact linear operator on a structure-constant algebra.

    It keeps the sparse images of the basis vectors and acts by their linear
    extension.  LinOp(rows) takes the dense matrix, image j being column j.
    """

    def __init__(self, rows):
        self.dim = len(rows)
        images = [{} for _ in range(self.dim)]
        for k, row in enumerate(rows):
            if len(row) != self.dim:
                raise ValueError("operator matrix must be square")
            for j, c in enumerate(row):
                if not isinstance(c, QLaurent):
                    c = QLaurent.of(c)
                if c:
                    images[j][k] = c
        self.images = tuple(images)

    @classmethod
    def identity(cls, dim):
        return cls.from_images([{j: ONE} for j in range(dim)])

    @classmethod
    def from_images(cls, images):
        """The operator sending basis vector j to the sparse vector images[j]."""
        op = object.__new__(cls)
        op.images = tuple(images)
        op.dim = len(op.images)
        return op

    def __call__(self, v):
        return extend_linear(lambda j: self.images[j].items(), v.items())

    def compose(self, other):
        return LinOp.from_images([self(image) for image in other.images])

    def __eq__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(tuple(frozenset(image.items()) for image in self.images))

    def is_algebra_endo(self, algebra: StructAlgebra) -> bool:
        if algebra.unit is not None and self(algebra.unit) != algebra.unit:
            return False
        carrier = algebra_carrier(algebra)._replace(alpha=linop_map(self))
        return check_multiplicativity(carrier).passed

    def is_automorphism(self, algebra: StructAlgebra) -> bool:
        if not self.is_algebra_endo(algebra):
            return False
        return _solve_rational(_dense(self.images), [ZERO] * self.dim) is not None


def _dense(columns):
    """The square matrix whose column j is the sparse vector columns[j]."""
    n = len(columns)
    return [[columns[j].get(k, ZERO) for j in range(n)] for k in range(n)]


def _solve_rational(matrix, rhs):
    """Solve M x = rhs exactly; entries must be constant (q-free) QLaurent.

    Returns the solution as a list of QLaurent, or None if M is singular,
    whatever the right-hand side: one call decides invertibility.
    """

    def as_fraction(c):
        if not c.terms:
            return Fraction(0)
        if set(c.terms) != {0}:
            raise ValueError(
                "inversion requires q-free entries; got a q-dependent value"
            )
        return c.terms[0]

    n = len(matrix)
    aug = [
        [as_fraction(matrix[i][j]) for j in range(n)] + [as_fraction(rhs[i])]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [QLaurent.of(aug[i][n]) for i in range(n)]


def inner_automorphism(algebra: StructAlgebra, a) -> LinOp:
    """The conjugation operator i_a(b) = a b a^-1 for invertible a."""
    a_inv = algebra.inverse(a)
    images = [
        algebra.mul(algebra.mul(a, algebra.basis_vector(j)), a_inv)
        for j in range(algebra.dim)
    ]
    return LinOp.from_images(images)


class GroupBialgebra:
    """A finite group of algebra automorphisms with grouplike comultiplication.

    The group is given extensionally; closure under composition and inverses
    is verified at construction, not computed.
    """

    def __init__(self, algebra: StructAlgebra, operators):
        self.algebra = algebra
        self.operators = list(operators)
        first = {}
        for idx, op in enumerate(self.operators):
            if op.dim != algebra.dim:
                raise ValueError(
                    f"operator {idx} is {op.dim}x{op.dim} on a {algebra.dim}-dim algebra"
                )
            if not op.is_automorphism(algebra):
                raise ValueError(f"operator {idx} is not an algebra automorphism")
            if first.setdefault(op, idx) != idx:
                raise ValueError(f"operators {first[op]} and {idx} are equal")
        self.table = {}
        for i, op1 in enumerate(self.operators):
            for j, op2 in enumerate(self.operators):
                composed = op1.compose(op2)
                try:
                    self.table[(i, j)] = self.operators.index(composed)
                except ValueError:
                    raise ValueError(
                        f"group not closed under composition at ({i}, {j})"
                    ) from None
        identity = LinOp.identity(algebra.dim)
        if identity not in self.operators:
            raise ValueError("group does not contain the identity operator")
        self.identity_index = self.operators.index(identity)
        for i in range(len(self.operators)):
            if not any(
                self.table[(i, j)] == self.identity_index
                for j in range(len(self.operators))
            ):
                raise ValueError(f"operator {i} has no inverse in the group")

    def size(self):
        return len(self.operators)

    # -- k[G] as a bialgebra carrier ----------------------------------

    def carrier(self) -> Carrier:
        """k[G] with grouplike comultiplication and identity structure map."""
        return Carrier(
            name="k[G]",
            basis=key_ids(range(self.size())),
            mul=cache(on_ids(lambda i, j: ((self.table[i, j], 1),))),
            comul=cache(on_ids(lambda i: (((i, i), 1),))),
            render_key=lambda i: f"g{i}",
            render_elem=_render_group_elem,
        )


def _render_group_elem(u):
    if not u:
        return "0"
    return " + ".join(f"{c}*g{i}" for i, c in sorted(u.items()))


def linop_map(op: LinOp):
    """The memo table id -> terms of a linear operator: its basis images."""
    return key_map(op.images.__getitem__)


def algebra_carrier(algebra: StructAlgebra) -> Carrier:
    """A structure-constant algebra with the identity structure map."""
    return Carrier(
        name="struct-algebra",
        basis=key_ids(range(algebra.dim)),
        mul=key_map(lambda i, j: algebra.constants.get((i, j), {})),
        render_key=lambda i: algebra.labels[i],
        render_elem=algebra.render,
    )


def automorphism_action(G: GroupBialgebra) -> ModuleAlgebraScenario:
    """The classical k[G]-module algebra on A with rho(phi x a) = phi(a)."""
    return ModuleAlgebraScenario(
        H=G.carrier(),
        A=algebra_carrier(G.algebra),
        rho=key_map(lambda g, k: G.operators[g].images[k]),
    )


def example31_scenario(algebra: StructAlgebra, G: GroupBialgebra, a) -> Scenario:
    """The inner-automorphism deformation input: beta_A = i_a with a fixed by G.

    The module is the classical k[G]-module algebra, with identity structure
    maps, and beta_H is the identity.  Requires a to be invertible and fixed
    by every group element; then i_a commutes with G, is k[G]-linear, and the
    deformed package (k[G], A_alpha, rho_alpha = i_a o rho) is a module
    Hom-algebra with identity structure map on k[G].  The Lie carrier is
    A_alpha.
    """
    for idx, op in enumerate(G.operators):
        if op(a) != a:
            raise ValueError(
                f"element {algebra.render(a)} is not fixed by group operator {idx}"
            )
    # g(a b a^-1) = a g(b) a^-1 for an automorphism g fixing a: i_a commutes with G
    module, beta_A = automorphism_action(G), linop_map(inner_automorphism(algebra, a))
    return Scenario(
        module=module,
        beta_H=basis_terms,
        beta_A=beta_A,
        lie=yau_twist_algebra(module.A, beta_A)._replace(name="A_alpha"),
    )


def build_example31(algebra: StructAlgebra, G: GroupBialgebra, a) -> ModuleAlgebraScenario:
    """The deformed triple (k[G], A_alpha, rho_alpha) of example31_scenario."""
    return deform_scenario(example31_scenario(algebra, G, a))


# -- built-in instance and the scenario file format --------------------


def m2_algebra() -> StructAlgebra:
    """The 2x2 matrix algebra with basis e11, e12, e21, e22."""
    labels = ("e11", "e12", "e21", "e22")
    index = {label: i for i, label in enumerate(labels)}
    constants = {}
    for (r1, c1) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for (r2, c2) in ((1, 1), (1, 2), (2, 1), (2, 2)):
            if c1 == r2:
                i = index[f"e{r1}{c1}"]
                j = index[f"e{r2}{c2}"]
                k = index[f"e{r1}{c2}"]
                constants[(i, j, k)] = 1
    return StructAlgebra(labels, constants, unit={0: ONE, 3: ONE})


def m2_example():
    """Example instance: G generated by conjugation by diag(1,-1), a = diag(2,3)."""
    algebra = m2_algebra()
    # conjugation by diag(1,-1) negates e12 and e21
    conj = LinOp(
        [
            [1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, 1],
        ]
    )
    G = GroupBialgebra(algebra, [LinOp.identity(4), conj])
    a = {0: QLaurent.of(2), 3: QLaurent.of(3)}
    return algebra, G, a


def load_scenario(path):
    """Load (algebra, group, distinguished element) from a JSON scenario file.

    Format:
      {
        "labels": ["e11", ...],
        "constants": [[i, j, k, "coeff"], ...],
        "unit": ["coeff", ...],            # optional
        "group": [[["m00", "m01", ...], ...], ...],
        "element": ["coeff", ...]          # the conjugating element a
      }
    Coefficients use the scalar text grammar, e.g. "1", "-2/3", "q^2".
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("scenario file is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("scenario file must hold a JSON object")
    constants = {}
    for entry in _array(data.get("constants"), "constants"):
        # bool is an int subclass, but JSON true/false is no index
        if not (
            isinstance(entry, list)
            and len(entry) == 4
            and all(type(i) is int for i in entry[:3])
        ):
            raise ValueError(f"constant must be [i, j, k, coeff], got {entry!r}")
        i, j, k, coeff = entry
        if (i, j, k) in constants:
            raise ValueError(f"constant ({i}, {j}, {k}) is given twice")
        constants[(i, j, k)] = _scalar(coeff)
    labels = _array(data.get("labels"), "labels")
    unit = _vector(data["unit"], "unit vector", len(labels)) if "unit" in data else None
    algebra = StructAlgebra(labels, constants, unit=unit)
    operators = []
    for matrix in _array(data.get("group"), "group"):
        rows = [_array(row, "matrix row") for row in _array(matrix, "group matrix")]
        operators.append(LinOp([[_scalar(c) for c in row] for row in rows]))
    G = GroupBialgebra(algebra, operators)
    element = _vector(data.get("element"), "distinguished element", algebra.dim)
    return algebra, G, element


def _scalar(value):
    return QLaurent.parse(str(value))


def _vector(value, what, dim):
    """Sparse coordinates of a JSON array of dim coefficients."""
    coeffs = [_scalar(c) for c in _array(value, what)]
    if len(coeffs) != dim:
        raise ValueError(f"{what} has wrong length")
    return {i: c for i, c in enumerate(coeffs) if c}


def _array(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value
