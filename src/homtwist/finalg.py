"""Finite-dimensional carriers: structure-constant algebras, linear operators,
the k[G]-module algebra of a group of automorphisms, and the inner-automorphism
deformation of a scenario document, read from a file (load_scenario) or M2.

Everything here is finite, so axiom sweeps run over the complete basis and a
pass is a full proof for the instance, not a degree-bounded truncation.
A structure-constant algebra is its carrier (struct_algebra), and a
document reads as the triple (module, unit, a): the k[G]-module algebra,
whose A is that carrier, the unit of A and the conjugating element.
Each table is built once, where it is made: an algebra's product table is
its carrier's mul, and an operator is its memo table id -> terms (operator,
or basis_terms for the identity).  The load checks, the group closure, i_a,
the k[G] action and the scenario record all read those tables.  Coordinate
maps {index: QLaurent} appear only where a document is read, where a linear
system is solved and where an element is rendered.  The one linear system
is an element's inverse, solved by exact Gaussian elimination over
rationals; a system with genuinely q-dependent entries is rejected for
inversion rather than implementing a rational-function field.  No
operator is inverted: a group reads each operator's invertibility from its
composition table.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial

from .homcore import (
    Carrier,
    ModuleAlgebraScenario,
    Scenario,
    basis_terms,
    bilinear,
    check_hom_associativity,
    check_multiplicativity,
    deform_scenario,
    flatten,
    key_ids,
    key_map,
    linear,
    on_ids,
    terms,
    unflatten,
)
from .scalars import ONE, ZERO, QLaurent, factor_text


def struct_algebra(labels, constants, unit) -> Carrier:
    """The associative algebra given by structure constants e_i e_j = sum_k
    c_ijk e_k, as its carrier with the identity structure map.

    Elements are sparse coordinate maps {basis index: nonzero QLaurent}, and
    the carrier's render_elem writes one by the labels.  Its mul, read from
    the constants {(i, j, k): c_ijk}, is the one product table that every
    check and the module read.  Distinct non-empty string labels,
    associativity on all basis triples and a two-sided unit are hard
    load-time preconditions.
    """
    labels = tuple(labels)
    dim = len(labels)
    first = {}
    for idx, label in enumerate(labels):
        if not isinstance(label, str) or not label:
            raise ValueError(f"label {idx} is not a non-empty string: {label!r}")
        if any("\ud800" <= ch <= "\udfff" for ch in label):
            raise ValueError(f"label {idx} does not encode as UTF-8: {label!r}")
        if first.setdefault(label, idx) != idx:
            raise ValueError(f"labels {first[label]} and {idx} are both {label!r}")
    table = {}
    for (i, j, k), coeff in constants.items():
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"structure constant index out of range: {(i, j, k)}")
        coeff = QLaurent.of(coeff)
        if coeff:
            table.setdefault((i, j), {})[k] = coeff
    if not all(0 <= i < dim for i in unit):
        raise ValueError("unit vector has an index out of range")
    A = Carrier(
        name="struct-algebra",
        basis=key_ids(range(dim)),
        mul=key_map(lambda i, j: table.get((i, j), {})),
        render_key=labels.__getitem__,
        render_elem=partial(_render_elem, labels),
    )
    # Eq. (1.2) with the identity structure map is associativity; the
    # error names the first failing triple only, so no side is rendered
    report = check_hom_associativity(A._replace(render_elem=lambda coords: ""))
    if not report.passed:
        raise ValueError(
            "structure constants are not associative at "
            f"({', '.join(report.counterexamples[0].rendered_inputs)})"
        )
    one = flatten(unit)
    for k in A.basis:
        e = basis_terms(k)
        if bilinear(A.mul, one, e) != dict(e) or bilinear(A.mul, e, one) != dict(e):
            raise ValueError("declared unit is not a two-sided unit")
    return A


def _render_elem(labels, v):
    if not v:
        return "0"
    return " + ".join(
        labels[i] if v[i] == ONE else f"{factor_text(v[i])}*{labels[i]}" for i in sorted(v)
    )


def inverse(A, unit, a):
    """Two-sided inverse of a in the algebra carrier A whose unit is the
    coordinate map unit, by solving the left-multiplication system: x with
    a x = 1 is found only when y -> a y is injective, so x a = 1 follows
    from a (x a) = (a x) a = a 1, by the associativity checked at load.
    """
    xs = flatten(a)
    # left multiplication matrix: column j holds a * e_j
    columns = [unflatten(bilinear(A.mul, xs, basis_terms(k)).items()) for k in A.basis]
    solution = _solve_rational(columns, unit)
    if solution is None:
        raise ValueError(f"element {A.render_elem(a)} is not invertible")
    return {i: c for i, c in enumerate(solution) if c}


def operator(rows):
    """The memo table id -> terms of the square matrix rows: image j is column j."""
    images = [{} for _ in rows]
    for k, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError("operator matrix must be square")
        for j, c in enumerate(row):
            c = QLaurent.of(c)
            if c:
                images[j][k] = c
    return key_map(images.__getitem__)


def _solve_rational(columns, rhs):
    """Solve M x = rhs exactly, M the square matrix whose column j is the
    coordinate map columns[j] and rhs a coordinate map; entries must be
    constant (q-free) QLaurent.

    Returns the solution as a list of QLaurent, or None if M is singular.
    """

    def as_fraction(c):
        if not c.terms:
            return Fraction(0)
        if set(c.terms) != {0}:
            raise ValueError(
                "inversion requires q-free entries; got a q-dependent value"
            )
        return c.terms[0]

    n = len(columns)
    aug = [[as_fraction(column.get(i, ZERO)) for column in (*columns, rhs)] for i in range(n)]
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


def inner_automorphism(A, unit, a):
    """The memo table k -> terms(a e_k a^-1) of the conjugation i_a of the
    algebra carrier A with the given unit, a invertible.
    """
    mul, xs, inv = A.mul, flatten(a), flatten(inverse(A, unit, a))

    def conjugate(k):
        return terms(bilinear(mul, bilinear(mul, xs, basis_terms(k)).items(), inv))

    return cache(conjugate)


def automorphism_action(A, operators) -> ModuleAlgebraScenario:
    """The classical k[G]-module algebra (k[G], A, rho) of a finite group G of
    algebra automorphisms of A, with rho(g x b) = g(b): rho reads the table
    of the operator g.

    The group is given extensionally, as operator tables; closure under
    composition is verified here, not computed.  Each operator is checked
    only for multiplicativity; the composition table, which k[G]'s mul
    reads, is the one witness of invertibility, by two facts:

    - In a closed finite set of linear maps that contains the identity,
      op_i o op_j = 1 for some j exactly when op_i is invertible.  If op is
      invertible, its powers repeat, so some power op^n is 1, and op^(n-1)
      is in the set.
    - An invertible multiplicative map phi of a unital algebra fixes the
      unit: phi(1) phi(b) = phi(b) for every b, and phi is onto.  So no
      operator needs a unit check of its own.

    k[G] has grouplike comultiplication and the identity structure map.
    """
    basis, n = A.basis, len(operators)

    def key(op):
        """The basis images of op, equal exactly when the operators are."""
        return tuple(frozenset(op(k)) for k in basis)

    index = {}
    for idx, op in enumerate(operators):
        if not check_multiplicativity(A._replace(alpha=op)).passed:
            raise ValueError(f"operator {idx} is not an algebra automorphism")
        first = index.setdefault(key(op), idx)
        if first != idx:
            raise ValueError(f"operators {first} and {idx} are equal")
    table = {}
    for i, op1 in enumerate(operators):
        for j, op2 in enumerate(operators):
            composed = key(lambda k: linear(op1, op2(k)).items())
            if composed not in index:
                raise ValueError(f"group not closed under composition at ({i}, {j})")
            table[i, j] = index[composed]
    # a closed set of singular maps, such as {0}, may lack the identity
    identity = index.get(key(basis_terms))
    if identity is None:
        raise ValueError("group does not contain the identity operator")
    for i in range(n):
        if all(table[i, j] != identity for j in range(n)):
            raise ValueError(f"operator {i} is not an algebra automorphism")
    H = Carrier(
        name="k[G]",
        basis=key_ids(range(n)),
        mul=on_ids(lambda i, j: ((table[i, j], 1),)),
        comul=on_ids(lambda i: (((i, i), 1),)),
        render_key=lambda i: f"g{i}",
        render_elem=_render_group_elem,
    )
    tables = dict(zip(H.basis, operators))
    return ModuleAlgebraScenario(H=H, A=A, rho=lambda g, k: tables[g](k))


def _render_group_elem(u):
    if not u:
        return "0"
    return " + ".join(f"{factor_text(c)}*g{i}" for i, c in sorted(u.items()))


def example31_scenario(module: ModuleAlgebraScenario, unit, a) -> Scenario:
    """The inner-automorphism deformation input: beta_A = i_a with a fixed by G.

    The module is the classical k[G]-module algebra, with identity structure
    maps, and beta_H is the identity.  Requires a to be invertible and fixed
    by every group element; then i_a commutes with G, is k[G]-linear, and the
    deformed package (k[G], A_alpha, rho_alpha = i_a o rho) is a module
    Hom-algebra with identity structure map on k[G].  The Lie carrier of a
    deformed triple is its A, A twisted by the record's beta_A.
    """
    xs = flatten(a)
    for idx, g in enumerate(module.H.basis):
        if linear(lambda k: module.rho(g, k), xs) != dict(xs):
            raise ValueError(
                f"element {module.A.render_elem(a)} is not fixed by group operator {idx}"
            )
    # g(a b a^-1) = a g(b) a^-1 for an automorphism g fixing a: i_a commutes with G
    return Scenario(
        module=module,
        beta_H=basis_terms,
        beta_A=inner_automorphism(module.A, unit, a),
        lie=lambda d: d.A._replace(name="A_alpha"),
    )


def build_example31(module: ModuleAlgebraScenario, unit, a) -> ModuleAlgebraScenario:
    """The deformed triple (k[G], A_alpha, rho_alpha) of example31_scenario."""
    return deform_scenario(example31_scenario(module, unit, a))


# -- built-in instance and the scenario file format --------------------


# The built-in instance, a scenario document: the 2x2 matrix algebra with
# basis e11, e12, e21, e22 (e_ij e_jl = e_il), the group of conjugation by
# diag(1, -1), which negates e12 and e21, and a = diag(2, 3).
M2 = {
    "labels": ["e11", "e12", "e21", "e22"],
    "constants": [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 0, "1"], [1, 3, 1, "1"],
        [2, 0, 2, "1"], [2, 1, 3, "1"], [3, 2, 2, "1"], [3, 3, 3, "1"],
    ],
    "unit": ["1", "0", "0", "1"],
    "group": [
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "-1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "1"]],
    ],
    "element": ["2", "0", "0", "3"],
}


def m2_example():
    """(module, unit, a) of the built-in instance M2, read by read_scenario."""
    return read_scenario(M2)


def load_scenario(path):
    """(module, unit, a) of the scenario document in the JSON file at path."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("scenario file is nested too deeply") from None
    return read_scenario(data)


def read_scenario(data):
    """(module, unit, a) of a scenario document: module is the classical
    k[G]-module algebra of its group (automorphism_action) on the algebra
    module.A of its constants (struct_algebra).

    Format:
      {
        "labels": ["e11", ...],
        "constants": [[i, j, k, "coeff"], ...],
        "unit": ["coeff", ...],
        "group": [[["m00", "m01", ...], ...], ...],
        "element": ["coeff", ...]          # the conjugating element a
      }
    Coefficients use the scalar text grammar, e.g. "1", "-2/3", "q^2".
    Each distinct coefficient text is parsed once, through a memo that lives
    for this one read: a QLaurent is immutable, so equal texts share one
    instance.  A refused text raises and is not stored, so it fails wherever
    it appears.  The document is read, never modified.
    """
    scalar = cache(QLaurent.parse)
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
        constants[(i, j, k)] = scalar(str(coeff))
    labels = _array(data.get("labels"), "labels")
    unit = _vector(data.get("unit"), "unit vector", len(labels), scalar)
    A = struct_algebra(labels, constants, unit)
    operators = []
    for idx, matrix in enumerate(_array(data.get("group"), "group")):
        rows = [_array(row, "matrix row") for row in _array(matrix, "group matrix")]
        operators.append(operator([[scalar(str(c)) for c in row] for row in rows]))
        if len(rows) != len(labels):
            raise ValueError(
                f"operator {idx} is {len(rows)}x{len(rows)} on a {len(labels)}-dim algebra"
            )
    module = automorphism_action(A, operators)
    element = _vector(data.get("element"), "distinguished element", len(labels), scalar)
    return module, unit, element


def _vector(value, what, dim, scalar):
    """Sparse coordinates of a JSON array of dim coefficients, read by scalar."""
    coeffs = [scalar(str(c)) for c in _array(value, what)]
    if len(coeffs) != dim:
        raise ValueError(f"{what} has wrong length")
    return {i: c for i, c in enumerate(coeffs) if c}


def _array(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value
