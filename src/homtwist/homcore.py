"""Generic Hom-structure carriers, Yau twists, and axiom checkers.

A carrier packages a degree-bounded test basis together with oracles for the
product, the structure map, and (for bialgebras) the comultiplication.  All
maps in play are linear or bilinear, so verifying an identity on every basis
tuple proves it on the whole spanned truncation; a passing sweep is a proof
at the declared bound.

A Scenario is the one record every suite reads; deform_scenario turns it into
the deformed module triple.

Every checker first compiles its carrier, or the carriers and the action of
a module triple, into Tables: memo tables of mul, alpha, comul and rho on
basis keys, each entry filled once from the carrier's own maps.  It then runs
one or more sweeps (report.sweep) of a multilinear identity over basis
tuples, whose sides are contractions of the tables in a flat q-graded form
with int and Fraction coefficients.  It returns a CheckReport: a failed
identity is report content, not an exception.  Only malformed carriers raise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .report import CheckReport, sweep
from .scalars import ONE, QLaurent, add_term, trusted


@dataclass(frozen=True)
class Carrier:
    """An algebra (or bialgebra, when comul is set) over QLaurent.

    basis holds hashable keys; element/coords translate between keys and the
    carrier's native element type.  coords must return a canonical sparse
    map key -> nonzero QLaurent, and element must accept every key coords
    can return, not only the basis keys.  render_elem renders such a
    coordinate map.  Sums and scalar multiples are never taken natively: the
    checkers form them in the flat tables, so mul, alpha and comul are the
    only maps a carrier supplies.
    """

    name: str
    basis: tuple
    element: Callable
    coords: Callable
    mul: Callable
    alpha: Callable
    comul: Optional[Callable] = None
    render_key: Callable = str
    render_elem: Callable = str


@dataclass(frozen=True)
class ModuleAlgebraScenario:
    """A bialgebra H acting on an algebra A by rho: the module triple (H, A, rho).

    The module structure map is A.alpha, so the scenario is the full input
    for the module axiom and the module Hom-algebra axiom.
    """

    H: Carrier
    A: Carrier
    rho: Callable  # (H element, A element) -> A element


@dataclass(frozen=True)
class Scenario:
    """One scenario: the input of the paper's construction and of every suite.

    classical is a module algebra (H, A, rho) whose structure maps are the
    identity; alpha_H (a bialgebra endomorphism of H) and alpha_A (an algebra
    endomorphism of A) twist it into the deformed triple, deform_scenario.
    generators are the H keys of the generator axis of Eq. (4.2), and lie is
    a Hom-associative carrier whose commutator check_hom_jacobi checks.
    """

    classical: ModuleAlgebraScenario
    alpha_H: Callable
    alpha_A: Callable
    generators: tuple
    lie: Carrier


def sparse_carrier(alpha: Optional[Callable] = None, **fields) -> Carrier:
    """A carrier whose elements are sparse maps {basis key: nonzero QLaurent}.

    fields are the remaining Carrier fields; alpha defaults to the identity.
    """
    return Carrier(
        element=lambda key: {key: ONE},
        coords=_ident,
        alpha=alpha if alpha is not None else _ident,
        **fields,
    )


def axis(carrier) -> tuple:
    """The sweep axis of a carrier's basis: (keys, render_key)."""
    return carrier.basis, carrier.render_key


def _iterate(fn, times, x):
    for _ in range(times):
        x = fn(x)
    return x


# -- flat q-graded form ------------------------------------------------
# The checkers compute in a flat form: an element is a dict
# {(basis key, q exponent): nonzero int or Fraction}, and a tensor is the same
# with a tuple of basis keys as its key.  Terms are (key, exponent, coefficient)
# triples; a table entry is a tuple of them.  QLaurent appears only at the
# carrier boundary, where an entry is filled from a native map and where a
# failing case is rendered.


def flatten(coords: dict) -> tuple:
    """The terms of a coordinate map {key: QLaurent}."""
    return tuple(
        (key, exp, c) for key, coeff in coords.items() for exp, c in coeff.terms.items()
    )


def unflatten(flat: dict) -> dict:
    """The coordinate map {key: QLaurent} of a flat element or tensor."""
    out = {}
    for (key, exp), c in flat.items():
        out.setdefault(key, {})[exp] = c
    return {key: trusted(QLaurent, coeff) for key, coeff in out.items()}


def terms(flat: dict) -> list:
    """The terms of a flat element, to feed into another contraction."""
    return [(key, exp, c) for (key, exp), c in flat.items()]


def basis_terms(key) -> tuple:
    """The terms of the basis element of key."""
    return ((key, 0, 1),)


def linear(table, xs) -> dict:
    """A linear map, given by its table key -> terms, applied to the terms xs."""
    out = {}
    for k, e, c in xs:
        for k2, e2, c2 in table(k):
            add_term(out, (k2, e + e2), c * c2)
    return out


def bilinear(table, xs, ys) -> dict:
    """A bilinear map, given by its table (key, key) -> terms, on xs and ys."""
    out = {}
    for k1, e1, c1 in xs:
        for k2, e2, c2 in ys:
            e12, c12 = e1 + e2, c1 * c2
            for k, e, c in table(k1, k2):
                add_term(out, (k, e12 + e), c12 * c)
    return out


class Tables:
    """Memo tables of one carrier's structure maps on basis keys, in flat form.

    An entry is filled on first use from the carrier's own element, mul,
    alpha, comul and coords, so the tables belong to this carrier alone.  Keys
    may lie outside the test basis: products leave it.
    """

    def __init__(self, carrier: Carrier):
        self.carrier = carrier
        self._mul, self._alpha, self._comul = {}, {}, {}

    def mul(self, k1, k2) -> tuple:
        entry = self._mul.get((k1, k2))
        if entry is None:
            C = self.carrier
            entry = flatten(C.coords(C.mul(C.element(k1), C.element(k2))))
            self._mul[k1, k2] = entry
        return entry

    def alpha(self, k) -> tuple:
        entry = self._alpha.get(k)
        if entry is None:
            C = self.carrier
            entry = self._alpha[k] = flatten(C.coords(C.alpha(C.element(k))))
        return entry

    def comul(self, k) -> tuple:
        entry = self._comul.get(k)
        if entry is None:
            C = self.carrier
            _require_comul(C)
            entry = self._comul[k] = flatten(C.comul(C.element(k)))
        return entry

    def render(self, flat: dict) -> str:
        return self.carrier.render_elem(unflatten(flat))


class ModuleTables:
    """Tables of a module triple (H, A, rho): those of H and A, and rho[(h, a)]."""

    def __init__(self, s: ModuleAlgebraScenario):
        self.scenario = s
        self.H, self.A = Tables(s.H), Tables(s.A)
        self._rho = {}

    def rho(self, h, a) -> tuple:
        entry = self._rho.get((h, a))
        if entry is None:
            s = self.scenario
            entry = flatten(s.A.coords(s.rho(s.H.element(h), s.A.element(a))))
            self._rho[h, a] = entry
        return entry


# -- flat tensors ------------------------------------------------------


def t_outer(*factors) -> list:
    """The terms (key tuple, exponent, coefficient) of an outer product of terms.

    Like terms are not merged; callers accumulate them.
    """
    acc = [((), 0, 1)]
    for xs in factors:
        acc = [
            (keys + (k,), e1 + e2, c1 * c2) for keys, e1, c1 in acc for k, e2, c2 in xs
        ]
    return acc


def t_apply(xs, slots) -> dict:
    """Apply one linear map per slot to the tensor terms xs.

    slots holds one table (key -> terms) per slot, or None for the identity.
    """
    out = {}
    for keys, e, c in xs:
        factors = [
            basis_terms(k) if table is None else table(k)
            for k, table in zip(keys, slots)
        ]
        for keys2, e2, c2 in t_outer(*factors):
            add_term(out, (keys2, e + e2), c * c2)
    return out


def t_expand_slot(xs, slot: int, comul) -> dict:
    """Replace one slot of the tensor terms xs by its comultiplication table."""
    out = {}
    for keys, e, c in xs:
        head, tail = keys[:slot], keys[slot + 1 :]
        for pair, e2, c2 in comul(keys[slot]):
            add_term(out, (head + pair + tail, e + e2), c * c2)
    return out


def t_mul(T: Tables, xs, ys) -> dict:
    """Product of two tensors in C x C: (a x b)(c x d) = ac x bd."""
    out = {}
    for (a, b), e1, c1 in xs:
        for (u, v), e2, c2 in ys:
            for keys, e, c in t_outer(T.mul(a, u), T.mul(b, v)):
                add_term(out, (keys, e1 + e2 + e), c1 * c2 * c)
    return out


def t_contract(table, xs) -> dict:
    """A bilinear map, given by its table, applied to the 2-tensor terms xs."""
    out = {}
    for (k1, k2), e, c in xs:
        for k, e2, c2 in table(k1, k2):
            add_term(out, (k, e + e2), c * c2)
    return out


def render_tensor(t: dict, *carriers) -> str:
    """Render a tensor {key tuple: QLaurent}."""
    if not t:
        return "0"
    parts = []
    for key in sorted(t, key=repr):
        names = " x ".join(c.render_key(k) for c, k in zip(carriers, key))
        parts.append(f"({t[key]})*({names})")
    return " + ".join(parts)


def _tensor_render(*carriers):
    return lambda flat: render_tensor(unflatten(flat), *carriers)


def _require_comul(H: Carrier):
    if H.comul is None:
        raise ValueError(f"carrier {H.name} has no comultiplication")


# -- algebra checkers --------------------------------------------------
# Each public checker compiles its carrier into Tables and sweeps contractions
# of the tables; the sides it compares are flat elements.


def check_multiplicativity(A: Carrier) -> CheckReport:
    """alpha(ab) = alpha(a) alpha(b) on all basis pairs."""
    T = Tables(A)
    return sweep(
        "multiplicativity",
        "alpha o mu = mu o (alpha x alpha)",
        [axis(A)] * 2,
        lambda k1, k2: linear(T.alpha, T.mul(k1, k2)),
        lambda k1, k2: bilinear(T.mul, T.alpha(k1), T.alpha(k2)),
        T.render,
    )


def check_hom_associativity(A: Carrier) -> CheckReport:
    """mu(alpha(a), mu(b, c)) = mu(mu(a, b), alpha(c)) on basis triples."""
    T = Tables(A)
    return sweep(
        "hom-associativity",
        "Eq. (1.2)",
        [axis(A)] * 3,
        lambda k1, k2, k3: bilinear(T.mul, T.alpha(k1), T.mul(k2, k3)),
        lambda k1, k2, k3: bilinear(T.mul, T.mul(k1, k2), T.alpha(k3)),
        T.render,
    )


def check_hom_coassociativity(H: Carrier) -> CheckReport:
    """(Delta x alpha) o Delta = (alpha x Delta) o Delta on basis elements."""
    _require_comul(H)
    T = Tables(H)
    return sweep(
        "hom-coassociativity",
        "Eq. (2.3)",
        [axis(H)],
        lambda k: t_apply(
            terms(t_expand_slot(T.comul(k), 0, T.comul)), (None, None, T.alpha)
        ),
        lambda k: t_apply(
            terms(t_expand_slot(T.comul(k), 1, T.comul)), (T.alpha, None, None)
        ),
        _tensor_render(H, H, H),
    )


def check_comul_morphism(H: Carrier) -> CheckReport:
    """Delta is a morphism of Hom-associative algebras (Eqs. 2.4 and 2.5)."""
    _require_comul(H)
    T = Tables(H)
    render = _tensor_render(H, H)
    report = sweep(
        "comul-morphism",
        "Eqs. (2.4)-(2.5)",
        [axis(H)],
        lambda k: linear(T.comul, T.alpha(k)),
        lambda k: t_apply(T.comul(k), (T.alpha, T.alpha)),
        render,
    )
    return report.merge(
        sweep(
            "comul-morphism",
            "Eqs. (2.4)-(2.5)",
            [axis(H)] * 2,
            lambda k1, k2: linear(T.comul, T.mul(k1, k2)),
            # mu^2 o (Id x tau x Id) o Delta^2
            lambda k1, k2: t_mul(T, T.comul(k1), T.comul(k2)),
            render,
        )
    )


def check_hom_bialgebra(H: Carrier) -> CheckReport:
    """All four Hom-bialgebra conditions in one merged report."""
    report = check_multiplicativity(H)
    report = report.merge(check_hom_associativity(H))
    report = report.merge(check_hom_coassociativity(H))
    report = report.merge(check_comul_morphism(H))
    report.name = "hom-bialgebra"
    return report


# -- module checkers ---------------------------------------------------


def _rho_commutes(T: ModuleTables, h_axis, name, equation) -> CheckReport:
    """alpha_M(a m) = alpha(a) alpha_M(m) for the H keys of h_axis, M = A."""
    H, M = T.H, T.A
    return sweep(
        name,
        equation,
        [h_axis, axis(T.scenario.A)],
        lambda kh, km: linear(M.alpha, T.rho(kh, km)),
        lambda kh, km: bilinear(T.rho, H.alpha(kh), M.alpha(km)),
        M.render,
    )


def check_module_axiom(s: ModuleAlgebraScenario) -> CheckReport:
    """rho is a Hom-module morphism and satisfies the module axiom.

    Checks alpha_M(a m) = alpha(a) alpha_M(m) on pairs and
    alpha(a)(b m) = (a b) alpha_M(m) on triples (Eq. 2.1'), with M = s.A.
    """
    T = ModuleTables(s)
    H, M = T.H, T.A
    report = _rho_commutes(T, axis(s.H), "module-axiom", "Eqs. (2.1)/(2.1')")
    return report.merge(
        sweep(
            "module-axiom",
            "Eqs. (2.1)/(2.1')",
            [axis(s.H), axis(s.H), axis(s.A)],
            lambda k1, k2, km: bilinear(T.rho, H.alpha(k1), T.rho(k2, km)),
            lambda k1, k2, km: bilinear(T.rho, H.mul(k1, k2), M.alpha(km)),
            M.render,
        )
    )


def structure_maps(r: Scenario) -> ModuleAlgebraScenario:
    """The classical triple of r with structure maps alpha_H and alpha_A.

    The products and the action stay untwisted.
    """
    s = r.classical
    return replace(s, H=replace(s.H, alpha=r.alpha_H), A=replace(s.A, alpha=r.alpha_A))


def check_compatibility(s: ModuleAlgebraScenario, keys) -> CheckReport:
    """alpha_A(x a) = alpha_H(x) alpha_A(a) for the given H keys x (Eq. 1.7).

    This is the first sweep of the module axiom.  Run on structure_maps(r),
    it checks Eq. (4.2) over r.generators and Eq. (1.7) over the H basis.
    """
    return _rho_commutes(
        ModuleTables(s), (tuple(keys), s.H.render_key), "compatibility", "Eq. (1.7)"
    )


def build_rho_tilde(
    s: ModuleAlgebraScenario, alpha_power: int = 2
) -> ModuleAlgebraScenario:
    """The auxiliary module structure rho-tilde = rho o (alpha_H^2 x Id).

    alpha_power exists only for the negative control (power 1 breaks the
    correspondence between the two module Hom-algebra characterizations).
    """

    def rho_tilde(x, a):
        return s.rho(_iterate(s.H.alpha, alpha_power, x), a)

    return replace(s, rho=rho_tilde)


def _rho2(T: ModuleTables, xs, ts) -> dict:
    """rho^2(x, a x b) = sum rho(x', a) x rho(x'', b) on terms, as a flat tensor."""
    out = {}
    for h, e, c in xs:
        for (h1, h2), e1, c1 in T.H.comul(h):
            for (a, b), e2, c2 in ts:
                scale_e, scale_c = e + e1 + e2, c * c1 * c2
                for keys, e3, c3 in t_outer(T.rho(h1, a), T.rho(h2, b)):
                    add_term(out, (keys, scale_e + e3), scale_c * c3)
    return out


def build_rho2(s: ModuleAlgebraScenario) -> ModuleAlgebraScenario:
    """The diagonal module structure rho^2 on A x A.

    Elements of the tensor-square carrier are sparse tensors keyed by pairs
    of A basis keys; rho^2(x, a x b) = sum rho(x', a) x rho(x'', b).  The
    maps of the square are contractions of the tables of s, so Delta and rho
    are computed once per basis key.
    """
    H, A = s.H, s.A
    _require_comul(H)
    T = ModuleTables(s)

    square = sparse_carrier(
        name=f"{A.name} tensor square",
        basis=tuple((k1, k2) for k1 in A.basis for k2 in A.basis),
        mul=lambda t1, t2: unflatten(t_mul(T.A, flatten(t1), flatten(t2))),
        alpha=lambda t: unflatten(t_apply(flatten(t), (T.A.alpha, T.A.alpha))),
        render_key=lambda pair: f"{A.render_key(pair[0])} x {A.render_key(pair[1])}",
        render_elem=lambda t: render_tensor(t, A, A),
    )
    return ModuleAlgebraScenario(
        H=H,
        A=square,
        rho=lambda x, t: unflatten(_rho2(T, flatten(H.coords(x)), flatten(t))),
    )


def check_module_hom_algebra(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """The module Hom-algebra axiom: alpha_H^2(x)(ab) = sum (x'a)(x''b)."""
    T = ModuleTables(s)
    A = T.A
    twisted = {}  # H basis key -> terms of alpha_H^power(x)
    for kx in s.H.basis:
        xs = basis_terms(kx)
        for _ in range(alpha_power):
            xs = terms(linear(T.H.alpha, xs))
        twisted[kx] = xs

    return sweep(
        "module-hom-algebra",
        "Eqs. (2.9)/(2.10)",
        [axis(s.H), axis(s.A), axis(s.A)],
        lambda kx, ka, kb: bilinear(T.rho, twisted[kx], A.mul(ka, kb)),
        # sum (x'a)(x''b) = mu_A(rho^2(x, a x b))
        lambda kx, ka, kb: t_contract(
            A.mul, terms(_rho2(T, basis_terms(kx), basis_terms((ka, kb))))
        ),
        A.render,
    )


def check_mu_module_morphism(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """mu_A as a morphism of H-modules from (A x A, rho^2) to (A, rho-tilde).

    By the characterization theorem this verdict must coincide with
    check_module_hom_algebra on the same scenario.
    """
    square = ModuleTables(build_rho2(s))
    tilde = ModuleTables(build_rho_tilde(s, alpha_power=alpha_power))
    A = tilde.A
    return sweep(
        "mu-module-morphism",
        "Theorem 1.1(3)",
        [axis(s.H), axis(s.A), axis(s.A)],
        lambda kx, ka, kb: t_contract(A.mul, square.rho(kx, (ka, kb))),
        lambda kx, ka, kb: bilinear(tilde.rho, basis_terms(kx), A.mul(ka, kb)),
        A.render,
    )


# -- Yau twists --------------------------------------------------------


def yau_twist_algebra(A: Carrier, alpha: Optional[Callable] = None) -> Carrier:
    """Twist an associative carrier: mu_alpha = alpha o mu, structure map alpha."""
    twist = alpha if alpha is not None else A.alpha

    def mul_alpha(a, b):
        return twist(A.mul(a, b))

    return replace(A, name=f"{A.name}_alpha", mul=mul_alpha, alpha=twist)


def yau_twist_bialgebra(H: Carrier, alpha: Optional[Callable] = None) -> Carrier:
    """Twist a bialgebra carrier: mu_alpha = alpha o mu, Delta_alpha = Delta o alpha."""
    _require_comul(H)
    twist = alpha if alpha is not None else H.alpha

    def comul_alpha(x):
        return H.comul(twist(x))

    return replace(yau_twist_algebra(H, twist), comul=comul_alpha)


def deform_scenario(r: Scenario) -> ModuleAlgebraScenario:
    """The deformed triple: twist H and A and set rho_alpha = alpha_A o rho.

    An alpha_H that is already the structure map of H (the identity) leaves H
    as it is: its Yau twist would be the same bialgebra under a new name.
    """
    s = r.classical

    def rho_alpha(x, a):
        return r.alpha_A(s.rho(x, a))

    return ModuleAlgebraScenario(
        H=s.H if r.alpha_H is s.H.alpha else yau_twist_bialgebra(s.H, r.alpha_H),
        A=yau_twist_algebra(s.A, r.alpha_A),
        rho=rho_alpha,
    )


# -- Hom-Lie structure -------------------------------------------------


def check_hom_jacobi(A: Carrier) -> CheckReport:
    """The commutator [a, b] = mu(a, b) - mu(b, a) of A is Hom-Lie.

    Checks skew-symmetry, bracket multiplicativity and the Hom-Jacobi
    identity; the commutator of a Hom-associative algebra passes all three
    (Makhlouf-Silvestrov).
    """
    T = Tables(A)
    brackets = {}

    def bracket(k1, k2) -> tuple:
        entry = brackets.get((k1, k2))
        if entry is None:
            out = {(k, e): c for k, e, c in T.mul(k1, k2)}
            for k, e, c in T.mul(k2, k1):
                add_term(out, (k, e), -c)
            entry = brackets[k1, k2] = tuple(terms(out))
        return entry

    def jacobi(k1, k2, k3):
        total = {}
        for a, b, c in ((k1, k2, k3), (k3, k1, k2), (k2, k3, k1)):
            for key, coeff in bilinear(bracket, bracket(a, b), T.alpha(c)).items():
                add_term(total, key, coeff)
        return total

    pairs = [axis(A)] * 2
    report = sweep(
        "hom-lie",
        "Hom-Jacobi",
        pairs,
        lambda k1, k2: {(k, e): c for k, e, c in bracket(k1, k2)},
        lambda k1, k2: {(k, e): -c for k, e, c in bracket(k2, k1)},
        T.render,
    )
    report = report.merge(
        sweep(
            "hom-lie",
            "Hom-Jacobi",
            pairs,
            lambda k1, k2: linear(T.alpha, bracket(k1, k2)),
            lambda k1, k2: bilinear(bracket, T.alpha(k1), T.alpha(k2)),
            T.render,
        )
    )
    return report.merge(
        sweep(
            "hom-lie",
            "Hom-Jacobi",
            [axis(A)] * 3,
            jacobi,
            lambda k1, k2, k3: {},
            T.render,
        )
    )


def _ident(e):
    return e
