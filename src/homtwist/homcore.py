"""Generic Hom-structure carriers, Yau twists, and axiom checkers.

A carrier packages a degree-bounded test basis together with its product,
structure map and (for bialgebras) comultiplication, given on basis keys as
memo tables in a flat q-graded form.  All maps in play are linear or
bilinear, so verifying an identity on every basis tuple proves it on the
whole spanned truncation; a passing sweep is a proof at the declared bound.

A Scenario is the one record every suite reads, (module, beta_H, beta_A,
generators, lie): a module Hom-algebra and the compatible maps beta that
deform_scenario twists it by.  A twist composes with the structure map,
alpha' = beta o alpha (alpha = Id gives the paper's deformation).  Twists and
derived structures compose the tables of their input, each entry filled once.

Every checker runs one or more sweeps (report.sweep) of a multilinear
identity over basis tuples, whose sides are contractions of the tables with
int and Fraction coefficients.  It returns a CheckReport: a failed identity
is report content, not an exception.  Only malformed carriers raise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import product
from typing import Callable, Optional

from .report import CheckReport, sweep
from .scalars import QLaurent, add_term, trusted


def basis_terms(key) -> tuple:
    """The terms of the basis element of key: the identity map on keys."""
    return ((key, 0, 1),)


@dataclass(frozen=True)
class Carrier:
    """An algebra (or bialgebra, when comul is set) over QLaurent.

    basis holds hashable keys.  mul(k1, k2), alpha(k) and comul(k) take keys,
    which may lie outside the basis (products leave it), and return terms
    (key, q exponent, int or Fraction), comul over key pairs, with no
    (key, exponent) twice (tensor carriers excepted).  render_elem renders a
    coordinate map {key: QLaurent} (unflatten).
    """

    name: str
    basis: tuple
    mul: Callable
    alpha: Callable = basis_terms
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
    rho: Callable  # (H key, A key) -> terms over A keys


@dataclass(frozen=True)
class Scenario:
    """One scenario: the input of the paper's construction and of every suite.

    The record is (module, beta_H, beta_A, generators, lie).  module is a
    module Hom-algebra (H, A, rho) whose carriers hold their true structure
    maps (the identity on a module algebra).  beta_H (a bialgebra endomorphism
    of H) and beta_A (an algebra endomorphism of A) are key tables that twist
    it into the deformed triple, deform_scenario.  generators are the H keys
    of the generator axis of Eq. (4.2), and lie is a Hom-associative carrier
    whose commutator check_hom_jacobi checks.
    """

    module: ModuleAlgebraScenario
    beta_H: Callable
    beta_A: Callable
    generators: tuple
    lie: Carrier


def axis(carrier) -> tuple:
    """The sweep axis of a carrier's basis: (keys, render_key)."""
    return carrier.basis, carrier.render_key


# -- flat q-graded form ------------------------------------------------
# The checkers compute in a flat form: an element is a dict
# {(basis key, q exponent): nonzero int or Fraction}, and a tensor is the same
# with a tuple of basis keys as its key.  Terms are (key, exponent, coefficient)
# triples; a table entry is a tuple of them.  QLaurent appears only where a
# base carrier reads its exact data and where a failing case is rendered.


def flatten(coords: dict) -> tuple:
    """The terms of a coordinate map {key: QLaurent}."""
    return tuple(
        (key, exp, c) for key, coeff in coords.items() for exp, c in coeff.terms.items()
    )


def key_map(image) -> Callable:
    """The memo table keys -> terms of a map given by coordinate maps image(*keys)."""
    return cache(lambda *keys: flatten(image(*keys)))


def unflatten(xs) -> dict:
    """The coordinate map {key: QLaurent} of terms, of an element or a tensor."""
    out = {}
    for key, exp, c in xs:
        out.setdefault(key, {})[exp] = c
    return {key: trusted(QLaurent, coeff) for key, coeff in out.items()}


def terms(flat: dict) -> tuple:
    """The terms of a flat element, to feed into another contraction."""
    return tuple((key, exp, c) for (key, exp), c in flat.items())


def renderer(C: Carrier) -> Callable:
    """Render a flat element of C."""
    return lambda flat: C.render_elem(unflatten(terms(flat)))


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


# -- tensor products ---------------------------------------------------


def t_outer(factors) -> list:
    """The terms (key tuple, exponent, coefficient) of the outer product of an
    iterable of term lists.  Like terms are not merged; callers accumulate them.
    """
    acc = [((), 0, 1)]
    for xs in factors:
        acc = [
            (keys + (k,), e1 + e2, c1 * c2) for keys, e1, c1 in acc for k, e2, c2 in xs
        ]
    return acc


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


def tensor(*carriers) -> Carrier:
    """The tensor product of carriers; its keys are tuples, one key per factor.

    mul and alpha act slotwise: (a x b)(c x d) = ac x bd and
    alpha(a x b) = alpha(a) x alpha(b).  Their results are outer products
    (t_outer), so they may repeat a (key, exponent), and they are not memo
    tables: a tensor sweep meets each pair of tensor keys about once.
    """

    muls, alphas = [C.mul for C in carriers], [C.alpha for C in carriers]

    def mul(t1, t2):
        return t_outer(map(_call, muls, t1, t2))

    def alpha(t):
        return t_outer(map(_call, alphas, t))

    return Carrier(
        name=" x ".join(C.name for C in carriers),
        basis=tuple(product(*(C.basis for C in carriers))),
        mul=mul,
        alpha=alpha,
        render_key=lambda t: " x ".join(C.render_key(k) for C, k in zip(carriers, t)),
        render_elem=lambda coords: render_tensor(coords, *carriers),
    )


def _call(f, *args):
    """f(*args): maps a list of tables over the slots of key tuples."""
    return f(*args)


def _require_comul(H: Carrier):
    if H.comul is None:
        raise ValueError(f"carrier {H.name} has no comultiplication")


# -- algebra checkers --------------------------------------------------
# Each checker sweeps contractions of its carrier's tables; the sides it
# compares are flat elements.


def check_multiplicativity(A: Carrier) -> CheckReport:
    """alpha(ab) = alpha(a) alpha(b) on all basis pairs."""
    mul, alpha = A.mul, A.alpha
    return sweep(
        "multiplicativity",
        "alpha o mu = mu o (alpha x alpha)",
        [axis(A)] * 2,
        lambda k1, k2: linear(alpha, mul(k1, k2)),
        lambda k1, k2: bilinear(mul, alpha(k1), alpha(k2)),
        renderer(A),
    )


def check_hom_associativity(A: Carrier) -> CheckReport:
    """mu(alpha(a), mu(b, c)) = mu(mu(a, b), alpha(c)) on basis triples."""
    mul, alpha = A.mul, A.alpha
    return sweep(
        "hom-associativity",
        "Eq. (1.2)",
        [axis(A)] * 3,
        lambda k1, k2, k3: bilinear(mul, alpha(k1), mul(k2, k3)),
        lambda k1, k2, k3: bilinear(mul, mul(k1, k2), alpha(k3)),
        renderer(A),
    )


def check_hom_coassociativity(H: Carrier) -> CheckReport:
    """(Delta x alpha) o Delta = (alpha x Delta) o Delta on basis elements."""
    _require_comul(H)
    comul, alpha = H.comul, H.alpha

    # Delta x alpha and alpha x Delta on key pairs, into key triples
    def delta_alpha(pair):
        xs = t_outer((comul(pair[0]), alpha(pair[1])))
        return [(ab + (c,), e, x) for (ab, c), e, x in xs]

    def alpha_delta(pair):
        xs = t_outer((alpha(pair[0]), comul(pair[1])))
        return [((a,) + bc, e, x) for (a, bc), e, x in xs]

    return sweep(
        "hom-coassociativity",
        "Eq. (2.3)",
        [axis(H)],
        lambda k: linear(delta_alpha, comul(k)),
        lambda k: linear(alpha_delta, comul(k)),
        # H x H x H is rendered without building its basis
        lambda flat: render_tensor(unflatten(terms(flat)), H, H, H),
    )


def check_comul_morphism(H: Carrier) -> CheckReport:
    """Delta is a morphism of Hom-associative algebras (Eqs. 2.4 and 2.5)."""
    _require_comul(H)
    comul, alpha = H.comul, H.alpha
    T = tensor(H, H)
    report = sweep(
        "comul-morphism",
        "Eqs. (2.4)-(2.5)",
        [axis(H)],
        lambda k: linear(comul, alpha(k)),
        lambda k: linear(T.alpha, comul(k)),
        renderer(T),
    )
    return report.merge(
        sweep(
            "comul-morphism",
            "Eqs. (2.4)-(2.5)",
            [axis(H)] * 2,
            lambda k1, k2: linear(comul, H.mul(k1, k2)),
            # mu^2 o (Id x tau x Id) o Delta^2
            lambda k1, k2: bilinear(T.mul, comul(k1), comul(k2)),
            renderer(T),
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


def _rho_commutes(s, alpha_H, alpha_M, h_axis, name, equation) -> CheckReport:
    """alpha_M(a m) = alpha_H(a) alpha_M(m) for the H keys of h_axis, M = s.A."""
    rho = s.rho
    return sweep(
        name,
        equation,
        [h_axis, axis(s.A)],
        lambda kh, km: linear(alpha_M, rho(kh, km)),
        lambda kh, km: bilinear(rho, alpha_H(kh), alpha_M(km)),
        renderer(s.A),
    )


def check_module_axiom(s: ModuleAlgebraScenario) -> CheckReport:
    """rho is a Hom-module morphism and satisfies the module axiom.

    Checks alpha_M(a m) = alpha(a) alpha_M(m) on pairs and
    alpha(a)(b m) = (a b) alpha_M(m) on triples (Eq. 2.1'), with M = s.A.
    """
    rho, H, M = s.rho, s.H, s.A
    report = _rho_commutes(s, H.alpha, M.alpha, axis(H), "module-axiom", "Eqs. (2.1)/(2.1')")
    return report.merge(
        sweep(
            "module-axiom",
            "Eqs. (2.1)/(2.1')",
            [axis(H), axis(H), axis(M)],
            lambda k1, k2, km: bilinear(rho, H.alpha(k1), rho(k2, km)),
            lambda k1, k2, km: bilinear(rho, H.mul(k1, k2), M.alpha(km)),
            renderer(M),
        )
    )


def check_compatibility(r: Scenario, keys) -> CheckReport:
    """beta_A(x a) = beta_H(x) beta_A(a) for the given H keys x (Eq. 1.7).

    It reads (r.module, r.beta_H, r.beta_A): the first sweep of the module
    axiom with the twisting maps in place of the structure maps.  It checks
    Eq. (4.2) over r.generators and Eq. (1.7) over the H basis.
    """
    h_axis = (tuple(keys), r.module.H.render_key)
    return _rho_commutes(r.module, r.beta_H, r.beta_A, h_axis, "compatibility", "Eq. (1.7)")


def build_rho_tilde(
    s: ModuleAlgebraScenario, alpha_power: int = 2
) -> ModuleAlgebraScenario:
    """The auxiliary module structure rho-tilde = rho o (alpha_H^2 x Id).

    alpha_power exists only for the negative control (power 1 breaks the
    correspondence between the two module Hom-algebra characterizations).
    """

    def rho_tilde(h, a):
        xs = basis_terms(h)
        for _ in range(alpha_power):
            xs = terms(linear(s.H.alpha, xs))
        return terms(bilinear(s.rho, xs, basis_terms(a)))

    return replace(s, rho=cache(rho_tilde))


def _rho2(s: ModuleAlgebraScenario, h, t) -> tuple:
    """rho^2(h, a x b) = sum rho(h', a) x rho(h'', b) on keys, as tensor terms."""
    comul, rho = s.H.comul, s.rho
    a, b = t
    out = {}
    for (h1, h2), e, c in comul(h):
        for keys, e2, c2 in t_outer((rho(h1, a), rho(h2, b))):
            add_term(out, (keys, e + e2), c * c2)
    return terms(out)


def build_rho2(s: ModuleAlgebraScenario) -> ModuleAlgebraScenario:
    """The diagonal module structure rho^2 on the tensor square A x A.

    rho^2(x, a x b) = sum rho(x', a) x rho(x'', b) contracts the tables of s;
    it is not memoized, since a sweep meets each (x, a x b) once.
    """
    _require_comul(s.H)
    return ModuleAlgebraScenario(
        H=s.H,
        A=replace(tensor(s.A, s.A), name=f"{s.A.name} tensor square"),
        rho=lambda h, t: _rho2(s, h, t),
    )


def _module_hom_sides(s: ModuleAlgebraScenario, alpha_power: int):
    """The two sides of the module Hom-algebra axiom on basis triples (x, a, b).

    rho-tilde(x, ab), with rho-tilde of build_rho_tilde, and
    mu_A(rho^2(x, a x b)) = sum (x'a)(x''b), with rho^2 of build_rho2.
    """
    tilde, square = build_rho_tilde(s, alpha_power).rho, build_rho2(s).rho
    mul = s.A.mul
    return (
        lambda kx, ka, kb: bilinear(tilde, basis_terms(kx), mul(ka, kb)),
        lambda kx, ka, kb: t_contract(mul, square(kx, (ka, kb))),
    )


def check_module_hom_algebra(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """The module Hom-algebra axiom: alpha_H^2(x)(ab) = sum (x'a)(x''b)."""
    tilde_side, square_side = _module_hom_sides(s, alpha_power)
    return sweep(
        "module-hom-algebra",
        "Eqs. (2.9)/(2.10)",
        [axis(s.H), axis(s.A), axis(s.A)],
        tilde_side,
        square_side,
        renderer(s.A),
    )


def check_mu_module_morphism(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """mu_A as a morphism of H-modules from (A x A, rho^2) to (A, rho-tilde).

    By the characterization theorem this verdict must coincide with
    check_module_hom_algebra on the same scenario: the sides are the same,
    swapped.
    """
    tilde_side, square_side = _module_hom_sides(s, alpha_power)
    return sweep(
        "mu-module-morphism",
        "Theorem 1.1(3)",
        [axis(s.H), axis(s.A), axis(s.A)],
        square_side,
        tilde_side,
        renderer(s.A),
    )


# -- Yau twists --------------------------------------------------------


def yau_twist_algebra(A: Carrier, beta: Callable) -> Carrier:
    """Twist A by beta: mu_beta = beta o mu, alpha_beta = beta o alpha.

    A Hom-algebra twisted by a morphism that commutes with alpha is again one
    (Makhlouf-Silvestrov); at alpha = Id this is the Yau twist.
    """
    mul = cache(lambda k1, k2: terms(linear(beta, A.mul(k1, k2))))
    alpha = cache(lambda k: terms(linear(beta, A.alpha(k))))
    return replace(A, name=f"{A.name}_alpha", mul=mul, alpha=alpha)


def yau_twist_bialgebra(H: Carrier, beta: Callable) -> Carrier:
    """Twist a bialgebra carrier by beta; also Delta_beta = Delta o beta."""
    _require_comul(H)
    comul = cache(lambda k: terms(linear(H.comul, beta(k))))
    return replace(yau_twist_algebra(H, beta), comul=comul)


def deform_scenario(r: Scenario) -> ModuleAlgebraScenario:
    """The deformed triple (H_beta, A_beta, beta_A o rho) of the record r.

    r.module is twisted by r.beta_H and r.beta_A, so its structure maps become
    beta o alpha.  An H twisted by the identity basis_terms stays as it is: its
    twist would be the same bialgebra under a new name.
    """
    s, beta_A = r.module, r.beta_A
    return ModuleAlgebraScenario(
        H=s.H if r.beta_H is basis_terms else yau_twist_bialgebra(s.H, r.beta_H),
        A=yau_twist_algebra(s.A, beta_A),
        rho=cache(lambda h, a: terms(linear(beta_A, s.rho(h, a)))),
    )


# -- Hom-Lie structure -------------------------------------------------


def check_hom_jacobi(A: Carrier) -> CheckReport:
    """The commutator [a, b] = mu(a, b) - mu(b, a) of A is Hom-Lie.

    Checks bracket multiplicativity and the Hom-Jacobi identity; the
    commutator of a Hom-associative algebra passes both (Makhlouf-Silvestrov).
    Skew-symmetry holds by construction of the bracket table.
    """
    mul, alpha = A.mul, A.alpha

    @cache
    def bracket(k1, k2) -> tuple:
        out = {(k, e): c for k, e, c in mul(k1, k2)}
        for k, e, c in mul(k2, k1):
            add_term(out, (k, e), -c)
        return terms(out)

    def jacobi(k1, k2, k3):
        total = {}
        for a, b, c in ((k1, k2, k3), (k3, k1, k2), (k2, k3, k1)):
            for key, coeff in bilinear(bracket, bracket(a, b), alpha(c)).items():
                add_term(total, key, coeff)
        return total

    report = check_multiplicativity(replace(A, mul=bracket))
    report.name, report.equation = "hom-lie", "Hom-Jacobi"
    return report.merge(
        sweep("hom-lie", "Hom-Jacobi", [axis(A)] * 3, jacobi, lambda k1, k2, k3: {}, renderer(A))
    )
