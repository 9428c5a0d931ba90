"""Generic Hom-structure carriers, Yau twists, and axiom checkers.

A carrier packages a degree-bounded test basis together with oracles for the
product, the structure map, and (for bialgebras) the comultiplication.  All
maps in play are linear or bilinear, so verifying an identity on every basis
tuple proves it on the whole spanned truncation; a passing sweep is a proof
at the declared bound.

Every checker is one or more sweeps (report.sweep) of a multilinear identity
over basis tuples, and returns a CheckReport: a failed identity is report
content, not an exception.  Only malformed carriers raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .report import CheckReport, sweep
from .scalars import ONE, QLaurent, add_term, sparse_add, sparse_scale


@dataclass(frozen=True)
class Carrier:
    """An algebra (or bialgebra, when comul is set) over QLaurent.

    basis holds hashable keys; element/coords translate between keys and the
    carrier's native element type.  coords must return a canonical sparse
    map key -> nonzero QLaurent, and elements must compare equal exactly when
    they are equal as vectors.
    """

    name: str
    basis: tuple
    element: Callable
    coords: Callable
    add: Callable
    scale: Callable
    zero: object
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


def sparse_carrier(alpha: Optional[Callable] = None, **fields) -> Carrier:
    """A carrier whose elements are sparse maps {basis key: nonzero QLaurent}.

    fields are the remaining Carrier fields; alpha defaults to the identity.
    """
    return Carrier(
        element=lambda key: {key: ONE},
        coords=_ident,
        add=sparse_add,
        scale=sparse_scale,
        zero={},
        alpha=alpha if alpha is not None else _ident,
        **fields,
    )


def axis(carrier) -> tuple:
    """The sweep axis of a carrier's basis: (keys, render_key)."""
    return carrier.basis, carrier.render_key


def elements(carrier) -> dict:
    """Basis key -> element, built once before a sweep."""
    return {key: carrier.element(key) for key in carrier.basis}


def _iterate(fn, times, x):
    for _ in range(times):
        x = fn(x)
    return x


# -- sparse tensors ----------------------------------------------------
# A tensor is a dict mapping tuples of basis keys to nonzero QLaurent.


def t_outer(*coord_dicts) -> dict:
    """Outer product of coordinate dicts into one tensor."""
    out = {(): QLaurent.one()}
    for coords in coord_dicts:
        nxt = {}
        for prefix, c1 in out.items():
            for key, c2 in coords.items():
                nxt[prefix + (key,)] = c1 * c2
        out = nxt
    return {key: c for key, c in out.items() if c}


def elem_tensor(c1, c2, e1, e2) -> dict:
    return t_outer(c1.coords(e1), c2.coords(e2))


def t_mul(C: Carrier, t1: dict, t2: dict) -> dict:
    """Product of two tensors in C x C: (a x b)(c x d) = ac x bd."""
    out = {}
    for (a, b), c1 in t1.items():
        for (u, v), c2 in t2.items():
            left = C.mul(C.element(a), C.element(u))
            right = C.mul(C.element(b), C.element(v))
            for key, c in elem_tensor(C, C, left, right).items():
                add_term(out, key, c1 * c2 * c)
    return out


def t_apply(t: dict, slots) -> dict:
    """Apply one linear map per slot to a tensor.

    slots is a sequence of (carrier, fn) pairs, fn acting on carrier
    elements; the result is re-expanded into basis coordinates.
    """
    out = {}
    for key, coeff in t.items():
        coord_dicts = []
        for k, (carrier, fn) in zip(key, slots):
            coord_dicts.append(carrier.coords(fn(carrier.element(k))))
        for new_key, c in t_outer(*coord_dicts).items():
            add_term(out, new_key, coeff * c)
    return out


def t_expand_slot(t: dict, slot: int, carrier: Carrier) -> dict:
    """Replace one tensor slot by the carrier's comultiplication of it."""
    _require_comul(carrier)
    out = {}
    for key, coeff in t.items():
        inner = carrier.comul(carrier.element(key[slot]))
        for (left, right), c in inner.items():
            add_term(out, key[:slot] + (left, right) + key[slot + 1 :], coeff * c)
    return out


def render_tensor(t: dict, *carriers) -> str:
    if not t:
        return "0"
    parts = []
    for key in sorted(t, key=repr):
        names = " x ".join(c.render_key(k) for c, k in zip(carriers, key))
        parts.append(f"({t[key]})*({names})")
    return " + ".join(parts)


def _require_comul(H: Carrier):
    if H.comul is None:
        raise ValueError(f"carrier {H.name} has no comultiplication")


# -- algebra checkers --------------------------------------------------


def check_multiplicativity(A: Carrier) -> CheckReport:
    """alpha(ab) = alpha(a) alpha(b) on all basis pairs."""
    e = elements(A)
    return sweep(
        "multiplicativity",
        "alpha o mu = mu o (alpha x alpha)",
        [axis(A)] * 2,
        lambda k1, k2: A.alpha(A.mul(e[k1], e[k2])),
        lambda k1, k2: A.mul(A.alpha(e[k1]), A.alpha(e[k2])),
        A.render_elem,
    )


def check_hom_associativity(A: Carrier) -> CheckReport:
    """mu(alpha(a), mu(b, c)) = mu(mu(a, b), alpha(c)) on basis triples."""
    e = elements(A)
    return sweep(
        "hom-associativity",
        "Eq. (1.2)",
        [axis(A)] * 3,
        lambda k1, k2, k3: A.mul(A.alpha(e[k1]), A.mul(e[k2], e[k3])),
        lambda k1, k2, k3: A.mul(A.mul(e[k1], e[k2]), A.alpha(e[k3])),
        A.render_elem,
    )


def check_hom_coassociativity(H: Carrier) -> CheckReport:
    """(Delta x alpha) o Delta = (alpha x Delta) o Delta on basis elements."""
    _require_comul(H)
    delta = {key: H.comul(H.element(key)) for key in H.basis}
    return sweep(
        "hom-coassociativity",
        "Eq. (2.3)",
        [axis(H)],
        lambda k: t_apply(
            t_expand_slot(delta[k], 0, H), [(H, _ident), (H, _ident), (H, H.alpha)]
        ),
        lambda k: t_apply(
            t_expand_slot(delta[k], 1, H), [(H, H.alpha), (H, _ident), (H, _ident)]
        ),
        lambda t: render_tensor(t, H, H, H),
    )


def check_comul_morphism(H: Carrier) -> CheckReport:
    """Delta is a morphism of Hom-associative algebras (Eqs. 2.4 and 2.5)."""
    _require_comul(H)
    e = elements(H)
    delta = {key: H.comul(x) for key, x in e.items()}

    render = lambda t: render_tensor(t, H, H)
    report = sweep(
        "comul-morphism",
        "Eqs. (2.4)-(2.5)",
        [axis(H)],
        lambda k: H.comul(H.alpha(e[k])),
        lambda k: t_apply(delta[k], [(H, H.alpha), (H, H.alpha)]),
        render,
    )
    return report.merge(
        sweep(
            "comul-morphism",
            "Eqs. (2.4)-(2.5)",
            [axis(H)] * 2,
            lambda k1, k2: H.comul(H.mul(e[k1], e[k2])),
            # mu^2 o (Id x tau x Id) o Delta^2
            lambda k1, k2: t_mul(H, delta[k1], delta[k2]),
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


def check_module_axiom(s: ModuleAlgebraScenario) -> CheckReport:
    """rho is a Hom-module morphism and satisfies the module axiom.

    Checks alpha_M(a m) = alpha(a) alpha_M(m) on pairs and
    alpha(a)(b m) = (a b) alpha_M(m) on triples (Eq. 2.1'), with M = s.A.
    """
    H, M, rho = s.H, s.A, s.rho
    eh, em = elements(H), elements(M)
    report = sweep(
        "module-axiom",
        "Eqs. (2.1)/(2.1')",
        [axis(H), axis(M)],
        lambda kh, km: M.alpha(rho(eh[kh], em[km])),
        lambda kh, km: rho(H.alpha(eh[kh]), M.alpha(em[km])),
        M.render_elem,
    )
    return report.merge(
        sweep(
            "module-axiom",
            "Eqs. (2.1)/(2.1')",
            [axis(H), axis(H), axis(M)],
            lambda k1, k2, km: rho(H.alpha(eh[k1]), rho(eh[k2], em[km])),
            lambda k1, k2, km: rho(H.mul(eh[k1], eh[k2]), M.alpha(em[km])),
            M.render_elem,
        )
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


def build_rho2(s: ModuleAlgebraScenario) -> ModuleAlgebraScenario:
    """The diagonal module structure rho^2 on A x A.

    Elements of the tensor-square carrier are sparse tensors keyed by pairs
    of A basis keys; rho^2(x, a x b) = sum rho(x', a) x rho(x'', b), with
    Delta computed once per H basis key.
    """
    H, A = s.H, s.A
    _require_comul(H)
    sweedler = {}  # H basis key -> [(x', x'', coefficient)] of Delta(x)

    def rho2(x, t):
        out = {}
        for hk, hc in H.coords(x).items():
            if hk not in sweedler:
                sweedler[hk] = [
                    (H.element(k1), H.element(k2), c)
                    for (k1, k2), c in H.comul(H.element(hk)).items()
                ]
            for x1, x2, dc in sweedler[hk]:
                hdc = hc * dc
                for (ak1, ak2), ac in t.items():
                    left = s.rho(x1, A.element(ak1))
                    right = s.rho(x2, A.element(ak2))
                    for key, c in elem_tensor(A, A, left, right).items():
                        add_term(out, key, hdc * ac * c)
        return out

    square = sparse_carrier(
        name=f"{A.name} tensor square",
        basis=tuple((k1, k2) for k1 in A.basis for k2 in A.basis),
        mul=lambda t1, t2: t_mul(A, t1, t2),
        alpha=lambda t: t_apply(t, [(A, A.alpha), (A, A.alpha)]),
        render_key=lambda pair: f"{A.render_key(pair[0])} x {A.render_key(pair[1])}",
        render_elem=lambda t: render_tensor(t, A, A),
    )
    return ModuleAlgebraScenario(H=H, A=square, rho=rho2)


def check_module_hom_algebra(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """The module Hom-algebra axiom: alpha_H^2(x)(ab) = sum (x'a)(x''b)."""
    H, A = s.H, s.A
    eh, ea = elements(H), elements(A)
    twisted = {kx: _iterate(H.alpha, alpha_power, x) for kx, x in eh.items()}
    sweedler = {kx: H.comul(x) for kx, x in eh.items()}

    def rhs(kx, ka, kb):
        out = A.zero
        for (h1, h2), coeff in sweedler[kx].items():
            term = A.mul(s.rho(H.element(h1), ea[ka]), s.rho(H.element(h2), ea[kb]))
            out = A.add(out, A.scale(coeff, term))
        return out

    return sweep(
        "module-hom-algebra",
        "Eqs. (2.9)/(2.10)",
        [axis(H), axis(A), axis(A)],
        lambda kx, ka, kb: s.rho(twisted[kx], A.mul(ea[ka], ea[kb])),
        rhs,
        A.render_elem,
    )


def check_mu_module_morphism(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """mu_A as a morphism of H-modules from (A x A, rho^2) to (A, rho-tilde).

    By the characterization theorem this verdict must coincide with
    check_module_hom_algebra on the same scenario.
    """
    H, A = s.H, s.A
    square = build_rho2(s)
    tilde = build_rho_tilde(s, alpha_power=alpha_power)
    eh, ea = elements(H), elements(A)

    def lhs(kx, ka, kb):
        out = A.zero
        for (k1, k2), coeff in square.rho(eh[kx], square.A.element((ka, kb))).items():
            out = A.add(out, A.scale(coeff, A.mul(A.element(k1), A.element(k2))))
        return out

    return sweep(
        "mu-module-morphism",
        "Theorem 1.1(3)",
        [axis(H), axis(A), axis(A)],
        lhs,
        lambda kx, ka, kb: tilde.rho(eh[kx], A.mul(ea[ka], ea[kb])),
        A.render_elem,
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


def deform_scenario(
    s: ModuleAlgebraScenario, alpha_H: Callable, alpha_A: Callable
) -> ModuleAlgebraScenario:
    """Twist H and A and set rho_alpha = alpha_A o rho."""

    def rho_alpha(x, a):
        return alpha_A(s.rho(x, a))

    return ModuleAlgebraScenario(
        H=yau_twist_bialgebra(s.H, alpha_H),
        A=yau_twist_algebra(s.A, alpha_A),
        rho=rho_alpha,
    )


# -- Hom-Lie structure -------------------------------------------------


def commutator_bracket(A: Carrier) -> Callable:
    """[a, b] = mu(a, b) - mu(b, a)."""

    def bracket(a, b):
        return A.add(A.mul(a, b), A.scale(QLaurent.of(-1), A.mul(b, a)))

    return bracket


def lie_yau_twist(bracket: Callable, alpha: Callable) -> Callable:
    """Twisted bracket [a, b]_alpha = alpha([a, b])."""

    def twisted(a, b):
        return alpha(bracket(a, b))

    return twisted


def check_hom_jacobi(A: Carrier, bracket: Optional[Callable] = None) -> CheckReport:
    """Skew-symmetry, bracket multiplicativity, and the Hom-Jacobi identity."""
    br = bracket if bracket is not None else commutator_bracket(A)
    e = elements(A)
    neg = lambda x: A.scale(QLaurent.of(-1), x)

    def jacobi(k1, k2, k3):
        a, b, c = e[k1], e[k2], e[k3]
        total = br(br(a, b), A.alpha(c))
        total = A.add(total, br(br(c, a), A.alpha(b)))
        return A.add(total, br(br(b, c), A.alpha(a)))

    pairs = [axis(A)] * 2
    report = sweep(
        "hom-lie",
        "Hom-Jacobi",
        pairs,
        lambda k1, k2: br(e[k1], e[k2]),
        lambda k1, k2: neg(br(e[k2], e[k1])),
        A.render_elem,
    )
    report = report.merge(
        sweep(
            "hom-lie",
            "Hom-Jacobi",
            pairs,
            lambda k1, k2: A.alpha(br(e[k1], e[k2])),
            lambda k1, k2: br(A.alpha(e[k1]), A.alpha(e[k2])),
            A.render_elem,
        )
    )
    return report.merge(
        sweep(
            "hom-lie",
            "Hom-Jacobi",
            [axis(A)] * 3,
            jacobi,
            lambda k1, k2, k3: A.zero,
            A.render_elem,
        )
    )


def _ident(e):
    return e
