"""Generic Hom-structure carriers, Yau twists, and axiom checkers.

A carrier packages a degree-bounded test basis together with its product,
structure map and (for bialgebras) comultiplication, given on basis keys as
memo tables in a packed q-graded form.  All maps in play are linear or
bilinear, so verifying an identity on every basis tuple proves it on the
whole spanned truncation; a passing sweep is a proof at the declared bound.

Keys are interned: the one KeyRegistry, REGISTRY, gives each key an int id,
and a term is the pair (exponent * STRIDE + key id, coefficient).  Only this
module knows that layout.  Base carriers define their tables on keys, as key
kernels (keys to (key, coefficient) pairs, on_ids) or coordinate maps
(key_map), and ids become keys again where a result is rendered (axis,
renderer, unflatten) and in the inputs of a counterexample.

A Scenario is the one record every suite reads, (module, beta_H, beta_A,
lie): a module Hom-algebra and the compatible maps beta that deform_scenario
twists it by.  A twist composes with the structure map,
alpha' = beta o alpha (alpha = Id gives the paper's deformation).  Twisted
and deformed tables are composites, composite(f, g) = the memo table of f o g.

Every checker runs one or more sweeps (report.sweep) of a multilinear
identity over basis tuples, whose sides are contractions of the tables with
int and Fraction coefficients: linear and bilinear hold the only accumulate
loops, t_contract is linear on a key-pair table, and t_map(f, g) is the one
map f x g on key pairs.  A structure-map axiom has one of three shapes:
a commuting square of linear maps, a morphism of bilinear maps, or the
Hom-associativity of an action; an algebra A is a module over itself,
regular(A).  Each identity is swept once: check_mu_module_morphism reads the
module Hom-algebra sweep, the same identity by Theorem 1.1.  That sweep sums
mu_A(rho(x', a), rho(x'', b)) over the terms of Delta(x), the same
mu_A o rho^2 as build_rho2 without its tensor terms.  A checker returns a
CheckReport: a failed identity is report content, not an exception, and
renderer renders each distinct side once.  Only malformed carriers raise.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .report import CheckReport, sweep
from .scalars import QLaurent, add_term, trusted

# -- interned keys and packed terms --------------------------------------
# A term is (packed, coefficient) with packed = exponent * STRIDE + key id and
# 0 <= key id < STRIDE, so packed & _MASK is the id and packed & _HIGH the
# exponent times STRIDE.  The exponent is the high part: Python ints are
# unbounded, so a sum of exponents never spills into the id.  STRIDE = 2^20
# keeps a packed value with |exponent| < 2^9 within one 30-bit int digit.

STRIDE = 1 << 20
_SHIFT = 20
_MASK = STRIDE - 1
_HIGH = -STRIDE


class _Memo(dict):
    """A dict that fills a missing entry with fill(key) on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class KeyRegistry:
    """Interned keys: each hashable key gets an int id below capacity, once.

    ids[key] is the id of key, handed out on first lookup, and keys[id] the
    key.  Keys are compared as dict keys, so equal keys of different carriers
    (the int 0 of k[G] and of a structure-constant algebra) share an id; every
    carrier reads the key of an id as its own.  A key pair, the key of a
    tensor, is interned like any key: pair(k1, k2) is the id of the pair of
    the keys of ids k1 and k2, and slots[id] is (k1, k2).  shared holds one
    int object per packed value that tables store, so that their entries
    share it as they would share a key object.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.keys = []
        self.ids = _Memo(self._new_id)
        # pair ids keyed by the packed slot ids k1 * STRIDE + k2
        self.pair_ids = _Memo(self._pair_id)
        self.slots = _Memo(lambda tid: tuple(self.ids[key] for key in self.keys[tid]))
        self.shared = {}

    def _new_id(self, key) -> int:
        new = len(self.keys)
        if new >= self.capacity:
            raise OverflowError(f"key registry is full at {self.capacity} keys")
        self.keys.append(key)
        return new

    def reserve(self, count: int):
        """Refuse, before it is enumerated, a basis of more keys than capacity."""
        if count > self.capacity:
            raise OverflowError(f"a basis of {count} keys overflows {self.capacity} key ids")

    def _pair_id(self, packed: int) -> int:
        k1, k2 = packed >> _SHIFT, packed & _MASK
        tid = self.ids[self.keys[k1], self.keys[k2]]
        self.slots[tid] = (k1, k2)
        return tid

    def pair(self, k1: int, k2: int) -> int:
        """The id of the pair of the keys of ids k1 and k2."""
        return self.pair_ids[k1 << _SHIFT | k2]


REGISTRY = KeyRegistry(STRIDE)
_KEYS = REGISTRY.keys
_share = REGISTRY.shared.setdefault


def key_ids(keys) -> tuple:
    """The ids of keys, in order."""
    return tuple(map(REGISTRY.ids.__getitem__, keys))


def basis_terms(k) -> tuple:
    """The terms of the basis element of id k: the identity map on keys."""
    return ((k, 1),)


class Carrier(
    namedtuple(
        "Carrier",
        "name basis mul alpha comul render_key render_elem",
        defaults=(basis_terms, None, str, str),
    )
):
    """An algebra (or bialgebra, when comul is set) over QLaurent.

    basis holds key ids.  mul(k1, k2), alpha(k) and comul(k) take ids, which
    may be of keys outside the basis (products leave it), and return packed
    terms with no packed value twice (tensor carriers excepted); comul's keys
    are key pairs.  render_key renders a key, and render_elem a coordinate map
    {key: QLaurent} (unflatten).
    """

    __slots__ = ()


class ModuleAlgebraScenario(namedtuple("ModuleAlgebraScenario", "H A rho")):
    """A bialgebra H acting on an algebra A by rho: the module triple (H, A, rho).

    The module structure map is A.alpha, so the scenario is the full input
    for the module axiom and the module Hom-algebra axiom.
    """

    # rho: (H id, A id) -> packed terms over A keys
    __slots__ = ()


class Scenario(namedtuple("Scenario", "module beta_H beta_A lie")):
    """One scenario: the input of the paper's construction and of every suite.

    The record is (module, beta_H, beta_A, lie).  module is a module
    Hom-algebra (H, A, rho) whose carriers hold their true structure maps (the
    identity on a module algebra).  beta_H (a bialgebra endomorphism of H) and
    beta_A (an algebra endomorphism of A) are key tables that twist it into
    the deformed triple, deform_scenario; check_compatibility checks them on
    the H basis.  lie is a Hom-associative carrier whose commutator
    check_hom_jacobi checks.
    """

    __slots__ = ()


def axis(carrier) -> tuple:
    """The sweep axis of a carrier's basis: (ids, render of an id)."""
    render_key = carrier.render_key
    return carrier.basis, lambda k: render_key(_KEYS[k])


def _sweep(name, equation, axes, lhs, rhs, render) -> CheckReport:
    """report.sweep over axes of ids; a counterexample keeps the keys as inputs."""
    report = sweep(name, equation, axes, lhs, rhs, render)
    report.counterexamples = [
        ce._replace(inputs=tuple(_KEYS[k] for k in ce.inputs)) for ce in report.counterexamples
    ]
    return report


# -- packed q-graded form ------------------------------------------------
# The checkers compute in a packed form: an element is a dict
# {exponent * STRIDE + key id: nonzero int or Fraction}, and a tensor is the
# same with the id of a key pair.  Terms are (packed, coefficient) pairs; a
# table entry is a tuple of them.  linear and bilinear are the only loops that
# accumulate terms; t_contract is linear on the key-pair table
# t -> table(*slots[t]), and t_map(f, g), t -> t_outer(f(a), g(b)), is the one
# map on key pairs.  QLaurent appears only where a base carrier reads its
# exact data and where a failing case is rendered.


def on_ids(f):
    """f, a key kernel (a map of keys to (key, coefficient) pairs), as a map of
    ids to packed terms.  It is not memoized; wrap it in cache for a table.
    """
    ids_of = REGISTRY.ids
    return lambda *ids: _shared((ids_of[key], c) for key, c in f(*map(_KEYS.__getitem__, ids)))


def flatten(coords: dict) -> tuple:
    """The packed terms of a coordinate map {key: QLaurent}."""
    ids = REGISTRY.ids
    return _shared(
        (e * STRIDE + ids[key], c) for key, coeff in coords.items() for e, c in coeff.terms.items()
    )


def key_map(image):
    """The memo table ids -> terms of a map given by coordinate maps image(*keys)."""
    return cache(lambda *ids: flatten(image(*map(_KEYS.__getitem__, ids))))


def unflatten(xs) -> dict:
    """The coordinate map {key: QLaurent} of packed terms, of an element or a tensor."""
    out = {}
    for p, c in xs:
        out.setdefault(_KEYS[p & _MASK], {})[p >> _SHIFT] = c
    return {key: trusted(QLaurent, coeff) for key, coeff in out.items()}


def terms(flat: dict) -> tuple:
    """The terms of a packed element, to store in a table or to feed into
    another contraction.
    """
    return _shared(flat.items())


def _shared(pairs) -> tuple:
    """Terms whose packed values are the shared ints of REGISTRY.shared."""
    return tuple([(_share(p, p), c) for p, c in pairs])


def renderer(C: Carrier):
    """Render a packed element of C, once per distinct element.

    The memo is keyed by the packed content: every render_elem sorts its
    terms, so the text does not depend on the order the terms were added in.
    """
    texts = _Memo(lambda content: C.render_elem(unflatten(content)))
    return lambda flat: texts[frozenset(flat.items())]


def linear(table, xs) -> dict:
    """A linear map, given by its table id -> terms, applied to the terms xs."""
    out = {}
    for p1, c1 in xs:
        k = p1 & _MASK
        p1 -= k
        for p, c in table(k):
            p += p1
            c *= c1
            if p in out:
                c += out[p]
                if not c:
                    del out[p]
                    continue
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            out[p] = c
    return out


def bilinear(table, xs, ys) -> dict:
    """A bilinear map, given by its table (id, id) -> terms, on xs and ys."""
    out = {}
    for p1, c1 in xs:
        k1 = p1 & _MASK
        p1 -= k1
        for p2, c2 in ys:
            k2 = p2 & _MASK
            e12, c12 = p1 + p2 - k2, c1 * c2
            for p, c in table(k1, k2):
                p += e12
                c *= c12
                if p in out:
                    c += out[p]
                    if not c:
                        del out[p]
                        continue
                if c.__class__ is Fraction and c.denominator == 1:
                    c = c.numerator
                out[p] = c
    return out


# -- tensor products ---------------------------------------------------


def t_outer(xs, ys) -> list:
    """The terms (over key pair ids) of the outer product of the terms xs and ys.

    Like terms are not merged; callers accumulate them.
    """
    pair_ids = REGISTRY.pair_ids
    return [
        ((p1 & _HIGH) + (p2 & _HIGH) + pair_ids[(p1 & _MASK) << _SHIFT | p2 & _MASK], c1 * c2)
        for p1, c1 in xs
        for p2, c2 in ys
    ]


def t_contract(table, xs) -> dict:
    """A bilinear map, given by its table, applied to the 2-tensor terms xs:
    linear over the key-pair table t -> table(*slots[t]).
    """
    slots = REGISTRY.slots
    return linear(lambda t: table(*slots[t]), xs)


def t_map(f, g):
    """f x g on key pairs: the map t -> t_outer(f(a), g(b)), (a, b) = slots[t]."""
    slots = REGISTRY.slots

    def fg(t):
        a, b = slots[t]
        return t_outer(f(a), g(b))

    return fg


def render_tensor(t: dict, *carriers) -> str:
    """Render a tensor {key tuple: QLaurent}, one slot per carrier."""
    if not t:
        return "0"
    parts = []
    for key in sorted(t, key=repr):
        names = " x ".join(c.render_key(k) for c, k in zip(carriers, key))
        parts.append(f"({t[key]})*({names})")
    return " + ".join(parts)


def _slotwise(C1: Carrier, C2: Carrier) -> Carrier:
    """The maps and rendering of the tensor product of C1 and C2, with no basis.

    mul and alpha act slotwise: (a x b)(c x d) = ac x bd and
    alpha(a x b) = alpha(a) x alpha(b), t_map(alpha1, alpha2).  Their results
    are outer products (t_outer), so they may repeat a packed value, and they
    are not memo tables: a tensor sweep meets each pair of tensor keys about
    once.
    """

    mul1, mul2 = C1.mul, C2.mul
    slots = REGISTRY.slots

    def mul(t1, t2):
        (a1, b1), (a2, b2) = slots[t1], slots[t2]
        return t_outer(mul1(a1, a2), mul2(b1, b2))

    return Carrier(
        name=f"{C1.name} x {C2.name}",
        basis=(),
        mul=mul,
        alpha=t_map(C1.alpha, C2.alpha),
        render_key=lambda t: f"{C1.render_key(t[0])} x {C2.render_key(t[1])}",
        render_elem=lambda coords: render_tensor(coords, C1, C2),
    )


def tensor(C1: Carrier, C2: Carrier) -> Carrier:
    """The tensor product of two carriers; its keys are key pairs.

    Its maps are those of _slotwise(C1, C2), and its basis holds the pairs of
    basis keys.
    """
    pair = REGISTRY.pair
    basis = tuple(pair(k1, k2) for k1 in C1.basis for k2 in C2.basis)
    return _slotwise(C1, C2)._replace(basis=basis)


def _require_comul(H: Carrier):
    if H.comul is None:
        raise ValueError(f"carrier {H.name} has no comultiplication")


# -- sweep shapes ------------------------------------------------------
# The sides each shape compares are packed elements.


def _square(name, equation, C, f, g, h, k, render) -> CheckReport:
    """f o g = h o k on the basis of C: a square of linear maps commutes."""
    return _sweep(
        name, equation, [axis(C)], lambda x: linear(f, g(x)), lambda x: linear(h, k(x)), render
    )


def _morphism(name, equation, axes, phi, f, g, phi1, phi2, render) -> CheckReport:
    """phi o f = g o (phi1 x phi2) on basis pairs: phi carries the bilinear f to g."""
    return _sweep(
        name, equation, axes,
        lambda x, y: linear(phi, f(x, y)),
        lambda x, y: bilinear(g, phi1(x), phi2(y)),
        render,
    )


def _action_associativity(name, equation, s) -> CheckReport:
    """alpha_H(a)(b m) = (a b) alpha_M(m) on basis triples (Eq. 2.1'), M = s.A."""
    rho, H, M = s.rho, s.H, s.A
    return _sweep(
        name, equation, [axis(H), axis(H), axis(M)],
        lambda a, b, m: bilinear(rho, H.alpha(a), rho(b, m)),
        lambda a, b, m: bilinear(rho, H.mul(a, b), M.alpha(m)),
        renderer(M),
    )


def regular(A: Carrier) -> ModuleAlgebraScenario:
    """A as a module over itself through its product: the regular module.

    Its module axiom is multiplicativity of alpha on pairs and Eq. (1.2) on
    triples, so the two algebra checkers are the module sweeps of regular(A).
    """
    return ModuleAlgebraScenario(A, A, A.mul)


# -- algebra checkers --------------------------------------------------


def check_multiplicativity(A: Carrier) -> CheckReport:
    """alpha(ab) = alpha(a) alpha(b) on all basis pairs."""
    mul, alpha = A.mul, A.alpha
    return _morphism(
        "multiplicativity", "alpha o mu = mu o (alpha x alpha)",
        [axis(A)] * 2, alpha, mul, mul, alpha, alpha, renderer(A),
    )


def check_hom_associativity(A: Carrier) -> CheckReport:
    """mu(alpha(a), mu(b, c)) = mu(mu(a, b), alpha(c)) on basis triples."""
    return _action_associativity("hom-associativity", "Eq. (1.2)", regular(A))


def check_hom_coassociativity(H: Carrier) -> CheckReport:
    """(Delta x alpha) o Delta = (alpha x Delta) o Delta on basis elements."""
    _require_comul(H)
    comul, alpha = H.comul, H.alpha
    slots, pair = REGISTRY.slots, REGISTRY.pair

    # Delta x alpha and alpha x Delta on key pairs, into key pairs ((x, y), z)
    alpha_delta = t_map(alpha, comul)

    def reassociated(t):
        out = []
        for p, c in alpha_delta(t):
            x, yz = slots[p & _MASK]
            y, z = slots[yz]
            out.append(((p & _HIGH) + pair(pair(x, y), z), c))
        return out

    return _square(
        "hom-coassociativity", "Eq. (2.3)", H, t_map(comul, alpha), comul, reassociated, comul,
        renderer(_slotwise(_slotwise(H, H), H)),
    )


def check_comul_morphism(H: Carrier) -> CheckReport:
    """Delta is a morphism of Hom-associative algebras (Eqs. 2.4 and 2.5)."""
    _require_comul(H)
    # the sweeps read the maps of H x H, not its basis
    comul, T = H.comul, _slotwise(H, H)
    name, equation = "comul-morphism", "Eqs. (2.4)-(2.5)"
    report = _square(name, equation, H, comul, H.alpha, T.alpha, comul, renderer(T))
    # mu^2 o (Id x tau x Id) o Delta^2 on the right
    return report.merge(
        _morphism(name, equation, [axis(H)] * 2, comul, H.mul, T.mul, comul, comul, renderer(T))
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
    rho, H, M = s.rho, s.H, s.A
    name, equation = "module-axiom", "Eqs. (2.1)/(2.1')"
    report = _morphism(
        name, equation, [axis(H), axis(M)], M.alpha, rho, rho, H.alpha, M.alpha, renderer(M)
    )
    return report.merge(_action_associativity(name, equation, s))


def check_compatibility(r: Scenario) -> CheckReport:
    """beta_A(x a) = beta_H(x) beta_A(a) on the basis of r.module.H.

    It reads (r.module, r.beta_H, r.beta_A): the first sweep of the module
    axiom with the twisting maps in place of the structure maps.  This is
    Eq. (1.7) on the H basis; the basis holds the generators, so it is also
    Eq. (4.2), the condition on generators.
    """
    s, beta_A = r.module, r.beta_A
    return _morphism(
        "compatibility", "Eqs. (1.5)/(1.7)/(4.2)",
        [axis(s.H), axis(s.A)], beta_A, s.rho, s.rho, r.beta_H, beta_A, renderer(s.A),
    )


def build_rho_tilde(
    s: ModuleAlgebraScenario, alpha_power: int = 2
) -> ModuleAlgebraScenario:
    """The auxiliary module structure rho-tilde = rho o (alpha_H^2 x Id).

    alpha_power exists only for the negative control, which sweeps alpha_H
    in place of alpha_H^2.
    """

    def rho_tilde(h, a):
        xs = basis_terms(h)
        for _ in range(alpha_power):
            xs = terms(linear(s.H.alpha, xs))
        return terms(bilinear(s.rho, xs, basis_terms(a)))

    return s._replace(rho=cache(rho_tilde))


def build_rho2(s: ModuleAlgebraScenario) -> ModuleAlgebraScenario:
    """The diagonal module structure rho^2 on the tensor square A x A.

    rho^2(x, a x b) = sum rho(x', a) x rho(x'', b) is Delta(x) through the
    key-pair map t_map(rho(., a), rho(., b)); it is not memoized, since a
    sweep meets each (x, a x b) once.  mu_A of it,
    t_contract(s.A.mul, rho^2(x, a x b)), is the right side that
    check_module_hom_algebra computes without the tensor terms.
    """
    _require_comul(s.H)
    rho, comul, slots = s.rho, s.H.comul, REGISTRY.slots

    def rho2(h, t):
        a, b = slots[t]
        return terms(linear(t_map(lambda h1: rho(h1, a), lambda h2: rho(h2, b)), comul(h)))

    return ModuleAlgebraScenario(
        H=s.H, A=tensor(s.A, s.A)._replace(name=f"{s.A.name} tensor square"), rho=rho2
    )


def check_module_hom_algebra(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """The module Hom-algebra axiom: alpha_H^2(x)(ab) = sum (x'a)(x''b).

    On basis triples (x, a, b) it compares rho-tilde(x, ab), with rho-tilde of
    build_rho_tilde, and sum mu_A(rho(x', a), rho(x'', b)): Delta(x)
    contracted with the table (h1, h2) -> mu_A(rho(h1, a), rho(h2, b)).  That
    is mu_A o rho^2 with rho^2 of build_rho2, summed without building the
    tensor terms of A x A.
    """
    _require_comul(s.H)
    tilde = build_rho_tilde(s, alpha_power).rho
    rho, mul, comul = s.rho, s.A.mul, s.H.comul

    def rhs(kx, ka, kb):
        return t_contract(
            lambda h1, h2: bilinear(mul, rho(h1, ka), rho(h2, kb)).items(), comul(kx)
        )

    return _sweep(
        "module-hom-algebra",
        "Eqs. (2.9)/(2.10)",
        [axis(s.H), axis(s.A), axis(s.A)],
        lambda kx, ka, kb: bilinear(tilde, basis_terms(kx), mul(ka, kb)),
        rhs,
        renderer(s.A),
    )


def mu_module_morphism(report: CheckReport) -> CheckReport:
    """A module Hom-algebra report read as Theorem 1.1(3).

    mu_A is a morphism of H-modules from (A x A, rho^2) to (A, rho-tilde)
    exactly when the module Hom-algebra axiom holds: the identity is the same,
    with the sides swapped.  The view copies the counterexamples, so report
    is left as it is.
    """
    swapped = [ce._replace(lhs=ce.rhs, rhs=ce.lhs) for ce in report.counterexamples]
    return CheckReport("mu-module-morphism", "Theorem 1.1(3)", report.checked, swapped)


def check_mu_module_morphism(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """mu_A as a morphism of H-modules from (A x A, rho^2) to (A, rho-tilde).

    By Theorem 1.1 this is the module Hom-algebra axiom: the report reads the
    sweep of check_module_hom_algebra through mu_module_morphism.
    """
    return mu_module_morphism(check_module_hom_algebra(s, alpha_power))


# -- Yau twists --------------------------------------------------------


def composite(f, g):
    """The memo table of f o g: the table g, of any arity, then the linear f."""
    return cache(lambda *ids: terms(linear(f, g(*ids))))


def yau_twist_algebra(A: Carrier, beta) -> Carrier:
    """Twist A by beta: mu_beta = beta o mu, alpha_beta = beta o alpha.

    A Hom-algebra twisted by a morphism that commutes with alpha is again one
    (Makhlouf-Silvestrov); at alpha = Id this is the Yau twist.
    """
    return A._replace(
        name=f"{A.name}_alpha", mul=composite(beta, A.mul), alpha=composite(beta, A.alpha)
    )


def yau_twist_bialgebra(H: Carrier, beta) -> Carrier:
    """Twist a bialgebra carrier by beta; also Delta_beta = Delta o beta."""
    _require_comul(H)
    return yau_twist_algebra(H, beta)._replace(comul=composite(H.comul, beta))


def deform_scenario(r: Scenario) -> ModuleAlgebraScenario:
    """The deformed triple (H_beta, A_beta, beta_A o rho) of the record r.

    r.module is twisted by r.beta_H and r.beta_A, so its structure maps become
    beta o alpha.  An H twisted by the identity basis_terms stays as it is: its
    twist would be the same bialgebra under a new name.
    """
    s = r.module
    return ModuleAlgebraScenario(
        H=s.H if r.beta_H is basis_terms else yau_twist_bialgebra(s.H, r.beta_H),
        A=yau_twist_algebra(s.A, r.beta_A),
        rho=composite(r.beta_A, s.rho),
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
        out = dict(mul(k1, k2))
        for p, c in mul(k2, k1):
            add_term(out, p, -c)
        return terms(out)

    def jacobi(k1, k2, k3):
        total = {}
        for a, b, c in ((k1, k2, k3), (k3, k1, k2), (k2, k3, k1)):
            for p, coeff in bilinear(bracket, bracket(a, b), alpha(c)).items():
                add_term(total, p, coeff)
        return total

    report = check_multiplicativity(A._replace(mul=bracket))
    report.name, report.equation = "hom-lie", "Hom-Jacobi"
    return report.merge(
        _sweep("hom-lie", "Hom-Jacobi", [axis(A)] * 3, jacobi, lambda k1, k2, k3: {}, renderer(A))
    )
