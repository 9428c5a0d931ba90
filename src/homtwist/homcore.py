"""Generic Hom-structure carriers, Yau twists, and axiom checkers.

A carrier packages a degree-bounded test basis together with its product,
structure map and (for bialgebras) comultiplication, given on basis keys as
memo tables in a packed q-graded form.  All maps in play are linear or
bilinear, so verifying an identity on every basis tuple proves it on the
whole spanned truncation; a passing sweep is a proof at the declared bound.

Keys are interned: the one KeyRegistry, REGISTRY, gives each key an int id,
and a term is the pair (exponent * STRIDE + key id, coefficient); a key pair
is a key, whose slot ids REGISTRY.slots reads back on first use.  Only this
module knows that layout.  Base carriers define their tables on keys, as key
kernels (keys to (key, coefficient) pairs) or coordinate maps, which on_ids
and key_map make into memo tables on ids, each entry filled once; ids become
keys again where a result is rendered (axis, renderer, unflatten).

A Scenario is the one record every suite reads, (module, beta_H, beta_A,
lie): a module Hom-algebra, the compatible maps beta that deform_scenario
twists it by (no other code twists a record), and lie(d), the Lie carrier of
a deformed triple d.  A twist composes with the structure map, alpha' = beta
o alpha (alpha = Id gives the paper's deformation).  Twisted and deformed
tables are composites, composite(f, g) = the memo table of f o g.

Every checker runs one or more sweeps (report.sweep) of a multilinear
identity over basis tuples, whose sides are contractions of the tables with
int and Fraction coefficients, compared by value: a Fraction equal to an int
compares, hashes and renders as that int, so the accumulate loops store each
product and sum as it comes and drop only zeros (an unflattened side may
hold an integral Fraction; the int form is scalars' rule for what QLaurent
builds).  linear and bilinear hold the accumulate loops of every contraction
but two, t_contract is linear on a key-pair table, and t_map(f, g) is the
one map f x g on key pairs.  A sum of terms is linear over the identity
table basis_terms.
A structure-map axiom is a commuting square of linear maps or one of the two
halves of the module axiom on a module triple: alpha carries rho
(_rho_commutes) and the action is Hom-associative; an algebra A is a module
over itself, regular(A).  homcore holds identities only, each swept once;
cli holds everything a run prints: labels, equations and which side is lhs
(mu-module-morphism is the module Hom-algebra sweep, sides swapped, by
Theorem 1.1(3)).  Delta(x) = sum x' x x'' is split in one memo table,
split_coproduct, which the two other accumulate loops read: the right side
mu_A o rho^2 of the module Hom-algebra sweep (one memoized row of
(rho(., a) x Id)Delta(x) per (x, a), through rho(x'', b) and the mu_A table)
and the right side Delta(x)Delta(y) of Eq. (2.5) (mul(x', y') and
mul(x'', y'') per pair of Delta terms, added straight into key pair ids).
Neither builds tensor terms; t_contract(mu_A, rho^2) and bilinear over a
slotwise product of H x H, which paid a call and a list of terms per Delta
term, are their tests' references.  A checker returns an unlabelled
CheckReport, which the command line names: a failed identity is report
content, not an exception, and renderer renders each distinct side once.
Only malformed carriers raise.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .report import CheckReport, sweep
from .scalars import QLaurent, trusted

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
    the keys of ids k1 and k2, and slots[id] is (k1, k2), filled on first
    read, so it holds only the pairs that something reads.  shared holds one
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
        return self.ids[self.keys[packed >> _SHIFT], self.keys[packed & _MASK]]

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
    terms with no packed value twice (tensor carriers excepted, whose mul is
    None); comul's keys are key pairs.  render_key renders a key, and
    render_elem a coordinate map {key: QLaurent} (unflatten).
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
    the H basis.  lie(d) is the Lie carrier of a deformed triple d, whose
    commutator check_hom_jacobi checks.
    """

    __slots__ = ()


def axis(carrier) -> tuple:
    """The sweep axis of a carrier's basis: (ids, render of an id)."""
    render_key = carrier.render_key
    return carrier.basis, lambda k: render_key(_KEYS[k])


# -- packed q-graded form ------------------------------------------------
# The checkers compute in a packed form: an element is a dict
# {exponent * STRIDE + key id: nonzero rational}, and a tensor is the same
# with the id of a key pair.  Terms are (packed, coefficient) pairs; a
# table entry is a tuple of them.  QLaurent appears only where a base
# carrier reads its exact data and where a failing case is rendered.


def on_ids(f):
    """The memo table ids -> terms of a key kernel f, a map of keys to
    (key, coefficient) pairs.
    """
    ids_of = REGISTRY.ids
    return cache(
        lambda *ids: _shared((ids_of[key], c) for key, c in f(*map(_KEYS.__getitem__, ids)))
    )


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
    """The coordinate map {key: QLaurent} of packed terms, of an element or a
    tensor.  A QLaurent here may hold an integral Fraction, which it renders
    and compares as its int.
    """
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


def split_coproduct(comul):
    """The memo table k -> [(exponent part, k' id, k'' id, coefficient)] of
    the terms of Delta(k) = sum k' x k'', comul's table with its key pairs
    read into their slots once per k.
    """
    slots = REGISTRY.slots
    return cache(lambda k: [(p & _HIGH, *slots[p & _MASK], c) for p, c in comul(k)])


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
    """The structure map and rendering of the tensor product of C1 and C2,
    with no basis and no product.

    alpha acts slotwise, alpha(a x b) = alpha(a) x alpha(b), t_map(alpha1,
    alpha2); its results are outer products (t_outer), so they may repeat a
    packed value, and it is not a memo table: a tensor sweep meets each
    tensor key about once.  No sweep multiplies tensors: the one slotwise
    product, Delta(x)Delta(y), is the loop of check_comul_morphism.
    """
    return Carrier(
        name=f"{C1.name} x {C2.name}",
        basis=(),
        mul=None,
        alpha=t_map(C1.alpha, C2.alpha),
        render_key=lambda t: f"{C1.render_key(t[0])} x {C2.render_key(t[1])}",
        render_elem=lambda coords: render_tensor(coords, C1, C2),
    )


def tensor(C: Carrier) -> Carrier:
    """The tensor square C x C as a module, with no product; its keys are key
    pairs.

    Its structure map and rendering are those of _slotwise(C, C), and its
    basis holds the pairs of basis keys, the second slot varying fastest.
    """
    pair = REGISTRY.pair
    basis = tuple(pair(k1, k2) for k1 in C.basis for k2 in C.basis)
    return _slotwise(C, C)._replace(basis=basis)


def _require_comul(H: Carrier):
    if H.comul is None:
        raise ValueError(f"carrier {H.name} has no comultiplication")


# -- sweep shapes ------------------------------------------------------
# The sides each shape compares are packed elements.


def _square(C, f, g, h, k, render) -> CheckReport:
    """f o g = h o k on the basis of C: a square of linear maps commutes."""
    return sweep([axis(C)], lambda x: linear(f, g(x)), lambda x: linear(h, k(x)), render)


def _rho_commutes(s) -> CheckReport:
    """alpha_M(h m) = alpha_H(h) alpha_M(m) on basis pairs, M = s.A: the
    first half of the module axiom, alpha carries rho.
    """
    rho, alpha_H, alpha_M = s.rho, s.H.alpha, s.A.alpha
    return sweep(
        [axis(s.H), axis(s.A)],
        lambda h, m: linear(alpha_M, rho(h, m)),
        lambda h, m: bilinear(rho, alpha_H(h), alpha_M(m)),
        renderer(s.A),
    )


def _action_associativity(s) -> CheckReport:
    """alpha_H(a)(b m) = (a b) alpha_M(m) on basis triples (Eq. 2.1'), M = s.A:
    the second half of the module axiom, Hom-associativity of the action.
    """
    rho, H, M = s.rho, s.H, s.A
    return sweep(
        [axis(H), axis(H), axis(M)],
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
    return _rho_commutes(regular(A))


def check_hom_associativity(A: Carrier) -> CheckReport:
    """mu(alpha(a), mu(b, c)) = mu(mu(a, b), alpha(c)) on basis triples."""
    return _action_associativity(regular(A))


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
        H, t_map(comul, alpha), comul, reassociated, comul, renderer(_slotwise(_slotwise(H, H), H))
    )


def check_comul_morphism(H: Carrier) -> CheckReport:
    """Delta is a morphism of Hom-associative algebras (Eqs. 2.4 and 2.5).

    Eq. (2.5) compares Delta(xy) with Delta(x)Delta(y) =
    sum x'y' x x''y'', mu^2 o (Id x tau x Id) o Delta^2, on basis pairs.
    No carrier holds that slotwise product: the right side reads the terms
    of Delta(x) and Delta(y) from split_coproduct, mul(x', y') and
    mul(x'', y'') for each pair of them, and accumulates their outer product
    into key pair ids in one loop, as bilinear does.
    """
    _require_comul(H)
    # alpha and the rendering of H x H, not its basis
    mul, comul, T = H.mul, H.comul, _slotwise(H, H)
    split, pair_ids = split_coproduct(comul), REGISTRY.pair_ids
    report = _square(H, comul, H.alpha, T.alpha, comul, renderer(T))

    def rhs(kx, ky):
        out = {}
        for e1, a1, b1, c1 in split(kx):
            for e2, a2, b2, c2 in split(ky):
                e12, c12 = e1 + e2, c1 * c2
                bs = mul(b1, b2)
                for pa, ca in mul(a1, a2):
                    ka = pa & _MASK
                    ea, ca = pa - ka + e12, ca * c12
                    ka <<= _SHIFT
                    for pb, cb in bs:
                        kb = pb & _MASK
                        p = ea + pb - kb + pair_ids[ka | kb]
                        c = ca * cb
                        if p in out:
                            c += out[p]
                            if not c:
                                del out[p]
                                continue
                        out[p] = c
        return out

    return report.merge(
        sweep([axis(H)] * 2, lambda kx, ky: linear(comul, mul(kx, ky)), rhs, renderer(T))
    )


def check_hom_bialgebra(H: Carrier) -> CheckReport:
    """All four Hom-bialgebra conditions in one merged report."""
    report = check_multiplicativity(H).merge(check_hom_associativity(H))
    return report.merge(check_hom_coassociativity(H)).merge(check_comul_morphism(H))


# -- module checkers ---------------------------------------------------


def check_module_axiom(s: ModuleAlgebraScenario) -> CheckReport:
    """rho is a Hom-module morphism and satisfies the module axiom.

    Checks alpha_M(a m) = alpha(a) alpha_M(m) on pairs and
    alpha(a)(b m) = (a b) alpha_M(m) on triples (Eq. 2.1'), with M = s.A.
    """
    return _rho_commutes(s).merge(_action_associativity(s))


def check_compatibility(r: Scenario) -> CheckReport:
    """beta_A(x a) = beta_H(x) beta_A(a) on the basis of r.module.H.

    It reads (r.module, r.beta_H, r.beta_A): the first sweep of the module
    axiom with the twisting maps in place of the structure maps.  This is
    Eq. (1.7) on the H basis; the basis holds the generators, so it is also
    Eq. (4.2), the condition on generators.
    """
    s = r.module
    return _rho_commutes(
        s._replace(H=s.H._replace(alpha=r.beta_H), A=s.A._replace(alpha=r.beta_A))
    )


def build_rho_tilde(
    s: ModuleAlgebraScenario, alpha_power: int = 2
) -> ModuleAlgebraScenario:
    """The auxiliary module structure rho-tilde = rho o (alpha_H^2 x Id).

    alpha_H^2(h) is computed once per h, and rho-tilde(h, a) once per (h, a).
    alpha_power exists only for the negative control, which sweeps alpha_H
    in place of alpha_H^2.
    """
    rho, alpha = s.rho, s.H.alpha

    @cache
    def lifted(h):
        xs = basis_terms(h)
        for _ in range(alpha_power):
            xs = terms(linear(alpha, xs))
        return xs

    return s._replace(rho=cache(lambda h, a: terms(bilinear(rho, lifted(h), basis_terms(a)))))


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
        H=s.H, A=tensor(s.A)._replace(name=f"{s.A.name} tensor square"), rho=rho2
    )


def check_module_hom_algebra(s: ModuleAlgebraScenario, alpha_power: int = 2) -> CheckReport:
    """The module Hom-algebra axiom: alpha_H^2(x)(ab) = sum (x'a)(x''b).

    On basis triples (x, a, b) it compares rho-tilde(x, ab), with rho-tilde of
    build_rho_tilde, and sum mu_A(rho(x', a), rho(x'', b)): mu_A o rho^2 with
    rho^2 of build_rho2, summed without building the tensor terms of A x A.
    row(x, a) holds the terms of (rho(., a) x Id)Delta(x), once per (x, a),
    read from split_coproduct as (packed A term with the exponent of its
    Delta term added, x'' id, coefficient); the right side runs each through
    rho(x'', b) and the mu_A table in one loop, which accumulates as
    bilinear does.
    """
    _require_comul(s.H)
    tilde = build_rho_tilde(s, alpha_power).rho
    rho, mul, split = s.rho, s.A.mul, split_coproduct(s.H.comul)

    @cache
    def row(kx, ka):
        out = []
        for e, h1, h2, c in split(kx):
            out += [(pa + e, h2, ca * c) for pa, ca in rho(h1, ka)]
        return out

    def rhs(kx, ka, kb):
        out = {}
        for p1, h2, c1 in row(kx, ka):
            k1 = p1 & _MASK
            p1 -= k1
            for p2, c2 in rho(h2, kb):
                k2 = p2 & _MASK
                e12, c12 = p1 + p2 - k2, c1 * c2
                for p, c in mul(k1, k2):
                    p += e12
                    c *= c12
                    if p in out:
                        c += out[p]
                        if not c:
                            del out[p]
                            continue
                    out[p] = c
        return out

    return sweep(
        [axis(s.H), axis(s.A), axis(s.A)],
        lambda kx, ka, kb: bilinear(tilde, basis_terms(kx), mul(ka, kb)),
        rhs,
        renderer(s.A),
    )


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


def commutator(A: Carrier) -> Carrier:
    """A with the commutator [a, b] = mu(a, b) - mu(b, a) as its product.

    The bracket is a memo table; skew-symmetry holds by its construction.
    """
    mul = A.mul

    @cache
    def bracket(k1, k2) -> tuple:
        return terms(linear(basis_terms, [*mul(k1, k2), *((p, -c) for p, c in mul(k2, k1))]))

    return A._replace(mul=bracket)


def check_hom_jacobi(A: Carrier) -> CheckReport:
    """The commutator of A is Hom-Lie.

    Checks bracket multiplicativity and the Hom-Jacobi identity; the
    commutator of a Hom-associative algebra passes both (Makhlouf-Silvestrov).
    """
    lie = commutator(A)
    bracket, alpha = lie.mul, A.alpha

    def jacobi(k1, k2, k3):
        cyclic = ((k1, k2, k3), (k3, k1, k2), (k2, k3, k1))
        return linear(
            basis_terms,
            [t for a, b, c in cyclic for t in bilinear(bracket, bracket(a, b), alpha(c)).items()],
        )

    return check_multiplicativity(lie).merge(
        sweep([axis(A)] * 3, jacobi, lambda k1, k2, k3: {}, renderer(A))
    )
