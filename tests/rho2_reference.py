"""The tensor-square references that the fused module Hom-algebra sweep is
tested against.

homcore.check_module_hom_algebra sums its right side mu_A o rho^2 through
Delta(x) without building a term of A x A.  build_rho2 builds rho^2 on the
tensor square itself, and t_contract applies mu_A, or any bilinear table, to
its 2-tensor terms, so the two sides can be compared case by case.  Both
read homcore's tables on ids; no command runs them.
"""

from homtwist.homcore import REGISTRY, ModuleAlgebraScenario, linear, t_map, tensor, terms


def t_contract(table, xs) -> dict:
    """A bilinear map, given by its table, applied to the 2-tensor terms xs:
    linear over the key-pair table t -> table(*slots(t)).
    """
    slots = REGISTRY.slots
    return linear(lambda t: table(*slots(t)), xs)


def build_rho2(s: ModuleAlgebraScenario) -> ModuleAlgebraScenario:
    """The diagonal module structure rho^2 on the tensor square A x A.

    rho^2(x, a x b) = sum rho(x', a) x rho(x'', b) is Delta(x) through the
    key-pair map t_map(rho(., a), rho(., b)); it is not memoized, since a
    sweep meets each (x, a x b) once.  mu_A of it,
    t_contract(s.A.mul, rho^2(x, a x b)), is the right side that
    check_module_hom_algebra computes without the tensor terms.
    """
    rho, comul, slots, pair = s.rho, s.H.comul, REGISTRY.slots, REGISTRY.pair

    def rho2(h, t):
        a, b = slots(t)
        return terms(linear(t_map(lambda h1: rho(h1, a), lambda h2: rho(h2, b)), comul(h)))

    # the pairs of basis keys, the second slot varying fastest
    basis = tuple(pair(k1, k2) for k1 in s.A.basis for k2 in s.A.basis)
    A2 = tensor(s.A)._replace(name=f"{s.A.name} tensor square", basis=basis)
    return s._replace(A=A2, rho=rho2)
