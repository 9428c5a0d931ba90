"""Per-layer tracer for the traced benchmark run.

    python3 perfbench/tracer.py TRACE_JSON -- verify sl2-q ...

Runs `homtwist <args>` in this fresh interpreter with the public functions of
every homtwist module wrapped from outside; nothing under src/ changes.  Each
wrapper is a span: it keeps a stack of open spans so that a layer's self time
is its spans' time minus their children's.  Hot spans (scalar and element
arithmetic) are aggregated per name in memory; coarse spans (checkers, scenario
construction, cli.main) are kept individually with their parent.  Everything
is written to TRACE_JSON when the command has finished, together with the
lru_cache statistics of the PBW engine.

Trivial predicates (__bool__, __hash__) are not wrapped, and QLaurent.__init__
is only counted: they run millions of times, so a span around each would
mostly measure the tracer.  Their time counts to the enclosing span, which for
__init__ is nearly always a scalar operation or constructor.
"""

from __future__ import annotations

import json
import os
import sys
import time

LAYERS = ("scalars", "polyalg", "uea", "actions", "homcore", "report", "finalg", "cli")

# Coarse spans: recorded one by one with their parent span.
COARSE = {
    "homcore.check_multiplicativity",
    "homcore.check_hom_associativity",
    "homcore.check_hom_coassociativity",
    "homcore.check_comul_morphism",
    "homcore.check_hom_bialgebra",
    "homcore.check_module_axiom",
    "homcore.check_module_hom_algebra",
    "homcore.check_mu_module_morphism",
    "homcore.check_hom_jacobi",
    "actions.deformed_scenario",
    "actions.alpha_u_handle",
    "finalg.load_scenario",
    "finalg.build_example31",
    "cli.main",
    "cli.cmd_verify",
}

# (module, class or None, attribute names, layer, span name or None).
# A span name of None means "<layer>.<class>.<attribute>", or
# "<layer>.<attribute>" for a module function.  Rendering of elements and
# counterexamples belongs to the report layer wherever the method lives.
_RENDER = ("__str__",)
TARGETS = (
    ("scalars", "QLaurent", ("__init__",), "scalars", "scalars.new"),
    ("scalars", "QLaurent", ("__add__", "__radd__"), "scalars", "scalars.add"),
    ("scalars", "QLaurent", ("__mul__", "__rmul__"), "scalars", "scalars.mul"),
    ("scalars", "QLaurent", ("__sub__", "__rsub__", "__neg__", "__pow__", "__eq__",
                             "zero", "one", "of", "q_power", "specialize", "parse"),
     "scalars", None),
    ("scalars", None, ("split_sum",), "scalars", None),
    ("scalars", "QLaurent", _RENDER, "report", "report.render"),
    ("polyalg", "Poly", ("__add__",), "polyalg", "polyalg.add"),
    ("polyalg", "Poly", ("__mul__",), "polyalg", "polyalg.mul"),
    ("polyalg", "Poly", ("__init__", "__sub__", "__neg__", "__rmul__", "scaled",
                         "__pow__", "__eq__", "partial", "graded_component",
                         "total_degree", "zero", "one", "monomial", "x", "y", "parse"),
     "polyalg", None),
    ("polyalg", "Poly", _RENDER, "report", "report.render"),
    ("polyalg", "PolyEndo", ("__call__",), "polyalg", "polyalg.endo"),
    ("polyalg", "PolyEndo", ("__init__", "compose", "identity", "diagonal"), "polyalg", None),
    ("polyalg", None, ("enumerate_monomials",), "polyalg", None),
    ("uea", "UElem", ("__mul__",), "uea", "uea.mul"),
    ("uea", "UElem", ("__init__", "__add__", "__neg__", "__sub__", "__rmul__", "scaled",
                      "__pow__", "__eq__", "commutator", "lie_components", "zero",
                      "one", "monomial", "generator", "parse"), "uea", None),
    ("uea", "UElem", _RENDER, "report", "report.render"),
    ("uea", None, ("comul",), "uea", "uea.comul"),
    ("uea", None, ("tensor_mul", "enumerate_pbw"), "uea", None),
    ("uea", None, ("render_mono",), "report", "report.render"),
    ("uea", "UEndo", ("__init__", "identity", "q_example", "apply_lie",
                      "check_lie_endo", "extend"), "uea", None),
    ("uea", "UAlgebraEndo", ("__call__",), "uea", "uea.endo"),
    ("uea", "UAlgebraEndo", ("__init__",), "uea", None),
    ("report", "CheckReport", ("record",), "report", "report.record"),
    ("report", "CheckReport", ("to_dict",), "report", "report.render"),
    ("report", "Counterexample", ("to_dict",), "report", "report.render"),
    ("homcore", "Carrier", ("eq",), "homcore", None),
    ("homcore", "ModCarrier", ("eq",), "homcore", None),
    ("homcore", "ModuleAlgebraScenario", ("module_carrier",), "homcore", None),
    ("homcore", None, ("t_add", "t_scale", "t_outer", "elem_tensor", "t_apply",
                       "t_expand_slot"), "homcore", "homcore.tensor"),
    ("homcore", None, ("render_tensor",), "report", "report.render"),
    ("homcore", None, ("check_multiplicativity", "check_hom_associativity",
                       "check_hom_coassociativity", "check_comul_morphism",
                       "check_hom_bialgebra", "check_module_axiom",
                       "check_module_hom_algebra", "check_mu_module_morphism",
                       "check_hom_jacobi", "build_rho_tilde", "build_rho2",
                       "yau_twist_algebra", "yau_twist_bialgebra", "deform_scenario",
                       "commutator_bracket", "lie_yau_twist"), "homcore", None),
    ("actions", None, ("act",), "actions", "actions.act"),
    ("actions", None, ("act_generator", "alpha_plane", "alpha_u_handle", "deformed_act",
                       "plane_carrier", "u_carrier", "classical_scenario",
                       "deformed_scenario", "check_classical_module_algebra",
                       "check_action_associativity", "check_alphaWP", "check_alphaza",
                       "weight_spectrum"), "actions", None),
    ("finalg", "StructAlgebra", ("mul",), "finalg", "finalg.struct_mul"),
    ("finalg", "StructAlgebra", ("__init__", "zero", "basis_vector", "add", "scale",
                                 "coords", "inverse"), "finalg", None),
    ("finalg", "StructAlgebra", ("render",), "report", "report.render"),
    ("finalg", "LinOp", ("__call__",), "finalg", "finalg.linop"),
    ("finalg", "LinOp", ("__init__", "identity", "from_images", "compose", "__eq__",
                         "is_algebra_endo", "is_automorphism"), "finalg", None),
    ("finalg", "GroupBialgebra", ("apply",), "finalg", "finalg.group_apply"),
    ("finalg", "GroupBialgebra", ("__init__", "size", "carrier"), "finalg", None),
    ("finalg", None, ("inner_automorphism", "algebra_carrier", "automorphism_action",
                      "build_example31", "m2_algebra", "m2_example", "load_scenario"),
     "finalg", None),
    ("cli", None, ("main", "cmd_verify"), "cli", None),
)

PBW_CACHES = ("_mono_mul", "_left_gen", "_comul_mono")


class Tracer:
    """Span stack plus per-name and per-layer aggregates, all in memory."""

    def __init__(self):
        self.base = time.perf_counter()
        self.children = [0.0]  # per open span: time covered by its child spans
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.stats = {}  # span name -> [calls, inclusive seconds]
        self.spans = []  # coarse spans: [name, parent index, start, end]
        self.open_coarse = [None]
        self.missing = []
        self.nonint = 0
        self.endos = []

    def span(self, fn, layer, name):
        """Wrap fn in a span that charges its self time to layer."""
        stat = self.stats.setdefault(name, [0, 0.0])
        children, self_s, clock = self.children, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = children.pop()
                children[-1] += dt
                self_s[layer] += dt - child
                stat[0] += 1
                stat[1] += dt

        return wrapper

    def count(self, init, name, inspect):
        """Wrap an __init__: count the call and hand the new instance to inspect.

        No span: QLaurent.__init__ runs millions of times, almost always inside
        a scalar operation whose span already covers it.
        """
        stat = self.stats.setdefault(name, [0, 0.0])

        def wrapper(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            stat[0] += 1
            inspect(instance)

        return wrapper

    def record(self, fn, name):
        """Keep every call of fn as its own span, with its parent span."""
        spans, open_coarse, clock, base = self.spans, self.open_coarse, time.perf_counter, self.base

        def wrapper(*args, **kwargs):
            entry = [name, open_coarse[-1], clock() - base, None]
            open_coarse.append(len(spans))
            spans.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                open_coarse.pop()
                entry[3] = clock() - base

        return wrapper

    def install(self, modules):
        """Wrap every target of these modules; missing ones are listed in the trace."""
        for mod_name, cls_name, attrs, layer, span in TARGETS:
            if mod_name not in modules:
                continue
            module = modules[mod_name]
            owner = getattr(module, cls_name, None) if cls_name else module
            for attr in attrs:
                name = span or ".".join(filter(None, (layer, cls_name, attr)))
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                    continue
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                if (cls_name, attr) == ("QLaurent", "__init__"):
                    fn = self.count(fn, name, self._count_nonint)
                else:
                    if (cls_name, attr) == ("UAlgebraEndo", "__init__"):
                        fn = self.count(fn, "uea.endo.instances", self.endos.append)
                    fn = self.span(fn, layer, name)
                if name in COARSE:
                    fn = self.record(fn, name)
                setattr(owner, attr, classmethod(fn) if is_classmethod else fn)

    def _count_nonint(self, value):
        for coeff in value.terms.values():
            if getattr(coeff, "denominator", 1) != 1:
                self.nonint += 1
                return

    def to_dict(self, uea_module):
        caches = {}
        for name in PBW_CACHES:
            fn = getattr(uea_module, name, None)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                caches[name] = {"hits": info.hits, "misses": info.misses,
                                "size": info.currsize}
        return {
            "self_s": self.self_s,
            "stats": self.stats,
            "nonint": self.nonint,
            "endo_cache_size": sum(len(getattr(e, "_cache", ())) for e in self.endos),
            "caches": caches,
            "spans": self.spans,
            "missing": self.missing,
        }


def _share(part, whole):
    return part / whole if whole else 0.0


CHECKERS = (
    "check_multiplicativity",
    "check_hom_associativity",
    "check_hom_coassociativity",
    "check_comul_morphism",
    "check_hom_bialgebra",
    "check_module_axiom",
    "check_module_hom_algebra",
    "check_mu_module_morphism",
)


def layer_metrics(trace):
    """Per-layer metric values (name -> value) from one trace document."""

    def calls(name):
        return trace["stats"].get(name, [0, 0.0])[0]

    def incl(name):
        return trace["stats"].get(name, [0, 0.0])[1]

    def hit_rate(cache):
        info = trace["caches"].get(cache)
        return _share(info["hits"], info["hits"] + info["misses"]) if info else 0.0

    self_s = trace["self_s"]
    metrics = {
        "scalars.add.calls": calls("scalars.add"),
        "scalars.mul.calls": calls("scalars.mul"),
        "scalars.new.calls": calls("scalars.new"),
        "scalars.self_s": self_s["scalars"],
        "scalars.nonint_share": _share(trace["nonint"], calls("scalars.new")),
        "polyalg.mul.calls": calls("polyalg.mul"),
        "polyalg.add.calls": calls("polyalg.add"),
        "polyalg.endo.calls": calls("polyalg.endo"),
        "polyalg.self_s": self_s["polyalg"],
        "uea.mul.calls": calls("uea.mul"),
        "uea.comul.calls": calls("uea.comul"),
        "uea.endo.calls": calls("uea.endo"),
        "uea.self_s": self_s["uea"],
        "uea.mono_mul.hit_rate": hit_rate("_mono_mul"),
        "uea.left_gen.hit_rate": hit_rate("_left_gen"),
        "uea.comul_mono.hit_rate": hit_rate("_comul_mono"),
        "uea.endo_cache.size": trace["endo_cache_size"],
        "actions.act.calls": calls("actions.act"),
        "actions.self_s": self_s["actions"],
        "homcore.self_s": self_s["homcore"],
        "homcore.tensor.calls": calls("homcore.tensor"),
    }
    for checker in CHECKERS:
        metrics[f"homcore.{checker}.s"] = incl(f"homcore.{checker}")
    metrics.update({
        "report.record.calls": calls("report.record"),
        "report.render_s": self_s["report"],
        "finalg.struct_mul.calls": calls("finalg.struct_mul"),
        "finalg.linop.calls": calls("finalg.linop"),
        "finalg.group_apply.calls": calls("finalg.group_apply"),
        "finalg.self_s": self_s["finalg"],
        "finalg.load_s": incl("finalg.load_scenario"),
        "finalg.build_s": incl("finalg.build_example31"),
        "cli.main_s": incl("cli.main"),
    })
    return metrics


def main(argv):
    trace_path, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON -- homtwist-args...")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import homtwist  # noqa: F401  (loads scalars, polyalg, uea, report, homcore)
    from homtwist import homcore, polyalg, report, scalars, uea

    tracer = Tracer()
    modules = {"scalars": scalars, "polyalg": polyalg, "uea": uea,
               "report": report, "homcore": homcore}
    tracer.install(modules)
    # Imported after the wrapping so that names they import by value are the
    # wrapped ones.
    from homtwist import actions, finalg
    tracer.install({"actions": actions, "finalg": finalg})
    from homtwist import cli
    tracer.install({"cli": cli})

    for name in PBW_CACHES:
        fn = getattr(uea, name, None)
        if fn is not None and fn.cache_info().currsize:
            raise RuntimeError(f"uea.{name} is not empty at the start of the traced run")

    code = cli.main(command)
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump(tracer.to_dict(uea), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
