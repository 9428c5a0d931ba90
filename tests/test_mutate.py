"""tools/mutate.py's EQUIVALENT list names only mutants of today's src.

A full mutation run checks that each listed survivor still survives, but it
runs Tier-1 once per mutant.  This check only generates the mutants, by the
ast module, and fails on an entry that no generator makes any more: the
def is gone, or the change no longer appears in it.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def unmade(names) -> list:
    """The names, as mutate prints them, that no mutant of their module has."""
    made = {}
    for module in {name.partition(".")[0] for name in names}:
        path = ROOT / mutate.SRC / f"{module}.py"
        made[module] = {n for n, _ in mutate.mutants(module)} if path.exists() else set()
    return sorted(name for name in names if name not in made[name.partition(".")[0]])


def test_every_equivalent_entry_names_a_mutant():
    assert unmade(mutate.EQUIVALENT) == []
    assert all(reason.strip() for reason in mutate.EQUIVALENT.values())


def test_stale_names_are_seen():
    live = next(iter(mutate.EQUIVALENT))
    stale = [
        "homcore.tensor: _slotwise(C1, C2) -> _slotwise(C2, C1)",  # tensor takes one carrier
        "homcore.no_such_def: 1 -> 2",
        "no_such_module.f: 1 -> 2",
    ]
    assert unmade([live, *stale]) == sorted(stale)


def test_a_class_target_mutates_each_of_its_methods():
    names = [name for name, _ in mutate.mutants("scalars", {"MonomialElem"})]
    methods = {name.split(": ", 1)[0].rpartition(".")[2] for name in names}
    # __init__ only binds its arguments, so no mutant comes from it
    assert methods == {"basis_keys", "render_key", "render", "parse", "_parse_term"}
    one_by_one = mutate.mutants("scalars", {f"MonomialElem.{method}" for method in methods})
    assert names == [name for name, _ in one_by_one]
    assert mutate._in_scope(names[0], {"scalars": {"MonomialElem"}})
    assert not mutate._in_scope(names[0], {"scalars": {"Monomial"}})
    with pytest.raises(SystemExit, match="is not a def"):
        list(mutate.mutants("scalars", {"NoSuchClass"}))


def test_an_assignment_target_mutates_its_value():
    made = dict(mutate.mutants("cli", {"SUITES"}))
    # the power of the module Hom-algebra suites, and the lambda bodies
    assert "    **_module_hom_suites((3)),\n" in made["cli.SUITES: 2 -> 3"]
    assert any("homcore.check_compatibility(r), 'compatibility'" in name for name in made)
    # a whole-module target includes them
    assert set(made) <= {name for name, _ in mutate.mutants("cli")}
