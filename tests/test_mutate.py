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
    names = [name for name, _ in mutate.mutants("finalg", {"GroupBialgebra"})]
    methods = {name.split(": ", 1)[0] for name in names}
    assert methods == {"finalg.GroupBialgebra.__init__", "finalg.GroupBialgebra.carrier"}
    one_by_one = mutate.mutants("finalg", {"GroupBialgebra.__init__", "GroupBialgebra.carrier"})
    assert names == [name for name, _ in one_by_one]
    assert mutate._in_scope(names[0], {"finalg": {"GroupBialgebra"}})
    assert not mutate._in_scope(names[0], {"finalg": {"Group"}})
    with pytest.raises(SystemExit, match="is not a def"):
        list(mutate.mutants("finalg", {"NoSuchClass"}))
