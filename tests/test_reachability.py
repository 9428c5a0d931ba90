"""Every function src/homtwist defines is entered by some command.

The guard runs the commands the other tests pin (the golden commands, the
benchmark's workload commands and the bad inputs) and act inputs whose terms
merge or cancel, in process through cli.main under sys.setprofile, and
records each function entered.  A module- or class-level def that none of
them enters fails the test unless ALLOWED names it with a reason, and so
does an ALLOWED name that a command does enter: the list cannot go stale.
The defs are those of test_imports.definitions.

The commands run in a fresh interpreter, this file run as a script, with
the profile set before homtwist is imported: the memo tables that other
tests fill in this process would hide the kernels that fill them, and
importing is part of every run.
"""

import ast
import contextlib
import importlib
import json
import os
import subprocess
import sys

from test_imports import SRC, definitions

# the qualified name of a def -> why no command enters it
ALLOWED = {
    # what a failing assert on .terms dicts prints
    "scalars.QLaurent.__repr__": "test-side arithmetic: a failing .terms assert prints it",
    # names that the benchmark or test_bench_hooks pin
    "homcore.check_mu_module_morphism": "a traced span of perfbench/tracer.py",
    "finalg.build_example31": "a traced span of perfbench/tracer.py and setup_probe.py",
    # references that the fused sweeps are tested against
    "homcore.tensor": "the tensor carrier that build_rho2 and its tests read",
    "homcore.build_rho2": "rho^2 on A x A, the reference of the fused module sweep",
    # the process entry point: the commands here run through cli.main
    "cli.run": "the entry point of a process; it calls main, then freezes the heap",
    # error and failure paths that no well-formed input takes
    "cli._discard": "removes a partial report when an error ends a run mid-sweep",
    "finalg._render_group_elem": "renders a k[G] side, which only a failing case has",
    # the immutability guards
    "scalars.QLaurent.__setattr__": "refuses an assignment, which no command makes",
    "scalars.MonomialElem.__setattr__": "refuses an assignment, which no command makes",
}

# act inputs beyond the golden and bad ones: terms that merge and cancel
ACT_INPUTS = [
    ["act", "X + X", "x - x"],
    ["act", "2*X - X", "x + y - x"],
]


def entered_by(call) -> set:
    """The (file, first line) of every function that call() enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def functions(paths) -> dict:
    """(file, first line) -> qualified name of each module- and class-level
    def of the source files paths; a decorated def starts at its decorator.
    """
    out = {}
    for path in paths:
        owner = {}
        for name, node in definitions(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                owner.update(dict.fromkeys(node.body, f"{name}."))
            elif isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[str(path), first] = f"{path.stem}.{owner.get(node, '')}{name}"
    return out


def unreached(defined: dict, entered, allowed) -> tuple:
    """(the defs no command entered that allowed does not name, the names of
    allowed that a command entered or that name no def)
    """
    entered = set(map(tuple, entered))
    missed = {name for where, name in defined.items() if where not in entered}
    return sorted(missed - set(allowed)), sorted(set(allowed) - missed)


def commands(folder) -> list:
    """(argv, exit code) of every command the guard runs; files go in folder."""
    # imported here: run as a script, this file imports homtwist only once
    # the profile is set
    import test_cli
    import test_golden
    from workloads import WORKLOADS  # test_golden puts perfbench on the path

    scenario, report = folder / "finalg_m3.json", str(folder / "report.json")
    scenario.write_text(json.dumps(test_golden.finalg_gen.generate(1, 3)))
    out = [
        (argv + (["--report", report] if with_report else []), code)
        for _, argv, code, with_report in test_golden.GOLDEN
    ]
    out += [
        (WORKLOADS[name].verify_argv(str(scenario), report), WORKLOADS[name].exit_code)
        for name in ("hopf-h3", "negctl-q33", "finalg-m3")
    ]
    paths = test_cli.bad_input_paths(folder)
    out += [([arg.format(**paths) for arg in argv], 2) for _, argv in test_cli.BAD_INPUTS]
    return out + [(argv, 0) for argv in ACT_INPUTS]


def main():
    """Run the argv lists of stdin through cli.main, homtwist imported under
    the profile, and print their exit codes and the functions entered as JSON.
    """
    argvs, codes = json.load(sys.stdin), []

    def run():
        from homtwist import cli

        with open(os.devnull, "w") as null:
            with contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
                codes.extend(cli.main(argv) for argv in argvs)

    entered = entered_by(run)
    json.dump({"codes": codes, "entered": sorted(entered)}, sys.stdout)


def test_every_definition_is_entered(tmp_path):
    argvs, codes = zip(*commands(tmp_path))
    done = subprocess.run(
        [sys.executable, __file__],
        input=json.dumps(argvs),
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["codes"] == list(codes)
    defined = functions(sorted(SRC.glob("*.py")))
    assert unreached(defined, probe["entered"], ALLOWED) == ([], [])
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_guard_sees_an_unreached_definition_and_a_stale_entry(monkeypatch, tmp_path):
    planted = tmp_path / "planted_reach.py"
    planted.write_text(
        "from functools import cache\n\n"
        "def used():\n    return memo()\n\n"
        "@cache\ndef memo():\n    return 1\n\n"
        "@cache\ndef lost():\n    return 2\n\n"
        "class Box:\n    def kept(self):\n        return used()\n"
        "    def __len__(self):\n        return 0\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "planted_reach", raising=False)
    entered = entered_by(lambda: importlib.import_module("planted_reach").Box().kept())
    allowed = {"planted_reach.Box.__len__": "never sized", "planted_reach.used": "stale"}
    assert unreached(functions([planted]), entered, allowed) == (
        ["planted_reach.lost"], ["planted_reach.used"],
    )


if __name__ == "__main__":
    main()
