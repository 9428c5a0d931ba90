"""Every statement of every function src/homtwist defines runs in some command.

The guard runs the commands the other tests pin (the golden commands, the
benchmark's workload commands and the bad inputs) and the inputs below, in
process through cli.main under sys.settrace, and records each line of src
that runs.  The statements of a module- or class-level def are those of its
body, nested defs and lambdas included, docstrings left out.  A statement
runs when a line of it does; a compound statement counts by its header
lines, so an if whose body no command reaches has still run.  A def none of
whose statements runs fails the test, and so does each unrun statement of a
def that runs, unless ALLOWED names it with a reason: a whole def as
"module.qualname", one statement as "module.qualname: <its first source
line>".  An ALLOWED name that names nothing unrun fails too: the list cannot
go stale.  The defs are those of test_imports.definitions.

The commands run in a fresh interpreter, this file run as a script, with
the trace set before homtwist is imported: the memo tables that other tests
fill in this process would hide the kernels that fill them, and importing is
part of every run.
"""

import ast
import contextlib
import importlib
import json
import os
import subprocess
import sys

from test_imports import SRC, definitions

# what no command runs -> why: a def as "module.qualname", a statement as
# "module.qualname: <its first source line>"
ALLOWED = {
    # what a failing assert on .terms dicts prints
    "scalars.QLaurent.__repr__": "test-side arithmetic: a failing .terms assert prints it",
    # names that the benchmark or test_bench_hooks pin
    "finalg.build_example31": "a traced span of perfbench/tracer.py and setup_probe.py",
    # the process entry point: the commands here run through cli.main
    "cli.run": "the entry point of a process: main without the cyclic collector, then "
    "os._exit, or exit 2 where stdout cannot be written",
    # error and failure paths that no well-formed input takes
    "cli._discard": "removes a partial report when an error ends a run mid-sweep",
    "finalg._render_group_elem": "renders a k[G] side, which only a failing case has",
    "homcore.render_tensor: return \"0\"":
        "no coproduct of a basis element is 0; only a failing case renders another tensor",
    # the immutability guard
    "scalars.QLaurent.__setattr__": "refuses an assignment, which no command makes",
    # an error mid-sweep: the key registry fills only at bounds whose sweeps
    # do not finish, since reserve refuses an oversized basis first
    "homcore.KeyRegistry._new_id: "
    'raise OverflowError(f"key registry is full at {self.capacity} keys")':
        "a registry that fills mid-run",
    "cli.cmd_verify: _discard(fh, args.report)": "an error that ends a run mid-sweep",
    "cli.cmd_verify: raise": "an error that ends a run mid-sweep",
    # defense behind a check that the command line makes first
    "scalars.QLaurent.specialize: "
    'raise ValueError("cannot specialize at q = 0: negative exponents undefined")':
        "act refuses --q-value 0 first",
    'scalars.MonomialElem.basis_keys: raise ValueError("degree bound must be non-negative")':
        "twist refuses a negative --bound and verify a bound below 1 first",
    "finalg.struct_algebra: "
    'raise ValueError("unit vector has an index out of range")':
        "the loader reads the unit as a vector of exactly dim coefficients",
    "scalars._as_rational: "
    'raise TypeError(f"cannot interpret {value!r} as a rational")':
        "every constructor call passes an int or a Fraction",
    # the operator protocol: Python then refuses an operand of another type
    "scalars.QLaurent.__add__: return NotImplemented": "every operand is a QLaurent",
    "scalars.QLaurent.__mul__: return NotImplemented": "every operand is a number or a QLaurent",
    "scalars.QLaurent.__eq__: return NotImplemented": "every operand is a QLaurent",
    # internal invariants
    'uea.left_gen: raise ValueError(f"unknown generator {gen!r}")':
        "split_first yields X, Y or Z",
    # the beta_H images of actions.SL2_Q, the one pair a command reads, form a
    # Lie endomorphism; item 25 of ROADMAP.md will let a scenario file give others
    "actions.extend_lie_endo: "
    'raise ValueError(f"image of {gen} must lie in span{{X, Y, Z}}: {UElem.render(image)}")':
        "the images of alpha_U lie in span{X, Y, Z}",
    "actions.extend_lie_endo: "
    'bad = ", ".join(f"({\', \'.join(ce.rendered_inputs)})" for ce in report.counterexamples)':
        "alpha_U is a Lie endomorphism",
    "actions.extend_lie_endo: "
    'raise ValueError(f"not a Lie algebra endomorphism; fails on pairs {bad}")':
        "alpha_U is a Lie endomorphism",
}

# act inputs beyond the golden and bad ones: terms that merge and cancel,
# parenthesized coefficients, and an integral Fraction, which add_term folds
ACT_INPUTS = [
    ["act", "X + X", "x - x"],
    ["act", "2*X - X", "x + y - x"],
    ["act", "(q + 1)*X", "(2)*y"],
    ["act", "4/2*X", "y"],
]


def ran_lines(call, folder) -> set:
    """The (file, line) of every line of a file in folder that call() runs."""
    ran, folder = set(), str(folder)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(folder) else None

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return ran


def _lines(node) -> range:
    """The lines a trace shows when the statement node runs: all of a simple
    statement's, a compound statement's header from its first decorator.
    """
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = max(first, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno
    return range(first, last + 1)


def statements(paths) -> dict:
    """The qualified name of each module- and class-level def of the source
    files paths -> its statements, as (first source line, {(file, line)} a
    trace may show of it).
    """
    out = {}
    for path in paths:
        source, owner = path.read_text(), {}
        for name, node in definitions(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                owner.update(dict.fromkeys(node.body, f"{name}."))
            elif isinstance(node, ast.FunctionDef):
                docs = {
                    id(f.body[0]) for f in ast.walk(node)
                    if isinstance(f, (ast.FunctionDef, ast.ClassDef)) and ast.get_docstring(f)
                }
                out[f"{path.stem}.{owner.get(node, '')}{name}"] = [
                    (
                        ast.get_source_segment(source, stmt).splitlines()[0],
                        {(str(path), line) for line in _lines(stmt)},
                    )
                    for stmt in ast.walk(node)
                    if isinstance(stmt, ast.stmt) and stmt is not node and id(stmt) not in docs
                ]
    return out


def unrun(defined: dict, ran, allowed) -> tuple:
    """(what no line of ran runs that allowed does not name, the names of
    allowed that name nothing unrun); what is unrun is a def none of whose
    statements runs, and each unrun statement of a def that runs.
    """
    ran, missed = set(map(tuple, ran)), set()
    for name, stmts in defined.items():
        lost = [f"{name}: {text}" for text, lines in stmts if not lines & ran]
        missed.update([name] if len(lost) == len(stmts) else lost)
    return sorted(missed - set(allowed)), sorted(set(allowed) - missed)


def commands(folder) -> list:
    """(argv, exit code) of every command the guard runs; files go in folder."""
    # imported here: run as a script, this file imports homtwist only once
    # the trace is set
    import test_cli
    import test_golden
    from workloads import WORKLOADS  # test_golden puts perfbench on the path

    scenario, report = folder / "finalg_m3.json", str(folder / "report.json")
    scenario.write_text(test_golden.finalg_text(1, 3))
    out = [
        (argv + (["--report", report] if with_report else []), code)
        for _, argv, code, with_report in test_golden.GOLDEN
    ]
    out += [
        (WORKLOADS[name].verify_argv(str(scenario), report), WORKLOADS[name].exit_code)
        for name in ("hopf-h3", "negctl-q33", "finalg-m3")
    ]
    paths = test_cli.scenario_paths(folder)
    out += [([arg.format(**paths) for arg in argv], 2) for argv in test_cli.BAD_INPUTS]
    out += [(["verify", "finalg", "--file", paths[name]], 0) for name in test_cli.GOOD_SCENARIOS]
    return out + [(argv, 0) for argv in ACT_INPUTS]


def main():
    """Run the argv lists of stdin through cli.main, homtwist imported under
    the trace, and print their exit codes and the lines of src run as JSON.
    """
    argvs, codes = json.load(sys.stdin), []

    def run():
        from homtwist import cli

        with open(os.devnull, "w") as null:
            with contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
                codes.extend(cli.main(argv) for argv in argvs)

    ran = ran_lines(run, SRC)
    json.dump({"codes": codes, "ran": sorted(ran)}, sys.stdout)


def test_every_statement_runs(tmp_path):
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
    defined = statements(sorted(SRC.glob("*.py")))
    assert unrun(defined, probe["ran"], ALLOWED) == ([], [])
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_guard_sees_unrun_code_and_stale_entries(monkeypatch, tmp_path):
    planted = tmp_path / "planted_reach.py"
    planted.write_text(
        "from functools import cache\n\n"
        "def used(n=1):\n"
        '    """A docstring runs no line."""\n'
        "    if n < 0:\n        raise ValueError(n)\n"
        "    if n > 9:\n        n = 9\n"
        "    return memo()\n\n"
        "@cache\ndef memo():\n    return 1\n\n"
        "@cache\ndef lost():\n    return 2\n\n"
        "class Box:\n    def kept(self):\n        return used()\n"
        "    def __len__(self):\n        return 0\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "planted_reach", raising=False)
    ran = ran_lines(lambda: importlib.import_module("planted_reach").Box().kept(), tmp_path)
    allowed = {
        "planted_reach.Box.__len__": "never sized",
        "planted_reach.used: raise ValueError(n)": "no caller passes a negative n",
        "planted_reach.memo": "stale: kept runs it",
        "planted_reach.used: return memo()": "stale: the statement runs",
    }
    assert unrun(statements([planted]), ran, allowed) == (
        ["planted_reach.lost", "planted_reach.used: n = 9"],
        ["planted_reach.memo", "planted_reach.used: return memo()"],
    )


if __name__ == "__main__":
    main()
