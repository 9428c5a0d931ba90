"""Mutation check: does Tier-1 fail on each small change to a src function?

Usage, from the root of a checkout:

    python3 tools/mutate.py homcore.split_coproduct actions.pbw_mul ...
    python3 tools/mutate.py homcore            # every def of a module
    python3 tools/mutate.py --list homcore     # name the mutants, run nothing

A target is "module" (every def and module-level assignment of
src/homtwist/<module>.py) or "module.qualname": one def, its nested defs
and lambdas included; one class, every method of it included; or one
module-level assignment to a name, such as cli.SUITES, every expression of
its value included, lambda bodies too.  Each mutant is one of these
changes, made with the stdlib ast module:

- an arithmetic or bit operator swapped (+ and -, << and >>, & and |, ...);
- a comparison flipped (== and !=, < and >=, in and not in, ...);
- a small int constant raised by 1;
- a continue or del statement replaced by pass;
- a not dropped;
- the first two positional arguments of a call swapped, when they differ;
- a string constant that is an element, key or value of a dict, list or
  tuple literal assigned at module level loses its last character, such as
  a text of actions.SL2_Q or an option name of cli.VERIFY_OPTIONS (a string
  inside a lambda, a call or an f-string is left as it is).

The tree is never written: src, tests, perfbench and tools, with the
top-level files that Tier-1 reads, are copied to a scratch folder
(--scratch, or a new temporary one), and each mutant is written into the
copy, run and undone there.  Each mutant runs Tier-1 with
-x, leaving out the two tests that read the source text:
test_reachability.py's test_every_statement_runs, which fails on any
changed src line, and test_mutate.py, which fails on a mutant that
EQUIVALENT names.  The unmutated copy must pass the rest first, and that
run is timed: a mutant's run is stopped at three times its length, so the
limit is derived, not set.  A mutant is killed when pytest fails, or
printed as a timeout (and counted as killed) when it reaches the limit; the
others survive and are printed.

EQUIVALENT names the survivors that no test can kill, each with a reason.
The exit status is 0 when every survivor is listed there, 1 when some
survivor is not, or when an entry in scope names no mutant or a killed one:
the list cannot go stale.  The run takes about 5-40 s per mutant, so it is
not a Tier-1 test; pytest does not collect this folder, and Tier-1's
test_mutate.py only checks that each entry names a mutant it generates.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join("src", "homtwist")
LEFT_OUT = "tests/test_reachability.py::test_every_statement_runs"

# survivor name (as printed) -> why no test can tell it from the original
EQUIVALENT = {
    "actions.endo_map: times(square, images[i]) -> times(images[i], square)":
        "square is a power of images[i], and two powers of one element commute",
    "scalars.MonomialElem.basis_keys: 1 -> 2":
        "an exponent of bound + 1 gives a key of degree > bound, which the filter drops",
    "cli.cmd_verify: os.path.samefile(args.file, args.report)"
    " -> os.path.samefile(args.report, args.file)":
        "samefile is symmetric: it compares the device and inode of both paths",
    "scalars.QLaurent.specialize: max(abs(q0.numerator), q0.denominator)"
    " -> max(q0.denominator, abs(q0.numerator))":
        "max of two ints is symmetric",
    "scalars.QLaurent.specialize: 0 -> 1 #3":
        "min's default is read only for the zero sum, whose total 0 is returned unscaled",
    "cli.cmd_act: 0 -> 1":
        "the act tables are defined on every key, whatever the bounds of the bases",
    "cli.cmd_act: 0 -> 1 #2":
        "the act tables are defined on every key, whatever the bounds of the bases",
    "cli.cmd_act: 0 -> 1 #4": "an exponent of no digits reads as 0 or 1, both below the cap",
}

_BINOPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}
_COMPARES = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SMALL = 1 << 10


def _mutations(node, literal):
    """(replacement node, whether it needs parentheses) for each mutant of
    node; literal: node is a string constant of _literal_strings.
    """
    if literal:
        yield ast.Constant(node.value[:-1]), False
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINOPS:
        yield _copy(node, op=_BINOPS[type(node.op)]()), isinstance(node, ast.BinOp)
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = _COMPARES[type(op)]()
            yield _copy(node, ops=ops), True
    elif isinstance(node, ast.Constant) and type(node.value) is int and abs(node.value) < _SMALL:
        yield ast.Constant(node.value + 1), True
    elif isinstance(node, (ast.Continue, ast.Delete)):
        yield ast.Pass(), False
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand, True
    elif isinstance(node, ast.Call) and len(node.args) >= 2:
        a, b = node.args[:2]
        if not any(isinstance(arg, ast.Starred) for arg in (a, b)):
            if ast.unparse(a) != ast.unparse(b):
                yield _copy(node, args=[b, a, *node.args[2:]]), True


def _literal_strings(tree) -> set:
    """The ids of the non-empty string constants that are elements, keys or
    values of the dict, list and tuple literals of module-level assignments,
    nested literals included; nothing inside another expression is read.
    """
    out, stack = set(), [node.value for node in tree.body if isinstance(node, ast.Assign)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and type(node.value) is str and node.value:
            out.add(id(node))
        elif isinstance(node, ast.Dict):
            # a None key is a ** entry
            stack.extend(key for key in node.keys if key is not None)
            stack.extend(node.values)
        elif isinstance(node, (ast.List, ast.Tuple)):
            stack.extend(node.elts)
    return out


def _copy(node, **fields):
    new = type(node)(**{**dict(ast.iter_fields(node)), **fields})
    return ast.copy_location(new, node)


def _defs(tree):
    """(qualname, node) of every def and class of a module that no def
    holds, methods and nested classes included, and of every module-level
    assignment to one name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                yield node.targets[0].id, node
    stack = [("", tree)]
    while stack:
        prefix, parent = stack.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + node.name
                yield name, node
                if isinstance(node, ast.ClassDef):
                    stack.append((name + ".", node))


def _chosen(qualname: str, qualnames) -> bool:
    """Whether qualnames (a set, or None for all) names the def qualname,
    itself or by a class that holds it."""
    return qualnames is None or any(
        qualname == name or qualname.startswith(name + ".") for name in qualnames
    )


def _skipped(tree) -> set:
    """The ids of the nodes not to mutate: the parts of f-strings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skip.update(map(id, ast.walk(node)))
    return skip


def mutants(module: str, qualnames=None):
    """(name, mutated source) of each mutant of the defs of module.

    qualnames (a set) keeps the defs and assignments so named and the
    methods of the classes so named; None keeps every def and assignment.
    A name is "module.qualname: <old text> -> <new text>", with " #n" added
    when the same change appears more than once in one def.  The change is
    spliced into the source text, so the rest of the file keeps its bytes.
    """
    path = os.path.join(ROOT, SRC, module + ".py")
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line.encode()))
    data = source.encode()
    skip, literals = _skipped(tree), _literal_strings(tree)

    def offset(lineno, col):
        return starts[lineno - 1] + col

    defs = dict(_defs(tree))
    for qualname in sorted(set(qualnames or ()) - set(defs)):
        raise SystemExit(f"error: {module}.{qualname} is not a def, a class or an assignment")
    for qualname, fn in defs.items():
        if isinstance(fn, ast.ClassDef) or not _chosen(qualname, qualnames):
            continue
        seen = {}
        # a def's nested defs and lambdas are part of it, as an assignment's are
        for node in ast.walk(fn):
            if node is fn or id(node) in skip or not hasattr(node, "end_col_offset"):
                continue
            for new, parens in _mutations(node, id(node) in literals):
                lo = offset(node.lineno, node.col_offset)
                hi = offset(node.end_lineno, node.end_col_offset)
                old_text = ast.unparse(node)
                new_text = ast.unparse(new)
                spliced = f"({new_text})" if parens else new_text
                name = f"{module}.{qualname}: {old_text} -> {new_text}"
                seen[name] = seen.get(name, 0) + 1
                if seen[name] > 1:
                    name += f" #{seen[name]}"
                yield name, (data[:lo] + spliced.encode() + data[hi:]).decode()


def _copy_tree(scratch: str):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for folder in ("src", "tests", "perfbench", "tools"):
        shutil.copytree(os.path.join(ROOT, folder), os.path.join(scratch, folder), ignore=ignore)
    for name in ("pyproject.toml", "BENCHMARK.json", "README.md"):
        shutil.copy(os.path.join(ROOT, name), scratch)


def _test_files(scratch: str, module: str) -> list:
    """Tier-1's test files but test_mutate.py (which fails on a mutant
    that EQUIVALENT names), those named after the mutated module first.
    """
    names = sorted(
        name for name in os.listdir(os.path.join(scratch, "tests"))
        if name.startswith("test_") and name.endswith(".py") and name != "test_mutate.py"
    )
    names.sort(key=lambda name: module not in name)
    return [os.path.join("tests", name) for name in names]


def outcome(scratch: str, module: str, limit=None) -> str:
    """How Tier-1, run in scratch, ends: "killed" when it fails, "timeout"
    when it runs past limit seconds (None: no limit), else "SURVIVED".
    """
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--deselect", LEFT_OUT, *_test_files(scratch, module)]
    try:
        done = subprocess.run(argv, cwd=scratch, env=env, capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "killed" if done.returncode else "SURVIVED"


def _targets(specs) -> dict:
    """module -> set of qualnames, or None for the whole module."""
    out = {}
    for spec in specs:
        module, _, qualname = spec.partition(".")
        if not os.path.exists(os.path.join(ROOT, SRC, module + ".py")):
            raise SystemExit(f"error: no module src/homtwist/{module}.py")
        if not qualname:
            out[module] = None
        elif out.get(module, set()) is not None:
            out.setdefault(module, set()).add(qualname)
    return out


def _in_scope(name: str, targets: dict) -> bool:
    head = name.split(": ", 1)[0]
    module, _, qualname = head.partition(".")
    return module in targets and _chosen(qualname, targets[module])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="module or module.qualname")
    parser.add_argument("--list", action="store_true", help="print the mutants, run nothing")
    parser.add_argument("--scratch", help="a new or empty folder outside the checkout")
    args = parser.parse_args(argv)
    targets = _targets(args.targets)

    made = [(module, name, source)
            for module, qualnames in targets.items()
            for name, source in mutants(module, qualnames)]
    if args.list:
        for _, name, _ in made:
            print(name)
        return 0

    scratch = os.path.abspath(args.scratch or tempfile.mkdtemp(prefix="mutate-"))
    if os.path.commonpath([scratch, ROOT]) == ROOT:
        raise SystemExit("error: the scratch folder must lie outside the checkout")
    os.makedirs(scratch, exist_ok=True)
    if os.listdir(scratch):
        raise SystemExit(f"error: {scratch} is not empty")
    _copy_tree(scratch)
    # a copy that fails unmutated would count every mutant as killed
    start = time.monotonic()
    if outcome(scratch, "") != "SURVIVED":
        raise SystemExit(f"error: Tier-1 fails on the unmutated copy in {scratch}")
    # a mutant that loops (a bound raised past reserve's check) is stopped at
    # three times the unmutated run
    limit = 3 * (time.monotonic() - start)
    print(f"a mutant is stopped at {limit:.0f}s, 3x the unmutated run", flush=True)

    survivors, dead = [], set()
    for i, (module, name, source) in enumerate(made, 1):
        path = os.path.join(scratch, SRC, module + ".py")
        with open(path) as fh:
            original = fh.read()
        with open(path, "w") as fh:
            fh.write(source)
        start = time.monotonic()
        try:
            ended = outcome(scratch, module, limit)
        finally:
            with open(path, "w") as fh:
                fh.write(original)
        print(f"[{i}/{len(made)}] {ended} {time.monotonic() - start:.0f}s  {name}", flush=True)
        if ended == "SURVIVED":
            survivors.append(name)
        else:
            dead.add(name)

    names = {name for _, name, _ in made}
    unlisted = [name for name in survivors if name not in EQUIVALENT]
    stale = [name for name in EQUIVALENT
             if _in_scope(name, targets) and (name not in names or name in dead)]
    print(f"\n{len(made)} mutants, {len(survivors)} survived, "
          f"{len(survivors) - len(unlisted)} of them listed as equivalent")
    for name in unlisted:
        print(f"SURVIVOR {name}")
    for name in stale:
        print(f"STALE {name}: {EQUIVALENT[name] if name in names else 'no such mutant'}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
