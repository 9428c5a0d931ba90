"""Every name a module of src/homtwist or of the tests imports is referenced
in that module, and every function, class, method, class constant and
module-level name src defines is named somewhere.  No src module memoizes a
table that is a memo table already, nor defines a second memo kind, a class
with __missing__, nor a namespace method, a classmethod that never calls
cls(...) and so reads only class constants where an instance belongs.
README.md names in its inline code only identifiers that the code defines
or reads.

The names of the package's __all__ (re-exported by __init__) and
`from __future__ import annotations` are exempt.  Importing the command line
loads none of dataclasses, inspect and typing, which a cold process would pay
for on every run, nor the fractions, json and finalg that only some runs use.
The benchmark's verify argument lists run without argparse, gettext and
locale too, and the two sl2-q lists without fractions (and the decimal and
numbers it imports) and finalg; of them only the list with --report loads
json.
"""

import ast
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "homtwist"
TESTS = ROOT / "tests"


def exported(tree) -> set:
    """The names of a module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """The names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported(tree))


def _name(node) -> str:
    """The name a call's function is read by: f(...) or module.f(...)."""
    return getattr(node, "id", getattr(node, "attr", ""))


def double_memo(source: str) -> list:
    """The lines where cache(...) wraps on_ids(...) or key_map(...), whose
    results are memo tables already, and where a class defines __missing__,
    a memo kind beside functools.cache.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _name(node.func) == "cache"
        and any(
            isinstance(arg, ast.Call) and _name(arg.func) in ("on_ids", "key_map")
            for arg in node.args
        )
        or isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__missing__" for item in node.body
        )
    ]


def namespace_methods(source: str) -> list:
    """The lines of the classmethods that never call their class: such a
    method only reads class constants, which an instance should hold.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(_name(decorator) == "classmethod" for decorator in node.decorator_list)
        and not any(
            isinstance(call, ast.Call) and _name(call.func) == node.args.args[0].arg
            for call in ast.walk(node)
        )
    ]


def named(tree) -> Counter:
    """How often each identifier is read in tree: as a name, an attribute or an import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
    return out


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def assigned(node):
    """(name, node) for the non-dunder names an assignment node binds."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not _dunder(name.id):
                    yield name.id, node


def definitions(tree):
    """(name, node) for the module-level functions and classes of tree, their
    methods and the non-dunder names that module-level and class-body
    assignments bind, node being the definition or the assignment.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
                yield from assigned(item)
        yield from assigned(node)


def dead_definitions(defining, readers) -> list:
    """The non-dunder definitions of the trees defining that no tree of
    readers names outside the definition itself: a recursive call does not
    keep one alive, nor does the target of an assignment.
    """
    total = sum((named(tree) for tree in readers), Counter())
    return sorted(
        name
        for tree in defining
        for name, node in definitions(tree)
        if not _dunder(name) and total[name] == named(node)[name]
    )


def test_the_guard_sees_an_unused_import():
    source = (
        "import os, sys\nfrom math import comb as c, perm\n__all__ = ['perm']\nsys.exit(c(2, 1))\n"
    )
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: path.name if path.parent == SRC else f"tests/{path.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_a_double_memo():
    planted = (
        "import functools\nfrom functools import cache\n"
        "a = cache(on_ids(f))\n"
        "b = functools.cache(homcore.key_map(g))\n"
        "c = on_ids(f)\nd = cache(lambda k: on_ids(f))\n"
    )
    assert double_memo(planted) == [3, 4]


def test_the_guard_sees_a_second_memo_kind():
    planted = (
        "class Memo(dict):\n"
        "    def __missing__(self, key):\n"
        "        value = self[key] = len(self)\n"
        "        return value\n"
        "class Plain(dict):\n"
        "    def missing(self, key):\n"
        "        return None\n"
    )
    assert double_memo(planted) == [1]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_double_memo(path):
    assert double_memo(path.read_text()) == []


def test_the_guard_sees_a_namespace_method():
    planted = (
        "class Ring:\n"
        "    NAMES = ('x',)\n"
        "    @classmethod\n"
        "    def width(cls):\n"
        "        return len(cls.NAMES)\n"
        "    @classmethod\n"
        "    def of(klass, value):\n"
        "        return value if isinstance(value, Ring) else klass(value)\n"
        "    def render(self):\n"
        "        return self.NAMES[0]\n"
    )
    assert namespace_methods(planted) == [4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_namespace_methods(path):
    assert namespace_methods(path.read_text()) == []


# what no run of the command line uses, and what only some runs use
HEAVY = {"argparse", "gettext", "locale", "dataclasses", "inspect", "typing"}
LAZY = {"fractions", "decimal", "numbers", "json", "homtwist.finalg"}


def test_cli_import_leaves_out_heavy_modules():
    # -S: no site directory, so no installed .pth file imports anything first
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import homtwist.cli\n"
        f"print(sorted(set(sys.modules).intersection({sorted(HEAVY | LAZY)!r})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_canonical_verify_loads_no_parser(tmp_path):
    # the benchmark's three workload argument lists run without argparse, and
    # without the gettext and locale that its messages import; the sl2-q
    # lists, whose coefficients are all integral, without fractions and
    # finalg, and hopf-h3, which writes no report, without json.  They run in
    # that order in one process, and main reads them from sys.argv, as in the
    # process the benchmark starts.  Imported here: test_reachability imports
    # this file before it imports homtwist
    from test_golden import finalg_text  # puts perfbench on the path
    from workloads import WORKLOADS

    scenario, report = tmp_path / "finalg_m3.json", str(tmp_path / "report.json")
    scenario.write_text(finalg_text(1, 3))
    workloads = [WORKLOADS[name] for name in ("hopf-h3", "negctl-q33", "finalg-m3")]
    argvs = [workload.verify_argv(str(scenario), report) for workload in workloads]
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "from homtwist import cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "codes, loaded = [], []\n"
        f"for argv in {argvs!r}:\n"
        "    sys.argv[1:] = argv\n"
        "    codes.append(cli.main())\n"
        f"    loaded.append(sorted(set(sys.modules).intersection({sorted(HEAVY | LAZY)!r})))\n"
        "sys.stdout = sys.__stdout__\n"
        "print(codes, loaded)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    # the finalg list loads the rational scenario and what it imports
    expected = [[], ["json"], sorted(LAZY)]
    assert done.stdout == f"{[workload.exit_code for workload in workloads]} {expected}\n"


def test_the_guard_sees_a_dead_definition():
    planted = ast.parse(
        "def used():\n    return 1\n\n"
        "def dead(n):\n    return dead(n - 1) if n else used()\n\n"
        "class Box:\n    def kept(self):\n        return self.__len__()\n"
        "    def lost(self):\n        return self.lost()\n"
        "    def __len__(self):\n        return 0\n"
    )
    reader = ast.parse("from planted import Box\nBox().kept()\n")
    assert dead_definitions([planted], [planted, reader]) == ["dead", "lost"]


def test_the_guard_sees_a_dead_module_name():
    planted = ast.parse(
        "__all__ = ['TABLE']\nTABLE = {}\nLEFT, _RIGHT = 1, 2\n"
        "_memo: dict = {}\nCOUNT = 0\nCOUNT += 1\n"
        "def size():\n    return len(TABLE) + LEFT\n"
    )
    reader = ast.parse("from planted import size\nsize()\n")
    assert dead_definitions([planted], [planted, reader]) == ["_RIGHT", "_memo"]


def test_the_guard_sees_a_dead_class_constant():
    planted = ast.parse(
        "class Ring:\n    __slots__ = ()\n    NAMES = ('x',)\n    WIDTH = 1\n"
        "    SEP: str = '*'\n    def render(self):\n        return self.SEP.join(self.NAMES)\n"
    )
    reader = ast.parse("from planted import Ring\nRing().render()\n")
    assert dead_definitions([planted], [planted, reader]) == ["WIDTH"]


def test_no_dead_definitions():
    # every function, class, method, class constant and module-level name of
    # src is named in src, tests or perfbench
    readers = [
        ast.parse(path.read_text())
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    defining = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert dead_definitions(defining, readers) == []


# the math symbols that README.md writes in code spans, which no code need name
MATH_SYMBOLS = {
    "A_alpha", "A_beta", "H_beta", "alpha_A", "alpha_U", "e_k", "mu_A", "mu_H", "mu_alpha",
}
_FENCE = re.compile(r"^ *```.*?^ *```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_FILE = re.compile(r"[\w./-]*\.(?:py|md|json|stdout|toml|txt|pth)\b")
_WORD = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def identifiers(tree) -> set:
    """The identifiers tree defines or reads: names, attributes, defs and
    classes, arguments, keywords, and the imported names with their aliases.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            out.add(node.asname)
    out.discard(None)  # the asname of a plain import, the arg of a **keyword
    return out


def code_names(markdown: str) -> set:
    """The snake_case identifiers and the parts of the dotted names in the
    inline code spans of markdown, fenced blocks left out.  File names are
    not read, nor the dotted names of the standard library (gc.collect).
    """
    out = set()
    for span in _SPAN.findall(_FENCE.sub("", markdown)):
        for word in _WORD.findall(_FILE.sub("", span)):
            parts = word.split(".")
            if len(parts) == 1:
                out.update(part for part in parts if "_" in part)
            elif parts[0] not in sys.stdlib_module_names:
                out.update(parts)
    return out


def unknown_code_names(markdown: str, trees, stems) -> list:
    """The code names of markdown that no tree defines or reads and that are
    neither a file stem nor a math symbol.
    """
    known = set(stems).union(*map(identifiers, trees))
    return sorted(code_names(markdown) - known - MATH_SYMBOLS)


def test_the_guard_sees_a_stale_readme_name():
    planted = (
        "Call `homcore.gone_def(C)` or `kept_def`, not `_old_helper`; `mu_A` is\n"
        "a symbol, `plain` a word, `tools/run_it.py` a file and `gc.collect()`\n"
        "the standard library's.\n\n"
        "  ```\n  fenced_name = 1\n  ```\n"
    )
    code = ast.parse("import homcore as hc\ndef kept_def(arg):\n    return hc.other(key=arg)\n")
    assert unknown_code_names(planted, [code], ["homcore"]) == ["_old_helper", "gone_def"]


def test_readme_names_only_code_that_exists():
    paths = [
        path for folder in ("src", "tests", "tools", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    trees = [ast.parse(path.read_text()) for path in paths]
    markdown = (ROOT / "README.md").read_text()
    assert unknown_code_names(markdown, trees, [path.stem for path in paths]) == []
