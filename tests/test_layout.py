"""Source layout guards for the segnoise package."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import segnoise

SRC = Path(segnoise.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
BENCH_CHILD = ROOT / "perfbench" / "child.py"
README = ROOT / "README.md"


def references(node) -> tuple[Counter, Counter]:
    """How often each name occurs under `node`: as a bare name, and as an
    attribute or an imported name."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        elif isinstance(n, ast.alias):
            attrs[n.name] += 1
    return names, attrs


def test_every_private_module_level_name_is_used():
    # A private function or class that nothing in the package refers to
    # outside its own definition is a replaced path left behind; it goes
    # with its last caller.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: references(tree) for module, tree in trees.items()}
    attrs_anywhere = sum((attrs for _, attrs in refs.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            inner_names, inner_attrs = references(node)
            outside = (refs[module][0][name] - inner_names[name]
                       + attrs_anywhere[name] - inner_attrs[name])
            if outside == 0:
                unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []


def test_every_public_module_level_name_is_used():
    # A public function or class is kept for a command, for the
    # benchmark or for the documented API: package code or perfbench
    # refers to it outside its own definition, or README names it in
    # backticks. One that only the tests use belongs in the tests.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: references(tree) for module, tree in trees.items()}
    attrs_anywhere = sum((attrs for _, attrs in refs.values()), Counter())
    bench = Counter()
    for path in sorted(BENCH_CHILD.parent.glob("*.py")):
        bench.update(sum(references(ast.parse(path.read_text())), Counter()))
    # Code blocks show the CLI, and the list of removed names is no API.
    prose = re.sub(r"```.*?```|Removed names.*?\n\n", "", README.read_text() + "\n\n", flags=re.S)
    documented = {name for span in re.findall(r"`([^`]+)`", prose)
                  for name in re.findall(r"\w+", span)}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = node.name
            inner_names, inner_attrs = references(node)
            outside = (refs[module][0][name] - inner_names[name]
                       + attrs_anywhere[name] - inner_attrs[name] + bench[name])
            if outside == 0 and name not in documented:
                unused.append(f"{module[:-3]}.{name}")
    assert unused == []


def test_every_segnoise_name_the_benchmark_reads_exists():
    # The benchmark's traced replay wraps segnoise functions and methods
    # by name. A refactor that drops or moves one fails here, and not
    # only when the replay runs.
    tree = ast.parse(BENCH_CHILD.read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"segnoise.{alias.name}")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "segnoise"
        for alias in node.names
    }
    read = [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]
    assert len(read) > 10
    assert [f"{name}.{attr}" for name, attr in read if not hasattr(modules[name], attr)] == []
    # (module.Class, "method") pairs: each method is wrapped as `vars(cls)[method]`.
    patched = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            owner, method = node.elts
            if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                    and owner.value.id in modules and isinstance(method, ast.Constant)):
                patched[owner.attr] = getattr(modules[owner.value.id], owner.attr), method.value
    assert set(patched) == {"GridResult", "SweepResult", "CorruptionReport"}
    assert [name for name, (cls, method) in patched.items() if method not in vars(cls)] == []
