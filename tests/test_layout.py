"""Source layout guards for the segnoise package."""

import ast
from collections import Counter
from pathlib import Path

import segnoise

SRC = Path(segnoise.__file__).resolve().parent


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
