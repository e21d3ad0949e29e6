"""Source layout guards for the segnoise package."""

import ast
import importlib
import os
import re
import subprocess
import sys
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


def test_the_commands_read_ground_truth_only_through_config():
    # `config` decides how a bundle is read; cli.py reads its patients
    # through a `CorpusSource` and never calls a bundle reader itself.
    names, attrs = references(ast.parse((SRC / "cli.py").read_text()))
    readers = {"load_mask", "open_patient", "load_patient"}
    assert sorted(readers & (set(names) | set(attrs))) == []


def test_the_corpus_source_reads_and_writes_through_payloads():
    # No command reads or writes a whole record: config builds no source
    # from `load_patient`, and `phantom` writes what `payloads` gives.
    for module, name in (("config.py", "load_patient"), ("cli.py", "write_bundle")):
        names, attrs = references(ast.parse((SRC / module).read_text()))
        assert names[name] + attrs[name] == 0, (module, name)


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_records_are_built_only_in_the_benchmarks_readers():
    # A patient is a (modalities, mask) pair everywhere but in the two
    # functions that build the benchmark's records, load_patient and
    # generate_corpus; volume defines the record type. The writer, the
    # corpus source and the commands name no record type at all.
    records = {"PatientRecord"}
    built = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) in records:
                    built.add((path.stem, getattr(node, "name", None)))
    assert {(module, name) for module, name in built if module != "volume"} <= {
        ("bundleio", "load_patient"), ("phantom", "generate_corpus")}
    for node in (_function("bundleio.py", "write_patient"), _function("config.py", "source_from"),
                 ast.parse((SRC / "cli.py").read_text())):
        names, attrs = references(node)
        assert sorted(records & (set(names) | set(attrs))) == []


def test_the_sweeps_and_their_kernels_name_no_record_type():
    # Records are built in bundleio and phantom only (see above); the
    # sweeps take masks or a `CorpusSource`, and the kernels under them
    # take arrays.
    records = {"PatientRecord"}
    named = {}
    for module in ("noise.py", "oracle.py", "trainer.py", "metrics.py", "morphology.py", "pool.py"):
        names, attrs = references(ast.parse((SRC / module).read_text()))
        named[module] = sorted(records & (set(names) | set(attrs)))
    assert named == dict.fromkeys(named, [])


def test_the_one_record_type_only_adopts_its_arrays():
    # Records are built from arrays that their readers checked or that
    # the phantom generator made, so the one record type checks nothing
    # again: its __post_init__ calls `_adopt` and nothing else.
    classes = [node for node in ast.parse((SRC / "volume.py").read_text()).body if isinstance(node, ast.ClassDef)]
    assert [node.name for node in classes] == ["PatientRecord"]
    post_init = next(node for node in classes[0].body
                     if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    called = {ast.unparse(node.func) for node in ast.walk(post_init) if isinstance(node, ast.Call)}
    assert called == {"_adopt", "object.__setattr__", "self.modalities.items"}


def test_only_the_benchmark_reads_a_records_volume():
    # `PatientRecord.volume` is the record itself, kept only because
    # perfbench/child.py reads `record.volume.modalities`; the package and
    # the tests read `record.modalities`.
    def readers(path):
        return [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == "volume"]

    assert [line for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
            for line in readers(path)] == []
    assert readers(BENCH_CHILD) != []


def test_importing_the_commands_does_not_load_numpy_random():
    # numpy does not import numpy.random with numpy, and importing it
    # costs about 10 ms; `score` and the benchmark's corpus child never
    # draw, so only the first draw may load it.
    code = ("import sys\n"
            "import segnoise.cli, segnoise.noise, segnoise.oracle, segnoise.bundleio, segnoise.metrics\n"
            "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.split("\n")[-2] == "[]"
