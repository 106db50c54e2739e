import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "module",
    [
        "fixpairs",
        "fixpairs.space",
        "fixpairs.operators",
        "fixpairs.bvp",
        "fixpairs.solver",
        "fixpairs.hypotheses",
        "fixpairs.models",
        "fixpairs.problems",
    ],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # scipy is imported lazily by the few functions that need it
    code = "import sys, fixpairs, fixpairs.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def unused_imports(path):
    """Module-level imported names that the module neither reads nor exports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused


def test_no_unused_imports():
    # pyflakes' unused-import rule on the stdlib ast; the project has no linter
    paths = sorted(p for top in ("src", "tests", "scripts") for p in (ROOT / top).rglob("*.py"))
    assert paths
    assert [line for path in paths for line in unused_imports(path)] == []


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def definitions(tree):
    """(name, node) of every module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def private_definitions(tree):
    """(name, node) of every module-level definition of a private name _x."""
    return ((name, node) for name, node in definitions(tree) if is_private(name))


def name_reads(node):
    """Every name read under node: loaded names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_unreferenced_private_names():
    # a private helper whose last caller is gone is dead code; a read inside
    # the definition itself (a recursive call) does not count
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert trees
    reads = Counter(name for tree in trees.values() for name in name_reads(tree))
    unreferenced = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
        for path, tree in trees.items()
        for name, node in private_definitions(tree)
        if reads[name] == sum(1 for read in name_reads(node) if read == name)
    ]
    assert unreferenced == []


def parse_all(*tops):
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in tops
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def exported(tree):
    """The names in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


# exported as the paper's objects, whether or not the package reads them:
# the genus of a sphere (c04), the coercivity bound of J (c07) and the inner
# product of H1_0
PAPER_OBJECTS = {"genus_of_sphere", "lower_bound_J", "inner"}


def test_every_export_is_read_by_the_package():
    # a public name that only the tests read is a test reference, and lives
    # in tests/; a read inside its own definition does not count
    src = parse_all("src")
    readers = {**src, **parse_all("scripts", "perfbench")}
    assert src and len(readers) > len(src)
    reads = Counter(name for tree in readers.values() for name in name_reads(tree))
    unread = []
    for path, tree in src.items():
        own = Counter(name for name, node in definitions(tree) for read in name_reads(node) if read == name)
        unread += [
            f"{path.relative_to(ROOT)}: {name}"
            for name in exported(tree)
            if name not in PAPER_OBJECTS and reads[name] == own[name]
        ]
    assert unread == []


def private_reads(path, tree):
    """Private names of other fixpairs modules that a src/ module imports
    (from .x import _y) or reads off an imported module (x._y)."""
    package = ROOT / "src" / "fixpairs"
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fixpairs")):
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.module}.{alias.name}")
                elif (package / f"{alias.name}.py").exists():
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names if alias.asname and alias.name.startswith("fixpairs."))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    # a rule two modules share has one owner, which makes it public
    trees = parse_all("src")
    assert trees
    assert [read for path, tree in trees.items() for read in private_reads(path, tree)] == []


def test_only_the_gauss_rules_are_memoized():
    # a process-wide cache outlives the problems that filled it; a
    # Gauss-Legendre rule is a few nodes, and a grid and its table belong to
    # the operator that holds them
    caches = {"cache", "lru_cache"}  # functools' process-wide memos
    memoized, uses = [], 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += sum(1 for name in name_reads(tree) if name in caches)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    if caches & set(name_reads(decorator)):
                        memoized.append(node.name)
    assert sorted(memoized) == ["gauss_rule"]
    assert uses == len(memoized)
