import ast
from pathlib import Path

import pytest

import facestack

MODULES = sorted(p for p in Path(facestack.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names a module imports and never reads -> [(line, name)]. An import
    statement with `# noqa: F401` on one of its lines is a re-export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_a_name_left_behind():
    source = ("import os\nfrom .features import FeatureMatrix, export_csv\n"
              "from .svm import svm_fit  # noqa: F401\nFeatureMatrix(os.sep)\n")
    assert _unused_imports(source) == [(2, "export_csv")]


def _stranded_private_names(sources):
    """Module-level private functions, classes and constants of sources
    ({module: source}) that no source reads, as a Name load or an
    attribute -> [(module, name)]."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    stranded = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            stranded += [(module, name) for name in names
                         if name.startswith("_") and not name.startswith("__") and name not in read]
    return stranded


def test_every_private_name_is_read_somewhere_in_the_package():
    package = Path(facestack.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert _stranded_private_names(sources) == []


def test_stranded_name_check_sees_a_helper_left_behind():
    sources = {
        "a.py": ("_LIMIT = 3\n_KEPT: int = 4\n__all__ = []\n"
                 "def _used(x):\n    return x < _LIMIT\n"
                 "def _check_jobs(jobs):\n    pass\n"
                 "class _Fold:\n    def scaled(self):\n        return _used(1)\n"),
        "b.py": "from .a import _Fold\nimport a\na._KEPT\n",
    }
    assert _stranded_private_names(sources) == [("a.py", "_check_jobs")]
