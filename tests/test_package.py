import ast
import re
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


# Public names that no caller outside the tests reads, and why each stays.
UNREAD_PUBLIC = {
    ("svm.py", "load_model"): "the only check on the .fsvm writer (ROADMAP item 9)",
    ("stacking.py", "load_stacked"): "the only check on the .fstk writer (ROADMAP item 9)",
    ("geometry.py", "SimilarityTransform.apply"): "the tests' reference for eye_transform",
    ("svm.py", "save_scores"): "the score-file writer `eval --external` will use (ROADMAP item 12)",
}


def _unread_public_names(package, others, readme):
    """Public functions, classes and methods of package ({module: source})
    that nothing reads outside their own definition: not the package (a
    Name load or an attribute, not an import), not others (sources of
    callers outside it), not a call `name(` in readme -> [(module, name)],
    a method as Class.method."""
    def reads(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, node.lineno

    trees = {module: ast.parse(source) for module, source in package.items()}
    read_by = {module: list(reads(tree)) for module, tree in trees.items()}
    outside = {name for source in others for name, _ in reads(ast.parse(source))}
    outside |= set(re.findall(r"(\w+)\(", readme))
    unread = []
    for module, tree in trees.items():
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
        for qualname, node in defs:
            name = qualname.split(".")[-1]
            if name.startswith("_") or name in outside:
                continue
            if not any(n == name and not (m == module and node.lineno <= line <= node.end_lineno)
                       for m, names in read_by.items() for n, line in names):
                unread.append((module, qualname))
    return sorted(unread)


def test_every_public_name_has_a_caller_outside_the_tests():
    root = Path(__file__).resolve().parent.parent
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    others = [p.read_text(encoding="utf-8")
              for p in sorted(root.glob("demos/*.py")) + sorted(root.glob("perfbench/*.py"))]
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert _unread_public_names(package, others, readme) == sorted(UNREAD_PUBLIC)


def test_public_name_check_sees_a_name_no_caller_reads():
    package = {
        "a.py": ("def used():\n    return 1\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "def in_demo():\n    pass\n"
                 "def in_readme():\n    pass\n"
                 "def _private():\n    pass\n"
                 "class Box:\n    def kept(self):\n        return self.dropped\n"
                 "    def dropped(self):\n        return Box\n"
                 "    def lonely(self):\n        pass\n"),
        "b.py": "from .a import in_readme\nused()\nBox().kept()\n",
    }
    readme = "Call `in_readme(x)`; `recursive` is named but not called."
    assert _unread_public_names(package, ["in_demo()\n"], readme) == \
        [("a.py", "Box.lonely"), ("a.py", "recursive")]
