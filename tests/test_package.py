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
