"""The package needs nothing the standard library does not have.

``pyproject.toml`` declares ``dependencies = []``.  What keeps that
true is this walk: every top-level import in ``src/repro`` names a
standard-library module or ``repro`` itself.  The one exception is
numpy, and only in the columnar executor, which is imported on demand.
"""

import ast
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: Third-party modules allowed, by the one file that may import each.
ALLOWED = {("exec/columnar.py", "numpy")}


def top_level_imports(path):
    """The first dotted component of every module ``path`` imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_repro():
    outside = sorted(
        (str(path.relative_to(PACKAGE)), module)
        for path in PACKAGE.rglob("*.py")
        for module in top_level_imports(path)
        if module != "repro"
        and module not in sys.stdlib_module_names
        and (str(path.relative_to(PACKAGE)), module) not in ALLOWED
    )
    assert outside == []
