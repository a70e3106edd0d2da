"""The package needs nothing the standard library does not have.

``pyproject.toml`` declares ``dependencies = []``.  What keeps that
true is this walk: every top-level import in ``src/repro`` names a
standard-library module or ``repro`` itself.  The one exception is
numpy, and only in the columnar executor, which is imported on demand.
The same walk keeps the planner below the layers that run its plans.
"""

import ast
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: Third-party modules allowed, by the one file that may import each.
ALLOWED = {("exec/columnar.py", "numpy")}


def imports(path):
    """The dotted name of everything ``path`` imports, absolutely: a
    module, or a module's member (``from a.b import c`` is ``a.b.c``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def top_level_imports(path):
    """The first dotted component of every module ``path`` imports."""
    return {name.split(".")[0] for name in imports(path)}


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


def test_the_planner_imports_neither_serving_nor_execution():
    """A plan or a verdict comes from the planner alone: it takes no
    lock and sees no ticket, so no service, executor or thread."""
    reached = sorted(
        (str(path.relative_to(PACKAGE)), name)
        for path in (PACKAGE / "planner").rglob("*.py")
        for name in imports(path)
        if name.split(".")[:2] in (["repro", "service"], ["repro", "exec"])
    )
    assert reached == []
    assert "threading" not in top_level_imports(PACKAGE / "planner" / "front.py")
