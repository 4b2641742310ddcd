"""An unused-import guard over the package modules, in place of a linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cexpect"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each module-level import binding that the module never
    reads, but for imports whose first line carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
    ]
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_guard_finds_an_unread_import():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .rng import (\n    CHUNK_SIZE,\n    row_slices,\n)\n"
        "from .quadrature import integrate  # noqa: F401\n"
        "def f(n):\n    return np.empty(n), row_slices(n)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "CHUNK_SIZE")]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
