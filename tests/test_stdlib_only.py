"""Runtime code stays stdlib-only: every module that `src/udbridge` imports
is in the standard library or is the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "udbridge"


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"udbridge"}
    }
    assert not foreign
