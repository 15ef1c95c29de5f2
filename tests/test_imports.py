"""Every name a module imports is read somewhere in that module.

Each module of the package and of the test suite is parsed with `ast`; a
name bound by ``import`` or ``from ... import`` (``__future__`` features
aside) must occur as a loaded name in the same module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "gsworkbench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# modules whose imports are all kept unread
EXEMPT_MODULES = {
    "src/gsworkbench/__init__.py",  # its imports are the package's re-exports
}
# single imported names kept unread, by module
EXEMPT_NAMES = {
    # the benchmark's tracer patches this binding; perfbench's
    # test_wrappers_patch_every_binding_and_restore_them asserts it
    ("src/gsworkbench/verifier.py", "word_index"),
}


def unread_imports(path):
    """The names `path` imports and never reads, in the order imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", [
    module for module in (path.relative_to(ROOT).as_posix() for path in MODULES)
    if module not in EXEMPT_MODULES
])
def test_every_imported_name_is_read(module):
    unread = [name for name in unread_imports(ROOT / module) if (module, name) not in EXEMPT_NAMES]
    assert unread == []
