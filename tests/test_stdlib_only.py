"""The library is pure stdlib: every absolute import in src/gtue names a standard module.

The imports are read from the source with ``ast``, so the check imports
nothing and sees imports inside functions too.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gtue"


def _absolute_imports(path: pathlib.Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_src_gtue_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    outside = {f"{path.name}: {name}" for path in modules for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside, sorted(outside)
