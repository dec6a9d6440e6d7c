"""orbipar uses only the standard library: every import in src/orbipar is
relative, or names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbipar"


def _outside_imports(path):
    """(line, module) of each absolute import in the file that is not a
    standard-library module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_every_import_is_relative_or_stdlib():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    outside = {str(f.relative_to(PACKAGE)): imports for f in files if (imports := _outside_imports(f))}
    assert not outside


def test_an_outside_import_is_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import os.path\nfrom . import x\nfrom numpy import array\n"
                 "def g():\n    import hypothesis.strategies\n")
    assert _outside_imports(f) == [(3, "numpy"), (5, "hypothesis.strategies")]
