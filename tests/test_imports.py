"""The runtime imports the standard library only, and starts no processes."""

import ast
import sys
from pathlib import Path

import edgecolor

PACKAGE = Path(edgecolor.__file__).resolve().parent
NO_PROCESSES = {"concurrent", "multiprocessing", "subprocess"}


def _absolute_imports(path: Path) -> list[str]:
    """Top-level module names of every absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library_and_no_process_modules():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for name in _absolute_imports(path):
            assert name in sys.stdlib_module_names, f"{path.name} imports {name}"
            assert name not in NO_PROCESSES, f"{path.name} imports {name}"
