"""The runtime imports the standard library only, starts no processes,
reads no environment variables, and exports only names it defines.
"""

import ast
import sys
from pathlib import Path

import edgecolor

PACKAGE = Path(edgecolor.__file__).resolve().parent
NO_PROCESSES = {"concurrent", "multiprocessing", "subprocess"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


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


def _reads_environment(node: ast.AST) -> bool:
    """``os.environ`` or ``os.getenv``, also as a name imported from ``os``."""
    if isinstance(node, ast.Attribute):
        return node.attr in ENVIRONMENT
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ENVIRONMENT for alias in node.names)
    return False


def test_runtime_reads_no_environment_variables():
    # Every setting is a command-line flag; nothing reads os.environ.
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = [node.lineno for node in ast.walk(tree) if _reads_environment(node)]
        assert not found, f"{path.name} reads the environment on lines {found}"


def test_every_export_resolves_once():
    # A deleted or renamed type must leave __all__ with it.
    names = edgecolor.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(edgecolor, name)]
    assert not missing, missing
