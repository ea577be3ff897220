"""Structure checks on the package source: no private reach-ins, no stale
exports.

A module of ``stablepc`` may import another module's public names only; an
underscore name is that module's own business.  Dunder names such as
``__version__`` are public.  The package ``__init__`` imports exactly what
its ``__all__`` exports, so a half-removed export cannot stay.
"""

import ast
from pathlib import Path

import stablepc

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablepc"


def private_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) for each underscore name imported from the
    package: relative imports, or absolute ones of ``stablepc``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "stablepc":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def unexported_imports(source: str) -> list[str]:
    """Names that ``source`` imports but leaves out of its ``__all__``."""
    tree = ast.parse(source)
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__"
                            for target in node.targets))
    return [alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if (alias.asname or alias.name) not in exported]


def test_detector_flags_private_names():
    source = ("from .skeleton import _WORKER_CONTEXT, run_level\n"
              "from stablepc.graphs import _helper\n"
              "from . import __version__\n"
              "from numpy import _private\n")
    assert private_imports(source) == [(1, ".skeleton", "_WORKER_CONTEXT"),
                                       (2, "stablepc.graphs", "_helper")]


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    reach_ins = [f"{path.name}:{line}: from {module} import {name}"
                 for path in modules
                 for line, module, name in private_imports(path.read_text(encoding="utf-8"))]
    assert reach_ins == []


def test_every_exported_name_resolves():
    missing = [name for name in stablepc.__all__ if not hasattr(stablepc, name)]
    assert missing == []
    assert len(set(stablepc.__all__)) == len(stablepc.__all__)


def test_detector_flags_unexported_imports():
    source = ("from .citests import chi2_sf, make_citest\n"
              "from .data import load_csv as load\n"
              "__all__ = ['load', 'make_citest']\n")
    assert unexported_imports(source) == ["chi2_sf"]


def test_init_imports_only_exported_names():
    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unexported_imports(source) == []
