"""Structure checks on the package source: no private reach-ins, no stale
exports, no public API that nothing calls.

A module of ``stablepc`` may import another module's public names only; an
underscore name is that module's own business.  Dunder names such as
``__version__`` are public.  The package ``__init__`` imports exactly what
its ``__all__`` exports, so a half-removed export cannot stay.  Every public
function, class and method is called from the package itself or from the
benchmark, or is exported: a def that only tests call is not the package's
API.  A method counts as called only through an attribute or a string, so a
builtin or a local of the same name cannot hide a dead one.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import stablepc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablepc"
PERFBENCH = ROOT / "perfbench"


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


def public_defs(source: str) -> list[tuple[int, str]]:
    """(line, name) of each public module-level function and class, and
    (line, "Class.name") of each public method; dunders are exempt."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(line, name) for line, name in found
            if not name.rpartition(".")[2].startswith("_")]


def referenced_names(source: str) -> set[str]:
    """Names that ``source`` reads: an identifier as ``name``, an attribute
    name or a string constant as ``.name``, since ``getattr(test, "pvalues")``
    calls ``pvalues`` too.  A method is only ever called as ``.name``; a bare
    ``name`` may be a builtin or a local that shares it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(f".{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(f".{node.value}")
    return names


def uncalled_defs(sources: dict[str, str], callers: set[str],
                  exported: set[str]) -> list[str]:
    """"file:line: name" of each public def in ``sources`` (file name to
    text) that no module but ``__init__.py`` references, that ``callers``
    (names as ``referenced_names`` gives them) does not hold and that, if at
    module level, is not in ``exported``.  A method counts as referenced
    only as an attribute or a string, a module-level def also by its bare
    name."""
    used = set(callers)
    for file, source in sources.items():
        if file != "__init__.py":
            used |= referenced_names(source)

    def called(name: str) -> bool:
        owner, _, attr = name.rpartition(".")
        return f".{attr}" in used or (not owner and attr in used)

    return [f"{file}:{line}: {name}"
            for file, source in sorted(sources.items())
            for line, name in public_defs(source)
            if not called(name) and name not in exported]


def test_detector_flags_uncalled_defs():
    # the call of the builtin set() calls no method Box.set
    sources = {
        "a.py": ("class Box:\n"
                 "    def open(self): pass\n"
                 "    def shut(self): pass\n"
                 "    def set(self): pass\n"
                 "    def __len__(self): return 0\n"
                 "    def _peek(self): pass\n"
                 "def lonely(): pass\n"
                 "def probe(): pass\n"
                 "def named(): pass\n"),
        "b.py": "Box().open()\nx = getattr(Box(), 'named')\nseen = set()\n",
        "__init__.py": "from .a import shut, lonely\n__all__ = ['shut', 'lonely']\n",
    }
    assert uncalled_defs(sources, {"probe"}, {"Box", "shut", "lonely"}) == \
        ["a.py:3: Box.shut", "a.py:4: Box.set"]


def test_every_public_def_is_called_or_exported():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    callers = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                            for path in sorted(PERFBENCH.glob("*.py"))))
    assert sources and callers
    assert uncalled_defs(sources, callers, set(stablepc.__all__)) == []


def readme_imports(text: str) -> list[str]:
    """Names that the README's Python blocks import from ``stablepc``."""
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    return [alias.name for block in blocks for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "stablepc"
            for alias in node.names]


def test_readme_imports_only_exported_names():
    names = readme_imports((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "skeleton_stable" in names
    assert [name for name in names if name not in stablepc.__all__] == []


def test_benchmark_hook_reaches_the_cli():
    # perfbench/child.py wraps skeleton.skeleton_stable before it imports
    # the CLI, which binds the name on import; the wrapper is the only
    # reader of peak_tasks_in_flight for a CLI run
    script = ("import sys\n"
              "import stablepc\n"
              "assert 'stablepc.cli' not in sys.modules, 'stablepc imports its CLI'\n"
              "import stablepc.skeleton\n"
              "def hook(*args, **kwargs): pass\n"
              "stablepc.skeleton.skeleton_stable = hook\n"
              "import stablepc.cli\n"
              "assert stablepc.cli.skeleton_stable is hook, 'the CLI misses the hook'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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
