"""No module imports a name it does not use.

The project ships no linter, so this walks the syntax tree of every program
and test module: each name an import binds must be read somewhere in the
module or be listed in its __all__. The package's __init__ only re-exports
and is left out.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*(ROOT / "src" / "morphogen").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names that source's imports bind and nothing reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a; `from m import *` binds nothing to check
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nimport a.b\nfrom x import (y, z as w)\n"
              "from m import *\n__all__ = ['y']\nprint(np.pi)\n")
    assert unused_imports(source) == ["a", "os", "w"]


def test_the_cli_imports_without_scipy_optimize():
    # only PRO training needs it, and it is a large share of the CLI's start-up
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", "import sys, morphogen.cli; "
                          "print('scipy.optimize' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
