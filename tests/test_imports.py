"""Every import in the library is used, and the CLI loads only what it uses.

A name bound by an import must appear somewhere else in its module as a
plain name, which includes the base of an attribute access.  Package
``__init__`` re-exports and ``__future__`` imports are exempt."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicdist

SRC = Path(padicdist.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import inf, comb\nx = comb\n") == \
        ["inf (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_after(code):
    """padicdist modules in sys.modules after running ``code`` in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [x for x in [env.get("PYTHONPATH")] if x])
    probe = code + ("\nimport sys\n"
                    "print(*(m for m in sys.modules if m.startswith('padicdist')))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    return set(res.stdout.split())


def test_cli_import_leaves_suites_and_graded_out():
    # and mahler, which only the pair, mahler and project handlers import
    loaded = loaded_after("import padicdist.cli")
    assert "padicdist.cli" in loaded
    assert not loaded & {"padicdist.suites", "padicdist.graded", "padicdist.mahler"}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from padicdist import *", namespace)
    assert set(padicdist.__all__) - set(namespace) == set()
    assert "padicdist.suites" in loaded_after("from padicdist import *")


def test_unknown_package_attribute():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        padicdist.nope
