"""Every name a package module imports at its top level is used there, and
so is every private name it defines at its top level.

A stale import or helper outlives the code that needed it; no linter is a
dependency, so this reads the modules with ``ast``. An import line marked
``# noqa`` is kept on purpose (a re-export another tool looks up) and is
skipped.

A command run in a fresh interpreter imports no module it does not use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "timefringe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path) == []


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unused_private_names(path: Path) -> list:
    tree = ast.parse(path.read_text())
    defined = {name: node.lineno for node in tree.body
               for name in _defined_names(node)
               if name.startswith("_") and not name.startswith("__")}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}"
            for name, line in defined.items() if name not in loaded]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_top_level_name_is_used(path):
    assert unused_private_names(path) == []


# what a cold command must not import: np.median's first call pulls in
# numpy.ma, milliseconds of a cold op, difflib serves only the unknown-key
# hint, and hashlib maps OpenSSL's libcrypto, 3.4 MB resident
UNUSED_ON_COLD_START = ("numpy.ma", "difflib", "hashlib", "_hashlib")


def run_child(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports the package from here"""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("argv", [
    ["simulate", "--theory", "stueckelberg"],
    ["simulate", "--theory", "floquet"],
    ["simulate", "--theory", "schrodinger_control"],
    ["scan", "--param", "gate_spacing", "--values", "8,12,16"],
    ["fringes"],
], ids=lambda argv: "-".join(argv[:3:2]))
def test_cold_command_imports_only_what_it_runs(tmp_path, argv):
    if argv == ["fringes"]:
        from timefringe.cli import main
        assert main(["simulate", "--out", str(tmp_path / "sim")]) == 0
        argv = ["fringes", "--trace", str(tmp_path / "sim" / "trace.csv")]
    argv = [*argv, "--out", str(tmp_path / "out")]
    code = ("import sys\nfrom timefringe.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print([m for m in {UNUSED_ON_COLD_START!r} if m in sys.modules])")
    run = run_child(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_hashlib_fallback_gives_the_same_scenario_hash():
    # without CPython's built-in SHA-256 module, cli takes it from hashlib
    run = run_child("import sys\n"
                    "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                    "from timefringe import cli\n"
                    "from timefringe.scenario import Scenario\n"
                    "print(cli.sha256.__module__)\n"
                    "print(cli._scenario_hash(Scenario().to_dict()))\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["_hashlib", "dedadeb708a9a1b1"]
