import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import linetherm
from linetherm.cli import main

PACKAGE_DIR = Path(linetherm.__file__).resolve().parent
README = PACKAGE_DIR.parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(linetherm.__path__)
                 if not m.name.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"linetherm.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_package_reexport_exists():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text("utf8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(linetherm, n)] == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text("utf8")
    command = re.search(r"^linetherm (synth heatpulse (?:.*\\\n)*.*)$", text, re.M).group(1)
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LINETHERM_PARAMS", raising=False)
    assert main(shlex.split(command.replace("\\\n", " "))) == 0
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].params["tau_cool_s"] == pytest.approx(0.28e-3, abs=1e-6)
