"""The README's Python API block runs against the package as installed."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qnetcap
from qnetcap import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Python API\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Python API'"
    return match.group(1)


def test_the_python_api_prose_names_only_what_the_package_defines():
    # Every backticked ``module.name`` of a qnetcap module and every bare
    # ``name(`` in the section's prose resolves, so the README cannot go on
    # naming a removed function.
    modules = {"qnetcap": qnetcap, **{info.name: importlib.import_module(f"qnetcap.{info.name}")
                                      for info in pkgutil.iter_modules(qnetcap.__path__)}}
    section = re.search(r"^## Python API\n(.*?)(?=^## |\Z)", README.read_text(encoding="utf-8"), re.M | re.S)
    prose = re.sub(r"^```.*?^```", "", section.group(1), flags=re.M | re.S)
    named, missing = [], []
    for span in re.findall(r"`([^`]+)`", prose):
        for module, name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span):
            if module in modules:
                named.append(f"{module}.{name}")
                if not hasattr(modules[module], name):
                    missing.append(named[-1])
        for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", span):
            named.append(f"{name}(")
            if not any(hasattr(module, name) for module in modules.values()):
                missing.append(named[-1])
    assert len(named) >= 10 and missing == []


def test_readme_python_api_block_runs(capsys):
    exec(compile(python_api_block(), str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3


def test_package_exports_exactly_the_readme_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(python_api_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "qnetcap"
        for alias in node.names
    }
    assert sorted(qnetcap.__all__) == sorted(imported)


def test_importing_the_package_loads_no_submodule():
    probe = "import sys, qnetcap; print(sorted(m for m in sys.modules if m.startswith('qnetcap')))"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['qnetcap']"


@pytest.mark.parametrize("name", qnetcap.__all__)
def test_exported_names_are_their_home_module_objects(name):
    obj = getattr(qnetcap, name)
    assert obj.__module__.startswith("qnetcap.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_package_lists_and_rejects_names():
    assert set(qnetcap.__all__) <= set(dir(qnetcap))
    with pytest.raises(AttributeError, match="no_such_name"):
        qnetcap.no_such_name
    with pytest.raises(ImportError):
        from qnetcap import no_such_name  # noqa: F401


def test_package_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["dependencies"] == []
    assert any(dep.startswith("numpy") for dep in pyproject["project"]["optional-dependencies"]["test"])


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names ``tree`` imports and never reads; an annotation, quoted or under TYPE_CHECKING, reads them."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [ast.parse(node.value, mode="eval") for annotation in annotations if annotation is not None
              for node in ast.walk(annotation) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for root in (tree, *quoted) for node in ast.walk(root) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_unused_import_check_finds_an_unused_name():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import TYPE_CHECKING\n" \
             "from .errors import DomainError, FamilyError\nif TYPE_CHECKING:\n    from . import wrn\n" \
             "def f(x: 'wrn.WrnSpec') -> None:\n    raise DomainError(x)\n"
    assert _unused_imports(ast.parse(source)) == ["FamilyError (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted((README.parent / "src" / "qnetcap").glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_installed_command_ends_through_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["qnetcap"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
