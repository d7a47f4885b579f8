"""The README's Python API block runs against the package as installed."""

import ast
import re
from pathlib import Path

import qnetcap

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Python API\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Python API'"
    return match.group(1)


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
