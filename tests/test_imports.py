"""Every name a `collgraph` module imports is used there.

No linter runs on this code, so this is the check for unused imports,
written with the standard library's `ast` alone. `__init__.py` is exempt,
since it re-exports names, and so is an import line marked
`# noqa: F401`, which keeps a name importable for code outside the module.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "collgraph"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def unused_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) of each name `text` imports and never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                if name != "annotations":  # `from __future__ import annotations`
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    text = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
            "from json import dumps, loads  # noqa: F401\nfrom re import (\n"
            "    compile,\n    escape,\n)\n\nprint(compile, os)\n")
    assert unused_imports(text) == [(3, "osp"), (7, "escape")]
