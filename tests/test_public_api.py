"""Every name recipro exports is used by the package or by the acceptance tests.

A name counts as used when it appears as a Name or an Attribute in a module
of the package other than __init__.py, or when tests/test_acceptance.py
imports it.  An export that neither uses should be deleted, not kept.
"""

import ast
from pathlib import Path

import recipro

PACKAGE_DIR = Path(recipro.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_used_in_package():
    used = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def names_imported_by_acceptance():
    return {
        alias.name
        for node in ast.walk(parse(ACCEPTANCE))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_has_a_caller():
    used = names_used_in_package() | names_imported_by_acceptance()
    assert sorted(set(recipro.__all__) - used) == []
