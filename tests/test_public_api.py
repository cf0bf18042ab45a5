"""Every name recipro exports, every public module-level function, class and
constant of every recipro module, and every public member of an exported
class, is used by the package or by the acceptance tests.

A name counts as used when it is loaded (ast.Load, so an assignment is not
its own use) as a Name or an Attribute in a module of the package other than
__init__.py, or when tests/test_acceptance.py imports it.  A public method,
property or dataclass/NamedTuple field of an exported class counts as used
when it is read as an attribute in such a module or anywhere in
tests/test_acceptance.py.  A name or member that neither uses should be
deleted, not kept.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import recipro

PACKAGE_DIR = Path(recipro.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_modules():
    return [parse(path) for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"]


def names_used_in_package():
    used = set()
    for tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def module_level_definitions(tree):
    """Names that a module's own top-level def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def names_imported_by_acceptance():
    return {
        alias.name
        for node in ast.walk(parse(ACCEPTANCE))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def attributes_read(trees):
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def public_members(cls):
    """Methods, properties and fields that cls itself defines, without a leading _."""
    if dataclasses.is_dataclass(cls):
        fields = [field.name for field in dataclasses.fields(cls)]
    else:
        fields = list(getattr(cls, "_fields", ()))
    own = [name for name, value in vars(cls).items()
           if callable(value) or isinstance(value, property)]
    return {name for name in fields + own if not name.startswith("_")}


def test_every_export_has_a_caller():
    used = names_used_in_package() | names_imported_by_acceptance()
    assert sorted(set(recipro.__all__) - used) == []


def test_every_public_module_level_name_has_a_caller():
    used = names_used_in_package() | names_imported_by_acceptance()
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in module_level_definitions(parse(path))
        if not name.startswith("_") and name not in used
    ]
    assert unused == []


def test_every_member_of_an_exported_class_has_a_caller():
    read = attributes_read([*package_modules(), parse(ACCEPTANCE)])
    unused = [
        f"{name}.{member}"
        for name in recipro.__all__
        if inspect.isclass(cls := getattr(recipro, name))
        for member in public_members(cls)
        if member not in read
    ]
    assert sorted(unused) == []
