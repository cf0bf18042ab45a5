"""Every name recipro exports, every public module-level function, class and
constant of every recipro module, and every public member of an exported
class, is used by the package or by the acceptance tests.

A name counts as used when tests/test_acceptance.py imports it, or when live
code in a module of the package other than __init__.py loads it (ast.Load,
so an assignment is not its own use) as a Name or an Attribute.  Live code
is every top-level statement that binds no name, plus every top-level def,
class or assignment whose name is used; the count is repeated until no more
definitions turn live, so a load inside dead code is not a use.  A public
method, property or dataclass/NamedTuple field of an exported class counts as
used when it is read as an attribute in such a module or anywhere in
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


def loads(node):
    """Names and attribute names that node loads anywhere inside it."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            used.add(sub.attr)
    return used


def bound_names(node):
    """Names that a top-level def, class or assignment binds; none for other statements."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {target.id for target in node.targets if isinstance(target, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def names_used():
    """Names the acceptance tests import or live package code loads, to a fixpoint."""
    used = names_imported_by_acceptance()
    pending = []
    for tree in package_modules():
        for node in tree.body:
            if names := bound_names(node):
                pending.append((names, loads(node)))
            else:
                used |= loads(node)
    while live := [loaded for names, loaded in pending if names & used]:
        pending = [(names, loaded) for names, loaded in pending if not names & used]
        used = used.union(*live)
    return used


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
    assert sorted(set(recipro.__all__) - names_used()) == []


def test_every_public_module_level_name_has_a_caller():
    used = names_used()
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in parse(path).body
        for name in bound_names(node)
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
