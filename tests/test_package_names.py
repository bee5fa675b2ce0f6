"""Every top-level function and class of the package has a caller outside
the tests, and every field of a package dataclass has a reader outside the
tests: a name that only tests reach is a helper to delete, or to list in
ALLOWED with the reason it stays.

A name counts as used when another top-level statement of a package module
or of a `perfbench/*.py` file names it, as a variable, an attribute or a
string (the tracer names its targets in strings). A field counts as read
when a statement of those files reads it as an attribute or names it in a
string. Matching is by name alone, so a name shared by two modules counts
for both.

No package module imports or reads another package module's `_`-prefixed
name: such a name is that module's own business, free to change without
notice to any other module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "celltide"

ALLOWED = {}


def _named(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unused_names() -> list:
    """`module.name` of each top-level function or class of the package that
    no other top-level statement of the package or the benchmark names."""
    statements = []  # (module, name defined or None, names used)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = (stmt.name if path.parent == PACKAGE and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None)
            statements.append((path.stem, defined, _named(stmt)))
    unused = []
    for i, (module, defined, _) in enumerate(statements):
        if defined is not None and not any(
                defined in used for j, (_, _, used) in enumerate(statements) if j != i):
            unused.append(f"{module}.{defined}")
    return unused


def test_every_package_name_has_a_caller_outside_the_tests():
    assert sorted(set(unused_names()) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_unused():
    assert sorted(set(ALLOWED) - set(unused_names())) == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields() -> list:
    """`module.Class.field` of each field of a package dataclass that no
    statement of the package or the benchmark reads."""
    fields, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read.add(sub.value)
        if path.parent == PACKAGE:
            fields += [(f"{path.stem}.{stmt.name}.{field.target.id}", field.target.id)
                       for stmt in tree.body if isinstance(stmt, ast.ClassDef)
                       and any(map(_is_dataclass, stmt.decorator_list))
                       for field in stmt.body if isinstance(field, ast.AnnAssign)]
    return [label for label, name in fields if name not in read]


def test_every_dataclass_field_is_read_outside_the_tests():
    assert unread_fields() == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads() -> list:
    """`module: other._name` for each `_`-prefixed name of another package
    module that a package module imports (`from .other import _name`) or reads
    as an attribute of an imported module (`other._name`)."""
    stems = {path.stem for path in PACKAGE.glob("*.py")}
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").split(".")[0] == "celltide")]
        modules = {alias.asname or alias.name for node in imports
                   if node.module in (None, "celltide") for alias in node.names
                   if alias.name in stems}
        found = {f"{(node.module or '__init__').split('.')[-1]}.{alias.name}"
                 for node in imports for alias in node.names if _private(alias.name)}
        found |= {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)}
        if found:
            reads.append(f"{path.stem}: {', '.join(sorted(found))}")
    return reads


def test_no_module_reads_another_modules_private_names():
    assert private_reads() == []
