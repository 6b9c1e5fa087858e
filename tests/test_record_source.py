"""Records state their fields once, in ``__slots__``: ``zetaforge.Record``
builds every record from them.  A record's own ``__init__`` only checks or
normalises its input, then calls the base's, so no record class sets a
field itself."""

import ast
import pathlib

import zetaforge

BASES = {"Record", "FrozenRecord"}


def _record_classes():
    """(module, class node) of every record class outside the base module."""
    package = pathlib.Path(zetaforge.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            bases = {getattr(base, "id", "") for base in getattr(node, "bases", ())}
            if isinstance(node, ast.ClassDef) and bases & BASES:
                yield path.name, node


def _sets_a_field(node) -> bool:
    """An ``object.__setattr__``/``setattr`` call or a ``self.<name> =``."""
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "attr", getattr(func, "id", "")) in ("__setattr__", "setattr")
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(
        isinstance(t, ast.Attribute) and getattr(t.value, "id", "") == "self"
        for t in targets if t is not None
    )


def _calls_base_init(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", "") == "__init__"
            and isinstance(node.func.value, ast.Call)
            and getattr(node.func.value.func, "id", "") == "super"
        ):
            return True
    return False


def test_every_record_is_found():
    assert len(list(_record_classes())) == 13


def test_no_record_sets_its_own_fields():
    setters = [
        f"{module}:{cls.name}:{node.lineno}"
        for module, cls in _record_classes()
        for node in ast.walk(cls)
        if _sets_a_field(node)
    ]
    assert setters == []


def test_record_inits_call_the_base():
    inits = [
        (f"{module}:{cls.name}", _calls_base_init(func))
        for module, cls in _record_classes()
        for func in cls.body
        if isinstance(func, ast.FunctionDef) and func.name == "__init__"
    ]
    assert inits and all(calls for _, calls in inits), inits
