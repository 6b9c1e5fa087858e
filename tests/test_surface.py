"""Public surface guard: every public name of the numeric modules has a
caller, or is a test-only route or reference named on one allow-list.

A module's public names are those in its ``__all__`` and its public
top-level ``def`` and ``class`` statements.  A name has a caller when it is
loaded somewhere in ``src/zetaforge/`` or in a non-test file of
``perfbench/``: read as a name or an attribute, or imported by
``from ... import``.  Assigning it (``Rat = Fraction``) or listing it in
``__all__`` does not count.  Names are matched by identifier, not resolved
to their module.
"""

import ast
import pathlib

import pytest

import zetaforge

PACKAGE = pathlib.Path(zetaforge.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("exact", "series", "aperynum", "specval", "spectra", "resum", "padic")

# public names whose only callers are tests, each mapped to the test files
# that use it as a route of a check or as the reference of one
ALLOWED = {
    "fps_qrm": ("tests/test_resum.py",),
    "fps_ncho": ("tests/test_resum.py",),
    "rabi_bernoulli_numeric": ("tests/test_spectra.py",),
    "spectral_zeta_weyl": ("tests/test_spectra.py", "tests/test_resum.py"),
    "r42_order_of_contact": ("tests/test_specval.py",),
    "padic_hurwitz_shifted": ("tests/test_padic.py",),
    "w2_hypergeometric_form": ("tests/test_series.py",),
    "ncho_truncated_matrix": ("tests/test_spectra.py", "perfbench/test_oracles.py"),
    "qrm_truncated_matrix": ("tests/test_spectra.py", "perfbench/test_oracles.py"),
}


def _public_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", "") == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _loaded(path: pathlib.Path) -> set:
    """Identifiers that the file reads or imports by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _surface() -> list:
    """(module, public name) over MODULES."""
    return [
        (module, name)
        for module in MODULES
        for name in sorted(_public_names(ast.parse((PACKAGE / f"{module}.py").read_text())))
    ]


def _called() -> set:
    paths = list(PACKAGE.rglob("*.py")) + [
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
    ]
    return set().union(*(_loaded(p) for p in paths))


def test_every_public_name_has_a_caller_or_an_allowed_test_oracle():
    called = _called()
    orphans = [
        f"{module}.{name}" for module, name in _surface()
        if name not in called and name not in ALLOWED
    ]
    assert orphans == []


def test_allowed_names_are_public_and_have_no_caller():
    surface, called = {name for _, name in _surface()}, _called()
    assert sorted(n for n in ALLOWED if n not in surface) == []
    assert sorted(n for n in ALLOWED if n in called) == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_each_allowed_name_is_used_by_its_listed_files(name):
    assert [f for f in ALLOWED[name] if name not in _loaded(ROOT / f)] == []
