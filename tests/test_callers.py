"""Every function and class in ``src/anyons`` has a caller in the program.

A name defined in ``src/anyons/*.py`` (``__init__.py`` and dunders aside)
counts as called only where code names it: an ``ast.Name`` or
``ast.Attribute`` node, somewhere in ``src/anyons`` (without
``__init__.py``) or ``demos/``.  Mentions in docstrings, comments and
strings do not count, nor do imports and the package exports in
``__init__.py``: a helper only the tests use belongs in
``tests/oracles.py`` or nowhere.  Methods are told apart by name only, so a
method that shares its name with a called one passes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def uncalled_names(root: pathlib.Path) -> list[str]:
    """Names defined in ``root/src/anyons`` that no code of the program names."""
    modules = sorted(p for p in (root / "src" / "anyons").glob("*.py") if p.name != "__init__.py")
    trees = [ast.parse(p.read_text()) for p in modules + sorted((root / "demos").glob("*.py"))]
    defined = {node.name for tree in trees[:len(modules)] for node in ast.walk(tree)
               if isinstance(node, _DEFINITIONS)}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(name for name in defined - named
                  if not (name.startswith("__") and name.endswith("__")))


def test_every_definition_has_a_caller():
    assert uncalled_names(ROOT) == []


def test_the_scan_flags_a_name_only_its_definition_mentions(tmp_path):
    package, demos = tmp_path / "src" / "anyons", tmp_path / "demos"
    package.mkdir(parents=True)
    demos.mkdir()
    (package / "__init__.py").write_text("from .mod import lonely, used, Shape\n")
    (package / "mod.py").write_text(
        "class Shape:\n"
        "    def __init__(self):\n"
        "        pass\n\n"
        "    def unused_method(self):\n"
        "        return used()\n\n\n"
        "def used():\n"
        '    """Calls nothing; ``documented()`` is only named here."""\n'
        "    return 1  # nor is documented() called here\n\n\n"
        "def documented():\n"
        "    return 'documented'\n\n\n"
        "def lonely():\n"
        "    return used_too()\n\n\n"
        "def used_too():\n"
        "    return 2\n"
    )
    (demos / "demo.py").write_text("from anyons import Shape\nShape()\n")
    assert uncalled_names(tmp_path) == ["documented", "lonely", "unused_method"]
