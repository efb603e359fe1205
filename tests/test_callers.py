"""Every function and class in ``src/anyons`` has a caller in the program.

A name defined in ``src/anyons/*.py`` (``__init__.py`` and dunders aside)
must occur, as a whole word, somewhere in ``src/anyons`` (without
``__init__.py``) or ``demos/`` other than on its own ``def``/``class`` line.
A helper only the tests use belongs in ``tests/oracles.py`` or nowhere: the
package exports in ``__init__.py`` do not count as callers.  Mentions in
docstrings and comments count, as they do for ``grep -rw``.
"""

import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

_DEFINITION = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)", re.MULTILINE)


def uncalled_names(root: pathlib.Path) -> list[str]:
    """Names defined in ``root/src/anyons`` that no other line of the program names."""
    modules = sorted(p for p in (root / "src" / "anyons").glob("*.py") if p.name != "__init__.py")
    texts = [p.read_text() for p in modules + sorted((root / "demos").glob("*.py"))]
    definitions = Counter(name for text in texts for name in _DEFINITION.findall(text))
    defined = {name for text in texts[:len(modules)] for name in _DEFINITION.findall(text)}
    return [
        name for name in sorted(defined)
        if not (name.startswith("__") and name.endswith("__"))
        and sum(len(re.findall(rf"(?<!\w){name}(?!\w)", text)) for text in texts)
        == definitions[name]
    ]


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
        "    return 1\n\n\n"
        "def lonely():\n"
        "    return used_too()\n\n\n"
        "def used_too():\n"
        "    return 2\n"
    )
    (demos / "demo.py").write_text("from anyons import Shape\nShape()\n")
    assert uncalled_names(tmp_path) == ["lonely", "unused_method"]
