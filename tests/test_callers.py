"""Every function, class and assigned name in ``src/anyons`` has a caller in
the program.

A name defined in ``src/anyons/*.py`` (``__init__.py`` and dunders aside),
by ``def``, by ``class`` or by an assignment at module level or in a class
body, counts as called only where code reads it: an ``ast.Name`` or
``ast.Attribute`` node that is not an assignment target, somewhere in
``src/anyons`` (without ``__init__.py``) or ``demos/``.  Mentions in
docstrings, comments and strings do not count, nor do imports and the
package exports in ``__init__.py``: a helper only the tests use belongs in
``tests/oracles.py`` or nowhere.  Methods are told apart by name only, so a
method that shares its name with a called one passes.

Likewise every parameter default is set by some call of the program: a
default that no call overrides is a constant, not an option.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _program(root: pathlib.Path) -> tuple[list[pathlib.Path], list[ast.Module]]:
    """The modules of ``root/src/anyons`` (without ``__init__.py``), and the
    syntax trees of those modules followed by those of ``root/demos``."""
    modules = sorted(p for p in (root / "src" / "anyons").glob("*.py") if p.name != "__init__.py")
    return modules, [ast.parse(p.read_text()) for p in modules + sorted((root / "demos").glob("*.py"))]


def _assigned(tree: ast.Module) -> set[str]:
    """Names an ``Assign``, ``AnnAssign`` or ``AugAssign`` binds at module
    level or in a class body."""
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    names = set()
    for stmt in (stmt for body in bodies for stmt in body):
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        names |= {node.id for target in targets for node in ast.walk(target)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return names


def uncalled_names(root: pathlib.Path) -> list[str]:
    """Names defined in ``root/src/anyons`` that no code of the program names."""
    modules, trees = _program(root)
    defined = {node.name for tree in trees[:len(modules)] for node in ast.walk(tree)
               if isinstance(node, _DEFINITIONS)}
    for tree in trees[:len(modules)]:
        defined |= _assigned(tree)
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store)}
    return sorted(name for name in defined - named
                  if not (name.startswith("__") and name.endswith("__")))


def _defaults(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each parameter of ``fn`` that has a default.

    The position counts the caller's positional arguments, so a method's
    ``self`` or ``cls`` is not counted; it is None for a keyword-only one.
    """
    positional = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(fn.args.defaults)
    return ([(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def unset_defaults(root: pathlib.Path) -> list[str]:
    """``module.function(parameter)`` for each parameter default in
    ``root/src/anyons`` that no call of the program passes.

    A call passes a parameter by keyword, by position, or through ``*args``
    or ``**kwargs`` (which pass every one).  Calls are matched to
    definitions by name, as :func:`uncalled_names` does; a class's
    ``__init__`` is called by the class name.  Other dunders are not called
    by name and are left out.
    """
    modules, trees = _program(root)
    positions: dict[str, int] = defaultdict(int)  # most positional arguments
    keywords: dict[str, set[str]] = defaultdict(set)
    starred: set[str] = set()
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            starred.add(name)
        positions[name] = max(positions[name], len(node.args))
        keywords[name].update(kw.arg for kw in node.keywords)
    unset = []
    for path, tree in zip(modules, trees):
        methods = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, _FUNCTIONS):
                    methods[fn] = cls.name
        for fn in (n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)):
            cls = methods.get(fn)
            if fn.name.startswith("__") and fn.name.endswith("__") and fn.name != "__init__":
                continue
            called_as = cls if fn.name == "__init__" else fn.name
            if called_as in starred:
                continue
            qualname = f"{path.stem}.{cls}.{fn.name}" if cls else f"{path.stem}.{fn.name}"
            unset += [f"{qualname}({name})" for position, name in _defaults(fn, cls is not None)
                      if name not in keywords[called_as]
                      and (position is None or position >= positions[called_as])]
    return sorted(unset)


def test_every_definition_has_a_caller():
    assert uncalled_names(ROOT) == []


def test_every_default_is_set_by_a_caller():
    # the console script calls main() and the tests pass argv: the one
    # default that the program itself never sets
    assert unset_defaults(ROOT) == ["cli.main(argv)"]


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


def test_the_scan_flags_an_assigned_name_nothing_reads(tmp_path):
    package, demos = tmp_path / "src" / "anyons", tmp_path / "demos"
    package.mkdir(parents=True)
    demos.mkdir()
    (package / "__init__.py").write_text("from .mod import Grid, area\n")
    (package / "mod.py").write_text(
        "LIMIT = 10\n"
        "ORPHAN: int = 3  # only a test would read it\n"
        "TOTAL = 0\n"
        "TOTAL += LIMIT\n"
        "__all__ = ['Grid', 'area']\n\n\n"
        "class Grid:\n"
        "    size: int = 2\n"
        "    scale = 1.0\n\n"
        "    def index(self, x):\n"
        "        return x % self.size\n\n"
        "    cell_index = index\n\n\n"
        "def area(grid):\n"
        "    grid.scale = 2.0  # a store, not a read\n"
        "    return grid.index(LIMIT) * TOTAL\n"
    )
    (demos / "demo.py").write_text("from anyons import Grid, area\narea(Grid())\n")
    assert uncalled_names(tmp_path) == ["ORPHAN", "cell_index", "scale"]


def test_the_scan_flags_a_default_only_its_definition_uses(tmp_path):
    package, demos = tmp_path / "src" / "anyons", tmp_path / "demos"
    package.mkdir(parents=True)
    demos.mkdir()
    (package / "__init__.py").write_text("from .mod import Shape, area\n")
    (package / "mod.py").write_text(
        "class Shape:\n"
        "    def __init__(self, size=1, colour='red'):\n"
        "        self.size, self.colour = size, colour\n\n"
        "    def scaled(self, factor=2):\n"
        "        return Shape(self.size * factor)\n\n\n"
        "def area(shape, scale=1.0, *, unit='m', exact=False):\n"
        "    return shape.size * scale, unit, exact\n\n\n"
        "def paint(shape, colour='blue', *, layers=1):\n"
        "    return colour, layers\n\n\n"
        "def lonely(flag=False):\n"
        "    return flag\n\n\n"
        "def run(options):\n"
        "    return area(Shape(3).scaled(), 2.0, unit='cm'), paint(Shape(), **options)\n"
    )
    (demos / "demo.py").write_text("from anyons import Shape\nShape(colour='green')\n")
    assert unset_defaults(tmp_path) == [
        "mod.Shape.scaled(factor)", "mod.area(exact)", "mod.lonely(flag)",
    ]
