"""Every module-level import of the package is read, every private
module-level name is read, and no module uses another object's private
attributes.

The project has no linter, so these are its checks.  In each module of
``src/mrwpflood`` but ``__init__.py`` (whose imports are its exports),
every name that a module-level import binds must be read somewhere in the
module.  A name read only in an annotation, quoted or not, counts as read.
In every module, each underscore name (not a dunder) that a module-level
definition or assignment binds must be read somewhere in the package: a
helper left behind by its last caller fails.  In every module, an
attribute whose name starts with an underscore (not a dunder) is used
only on ``self`` or ``cls``: a policy known to one class stays behind it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mrwpflood"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by a module-level import, with the import's line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, the names in quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def test_the_scan_covers_the_package():
    assert {"cli.py", "core.py", "mobility.py"} <= {p.name for p in MODULES}


def test_the_scan_sees_reads_in_code_and_annotations():
    tree = ast.parse(
        "import math\nimport os.path\nfrom typing import Iterable as It\n"
        "from a import B, C, D\n"
        "def f(x: 'B') -> C:\n    return os.path.join(math.pi)\n"
    )
    assert set(imported_names(tree)) == {"math", "os", "It", "B", "C", "D"}
    assert set(imported_names(tree)) - read_names(tree) == {"It", "D"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in read_names(tree)
    }
    assert not unused, f"{path.name} imports names it never reads: {sorted(unused)}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each underscore name (not a dunder) bound by a module-level
    definition or assignment, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                bound[name] = node.lineno
    return bound


@pytest.fixture(scope="module")
def package_reads() -> set[str]:
    """Every name that some module of the package reads."""
    return set().union(*(read_names(ast.parse(p.read_text())) for p in ALL_MODULES))


def test_the_definition_scan_sees_functions_classes_and_assignments():
    tree = ast.parse(
        "import _a\ndef _f(): pass\nclass _C: pass\n_x, (_y, z) = 1, (2, 3)\n"
        "_t: int = 4\n__all__ = []\ndef g():\n    _local = 5\n"
    )
    assert private_definitions(tree) == {"_f": 2, "_C": 3, "_x": 4, "_y": 4, "_t": 5}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_every_private_module_name_is_read(path, package_reads):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = {
        f"{name} (line {line})"
        for name, line in private_definitions(tree).items()
        if name not in package_reads
    }
    assert not unread, f"{path.name} defines private names nothing reads: {sorted(unread)}"


def private_uses(tree: ast.AST) -> list[str]:
    """Each use of an underscore attribute on anything but ``self`` or
    ``cls``, as ``"name._attr (line N)"``."""
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.endswith("__"):
            continue  # a dunder is public protocol
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        uses.append(f"{ast.unparse(owner)}.{node.attr} (line {node.lineno})")
    return uses


def test_the_private_scan_sees_uses_on_other_objects():
    tree = ast.parse(
        "class A:\n    def f(self, other):\n"
        "        self._x = cls._y = other.__len__\n"
        "        return other._z + g()._w + self.__private\n"
    )
    assert private_uses(tree) == ["other._z (line 4)", "g()._w (line 4)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_private_attribute_of_another_object(path):
    uses = private_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name} uses private attributes of other objects: {uses}"
