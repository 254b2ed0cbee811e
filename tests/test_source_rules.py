"""Rules the engine's source keeps, checked on its syntax trees.

The package has no runtime dependency: every import is relative or from
the standard library.  Its arithmetic is exact: the only floats are the
display approximations and SVG coordinates in `report.py`, and the
conversion `Surd.__float__` that produces them.  Data derived from a
catalog is kept on the `Geometry` as cached properties, and only
`geometry.py` fills them.  A function has one module-level name, so a
tracer that wraps module attributes counts its calls under that name
alone.  Negative definiteness has one path, the Schur steps of the
support records: `linalg.inertia` serves only the lattice's signature
check.
"""

import ast
import sys
from functools import cached_property
from pathlib import Path

import pytest

from ihspoly.geometry import Geometry

SRC = Path(__file__).resolve().parents[1] / "src" / "ihspoly"
MODULES = sorted(SRC.glob("*.py"))
CACHES = {name for name, v in vars(Geometry).items() if isinstance(v, cached_property)}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _surd_float_nodes(tree: ast.Module) -> set[int]:
    """Ids of the nodes inside `Surd.__float__`."""
    inside: set[int] = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "Surd":
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__float__":
                    inside |= {id(node) for node in ast.walk(item)}
    return inside


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "surd.py", "report.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {name}"
            )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "report.py"], ids=lambda p: p.name
)
def test_no_floats_outside_display(path):
    tree = _tree(path)
    exempt = _surd_float_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
        call = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
        assert not (literal or call), f"{path.name}:{node.lineno} uses a float"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "geometry.py"], ids=lambda p: p.name
)
def test_geometry_caches_written_only_in_geometry(path):
    """Derived data on a Geometry is filled by geometry.py alone: no other
    module assigns into, updates or setdefaults one of its cached
    properties."""
    assert "support_projectors" in CACHES

    def is_cache(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in CACHES

    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                for t in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                    written = t.value if isinstance(t, ast.Subscript) else t
                    assert not is_cache(written), f"{path.name}:{node.lineno} writes a cache"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert not (
                node.func.attr in ("update", "setdefault") and is_cache(node.func.value)
            ), f"{path.name}:{node.lineno} fills a cache"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_have_one_module_level_name(path):
    """No module binds a function it defines under a second name, as in
    `frame_sign = _sign`: perfbench's tracer wraps every module attribute
    bound to a function, so such an alias would count the helper's
    internal calls under the public name."""
    tree = _tree(path)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value = node.value
        else:
            continue
        values = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
        for v in values:
            assert not (isinstance(v, ast.Name) and v.id in defined), (
                f"{path.name}:{node.lineno} binds {v.id} under a second name"
            )


def test_inertia_serves_only_the_lattice():
    """Outside linalg.py only lattice.py names `inertia`, so no second
    negative-definiteness test sits beside the support records' Schur
    steps."""

    def names_inertia(tree) -> bool:
        return any(
            (isinstance(node, ast.Name) and node.id == "inertia")
            or (isinstance(node, ast.Attribute) and node.attr == "inertia")
            or (isinstance(node, ast.alias) and node.name == "inertia")
            for node in ast.walk(tree)
        )

    users = {p.name for p in MODULES if p.name != "linalg.py" and names_inertia(_tree(p))}
    assert users == {"lattice.py"}
