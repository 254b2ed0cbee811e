"""Rules the engine's source keeps, checked on its syntax trees.

The package has no runtime dependency: every import is relative or from
the standard library.  Its arithmetic is exact: the only floats are the
display approximations and SVG coordinates in `view.py`, the advisory
"float" field of `report.surd_json`, and the conversion `Surd.__float__`
that produces them.  Data derived from a catalog is kept on the
`Geometry` as cached properties, and only `geometry.py` fills them.  A
function has one module-level name, so a tracer that wraps module
attributes counts its calls under that name alone.  Negative definiteness has one path, the Schur steps of the
support records: `linalg.inertia` serves only the lattice's signature
check.  A step through a cone has one min-ratio, `linprog.max_step`,
which serves the polyhedral threshold and the Minkowski walk.  The CLI and the renderer load no computation layer on import,
so each subcommand loads only the layers its handler imports, and the
CLI loads the text view only where it renders text or SVG.  Polygons
have one representation, the integer frame: polygon2d keeps no Surd-pair
hull, and no engine module has a root finder, so okounkov chooses the
threshold's root by sign, never by ordering roots.  No loop runs on a
constant true test, and Surd orders two radicals in closed form, with no
interval refinement.  The self-checks build their results in one
runner, and no closure there binds a loop variable through a default
argument.  No module imports `dataclasses`, and none calls `id()`, so
no address enters a key or an answer.
Every `ConsistencyError` the engine raises is pinned by a test that
asserts its message, except the three loop caps no catalog can reach.
The test modules share their oracles and catalog families through
oracles.py and families.py alone: none imports another test module or
the benchmark.
"""

import ast
import re
import sys
from functools import cached_property
from pathlib import Path

import pytest

from ihspoly.geometry import Geometry

SRC = Path(__file__).resolve().parents[1] / "src" / "ihspoly"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(p for p in Path(__file__).resolve().parent.glob("*.py") if p.name != Path(__file__).name)
CACHES = {name for name, v in vars(Geometry).items() if isinstance(v, cached_property)}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _float_sources(tree: ast.Module) -> set[int]:
    """Ids of the nodes inside `Surd.__float__` and inside the value of
    `surd_json`'s advisory "float" field."""
    inside: set[int] = set()
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name == "Surd":
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__float__":
                    inside |= {id(node) for node in ast.walk(item)}
        elif isinstance(top, ast.FunctionDef) and top.name == "surd_json":
            for node in ast.walk(top):
                if isinstance(node, ast.Dict):
                    for key, value in zip(node.keys, node.values):
                        if isinstance(key, ast.Constant) and key.value == "float":
                            inside |= {id(n) for n in ast.walk(value)}
    return inside


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "surd.py", "report.py", "view.py", "cli.py"}


def _absolute_imports(path: Path):
    """(line, module) for every absolute import in the module at path."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    for line, name in _absolute_imports(path):
        assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}:{line} imports {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """Records are NamedTuples or small immutable classes: dataclasses
    would load inspect, ast, dis and tokenize into every CLI child."""
    for line, name in _absolute_imports(path):
        assert name.split(".")[0] != "dataclasses", f"{path.name}:{line} imports {name}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "view.py"], ids=lambda p: p.name
)
def test_no_floats_outside_display(path):
    tree = _tree(path)
    exempt = _float_sources(tree)
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


def _names(tree, name: str) -> bool:
    """Whether the tree names `name`: as a name, an attribute or an import."""
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
        for node in ast.walk(tree)
    )


def test_inertia_serves_only_the_lattice():
    """Outside linalg.py only lattice.py names `inertia`, so no second
    negative-definiteness test sits beside the support records' Schur
    steps."""
    users = {p.name for p in MODULES if p.name != "linalg.py" and _names(_tree(p), "inertia")}
    assert users == {"lattice.py"}


def test_max_step_is_the_one_min_ratio():
    """Outside linprog.py exactly okounkov.py, for the polyhedral
    threshold, and minkowski.py, for the walk through Mov, name
    `max_step`."""
    users = {p.name for p in MODULES if p.name != "linprog.py" and _names(_tree(p), "max_step")}
    assert users == {"minkowski.py", "okounkov.py"}


def _layers_bound(node, prune) -> set[str]:
    """The ihspoly modules bound by relative imports under node, not
    looking inside a node that prune accepts."""
    if prune(node):
        return set()
    found = set()
    if isinstance(node, ast.ImportFrom) and node.level:
        found = {node.module} if node.module else {alias.name for alias in node.names}
    for child in ast.iter_child_nodes(node):
        found |= _layers_bound(child, prune)
    return found


def test_cli_binds_no_computation_layer_at_module_level():
    """Outside its handlers, cli.py imports only the errors, the catalog
    reader and the payload builders; each handler imports the layers it
    runs, and the text view is imported where text or SVG is rendered."""
    tree = _tree(SRC / "cli.py")

    def in_function(node) -> bool:
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))

    assert _layers_bound(tree, in_function) == {"errors", "geometry", "report"}
    assert {"zariski", "okounkov", "minkowski", "checks", "view"} <= _layers_bound(tree, lambda node: False)


def test_report_imports_only_geometry_and_lattice_at_runtime():
    """Every other layer report.py names is for annotations only, under
    `if TYPE_CHECKING:`."""

    def type_checking(node) -> bool:
        return isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"

    assert _layers_bound(_tree(SRC / "report.py"), type_checking) == {"geometry", "lattice"}


def test_polygons_have_one_representation():
    """polygon2d defines no convex_hull or cross, which are the tests'
    canonical-form oracle, and no module under src/ defines or names
    quadratic_roots or smallest_positive_root, the tests' threshold
    oracle."""
    defined = {node.name for node in _tree(SRC / "polygon2d.py").body if hasattr(node, "name")}
    assert not defined & {"convex_hull", "cross"}
    for path in MODULES:
        named = set()
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        assert not named & {"quadratic_roots", "smallest_positive_root"}, path.name


def test_no_test_module_imports_another():
    """Test modules share helpers only through oracles.py and families.py:
    no tests/*.py imports a test_* module, at any depth, function bodies
    included, and none imports the benchmark."""
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for line, name in _absolute_imports(path):
            top = name.split(".")[0]
            assert not top.startswith("test_"), f"{path.name}:{line} imports {name}"
            assert top != "perfbench", f"{path.name}:{line} imports {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unconditional_while(path):
    """No loop runs until something inside it happens to break out: a
    `while` tests a condition, never a constant true value."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.While):
            constant = isinstance(node.test, ast.Constant) and bool(node.test.value)
            assert not constant, f"{path.name}:{node.lineno} loops on a constant"


def test_surd_orders_without_refinement():
    """Surd orders two radicals by one squaring: surd.py defines none of
    the interval-refinement helpers that once did it."""
    defined = {node.name for node in _tree(SRC / "surd.py").body if hasattr(node, "name")}
    assert not defined & {"_lt_mixed", "_surd_gap_sign", "_is_exact_zero", "_sqrt_bounds"}


def test_checks_build_results_in_one_runner():
    """checks.py calls CheckResult in one function, the runner, and no
    nested function or lambda binds loop variables through default
    arguments: each check is a predicate over its cases."""
    tree = _tree(SRC / "checks.py")
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "CheckResult"
            ):
                callers.add(getattr(top, "name", None))
    assert callers == {"_check"}
    for top in tree.body:
        for node in ast.walk(top):
            if node is top or not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            assert not args.defaults and not any(args.kw_defaults), (
                f"checks.py:{node.lineno} takes default arguments"
            )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_address_enters_a_key_or_an_answer(path):
    """No module calls id(): a memory address in a key steers a dict's
    probe sequence, so the work done would change from process to
    process; memos key by value, as Geometry.kept and run_checks do."""
    for node in ast.walk(_tree(path)):
        call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
        assert not call, f"{path.name}:{node.lineno} calls id()"


# Each cap is the exit of a loop whose support or null set grows every
# round that does not end it, within the catalog: it is never reached.
LOOP_EXITS = {
    ("zariski.py", "Zariski support enlargement did not stabilize"),
    ("okounkov.py", "chamber walk exceeded the iteration cap"),
    ("minkowski.py", "minkowski decomposition exceeded the iteration cap"),
}


def _consistency_raises():
    """(module, line, leading literal, follows a loop) for every
    `raise ConsistencyError(...)` in src/; the leading literal is the
    message's text before its first replacement field."""
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                if not isinstance(stmts, list):
                    continue
                for i, stmt in enumerate(stmts):
                    exc = stmt.exc if isinstance(stmt, ast.Raise) else None
                    if not (isinstance(exc, ast.Call) and ast.unparse(exc.func) == "ConsistencyError"):
                        continue
                    message = exc.args[0] if exc.args else None
                    if isinstance(message, ast.JoinedStr):
                        message = message.values[0]
                    literal = message.value if isinstance(message, ast.Constant) else ""
                    yield path.name, stmt.lineno, literal, i > 0 and isinstance(stmts[i - 1], ast.For)


def _test_strings() -> list[str]:
    """Every string literal of the other test modules that is not a
    docstring, with regex escapes undone and a leading ^ dropped."""
    found = []
    for path in TESTS:
        tree = _tree(path)
        bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in bare:
                found.append(re.sub(r"\\(.)", r"\1", node.value).removeprefix("^"))
    return found


def test_every_consistency_error_is_asserted():
    """A test asserts every catalog inconsistency the engine can report:
    some test string starts with each message's leading literal.  The
    loop caps are exempt, and each stays the statement after its loop."""
    strings = _test_strings()
    exits = set()
    for module, line, literal, after_loop in _consistency_raises():
        if (module, literal) in LOOP_EXITS:
            assert after_loop, f"{module}:{line} is no longer its loop's exit"
            exits.add((module, literal))
            continue
        assert literal.strip(), f"{module}:{line} raises a message with no leading literal"
        assert any(s.startswith(literal) for s in strings), f"{module}:{line}: no test asserts {literal!r}"
    assert exits == LOOP_EXITS
