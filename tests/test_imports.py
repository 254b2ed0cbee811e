"""Import laziness: a CLI subcommand loads only the layers it runs, the
text view only for text output and SVG, and neither `dataclasses` nor
`inspect`; the package's public names resolve on first use to their
home modules' objects."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ihspoly

ROOT = Path(__file__).resolve().parents[1]
HILB2 = str(ROOT / "geometries" / "hilb2.geom")
HILB2_K3 = str(ROOT / "geometries" / "hilb2_k3.geom")


def show(test: str) -> str:
    """Code that prints, on stderr as a JSON list, the loaded modules m
    for which test holds, ihspoly's without the package prefix."""
    return ("import json, sys; print(json.dumps([m.removeprefix('ihspoly.') for m in sys.modules "
            f"if {test}]), file=sys.stderr)")


def run_cli(test: str) -> str:
    """`python -m ihspoly.cli ARGS`, then show(test)."""
    return f"""import runpy
try:
    runpy.run_module("ihspoly.cli", run_name="__main__", alter_sys=True)
finally:
    {show(test)}"""


LAYERS = "m.startswith('ihspoly.')"  # the loaded ihspoly layers
SHOW, RUN_CLI = show(LAYERS), run_cli(LAYERS)


def loaded_after(code: str, *argv: str) -> tuple[set[str], str]:
    """The modules a fresh interpreter has loaded after running code
    with argv, as code's show line prints them, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.strip().splitlines()[-1])), done.stdout


def cli_loads(*argv: str, code: str = RUN_CLI) -> set[str]:
    loaded, out = loaded_after(code, *argv, "--format", "machine")
    payload = json.loads(out)
    assert payload["status"] == "ok" and payload["command"] == argv[0]
    assert payload.get("passed", True)
    return loaded


# what every subcommand loads: the catalog, the decomposition, the payloads
PAYLOAD = {"errors", "lattice", "linalg", "linprog", "geometry", "zariski", "report"}
POLYGON = {"okounkov", "polygon2d", "surd"}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["decompose", HILB2, "3*H - E"], PAYLOAD),
        (["volume", HILB2, "3*H - E"], PAYLOAD),
        (["restricted-volume", HILB2, "3*H - E", "E'"], PAYLOAD),
        (["polygon", HILB2, "3*H - E", "E'"], PAYLOAD | POLYGON),
        (["minkowski", HILB2, "3*H - E", "E'"], PAYLOAD | {"minkowski"}),
        (["minkowski-basis", HILB2, "E'"], PAYLOAD | {"minkowski"}),
        (["chambers", HILB2_K3], PAYLOAD | {"minkowski"}),
        (["cone-generators", HILB2, "E'"], PAYLOAD | {"minkowski"}),
        (["check", HILB2, "--samples", "2"], PAYLOAD | POLYGON | {"minkowski", "checks"}),
    ],
    ids=["decompose", "volume", "restricted-volume", "polygon", "minkowski", "minkowski-basis",
         "chambers", "cone-generators", "check"],
)
def test_subcommand_loads_only_its_layers(argv, layers):
    # A machine run loads exactly the layers its handler runs, and never
    # the text view: a child compiles every module it loads.
    assert cli_loads(*argv) == layers


def test_text_view_loads_only_for_text_and_svg(tmp_path):
    loaded, out = loaded_after(RUN_CLI, "decompose", HILB2, "3*H - E")
    assert loaded == PAYLOAD | {"view"} and out.startswith("geometry")
    svg = tmp_path / "polygon.svg"
    assert cli_loads("polygon", HILB2, "3*H - E", "E'", "--svg", str(svg)) == PAYLOAD | POLYGON | {"view"}
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", HILB2, "3*H - E"],
        ["polygon", HILB2, "3*H - E", "E'"],
        ["chambers", HILB2_K3],
        ["cone-generators", HILB2, "E'"],
    ],
    ids=["decompose", "polygon", "chambers", "cone-generators"],
)
def test_subcommand_loads_neither_dataclasses_nor_inspect(argv):
    # The records are NamedTuples and small classes: importing
    # dataclasses would also load inspect, ast, dis and tokenize.
    assert cli_loads(*argv, code=run_cli("m in ('dataclasses', 'inspect')")) == set()


def test_package_import_loads_no_layer():
    assert loaded_after(f"import ihspoly; {SHOW}")[0] == set()
    loaded = loaded_after(f"import ihspoly; ihspoly.decompose; {SHOW}")[0]
    assert loaded == {"errors", "lattice", "linalg", "linprog", "geometry", "zariski"}


def test_public_names_resolve_to_their_home_objects():
    names = [
        "BBFLattice", "BasisElement", "BreakpointTrace", "CheckResult", "ConePoint",
        "ConsistencyError", "DiscriminantMixError", "DivClass", "DomainError", "Geometry",
        "GeometryError", "IHSError", "MinkowskiDecomposition", "NOPolygon", "Prime", "Surd",
        "WalkSegment", "ZariskiDecomposition", "chamber_closure_rays", "chamber_generator",
        "chamber_id", "chamber_walk", "cone_contains", "cone_generators", "decompose",
        "divisorial_base_loci", "enumerate_chambers", "format_divisor", "geometry_to_json",
        "is_big", "is_movable", "is_pseudo_effective", "isotropic_extremal_rays",
        "load_geometry", "minkowski_basis", "minkowski_decompose", "movable_cone_rays",
        "mu_threshold", "null_set", "parse_divisor", "parse_geometry", "polygon",
        "polygon_contains", "polygon_minkowski_sum", "polygon_scale", "restricted_volume",
        "run_checks", "sample_big_classes", "volume",
    ]
    assert ihspoly.__all__ == [*names, "__version__"]
    for name in names:
        home = import_module(f"ihspoly.{ihspoly._HOME[name]}")
        assert getattr(ihspoly, name) is getattr(home, name), name
    namespace = {}
    exec("from ihspoly import *", namespace)
    assert set(ihspoly.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ihspoly, name) for name in ihspoly.__all__)
    assert set(ihspoly.__all__) <= set(dir(ihspoly))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ihspoly.no_such_name
