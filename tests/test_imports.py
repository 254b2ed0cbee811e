"""Import laziness: a CLI subcommand loads only the layers it runs, and
neither `dataclasses` nor `inspect`; the package's public names resolve
on first use to their home modules' objects."""

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


ENGINE = {"okounkov", "minkowski", "checks", "polygon2d", "surd"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["decompose", HILB2, "3*H - E"], ENGINE),
        (["volume", HILB2, "3*H - E"], ENGINE),
        (["restricted-volume", HILB2, "3*H - E", "E'"], ENGINE),
        (["polygon", HILB2, "3*H - E", "E'"], {"checks", "minkowski"}),
        (["cone-generators", HILB2, "E'"], {"checks", "minkowski"}),
    ],
    ids=["decompose", "volume", "restricted-volume", "polygon", "cone-generators"],
)
def test_subcommand_loads_only_its_layers(argv, absent):
    loaded = cli_loads(*argv)
    assert {"report", "geometry", "zariski"} <= loaded
    assert not loaded & absent


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


def test_check_loads_its_layers():
    assert ENGINE <= cli_loads("check", HILB2, "--samples", "2")


def test_package_import_loads_no_layer():
    assert loaded_after(f"import ihspoly; {SHOW}")[0] == set()
    loaded = loaded_after(f"import ihspoly; ihspoly.decompose; {SHOW}")[0]
    assert loaded == {"errors", "lattice", "linalg", "linprog", "geometry", "zariski"}


def test_public_names_resolve_to_their_home_objects():
    names = [name for name in ihspoly.__all__ if name != "__version__"]
    assert names == sorted(names) and len(names) == 55
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
