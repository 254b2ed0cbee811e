"""Golden output of every subcommand, in both formats.

`golden_machine.json` maps each command line (catalog path relative to
the repository root) to its exact `--format machine` stdout on the
bundled catalogs, domain refusals included as error payloads.
`golden_text.json` maps the same command lines to the default text
format's stdout, stderr and exit code, with `check`'s wall-clock time
masked.  Replaying both in-process pins the engine's answers and their
rendering byte for byte.  To re-record after an intended change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from ihspoly import load_geometry
from ihspoly.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_machine.json")
GOLDEN_TEXT = Path(__file__).with_name("golden_text.json")
ELAPSED = re.compile(r" in \d+\.\d\ds$", re.MULTILINE)

# A fixed class list per catalog: big, non-big, wall and interior
# classes, plus one class outside the effective cone (a refusal).
CLASSES = {
    "hilb2": ["H", "H + d", "3*H - 2*d", "2*H - d", "H - d", "d", "5*H + 3*d",
              "1/2 E + H", "d - H"],
    "k3_rank3": ["f + s", "2*f + s", "3*f + 2*s + c", "f", "s", "4*f + 3*s - c",
                 "2*f + 2*s + 1/2 c", "s - f"],
    "hilb2_k3": ["f + s", "3*f + 2*s + c + e", "2*f + s - e", "5*f + 2*s + 2*c + 1/2 e",
                 "f + c", "3*f + s - c - e", "s - f"],
    "fano_lines": ["A + B", "A", "2*A - B", "3*A + B", "B", "A - B"],
}


def command_lines() -> list[list[str]]:
    lines = []
    for catalog, classes in CLASSES.items():
        path = f"geometries/{catalog}.geom"
        primes = [p.name for p in load_geometry(ROOT / path).primes]
        for d in classes:
            lines += [["decompose", path, d], ["volume", path, d]]
            for cmd in ("polygon", "restricted-volume", "minkowski"):
                lines += [[cmd, path, d, p] for p in primes]
        for cmd in ("minkowski-basis", "cone-generators"):
            lines += [[cmd, path, p] for p in primes]
        lines.append(["chambers", path])
    for catalog in CLASSES:
        path = f"geometries/{catalog}.geom"
        lines += [["check", path, "--samples", "6", "--seed", str(seed)] for seed in (0, 1)]
    return lines


def machine_stdout(argv: list[str]) -> str:
    argv = [argv[0], str(ROOT / argv[1]), *argv[2:], "--format", "machine"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def text_result(argv: list[str]) -> dict:
    """Text-format stdout, stderr and exit code; `check`'s time masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    return {
        "stdout": ELAPSED.sub(" in N.NNs", out.getvalue()),
        "stderr": err.getvalue(),
        "exit": code,
    }


def test_golden_covers_the_command_list():
    expected = [shlex.join(argv) for argv in command_lines()]
    for path in (GOLDEN, GOLDEN_TEXT):
        assert list(json.loads(path.read_text(encoding="utf-8"))) == expected, path.name


@pytest.mark.parametrize("catalog", sorted(CLASSES))
def test_golden_machine_output_byte_identical(catalog):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for line, expected in golden.items():
        argv = shlex.split(line)
        if argv[1] == f"geometries/{catalog}.geom":
            assert machine_stdout(argv) == expected, line


@pytest.mark.parametrize("catalog", sorted(CLASSES))
def test_golden_text_output_byte_identical(catalog):
    golden = json.loads(GOLDEN_TEXT.read_text(encoding="utf-8"))
    for line, expected in golden.items():
        argv = shlex.split(line)
        if argv[1] == f"geometries/{catalog}.geom":
            assert text_result(argv) == expected, line


def _record(path: Path, render) -> None:
    recorded = {shlex.join(argv): render(argv) for argv in command_lines()}
    path.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record(GOLDEN, machine_stdout)
    _record(GOLDEN_TEXT, text_result)
