"""List the functions of src/ihspoly that no user-facing path reaches.

Runs in one process under sys.setprofile: every golden command line in
both formats, `polygon --svg`, a 100-sample `check` on hilb2 and the
four demos.  Prints each function of src/ihspoly that none of them
calls, as module:line qualname.  Standard library only; not a test.

    python tools/reach.py
"""

import contextlib
import inspect
import io
import json
import runpy
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ihspoly"
sys.path.insert(0, str(SRC.parent))

from ihspoly.cli import main  # noqa: E402


def functions(code):
    """(file, first line, qualname) of every function in a code tree,
    class bodies and comprehensions left out."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const.co_filename, const.co_firstlineno, const.co_qualname
            yield from functions(const)


def run_all(tmp: str) -> None:
    hilb2 = str(ROOT / "geometries" / "hilb2.geom")
    for line in json.loads((ROOT / "tests" / "golden_machine.json").read_text(encoding="utf-8")):
        cmd, path, *rest = shlex.split(line)
        main([cmd, str(ROOT / path), *rest, "--format", "machine"])
        main([cmd, str(ROOT / path), *rest])
    main(["polygon", hilb2, "H", "E", "--svg", str(Path(tmp) / "p.svg")])
    main(["check", hilb2, "--samples", "100"])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


if __name__ == "__main__":
    reached = set()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        tempfile.tempdir = tmp  # the demos' temporary files land here too
        sys.setprofile(lambda frame, event, arg: event == "call" and reached.add(
            (frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_qualname)))
        try:
            run_all(tmp)
        finally:
            sys.setprofile(None)
            tempfile.tempdir = None
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for _, line, name in sorted(set(functions(code)) - reached, key=lambda f: f[1]):
            print(f"{path.stem}:{line} {name}")
