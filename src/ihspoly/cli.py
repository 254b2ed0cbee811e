"""Command-line interface.

Every subcommand takes the geometry catalog path first, then its own
arguments; divisor classes are written in basis/prime names, e.g.
"3*H - 2*d" or "H + E".  Exit codes: 0 success, 2 unreadable input
(file, JSON, or divisor expression), 3 request outside the domain of
the operation or a contradictory catalog, 4 self-checks ran and failed.

Each subcommand builds only its machine payload.  With --format machine
the payload is printed as a single JSON object on stdout (errors
included, as {"status": "error", ...}); it carries no timing or
environment fields, so reruns on the same input are byte-identical.
The default text output is rendered from the same payload.

Each handler imports the layers it runs when it runs: `decompose` and
`volume` load no `okounkov`, `minkowski`, `checks` or `surd`, and
`cone-generators` no `okounkov`.  At module level this file binds only
`errors`, `geometry` and `report`; only text output and --svg load
`view`.  No subcommand loads the dataclass module or `inspect`.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import report
from .errors import ConsistencyError, DomainError, GeometryError
from .geometry import Geometry, load_geometry, parse_divisor

_PARSE, _DOMAIN, _CHECKS = 2, 3, 4


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="output style: human text (default) or deterministic JSON",
    )
    parser = argparse.ArgumentParser(
        prog="ihspoly",
        description="Exact Zariski chambers, polygons, and Minkowski bases "
        "for irreducible holomorphic symplectic geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("geometry", help="path to a geometry catalog (JSON)")
        return p

    p = add("decompose", "divisorial Zariski decomposition of a class")
    p.add_argument("divisor", help='class expression, e.g. "3*H - E"')

    p = add("polygon", "polygon of a class along a flag prime")
    p.add_argument("divisor")
    p.add_argument("prime", help="flag prime name")
    p.add_argument("--svg", metavar="PATH", help="also write an SVG rendering")

    p = add("volume", "volume via the Fujiki relation on the positive part")
    p.add_argument("divisor")

    p = add("restricted-volume", "restricted volume along a prime divisor")
    p.add_argument("divisor")
    p.add_argument("prime")

    p = add("minkowski", "decompose the positive part over a Minkowski basis")
    p.add_argument("divisor")
    p.add_argument("prime", help="flag prime name")

    p = add("minkowski-basis", "list the Minkowski basis of a flag prime")
    p.add_argument("prime", help="flag prime name")

    add("chambers", "list the Zariski chambers and their closures")

    p = add("cone-generators", "rational generators of the global polygon cone")
    p.add_argument("prime", help="flag prime name")

    p = add("check", "run randomized structural self-checks")
    p.add_argument("--samples", type=int, default=100, help="big classes to sample")
    p.add_argument("--seed", type=int, default=0, help="sampler seed")
    return parser


def _cmd_decompose(geom: Geometry, args: argparse.Namespace) -> dict:
    from .zariski import decompose
    d = parse_divisor(geom, args.divisor)
    return report.decomposition_json(geom, d, decompose(geom, d))


def _cmd_polygon(geom: Geometry, args: argparse.Namespace) -> dict:
    from .okounkov import polygon
    d = parse_divisor(geom, args.divisor)
    poly = polygon(geom, d, args.prime)
    payload = report.polygon_json(geom, d, args.prime, poly)
    if args.svg:
        from pathlib import Path
        from .view import polygon_svg
        Path(args.svg).write_text(polygon_svg(geom, d, args.prime, poly))
        payload["svg"] = args.svg
    return payload


def _cmd_volume(geom: Geometry, args: argparse.Namespace) -> dict:
    from .zariski import decompose, volume_from_square
    d = parse_divisor(geom, args.divisor)
    q = geom.lattice.square(decompose(geom, d).positive)
    return report.volume_json(geom, d, volume_from_square(geom, q), q)


def _cmd_restricted_volume(geom: Geometry, args: argparse.Namespace) -> dict:
    from .zariski import restricted_volume
    d = parse_divisor(geom, args.divisor)
    value = restricted_volume(geom, d, args.prime)
    return report.restricted_volume_json(geom, d, args.prime, value)


def _cmd_minkowski(geom: Geometry, args: argparse.Namespace) -> dict:
    from .minkowski import minkowski_decompose
    d = parse_divisor(geom, args.divisor)
    mk = minkowski_decompose(geom, d, args.prime)
    return report.minkowski_json(geom, d, args.prime, mk)


def _cmd_minkowski_basis(geom: Geometry, args: argparse.Namespace) -> dict:
    from .minkowski import minkowski_basis
    return report.basis_json(geom, args.prime, minkowski_basis(geom, args.prime))


def _cmd_chambers(geom: Geometry, args: argparse.Namespace) -> dict:
    from .minkowski import chamber_closure_rays, enumerate_chambers
    chambers = enumerate_chambers(geom)
    closures = None
    if geom.mode == "polyhedral":
        closures = {c: chamber_closure_rays(geom, c) for c in chambers}
    return report.chambers_json(geom, chambers, closures)


def _cmd_cone_generators(geom: Geometry, args: argparse.Namespace) -> dict:
    from .minkowski import cone_generators
    return report.cone_json(geom, args.prime, cone_generators(geom, args.prime))


def _cmd_check(geom: Geometry, args: argparse.Namespace) -> dict:
    from .checks import run_checks
    if args.samples < 1:
        raise DomainError("--samples must be at least 1")
    results = run_checks(geom, samples=args.samples, seed=args.seed)
    return report.checks_json(geom, results)


_HANDLERS = {
    "decompose": _cmd_decompose,
    "polygon": _cmd_polygon,
    "volume": _cmd_volume,
    "restricted-volume": _cmd_restricted_volume,
    "minkowski": _cmd_minkowski,
    "minkowski-basis": _cmd_minkowski_basis,
    "chambers": _cmd_chambers,
    "cone-generators": _cmd_cone_generators,
    "check": _cmd_check,
}


def _fail(args: argparse.Namespace, code: int, message: str) -> int:
    if getattr(args, "format", "text") == "machine":
        print(report.machine_error(code, message))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        geom = load_geometry(args.geometry)
        started = time.perf_counter()
        payload = _HANDLERS[args.command](geom, args)
    except (GeometryError, OSError) as exc:
        return _fail(args, _PARSE, str(exc))
    except (DomainError, ConsistencyError) as exc:
        return _fail(args, _DOMAIN, str(exc))
    if args.format == "machine":
        print(report.machine_ok(args.command, payload))
    else:
        elapsed = time.perf_counter() - started  # the command's time, not the view's import
        from .view import text
        print(text(args.command, payload, elapsed))
    return 0 if payload.get("passed", True) else _CHECKS


if __name__ == "__main__":
    sys.exit(main())
