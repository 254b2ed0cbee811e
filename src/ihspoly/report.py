"""Rendering of results as machine payloads, their text view, and SVG.

Each command's result is built once, as the machine payload (`*_json`);
the default text output is a view of that payload (`text`), so the two
formats cannot drift apart.  The payload never depends on wall-clock
state (timings stay text-only), so byte-identical inputs give
byte-identical payloads.  Rationals are serialized as strings ("-3/2"),
quadratic irrationals as objects carrying both the exact (a, b, d)
triple of a + b*sqrt(d) and a display string; the float field is
advisory.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .geometry import Geometry, format_divisor, format_rat
from .lattice import DivClass

if TYPE_CHECKING:  # annotations only: rendering a payload loads no engine layer
    from .checks import CheckResult
    from .minkowski import BasisElement, MinkowskiDecomposition
    from .okounkov import BreakpointTrace, ConePoint, NOPolygon
    from .surd import Surd
    from .zariski import ZariskiDecomposition


def surd_json(value: Surd) -> dict:
    return {
        "display": str(value),
        "a": format_rat(value.a),
        "b": format_rat(value.b),
        "d": value.d,
        "float": float(value),
    }


def surd_text(value: Surd | dict) -> str:
    """Text view of a Surd or of its `surd_json` payload: the display
    string, followed by a float approximation when irrational."""
    if not isinstance(value, dict):
        value = surd_json(value)
    if value["b"] == "0":
        return value["display"]
    return f"{value['display']} (~{value['float']:.6g})"


def _point_json(pt: tuple[Surd, Surd]) -> dict:
    return {"t": surd_json(pt[0]), "y": surd_json(pt[1])}


def divisor_json(geom: Geometry, d: DivClass) -> dict:
    return {
        "coords": [format_rat(c) for c in d.coords],
        "display": format_divisor(geom, d),
    }


# ---------------------------------------------------------------------------
# Zariski decomposition


def decomposition_json(geom: Geometry, d: DivClass, dec: ZariskiDecomposition) -> dict:
    q = geom.lattice.square(dec.positive)
    return {
        "geometry": geom.name,
        "class": divisor_json(geom, d),
        "positive": divisor_json(geom, dec.positive),
        "negative": [
            {"prime": name, "coefficient": format_rat(coeff)}
            for name, coeff in dec.negative
        ],
        "q_positive": format_rat(q),
        "big": q > 0,
    }


# ---------------------------------------------------------------------------
# polygons


def _trace_rows(geom: Geometry, trace: BreakpointTrace) -> list[dict]:
    rows = []
    for seg in trace.segments:
        rows.append(
            {
                "t_start": format_rat(seg.t_start),
                "t_end": surd_json(seg.t_end),
                "chamber": sorted(seg.chamber),
                "base": divisor_json(geom, seg.base),
                "slope": divisor_json(geom, seg.slope),
            }
        )
    return rows


def polygon_json(
    geom: Geometry, d: DivClass, prime_name: str, poly: NOPolygon
) -> dict:
    payload = {
        "geometry": geom.name,
        "class": divisor_json(geom, d),
        "flag": prime_name,
        "nu": format_rat(poly.nu),
        "mu": surd_json(poly.mu),
        "area": surd_json(poly.area),
        "vertices": [_point_json(p) for p in poly.vertices],
    }
    if poly.trace is not None:
        payload["breakpoints"] = [
            format_rat(b) for b in poly.trace.interior_breakpoints
        ]
        payload["segments"] = _trace_rows(geom, poly.trace)
    return payload


# ---------------------------------------------------------------------------
# volumes


def volume_json(geom: Geometry, d: DivClass, value: Fraction, q: Fraction) -> dict:
    return {
        "geometry": geom.name,
        "class": divisor_json(geom, d),
        "q_positive": format_rat(q),
        "volume": format_rat(value),
    }


def restricted_volume_json(
    geom: Geometry, d: DivClass, prime_name: str, value: Fraction
) -> dict:
    return {
        "geometry": geom.name,
        "class": divisor_json(geom, d),
        "prime": prime_name,
        "restricted_volume": format_rat(value),
    }


# ---------------------------------------------------------------------------
# Minkowski bases and decompositions


def _element_json(geom: Geometry, element: BasisElement) -> dict:
    return {
        "class": divisor_json(geom, element.cls),
        "origin": element.origin,
        "chamber": sorted(element.chamber) if element.chamber is not None else None,
    }


def basis_json(geom: Geometry, flag_name: str, basis: Sequence[BasisElement]) -> dict:
    return {
        "geometry": geom.name,
        "flag": flag_name,
        "elements": [_element_json(geom, element) for element in basis],
    }


def minkowski_json(
    geom: Geometry, d: DivClass, flag_name: str, mk: MinkowskiDecomposition
) -> dict:
    return {
        "geometry": geom.name,
        "class": divisor_json(geom, d),
        "flag": flag_name,
        "nu": format_rat(mk.nu),
        "terms": [
            {"coefficient": format_rat(coeff), **_element_json(geom, element)}
            for coeff, element in mk.terms
        ],
    }


# ---------------------------------------------------------------------------
# chambers and cone generators


def chambers_json(
    geom: Geometry,
    chambers: Sequence[frozenset[str]],
    closures: Optional[dict[frozenset[str], tuple[DivClass, ...]]],
) -> dict:
    rows = []
    for chamber in chambers:
        row: dict = {"primes": sorted(chamber)}
        if closures is not None:
            row["closure_rays"] = [divisor_json(geom, r) for r in closures[chamber]]
        rows.append(row)
    return {"geometry": geom.name, "chambers": rows}


def cone_json(geom: Geometry, prime_name: str, points: Sequence[ConePoint]) -> dict:
    return {
        "geometry": geom.name,
        "flag": prime_name,
        "generators": [
            {
                "class": divisor_json(geom, pt.cls),
                "t": format_rat(pt.t),
                "y": format_rat(pt.y),
            }
            for pt in points
        ],
    }


# ---------------------------------------------------------------------------
# checks


def checks_json(geom: Geometry, results: Sequence[CheckResult]) -> dict:
    return {
        "geometry": geom.name,
        "checks": [
            {
                "name": r.name,
                "runs": r.runs,
                "failed": r.failed,
                "messages": list(r.messages),
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }


# ---------------------------------------------------------------------------
# machine envelope


def machine_ok(command: str, payload: dict) -> str:
    body = {"status": "ok", "command": command}
    body.update(payload)
    return json.dumps(body, indent=2, ensure_ascii=False)


def machine_error(code: int, message: str) -> str:
    return json.dumps(
        {"status": "error", "code": code, "message": message},
        indent=2,
        ensure_ascii=False,
    )


# ---------------------------------------------------------------------------
# text view of a payload


def _row(label: str, value) -> str:
    return f"{label:<16}{value}"


def _braces(names: Sequence[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _decompose_rows(p: dict) -> list[str]:
    negative = [f"{n['coefficient']} * {n['prime']}" for n in p["negative"]] or ["0"]
    return [
        _row("positive part", p["positive"]["display"]),
        *(_row("negative part", term) for term in negative),
        _row("q(P)", p["q_positive"]),
        _row("big", "yes" if p["big"] else "no"),
    ]


def _polygon_rows(p: dict) -> list[str]:
    vertices = "  ".join(f"({v['t']['display']}, {v['y']['display']})" for v in p["vertices"])
    rows = [
        _row("nu", p["nu"]),
        _row("mu", surd_text(p["mu"])),
        _row("area", surd_text(p["area"])),
        _row("vertices", vertices),
    ]
    if "segments" in p:
        rows.append(_row("breakpoints", ", ".join(p["breakpoints"]) or "none"))
        rows += [
            f"  [{seg['t_start']}, {seg['t_end']['display']}] chamber {_braces(seg['chamber'])}: "
            f"P = {seg['base']['display']} + t * ({seg['slope']['display']})"
            for seg in p["segments"]
        ]
    if "svg" in p:
        rows.append(_row("svg", p["svg"]))
    return rows


def _volume_rows(p: dict) -> list[str]:
    return [_row("q(P)", p["q_positive"]), _row("volume", p["volume"])]


def _restricted_volume_rows(p: dict) -> list[str]:
    return [_row("prime", p["prime"]), _row("restricted vol", p["restricted_volume"])]


def _origin(element: dict) -> str:
    if element["origin"] == "chamber":
        return f"chamber {_braces(element['chamber'])}"
    return "isotropic ray"


def _basis_rows(p: dict) -> list[str]:
    return [_row("basis size", len(p["elements"]))] + [
        f"  {e['class']['display']:<24} [{_origin(e)}]" for e in p["elements"]
    ]


def _minkowski_rows(p: dict) -> list[str]:
    terms = [
        f"  {t['coefficient']} * ({t['class']['display']})  [{_origin(t)}]"
        for t in p["terms"]
    ]
    return [_row("nu", p["nu"])] + (terms or ["  positive part is zero"])


def _chambers_rows(p: dict) -> list[str]:
    rows = [_row("chambers", len(p["chambers"]))]
    for chamber in p["chambers"]:
        rows.append(f"  {_braces(chamber['primes'])}")
        if "closure_rays" in chamber:
            rays = "  ".join(r["display"] for r in chamber["closure_rays"])
            rows.append(f"    closure rays: {rays}")
    return rows


def _cone_rows(p: dict) -> list[str]:
    return [_row("generators", len(p["generators"]))] + [
        f"  ({g['class']['display']}; t={g['t']}, y={g['y']})" for g in p["generators"]
    ]


def _check_rows(p: dict, elapsed: float) -> list[str]:
    rows = []
    for c in p["checks"]:
        status = "SKIP" if c["runs"] == 0 else "PASS" if c["failed"] == 0 else "FAIL"
        rows.append(f"{status:<6} {c['name']:<28} {c['runs']} run(s), {c['failed']} failed")
        rows += [f"       - {msg}" for msg in c["messages"]]
    failed = sum(c["failed"] for c in p["checks"])
    verdict = f"{failed} failure(s)" if failed else "all checks passed"
    return rows + [_row("result", f"{verdict} in {elapsed:.2f}s")]


_ROWS = {
    "decompose": _decompose_rows,
    "polygon": _polygon_rows,
    "volume": _volume_rows,
    "restricted-volume": _restricted_volume_rows,
    "minkowski": _minkowski_rows,
    "minkowski-basis": _basis_rows,
    "chambers": _chambers_rows,
    "cone-generators": _cone_rows,
}


def text(command: str, payload: dict, elapsed: float) -> str:
    """Text view of a command's machine payload; `elapsed` (seconds) is
    shown by `check` only, since timings stay out of the payload."""
    rows = [_row("geometry", payload["geometry"])]
    if "class" in payload:
        rows.append(_row("class", payload["class"]["display"]))
    if "flag" in payload:
        rows.append(_row("flag prime", payload["flag"]))
    if command == "check":
        return "\n".join(rows + _check_rows(payload, elapsed))
    return "\n".join(rows + _ROWS[command](payload))


# ---------------------------------------------------------------------------
# SVG


def _bounds(points: Iterable[tuple[float, float]]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def polygon_svg(geom: Geometry, d: DivClass, prime_name: str, poly: NOPolygon) -> str:
    """Standalone SVG of the polygon; vertex tooltips carry exact coordinates."""
    pts = [(float(x), float(y)) for x, y in poly.vertices]
    if len(pts) == 1:
        pts = pts * 2
    x0, y0, x1, y1 = _bounds(pts)
    w = max(x1 - x0, 1e-9)
    h = max(y1 - y0, 1e-9)
    span = max(w, h)
    scale = 360.0 / span
    pad = 40.0

    def sx(x: float) -> float:
        return pad + (x - x0) * scale

    def sy(y: float) -> float:
        return pad + (y1 - y) * scale

    width = pad * 2 + w * scale
    height = pad * 2 + h * scale
    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
        f' height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f"  <!-- polygon of {format_divisor(geom, d)} along {prime_name}"
        f" on {geom.name} -->",
        f'  <line x1="{sx(x0):.2f}" y1="{sy(0.0):.2f}" x2="{sx(x1):.2f}"'
        f' y2="{sy(0.0):.2f}" stroke="#999" stroke-width="1"/>',
        f'  <line x1="{sx(0.0):.2f}" y1="{sy(y0):.2f}" x2="{sx(0.0):.2f}"'
        f' y2="{sy(y1):.2f}" stroke="#999" stroke-width="1"/>',
        f'  <polygon points="{path}" fill="#7aa6c2" fill-opacity="0.45"'
        f' stroke="#144a6b" stroke-width="2"/>',
    ]
    for (x, y), exact in zip(pts, poly.vertices):
        out.append(
            f'  <circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#144a6b">'
            f"<title>({exact[0]}, {exact[1]})</title></circle>"
        )
    out.append(
        f'  <text x="{pad:.0f}" y="{height - 10:.0f}" font-family="monospace"'
        f' font-size="12">nu = {format_rat(poly.nu)}, mu = {poly.mu},'
        f" area = {poly.area}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
