"""Text view of the machine payloads (`report`), so the two formats
cannot drift apart, and SVG.  Only text output and `polygon --svg` load
this module; its floats are display approximations and SVG coordinates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .geometry import Geometry, format_divisor
from .lattice import DivClass
from .report import surd_json

if TYPE_CHECKING:  # annotations only
    from .okounkov import NOPolygon
    from .surd import Surd


def surd_text(value: Surd | dict) -> str:
    """Text view of a Surd or of its `surd_json` payload: the display
    string, followed by a float approximation when irrational."""
    if not isinstance(value, dict):
        value = surd_json(value)
    if value["b"] == "0":
        return value["display"]
    return f"{value['display']} (~{value['float']:.6g})"


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
        f' font-size="12">nu = {poly.nu}, mu = {poly.mu},'
        f" area = {poly.area}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
