"""Machine payloads of the command results, built once per command;
the text view (`view`) renders them.  A payload never depends on
wall-clock state (timings stay text-only), so byte-identical inputs
give byte-identical payloads.  Rationals are serialized as strings
("-3/2"), quadratic irrationals as objects carrying both the exact
(a, b, d) triple of a + b*sqrt(d) and a display string; the float
field is advisory.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .geometry import Geometry, format_divisor
from .lattice import DivClass

if TYPE_CHECKING:  # annotations only: rendering a payload loads no engine layer
    from .checks import CheckResult
    from .minkowski import BasisElement, ConePoint, MinkowskiDecomposition
    from .okounkov import BreakpointTrace, NOPolygon
    from .surd import Surd
    from .zariski import ZariskiDecomposition


def surd_json(value: Surd) -> dict:
    return {
        "display": str(value),
        "a": str(value.a),
        "b": str(value.b),
        "d": value.d,
        "float": float(value),
    }


def _point_json(pt: tuple[Surd, Surd]) -> dict:
    return {"t": surd_json(pt[0]), "y": surd_json(pt[1])}


def divisor_json(geom: Geometry, d: DivClass) -> dict:
    return {
        "coords": [str(c) for c in d.coords],
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
            {"prime": name, "coefficient": str(coeff)}
            for name, coeff in dec.negative
        ],
        "q_positive": str(q),
        "big": q > 0,
    }


# ---------------------------------------------------------------------------
# polygons


def _trace_rows(geom: Geometry, trace: BreakpointTrace) -> list[dict]:
    rows = []
    for seg in trace.segments:
        rows.append(
            {
                "t_start": str(seg.t_start),
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
        "nu": str(poly.nu),
        "mu": surd_json(poly.mu),
        "area": surd_json(poly.area),
        "vertices": [_point_json(p) for p in poly.vertices],
    }
    if poly.trace is not None:
        payload["breakpoints"] = [
            str(b) for b in poly.trace.interior_breakpoints
        ]
        payload["segments"] = _trace_rows(geom, poly.trace)
    return payload


# ---------------------------------------------------------------------------
# volumes


def volume_json(geom: Geometry, d: DivClass, value: Fraction, q: Fraction) -> dict:
    return {
        "geometry": geom.name,
        "class": divisor_json(geom, d),
        "q_positive": str(q),
        "volume": str(value),
    }


def restricted_volume_json(
    geom: Geometry, d: DivClass, prime_name: str, value: Fraction
) -> dict:
    return {
        "geometry": geom.name,
        "class": divisor_json(geom, d),
        "prime": prime_name,
        "restricted_volume": str(value),
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
        "nu": str(mk.nu),
        "terms": [
            {"coefficient": str(coeff), **_element_json(geom, element)}
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
                "t": str(pt.t),
                "y": str(pt.y),
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
