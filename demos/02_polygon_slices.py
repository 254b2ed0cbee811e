#!/usr/bin/env python3
"""Build divisor polygons slice by slice and render one as SVG.

Run from the repository root (or anywhere) with:

    python demos/02_polygon_slices.py

For a big class D and a prime divisor E', the polygon collects the pairs
(t, y) where t ranges over how far E' can be subtracted from D and y over
the fiber heights available at that stage.  Its area recovers the volume:
(2 * area)^n * c == volume(D), exactly.
"""

import tempfile
from pathlib import Path

from ihspoly import DivClass, Surd, load_geometry, polygon, volume
from ihspoly.geometry import format_divisor
from ihspoly.report import polygon_svg, surd_text

GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"


def show(value):
    """Exact display for either a rational or a quadratic surd."""
    return surd_text(value) if isinstance(value, Surd) else str(value)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def describe(geom, d, flag):
    poly = polygon(geom, d, flag)
    print(f"polygon of {format_divisor(geom, d)} along {flag}")
    print("  vertices: " + "  ".join(
        f"({show(x)}, {show(y)})" for x, y in poly.vertices
    ))
    print(f"  nu = {show(poly.nu)}, mu = {show(poly.mu)}, "
          f"area = {show(poly.area)}")
    trace = poly.trace
    if trace.interior_breakpoints:
        jumps = ", ".join(
            f"t = {b}" for b in trace.interior_breakpoints
        )
        chambers = " -> ".join(
            "{" + ", ".join(sorted(ch)) + "}" for ch in trace.chambers
        )
        print(f"  walls at {jumps}; chambers {chambers}")
    else:
        print("  no interior walls: one chamber covers the whole range")
    return poly


def main():
    hilb2 = load_geometry(GEOM_DIR / "hilb2.geom")
    lat = hilb2.lattice

    banner("A triangle: the polygon stops where bigness fails")
    h = DivClass([1, 0])
    tri = describe(hilb2, h, "E")
    # The slice range ends at mu = 1/2 because H - t*E leaves the big cone
    # there; the vertical edge at t = 1/2 is the last positive-volume slice.
    print(f"  2 * area = {show(2 * tri.area)} = q(H) = "
          f"{lat.square(h)}")

    banner("A trapezium: the slice crosses a wall")
    d = DivClass([3, -2])
    trap = describe(hilb2, d, "E'")
    # Left of t = 2 the corrected class D - t*E' is already orthogonalized;
    # right of the wall the prime E enters its negative part, which bends
    # the upper boundary.  Concavity of the top edge survives the bend.
    n, c = lat.half_dim, lat.fujiki
    chain = (2 * trap.area) ** n * c
    print(f"  (2 * area)^{n} * {c} = {show(chain)} "
          f"= volume = {volume(hilb2, d)}")

    banner("Rank-3 model: a sweep that starts on a wall")
    k3 = load_geometry(GEOM_DIR / "k3_rank3.geom")
    # This class is orthogonal to the section from the start, so the trace
    # opens in chamber {Sec} and picks up the fiber component A2 at t = 2.
    describe(k3, DivClass([6, 3, -1]), "Fib")

    banner("SVG export")
    out = Path(tempfile.mkdtemp(prefix="ihspoly-demo-")) / "trapezium.svg"
    out.write_text(polygon_svg(hilb2, d, "E'", trap), encoding="utf-8")
    print(f"wrote {out}")
    print("every vertex tooltip in the file carries exact coordinates")


if __name__ == "__main__":
    main()
