#!/usr/bin/env python3
"""Round mode: thresholds in quadratic extensions, areas still exact.

Run from the repository root (or anywhere) with:

    python demos/04_round_mode.py

A round catalog describes a geometry whose effective cone has no polyhedral
prime description: boundary rays solve q = 0 directly, so the slicing
thresholds are roots of quadratics.  The library keeps them as exact surds
a + b*sqrt(d) and the polygon area still comes out in closed form.
"""

from pathlib import Path

from ihspoly import (
    DivClass,
    DomainError,
    Surd,
    load_geometry,
    mu_threshold,
    polygon,
    volume,
)
from ihspoly.geometry import format_divisor
from ihspoly.report import surd_text

GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    fano = load_geometry(GEOM_DIR / "fano_lines.geom")
    lat = fano.lattice

    banner("A round catalog")
    print(f"catalog: {fano.name}  (mode: round)")
    print(f"basis:   {', '.join(fano.basis)}")
    print(f"ample:   {format_divisor(fano, fano.ample)}")

    banner("The threshold is a quadratic surd")
    d = DivClass([1, 0])
    mu = mu_threshold(fano, d, "S")
    print(f"mu_S({format_divisor(fano, d)}) = {surd_text(mu)}")
    print(f"rational? {mu.is_rational}")
    # The threshold solves q(D - t*S) = 0 on the far side of the cone:
    # here q(D) = 2, q(D, S) = 4, q(S) = 2, so t^2 - 4t + 1 = 0 and the
    # smaller root 2 - sqrt(3) is where bigness fails.  Expanding the
    # quadratic in exact surd arithmetic gives zero on the nose:
    s = DivClass([0, 1])
    residual = (
        Surd(lat.square(d))
        - 2 * mu * lat.pair(d, s)
        + mu * mu * lat.square(s)
    )
    print(f"q(D - mu*S) = {surd_text(residual)}")

    banner("The polygon has surd vertices but rational area")
    poly = polygon(fano, d, "S")
    print("vertices: " + "  ".join(
        f"({surd_text(x)}, {surd_text(y)})" for x, y in poly.vertices
    ))
    print(f"area = {surd_text(poly.area)} "
          f"(exactly q(D)/2 = {lat.square(d)}/2)")
    n, c = lat.half_dim, lat.fujiki
    chain = (2 * poly.area) ** n * c
    print(f"(2 * area)^{n} * {c} = {surd_text(chain)} "
          f"= volume = {volume(fano, d)}")

    banner("What round mode refuses to do")
    # With no exceptional primes there is only the movable chamber ...
    from ihspoly import enumerate_chambers, minkowski_basis

    print(f"chambers: {[sorted(ch) for ch in enumerate_chambers(fano)]}")
    # ... and a Minkowski basis would need extremal rays of a polyhedral
    # cone, which a round boundary does not have.  Asking for one is a
    # domain error, not a wrong answer.
    try:
        minkowski_basis(fano, "S")
    except DomainError as err:
        print(f"minkowski_basis: DomainError: {err}")


if __name__ == "__main__":
    main()
