#!/usr/bin/env python3
"""Decompose divisors into a Minkowski basis and add their polygons.

Run from the repository root (or anywhere) with:

    python demos/03_minkowski_basis.py

Along a fixed non-exceptional flag prime, every big class splits as a
non-negative rational combination of finitely many basis classes (one per
chamber, plus isotropic boundary rays), and its polygon is the Minkowski
sum of the scaled basis polygons — vertex for vertex, exactly.
"""

from pathlib import Path

from ihspoly import (
    DivClass,
    enumerate_chambers,
    load_geometry,
    minkowski_basis,
    minkowski_decompose,
    polygon,
    polygon_minkowski_sum,
    polygon_scale,
)
from ihspoly.geometry import format_divisor
from ihspoly.view import surd_text

GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def verts(poly):
    return "  ".join(f"({surd_text(x)}, {surd_text(y)})" for x, y in poly.vertices)


def main():
    k3 = load_geometry(GEOM_DIR / "k3_rank3.geom")
    flag = "Fib"

    banner("Chambers of the rank-3 model")
    # A chamber is a set of primes with negative-definite Gram matrix; the
    # decomposition engine corrects a class against exactly the primes of
    # the chamber its ray passes through.
    for chamber in enumerate_chambers(k3):
        label = "{" + ", ".join(sorted(chamber)) + "}"
        print(f"  {label or '{}'}")

    banner(f"Minkowski basis along {flag}")
    for element in minkowski_basis(k3, flag):
        if element.chamber is not None:
            origin = "{" + ", ".join(sorted(element.chamber)) + "}"
            origin = f"chamber {origin}"
        else:
            origin = element.origin
        print(f"  {format_divisor(k3, element.cls):20s} from {origin}")

    banner("Decomposing a big class")
    d = DivClass([6, 3, -1])
    dec = minkowski_decompose(k3, d, flag)
    print(f"D = {format_divisor(k3, d)}")
    for coeff, element in dec.terms:
        print(f"  + {coeff} * ({format_divisor(k3, element.cls)})")
    if dec.nu:
        print(f"  + {dec.nu} * {flag}  (negative-part offset)")
    rebuilt = dec.reconstruct(k3.lattice.rank)
    print(f"sum of terms = {format_divisor(k3, rebuilt)}")

    banner("The polygon is the Minkowski sum of the pieces")
    total = polygon(k3, d, flag)
    acc = None
    for coeff, element in dec.terms:
        piece = polygon_scale(coeff, polygon(k3, element.cls, flag))
        acc = piece if acc is None else polygon_minkowski_sum(acc, piece)
        print(f"  {coeff} * polygon({format_divisor(k3, element.cls)}):"
              f" {verts(piece)}")
    print(f"sum vertices:   {verts(acc)}")
    print(f"direct verts:   {verts(total)}")
    print(f"identical?      {acc.vertices == total.vertices}")

    banner("A decomposition with an isotropic piece")
    hilb2 = load_geometry(GEOM_DIR / "hilb2.geom")
    d = DivClass([2, -1])
    dec = minkowski_decompose(hilb2, d, "E")
    print(f"D = {format_divisor(hilb2, d)} along E")
    for coeff, element in dec.terms:
        print(f"  + {coeff} * ({format_divisor(hilb2, element.cls)})"
              f"  [{element.origin}]")


if __name__ == "__main__":
    main()
