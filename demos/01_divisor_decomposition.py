#!/usr/bin/env python3
"""Walk through divisorial decompositions on the bundled catalogs.

Run from the repository root (or anywhere) with:

    python demos/01_divisor_decomposition.py

Every number printed here is exact: the library works over the rationals
(and quadratic extensions in round mode), never over floats.
"""

from pathlib import Path

from ihspoly import (
    DivClass,
    decompose,
    is_big,
    is_pseudo_effective,
    load_geometry,
    volume,
)
from ihspoly.geometry import format_divisor

GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def show_decomposition(geom, d):
    dec = decompose(geom, d)
    print(f"D        = {format_divisor(geom, d)}")
    print(f"positive = {format_divisor(geom, dec.positive)}")
    if dec.negative:
        terms = " + ".join(
            f"{c} * {name}" for name, c in dec.negative
        )
        print(f"negative = {terms}")
    else:
        print("negative = 0")
    # The defining property: the positive part pairs to zero against every
    # prime it was corrected by, and non-negatively against all the others.
    lat = geom.lattice
    for prime in geom.primes:
        pairing = lat.pair(dec.positive, prime.cls)
        print(f"  q(P, {prime.name}) = {pairing}")
    return dec


def main():
    banner("Rank-2 fourfold model")
    hilb2 = load_geometry(GEOM_DIR / "hilb2.geom")
    print(f"catalog: {hilb2.name}")
    print(f"basis:   {', '.join(hilb2.basis)}")
    print(f"primes:  " + ", ".join(
        f"{p.name} = {format_divisor(hilb2, p.cls)}"
        f" (q = {hilb2.lattice.square(p.cls)})"
        for p in hilb2.primes
    ))

    banner("A big class with a genuinely negative part")
    d = DivClass([1, 1])
    dec = show_decomposition(hilb2, d)
    print(f"big?     {is_big(hilb2, d)}")
    q_p = hilb2.lattice.square(dec.positive)
    print(f"volume   {volume(hilb2, d)}"
          f"  (= c * q(P)^n with q(P) = {q_p})")

    banner("Decomposing the positive part changes nothing")
    again = decompose(hilb2, dec.positive)
    print(f"positive part of P: {format_divisor(hilb2, again.positive)}")
    print(f"identical?          {again.positive == dec.positive}")

    banner("The pseudo-effective boundary")
    movable = DivClass([1, -1])
    print(f"{format_divisor(hilb2, movable)}: "
          f"psef {is_pseudo_effective(hilb2, movable)}, big {is_big(hilb2, movable)}"
          f"  (q = {hilb2.lattice.square(movable)})")
    outside = DivClass([-1, 0])
    print(f"{format_divisor(hilb2, outside)}: psef {is_pseudo_effective(hilb2, outside)}")

    banner("Rank-3 surface model: two primes enter the negative part")
    k3 = load_geometry(GEOM_DIR / "k3_rank3.geom")
    print(f"catalog: {k3.name}")
    # A class leaning onto both the section and the rigid fiber component:
    # the corrected class ends up orthogonal to exactly those two primes.
    d = DivClass([1, 1, 1])
    dec = show_decomposition(k3, d)
    q_p = k3.lattice.square(dec.positive)
    print(f"q(P) = {q_p} > 0, so D is big "
          f"and volume(D) = {volume(k3, d)}")

    banner("A boundary class that is entirely negative part")
    # Tilt far enough and the positive part collapses to zero.
    show_decomposition(k3, DivClass([1, 1, -1]))


if __name__ == "__main__":
    main()
