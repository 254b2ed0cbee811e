"""Exact facts about a catalog computed without ihspoly.

The correctness gate checks the engine's answers against invariants
that must hold whatever the engine does internally: the BBF pairing,
negative definiteness by leading principal minors, 2*area == q(P),
volume == c*q(P)^n and P + N == D.  This module reads catalog documents
with the standard library and does its own Fraction arithmetic, so a
defect in ihspoly cannot hide from it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path


class Catalog:
    """A catalog document with its pairing, read independently of ihspoly."""

    def __init__(self, doc: dict) -> None:
        self.mode = doc["mode"]
        self.basis = list(doc["basis"])
        self.half_dim = doc["half_dim"]
        self.fujiki = Fraction(doc["fujiki"])
        self.gram = [[Fraction(v) for v in row] for row in doc["gram"]]
        self.primes = {p["name"]: [Fraction(v) for v in p["class"]] for p in doc["primes"]}
        self.exceptional = [p["name"] for p in doc["primes"] if p["exceptional"]]
        self.effective = [[Fraction(v) for v in g] for g in doc.get("effective_generators", [])]
        self.ample = [Fraction(v) for v in doc["ample"]] if "ample" in doc else None

    @classmethod
    def load(cls, path: Path) -> "Catalog":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def pair(self, x, y) -> Fraction:
        return sum(
            (xi * gij * yj for xi, row in zip(x, self.gram) for gij, yj in zip(row, y)),
            Fraction(0),
        )

    def square(self, x) -> Fraction:
        return self.pair(x, x)

    def negative_definite(self, names) -> bool:
        """(-1)^k det of every leading k x k minor is positive."""
        classes = [self.primes[n] for n in names]
        gram = [[self.pair(a, b) for b in classes] for a in classes]
        return all(
            (-1) ** k * determinant([row[:k] for row in gram[:k]]) > 0
            for k in range(1, len(gram) + 1)
        )

    def chambers(self) -> set[frozenset[str]]:
        """Every negative-definite set of exceptional primes, the empty one included."""
        found = {frozenset()}
        for size in range(1, len(self.exceptional) + 1):
            for combo in combinations(self.exceptional, size):
                if self.negative_definite(combo):
                    found.add(frozenset(combo))
        return found


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def elliptic_k3_document(k: int) -> dict:
    """Elliptic K3 with a section and k fibres of type I2, on U + A1^k.

    Basis f (fibre), s (section), c1..ck (one fibre component each).
    Primes: the section Sec, the fibre components A_j = c_j and
    B_j = f - c_j (all (-2)-classes, hence exceptional) and the fibre
    Fib, which is isotropic.  The effective cone is spanned by the
    (-2)-classes.  k = 1 is the bundled k3_rank3 catalog with its primes
    renamed; the chamber count is 2 * 3^k.
    """
    n = k + 2
    gram = [[0] * n for _ in range(n)]
    gram[0][1] = gram[1][0] = 1
    gram[1][1] = -2
    for j in range(2, n):
        gram[j][j] = -2

    def unit(i: int) -> list[int]:
        v = [0] * n
        v[i] = 1
        return v

    primes = [{"name": "Sec", "class": unit(1), "exceptional": True}]
    for j in range(1, k + 1):
        b = unit(0)
        b[j + 1] = -1
        primes.append({"name": f"A{j}", "class": unit(j + 1), "exceptional": True})
        primes.append({"name": f"B{j}", "class": b, "exceptional": True})
    primes.append({"name": "Fib", "class": unit(0), "exceptional": False})
    return {
        "name": f"k3-elliptic-{k}xI2",
        "mode": "polyhedral",
        "half_dim": 1,
        "fujiki": 1,
        "basis": ["f", "s"] + [f"c{j}" for j in range(1, k + 1)],
        "gram": gram,
        "primes": primes,
        "effective_generators": [p["class"] for p in primes if p["exceptional"]],
    }


def same_ray(x, y) -> bool:
    """x is a positive multiple of y."""
    ratios = {a / b for a, b in zip(x, y) if b}
    return (
        len(ratios) == 1
        and ratios.pop() > 0
        and all(a == 0 for a, b in zip(x, y) if not b)
    )


def surd_value(payload: dict) -> tuple[Fraction, Fraction, int]:
    """The exact (a, b, d) of a machine-format surd a + b*sqrt(d)."""
    return Fraction(payload["a"]), Fraction(payload["b"]), payload["d"]


def divisor_coords(payload: dict) -> list[Fraction]:
    return [Fraction(c) for c in payload["coords"]]


def check_decomposition(cat: Catalog, payload: dict) -> list[str]:
    """P + N == D, with N read off the prime coefficients."""
    total = divisor_coords(payload["positive"])
    for term in payload["negative"]:
        coeff = Fraction(term["coefficient"])
        if coeff <= 0:
            return [f"nonpositive coefficient for {term['prime']}"]
        total = [t + coeff * c for t, c in zip(total, cat.primes[term["prime"]])]
    if total != divisor_coords(payload["class"]):
        return ["P + N != D"]
    return []


def check_volume(cat: Catalog, payload: dict) -> list[str]:
    q = Fraction(payload["q_positive"])
    expected = cat.fujiki * q ** cat.half_dim if q > 0 else Fraction(0)
    if Fraction(payload["volume"]) != expected:
        return ["volume != c * q(P)^n"]
    return []


def check_polygon_area(cat: Catalog, payload: dict, q_positive: Fraction) -> list[str]:
    a, b, _ = surd_value(payload["area"])
    if b != 0 or 2 * a != q_positive:
        return ["2 * area != q(P)"]
    return []


def check_chamber_list(cat: Catalog, chambers) -> list[str]:
    """The listed chambers are exactly the negative-definite sets."""
    listed = [frozenset(c) for c in chambers]
    bad = [sorted(c) for c in listed if not cat.negative_definite(sorted(c))]
    if bad:
        return [f"chamber {bad[0]} is not negative definite"]
    if len(set(listed)) != len(listed) or set(listed) != cat.chambers():
        return ["chamber list differs from the negative-definite sets"]
    return []
