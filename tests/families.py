"""Catalog families for the tests, each defined once here.

random_catalog draws one small catalog document from a seeded
random.Random.  Its Gram matrix is U^T diag(2a, -2b, ...) U for a random
upper unitriangular U, so it has signature (1, rank-1), and each prime is
flagged exceptional exactly when its square is negative.  A polyhedral
catalog declares Eff as the cone of its primes and one or two further
classes; a round catalog declares an ample class of positive square and
only primes in its half of the positive cone.  Nothing else is arranged:
primes may pair negatively with each other, Eff may fail to be pointed,
and Mov may hold classes of negative square, so the family mixes
consistent and inconsistent catalogs.  Every polyhedral prime is an Eff
generator, so no draw breaks rule (c) (every prime lies in Eff);
outside_eff_catalog adds a prime that does.  Entries stay in
[-2, 2] and catalogs hold one to three primes, so every call on one is
cheap.  A draw that finds no ample class in 100 tries fails with an
AssertionError, as one that finds no nonzero vector does.

pairwise_family, elliptic_family and orthogonal_family build the
Geometry of k exceptional (-2)-primes that the chamber, movable-ray and
scaling tests grow with k: primes meeting pairwise once, an elliptic K3
with k fibres of type I2, and pairwise orthogonal primes.  k3n_family
builds hilb2_k3's catalog in every dimension 2n, so the Fujiki exponents
meet n = 3 and 4.  catalog builds a small diagonal polyhedral Geometry
from (name, class) pairs; CROSSED_PRIMES is its catalog that breaks
rule (d) (distinct primes pair nonnegatively).
"""

from __future__ import annotations

import json
import math
import random

from ihspoly import parse_geometry


def _pair(gram, x, y) -> int:
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def _vector(rng: random.Random, rank: int) -> list[int]:
    """A random nonzero integer vector with entries in [-2, 2]."""
    for _ in range(100):
        v = [rng.randint(-2, 2) for _ in range(rank)]
        if any(v):
            return v
    raise AssertionError("no nonzero vector drawn")


def _ample(rng: random.Random, gram: list[list[int]]) -> list[int]:
    """A random vector of positive square, from at most 100 draws."""
    for _ in range(100):
        v = _vector(rng, len(gram))
        if _pair(gram, v, v) > 0:
            return v
    raise AssertionError("no ample class drawn")


def _gram(rng: random.Random, rank: int) -> list[list[int]]:
    """An even integer Gram matrix of signature (1, rank-1)."""
    diag = [2 * rng.randint(1, 3)] + [-2 * rng.randint(1, 3) for _ in range(rank - 1)]
    u = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(rank)] for i in range(rank)]
    return [[sum(u[k][i] * diag[k] * u[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]


def random_catalog(rng: random.Random, rank: int, mode: str) -> dict:
    """One catalog document of the given rank and mode (see the module)."""
    gram = _gram(rng, rank)
    doc = {
        "name": f"random_{mode}_{rank}",
        "half_dim": rng.randint(1, 2),
        "fujiki": rng.randint(1, 3),
        "basis": [f"b{i}" for i in range(rank)],
        "gram": gram,
        "mode": mode,
    }
    classes = []
    if mode == "polyhedral":
        classes = [_vector(rng, rank) for _ in range(rng.randint(1, 3))]
        extra = [_vector(rng, rank) for _ in range(rng.randint(1, 2))]
        doc["effective_generators"] = classes + extra
    else:
        doc["ample"] = ample = _ample(rng, gram)
        count = rng.randint(1, 3)
        for _ in range(50 * count):
            v = _vector(rng, rank)
            side = _pair(gram, v, ample)
            if _pair(gram, v, v) >= 0 and side:
                classes.append(v if side > 0 else [-c for c in v])
                if len(classes) == count:
                    break
    doc["primes"] = [
        {"name": f"P{i}", "class": c, "exceptional": _pair(gram, c, c) < 0}
        for i, c in enumerate(classes, 1)
    ]
    return doc


def outside_eff_catalog(rng: random.Random, rank: int) -> dict:
    """A polyhedral random_catalog document plus one prime, Q, on the ray
    opposite a declared effective generator.  When the declared Eff is
    pointed, Q lies outside it and every earlier prime is one of its
    generators, so the catalog breaks rule (c) at Q first.  The draws of
    random_catalog come first and are unchanged."""
    doc = random_catalog(rng, rank, "polyhedral")
    q = [-c for c in rng.choice(doc["effective_generators"])]
    doc["primes"].append({"name": "Q", "class": q, "exceptional": _pair(doc["gram"], q, q) < 0})
    return doc


def random_class(rng: random.Random, doc: dict) -> list[int]:
    """A class to probe the catalog with: a nonnegative integer combination
    of the declared effective generators (polyhedral), or a multiple of
    the ample class moved by a vector with entries in [-1, 1] (round)."""
    rank = len(doc["basis"])
    if doc["mode"] == "polyhedral":
        gens = doc["effective_generators"]
        coeffs = [rng.randint(0, 2) for _ in gens]
        return [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(rank)]
    k = rng.randint(0, 2)
    return [k * a + rng.randint(-1, 1) for a in doc["ample"]]


def pairwise_family(k):
    """k exceptional (-2)-primes meeting pairwise once: the Gram matrix is
    J - 3I, of signature (1, k - 1) for k >= 4, in the basis of the primes,
    and Eff is generated by them.  Its chambers are the empty set, the
    singletons and the pairs: every triple has the singular Gram matrix
    J - 3I of size 3."""
    names = [f"E{i}" for i in range(1, k + 1)]
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    doc = {
        "name": f"pairwise_{k}",
        "half_dim": 1,
        "fujiki": 1,
        "basis": [n.lower() for n in names],
        "gram": [[-2 if i == j else 1 for j in range(k)] for i in range(k)],
        "mode": "polyhedral",
        "primes": [{"name": n, "class": u, "exceptional": True} for n, u in zip(names, units)],
        "effective_generators": units,
    }
    return parse_geometry(json.dumps(doc))


def elliptic_family(k):
    """Elliptic K3 with a section and k fibres of type I2, on U + A1^k:
    basis f, s, c1..ck; primes the section Sec, the fibre components
    A_j = c_j and B_j = f - c_j (all (-2)-classes) and the isotropic
    fibre Fib."""
    n = k + 2
    gram = [[0] * n for _ in range(n)]
    gram[0][1] = gram[1][0] = 1
    for i in range(1, n):
        gram[i][i] = -2
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    primes = [{"name": "Sec", "class": unit[1], "exceptional": True}]
    for j in range(1, k + 1):
        primes.append({"name": f"A{j}", "class": unit[j + 1], "exceptional": True})
        primes.append({"name": f"B{j}", "class": [a - b for a, b in zip(unit[0], unit[j + 1])],
                       "exceptional": True})
    doc = {
        "name": f"elliptic_{k}",
        "half_dim": 1,
        "fujiki": 1,
        "basis": ["f", "s"] + [f"c{j}" for j in range(1, k + 1)],
        "gram": gram,
        "mode": "polyhedral",
        "primes": [*primes, {"name": "Fib", "class": unit[0], "exceptional": False}],
        "effective_generators": [p["class"] for p in primes],
    }
    return parse_geometry(json.dumps(doc))


def orthogonal_family(k):
    """k pairwise orthogonal exceptional (-2)-primes E1..Ek and the
    movable prime H on the lattice <2> + <-2>^k, Eff generated by the
    primes: every subset of the E_i is a chamber, so there are 2^k."""
    n = k + 1
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    primes = [{"name": "H", "class": unit[0], "exceptional": False}]
    primes += [{"name": f"E{i}", "class": unit[i], "exceptional": True} for i in range(1, n)]
    doc = {
        "name": f"orthogonal_{k}",
        "half_dim": 1,
        "fujiki": 1,
        "basis": ["h"] + [f"e{i}" for i in range(1, n)],
        "gram": [[(2 if i == 0 else -2) * (i == j) for j in range(n)] for i in range(n)],
        "mode": "polyhedral",
        "primes": primes,
        "effective_generators": unit,
    }
    return parse_geometry(json.dumps(doc))


def k3n_family(n):
    """The K3^[n]-type catalog of hilb2_k3's shape, n >= 2, on
    U + A1 + <-2(n-1)>: basis f, s, c, e with delta = e; primes R0 = s,
    R1 = c, R2 = f - c, Ex = 2 delta and W = f - e, all exceptional and
    declared Eff's generators, and the isotropic fibre F = f.  half_dim
    is n and the Fujiki constant (2n)!/(n! 2^n) (Beauville 1983): 3, 15
    and 105 for n = 2, 3 and 4.  n = 2 gives hilb2_k3.geom."""
    gram = [[0, 1, 0, 0], [1, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2 * (n - 1)]]
    primes = [("R0", [0, 1, 0, 0]), ("R1", [0, 0, 1, 0]), ("R2", [1, 0, -1, 0]),
              ("Ex", [0, 0, 0, 2]), ("W", [1, 0, 0, -1])]
    doc = {
        "name": f"k3n_{n}",
        "half_dim": n,
        "fujiki": math.factorial(2 * n) // (math.factorial(n) * 2**n),
        "basis": ["f", "s", "c", "e"],
        "gram": gram,
        "mode": "polyhedral",
        "primes": [*({"name": p, "class": c, "exceptional": True} for p, c in primes),
                   {"name": "F", "class": [1, 0, 0, 0], "exceptional": False}],
        "effective_generators": [c for _, c in primes],
    }
    return parse_geometry(json.dumps(doc))


def catalog(name, diagonal, primes, effective_generators):
    """A polyhedral catalog with the form diag(diagonal) over basis H, d(, c);
    primes are (name, class) pairs, flagged exceptional by the sign of
    their square."""
    rank = len(diagonal)
    return parse_geometry(json.dumps({
        "name": name, "half_dim": 2, "fujiki": 3, "basis": ["H", "d", "c"][:rank], "mode": "polyhedral",
        "gram": [[diagonal[i] if i == j else 0 for j in range(rank)] for i in range(rank)],
        "primes": [{"name": n, "class": c, "exceptional": sum(g * v * v for g, v in zip(diagonal, c)) < 0}
                   for n, c in primes],
        "effective_generators": effective_generators,
    }))


# Rule (d): q(E, F) = -2 for the distinct primes E = H + d and F = d.
CROSSED_PRIMES = catalog("crossed_primes", [2, -2], [("E", [1, 1]), ("F", [0, 1])], [[1, 0], [0, 1]])
