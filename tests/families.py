"""Catalog families for the tests.

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
"""

from __future__ import annotations

import random


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
