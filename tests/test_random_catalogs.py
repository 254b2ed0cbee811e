"""Seeded random catalogs (tests/families.py) of ranks 2-4: every
polygon-layer and Minkowski-layer call either returns or raises an
IHSError, never a traceback, on consistent and inconsistent catalogs
alike, and every call on a catalog with a prime outside Eff is refused
by name.

The outcome counts are asserted exactly; they change only when the
engine's answers or refusals change on some catalog.
"""

import json
import random
from collections import Counter
from fractions import Fraction

from families import outside_eff_catalog, random_catalog, random_class
from ihspoly import DivClass, IHSError, parse_geometry
from ihspoly.minkowski import cone_generators, minkowski_basis, minkowski_decompose
from ihspoly.okounkov import cone_contains, mu_threshold, polygon

SEEDS = range(50)
CALLS = {
    "mu_threshold": lambda geom, d, name, t, y: mu_threshold(geom, d, name),
    "polygon": lambda geom, d, name, t, y: polygon(geom, d, name),
    "cone_contains": lambda geom, d, name, t, y: cone_contains(geom, name, d, t, y),
    "minkowski_decompose": lambda geom, d, name, t, y: minkowski_decompose(geom, d, name),
    "cone_generators": lambda geom, d, name, t, y: cone_generators(geom, name),
    "minkowski_basis": lambda geom, d, name, t, y: minkowski_basis(geom, name),
}


def _outcome(call, *args) -> str:
    try:
        result = call(*args)
    except IHSError as exc:
        return type(exc).__name__
    return str(result) if isinstance(result, bool) else "returned"


def test_random_catalogs_return_or_refuse():
    outcomes = Counter()
    catalogs = Counter()
    for rank in (2, 3, 4):
        for mode in ("polyhedral", "round"):
            for seed in SEEDS:
                rng = random.Random(f"{mode}-{rank}-{seed}")
                doc = random_catalog(rng, rank, mode)
                geom = parse_geometry(json.dumps(doc))
                catalogs[mode, rank, len(geom.primes)] += 1
                for _ in range(2):
                    d = DivClass(random_class(rng, doc))
                    t = Fraction(rng.randint(0, 4), rng.randint(1, 3))
                    y = Fraction(rng.randint(0, 4), rng.randint(1, 3))
                    for prime in geom.primes:
                        for name, call in CALLS.items():
                            outcomes[name, _outcome(call, geom, d, prime.name, t, y)] += 1
    assert catalogs == {
        ("polyhedral", 2, 1): 13, ("polyhedral", 2, 2): 25, ("polyhedral", 2, 3): 12,
        ("polyhedral", 3, 1): 18, ("polyhedral", 3, 2): 15, ("polyhedral", 3, 3): 17,
        ("polyhedral", 4, 1): 16, ("polyhedral", 4, 2): 18, ("polyhedral", 4, 3): 16,
        ("round", 2, 1): 15, ("round", 2, 2): 21, ("round", 2, 3): 14,
        ("round", 3, 1): 20, ("round", 3, 2): 20, ("round", 3, 3): 10,
        ("round", 4, 1): 24, ("round", 4, 2): 13, ("round", 4, 3): 13,
    }
    assert outcomes == {
        ("mu_threshold", "returned"): 558,
        ("mu_threshold", "DomainError"): 194,
        ("mu_threshold", "ConsistencyError"): 400,
        ("polygon", "returned"): 418,
        ("polygon", "DomainError"): 194,
        ("polygon", "ConsistencyError"): 540,
        ("cone_contains", "True"): 170,
        ("cone_contains", "False"): 286,
        ("cone_contains", "DomainError"): 194,
        ("cone_contains", "ConsistencyError"): 502,
        ("minkowski_decompose", "returned"): 51,
        ("minkowski_decompose", "DomainError"): 633,
        ("minkowski_decompose", "ConsistencyError"): 468,
        ("cone_generators", "returned"): 196,
        ("cone_generators", "DomainError"): 556,
        ("cone_generators", "ConsistencyError"): 400,
        ("minkowski_basis", "returned"): 196,
        ("minkowski_basis", "DomainError"): 556,
        ("minkowski_basis", "ConsistencyError"): 400,
    }


def test_prime_outside_eff_is_refused_by_every_call():
    outcomes = Counter()
    for rank in (2, 3, 4):
        for seed in SEEDS:
            rng = random.Random(f"outside-eff-{rank}-{seed}")
            doc = outside_eff_catalog(rng, rank)
            geom = parse_geometry(json.dumps(doc))
            d = DivClass(random_class(rng, doc))
            t = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            y = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            for prime in geom.primes:
                for name, call in CALLS.items():
                    try:
                        call(geom, d, prime.name, t, y)
                    except IHSError as exc:
                        outcomes[name, str(exc)] += 1
                    else:
                        outcomes[name, "returned"] += 1
    rule_c = "declared effective cone misses prime 'Q'; every prime must be pseudo-effective"
    not_pointed = "declared effective cone is not pointed"
    assert outcomes == {
        **{(name, rule_c): 317 for name in CALLS},
        **{(name, not_pointed): 110 for name in CALLS},
    }
