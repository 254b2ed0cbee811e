"""The engine's ConsistencyErrors that only an inconsistent catalog
reaches, one named catalog and one public call each.

Each catalog passes parse_geometry but breaks a catalog rule that
ROADMAP.md plans to check at load time; that rule, named per catalog,
makes its sites unreachable once it is checked: (b) every movable ray
has q >= 0, (c) every prime lies in Eff, (d) distinct primes pair
nonnegatively, (e) no movable ray with q > 0 lies on a facet of Eff.
Some catalogs break other rules as well.
"""

import json

import pytest

from ihspoly import (
    ConsistencyError,
    DivClass,
    cone_generators,
    decompose,
    minkowski_basis,
    minkowski_decompose,
    mu_threshold,
    parse_geometry,
)


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


DIAG2 = [2, -2]

# Rule (c): Eff is the positive quadrant and E = -d lies outside it,
# so D - tE = D + t d never leaves Eff.
FLIPPED_PRIME = catalog("flipped_prime", DIAG2, [("E", [0, -1])], [[1, 0], [0, 1]])

# Rule (d): q(E, F) = -2 for the distinct primes E = H + d and F = d.
CROSSED_PRIMES = catalog("crossed_primes", DIAG2, [("E", [1, 1]), ("F", [0, 1])], [[1, 0], [0, 1]])

# Rule (b): with no exceptional prime Mov = Eff = cone(H, H + 2d),
# and q(H + 2d) = -6.  The isotropic class H + d lies inside Mov.
NEGATIVE_MOVABLE_RAY = catalog("negative_movable_ray", DIAG2, [("E", [1, 0])], [[1, 0], [1, 2]])

# Rule (e): the big movable ray H of Eff = cone(H, H + d) lies on its
# facet {d-coordinate = 0}, and the generator E = H + d points out of it.
BIG_ON_A_FACET = catalog("big_on_a_facet", DIAG2, [("E", [1, 1])], [[1, 0], [1, 1]])

# Rule (d): the exceptional primes E1 = d and E2 = d + c pair to -2.
NEGATIVELY_PAIRED = catalog(
    "negatively_paired",
    [2, -2, -2],
    [("E1", [0, 1, 0]), ("E2", [0, 1, 1])],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
)

CASES = {
    "okounkov-threshold-unbounded": (
        lambda: mu_threshold(FLIPPED_PRIME, DivClass([1, 0]), "E"),
        "threshold unbounded: flag prime 'E' lies outside the declared effective cone",
    ),
    "okounkov-exceptional-prime-off-eff": (
        lambda: cone_generators(FLIPPED_PRIME, "E"),
        "chamber-closure ray is not pseudo-effective; catalog inconsistent",
    ),
    "minkowski-unbounded-step": (
        lambda: minkowski_decompose(FLIPPED_PRIME, DivClass([2, 1]), "E"),
        "no wall bounds the chamber generator direction",
    ),
    "minkowski-negative-correction": (
        lambda: minkowski_basis(CROSSED_PRIMES, "E"),
        "chamber generator acquired a negative correction coefficient",
    ),
    "minkowski-isotropic-not-a-ray": (
        lambda: minkowski_decompose(NEGATIVE_MOVABLE_RAY, DivClass([1, 1]), "E"),
        "isotropic movable class is not a multiple of any listed extremal ray",
    ),
    "minkowski-zero-step": (
        lambda: minkowski_decompose(BIG_ON_A_FACET, DivClass([1, 0]), "E"),
        "chamber generator cannot be subtracted; catalog inconsistent",
    ),
    "zariski-negative-coefficient": (
        lambda: decompose(NEGATIVELY_PAIRED, DivClass([1, 1, 2])),
        "negative coefficient -1 for prime 'E1'; the declared prime catalog is inconsistent",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_inconsistent_catalog_is_reported(case):
    call, message = CASES[case]
    with pytest.raises(ConsistencyError) as caught:
        call()
    assert str(caught.value) == message
