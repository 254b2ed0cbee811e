"""Geometry documents: parsing, validation, serialization, divisor
expressions, the declared-cone predicates, and the derived chambers and
movable rays.  The catalog families the chamber tests grow (pairwise,
elliptic, orthogonal) live in families.py, and the brute-force chamber
oracle in oracles.py."""

import json
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

import pytest

from ihspoly import (
    ConsistencyError,
    DivClass,
    DomainError,
    GeometryError,
    format_divisor,
    geometry_to_json,
    is_movable,
    is_pseudo_effective,
    linprog,
    load_geometry,
    parse_divisor,
    parse_geometry,
)
from ihspoly import geometry
from ihspoly.checks import run_checks, sample_big_classes
from ihspoly.geometry import Geometry, Prime
from ihspoly.lattice import dot
from ihspoly.linalg import kernel
from ihspoly.minkowski import enumerate_chambers
from families import elliptic_family, orthogonal_family, pairwise_family
from oracles import brute_force_chambers

F = Fraction


def minimal_doc(**overrides):
    """A small valid polyhedral document, overridable per test."""
    doc = {
        "name": "toy",
        "half_dim": 2,
        "fujiki": 3,
        "basis": ["H", "d"],
        "gram": [[2, 0], [0, -2]],
        "mode": "polyhedral",
        "primes": [
            {"name": "E", "class": [0, 2], "exceptional": True},
            {"name": "E'", "class": [1, -1], "exceptional": False},
        ],
        "effective_generators": [[0, 2], [1, -1]],
    }
    doc.update(overrides)
    return doc


def parse_doc(**overrides):
    return parse_geometry(json.dumps(minimal_doc(**overrides)))


# -- parsing and validation --------------------------------------------------


def test_parse_valid_document():
    geom = parse_doc()
    assert geom.name == "toy"
    assert geom.rank == 2
    assert geom.mode == "polyhedral"
    assert geom.basis == ("H", "d")
    assert geom.lattice.fujiki == 3
    assert geom.lattice.half_dim == 2
    assert [p.name for p in geom.primes] == ["E", "E'"]
    assert geom.prime("E").cls == DivClass([0, 2])
    assert geom.prime("E").exceptional
    assert not geom.prime("E'").exceptional
    assert geom.exceptional_primes == (geom.prime("E"),)
    assert geom.zero() == DivClass([0, 0])


def test_unknown_prime_name_raises_domain_error():
    with pytest.raises(DomainError, match="unknown prime"):
        parse_doc().prime("Z")


def test_undecodable_file(tmp_path):
    path = tmp_path / "bad.geom"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(GeometryError, match="cannot read geometry file: 'utf-8' codec"):
        load_geometry(path)


def test_invalid_json():
    with pytest.raises(GeometryError, match="invalid JSON"):
        parse_geometry("{not json")


def test_non_object_document():
    with pytest.raises(GeometryError, match="JSON object"):
        parse_geometry("[1, 2]")


def test_bad_mode():
    with pytest.raises(GeometryError, match="mode"):
        parse_doc(mode="both")


def test_unexpected_and_missing_fields():
    with pytest.raises(GeometryError, match="unexpected fields"):
        parse_doc(extra_stuff=1)
    doc = minimal_doc()
    del doc["gram"]
    with pytest.raises(GeometryError, match="missing fields"):
        parse_geometry(json.dumps(doc))
    # ample belongs to round mode only
    with pytest.raises(GeometryError, match="unexpected fields"):
        parse_doc(ample=[1, 0])


def test_name_validation():
    with pytest.raises(GeometryError, match="name"):
        parse_doc(name="")
    with pytest.raises(GeometryError, match="name"):
        parse_doc(name=7)


def test_half_dim_validation():
    with pytest.raises(GeometryError, match="half_dim"):
        parse_doc(half_dim=0)
    with pytest.raises(GeometryError, match="half_dim"):
        parse_doc(half_dim=True)
    with pytest.raises(GeometryError, match="half_dim"):
        parse_doc(half_dim="2")


def test_fujiki_validation():
    with pytest.raises(GeometryError, match="floats are forbidden"):
        parse_doc(fujiki=1.5)
    with pytest.raises(GeometryError, match="positive"):
        parse_doc(fujiki=0)
    with pytest.raises(GeometryError, match="positive"):
        parse_doc(fujiki="-3/2")
    with pytest.raises(GeometryError, match="rational"):
        parse_doc(fujiki="three")
    with pytest.raises(GeometryError, match="^fujiki: booleans are not rationals$"):
        parse_doc(fujiki=True)
    with pytest.raises(GeometryError, match="^fujiki: expected a rational, got list$"):
        parse_doc(fujiki=[3])
    geom = parse_doc(fujiki="3/2")
    assert geom.lattice.fujiki == F(3, 2)


def test_basis_validation():
    with pytest.raises(GeometryError, match="basis"):
        parse_doc(basis=[])
    with pytest.raises(GeometryError, match="duplicate basis"):
        parse_doc(basis=["H", "H"])
    with pytest.raises(GeometryError, match="invalid name"):
        parse_doc(basis=["H", "2d"])


def test_gram_validation():
    with pytest.raises(GeometryError, match="matrix"):
        parse_doc(gram=[[2, 0]])
    with pytest.raises(GeometryError, match="matrix"):
        parse_doc(gram=[[2, 0], [0]])
    with pytest.raises(GeometryError, match="symmetric"):
        parse_doc(gram=[[2, 1], [0, -2]])
    with pytest.raises(GeometryError, match="signature"):
        parse_doc(gram=[[2, 0], [0, 2]])
    with pytest.raises(GeometryError, match="signature"):
        parse_doc(gram=[[-2, 0], [0, -2]])


def test_prime_validation():
    with pytest.raises(GeometryError, match="^primes must be a list$"):
        parse_doc(primes={"E": [0, 2]})
    with pytest.raises(GeometryError, match="name/class/exceptional"):
        parse_doc(primes=[{"name": "E", "class": [0, 2]}])
    with pytest.raises(GeometryError, match="duplicate name"):
        parse_doc(primes=[
            {"name": "E", "class": [0, 2], "exceptional": True},
            {"name": "E", "class": [1, -1], "exceptional": True},
        ])
    # Prime names may not shadow basis names either.
    with pytest.raises(GeometryError, match="duplicate name"):
        parse_doc(primes=[{"name": "H", "class": [0, 2], "exceptional": True}])
    with pytest.raises(GeometryError, match=r"^primes\[0\]: prime class must be nonzero$"):
        parse_doc(primes=[{"name": "E", "class": [0, 0], "exceptional": True}])
    with pytest.raises(GeometryError, match="boolean"):
        parse_doc(primes=[{"name": "E", "class": [0, 2], "exceptional": 1}])
    with pytest.raises(GeometryError, match="vector of length 2"):
        parse_doc(primes=[{"name": "E", "class": [0, 2, 0], "exceptional": True}])


def test_exceptional_flag_must_match_square():
    # q(E) = -8 < 0: declaring it non-exceptional is inconsistent.
    with pytest.raises(GeometryError, match="exceptional flag"):
        parse_doc(primes=[{"name": "E", "class": [0, 2], "exceptional": False}])
    # q(H) = 2 > 0: declaring it exceptional is inconsistent.
    with pytest.raises(GeometryError, match="exceptional flag"):
        parse_doc(primes=[{"name": "P", "class": [1, 0], "exceptional": True}])


def test_effective_generator_validation():
    with pytest.raises(GeometryError, match="effective_generators"):
        parse_doc(effective_generators=[])
    with pytest.raises(GeometryError, match="nonzero"):
        parse_doc(effective_generators=[[0, 0], [1, -1]])


def test_round_mode_validation():
    base = {
        "name": "round-toy",
        "half_dim": 2,
        "fujiki": 3,
        "basis": ["A", "B"],
        "gram": [[2, 4], [4, 2]],
        "mode": "round",
        "primes": [{"name": "S", "class": [0, 1], "exceptional": False}],
        "ample": [1, 1],
    }
    geom = parse_geometry(json.dumps(base))
    assert geom.mode == "round"
    assert geom.ample == DivClass([1, 1])
    assert geom.effective_generators == ()

    bad = dict(base)
    bad["ample"] = [1, -1]  # q = 2 - 8 + 2 = -4
    with pytest.raises(GeometryError, match="ample"):
        parse_geometry(json.dumps(bad))

    bad = dict(base)
    bad["gram"] = [[2, 0], [0, -2]]
    bad["primes"] = [{"name": "S", "class": [0, 1], "exceptional": True}]
    bad["ample"] = [1, 0]
    with pytest.raises(GeometryError, match="no exceptional primes"):
        parse_geometry(json.dumps(bad))

    # every prime lies in the round Eff: q(T, ample) = -6
    bad = dict(base)
    bad["primes"] = [*base["primes"], {"name": "T", "class": [-1, 0], "exceptional": False}]
    with pytest.raises(ConsistencyError, match="prime 'T' pairs to -6 <= 0 with the ample class"):
        parse_geometry(json.dumps(bad))


def _rebuilt(how, geom, **changes):
    """geom with the named fields changed, by _replace or by calling
    Geometry with every field."""
    if how == "_replace":
        return geom._replace(**changes)
    fields = {**dict(zip(Geometry._fields, geom._key())), **changes}
    return Geometry(*(fields[name] for name in Geometry._fields))


@pytest.mark.parametrize("how", ["Geometry", "_replace"])
def test_geometry_enforces_the_catalog_invariants(how, fano_round):
    """Building a Geometry refuses what the parser refuses, with the
    parser's exception and message: a zero prime, a flag that disagrees
    with the sign of q, an exceptional round prime, an ample class of
    square <= 0, and a round prime that pairs to <= 0 with the ample
    class."""
    toy = parse_doc()
    zero = Prime("Z", DivClass([0, 0]), False)
    with pytest.raises(GeometryError, match=r"^primes\[2\]: prime class must be nonzero$"):
        _rebuilt(how, toy, primes=(*toy.primes, zero))
    flipped = Prime("E", DivClass([0, 2]), False)
    with pytest.raises(GeometryError, match=r"^primes\[0\]: exceptional flag is False but q = -8$"):
        _rebuilt(how, toy, primes=(flipped, toy.prime("E'")))
    with pytest.raises(GeometryError, match="^round mode admits no exceptional primes$"):
        _rebuilt(how, fano_round, primes=(Prime("N", DivClass([1, -1]), True),))  # q = -4
    with pytest.raises(GeometryError, match="^ample class must have positive BBF square$"):
        _rebuilt(how, fano_round, ample=DivClass([1, -1]))
    off = Prime("T", DivClass([-1, 0]), False)
    with pytest.raises(ConsistencyError, match="^prime 'T' pairs to -6 <= 0 with the ample class, "
                                               "so it is not pseudo-effective$"):
        _rebuilt(how, fano_round, primes=(*fano_round.primes, off))
    assert _rebuilt(how, fano_round) == fano_round


def test_round_geometry_needs_an_ample_class(hilb2):
    """The parser requires an ample vector in round mode; a Geometry
    built or copied into round mode without one is refused by name."""
    with pytest.raises(GeometryError, match="^round mode requires an ample class$"):
        hilb2._replace(mode="round", primes=())


def test_rational_entries_as_strings():
    geom = parse_doc(gram=[["2", "0"], ["0", "-2"]],
                     primes=[{"name": "E", "class": ["0", "1/1"], "exceptional": True}],
                     effective_generators=[["0", "2"], ["1", "-1"]])
    assert geom.prime("E").cls == DivClass([0, 1])
    with pytest.raises(GeometryError, match="floats are forbidden"):
        parse_doc(gram=[[2.0, 0], [0, -2]])
    with pytest.raises(GeometryError, match=r"gram\[1\]\[1\]: '-2/0' has a zero denominator"):
        parse_doc(gram=[[2, 0], [0, "-2/0"]])


# -- serialization -------------------------------------------------------------


def test_round_trip_fixtures(hilb2, k3_elliptic, hilb2_elliptic, fano_round):
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, fano_round):
        again = parse_geometry(geometry_to_json(geom))
        assert again == geom
        # Serialization is itself stable.
        assert geometry_to_json(again) == geometry_to_json(geom)


def test_serialized_field_order():
    doc = json.loads(geometry_to_json(parse_doc()))
    assert list(doc) == [
        "name", "half_dim", "fujiki", "basis", "gram", "mode",
        "primes", "effective_generators",
    ]
    assert doc["fujiki"] == "3"
    assert doc["gram"][1] == ["0", "-2"]


def test_geometry_to_json_writes_rationals_as_str():
    # A rational is written as str writes its Fraction.
    doc = json.loads(geometry_to_json(parse_doc(effective_generators=[[0, 2], ["1/2", "-5/2"]])))
    assert doc["fujiki"] == str(F(3)) == "3"
    assert doc["effective_generators"][1] == [str(F(1, 2)), str(F(-5, 2))] == ["1/2", "-5/2"]


# -- divisor expressions ---------------------------------------------------------


def test_parse_divisor_forms(hilb2):
    h = DivClass([1, 0])
    d = DivClass([0, 1])
    assert parse_divisor(hilb2, "H") == h
    assert parse_divisor(hilb2, "3H") == 3 * h
    assert parse_divisor(hilb2, "3*H") == 3 * h
    assert parse_divisor(hilb2, "3 H") == 3 * h
    assert parse_divisor(hilb2, "H - d") == h - d
    assert parse_divisor(hilb2, "-H + 2d") == -h + 2 * d
    assert parse_divisor(hilb2, "1/2 H") == h.scale(F(1, 2))
    assert parse_divisor(hilb2, "1/2*H - 3/2 d") == DivClass([F(1, 2), F(-3, 2)])
    assert parse_divisor(hilb2, "0") == hilb2.zero()
    assert parse_divisor(hilb2, "H + H") == 2 * h


def test_parse_divisor_resolves_prime_names(hilb2):
    assert parse_divisor(hilb2, "E") == DivClass([0, 2])
    assert parse_divisor(hilb2, "E'") == DivClass([1, -1])
    assert parse_divisor(hilb2, "3H - E'") == DivClass([2, 1])


def test_parse_divisor_errors(hilb2):
    with pytest.raises(GeometryError, match="empty"):
        parse_divisor(hilb2, "   ")
    with pytest.raises(GeometryError, match="constant term"):
        parse_divisor(hilb2, "H + 3")
    with pytest.raises(GeometryError, match="ends with an operator"):
        parse_divisor(hilb2, "H +")
    with pytest.raises(GeometryError, match="unknown divisor name"):
        parse_divisor(hilb2, "H + Q")
    with pytest.raises(GeometryError, match="name after '\\*'"):
        parse_divisor(hilb2, "2*")
    with pytest.raises(GeometryError, match="name after '\\*'"):
        parse_divisor(hilb2, "2 * 3")
    with pytest.raises(GeometryError, match="expected '\\+' or '-'"):
        parse_divisor(hilb2, "H d")
    with pytest.raises(GeometryError, match="cannot tokenize"):
        parse_divisor(hilb2, "H @ d")
    with pytest.raises(GeometryError, match="^expected a term, got '\\*'$"):
        parse_divisor(hilb2, "* H")
    with pytest.raises(GeometryError, match="divisor term: '1/0' has a zero denominator"):
        parse_divisor(hilb2, "1/0 H")


def test_format_divisor(hilb2):
    assert format_divisor(hilb2, DivClass([3, -2])) == "3*H - 2*d"
    assert format_divisor(hilb2, DivClass([1, 0])) == "H"
    assert format_divisor(hilb2, DivClass([0, 0])) == "0"
    assert format_divisor(hilb2, DivClass([-1, F(1, 2)])) == "-H + 1/2*d"
    assert format_divisor(hilb2, DivClass([0, -1])) == "-d"


def test_format_divisor_round_trips_seeded(hilb2, hilb2_elliptic):
    rng = random.Random(59)
    for geom in (hilb2, hilb2_elliptic):
        for _ in range(40):
            d = DivClass(
                [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(geom.rank)]
            )
            assert parse_divisor(geom, format_divisor(geom, d)) == d


# -- cone predicates ---------------------------------------------------------------


def test_pseudo_effective_closed_form(hilb2):
    # Eff = cone((0,2), (1,-1)): xH + yd lies inside iff x >= 0 and x + y >= 0.
    for x in range(-4, 5):
        for y in range(-4, 5):
            expected = x >= 0 and x + y >= 0
            assert is_pseudo_effective(hilb2, DivClass([x, y])) == expected


def test_movable_closed_form(hilb2):
    # Mov = cone((1,0), (1,-1)): psef plus q(D, E) >= 0 means y <= 0.
    for x in range(-4, 5):
        for y in range(-4, 5):
            expected = x >= 0 and x + y >= 0 and y <= 0
            assert is_movable(hilb2, DivClass([x, y])) == expected


def test_pseudo_effective_round(fano_round):
    assert is_pseudo_effective(fano_round, DivClass([1, 0]))
    assert is_pseudo_effective(fano_round, DivClass([1, 1]))
    assert not is_pseudo_effective(fano_round, DivClass([1, -1]))  # q = -4
    assert not is_pseudo_effective(fano_round, DivClass([-1, 0]))  # wrong side
    assert is_pseudo_effective(fano_round, DivClass([0, 0]))


def test_movable_round(fano_round):
    # Round mode: pseudo-effective, then q-nonnegative against S = (0, 1).
    # (3, -1) has q = -4, so it is not pseudo-effective; the ample class
    # (1, 1) pairs to 6 with S.  S lies in the closed positive cone, so
    # every pseudo-effective class pairs nonnegatively with it.
    assert fano_round.lattice.square(DivClass([3, -1])) == -4
    assert is_movable(fano_round, DivClass([3, -1])) is False
    assert fano_round.prime_pair(fano_round.ample, "S") == 6
    assert is_movable(fano_round, fano_round.ample) is True
    for x in range(-4, 5):
        for y in range(-4, 5):
            d = DivClass([x, y])
            assert is_movable(fano_round, d) == is_pseudo_effective(fano_round, d)
    with pytest.raises(DomainError, match="rank"):
        is_movable(fano_round, DivClass([1, 0, 0]))


def test_cone_predicate_dimension_check(hilb2):
    with pytest.raises(DomainError):
        is_pseudo_effective(hilb2, DivClass([1, 0, 0]))


def test_non_pointed_effective_cone_rejected():
    # Eff = the upper half-plane contains the line through (1, 0).
    geom = parse_doc(effective_generators=[[1, 0], [-1, 0], [0, 1]])
    with pytest.raises(ConsistencyError, match="^declared effective cone is not pointed$"):
        is_pseudo_effective(geom, DivClass([0, 1]))


def test_derived_cones_built_once_per_instance(hilb2):
    assert hilb2.movable_rays is hilb2.movable_rays
    assert hilb2.eff_cone is hilb2.eff_cone
    assert hilb2.mov_cone is hilb2.mov_cone
    copy = hilb2._replace(primes=tuple(reversed(hilb2.primes)))
    assert "movable_rays" not in vars(copy) and "eff_cone" not in vars(copy)
    assert set(copy.movable_rays) == set(hilb2.movable_rays)


def test_mov_cone_matches_is_movable_seeded(hilb2, k3_elliptic, hilb2_elliptic):
    # Mov is Eff cut by the primes' form rows: its rays lie in it, and its
    # membership test, which is_movable reads, agrees with that definition
    # on any class, inside Eff or not.
    rng = random.Random(137)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        mov = geom.mov_cone
        rows = [row for row, _ in geom.prime_forms.values()]
        assert mov.equations == geom.eff_cone.equations
        assert all(mov.contains(r.num) for r in geom.movable_rays)
        seen = set()
        for _ in range(200):
            d = DivClass([F(rng.randint(-3, 6), rng.choice((1, 2))) for _ in range(geom.rank)])
            movable = is_pseudo_effective(geom, d) and all(dot(d.num, r) >= 0 for r in rows)
            assert mov.contains(d.num) == movable
            assert is_movable(geom, d) == movable
            seen.add((movable, is_pseudo_effective(geom, d)))
        assert seen == {(True, True), (False, True), (False, False)}


@pytest.fixture
def tested(monkeypatch):
    """The size of every set a Schur step is taken to, in order: the
    records Geometry._grow is asked for and does not hold yet."""
    sizes = []
    grow = Geometry._grow

    def counting(geom, record, prime):
        if frozenset((*record.names, prime.name)) not in geom.support_projectors:
            sizes.append(len(record.names) + 1)
        return grow(geom, record, prime)

    monkeypatch.setattr(Geometry, "_grow", counting)
    return sizes


@pytest.mark.parametrize("k", [6, 10])
def test_chambers_grow_from_chambers_only(tested, k):
    geom = pairwise_family(k)
    chambers = geom.chambers
    assert len(chambers) == 1 + k + comb(k, 2)
    # each singleton, pair and triple once; no set of 4 or more
    assert len(tested) == k + comb(k, 2) + comb(k, 3)
    assert sorted(set(tested)) == [1, 2, 3]
    names = [p.name for p in geom.primes]
    want = [frozenset(), *(frozenset({n}) for n in names)]
    want += [frozenset(pair) for pair in combinations(names, 2)]
    assert list(chambers) == sorted(want, key=lambda s: (len(s), tuple(sorted(s))))


def test_pairwise_family_movable_rays():
    # Mov is cut out of the orthant by sum(x) >= 3 x_i, and its extremal
    # rays are the sums of three primes; k = 8 solves C(16, 7) = 11,440
    # facet subsets, inside EXTREME_RAY_SUBSET_LIMIT.
    for k in (6, 8):
        rays = {r.num for r in pairwise_family(k).movable_rays}
        assert rays == {tuple(int(i in c) for i in range(k)) for c in combinations(range(k), 3)}


@pytest.mark.parametrize("family, k, count", [("elliptic", 3, 54), ("orthogonal", 8, 256)])
def test_chambers_build_no_walk_entry(family, k, count, monkeypatch):
    """Enumerating chambers grows support records only: no walk entry is
    built and no P_S(E) is computed, not even for a flag of the catalog."""
    products = []
    positive = geometry.SupportProjector.positive

    def counting(record, d):
        products.append(d)
        return positive(record, d)

    monkeypatch.setattr(geometry.SupportProjector, "positive", counting)
    geom = elliptic_family(k) if family == "elliptic" else orthogonal_family(k)
    assert len(geom.chambers) == count
    assert list(geom.chambers) == brute_force_chambers(geom)
    assert geom.answers == {} and products == []
    assert set(geom.support_projectors) == set(geom.chambers)


def test_chambers_refuse_past_the_chamber_limit(monkeypatch, tested):
    """Past CHAMBER_LIMIT the enumeration raises DomainError at the first
    chamber beyond it, and caches no chamber list; at the limit it
    answers.  Every family the tests enumerate is far below the limit."""
    assert geometry.CHAMBER_LIMIT == 10**4
    want = elliptic_family(2).chambers
    assert len(want) == 18
    monkeypatch.setattr(geometry, "CHAMBER_LIMIT", 18)
    assert elliptic_family(2).chambers == want
    # 1 + 5 + 8 + 4 chambers by size: the 11th is the fifth pair
    monkeypatch.setattr(geometry, "CHAMBER_LIMIT", 10)
    geom = elliptic_family(2)
    tested.clear()
    for _ in range(2):  # refused again: nothing was cached
        with pytest.raises(DomainError) as refusal:
            geom.chambers
        assert str(refusal.value) == ("more than CHAMBER_LIMIT = 10 chambers; "
                                      "the enumeration stopped at supports of 2 primes")
        assert "chambers" not in vars(geom)
    # the empty support, 5 singletons and 5 pairs; no step to a triple
    assert len(geom.support_projectors) == 11
    assert max(tested) == 2


@pytest.fixture
def subset_solves(monkeypatch):
    """One entry per kernel solve in linprog."""
    calls = []

    def counting(rows, n):
        calls.append(rows)
        return kernel(rows, n)

    monkeypatch.setattr(linprog, "kernel", counting)
    return calls


def test_movable_rays_refuse_over_the_subset_limit(subset_solves):
    # Rank 7: Mov has 33 facets of Eff and 12 prime rows, and its rays
    # would take C(45, 6) = 8,145,060 solves (the brute force ran 525 s).
    assert linprog.EXTREME_RAY_SUBSET_LIMIT == 10**6
    geom = elliptic_family(5)
    assert len(geom.mov_cone.facets) == 45 and not geom.mov_cone.equations
    subset_solves.clear()
    with pytest.raises(DomainError, match="8145060 facet subsets.*EXTREME_RAY_SUBSET_LIMIT = 1000000"):
        geom.movable_rays
    assert subset_solves == []


def test_subset_limit_is_inclusive(hilb2_elliptic, monkeypatch, subset_solves):
    # hilb2_k3's Mov: 11 facets in dimension 4, so C(11, 3) = 165 subsets
    want = hilb2_elliptic.movable_rays
    monkeypatch.setattr(linprog, "EXTREME_RAY_SUBSET_LIMIT", 165)
    geom = hilb2_elliptic._replace()
    geom.mov_cone
    subset_solves.clear()
    assert geom.movable_rays == want
    assert len(subset_solves) == 165
    monkeypatch.setattr(linprog, "EXTREME_RAY_SUBSET_LIMIT", 164)
    geom = hilb2_elliptic._replace()
    geom.mov_cone
    subset_solves.clear()
    with pytest.raises(DomainError, match="165 facet subsets.*EXTREME_RAY_SUBSET_LIMIT = 164"):
        geom.movable_rays
    assert subset_solves == []


def test_chambers_take_one_step_per_later_prime(tested):
    # {A, B} and {A, C} are chambers and {B, C} is not (q(B, C) = -4,
    # q(C) = -6).  Each chamber tries the primes after its last one:
    # {B, C} grows no further, and {A, B, C} is one failing step from
    # {A, B}.
    primes = {"A": [0, 1, 0], "B": [0, 0, 1], "C": [1, 0, 2]}
    geom = parse_doc(
        basis=["h", "a", "b"],
        gram=[[2, 0, 0], [0, -2, 0], [0, 0, -2]],
        primes=[{"name": n, "class": c, "exceptional": True} for n, c in primes.items()],
        effective_generators=list(primes.values()),
    )
    assert [sorted(s) for s in geom.chambers] == [[], ["A"], ["B"], ["C"], ["A", "B"], ["A", "C"]]
    assert tested == [1, 1, 1, 2, 2, 2, 3]


def test_chambers_match_brute_force(hilb2, k3_elliptic, hilb2_elliptic):
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, pairwise_family(6)):
        assert list(geom.chambers) == brute_force_chambers(geom)


DERIVED = {name for name, v in vars(Geometry).items() if isinstance(v, cached_property)}


def test_support_projectors_are_chambers_after_checks(hilb2_elliptic):
    run_checks(hilb2_elliptic, 4, 0)
    chambers = enumerate_chambers(hilb2_elliptic)
    assert chambers is hilb2_elliptic.chambers
    projectors = hilb2_elliptic.support_projectors
    assert len(projectors) > 1
    lat = hilb2_elliptic.lattice
    rank = hilb2_elliptic.rank
    units = [DivClass([int(i == j) for j in range(rank)]) for i in range(rank)]
    classes = units + sample_big_classes(hilb2_elliptic, 4, seed=7)
    for support, proj in projectors.items():
        assert list(proj.names) == sorted(support)
        assert support in chambers
        primes = [hilb2_elliptic.prime(n).cls for n in proj.names]
        for x in classes:
            p = proj.positive(x)
            # P_S(x) is orthogonal to S, and x - P_S(x) is sum x_i E_i
            assert all(lat.pair(p, e) == 0 for e in primes)
            negative = hilb2_elliptic.zero()
            for e, c in zip(primes, proj.coefficients(x)):
                negative = negative + e.scale(c)
            assert x - p == negative
        # P_S fixes S-perp
        perp = kernel([hilb2_elliptic.prime_forms[n][0] for n in proj.names], rank)
        assert len(perp) == rank - len(support)
        for v in perp:
            y = DivClass(v)
            assert proj.positive(y) == y and not any(proj.coefficients(y))
    for key in DERIVED:
        getattr(hilb2_elliptic, key)
    copy = hilb2_elliptic._replace()
    assert DERIVED >= {"eff_cone", "support_projectors", "answers"}
    assert not any(key in vars(copy) for key in DERIVED)
    assert copy.support_projectors == {}


def test_prime_forms_match_the_pairing(hilb2_elliptic):
    lat = hilb2_elliptic.lattice
    for d in sample_big_classes(hilb2_elliptic, 5, seed=3):
        for p in hilb2_elliptic.primes:
            assert hilb2_elliptic.prime_pair(d, p.name) == lat.pair(d, p.cls)
