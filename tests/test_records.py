"""The value contract of the engine's twelve records.

Each record is immutable: setting or deleting an attribute raises
AttributeError.  Records built from equal fields are equal and hash
alike, and so do their copies and pickles.  NOPolygon compares and
hashes its frame and nu, never its trace.  Geometry compares its seven
declared fields, and _replace copies it without the derived data, which
lives in the instance dict.
"""

import copy
import pickle
from functools import cached_property
from pathlib import Path

import pytest

from ihspoly import (
    BBFLattice,
    CheckResult,
    Geometry,
    NOPolygon,
    cone_generators,
    decompose,
    load_geometry,
    minkowski_basis,
    minkowski_decompose,
    parse_divisor,
    polygon,
)

HILB2 = Path(__file__).resolve().parents[1] / "geometries" / "hilb2.geom"
CACHES = {name for name, v in vars(Geometry).items() if isinstance(v, cached_property)}
RECORDS = (
    "CheckResult",
    "Prime",
    "Geometry",
    "BBFLattice",
    "Cone",
    "BasisElement",
    "MinkowskiDecomposition",
    "WalkSegment",
    "BreakpointTrace",
    "NOPolygon",
    "ConePoint",
    "ZariskiDecomposition",
)


def records(geom: Geometry) -> dict:
    """One record of each kind, by class name, all computed from geom."""
    d = parse_divisor(geom, "3*H - E")
    poly = polygon(geom, d, "E'")
    found = (
        CheckResult("x", 4, 1, ("boom",)),
        geom.primes[0],
        geom,
        geom.lattice,
        geom.eff_cone,
        minkowski_basis(geom, "E'")[1],
        minkowski_decompose(geom, d, "E'"),
        poly.trace.segments[1],
        poly.trace,
        poly,
        cone_generators(geom, "E'")[0],
        decompose(geom, d),
    )
    return {type(r).__name__: r for r in found}


@pytest.fixture(scope="module")
def pair():
    """The records of two geometries loaded apart from one file."""
    return records(load_geometry(HILB2)), records(load_geometry(HILB2))


def test_every_record_is_covered(pair):
    assert sorted(pair[0]) == sorted(RECORDS)
    assert len(pair[0]["BreakpointTrace"].segments) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(pair, name):
    a, b = pair[0][name], pair[1][name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(pair, name):
    record = pair[0][name]
    for attr in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert pair[0][name] == pair[1][name]


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_copy_and_pickle(pair, name):
    record = pair[0][name]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        with pytest.raises(AttributeError):
            setattr(clone, record._fields[0], None)


def test_nopolygon_equality_ignores_the_trace(pair):
    poly, other = pair[0]["NOPolygon"], pair[1]["NOPolygon"]
    bare = NOPolygon(poly.vertices, poly.nu, poly.mu)
    assert bare.trace is None and poly.trace is not None
    assert bare == poly and hash(bare) == hash(poly)
    swapped = NOPolygon(poly.vertices, poly.nu, poly.mu, other.trace._replace(segments=()))
    assert swapped == poly and hash(swapped) == hash(poly)
    assert NOPolygon(poly.vertices, poly.nu + 1, poly.mu, poly.trace) != poly
    with pytest.raises(AttributeError):
        poly.trace = None


def test_geometry_replace_copies_without_derived_data():
    geom = load_geometry(HILB2)
    for name in CACHES:
        getattr(geom, name)
    assert CACHES <= set(vars(geom))
    fresh = geom._replace()
    assert fresh is not geom and fresh == geom and hash(fresh) == hash(geom)
    assert not CACHES & set(vars(fresh))
    reordered = geom._replace(primes=geom.primes[::-1])
    assert reordered != geom and reordered.primes == geom.primes[::-1]
    assert reordered.lattice is geom.lattice and reordered.prime("E") == geom.prime("E")
    assert geom._replace(name="other") != geom
    with pytest.raises(TypeError):
        geom._replace(colour="red")


@pytest.mark.parametrize(
    "gram, fujiki, half_dim, message",
    [
        ([[2, 0, 0], [0, -2, 0]], 1, 1, "gram matrix not square"),
        ([[2, 1], [0, -2]], 1, 1, "gram matrix not symmetric"),
        ([[2, 0], [0, -2]], 0, 1, "Fujiki constant must be positive"),
        ([[2, 0], [0, -2]], 1, 0, "half_dim must be a positive integer"),
        ([[2, 0], [0, 2]], 1, 1, "BBF form must have signature (1, rank-1); got (2, 0, 0)"),
        ([[1, 0], [0, 0]], 1, 1, "BBF form must have signature (1, rank-1); got (1, 0, 1)"),
    ],
    ids=["square", "symmetric", "fujiki", "half_dim", "definite", "degenerate"],
)
def test_bbf_lattice_messages(gram, fujiki, half_dim, message):
    with pytest.raises(ValueError) as info:
        BBFLattice(gram, fujiki, half_dim)
    assert str(info.value) == message
