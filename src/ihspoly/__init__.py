"""Exact divisorial geometry on irreducible holomorphic symplectic
manifolds: Zariski chambers, polygons along prime divisors, volumes,
and Minkowski bases, all over the rationals and single quadratic
extensions.

Public names resolve on first use (PEP 562): `import ihspoly` loads no
layer, and `ihspoly.polygon` imports `okounkov` and what it needs, and
no more.  Each name is then bound on the package, so later lookups are
plain attribute reads.  Likewise each `ihspoly` subcommand imports only
the layers it runs.
"""

from importlib import import_module

_LAYERS = {
    "checks": ("CheckResult", "run_checks", "sample_big_classes"),
    "errors": ("ConsistencyError", "DomainError", "GeometryError", "IHSError"),
    "geometry": (
        "Geometry",
        "Prime",
        "format_divisor",
        "geometry_to_json",
        "is_movable",
        "is_pseudo_effective",
        "load_geometry",
        "parse_divisor",
        "parse_geometry",
    ),
    "lattice": ("BBFLattice", "DivClass"),
    "minkowski": (
        "BasisElement",
        "ConePoint",
        "MinkowskiDecomposition",
        "chamber_closure_rays",
        "chamber_generator",
        "cone_generators",
        "enumerate_chambers",
        "isotropic_extremal_rays",
        "minkowski_basis",
        "minkowski_decompose",
        "movable_cone_rays",
    ),
    "okounkov": (
        "BreakpointTrace",
        "NOPolygon",
        "WalkSegment",
        "chamber_walk",
        "cone_contains",
        "mu_threshold",
        "polygon",
        "polygon_contains",
        "polygon_minkowski_sum",
        "polygon_scale",
    ),
    "surd": ("DiscriminantMixError", "Surd"),
    "zariski": (
        "ZariskiDecomposition",
        "chamber_id",
        "decompose",
        "divisorial_base_loci",
        "is_big",
        "null_set",
        "restricted_volume",
        "volume",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    try:
        layer = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{layer}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
