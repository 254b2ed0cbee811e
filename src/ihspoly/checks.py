"""Randomized structural self-checks over a geometry catalog.

Every identity asserted here is exact, so a check either holds on a
sample or the catalog/engine is wrong; there are no tolerances.  The
sampler draws big classes from the declared effective (or ample) cone
with a seeded generator.  Each check is one predicate over its cases,
and one runner counts the cases it ran against and labels the first
few that failed.  The checks share each class's decomposition and its
flag polygon for one run (see run_checks).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .errors import DomainError, IHSError
from .geometry import Geometry, format_divisor, is_movable, is_pseudo_effective
from .lattice import DivClass, linear_combination
from .minkowski import _minkowski_decompose, chamber_generator, enumerate_chambers
from .okounkov import (
    NOPolygon,
    _polygon,
    polygon_contains,
    polygon_minkowski_sum,
    polygon_scale,
)
from .polygon2d import contains_polygon, right_of, translate
from .surd import Surd
from .zariski import chamber_positive_part, decompose, volume_from_square


class CheckResult(NamedTuple):
    name: str
    runs: int
    failed: int
    messages: tuple[str, ...]  # first few failure descriptions

    @property
    def passed(self) -> bool:
        return self.failed == 0

    @property
    def skipped(self) -> bool:
        return self.runs == 0


_MAX_MESSAGES = 5


def _check(name: str, cases, holds, says) -> CheckResult:
    """Run holds(*case) on every case, in order.  holds returns None
    for a case outside the check's domain, which counts neither as a
    run nor a failure; an IHSError it raises is a failure.  says(*case)
    labels a failure, and only the first _MAX_MESSAGES are labelled."""
    runs = failed = 0
    messages: list[str] = []
    for case in cases:
        error = None
        try:
            ok = holds(*case)
        except IHSError as exc:
            ok, error = False, exc
        if ok is None:
            continue
        runs += 1
        if not ok:
            failed += 1
            if len(messages) < _MAX_MESSAGES:
                messages.append(says(*case) if error is None else f"{says(*case)}: {error}")
    return CheckResult(name, runs, failed, tuple(messages))


def sample_big_classes(geom: Geometry, count: int, seed: int = 0) -> list[DivClass]:
    """Deterministic sample of big classes inside the declared cone."""
    return _sample_big_classes(geom, count, seed, decompose)


def _sample_big_classes(geom: Geometry, count: int, seed: int, decomposed) -> list[DivClass]:
    """sample_big_classes, decomposing candidates with decomposed(geom, d).
    Each class is the first of at most 200 draws that is accepted."""
    rng = random.Random(seed)
    lat = geom.lattice
    if geom.mode == "polyhedral":
        gens = geom.effective_generators

        def draw() -> DivClass:
            coeffs = [Fraction(rng.randint(0, 6), rng.choice((1, 1, 1, 2))) for _ in gens]
            return linear_combination(coeffs, gens, lat.rank)

        def accept(cand: DivClass) -> bool:
            return not cand.is_zero and lat.square(decomposed(geom, cand).positive) > 0
    else:
        ample = geom.ample

        def draw() -> DivClass:
            k = rng.randint(1, 4)
            return ample.scale(k) + DivClass([rng.randint(-2, 2) for _ in range(lat.rank)])

        def accept(cand: DivClass) -> bool:
            big = is_pseudo_effective(geom, cand) and lat.square(cand) > 0
            return big and lat.pair(cand, ample) > 0
    out: list[DivClass] = []
    for _ in range(count):
        for _ in range(200):
            cand = draw()
            if accept(cand):
                out.append(cand)
                break
        else:
            raise DomainError("could not sample a big class from the catalog")
    return out


def _shared(fn):
    """fn(geom, *args), computed once per (geometry, args) for the life of
    the returned function; a raised IHSError is stored and raised again
    to every later caller.  Geometries are told apart by identity."""
    seen: dict = {}

    def shared(geom: Geometry, *args):
        key = (id(geom), *args)
        found = seen.get(key)
        if found is None:
            try:
                found = fn(geom, *args)
            except IHSError as exc:
                found = exc
            seen[key] = found
        if isinstance(found, IHSError):
            raise found
        return found

    return shared


def _translation_holds(base: NOPolygon, moved: NOPolygon) -> bool:
    """The flag-translation identity between base, the polygon of (D, E),
    and moved, that of (D + E, E).

    The absolute polygon of D + E beyond t = 1 is exactly the polygon of
    D shifted by (1, 0) (substitute t -> t - 1); left of t = 1 it may
    grow, so equality is one-sided.  Translation keeps containment, so
    both sides are compared in moved's normalized coordinates, where D's
    shifted polygon sits at base.nu + 1 - moved.nu and absolute t >= 1
    reads t >= 1 - moved.nu.
    """
    if moved.nu + moved.mu != Surd(base.nu) + base.mu + 1:
        return False
    shifted = translate(base.frame, base.nu + 1 - moved.nu)
    if not contains_polygon(moved.frame, shifted):
        return False
    if not contains_polygon(shifted, right_of(moved.frame, 1 - moved.nu)):
        return False
    if base.nu > 0:
        # with E already in the negative support the whole normalized
        # picture is unchanged
        return moved.frame == base.frame and moved.nu == base.nu + 1
    return True


def run_checks(geom: Geometry, samples: int = 100, seed: int = 0) -> tuple[CheckResult, ...]:
    """Run every structural check on `samples` seeded big classes.

    Each check is an entry (name, cases, holds, says) that _check runs,
    in the order listed.  The checks share one decomposition per
    (geometry, class) and one polygon per (geometry, class, flag) for
    this call only; nothing is kept once it returns.  Every polygon,
    volume and Minkowski decomposition takes the decomposition of its
    class from the shared ones; a polygon reads that of D - nu E off
    that of D, so D - nu E is never decomposed.  Polygons that only one
    check reads are built outside the polygon share: flag-translation's
    D + E, superadditivity's D1 + D2, area-identity's non-flag polygons
    of the samples that flag-translation skips, and the reordered
    copy's.  The flag is the first non-exceptional prime, else the first
    prime; a catalog with no prime gives the flag's checks no cases.
    """
    lat = geom.lattice
    shared_decompose = _shared(decompose)

    def polygon(g: Geometry, d: DivClass, prime_name: str):
        return _polygon(g, d, g.prime(prime_name), shared_decompose(g, d))

    shared_polygon = _shared(polygon)
    classes = _sample_big_classes(geom, samples, seed, shared_decompose)
    primes = geom.primes
    flag = next((p for p in primes if not p.exceptional), primes[0] if primes else None)
    flagged = classes if flag else []  # the samples of the checks that read the flag
    translated = classes[: max(1, len(classes) // 2)]  # flag-translation's samples
    shuffled = geom._replace(primes=primes[::-1],  # catalog-order-invariance's copy
                             effective_generators=geom.effective_generators[::-1])

    def square(d: DivClass) -> Fraction:
        return lat.square(shared_decompose(geom, d).positive)

    def area_cases():  # q(P(D)) is taken once per sample, before its primes
        for i, d in enumerate(classes):
            qp = square(d)
            for p in primes:
                yield d, p, shared_polygon if p == flag or i < len(translated) else polygon, qp

    def area_identity(d: DivClass, p, build, qp: Fraction) -> bool:
        return build(geom, d, p.name).area * 2 == qp

    def volume_chain(d: DivClass) -> bool:
        n, c = lat.half_dim, lat.fujiki
        qp = square(d)
        v = volume_from_square(geom, qp)
        a = shared_polygon(geom, d, flag.name).area
        return a * 2 == qp and (a * 2) ** n * c == v and Surd(qp) ** n * c == v

    def structure(d: DivClass) -> bool:
        segments = shared_polygon(geom, d, flag.name).trace.segments
        for prev, nxt in zip(segments, segments[1:]):
            if not prev.chamber <= nxt.chamber or not isinstance(nxt.t_start, Fraction):
                return False
        slopes = [lat.pair(seg.slope, flag.cls) for seg in segments]
        return all(a >= b for a, b in zip(slopes, slopes[1:]))

    def translation(d: DivClass, p) -> bool:
        base = shared_polygon(geom, d, p.name)
        return _translation_holds(base, polygon(geom, d + p.cls, p.name))  # used only here

    def superadditive(d1: DivClass, d2: DivClass) -> bool | None:
        p1 = shared_polygon(geom, d1, flag.name)
        p2 = shared_polygon(geom, d2, flag.name)
        p12 = polygon(geom, d1 + d2, flag.name)  # used only here
        # Each polygon lives in the extension of its own mu; a sum
        # cannot combine two different radicals (comparing them is exact).
        if len({p.frame.d for p in (p1, p2, p12)} - {0}) > 1:
            return None
        return polygon_contains(p12, polygon_minkowski_sum(p1, p2))

    def log_concave(d1: DivClass, d2: DivClass) -> bool:
        s1, s2, s12 = square(d1), square(d2), square(d1 + d2)
        gap = s12 - s1 - s2
        return gap >= 0 and gap * gap >= 4 * s1 * s2

    def idempotent(d: DivClass) -> bool:
        pos = shared_decompose(geom, d).positive
        again = shared_decompose(geom, pos)
        if again.negative or again.positive != pos:
            return False
        kept = shared_polygon(geom, pos, flag.name).frame
        return kept == shared_polygon(geom, d, flag.name).frame

    def order_invariant(d: DivClass) -> bool:
        a, b = shared_decompose(geom, d), shared_decompose(shuffled, d)
        if a.positive != b.positive or dict(a.negative) != dict(b.negative):
            return False
        pa = shared_polygon(geom, d, flag.name)
        return pa == polygon(shuffled, d, flag.name)  # used only here

    def rebuilds(d: DivClass, full: bool) -> bool | None:
        try:
            mk = _minkowski_decompose(geom, shared_decompose(geom, d), flag.name)
        except DomainError:
            return None  # no chamber generator exists for the flag
        if mk.reconstruct(lat.rank) != shared_decompose(geom, d).positive:
            return False
        if any(coeff <= 0 for coeff, _ in mk.terms):
            return False
        # Polygons add over the terms only when every generator is
        # movable; an exceptional flag is its own generator on the empty
        # chamber, and it is not movable.
        if not full or not all(is_movable(geom, e.cls) for _, e in mk.terms):
            return True
        total = polygon_scale(0, shared_polygon(geom, d, flag.name))
        for coeff, element in mk.terms:
            piece = polygon_scale(coeff, shared_polygon(geom, element.cls, flag.name))
            total = polygon_minkowski_sum(total, piece)
        return total.frame == shared_polygon(geom, d, flag.name).frame

    def continuous(small: frozenset[str], big: frozenset[str], flag_name: str) -> bool:
        wall = chamber_generator(geom, big, flag_name)
        for name in small:
            wall = wall + geom.prime(name).cls
        lo, _ = chamber_positive_part(geom, wall, small)
        hi, _ = chamber_positive_part(geom, wall, big)
        return lo == hi

    of = partial(format_divisor, geom)
    polyhedral = geom.mode == "polyhedral"
    checks = (
        ("polygon-area-identity", area_cases(), area_identity,
         lambda d, p, *_: f"2*area != q(P) for D={of(d)}, E={p.name}"),
        ("volume-chain", [(d,) for d in flagged], volume_chain,
         lambda d: f"volume chain broke for D={of(d)}"),
        ("breakpoint-structure", [(d,) for d in flagged], structure,
         lambda d: f"trace structure broke for D={of(d)}"),
        ("flag-translation", [(d, p) for d in translated for p in primes], translation,
         lambda d, p: f"translation by {p.name} broke for D={of(d)}"),
        ("polygon-superadditivity", zip(flagged, flagged[1:]), superadditive,
         lambda d1, d2: f"superadditivity broke for {of(d1)} and {of(d2)}"),
        ("volume-log-concavity", zip(classes, classes[1:]), log_concave,
         lambda d1, d2: f"log-concavity broke for {of(d1)} and {of(d2)}"),
        ("zariski-idempotence", [(d,) for d in flagged], idempotent,
         lambda d: f"idempotence broke for D={of(d)}"),
        ("catalog-order-invariance", [(d,) for d in flagged[: max(1, len(classes) // 4)]],
         order_invariant, lambda d: f"catalog order changed results for D={of(d)}"),
        ("minkowski-reconstruction", [(d, i < 5) for i, d in enumerate(flagged) if polyhedral],
         rebuilds, lambda d, _: f"reconstruction broke for D={of(d)}"),
        ("wall-continuity", _walls(geom) if polyhedral else (), continuous,
         lambda small, big, _: f"wall between {sorted(small)} and {sorted(big)} discontinuous"),
    )
    return tuple(_check(*check) for check in checks)


def _walls(geom: Geometry):
    """wall-continuity's cases (S, S + E, first prime outside S + E) over
    chambers S, S + E; a generator, enumerating chambers once it runs."""
    chambers = enumerate_chambers(geom)
    chamber_set = set(chambers)
    for small in chambers:
        for big in (small | {q.name} for q in geom.exceptional_primes if q.name not in small):
            outside = [p.name for p in geom.primes if p.name not in big]
            if big in chamber_set and outside:
                yield small, big, outside[0]
