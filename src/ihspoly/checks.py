"""Randomized structural self-checks over a geometry catalog.

Every identity asserted here is exact, so a check either holds on a
sample or the catalog/engine is wrong; there are no tolerances.  The
sampler draws big classes from the declared effective (or ample) cone
with a seeded generator, and each check reports how many samples it
ran against and which ones failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

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


@dataclass(frozen=True)
class CheckResult:
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


class _Recorder:
    def __init__(self, name: str) -> None:
        self.name = name
        self.runs = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, label, fn) -> None:
        """Run one sample; fn returns None when the sample lies outside
        the check's domain, which counts neither as a run nor a failure.
        label() gives the failure message; it is called only for a
        failed sample that is kept, before run returns."""
        error = None
        try:
            ok = fn()
        except IHSError as exc:
            ok, error = False, exc
        if ok is None:
            return
        self.runs += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < _MAX_MESSAGES:
                self.messages.append(label() if error is None else f"{label()}: {error}")

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.runs, self.failed, tuple(self.messages))


def sample_big_classes(geom: Geometry, count: int, seed: int = 0) -> list[DivClass]:
    """Deterministic sample of big classes inside the declared cone."""
    return _sample_big_classes(geom, count, seed, decompose)


def _sample_big_classes(geom: Geometry, count: int, seed: int, decomposed) -> list[DivClass]:
    """sample_big_classes, decomposing candidates with decomposed(geom, d)."""
    rng = random.Random(seed)
    lat = geom.lattice
    out: list[DivClass] = []
    if geom.mode == "polyhedral":
        gens = geom.effective_generators
        while len(out) < count:
            for _ in range(200):
                coeffs = [
                    Fraction(rng.randint(0, 6), rng.choice((1, 1, 1, 2)))
                    for _ in gens
                ]
                cand = linear_combination(coeffs, gens, lat.rank)
                if cand.is_zero:
                    continue
                if lat.square(decomposed(geom, cand).positive) > 0:
                    out.append(cand)
                    break
            else:
                raise DomainError("could not sample a big class from the catalog")
    else:
        ample = geom.ample
        units = [
            DivClass([Fraction(1 if i == j else 0) for j in range(lat.rank)])
            for i in range(lat.rank)
        ]
        while len(out) < count:
            for _ in range(200):
                cand = ample.scale(rng.randint(1, 4))
                for u in units:
                    cand = cand + u.scale(rng.randint(-2, 2))
                if (
                    is_pseudo_effective(geom, cand)
                    and lat.square(cand) > 0
                    and lat.pair(cand, ample) > 0
                ):
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

    The checks share one decomposition per (geometry, class) and one
    polygon per (geometry, class, flag) for this call only; nothing is
    kept once it returns.  Every polygon, volume and Minkowski
    decomposition takes the decomposition of its class from the shared
    ones; a polygon reads that of D - nu E off that of D, so D - nu E
    is never decomposed.  Polygons that only one check reads are built
    outside the polygon share: flag-translation's D + E,
    superadditivity's D1 + D2, area-identity's non-flag polygons of the
    samples that flag-translation skips, and the reordered copy's.
    """
    lat = geom.lattice
    shared_decompose = _shared(decompose)

    def polygon(g: Geometry, d: DivClass, prime_name: str):
        return _polygon(g, d, g.prime(prime_name), shared_decompose(g, d))

    shared_polygon = _shared(polygon)
    classes = _sample_big_classes(geom, samples, seed, shared_decompose)
    n = geom.lattice.half_dim
    c = geom.lattice.fujiki
    primes = geom.primes
    flag_pool = [p for p in primes if not p.exceptional] or list(primes)
    flag = flag_pool[0]

    translated = classes[: max(1, len(classes) // 2)]  # flag-translation's samples
    area_id = _Recorder("polygon-area-identity")
    for i, d in enumerate(classes):
        qp = lat.square(shared_decompose(geom, d).positive)
        for p in primes:
            build = shared_polygon if p == flag or i < len(translated) else polygon
            area_id.run(
                lambda: f"2*area != q(P) for D={format_divisor(geom, d)}, E={p.name}",
                lambda d=d, p=p, qp=qp, build=build: build(geom, d, p.name).area * 2 == qp,
            )

    vol_chain = _Recorder("volume-chain")
    for d in classes:
        def chain(d=d) -> bool:
            qp = lat.square(shared_decompose(geom, d).positive)
            v = volume_from_square(geom, qp)
            a = shared_polygon(geom, d, flag.name).area
            return a * 2 == qp and (a * 2) ** n * c == v and Surd(qp) ** n * c == v
        vol_chain.run(lambda: f"volume chain broke for D={format_divisor(geom, d)}", chain)

    structure = _Recorder("breakpoint-structure")
    for d in classes:
        def struct(d=d) -> bool:
            tr = shared_polygon(geom, d, flag.name).trace
            slopes = []
            for prev, nxt in zip(tr.segments, tr.segments[1:]):
                if not prev.chamber <= nxt.chamber:
                    return False
                if not isinstance(nxt.t_start, Fraction):
                    return False
            for seg in tr.segments:
                slopes.append(lat.pair(seg.slope, flag.cls))
            return all(a >= b for a, b in zip(slopes, slopes[1:]))
        structure.run(lambda: f"trace structure broke for D={format_divisor(geom, d)}", struct)

    translation = _Recorder("flag-translation")
    for d in translated:
        for p in primes:
            def shift(d=d, p=p) -> bool:
                base = shared_polygon(geom, d, p.name)
                moved = polygon(geom, d + p.cls, p.name)  # used only here
                return _translation_holds(base, moved)
            translation.run(
                lambda: f"translation by {p.name} broke for D={format_divisor(geom, d)}", shift
            )

    superadd = _Recorder("polygon-superadditivity")
    logconc = _Recorder("volume-log-concavity")
    for d1, d2 in zip(classes, classes[1:]):
        def supa(d1=d1, d2=d2) -> bool | None:
            p1 = shared_polygon(geom, d1, flag.name)
            p2 = shared_polygon(geom, d2, flag.name)
            p12 = polygon(geom, d1 + d2, flag.name)
            # Each polygon lives in the extension of its own mu; a sum
            # cannot combine two different radicals (comparing them is exact).
            if len({p.frame.d for p in (p1, p2, p12)} - {0}) > 1:
                return None
            return polygon_contains(p12, polygon_minkowski_sum(p1, p2))
        superadd.run(
            lambda: f"superadditivity broke for {format_divisor(geom, d1)} "
            f"and {format_divisor(geom, d2)}",
            supa,
        )

        def logc(d1=d1, d2=d2) -> bool:
            s1 = lat.square(shared_decompose(geom, d1).positive)
            s2 = lat.square(shared_decompose(geom, d2).positive)
            s12 = lat.square(shared_decompose(geom, d1 + d2).positive)
            gap = s12 - s1 - s2
            return gap >= 0 and gap * gap >= 4 * s1 * s2
        logconc.run(
            lambda: f"log-concavity broke for {format_divisor(geom, d1)} "
            f"and {format_divisor(geom, d2)}",
            logc,
        )

    idem = _Recorder("zariski-idempotence")
    for d in classes:
        def idempotent(d=d) -> bool:
            pos = shared_decompose(geom, d).positive
            again = shared_decompose(geom, pos)
            if again.negative or again.positive != pos:
                return False
            return shared_polygon(geom, pos, flag.name).frame == shared_polygon(
                geom, d, flag.name
            ).frame
        idem.run(lambda: f"idempotence broke for D={format_divisor(geom, d)}", idempotent)

    reorder = _Recorder("catalog-order-invariance")
    shuffled = replace(
        geom,
        primes=tuple(reversed(geom.primes)),
        effective_generators=tuple(reversed(geom.effective_generators)),
    )
    for d in classes[: max(1, len(classes) // 4)]:
        def invariant(d=d) -> bool:
            a, b = shared_decompose(geom, d), shared_decompose(shuffled, d)
            if a.positive != b.positive or dict(a.negative) != dict(b.negative):
                return False
            pa = shared_polygon(geom, d, flag.name)
            pb = polygon(shuffled, d, flag.name)  # used only here
            return pa == pb
        reorder.run(
            lambda: f"catalog order changed results for D={format_divisor(geom, d)}", invariant
        )

    recon = _Recorder("minkowski-reconstruction")
    if geom.mode == "polyhedral":
        for i, d in enumerate(classes):
            def rebuild(d=d, full=(i < 5)) -> bool | None:
                try:
                    mk = _minkowski_decompose(geom, shared_decompose(geom, d), flag.name)
                except DomainError:
                    return None  # no chamber generator exists for the flag
                pos = shared_decompose(geom, d).positive
                if mk.reconstruct(lat.rank) != pos:
                    return False
                if any(coeff <= 0 for coeff, _ in mk.terms):
                    return False
                # Polygons add over the terms only when every generator
                # is movable; an exceptional flag is its own generator on
                # the empty chamber, and it is not movable.
                if not full or not all(is_movable(geom, e.cls) for _, e in mk.terms):
                    return True
                total = polygon_scale(0, shared_polygon(geom, d, flag.name))
                for coeff, element in mk.terms:
                    piece = polygon_scale(coeff, shared_polygon(geom, element.cls, flag.name))
                    total = polygon_minkowski_sum(total, piece)
                return total.frame == shared_polygon(geom, d, flag.name).frame
            recon.run(lambda: f"reconstruction broke for D={format_divisor(geom, d)}", rebuild)

    walls = _Recorder("wall-continuity")
    if geom.mode == "polyhedral":
        chambers = enumerate_chambers(geom)
        chamber_set = set(chambers)
        for small in chambers:
            for q in geom.exceptional_primes:
                if q.name in small:
                    continue
                big_ch = small | {q.name}
                if big_ch not in chamber_set:
                    continue
                outside = [p for p in primes if p.name not in big_ch]
                if not outside:
                    continue
                def continuous(small=small, big_ch=big_ch, flag_name=outside[0].name) -> bool:
                    wall = chamber_generator(geom, frozenset(big_ch), flag_name)
                    for name in small:
                        wall = wall + geom.prime(name).cls
                    lo, _ = chamber_positive_part(geom, wall, small)
                    hi, _ = chamber_positive_part(geom, wall, big_ch)
                    return lo == hi
                walls.run(
                    lambda: f"wall between {sorted(small)} and {sorted(big_ch)} discontinuous",
                    continuous,
                )

    results = [
        area_id,
        vol_chain,
        structure,
        translation,
        superadd,
        logconc,
        idem,
        reorder,
        recon,
        walls,
    ]
    return tuple(r.result() for r in results)
