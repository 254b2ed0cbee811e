"""Newton-Okounkov-type polygons from the BBF form.

For a pseudo-effective class D and a prime divisor E, the polygon is

    { (t, y) : 0 <= t <= mu_E(D),  0 <= y <= q(P(D - tE), E) }

computed after stripping nu_E(D) (the coefficient of E in the negative
part) off D, and reported together with the offset nu.  The divisorial
Zariski decomposition is unique (Boucksom 2004), so D - nu E =
P(D) + (N(D) - nu E) is its own decomposition: nu comes off N(D), and
D is decomposed once per polygon, cone probe or walk.  Its upper
boundary is piecewise linear because the positive part P(D - tE) is an
affine function of t on each Boucksom-Zariski chamber S, with slope
-P_S(E) read off the support's record (Geometry.support_projector);
the walk tracks the chamber changes exactly.  The pseudo-effective
threshold mu is a min-ratio over the facets of the declared effective
cone in polyhedral mode and a quadratic surd in round mode, and the
area always equals q(P(D))/2.

The height q(P(D - tE), E) is concave, so the walk yields the upper
boundary already in order: the vertices are read off it in polygon2d's
canonical form, (0, 0), (mu, 0), then the graph from t = mu back to
t = 0, and no hull is taken.

Everything here is exact: abscissae of interior breakpoints are
rational, the terminal abscissa may live in one quadratic extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import ConsistencyError, DomainError
from .geometry import Geometry, Prime, is_pseudo_effective
from .lattice import DivClass, dot
from .linprog import InfeasibleError, UnboundedError, max_step
from .polygon2d import Point, contains_polygon
from .polygon2d import area as hull_area
from .polygon2d import minkowski_sum as hull_minkowski_sum
from .polygon2d import scale as hull_scale
from .polygon2d import translate as hull_translate
from .surd import Surd, frame_sign, smallest_positive_root, to_frame
from .zariski import ZariskiDecomposition, decompose


@dataclass(frozen=True)
class WalkSegment:
    """On [t_start, t_end] the positive part is base + t * slope."""

    t_start: Fraction
    t_end: Surd
    chamber: frozenset[str]
    base: DivClass
    slope: DivClass


@dataclass(frozen=True)
class BreakpointTrace:
    segments: tuple[WalkSegment, ...]
    mu: Surd

    @property
    def interior_breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(seg.t_start for seg in self.segments[1:])

    @property
    def chambers(self) -> tuple[frozenset[str], ...]:
        return tuple(seg.chamber for seg in self.segments)


@dataclass(frozen=True)
class NOPolygon:
    """Exact polygon with its normalization offset nu and width mu.

    Vertices are counterclockwise from the lexicographic minimum, in
    normalized coordinates (the E-offset nu is carried separately);
    degenerate polygons keep 1 or 2 vertices.  This is polygon2d's
    canonical form, which polygon_minkowski_sum relies on.
    """

    vertices: tuple[Point, ...]
    nu: Fraction
    mu: Surd
    trace: Optional[BreakpointTrace] = field(default=None, compare=False, repr=False)

    @property
    def area(self) -> Surd:
        return hull_area(self.vertices)

    def absolute_vertices(self) -> tuple[Point, ...]:
        """Vertices translated by (nu, 0) -- un-normalized coordinates."""
        return tuple(hull_translate(self.vertices, self.nu, 0))


# ---------------------------------------------------------------------------
# pseudo-effective threshold


def _proportionality(d: DivClass, e: DivClass) -> Fraction:
    ratio = d.ratio(e)
    if ratio is None:
        raise ConsistencyError("isotropic orthogonal classes not proportional")
    return ratio


def _threshold(geom: Geometry, d: DivClass, prime: Prime) -> Surd:
    """mu_E(D) = sup { t >= 0 : D - tE pseudo-effective }, D psef."""
    if geom.mode == "polyhedral":
        try:
            e = prime.cls
            return Surd(max_step(geom.eff_cone, e.num, d.num) * Fraction(e.den, d.den))
        except InfeasibleError as exc:
            raise DomainError("class is not pseudo-effective in the declared cone") from exc
        except UnboundedError as exc:
            raise ConsistencyError(
                "threshold unbounded: declared effective cone is not pointed"
            ) from exc
    lat = geom.lattice
    qd, qde, qe = lat.square(d), geom.prime_pair(d, prime.name), lat.square(prime.cls)
    if qd == 0:
        if qde > 0:
            return Surd(0)
        if qde < 0:
            raise ConsistencyError("negative pairing of pseudo-effective classes")
        # both isotropic, orthogonal: proportional rays
        return Surd(_proportionality(d, prime.cls))
    root = smallest_positive_root(qe, -2 * qde, qd)
    if root is None:
        raise ConsistencyError("threshold equation has no positive root")
    return root


def mu_threshold(geom: Geometry, d: DivClass, prime_name: str) -> Surd:
    """Largest t with D - tE pseudo-effective (exact; degree <= 2)."""
    prime = geom.prime(prime_name)
    if not is_pseudo_effective(geom, d):
        raise DomainError("mu threshold requires a pseudo-effective class")
    return _threshold(geom, d, prime)


# ---------------------------------------------------------------------------
# chamber walk


def _trace(
    geom: Geometry, d: DivClass, prime: Prime, dec: ZariskiDecomposition
) -> BreakpointTrace:
    """Piecewise-affine trace of t -> P(D - nu E - tE) on [0, mu], with
    dec = decompose(geom, d) and nu = nu_E(D); D - nu E has support
    dec.support - {E} and positive part dec.positive (uniqueness)."""
    lat = geom.lattice
    nu = dec.coefficient(prime.name)
    if nu:
        d = d - prime.cls.scale(nu)
    try:
        mu = _threshold(geom, d, prime)
    except DomainError as exc:  # D is psef, so only a stripped class gets here
        raise ConsistencyError("normalized class left the declared effective cone") from exc
    big = lat.square(dec.positive) > 0
    forms = geom.prime_forms
    support = dec.support - {prime.name}
    segments: list[WalkSegment] = []
    t = Fraction(0)
    for _ in range(2 * len(geom.primes) + 4):
        proj = geom.support_projector(support)
        base, slope = proj.positive(d), -proj.images[prime.name]
        # Next wall: first prime outside the chamber whose pairing with
        # the affine positive part decreases through zero; the pairings
        # are c0 = base.num . row and c1 = slope.num . row over their
        # classes' denominators (the form's own denominator cancels).
        t_next: Optional[Fraction] = None
        joiners: list[str] = []
        for q in geom.primes:
            if q.name in support or q.name == prime.name:
                continue
            row = forms[q.name][0]
            c1 = dot(slope.num, row)
            if c1 >= 0:
                continue
            hit = Fraction(-dot(base.num, row) * slope.den, c1 * base.den)
            if hit < t:
                raise ConsistencyError(
                    f"prime {q.name!r} pairs negatively inside a chamber"
                )
            if t_next is None or hit < t_next:
                t_next, joiners = hit, [q.name]
            elif hit == t_next:
                joiners.append(q.name)
        if t_next is not None and t_next == t and Surd(t) < mu:
            support = support.union(joiners)  # wall at the current abscissa
            continue
        if t_next is None or t_next >= mu:
            segments.append(WalkSegment(t, mu, support, base, slope))
            _check_terminus(lat, base, slope, mu, big)
            return BreakpointTrace(tuple(segments), mu)
        segments.append(WalkSegment(t, Surd(t_next), support, base, slope))
        support = support.union(joiners)
        t = t_next
    raise ConsistencyError("chamber walk exceeded the iteration cap")


def _check_terminus(lat, base: DivClass, slope: DivClass, mu: Surd, big: bool) -> None:
    """Cross-check: at t = mu the positive part must reach the isotropic
    boundary (big start), confirming the facet threshold against the exact
    quadratic q(base + t slope) = 0, decided as one integer identity."""
    if not big:
        return
    d, m, ((ma, mb),) = to_frame([mu])  # mu = (ma + mb sqrt(d)) / m
    (rb, db), (rs, ds) = lat.form(base), lat.form(slope)
    # q(base) = p/pd, q(base, slope) = c/cd and q(slope) = s/sd
    p, pd = dot(base.num, rb), base.den * db
    c, cd = dot(base.num, rs), base.den * ds
    s, sd = dot(slope.num, rs), slope.den * ds
    # m^2 pd cd sd q(base + mu slope) = a + b sqrt(d)
    a = p * cd * sd * m * m + 2 * c * pd * sd * m * ma + s * pd * cd * (ma * ma + d * mb * mb)
    b = 2 * mb * pd * (c * sd * m + s * cd * ma)
    if frame_sign(a, b, d):
        raise ConsistencyError(
            "terminal cross-check failed: q(P(D - mu E)) != 0; "
            "the declared data is inconsistent"
        )


def chamber_walk(geom: Geometry, d: DivClass, prime_name: str) -> BreakpointTrace:
    """Walk the chambers met by D - tE for a big class with nu = 0."""
    prime = geom.prime(prime_name)
    dec = decompose(geom, d)
    if geom.lattice.square(dec.positive) <= 0:
        raise DomainError("chamber walk requires a big class")
    if dec.coefficient(prime_name):
        raise DomainError(
            "flag prime must sit outside the negative support; strip nu first"
        )
    return _trace(geom, d, prime, dec)


# ---------------------------------------------------------------------------
# polygons


def polygon(geom: Geometry, d: DivClass, prime_name: str) -> NOPolygon:
    """The polygon of (D, E), normalized by nu_E(D).

    Big classes produce a genuine 2-dimensional polygon of area
    q(P(D))/2; non-big classes degenerate to a segment or point swept
    by the same construction.
    """
    return _polygon(geom, d, geom.prime(prime_name), decompose(geom, d))


def _polygon(geom: Geometry, d: DivClass, prime: Prime, dec: ZariskiDecomposition) -> NOPolygon:
    """polygon, given the flag prime and dec = decompose(geom, d)."""
    trace = _trace(geom, d, prime, dec)
    nu = dec.coefficient(prime.name)
    return NOPolygon(_outline(geom, trace, prime.name), nu, trace.mu, trace)


def _outline(geom: Geometry, trace: BreakpointTrace, prime_name: str) -> tuple[Point, ...]:
    """Canonical vertices of the region under the trace's height function
    h(t) = q(P(D - tE), E) on [0, mu], read off in order.

    h is concave and piecewise linear, so the counterclockwise boundary
    from the lexicographic minimum (0, 0) is (mu, 0) and then the graph
    of h from t = mu back to t = 0.  A joint between two segments of
    equal slope q(slope, E) is not a vertex, and neither is a chain end
    at height 0, which coincides with (0, 0) or (mu, 0).  With mu = 0
    the region is the segment from (0, 0) to (0, h(0)), or the point
    (0, 0); with h = 0 throughout it is the segment to (mu, 0).
    """
    zero = Surd(0)
    heights = [
        (geom.prime_pair(seg.base, prime_name), geom.prime_pair(seg.slope, prime_name))
        for seg in trace.segments
    ]
    mu = trace.mu
    start = (zero, Surd(heights[0][0]))
    if not mu:
        return ((zero, zero), start) if start[1] else ((zero, zero),)
    c0, c1 = heights[-1]
    chain = [(mu, Surd(c0) + mu * c1)]
    for i in range(len(heights) - 1, 0, -1):
        c0, c1 = heights[i]
        if c1 != heights[i - 1][1]:
            t = trace.segments[i].t_start
            chain.append((Surd(t), Surd(c0 + t * c1)))
    chain.append(start)
    return ((zero, zero), (mu, zero), *(v for v in chain if v[1]))


def polygon_area(poly: NOPolygon) -> Surd:
    return poly.area


def polygon_minkowski_sum(p: NOPolygon, q: NOPolygon) -> NOPolygon:
    verts = tuple(hull_minkowski_sum(p.vertices, q.vertices))
    return NOPolygon(verts, p.nu + q.nu, p.mu + q.mu, None)


def polygon_scale(factor, p: NOPolygon) -> NOPolygon:
    f = Fraction(factor)
    if f < 0:
        raise DomainError("polygon scaling factor must be nonnegative")
    verts = tuple(hull_scale(p.vertices, f))
    return NOPolygon(verts, p.nu * f, p.mu * f, None)


def polygon_contains(outer: NOPolygon, inner: NOPolygon) -> bool:
    """Containment in absolute coordinates (nu offsets applied), decided
    in outer's normalized coordinates with one translate of inner."""
    return contains_polygon(outer.vertices, hull_translate(inner.vertices, inner.nu - outer.nu, 0))


# ---------------------------------------------------------------------------
# the global polygon cone


def cone_contains(geom: Geometry, prime_name: str, zeta: DivClass, t, y) -> bool:
    """Exact membership of (zeta, t, y) in the polygon cone of E.

    The defining inequalities: nu_E(zeta) <= t <= mu_E(zeta) and
    0 <= y <= q(P(zeta - tE), E), evaluated in the quadratic extension.
    """
    prime = geom.prime(prime_name)
    if not is_pseudo_effective(geom, zeta):
        raise DomainError("cone membership requires a pseudo-effective class")
    t = t if isinstance(t, Surd) else Surd(t)
    y = y if isinstance(y, Surd) else Surd(y)
    if y.sign() < 0:
        return False
    dec = decompose(geom, zeta)
    nu = dec.coefficient(prime_name)
    if t < nu:
        return False
    trace = _trace(geom, zeta, prime, dec)
    t_rel = t - nu
    if t_rel > trace.mu:
        return False
    for seg in trace.segments:
        if t_rel >= seg.t_start and t_rel <= seg.t_end:
            c0, c1 = geom.prime_pair(seg.base, prime_name), geom.prime_pair(seg.slope, prime_name)
            return y <= Surd(c0) + t_rel * c1
    raise ConsistencyError("trace segments do not cover [0, mu]")  # unreachable


@dataclass(frozen=True)
class ConePoint:
    """A rational generator (class, t, y) of the polygon cone."""

    cls: DivClass
    t: Fraction
    y: Fraction


def _primitive_cone_point(num: tuple[int, ...], t: int, y: Fraction) -> tuple[int, ...]:
    """The primitive integer vector on the ray of (num, t, y), for an
    integer class num and an integer t."""
    vec = (*(v * y.denominator for v in num), t * y.denominator, y.numerator)
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def cone_generators(geom: Geometry, prime_name: str) -> tuple[ConePoint, ...]:
    """Rational generators of the polygon cone over the effective cone.

    For every extremal generator D_i of a chamber closure the points
    (D_i, 0, q(P(D_i), E)) and (D_i, 0, 0) are emitted, plus (E, 1, 0);
    duplicates collapse after primitive rescaling.  Those generators are
    the movable rays and the exceptional primes: the empty chamber's
    closure is Mov, every exceptional prime (q < 0) is a chamber of its
    own, and each closure's rays are movable rays and primes of its
    chamber.  A movable ray pairs nonnegatively with every prime, so its
    Zariski support is empty and it is its own positive part: only the
    exceptional primes are decomposed, which also checks that they are
    pseudo-effective.
    """
    if geom.mode != "polyhedral":
        raise DomainError("cone generators require polyhedral mode")
    prime = geom.prime(prime_name)
    heights = [(ray, geom.prime_pair(ray, prime_name)) for ray in geom.movable_rays]
    for ray in (p.cls.primitive() for p in geom.exceptional_primes):
        try:
            pos = decompose(geom, ray).positive
        except DomainError as exc:
            raise ConsistencyError(
                "chamber-closure ray is not pseudo-effective; catalog inconsistent"
            ) from exc
        heights.append((ray, geom.prime_pair(pos, prime_name)))
    zero = Fraction(0)
    points = {_primitive_cone_point(ray.num, 0, h) for ray, h in heights}
    points.update(_primitive_cone_point(ray.num, 0, zero) for ray, _ in heights)
    points.add(_primitive_cone_point(prime.cls.num, prime.cls.den, zero))  # (E, 1, 0) times E.den
    return tuple(
        ConePoint(DivClass(vec[:-2]), Fraction(vec[-2]), Fraction(vec[-1]))
        for vec in sorted(points)
    )


# ---------------------------------------------------------------------------
# synthetic simplex flag


def simplex_flag(geom: Geometry, d: DivClass) -> tuple[DivClass, NOPolygon]:
    """Synthetic integral flag E = k P(D) and its triangle polygon.

    With k clearing the denominators of P(D), the polygon of D along
    its own positive part is the triangle with legs 1/k and k q(P(D)),
    of area q(P(D))/2 -- a simplex witness that needs no catalog prime.
    """
    dec = decompose(geom, d)
    q = geom.lattice.square(dec.positive)
    if q <= 0:
        raise DomainError("simplex flag requires a big class")
    k = dec.positive.den
    flag = dec.positive.scale(k)
    # (0, 0), (1/k, 0), (0, kq) is already in canonical order
    verts = ((Surd(0), Surd(0)), (Surd(Fraction(1, k)), Surd(0)), (Surd(0), Surd(k * q)))
    poly = NOPolygon(verts, Fraction(0), Surd(Fraction(1, k)), None)
    return flag, poly
