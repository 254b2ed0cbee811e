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
-P_S(E) read off the walk entry of (S, E), kept once per geometry
(Geometry.kept) with the slope's form and the walls that can end the
segment: the primes outside S + E that pair negatively with the slope.
A round takes one integer dot per wall, and the walk tracks the
chamber changes exactly.  The pseudo-effective threshold mu is, in
polyhedral mode, linprog.max_step's integer min-ratio over the facets
of the declared effective cone, which also confirms that D - nu E lies
in Eff; the facets' pairings with E are the flag's threshold entry,
also kept once per geometry.  In round mode mu is the least positive root
of q(D - tE) = 0: D and E lie in one closed positive cone (Geometry's
invariants), which fixes the signs of the pairings and so the root,
built in integers from one square-free decomposition.  The area always
equals q(P(D))/2.

The height q(P(D - tE), E) is concave, so the walk yields the upper
boundary already in order: the vertices are read off it in polygon2d's
canonical form, (0, 0), (mu, 0), then the graph from t = mu back to
t = 0, and no hull is taken.  Interior breakpoints are rational and
mu lies in one quadratic field, so a polygon is born in polygon2d's
integer frame, where sums, scaling and containment run; the heights
are integer pairs read off the flag's form row, and Surd values are
built only for the trace and by NOPolygon's accessors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .errors import ConsistencyError, DomainError
from .geometry import Geometry, Prime, is_pseudo_effective
from .lattice import DivClass, _Frozen, dot
from .linprog import InfeasibleError, max_step
from .polygon2d import Frame, Point, canonical, contains_polygon, lift, points, translate, width
from .polygon2d import area as frame_area
from .polygon2d import minkowski_sum as frame_minkowski_sum
from .polygon2d import scale as frame_scale
from .surd import Surd, frame_sign, from_frame, squarefree_decompose
from .zariski import ZariskiDecomposition, decompose

# A threshold in the integer frame: (a, b, den, d) is (a + b*sqrt(d))/den
# with den > 0, and d == 0 when b == 0.
FrameValue = tuple[int, int, int, int]


class WalkSegment(NamedTuple):
    """On [t_start, t_end] the positive part is base + t * slope."""

    t_start: Fraction
    t_end: Surd
    chamber: frozenset[str]
    base: DivClass
    slope: DivClass


class BreakpointTrace(NamedTuple):
    segments: tuple[WalkSegment, ...]
    mu: Surd

    @property
    def interior_breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(seg.t_start for seg in self.segments[1:])

    @property
    def chambers(self) -> tuple[frozenset[str], ...]:
        return tuple(seg.chamber for seg in self.segments)


class NOPolygon(_Frozen):
    """Exact polygon with its normalization offset nu and width mu.

    The vertices and mu live in one canonical polygon2d Frame, in
    normalized coordinates (the E-offset nu is carried separately), so
    equal polygons have equal frame and nu; == and hash leave the trace
    out.  NOPolygon(vertices, nu, mu) lifts Surd or rational values,
    given in polygon2d's canonical order.
    """

    __slots__ = ("frame", "nu", "trace")
    _fields = ("frame", "nu")

    def __init__(self, vertices: Sequence[Point], nu, mu, trace: Optional[BreakpointTrace] = None):
        self._fill(frame=lift(vertices, mu), nu=nu, trace=trace)

    @classmethod
    def _of(cls, frame: Frame, nu, trace: Optional[BreakpointTrace] = None) -> "NOPolygon":
        """Trusted constructor from a canonical frame."""
        return object.__new__(cls)._fill(frame=frame, nu=nu, trace=trace)

    @property
    def vertices(self) -> tuple[Point, ...]:
        return points(self.frame)

    @property
    def mu(self) -> Surd:
        return width(self.frame)

    @property
    def area(self) -> Surd:
        return frame_area(self.frame)

    def absolute_vertices(self) -> tuple[Point, ...]:
        """Vertices translated by (nu, 0) -- un-normalized coordinates."""
        return points(translate(self.frame, self.nu))


# ---------------------------------------------------------------------------
# pseudo-effective threshold


def _threshold_entry(geom: Geometry, name: str) -> tuple[int, ...]:
    """What a polyhedral threshold along the flag E reads, for E's name,
    kept by Geometry.kept under ("threshold", name): the pairing f . E.num
    of each facet row f of Eff, in facet order."""
    e = geom.prime(name).cls.num
    return tuple(dot(row, e) for row in geom.eff_cone.facets)


def _threshold(geom: Geometry, d: DivClass, prime: Prime, form) -> FrameValue:
    """mu_E(D) = sup { t >= 0 : D - tE pseudo-effective }, D psef; form is
    D's form (BBFLattice.form), read in round mode only.

    In polyhedral mode mu is max_step along E from D over Eff, handed the
    flag's threshold entry, with no Fraction built.  It is bounded and
    leaves no span: E != 0 lies in Eff (rule (c), Geometry), so every
    span equation vanishes on E, and were f . E = 0 on every facet f, E
    would lie in the kernel of the facets and span equations, which is 0
    as Eff is pointed.

    In round mode mu is the least positive root of q(D - tE) = q(D) -
    2t q(D, E) + t^2 q(E).  Over one denominator that is a t^2 - 2b t + c.
    D and E != 0 lie in the closed positive cone and E is not
    exceptional (Geometry), so a, b, c >= 0.  For c = 0 mu is
    0 when b > 0; else D is isotropic and orthogonal to E in that cone,
    so a nonnegative multiple of E, and mu is that ratio.  For c > 0,
    b > 0 and the quarter discriminant b^2 - ac = r^2 s is nonnegative
    (reverse Cauchy-Schwarz), so for a > 0 both roots (b +- r sqrt(s))/a
    are positive and mu is (b - r sqrt(s))/a; for a = 0 it is c/(2b).
    """
    e = prime.cls
    if geom.mode == "polyhedral":
        downs = geom.kept("threshold", prime.name, _threshold_entry)
        try:
            num, den = max_step(geom.eff_cone, e.num, d.num, downs)
        except InfeasibleError as exc:  # D is psef, so only _trace's D - nu E gets here
            raise ConsistencyError("normalized class left the declared effective cone") from exc
        num, den = num * e.den, den * d.den  # the step of the numerators, rescaled
        g = gcd(num, den)
        return num // g, 0, den // g, 0
    a, b, c = _quadratic(d, form, e, geom.prime_forms[prime.name])
    if c == 0:
        return (0, 0, 1, 0) if b > 0 else _rational(d.ratio(e))
    g = gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    if not a:
        return c, 0, 2 * b, 0
    r, s = squarefree_decompose(b * b - a * c)
    num, rad, root = (b, -r, s) if s > 1 else (b - r * s, 0, 0)  # s = 1: a square, 0: a double root
    return num, rad, a, root


def _rational(x: Fraction) -> FrameValue:
    return x.numerator, 0, x.denominator, 0


def _exceeds(mu: FrameValue, t: Fraction) -> bool:
    """mu > t."""
    a, b, den, d = mu
    return frame_sign(a * t.denominator - t.numerator * den, b * t.denominator, d) > 0


def mu_threshold(geom: Geometry, d: DivClass, prime_name: str) -> Surd:
    """Largest t with D - tE pseudo-effective (exact; degree <= 2)."""
    prime = geom.prime(prime_name)
    if not is_pseudo_effective(geom, d):
        raise DomainError("mu threshold requires a pseudo-effective class")
    return from_frame(*_threshold(geom, d, prime, geom.lattice.form(d)))


# ---------------------------------------------------------------------------
# chamber walk


def _walk_entry(geom: Geometry, key: tuple[frozenset[str], str]):
    """What a walk along the flag E reads on the support S, for key =
    (S, E's name), kept by Geometry.kept under ("walk", key): the slope
    -P_S(E), its form (row, den), and the walls (name, row, c1) of the
    primes outside S + E with c1 = slope.num . row < 0."""
    support, name = key
    slope, forms = -geom.support_projector(support).positive(geom.prime(name).cls), geom.prime_forms
    walls = tuple((q.name, row, c1) for q in geom.primes if q.name not in support and q.name != name
                  and (c1 := dot(slope.num, row := forms[q.name][0])) < 0)
    return slope, geom.lattice.form(slope), walls


def _trace(
    geom: Geometry, d: DivClass, prime: Prime, dec: ZariskiDecomposition
) -> tuple[BreakpointTrace, FrameValue]:
    """Piecewise-affine trace of t -> P(D - nu E - tE) on [0, mu], and mu,
    with dec = decompose(geom, d) and nu = nu_E(D); D - nu E has support
    dec.support - {E} and positive part dec.positive (uniqueness), which
    is the first segment's base."""
    lat = geom.lattice
    nu = dec.coefficient(prime.name)
    if nu:
        d = d - prime.cls.scale(nu)
    base = positive = dec.positive
    form = lat.form(positive)
    mu = _threshold(geom, d, prime, form)  # round mode has no negative part: d is positive
    big = dot(positive.num, form[0]) > 0
    support = dec.support - {prime.name}
    segments: list[WalkSegment] = []
    t = Fraction(0)
    for _ in range(2 * len(geom.primes) + 4):  # the support grows every round that does not return
        slope, slope_form, walls = geom.kept("walk", (support, prime.name), _walk_entry)
        # Next wall: the least hit of a wall, where its pairing with
        # base + t slope, decreasing as c1 < 0, reaches zero: at b / -c1
        # times slope.den / base.den with b = base.num . row (the form's
        # own denominator cancels).  Every hit is >= t: P(D) has no
        # joining prime, and at a wall P_{S+J} = P_S.
        best_b = best_c1 = 0
        joiners: list[str] = []
        for name, row, c1 in walls:
            b = dot(base.num, row)
            if not joiners or b * best_c1 > best_b * c1:  # b / -c1 < best_b / -best_c1
                best_b, best_c1, joiners = b, c1, [name]
            elif b * best_c1 == best_b * c1:
                joiners.append(name)
        t_next = Fraction(best_b * slope.den, -best_c1 * base.den) if joiners else None
        if t_next is None or not _exceeds(mu, t_next):
            if big:
                _check_terminus(base, form if base is positive else lat.form(base), slope, slope_form, mu)
            end = from_frame(*mu)
            segments.append(WalkSegment(t, end, support, base, slope))
            return BreakpointTrace(tuple(segments), end), mu
        if t_next != t:  # else a wall at the current abscissa: only the support grows
            segments.append(WalkSegment(t, Surd(t_next), support, base, slope))
            t = t_next
        support = support.union(joiners)
        base = geom.support_projector(support).positive(d)
    raise ConsistencyError("chamber walk exceeded the iteration cap")


def _check_terminus(base: DivClass, base_form, slope: DivClass, slope_form, mu: FrameValue) -> None:
    """Cross-check of a big start: at t = mu the positive part must reach
    the isotropic boundary, confirming the facet threshold against the
    exact quadratic q(base + t slope) = 0, decided as one integer
    identity; base_form and slope_form are the classes' forms."""
    ma, mb, m, d = mu  # mu = (ma + mb sqrt(d)) / m
    a, b, c = _quadratic(base, base_form, slope, slope_form)
    # m^2 (a mu^2 + 2b mu + c) = e + f sqrt(d)
    e = a * (ma * ma + d * mb * mb) + 2 * b * m * ma + c * m * m
    if frame_sign(e, 2 * mb * (a * ma + b * m), d):
        raise ConsistencyError(
            "terminal cross-check failed: q(P(D - mu E)) != 0; "
            "the declared data is inconsistent"
        )


def _quadratic(x: DivClass, fx, y: DivClass, fy) -> tuple[int, int, int]:
    """Integers (a, b, c) with q(x + t y) = (a t^2 + 2b t + c)/L for some
    L > 0, given the forms fx = (rx, kx) and fy = (ry, ky) of x and y
    (BBFLattice.form): q(y), q(x, y) and q(x) over L = x.den y.den kx ky."""
    (rx, kx), (ry, ky) = fx, fy
    return dot(y.num, ry) * x.den * kx, dot(x.num, ry) * y.den * kx, dot(x.num, rx) * y.den * ky


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
    return _trace(geom, d, prime, dec)[0]


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
    trace, mu = _trace(geom, d, prime, dec)
    nu = dec.coefficient(prime.name)
    return NOPolygon._of(_outline(geom, trace, prime.name, mu), nu, trace)


def _outline(geom: Geometry, trace: BreakpointTrace, prime_name: str, mu: FrameValue) -> Frame:
    """The frame of the region under the trace's height function
    h(t) = q(P(D - tE), E) on [0, mu], its vertices read off in order.

    h is concave and piecewise linear, so the counterclockwise boundary
    from the lexicographic minimum (0, 0) is (mu, 0) and then the graph
    of h from t = mu back to t = 0.  A joint between two segments of
    equal slope q(slope, E) is not a vertex, and neither is a chain end
    at height 0, which coincides with (0, 0) or (mu, 0).  With mu = 0
    the region is the segment from (0, 0) to (0, h(0)), or the point
    (0, 0); with h = 0 throughout it is the segment to (mu, 0).  Each
    segment's height at 0 and slope are integer pairs (n, k) for n/k,
    read off E's form row, and each coordinate is a FrameValue, not
    always in lowest terms, until one lcm puts them over den and
    canonical reduces the frame.
    """
    row, k = geom.prime_forms[prime_name]  # q(x, E) = dot(x.num, row) / (x.den k)
    heights = [((dot(seg.base.num, row), seg.base.den * k), (dot(seg.slope.num, row), seg.slope.den * k))
               for seg in trace.segments]
    zero = (0, 0, 1, 0)
    verts, chain = [(zero, zero)], []
    if mu[0] or mu[1]:
        verts.append((mu, zero))
        (n0, k0), (n1, k1) = heights[-1]  # h(mu) = n0/k0 + mu n1/k1
        ma, mb, m, d = mu
        chain.append((mu, (n0 * k1 * m + n1 * k0 * ma, n1 * k0 * mb, k0 * k1 * m, d)))
        for i in range(len(heights) - 1, 0, -1):
            (n0, k0), (n1, k1) = heights[i]
            s1, j1 = heights[i - 1][1]  # the slope before t_start
            if n1 * j1 != s1 * k1:
                t = trace.segments[i].t_start
                tn, td = t.numerator, t.denominator
                chain.append(((tn, 0, td, 0), (n0 * k1 * td + n1 * k0 * tn, 0, k0 * k1 * td, 0)))
    (n0, k0), _ = heights[0]
    chain.append((zero, (n0, 0, k0, 0)))
    verts += (v for v in chain if v[1][0] or v[1][1])
    den = lcm(mu[2], *(c[2] for v in verts for c in v))
    pts = [(xa * (den // xn), xb * (den // xn), ya * (den // yn), yb * (den // yn))
           for (xa, xb, xn, _), (ya, yb, yn, _) in verts]
    return canonical(mu[3], den, pts, (mu[0] * (den // mu[2]), mu[1] * (den // mu[2])))


def polygon_minkowski_sum(p: NOPolygon, q: NOPolygon) -> NOPolygon:
    return NOPolygon._of(frame_minkowski_sum(p.frame, q.frame), p.nu + q.nu)


def polygon_scale(factor, p: NOPolygon) -> NOPolygon:
    f = Fraction(factor)
    if f < 0:
        raise DomainError("polygon scaling factor must be nonnegative")
    return NOPolygon._of(frame_scale(p.frame, f), p.nu * f)


def polygon_contains(outer: NOPolygon, inner: NOPolygon) -> bool:
    """Containment in absolute coordinates (nu offsets applied), decided
    in outer's normalized coordinates with one translate of inner."""
    return contains_polygon(outer.frame, translate(inner.frame, inner.nu - outer.nu))


# ---------------------------------------------------------------------------
# the global polygon cone


def cone_contains(geom: Geometry, prime_name: str, zeta: DivClass, t, y) -> bool:
    """Exact membership of (zeta, t, y) in the polygon cone of E.

    The defining inequalities: nu_E(zeta) <= t <= mu_E(zeta) and
    0 <= y <= q(P(zeta - tE), E), evaluated in the quadratic extension.
    t and y may each lie in a field other than mu's, or each other's:
    Surd orders values over two radicals exactly, and the height at t
    stays in t's field.
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
    trace, _ = _trace(geom, zeta, prime, dec)
    t_rel = t - nu
    if t_rel > trace.mu:
        return False
    seg = next(seg for seg in trace.segments if t_rel <= seg.t_end)  # they tile [0, mu]
    c0, c1 = geom.prime_pair(seg.base, prime_name), geom.prime_pair(seg.slope, prime_name)
    return y <= Surd(c0) + t_rel * c1
