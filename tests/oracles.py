"""The tests' independent exact oracles, in one module.

Contract: every oracle here is exact (Fraction or Surd arithmetic, never
a float); it is independent of the layer it judges, computing the answer
another way and calling none of that layer's code; and it may be slow:
plain Gauss-Jordan, exhaustive subsets and pairwise hulls are fine.  Each oracle has this one definition; test modules import it from
here and never from one another.

- Linear algebra over Fraction: solve, the Fraction RREF kernel, Gram
  matrices of classes, negative definiteness by inertia and by leading
  minors, primitive vectors.
- Cones: the Caratheodory membership test, the brute-force extreme
  rays and the brute-force chambers.
- Volumes of K3^[n]-type catalogs: c q(P)^n with c from n alone, and
  the restricted volume as the derivative of the volume along E.
- The threshold's quadratic: its real roots in ascending order, and the
  least positive one.
- Polygons as lists of Surd pairs: the hull whose output is the
  canonical polygon form, the pairwise-sum Minkowski sum, area, scaling,
  translation and containment.

The last section holds no oracle: thin wrappers that run the engine's
polygon2d frame kernel on Surd points, for tests that compare it with
the Surd-pair oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from ihspoly import polygon2d
from ihspoly.linalg import inertia, kernel
from ihspoly.polygon2d import lift, points
from ihspoly.surd import Surd

F = Fraction


# -- exact linear algebra over Fraction --------------------------------------


class SingularMatrixError(ValueError):
    """Square system without a unique solution."""


def solve(matrix, rhs):
    """Solve matrix @ x = rhs exactly for a square nonsingular matrix, by
    Gauss-Jordan elimination over Fraction; the oracle for the engine's
    support records (their Schur steps) and its fraction-free kernel
    solves (cone membership)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("shape mismatch")
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError("singular matrix")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col] / pivot
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def sub_gram(lattice, classes):
    """The Gram matrix of the classes under the lattice's pairing."""
    return [[lattice.pair(a, b) for b in classes] for a in classes]


def negative_definite(lattice, classes):
    """Whether the span of the classes is q-negative-definite, by the
    inertia of their Gram matrix: a linearly dependent family picks up a
    kernel and is never definite.  The oracle for the engine's Schur
    steps (Geometry.support_projector and Geometry.chambers)."""
    return inertia(sub_gram(lattice, classes)) == (0, len(classes), 0)


def leading_minors_negative_definite(gram) -> bool:
    """(-1)^k det_k > 0 for every leading minor, determinants by Laplace
    expansion along the first row (independent of linalg).  A linearly
    dependent family has a zero minor, so it is never definite."""

    def det(m):
        if not m:
            return Fraction(1)
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j, v in enumerate(m[0]):
            if v:
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * v * det(minor)
        return total

    for k in range(1, len(gram) + 1):
        sub = [row[:k] for row in gram[:k]]
        if (-1) ** k * det(sub) <= 0:
            return False
    return True


def _fraction_kernel(rows, n):
    """Kernel basis by Fraction RREF: one vector per free column, with 1
    in that column."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][col]
        a[r] = [v / pivot for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * p for v, p in zip(a[i], a[r])]
        pivots.append(col)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -a[i][free]
        basis.append(x)
    return basis


def oracle_primitive(coords):
    """Clear denominators, then divide out the content; all in Fractions."""
    k = 1
    for c in coords:
        k = k * c.denominator // math.gcd(k, c.denominator)
    ints = [c * k for c in coords]
    g = math.gcd(*(int(c) for c in ints)) or 1
    return [c / g for c in ints]


def assert_kernel_matches_fraction_oracle(rows, n):
    """kernel(rows, n) is, in order, the primitive integer vector of each
    oracle vector, in ints, positive in the oracle vector's free column
    (its last nonzero entry, equal to 1)."""
    got, want = kernel(rows, n), _fraction_kernel(rows, n)
    assert got == [tuple(oracle_primitive(y)) for y in want], (rows, n)
    for x, y in zip(got, want):
        assert type(x) is tuple and all(type(c) is int for c in x)
        free = max(i for i, c in enumerate(y) if c)
        assert y[free] == 1 and x[free] > 0


# -- cones and chambers ------------------------------------------------------


def vec(*xs):
    return tuple(F(x) for x in xs)


def oracle_in_cone(gens, v):
    """Caratheodory: v lies in cone(gens) iff it is a nonnegative
    combination of some linearly independent subset of gens; a
    nonsingular square minor of the subset fixes its coefficients."""
    n = len(v)
    if not any(v):
        return True
    for k in range(1, n + 1):
        for subset in combinations(gens, k):
            for rows in combinations(range(n), k):
                try:
                    coeffs = solve([[g[i] for g in subset] for i in rows], [v[i] for i in rows])
                except SingularMatrixError:
                    continue
                if all(c >= 0 for c in coeffs) and all(
                    sum(c * g[i] for c, g in zip(coeffs, subset)) == v[i] for i in range(n)
                ):
                    return True
                break
    return False


def brute_force_extreme_rays(facets, equations, n):
    """The primitive integer extreme rays, sorted, of the pointed cone
    {x : f . x >= 0, e . x = 0}: each ray is the one-dimensional kernel
    of the equations and n - 1 - rank(equations) facets tight on it, so
    every such facet subset is one kernel solve (linalg.kernel, which
    assert_kernel_matches_fraction_oracle judges), and a kernel line is
    kept on the side where no facet is negative."""
    facets, equations = ([[int(c) for c in oracle_primitive([F(c) for c in v])] for v in rows]
                         for rows in (facets, equations))
    size = len(_fraction_kernel(equations, n)) - 1
    found = set()
    for subset in combinations(facets, size) if size >= 0 else ():
        line = kernel([*subset, *equations], n)
        if len(line) != 1:
            continue
        values = [sum(a * b for a, b in zip(f, line[0])) for f in facets]
        for sign in (1, -1):
            if all(sign * v >= 0 for v in values):
                found.add(tuple(sign * c for c in line[0]))
                break
    return sorted(found)


def brute_force_chambers(geom):
    """Every subset of the exceptional primes, tested one by one by the
    inertia of its Gram matrix."""
    exceptional = geom.exceptional_primes
    found = [
        frozenset(p.name for p in combo)
        for size in range(len(exceptional) + 1)
        for combo in combinations(exceptional, size)
        if negative_definite(geom.lattice, [p.cls for p in combo])
    ]
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


# -- volumes of K3^[n]-type catalogs ---------------------------------------------


def fujiki_constant(n: int) -> int:
    """(2n)!/(n! 2^n) = 1 * 3 * ... * (2n - 1), the Fujiki constant of
    the K3^[n] type (Beauville 1983), read off n and never off a catalog."""
    return math.prod(range(1, 2 * n, 2))


def fujiki_volume(lattice, positive) -> Fraction:
    """vol(D) = c q(P)^n for the positive part P of D on a K3^[n]-type
    lattice of half_dim n; 0 when q(P) <= 0 (D is not big)."""
    n = lattice.half_dim
    q = lattice.square(positive)
    return fujiki_constant(n) * q**n if q > 0 else Fraction(0)


def restricted_volume_by_derivative(lattice, positive_at) -> Fraction:
    """vol_{X|E}(D) = (1/2n) d/dt vol(D + tE) at t = 0+, for a big D on a
    K3^[n]-type lattice; positive_at(t) is P(D + tE) for rational t >= 0.

    The negative part is convex (P(D) + P(D') is movable and below
    D + D'), so t -> N(D + tE) is too, and when P(D + tE) is affine in t
    at the 2n + 1 points t = j eps / 2n, j = 0..2n, it is affine on all
    of [0, eps].  There vol(D + tE) = c q(P(D + tE))^n is one polynomial
    of degree <= 2n, and its derivative at 0 comes from exact Lagrange
    interpolation at those points.  eps halves from 1 until they qualify.
    """
    n = lattice.half_dim
    eps = Fraction(1)
    for _ in range(64):
        ts = [eps * Fraction(j, 2 * n) for j in range(2 * n + 1)]
        parts = [positive_at(t) for t in ts]
        step = parts[1] - parts[0]
        if all(p == parts[0] + step.scale(j) for j, p in enumerate(parts)):
            break
        eps /= 2
    else:
        raise AssertionError("P(D + tE) is affine on no [0, eps] tried")
    slope = Fraction(0)
    for j, (tj, part) in enumerate(zip(ts, parts)):
        others = ts[:j] + ts[j + 1:]
        # the t coefficient of prod(t - s), over the other points s
        linear = sum(math.prod(-s for s in others[:k] + others[k + 1:]) for k in range(len(others)))
        slope += fujiki_volume(lattice, part) * linear / math.prod(tj - s for s in others)
    return slope / (2 * n)


# -- the threshold's quadratic -----------------------------------------------


def quadratic_roots(a: Fraction | int, b: Fraction | int, c: Fraction | int) -> tuple[Surd, ...]:
    """Real roots of a t^2 + b t + c = 0, ascending, as exact surds.

    A linear equation yields one root; a contradiction (0 = c != 0)
    yields none; the identically-zero equation is refused because every
    t solves it.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not a:
        if not b:
            if not c:
                raise ValueError("identically zero equation has every root")
            return ()
        return (Surd(-c / b),)
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if not disc:
        return (Surd(-b / (2 * a)),)
    sq = Surd.sqrt(disc)
    half = Fraction(1, 2) / a
    r1 = (Surd(-b) - sq) * half
    r2 = (Surd(-b) + sq) * half
    return (r1, r2) if r1 < r2 else (r2, r1)


def smallest_positive_root(a: Fraction | int, b: Fraction | int, c: Fraction | int) -> Surd | None:
    """Smallest strictly positive root of a t^2 + b t + c = 0, or None."""
    for root in quadratic_roots(a, b, c):
        if root.sign() > 0:
            return root
    return None


# -- polygons as Surd pairs --------------------------------------------------


def _s(x) -> Surd:
    return x if isinstance(x, Surd) else Surd(x)


def point(x, y):
    return (_s(x), _s(y))


def cross(o, a, b) -> Surd:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(pts):
    """Counterclockwise hull starting at the lexicographic minimum: the
    canonical form.  Collinear points are dropped; a segment or single
    point comes back with 2 or 1 vertices."""
    pts = sorted(set((_s(x), _s(y)) for x, y in pts))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p).sign() <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p).sign() <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) > 2 else sorted(set(hull))


def _surd_area(vertices):
    if len(vertices) < 3:
        return Surd(0)
    total = Surd(0)
    for i, (x0, y0) in enumerate(vertices):
        x1, y1 = vertices[(i + 1) % len(vertices)]
        total = total + (x0 * y1 - x1 * y0)
    return abs(total) * F(1, 2)


def _hull_of_pairwise_sums(p, q):
    """The Minkowski sum oracle: the hull of all n*m pairwise vertex sums."""
    return convex_hull([(a[0] + b[0], a[1] + b[1]) for a in p for b in q])


def _surd_scale(vertices, factor):
    if not factor:
        return [point(0, 0)] if vertices else []
    return [(x * factor, y * factor) for x, y in vertices]


def _surd_translate(vertices, dx, dy=0):
    return [(x + dx, y + dy) for x, y in vertices]


def _surd_contains_point(vertices, pt):
    pt = point(*pt)
    if not vertices:
        return False
    if len(vertices) == 1:
        return vertices[0] == pt
    if len(vertices) == 2:
        a, b = vertices
        if cross(a, b, pt).sign() != 0:
            return False
        ab = (b[0] - a[0], b[1] - a[1])
        t = (pt[0] - a[0]) * ab[0] + (pt[1] - a[1]) * ab[1]
        return t.sign() >= 0 and (t - (ab[0] * ab[0] + ab[1] * ab[1])).sign() <= 0
    return _surd_contains_polygon(vertices, [pt])


def _surd_contains_polygon(outer, inner):
    if len(outer) < 3:
        return all(_surd_contains_point(outer, v) for v in inner)
    for x, y in inner:
        for v, w in zip(outer, (*outer[1:], outer[0])):
            if cross(v, w, (x, y)).sign() < 0:
                return False
    return True


# -- not oracles: the frame kernel, run on Surd points -----------------------


def area(vertices):
    return polygon2d.area(lift(vertices, 0))


def minkowski_sum(p, q):
    return list(points(polygon2d.minkowski_sum(lift(p, 0), lift(q, 0))))


def scale(vertices, factor):
    return list(points(polygon2d.scale(lift(vertices, 0), F(factor))))


def translate(vertices, dx):
    return list(points(polygon2d.translate(lift(vertices, 0), F(dx))))


def contains_polygon(outer, inner):
    return polygon2d.contains_polygon(lift(outer, 0), lift(inner, 0))


def contains_point(vertices, pt):
    return contains_polygon(vertices, [pt])

