"""Geometry documents: a Picard lattice plus a declared prime catalog.

A geometry is the desk-scale stand-in for a projective irreducible
holomorphic symplectic manifold: the BBF lattice, a finite catalog of
prime divisor classes (flagged exceptional exactly when their BBF
square is negative), and a description of the pseudo-effective cone.
Two modes exist:

* ``polyhedral`` -- Eff is the cone generated by finitely many declared
  effective classes; its facets are computed once per geometry, so
  membership questions become sign tests.
* ``round`` -- Eff is the half of {q >= 0} containing a declared ample
  class; membership questions become sign conditions on q.

Constructing a Geometry enforces the catalog invariants the engine
relies on, so parse_geometry, _replace and a direct call share them,
with the parser's exceptions and messages: each prime is flagged
exceptional exactly when its square is negative, and a round catalog
has no exceptional prime, an ample class of positive square, and only
primes that pair positively with it (so each lies in the round Eff).
With the lattice's signature (1, rank-1) (BBFLattice), a round prime
and every pseudo-effective class lie in one closed positive cone.

Data derived from the catalog is built on first use and kept on the
geometry, bounded by the catalog's size: the facets of Eff, Mov as
the cone cut out by Eff's facets and the primes' form rows (mov_cone)
and its extremal rays, the chamber list (negative-definite sets of
exceptional primes), each prime's form q(-, E) as an integer row over
a denominator, and one record per Zariski support met so far, keyed by
the support's frozenset of names like every other chamber value.  The
record (SupportProjector) is the chamber-local map P_S: P is linear on
a chamber S, so P_S and the coefficients of N are two integer matrices
over one shared denominator, with the images P_S(E) of every catalog
prime; each is one rank-one Schur update of the record of S less its
last prime, whose one pairing also decides that S is negative definite.
The chamber walk's slope along E on S is -P_S(E) and the Minkowski
generator of S is P_S(E) made primitive, both read off the record.  A
failed build is never kept.

Everything downstream is correct relative to this declared data: a
truncated catalog (actual manifolds may carry infinitely many prime
exceptional divisors) yields the truncation's decompositions.

The document format is JSON with every rational encoded exactly
(integer or "p/q" string); floats are rejected.  Serialization
round-trips bit-for-bit.
"""

from __future__ import annotations

import json
import re
from bisect import bisect
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import NamedTuple, Optional

from .errors import ConsistencyError, DomainError, GeometryError
from .lattice import BBFLattice, DivClass, _Frozen, dot
from .linalg import kernel
from .linprog import Cone, extreme_rays, generated_cone

_NAME_RE = re.compile(r"^[^\W\d][\w'′]*$")
_NUMBER_RE = re.compile(r"^-?\d+(/\d+)?$")

_TOP_FIELDS_POLY = {"name", "half_dim", "fujiki", "basis", "gram", "mode",
                    "primes", "effective_generators"}
_TOP_FIELDS_ROUND = {"name", "half_dim", "fujiki", "basis", "gram", "mode",
                     "primes", "ample"}


class Prime(NamedTuple):
    """A declared prime divisor: name, class, exceptionality flag."""

    name: str
    cls: DivClass
    exceptional: bool


class SupportProjector(NamedTuple):
    """The chamber-local linear map D -> P(D) on a Zariski support S, in
    integers over one denominator.

    names are S's primes sorted.  For a class d the coefficient of
    names[i] in N is coeff_rows[i] . d.num / (den * d.den), and
    P_S(d) = d - sum x_i E_i is rows . d.num / (den * d.den); den is
    positive but not always the least.  P_S(d) is orthogonal to every
    prime of S and P_S fixes S-perp.  images holds P_S(E) for every
    catalog prime E, by name.
    """

    names: tuple[str, ...]
    coeff_rows: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    den: int
    images: dict[str, DivClass]

    def positive(self, d: DivClass) -> DivClass:
        return _apply(self.rows, self.den, d) if self.names else d  # P is the identity on the empty support

    def coefficients(self, d: DivClass) -> tuple[Fraction, ...]:
        den = self.den * d.den
        return tuple(Fraction(dot(row, d.num), den) for row in self.coeff_rows)


def _apply(rows: tuple[tuple[int, ...], ...], den: int, d: DivClass) -> DivClass:
    """(rows . d.num) / (den * d.den) as a class."""
    return DivClass._raw(tuple(dot(row, d.num) for row in rows), den * d.den)


class Geometry(_Frozen):
    """A catalog; == and hash compare its seven declared fields, not its derived data.
    Construction refuses a catalog that breaks an invariant of the module docstring."""

    _fields = ("name", "lattice", "basis", "primes", "mode", "effective_generators", "ample")

    def __init__(self, name: str, lattice: BBFLattice, basis: tuple[str, ...], primes: tuple[Prime, ...],
                 mode: str, effective_generators: tuple[DivClass, ...] = (), ample: Optional[DivClass] = None):
        for k, p in enumerate(primes):
            if p.exceptional != ((square := lattice.square(p.cls)) < 0):
                raise GeometryError(f"primes[{k}]: exceptional flag is {p.exceptional} but q = {square}")
        if mode == "round":
            if any(p.exceptional for p in primes):
                raise GeometryError("round mode admits no exceptional primes")
            if ample is None:
                raise GeometryError("round mode requires an ample class")
            if lattice.square(ample) <= 0:
                raise GeometryError("ample class must have positive BBF square")
            for p in primes:  # every prime lies in the round Eff
                if (q := lattice.pair(p.cls, ample)) <= 0:
                    raise ConsistencyError(f"prime {p.name!r} pairs to {q} <= 0 with the ample class, "
                                           "so it is not pseudo-effective")
        self._fill(name=name, lattice=lattice, basis=basis, primes=primes, mode=mode, ample=ample,
                   effective_generators=effective_generators, _by_name={p.name: p for p in primes})

    def _replace(self, **changes) -> Geometry:
        """A copy with the named fields changed, and none of the derived data."""
        return Geometry(**{**dict(zip(self._fields, self._key())), **changes})

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def exceptional_primes(self) -> tuple[Prime, ...]:
        return tuple(p for p in self.primes if p.exceptional)

    def prime(self, name: str) -> Prime:
        try:
            return self._by_name[name]
        except KeyError:
            raise DomainError(f"unknown prime divisor {name!r}") from None

    def zero(self) -> DivClass:
        return DivClass([0] * self.rank)

    # Derived data, built on first use; _replace copies start without it.

    @cached_property
    def eff_cone(self) -> Cone:
        """Facets and span equations of the declared effective cone
        (polyhedral mode)."""
        cone = generated_cone([g.num for g in self.effective_generators], self.rank)
        if kernel([*cone.facets, *cone.equations], self.rank):
            raise ConsistencyError("declared effective cone is not pointed")
        return cone

    @cached_property
    def mov_cone(self) -> Cone:
        """Mov = Eff cut by q(-, Q) >= 0 for every prime Q (polyhedral
        mode); some of the primes' rows may be redundant."""
        eff = self.eff_cone
        rows = (DivClass(row).primitive().num for row, _ in self.prime_forms.values())
        return Cone((*eff.facets, *rows), eff.equations)

    @cached_property
    def movable_rays(self) -> tuple[DivClass, ...]:
        """Extremal rays of Mov."""
        mov = self.mov_cone
        return tuple(DivClass(r) for r in extreme_rays(mov.facets, mov.equations, self.rank))

    @cached_property
    def chambers(self) -> tuple[frozenset[str], ...]:
        """All negative-definite subsets of the exceptional primes: the
        empty set first, then by size and then by name.

        Each chamber grows from its record by one Schur step per later
        exceptional prime, so the work is one pairing per (chamber, later
        prime): output-sensitive, though the output can be 2^k for k
        orthogonal (-2)-primes.  Every chamber's record is kept.
        """
        exceptional, found = self.exceptional_primes, []
        level = [(0, self.support_projector(frozenset()))]
        while level:
            found.extend(frozenset(record.names) for _, record in level)
            level = [(j + 1, child) for start, record in level for j in range(start, len(exceptional))
                     if (child := self._grow(record, exceptional[j])) is not None]
        return tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))

    @cached_property
    def prime_forms(self) -> dict[str, tuple[tuple[int, ...], int]]:
        """The form q(-, E) of every prime E, by name, as an integer row
        and a positive denominator: q(x, E) = (x.num . row) / (x.den * den)."""
        return {p.name: self.lattice.form(p.cls) for p in self.primes}

    def prime_pair(self, x: DivClass, name: str) -> Fraction:
        """q(x, E) for the prime E called name."""
        row, den = self.prime_forms[name]
        return Fraction(dot(x.num, row), x.den * den)

    @cached_property
    def support_projectors(self) -> dict[frozenset[str], SupportProjector]:
        """The record of every Zariski support met so far, keyed by its
        prime names; support_projector fills it."""
        return {}

    def support_projector(self, support: frozenset[str]) -> SupportProjector:
        """The record of the support of primes called support, grown from
        the empty support's in catalog order (the parents chambers uses);
        a support that is not negative definite fails a step, not kept."""
        records = self.support_projectors
        record = records.get(support)
        if record is None:
            record = records.get(frozenset())
            if record is None:
                unit = tuple(tuple(int(r == c) for c in range(self.rank)) for r in range(self.rank))
                record = records[frozenset()] = SupportProjector(
                    (), (), unit, 1, {p.name: p.cls for p in self.primes})
            for prime in sorted(map(self.prime, support), key=self.primes.index):
                record = self._grow(record, prime)
                if record is None:
                    raise ConsistencyError(f"Gram matrix of {sorted(support)} is not negative definite; "
                                           "the declared prime catalog is inconsistent")
        return record

    def _grow(self, record: SupportProjector, prime: Prime) -> Optional[SupportProjector]:
        """The kept record of S + E for the support S of record and the
        prime E, else one rank-one update of record; None when S + E is
        not negative definite: with v = P_S(E), that is when the Schur
        complement s = q(v, E) = q(v, v) is not negative (Sylvester).
        P_{S+E}(x) = P_S(x) - c(x) v, E's coefficient in N is c(x) =
        q(P_S(x), E) / s and each x_j loses c(x) x_j(E); on the integer
        rows each is z_i a - sigma row_i over -sigma den."""
        support = frozenset((*record.names, prime.name))
        if (found := self.support_projectors.get(support)) is not None:
            return found
        row_e, e, k = self.prime_forms[prime.name][0], prime.cls, len(record.names)
        stacked = (*record.coeff_rows, *record.rows)
        z = [dot(row, e.num) for row in stacked]
        sigma = dot(z[k:], row_e)
        if sigma >= 0:
            return None
        a = [dot(row_e, column) for column in zip(*record.rows)]
        rows = [[zi * ac - sigma * v for ac, v in zip(a, row)] for zi, row in zip(z, stacked)]
        at = bisect(record.names, prime.name)
        rows.insert(at, [-e.den * record.den * ac for ac in a])
        den = -sigma * record.den
        g = gcd(den, *chain.from_iterable(rows))
        rows, den = tuple(tuple(v // g for v in row) for row in rows), den // g
        names = (*record.names[:at], prime.name, *record.names[at:])
        images = {p.name: _apply(rows[k + 1:], den, p.cls) for p in self.primes}
        found = SupportProjector(names, rows[:k + 1], rows[k + 1:], den, images)
        self.support_projectors[support] = found
        return found


# ---------------------------------------------------------------------------
# rationals and names


def _parse_rat(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise GeometryError(f"{where}: booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _NUMBER_RE.match(value.strip()):
            raise GeometryError(f"{where}: {value!r} is not an exact rational")
        return _fraction(value.strip(), where)
    if isinstance(value, float):
        raise GeometryError(f"{where}: floats are forbidden; write 'p/q'")
    raise GeometryError(f"{where}: expected a rational, got {type(value).__name__}")


def _fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise GeometryError(f"{where}: {text!r} has a zero denominator") from None


def _parse_vector(value, rank: int, where: str) -> DivClass:
    if not isinstance(value, list) or len(value) != rank:
        raise GeometryError(f"{where}: expected a vector of length {rank}")
    return DivClass(_parse_rat(v, f"{where}[{i}]") for i, v in enumerate(value))


def _check_name(name, where: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise GeometryError(f"{where}: invalid name {name!r}")
    return name


# ---------------------------------------------------------------------------
# geometry documents


def parse_geometry(text: str) -> Geometry:
    """Parse and validate a geometry document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GeometryError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GeometryError("geometry document must be a JSON object")

    mode = doc.get("mode")
    if mode not in ("polyhedral", "round"):
        raise GeometryError("mode must be 'polyhedral' or 'round'")
    allowed = _TOP_FIELDS_POLY if mode == "polyhedral" else _TOP_FIELDS_ROUND
    extra = set(doc) - allowed
    if extra:
        raise GeometryError(f"unexpected fields for {mode} mode: {sorted(extra)}")
    missing = allowed - set(doc)
    if missing:
        raise GeometryError(f"missing fields: {sorted(missing)}")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise GeometryError("name must be a nonempty string")
    if not isinstance(doc["half_dim"], int) or isinstance(doc["half_dim"], bool) or doc["half_dim"] < 1:
        raise GeometryError("half_dim must be a positive integer")
    fujiki = _parse_rat(doc["fujiki"], "fujiki")
    if fujiki <= 0:
        raise GeometryError("fujiki must be positive")

    basis = doc["basis"]
    if not isinstance(basis, list) or not basis:
        raise GeometryError("basis must be a nonempty list of names")
    basis = tuple(_check_name(b, "basis") for b in basis)
    rank = len(basis)
    if len(set(basis)) != rank:
        raise GeometryError("duplicate basis names")

    gram_rows = doc["gram"]
    if not isinstance(gram_rows, list) or len(gram_rows) != rank:
        raise GeometryError(f"gram must be a {rank}x{rank} matrix")
    gram = []
    for i, row in enumerate(gram_rows):
        if not isinstance(row, list) or len(row) != rank:
            raise GeometryError(f"gram must be a {rank}x{rank} matrix")
        gram.append([_parse_rat(v, f"gram[{i}][{j}]") for j, v in enumerate(row)])
    try:
        lattice = BBFLattice(gram, fujiki, doc["half_dim"])
    except ValueError as exc:
        raise GeometryError(str(exc)) from exc

    primes_doc = doc["primes"]
    if not isinstance(primes_doc, list):
        raise GeometryError("primes must be a list")
    primes = []
    seen = set(basis)
    for k, entry in enumerate(primes_doc):
        where = f"primes[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"name", "class", "exceptional"}:
            raise GeometryError(f"{where}: expected fields name/class/exceptional")
        pname = _check_name(entry["name"], where)
        if pname in seen:
            raise GeometryError(f"{where}: duplicate name {pname!r}")
        seen.add(pname)
        cls = _parse_vector(entry["class"], rank, f"{where}.class")
        if cls.is_zero:
            raise GeometryError(f"{where}: prime class must be nonzero")
        if not isinstance(entry["exceptional"], bool):
            raise GeometryError(f"{where}: exceptional must be a boolean")
        primes.append(Prime(pname, cls, entry["exceptional"]))

    if mode == "polyhedral":
        gens_doc = doc["effective_generators"]
        if not isinstance(gens_doc, list) or not gens_doc:
            raise GeometryError("effective_generators must be a nonempty list")
        gens = tuple(
            _parse_vector(v, rank, f"effective_generators[{i}]")
            for i, v in enumerate(gens_doc)
        )
        if any(g.is_zero for g in gens):
            raise GeometryError("effective generators must be nonzero")
        return Geometry(name, lattice, basis, tuple(primes), mode, gens, None)

    ample = _parse_vector(doc["ample"], rank, "ample")
    return Geometry(name, lattice, basis, tuple(primes), mode, (), ample)


def load_geometry(path) -> Geometry:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GeometryError(f"cannot read geometry file: {exc}") from exc
    return parse_geometry(text)


def geometry_to_json(geom: Geometry) -> str:
    """Serialize exactly; parse_geometry(geometry_to_json(g)) == g."""
    doc: dict = {
        "name": geom.name,
        "half_dim": geom.lattice.half_dim,
        "fujiki": str(geom.lattice.fujiki),
        "basis": list(geom.basis),
        "gram": [[str(v) for v in row] for row in geom.lattice.gram],
        "mode": geom.mode,
        "primes": [
            {
                "name": p.name,
                "class": [str(c) for c in p.cls.coords],
                "exceptional": p.exceptional,
            }
            for p in geom.primes
        ],
    }
    if geom.mode == "polyhedral":
        doc["effective_generators"] = [
            [str(c) for c in g.coords] for g in geom.effective_generators
        ]
    else:
        doc["ample"] = [str(c) for c in geom.ample.coords]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# divisor expressions

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[^\W\d][\w'′]*)|(?P<op>[+\-*]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise GeometryError(f"cannot tokenize divisor expression at {text[pos:]!r}")
            break
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return out


def parse_divisor(geom: Geometry, text: str) -> DivClass:
    """Parse '3H - 2*d + 1/2 E' style expressions to a divisor class."""
    tokens = _tokenize(text)
    if not tokens:
        raise GeometryError("empty divisor expression")
    total = geom.zero()
    i = 0
    sign = Fraction(1)
    expect_term = True
    while i < len(tokens):
        kind, value = tokens[i]
        if expect_term:
            if kind == "op" and value in "+-":  # sign prefix
                if value == "-":
                    sign = -sign
                i += 1
                continue
            coeff = None
            if kind == "num":
                coeff = _fraction(value, "divisor term")
                i += 1
                if i < len(tokens) and tokens[i] == ("op", "*"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "name":
                        raise GeometryError("expected a name after '*'")
                kind, value = tokens[i] if i < len(tokens) else (None, None)
            if kind == "name":
                total = total + _resolve(geom, value).scale(sign * (coeff if coeff is not None else 1))
                i += 1
            elif coeff is not None:
                # bare rational term: only the zero constant is a divisor
                if coeff != 0:
                    raise GeometryError("constant term in divisor expression")
            else:
                raise GeometryError(f"expected a term, got {value!r}")
            expect_term = False
            sign = Fraction(1)
        else:
            if kind != "op" or value not in "+-":
                raise GeometryError(f"expected '+' or '-', got {value!r}")
            sign = Fraction(1) if value == "+" else Fraction(-1)
            i += 1
            expect_term = True
    if expect_term:
        raise GeometryError("divisor expression ends with an operator")
    return total


def _resolve(geom: Geometry, name: str) -> DivClass:
    if name in geom.basis:
        idx = geom.basis.index(name)
        unit = [Fraction(0)] * geom.rank
        unit[idx] = Fraction(1)
        return DivClass(unit)
    if name in geom._by_name:
        return geom._by_name[name].cls
    raise GeometryError(f"unknown divisor name {name!r}")


def format_divisor(geom: Geometry, d: DivClass) -> str:
    """Render a class over the basis; parses back to the same class."""
    parts = []
    for name, c in zip(geom.basis, d.coords):
        if not c:
            continue
        mag = abs(c)
        body = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# cone predicates

def is_pseudo_effective(geom: Geometry, d: DivClass) -> bool:
    """Membership of the class in the declared pseudo-effective cone."""
    if d.dim != geom.rank:
        raise DomainError("class dimension does not match geometry rank")
    if geom.mode == "polyhedral":
        return geom.eff_cone.contains(d.num)  # den > 0 changes no sign
    return geom.lattice.square(d) >= 0 and geom.lattice.pair(d, geom.ample) >= 0


def is_movable(geom: Geometry, d: DivClass) -> bool:
    """Pseudo-effective and q-nonnegative against every declared prime:
    membership of mov_cone in polyhedral mode."""
    if not is_pseudo_effective(geom, d):  # raises on a rank mismatch
        return False
    return all(dot(d.num, row) >= 0 for row, _ in geom.prime_forms.values())

