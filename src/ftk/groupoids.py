"""Ind-scheme points of the Frobenius-twisted level system, plus a
desk-scale finite-groupoid toolkit: masses, rigidification, iso-comma
fiber products, and colimit/fiber-product commutation checks.

IndPoint models a point of colim_m A^(S_m) (tensored with an elementary
abelian group of rank r): the transition from level m to m+1 includes the
coordinate vector into the larger slot set and applies the coefficient
Frobenius once.  The slots S_m = {1 <= k <= m : p does not divide k} are
ascending, so S_m is a prefix of S_M, and S_m minus S_(m-1) is {m} when p
does not divide m and empty otherwise.  A value is slot-major, one row of
r coordinates per slot, so the inclusion appends zero rows and a step
down drops the top row.  Equality is equality after transporting to a
common level; the canonical representative is the level-minimal one,
reachable because coefficient p-th roots exist over a perfect field.

Groupoids are finite and explicit (objects, hom-sets of labelled arrows,
a composition table).  Composition tables are built from rules over the
composable pairs of hom-sets (_composable, _table), and every constructor,
FinGroup.from_table included, validates the axioms.  Everything here is a
verification harness, so constructors refuse inputs beyond 64 objects,
4096 arrows or 5,000,000 composable triples (groups of order 171 or more).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .fields import FieldSpec, _prime_factors

MAX_OBJECTS = 64
MAX_ARROWS = 4096
_ASSOC_BUDGET = 5_000_000  # composable triples checked exhaustively below this


@dataclass(frozen=True)
class IndPoint:
    """A point of the level-m affine chart, considered in the colimit."""

    spec: FieldSpec
    r: int
    level: int
    value: tuple  # FqElem vector indexed by S_level x r, slot-major

    def __post_init__(self):
        if self.level < 1:
            raise DomainError("levels start at 1")
        expected = _slot_count(self.spec.p, self.level) * self.r
        if len(self.value) != expected:
            raise DomainError(
                f"value length {len(self.value)} != |S_m| * r = {expected}"
            )

    def transition(self, M: int) -> "IndPoint":
        """Transport to level M >= level: apply the coefficient Frobenius
        once per level step, then append a zero row for each slot of S_M
        beyond S_level."""
        if M < self.level:
            raise DomainError("transitions only go up")
        out = []
        for c in self.value:
            for _ in range(M - self.level):
                c = c.frobenius()
            out.append(c)
        new_rows = _slot_count(self.spec.p, M) - _slot_count(self.spec.p, self.level)
        out.extend([self.spec.zero()] * (new_rows * self.r))
        return IndPoint(self.spec, self.r, M, tuple(out))

    def eq(self, other: "IndPoint") -> bool:
        if self.spec != other.spec or self.r != other.r:
            raise DomainError("points of different systems")
        M = max(self.level, other.level)
        return self.transition(M).value == other.transition(M).value

    def canonical(self) -> "IndPoint":
        """The least-level representative of the colimit class (idempotent)."""
        level, value = self.level, self.value
        while level > 1:
            # the top row is slot `level`, present when p does not divide it
            top = self.r if level % self.spec.p else 0
            rest = len(value) - top
            if any(not c.is_zero() for c in value[rest:]):
                break
            value = tuple(c.pth_root() for c in value[:rest])
            level -= 1
        return IndPoint(self.spec, self.r, level, value)


def _slot_count(p: int, m: int) -> int:
    """|S_m| = m - floor(m/p)."""
    return m - m // p


def level_count(m: int, r: int, q: int) -> int:
    """q^(|S_m| * r) points at level m, p the prime of q."""
    return q ** (_slot_count(_prime_factors(q)[0], m) * r)


def _union_classes(keys, links):
    """Classes of the equivalence on keys generated by the linked pairs, as
    {representative: members in key order} (union-find)."""
    parent = {k: k for k in keys}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes: dict = {}
    for k in parent:
        classes.setdefault(find(k), []).append(k)
    return classes


def _rep_of(classes) -> dict:
    """member -> representative, for a {representative: members} dict."""
    return {key: rep for rep, members in classes.items() for key in members}


def _composable(homs, after=None):
    """(x, y, z, fs, gs) for every hom-set fs: x -> y of homs and gs: y -> z
    of after (default homs), in the order of homs; after is indexed by
    source once."""
    out_of: dict = {}
    for (y, z), gs in (homs if after is None else after).items():
        out_of.setdefault(y, []).append((z, gs))
    for (x, y), fs in homs.items():
        for z, gs in out_of.get(y, ()):
            yield x, y, z, fs, gs


def _table(homs, rule) -> dict:
    """The composition table {(x, y, z, f, g): rule(x, y, z, f, g)} over
    every composable pair of arrows f: x -> y, g: y -> z."""
    return {
        (x, y, z, f, g): rule(x, y, z, f, g)
        for x, y, z, fs, gs in _composable(homs)
        for f in fs
        for g in gs
    }


# -- finite groups ------------------------------------------------------


@dataclass(frozen=True)
class FinGroup:
    """A finite group as an explicit multiplication table."""

    elements: tuple
    table: dict  # (a, b) -> ab, as a frozen mapping via tuple of items
    identity: object
    _bg: object = field(default=None, compare=False, repr=False)  # see bg

    @staticmethod
    def from_table(elements, mul, identity) -> "FinGroup":
        """The group laws are checked as the groupoid laws of B G, so a
        group beyond the groupoid caps (order 171 or more) is refused."""
        g = FinGroup(tuple(elements), dict(mul), identity)
        bg(g)
        return g

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        return next(b for b in self.elements if self.mul(a, b) == self.identity)

    def order(self) -> int:
        return len(self.elements)

    def center(self):
        return tuple(
            z for z in self.elements
            if all(self.mul(z, a) == self.mul(a, z) for a in self.elements)
        )

    def subgroup_closure(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(x, self.inv(g))):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return tuple(e for e in self.elements if e in seen)

    def is_normal(self, sub) -> bool:
        subset = set(sub)
        return all(
            self.mul(self.mul(g, h), self.inv(g)) in subset
            for g in self.elements
            for h in sub
        )

    def quotient(self, sub):
        """(quotient group, projection dict) for a normal subgroup."""
        if not self.is_normal(sub):
            raise DomainError("subgroup is not normal")
        subset = list(sub)
        coset_of = {}
        cosets = []
        for a in self.elements:
            if a in coset_of:
                continue
            coset = tuple(sorted((self.mul(a, h) for h in subset), key=str))
            for x in coset:
                coset_of[x] = coset
            cosets.append(coset)
        mul = {}
        for ca in cosets:
            for cb in cosets:
                mul[(ca, cb)] = coset_of[self.mul(ca[0], cb[0])]
        quot = FinGroup.from_table(cosets, mul, coset_of[self.identity])
        return quot, coset_of

    @staticmethod
    def cyclic(k: int) -> "FinGroup":
        els = tuple(range(k))
        return FinGroup.from_table(
            els, {(a, b): (a + b) % k for a in els for b in els}, 0
        )

    @staticmethod
    def direct_product(g: "FinGroup", h: "FinGroup") -> "FinGroup":
        els = tuple(itertools.product(g.elements, h.elements))
        mul = {
            ((a1, b1), (a2, b2)): (g.mul(a1, a2), h.mul(b1, b2))
            for (a1, b1) in els
            for (a2, b2) in els
        }
        return FinGroup.from_table(els, mul, (g.identity, h.identity))

    @staticmethod
    def quaternion() -> "FinGroup":
        """Q_8 = {±1, ±i, ±j, ±k}."""
        names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")

        def canon(sign, sym):
            if sym == "1":
                return "1" if sign > 0 else "-1"
            return sym if sign > 0 else "-" + sym

        def split(x):
            sign = -1 if x.startswith("-") else 1
            return sign, x.lstrip("-") or "1"

        basemul = {
            ("1", s): (1, s) for s in ("1", "i", "j", "k")
        }
        basemul.update({(s, "1"): (1, s) for s in ("i", "j", "k")})
        basemul.update(
            {
                ("i", "i"): (-1, "1"),
                ("j", "j"): (-1, "1"),
                ("k", "k"): (-1, "1"),
                ("i", "j"): (1, "k"),
                ("j", "i"): (-1, "k"),
                ("j", "k"): (1, "i"),
                ("k", "j"): (-1, "i"),
                ("k", "i"): (1, "j"),
                ("i", "k"): (-1, "j"),
            }
        )
        mul = {}
        for a in names:
            for b in names:
                sa, xa = split(a)
                sb, xb = split(b)
                sc, xc = basemul[(xa, xb)]
                mul[(a, b)] = canon(sa * sb * sc, xc)
        return FinGroup.from_table(names, mul, "1")


# -- finite groupoids ----------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupoid:
    """Objects, labelled hom-sets, and a composition table.

    compose[(x, y, z, f, g)] is g o f for f: x -> y and g: y -> z.
    Validated on construction: identities neutral, every arrow invertible,
    composition associative.
    """

    objects: tuple
    homs: dict  # (x, y) -> tuple of labels
    compose: dict
    identities: dict  # x -> label in homs[(x, x)]

    @staticmethod
    def build(objects, homs, compose, identities) -> "FiniteGroupoid":
        objects = tuple(objects)
        homs = {k: tuple(v) for k, v in homs.items() if v}
        g = FiniteGroupoid(objects, homs, dict(compose), dict(identities))
        if len(objects) > MAX_OBJECTS:
            raise DomainError(f"more than {MAX_OBJECTS} objects")
        n_arrows = sum(len(v) for v in homs.values())
        if n_arrows > MAX_ARROWS:
            raise DomainError(f"more than {MAX_ARROWS} arrows")
        g._validate()
        return g

    def hom(self, x, y):
        return self.homs.get((x, y), ())

    def comp(self, x, y, z, f, g):
        """g o f for f: x -> y, g: y -> z."""
        return self.compose[(x, y, z, f, g)]

    def inverse(self, x, y, f):
        """The two-sided inverse of f: x -> y."""
        for h in self.hom(y, x):
            if (
                self.comp(x, y, x, f, h) == self.identities[x]
                and self.comp(y, x, y, h, f) == self.identities[y]
            ):
                return h
        raise DomainError("arrow without a two-sided inverse")

    def _validate(self):
        objects = set(self.objects)
        if any(x not in objects or y not in objects for x, y in self.homs):
            raise DomainError("hom-set between objects that are not listed")
        if any(x not in objects for x in self.identities):
            raise DomainError("identity at an object that is not listed")
        for x in self.objects:
            if self.identities.get(x) not in self.hom(x, x):
                raise DomainError(f"object {x!r} has no identity arrow")
        # composition closed and defined everywhere; paths[(x, z)] lists
        # the composable pairs (y, f, g, g o f)
        paths: dict = {}
        for x, y, z, fs, gs in _composable(self.homs):
            row = paths.setdefault((x, z), [])
            for f in fs:
                for g in gs:
                    h = self.compose.get((x, y, z, f, g))
                    if h is None or h not in self.hom(x, z):
                        raise DomainError("composition table incomplete")
                    row.append((y, f, g, h))
        # identities neutral, every arrow invertible
        for (x, y), fs in self.homs.items():
            for f in fs:
                if self.comp(x, x, y, self.identities[x], f) != f:
                    raise DomainError("identity not right-neutral")
                if self.comp(x, y, y, f, self.identities[y]) != f:
                    raise DomainError("identity not left-neutral")
                self.inverse(x, y, f)
        # associativity, budgeted: k o (g o f) = (k o g) o f
        triples = list(_composable(paths, self.homs))
        if sum(len(ps) * len(ks) for *_, ps, ks in triples) > _ASSOC_BUDGET:
            raise DomainError("groupoid too large to validate associativity")
        c = self.compose
        for w, y, z, ps, ks in triples:
            for x, f, g, gf in ps:
                for k in ks:
                    if c[(w, y, z, gf, k)] != c[(w, x, z, f, c[(x, y, z, g, k)])]:
                        raise DomainError("composition not associative")

    # -- invariants -----------------------------------------------------

    def iso_classes(self):
        """Connected components: in a groupoid, isomorphism classes."""
        links = (xy for xy, fs in self.homs.items() if fs)
        return list(_union_classes(self.objects, links).values())

    def aut_order(self, x) -> int:
        return len(self.hom(x, x))

    def mass(self) -> Fraction:
        """Groupoid cardinality: sum of 1/|Aut| over isomorphism classes."""
        return sum(
            (Fraction(1, self.aut_order(cls[0])) for cls in self.iso_classes()),
            Fraction(0),
        )

    def class_aut_orders(self):
        """Sorted automorphism orders, one per isomorphism class."""
        return sorted(self.aut_order(cls[0]) for cls in self.iso_classes())

    def arrow_count(self) -> int:
        return sum(len(v) for v in self.homs.values())

    def to_json(self) -> dict:
        def s(x):
            return str(x)

        return {
            "objects": [s(x) for x in self.objects],
            "identities": {s(x): s(l) for x, l in self.identities.items()},
            "homs": {f"{s(x)}|{s(y)}": [s(f) for f in fs] for (x, y), fs in self.homs.items()},
            "compose": {
                f"{s(x)}|{s(y)}|{s(z)}": {
                    f"{s(f)}|{s(g)}": s(self.comp(x, y, z, f, g)) for f in fs for g in gs
                }
                for x, y, z, fs, gs in _composable(self.homs)
            },
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteGroupoid":
        """The groupoid of a to_json record; DomainError for JSON of any
        other shape."""

        def split(key, n):
            parts = key.split("|")
            if len(parts) != n:
                raise ValueError(f"{key!r} is not {n} names joined by '|'")
            return tuple(parts)

        try:
            objects = tuple(data["objects"])
            homs = {split(key, 2): tuple(labels) for key, labels in data["homs"].items()}
            compose = {
                split(key, 3) + split(fg, 2): h
                for key, table in data.get("compose", {}).items()
                for fg, h in table.items()
            }
            identities = dict(data["identities"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DomainError(f"not a groupoid record ({type(exc).__name__}: {exc})") from None
        names = [*objects, *identities.values(), *compose.values(), *itertools.chain(*homs.values())]
        if not all(isinstance(a, str) for a in names):
            raise DomainError("groupoid objects and arrows must be strings")
        if any("|" in x for x in objects):
            raise DomainError("object names must not contain '|'")
        return FiniteGroupoid.build(objects, homs, compose, identities)


def bg(group: FinGroup) -> FiniteGroupoid:
    """B G: one object whose automorphisms are G (composition g o f = gf).
    It is built and validated once per group, which keeps it."""
    if group._bg is None:
        homs = {("*", "*"): group.elements}
        compose = _table(homs, lambda x, y, z, f, g: group.table.get((g, f)))
        built = FiniteGroupoid.build(("*",), homs, compose, {"*": group.identity})
        object.__setattr__(group, "_bg", built)
    return group._bg


def discrete_groupoid(k: int) -> FiniteGroupoid:
    objects = tuple(range(k))
    homs = {(x, x): ("id",) for x in objects}
    compose = _table(homs, lambda *_: "id")
    return FiniteGroupoid.build(objects, homs, compose, {x: "id" for x in objects})


def action_groupoid(group: FinGroup, points, act) -> FiniteGroupoid:
    """Action groupoid: objects are points, arrows (g, x): x -> act(g, x)."""
    points = tuple(points)
    homs: dict = {}
    for x in points:
        for g in group.elements:
            y = act(g, x)
            homs.setdefault((x, y), []).append(g)
    compose = _table(homs, lambda x, y, z, f, g: group.mul(g, f))
    identities = {x: group.identity for x in points}
    return FiniteGroupoid.build(points, homs, compose, identities)


def groupoid_mass(g: FiniteGroupoid) -> Fraction:
    return g.mass()


# -- rigidification -------------------------------------------------------


@dataclass(frozen=True)
class CentralAutSubgroup:
    """For each object x a subgroup H_x of Aut(x), stable under conjugation
    by every arrow (the subgroup-sheaf condition, automatic normality)."""

    subgroups: dict  # x -> frozenset of labels in hom(x, x)

    def validate(self, g: FiniteGroupoid):
        if any(x not in g.objects for x in self.subgroups):
            raise DomainError("subgroup at an object that is not listed")
        for x in g.objects:
            hx = self.subgroups.get(x)
            if hx is None:
                raise DomainError(f"missing subgroup at object {x!r}")
            if not hx <= set(g.hom(x, x)):
                raise DomainError("subgroup not contained in Aut")
            if g.identities[x] not in hx:
                raise DomainError("subgroup misses the identity")
            for a in hx:
                for b in hx:
                    if g.comp(x, x, x, a, b) not in hx:
                        raise DomainError("subgroup not closed")
        for (x, y), fs in g.homs.items():
            hy = self.subgroups[y]
            hx = self.subgroups[x]
            for f in fs:
                f_inv = g.inverse(x, y, f)
                for a in hx:
                    conj = g.comp(y, x, y, f_inv, g.comp(x, x, y, a, f))
                    if conj not in hy:
                        raise DomainError(
                            "conjugation stability fails: f H_x f^-1 != H_y"
                        )


def rigidify(g: FiniteGroupoid, h: CentralAutSubgroup) -> FiniteGroupoid:
    """Quotient every hom(x, y) by post-composition with H_y.

    Orbit labels are the sorted orbit tuples; composition descends because
    the subgroups are conjugation-stable.
    """
    h.validate(g)

    def orbit(x, y, f):
        return tuple(sorted((g.comp(x, y, y, f, a) for a in h.subgroups[y]), key=str))

    new_homs = {}
    orbit_of = {}
    for (x, y), fs in g.homs.items():
        labels = []
        for f in fs:
            o = orbit(x, y, f)
            orbit_of[(x, y, f)] = o
            if o not in labels:
                labels.append(o)
        new_homs[(x, y)] = tuple(labels)
    new_compose = _table(
        new_homs, lambda x, y, z, fo, go: orbit_of[(x, z, g.comp(x, y, z, fo[0], go[0]))]
    )
    new_ids = {x: orbit_of[(x, x, g.identities[x])] for x in g.objects}
    return FiniteGroupoid.build(g.objects, new_homs, new_compose, new_ids)


# -- functors and fiber products ------------------------------------------


@dataclass(frozen=True)
class GroupoidFunctor:
    src: FiniteGroupoid
    dst: FiniteGroupoid
    obj_map: dict
    arrow_map: dict  # (x, y, f) -> label

    def validate(self):
        for x in self.src.objects:
            if self.obj_map.get(x) not in self.dst.objects:
                raise DomainError("object map out of range")
        for (x, y), fs in self.src.homs.items():
            fx, fy = self.obj_map[x], self.obj_map[y]
            for f in fs:
                if self.arrow_map.get((x, y, f)) not in self.dst.hom(fx, fy):
                    raise DomainError("arrow map out of range")
        for x in self.src.objects:
            if (
                self.arrow_map[(x, x, self.src.identities[x])]
                != self.dst.identities[self.obj_map[x]]
            ):
                raise DomainError("functor does not preserve identities")
        for x, y, z, fs, gs in _composable(self.src.homs):
            fx, fy, fz = self.obj_map[x], self.obj_map[y], self.obj_map[z]
            for f in fs:
                for g in gs:
                    lhs = self.arrow_map[(x, z, self.src.comp(x, y, z, f, g))]
                    rhs = self.dst.comp(
                        fx, fy, fz, self.arrow_map[(x, y, f)], self.arrow_map[(y, z, g)]
                    )
                    if lhs != rhs:
                        raise DomainError("functor does not preserve composition")
        return self


def quotient_functor(group: FinGroup, sub) -> GroupoidFunctor:
    """B G -> B(G/H) induced by the projection, for H normal in G."""
    quot, proj = group.quotient(sub)
    src, dst = bg(group), bg(quot)
    fun = GroupoidFunctor(
        src,
        dst,
        {"*": "*"},
        {("*", "*", a): proj[a] for a in group.elements},
    )
    return fun.validate()


def groupoid_fiber_product(F: GroupoidFunctor, K: GroupoidFunctor) -> FiniteGroupoid:
    """Iso-comma fiber product of F: G1 -> G3 and K: G2 -> G3.

    Objects (x, y, alpha) with alpha: F(x) -> K(y); arrows are pairs
    (f, g) with K(g) o alpha = alpha' o F(f).
    """
    if F.dst is not K.dst and F.dst != K.dst:
        raise DomainError("functors must share a target")
    F.validate()
    K.validate()
    g3 = F.dst
    objects = []
    for x in F.src.objects:
        for y in K.src.objects:
            for alpha in g3.hom(F.obj_map[x], K.obj_map[y]):
                objects.append((x, y, alpha))
    homs = {}
    for (x, y, alpha) in objects:
        for (x2, y2, alpha2) in objects:
            labels = []
            for f in F.src.hom(x, x2):
                for g in K.src.hom(y, y2):
                    lhs = g3.comp(
                        F.obj_map[x], K.obj_map[y], K.obj_map[y2],
                        alpha, K.arrow_map[(y, y2, g)],
                    )
                    rhs = g3.comp(
                        F.obj_map[x], F.obj_map[x2], K.obj_map[y2],
                        F.arrow_map[(x, x2, f)], alpha2,
                    )
                    if lhs == rhs:
                        labels.append((f, g))
            if labels:
                homs[((x, y, alpha), (x2, y2, alpha2))] = tuple(labels)
    compose = _table(homs, lambda a, b, c, fg1, fg2: (
        F.src.comp(a[0], b[0], c[0], fg1[0], fg2[0]),
        K.src.comp(a[1], b[1], c[1], fg1[1], fg2[1]),
    ))
    identities = {
        (x, y, alpha): (F.src.identities[x], K.src.identities[y])
        for (x, y, alpha) in objects
    }
    return FiniteGroupoid.build(tuple(objects), homs, compose, identities)


def product_groupoid(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    """a x b, the fiber product over the point."""
    point = discrete_groupoid(1)

    def to_point(g):
        arrows = {(x, y, f): "id" for (x, y), fs in g.homs.items() for f in fs}
        return GroupoidFunctor(g, point, {x: 0 for x in g.objects}, arrows)

    return groupoid_fiber_product(to_point(a), to_point(b))


# -- direct systems of finite sets and the colimit commutation check ------


@dataclass(frozen=True)
class SetSystem:
    """X_0 -> X_1 -> ... -> X_N, finite sets with arbitrary transition maps."""

    levels: tuple  # tuple of tuples of labels
    maps: tuple  # maps[i]: dict X_i -> X_{i+1}

    def __post_init__(self):
        if len(self.maps) != len(self.levels) - 1:
            raise DomainError("need exactly N transition maps for N+1 levels")
        for i, m in enumerate(self.maps):
            if set(m) != set(self.levels[i]) or not set(m.values()) <= set(
                self.levels[i + 1]
            ):
                raise DomainError(f"transition {i} is not a map of the levels")

    def colim_classes(self):
        """Equivalence classes of the disjoint union under x ~ maps[i][x]."""
        keys = ((i, x) for i, lvl in enumerate(self.levels) for x in lvl)
        links = (((i, x), (i + 1, y)) for i, m in enumerate(self.maps) for x, y in m.items())
        return _union_classes(keys, links)


@dataclass(frozen=True)
class SystemMap:
    """A levelwise map of SetSystems commuting with the transitions."""

    src: SetSystem
    dst: SetSystem
    components: tuple  # components[i]: dict src.levels[i] -> dst.levels[i]

    def __post_init__(self):
        if len(self.components) != len(self.src.levels):
            raise DomainError("one component per level required")
        for i, comp in enumerate(self.components):
            if set(comp) != set(self.src.levels[i]):
                raise DomainError(f"component {i} not total")
            if not set(comp.values()) <= set(self.dst.levels[i]):
                raise DomainError(f"component {i} out of range")
        for i in range(len(self.src.maps)):
            for x in self.src.levels[i]:
                lhs = self.components[i + 1][self.src.maps[i][x]]
                rhs = self.dst.maps[i][self.components[i][x]]
                if lhs != rhs:
                    raise DomainError("system map does not commute with transitions")


def fiber_product_system(a: SystemMap, b: SystemMap) -> SetSystem:
    """Levelwise fiber product X_n x_{Y_n} Z_n with induced transitions."""
    if a.dst != b.dst:
        raise DomainError("maps must share a target system")
    n_levels = len(a.src.levels)
    levels = []
    for i in range(n_levels):
        levels.append(
            tuple(
                (x, z)
                for x in a.src.levels[i]
                for z in b.src.levels[i]
                if a.components[i][x] == b.components[i][z]
            )
        )
    maps = []
    for i in range(n_levels - 1):
        maps.append(
            {
                (x, z): (a.src.maps[i][x], b.src.maps[i][z])
                for (x, z) in levels[i]
            }
        )
    return SetSystem(tuple(levels), tuple(maps))


def colim_fiber_product_check(a: SystemMap, b: SystemMap) -> bool:
    """Does colim commute with the fiber product for these systems?

    Compares colim(X_n x_{Y_n} Z_n) with colim X x_{colim Y} colim Z via
    the canonical map, checking it is a bijection.  Each of the four
    systems is quotiented once; a and b share Y.
    """
    fp = fiber_product_system(a, b)
    lhs = fp.colim_classes()

    x_rep = _rep_of(a.src.colim_classes())
    z_rep = _rep_of(b.src.colim_classes())
    y_rep = _rep_of(a.dst.colim_classes())
    # the maps a and b induce on colimit classes, well defined because
    # system maps commute with the transitions
    a_map = {rx: y_rep[(i, a.components[i][x])] for (i, x), rx in x_rep.items()}
    b_map = {rz: y_rep[(i, b.components[i][z])] for (i, z), rz in z_rep.items()}
    rhs = {
        (rx, rz)
        for rx, ya in a_map.items()
        for rz, yb in b_map.items()
        if ya == yb
    }
    # canonical map on class representatives
    image = set()
    for rep, members in lhs.items():
        i, (x, z) = members[0]
        image.add((x_rep[(i, x)], z_rep[(i, z)]))
    if len(image) != len(lhs):
        return False  # not injective
    return image == rhs
