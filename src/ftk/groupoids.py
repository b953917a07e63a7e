"""Ind-scheme points of the Frobenius-twisted level system, plus a
desk-scale finite-groupoid toolkit: masses, rigidification, iso-comma
fiber products, and colimit/fiber-product commutation checks.

IndPoint models a point of colim_m A^(S_m) (tensored with an elementary
abelian group of rank r): the transition from level m to m+1 includes the
coordinate vector into the larger slot set and applies the coefficient
Frobenius once.  Equality is equality after transporting to a common
level; the canonical representative is the level-minimal one, reachable
because coefficient p-th roots exist over a perfect field.

Groupoids are finite and explicit (objects, hom-sets of labelled arrows,
a composition table); constructors validate the axioms.  Everything here
is a verification harness, so constructors refuse inputs beyond 64
objects or 4096 arrows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .fields import FieldSpec

MAX_OBJECTS = 64
MAX_ARROWS = 4096
_ASSOC_BUDGET = 5_000_000  # composable triples checked exhaustively below this


def _slots(p: int, m: int):
    return [n for n in range(1, m + 1) if n % p]


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
        expected = len(_slots(self.spec.p, self.level)) * self.r
        if len(self.value) != expected:
            raise DomainError(
                f"value length {len(self.value)} != |S_m| * r = {expected}"
            )

    def transition(self, M: int) -> "IndPoint":
        """Transport to level M >= level: include into the S_M slots and
        apply the coefficient Frobenius once per level step."""
        if M < self.level:
            raise DomainError("transitions only go up")
        src = _slots(self.spec.p, self.level)
        dst = _slots(self.spec.p, M)
        steps = M - self.level
        by_slot = {s: self.value[i * self.r : (i + 1) * self.r] for i, s in enumerate(src)}
        zero_row = (self.spec.zero(),) * self.r
        out = []
        for s in dst:
            row = by_slot.get(s, zero_row)
            frow = []
            for c in row:
                for _ in range(steps):
                    c = c.frobenius()
                frow.append(c)
            out.extend(frow)
        return IndPoint(self.spec, self.r, M, tuple(out))

    def eq(self, other: "IndPoint") -> bool:
        if self.spec != other.spec or self.r != other.r:
            raise DomainError("points of different systems")
        M = max(self.level, other.level)
        return self.transition(M).value == other.transition(M).value

    def canonical(self) -> "IndPoint":
        """The least-level representative of the colimit class (idempotent)."""
        pt = self
        while pt.level > 1:
            m = pt.level
            src = _slots(pt.spec.p, m)
            prev = _slots(pt.spec.p, m - 1)
            by_slot = {s: pt.value[i * pt.r : (i + 1) * pt.r] for i, s in enumerate(src)}
            new_slots = [s for s in src if s not in prev]
            if any(not c.is_zero() for s in new_slots for c in by_slot[s]):
                break
            value = tuple(
                c.pth_root() for s in prev for c in by_slot[s]
            )
            pt = IndPoint(pt.spec, pt.r, m - 1, value)
        return pt

    def to_json(self) -> dict:
        return {
            "p": self.spec.p,
            "e": self.spec.e,
            "r": self.r,
            "level": self.level,
            "value": [str(v) for v in self.value],
        }


def level_count(m: int, r: int, q: int, p: int = None) -> int:
    """q^(|S_m| * r) points at level m.  p defaults to the prime of q."""
    if p is None:
        p = _smallest_prime_factor(q)
    return q ** (len(_slots(p, m)) * r)


def _smallest_prime_factor(q: int) -> int:
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


# -- finite groups ------------------------------------------------------


@dataclass(frozen=True)
class FinGroup:
    """A finite group as an explicit multiplication table."""

    elements: tuple
    table: dict  # (a, b) -> ab, as a frozen mapping via tuple of items
    identity: object

    @staticmethod
    def from_table(elements, mul, identity) -> "FinGroup":
        elements = tuple(elements)
        table = dict(mul)
        g = FinGroup(elements, table, identity)
        for a in elements:
            if table[(identity, a)] != a or table[(a, identity)] != a:
                raise DomainError("identity is not neutral")
            if not any(table[(a, b)] == identity for b in elements):
                raise DomainError("missing inverse")
        for a in elements:
            for b in elements:
                for c in elements:
                    if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                        raise DomainError("multiplication is not associative")
        return g

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        for b in self.elements:
            if self.mul(a, b) == self.identity:
                return b
        raise DomainError("no inverse (not a group)")

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
    def build(objects, homs, compose, identities, _trusted=False) -> "FiniteGroupoid":
        objects = tuple(objects)
        homs = {k: tuple(v) for k, v in homs.items() if v}
        g = FiniteGroupoid(objects, homs, dict(compose), dict(identities))
        if len(objects) > MAX_OBJECTS:
            raise DomainError(f"more than {MAX_OBJECTS} objects")
        n_arrows = sum(len(v) for v in homs.values())
        if n_arrows > MAX_ARROWS:
            raise DomainError(f"more than {MAX_ARROWS} arrows")
        if not _trusted:
            g._validate()
        return g

    def hom(self, x, y):
        return self.homs.get((x, y), ())

    def comp(self, x, y, z, f, g):
        """g o f for f: x -> y, g: y -> z."""
        return self.compose[(x, y, z, f, g)]

    def _validate(self):
        for x in self.objects:
            if self.identities.get(x) not in self.hom(x, x):
                raise DomainError(f"object {x!r} has no identity arrow")
        # composition closed and defined everywhere
        for (x, y), fs in self.homs.items():
            for (y2, z), gs in self.homs.items():
                if y != y2:
                    continue
                for f in fs:
                    for g in gs:
                        h = self.compose.get((x, y, z, f, g))
                        if h is None or h not in self.hom(x, z):
                            raise DomainError("composition table incomplete")
        # identity neutral
        for (x, y), fs in self.homs.items():
            for f in fs:
                if self.comp(x, x, y, self.identities[x], f) != f:
                    raise DomainError("identity not right-neutral")
                if self.comp(x, y, y, f, self.identities[y]) != f:
                    raise DomainError("identity not left-neutral")
        # inverses
        for (x, y), fs in self.homs.items():
            for f in fs:
                if not any(
                    self.comp(x, y, x, f, g) == self.identities[x]
                    and self.comp(y, x, y, g, f) == self.identities[y]
                    for g in self.hom(y, x)
                ):
                    raise DomainError("arrow without a two-sided inverse")
        # associativity, budgeted
        triples = 0
        for (w, x), fs in self.homs.items():
            for (x2, y), gs in self.homs.items():
                if x2 != x:
                    continue
                for (y2, z), hs in self.homs.items():
                    if y2 != y:
                        continue
                    triples += len(fs) * len(gs) * len(hs)
        if triples > _ASSOC_BUDGET:
            raise DomainError("groupoid too large to validate associativity")
        for (w, x), fs in self.homs.items():
            for (x2, y), gs in self.homs.items():
                if x2 != x:
                    continue
                for (y2, z), hs in self.homs.items():
                    if y2 != y:
                        continue
                    for f in fs:
                        for g in gs:
                            gf = self.comp(w, x, y, f, g)
                            for h in hs:
                                if self.comp(w, y, z, gf, h) != self.comp(
                                    w, x, z, f, self.comp(x, y, z, g, h)
                                ):
                                    raise DomainError("composition not associative")

    # -- invariants -----------------------------------------------------

    def iso_classes(self):
        """Connected components: in a groupoid, isomorphism classes."""
        parent = {x: x for x in self.objects}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (x, y), fs in self.homs.items():
            if fs:
                parent[find(x)] = find(y)
        classes: dict = {}
        for x in self.objects:
            classes.setdefault(find(x), []).append(x)
        return list(classes.values())

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
                    f"{s(f)}|{s(g)}": s(self.comp(x, y, z, f, g))
                    for f in self.hom(x, y)
                    for g in self.hom(y, z)
                }
                for x in self.objects
                for y in self.objects
                for z in self.objects
                if self.hom(x, y) and self.hom(y, z)
            },
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteGroupoid":
        objects = tuple(data["objects"])
        if any("|" in str(x) for x in objects):
            raise DomainError("object names must not contain '|'")
        homs = {}
        for key, labels in data["homs"].items():
            x, y = key.split("|")
            homs[(x, y)] = tuple(labels)
        compose = {}
        for key, table in data.get("compose", {}).items():
            x, y, z = key.split("|")
            for fg, h in table.items():
                f, g = fg.split("|")
                compose[(x, y, z, f, g)] = h
        identities = dict(data["identities"])
        return FiniteGroupoid.build(objects, homs, compose, identities)


def bg(group: FinGroup) -> FiniteGroupoid:
    """B G: one object whose automorphisms are G (composition g o f = gf)."""
    obj = "*"
    homs = {(obj, obj): tuple(group.elements)}
    compose = {
        (obj, obj, obj, f, g): group.mul(g, f)
        for f in group.elements
        for g in group.elements
    }
    return FiniteGroupoid.build((obj,), homs, compose, {obj: group.identity}, _trusted=True)


def discrete_groupoid(k: int) -> FiniteGroupoid:
    objects = tuple(range(k))
    homs = {(x, x): ("id",) for x in objects}
    compose = {(x, x, x, "id", "id"): "id" for x in objects}
    return FiniteGroupoid.build(objects, homs, compose, {x: "id" for x in objects})


def action_groupoid(group: FinGroup, points, act) -> FiniteGroupoid:
    """Action groupoid: objects are points, arrows (g, x): x -> act(g, x)."""
    points = tuple(points)
    homs: dict = {}
    for x in points:
        for g in group.elements:
            y = act(g, x)
            homs.setdefault((x, y), []).append(g)
    homs = {k: tuple(v) for k, v in homs.items()}
    compose = {}
    for (x, y), fs in homs.items():
        for (y2, z), gs in homs.items():
            if y2 != y:
                continue
            for f in fs:
                for g in gs:
                    compose[(x, y, z, f, g)] = group.mul(g, f)
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
                f_inv = next(
                    h for h in g.hom(y, x)
                    if g.comp(x, y, x, f, h) == g.identities[x]
                )
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
    new_compose = {}
    for (x, y), fs in new_homs.items():
        for (y2, z), gs in new_homs.items():
            if y2 != y:
                continue
            for fo in fs:
                for go in gs:
                    rep = g.comp(x, y, z, fo[0], go[0])
                    new_compose[(x, y, z, fo, go)] = orbit_of[(x, z, rep)]
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
        for (x, y), fs in self.src.homs.items():
            for (y2, z), gs in self.src.homs.items():
                if y2 != y:
                    continue
                for f in fs:
                    for g in gs:
                        lhs = self.arrow_map[(x, z, self.src.comp(x, y, z, f, g))]
                        rhs = self.dst.comp(
                            self.obj_map[x],
                            self.obj_map[y],
                            self.obj_map[z],
                            self.arrow_map[(x, y, f)],
                            self.arrow_map[(y, z, g)],
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
    compose = {}
    for (a, b), fs in homs.items():
        for (b2, c), gs in homs.items():
            if b2 != b:
                continue
            for (f1, g1) in fs:
                for (f2, g2) in gs:
                    compose[(a, b, c, (f1, g1), (f2, g2))] = (
                        F.src.comp(a[0], b[0], c[0], f1, f2),
                        K.src.comp(a[1], b[1], c[1], g1, g2),
                    )
    identities = {
        (x, y, alpha): (F.src.identities[x], K.src.identities[y])
        for (x, y, alpha) in objects
    }
    return FiniteGroupoid.build(tuple(objects), homs, compose, identities)


def product_groupoid(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    """a x b, the fiber product over the point."""
    point = discrete_groupoid(1)
    fa = GroupoidFunctor(
        a, point, {x: 0 for x in a.objects},
        {(x, y, f): "id" for (x, y), fs in a.homs.items() for f in fs},
    ).validate()
    fb = GroupoidFunctor(
        b, point, {x: 0 for x in b.objects},
        {(x, y, f): "id" for (x, y), fs in b.homs.items() for f in fs},
    ).validate()
    return groupoid_fiber_product(fa, fb)


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

    def push(self, i: int, x, j: int):
        for k in range(i, j):
            x = self.maps[k][x]
        return x

    def colim_classes(self):
        """Equivalence classes of the disjoint union under x ~ push(x)."""
        parent = {}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, lvl in enumerate(self.levels):
            for x in lvl:
                parent[(i, x)] = (i, x)
        for i, m in enumerate(self.maps):
            for x, y in m.items():
                ra, rb = find((i, x)), find((i + 1, y))
                if ra != rb:
                    parent[ra] = rb
        classes: dict = {}
        for key in parent:
            classes.setdefault(find(key), []).append(key)
        return classes


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

    def colim_map(self):
        """The induced map on colimit classes, as a dict of class reps."""
        src_cls = self.src.colim_classes()
        dst_cls = self.dst.colim_classes()

        def dst_rep(key):
            for rep, members in dst_cls.items():
                if key in members:
                    return rep
            raise AssertionError

        out = {}
        for rep, members in src_cls.items():
            i, x = members[0]
            out[rep] = dst_rep((i, self.components[i][x]))
        return out


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
    the canonical map, checking it is a bijection.
    """
    fp = fiber_product_system(a, b)
    lhs = fp.colim_classes()

    x_cls = a.src.colim_classes()
    z_cls = b.src.colim_classes()
    a_map = a.colim_map()
    b_map = b.colim_map()

    def rep_of(classes, key):
        for rep, members in classes.items():
            if key in members:
                return rep
        raise AssertionError

    rhs = {
        (rx, rz)
        for rx in x_cls
        for rz in z_cls
        if a_map[rx] == b_map[rz]
    }
    # canonical map on class representatives
    image = set()
    for rep, members in lhs.items():
        i, (x, z) = members[0]
        image_key = (rep_of(x_cls, (i, x)), rep_of(z_cls, (i, z)))
        image.add(image_key)
    if len(image) != len(lhs):
        return False  # not injective
    return image == rhs
