import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import schoolbook
from ftk.errors import DomainError
from ftk.fields import field
from ftk.groupoids import (
    CentralAutSubgroup,
    FinGroup,
    FiniteGroupoid,
    GroupoidFunctor,
    IndPoint,
    SetSystem,
    SystemMap,
    action_groupoid,
    bg,
    colim_fiber_product_check,
    discrete_groupoid,
    fiber_product_system,
    groupoid_fiber_product,
    level_count,
    product_groupoid,
    quotient_functor,
    rigidify,
    _table,
)


F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F9 = field(3, 2)


class TestIndPoint:
    def test_identity_transition(self):
        a = IndPoint(F2, 1, 2, (F2.one(),))
        assert a.transition(2).value == a.value

    def test_transition_applies_frobenius_per_step(self):
        a = IndPoint(F2, 1, 1, (F2.one(),))
        t = a.transition(3)
        assert t.level == 3
        assert [v.index for v in t.value] == [1, 0]
        g = F9.gen()
        b = IndPoint(F9, 1, 1, (g,)).transition(2)
        assert b.value == (g.frobenius(), F9.zero())

    def test_eq_along_transitions(self):
        a = IndPoint(F2, 1, 1, (F2.one(),))
        assert a.eq(a.transition(4))
        assert not a.eq(IndPoint(F2, 1, 1, (F2.zero(),)))

    def test_frobenius_twist_changes_class(self):
        g = F4.gen()
        a = IndPoint(F4, 1, 1, (g,))
        b = IndPoint(F4, 1, 1, (g.frobenius(),))
        assert not a.eq(b)

    def test_canonical(self):
        a = IndPoint(F2, 1, 1, (F2.one(),))
        up = a.transition(5)
        c = up.canonical()
        assert c.level == 1 and c.eq(a)
        z = IndPoint(F2, 1, 3, (F2.zero(), F2.zero()))
        assert z.canonical().level == 1

    def test_canonical_minimal_level(self):
        a = IndPoint(F2, 1, 3, (F2.zero(), F2.one()))  # support in slot 3 only
        assert a.canonical().level == 3

    def test_eq_is_equivalence(self):
        rng = random.Random(3)
        pts = []
        for level in (1, 2, 3):
            slots = len([n for n in range(1, level + 1) if n % 2])
            for _ in range(6):
                pts.append(
                    IndPoint(
                        F2, 1, level,
                        tuple(F2.from_index(rng.randrange(2)) for _ in range(slots)),
                    )
                )
        for a in pts:
            assert a.eq(a)
            for b in pts:
                assert a.eq(b) == b.eq(a)
                for c in pts:
                    if a.eq(b) and b.eq(c):
                        assert a.eq(c)

    def test_level_count(self):
        assert level_count(3, 1, 2) == 4
        assert level_count(5, 1, 3) == 81
        assert level_count(3, 0, 2) == 1

    def test_bad_shapes(self):
        with pytest.raises(DomainError):
            IndPoint(F2, 1, 0, ())
        with pytest.raises(DomainError):
            IndPoint(F2, 1, 2, (F2.one(), F2.one()))
        with pytest.raises(DomainError):
            IndPoint(F2, 1, 2, (F2.one(),)).transition(1)


@st.composite
def ind_point_problems(draw):
    """(a, b, M): two reference ind-points over F_2, F_3, F_4 or F_9 of rank
    1 or 2 at levels 1..6, and a level M >= a.level.  Each point is a random
    point transported up from a random lower level, so that canonical has
    zero rows to drop; b is a's canonical point transported half the time."""
    spec = draw(st.sampled_from([F2, F3, F4, F9]))
    r = draw(st.integers(1, 2))

    def point():
        base = draw(st.integers(1, 6))
        size = (base - base // spec.p) * r
        digits = draw(st.lists(st.integers(0, spec.q - 1), min_size=size, max_size=size))
        pt = schoolbook.IndPoint(spec, r, base, tuple(map(spec.from_index, digits)))
        return pt.transition(draw(st.integers(base, 6)))

    a = point()
    b = a.canonical().transition(draw(st.integers(a.canonical().level, 6))) if draw(st.booleans()) else point()
    return a, b, draw(st.integers(a.level, 6))


@given(ind_point_problems())
def test_ind_point_matches_reference(problem):
    a_ref, b_ref, M = problem
    a, b = (IndPoint(x.spec, x.r, x.level, x.value) for x in (a_ref, b_ref))

    def fields(x):
        return x.level, x.value

    assert fields(a.transition(M)) == fields(a_ref.transition(M))
    assert a.eq(b) == a_ref.eq(b_ref)
    assert fields(a.canonical()) == fields(a_ref.canonical())


Z3 = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
# the smallest loop that is not a group: every element is its own
# inverse, yet (1 * 1) * 2 = 2 != 1 * (1 * 2) = 4
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


class TestFinGroup:
    def test_cyclic(self):
        z6 = FinGroup.cyclic(6)
        assert z6.order() == 6
        assert z6.inv(2) == 4

    def test_quaternion(self):
        q8 = FinGroup.quaternion()
        assert q8.order() == 8
        assert q8.mul("i", "j") == "k"
        assert q8.mul("j", "i") == "-k"
        assert sorted(q8.center()) == ["-1", "1"]

    def test_quotient(self):
        z4 = FinGroup.cyclic(4)
        quot, proj = z4.quotient(z4.subgroup_closure([2]))
        assert quot.order() == 2
        assert proj[0] == proj[2]
        with pytest.raises(DomainError):
            # {1, i} is not closed under conjugation (j i j^{-1} = -i)
            FinGroup.quaternion().quotient(("1", "i"))

    def test_subgroup_closure(self):
        q8 = FinGroup.quaternion()
        assert len(q8.subgroup_closure(["i"])) == 4
        assert len(q8.subgroup_closure(["-1"])) == 2

    @pytest.mark.parametrize(
        "elements, table, identity, message",
        [
            (range(3), Z3, 1, "neutral"),
            (range(2), {(a, b): a | b for a in range(2) for b in range(2)}, 0, "inverse"),
            (range(5), {(a, b): LOOP5[a][b] for a in range(5) for b in range(5)}, 0, "associative"),
            (range(3), {**Z3, (0, 1): 7}, 0, "incomplete"),
            (range(3), {k: v for k, v in Z3.items() if k != (2, 2)}, 0, "incomplete"),
        ],
        ids=["identity not neutral", "missing inverse", "not associative", "not closed", "missing entry"],
    )
    def test_law_failures_are_domain_errors(self, elements, table, identity, message):
        with pytest.raises(DomainError, match=message):
            FinGroup.from_table(elements, table, identity)

    def test_group_laws_are_validated_once(self, monkeypatch):
        # from_table validates B G, and bg hands out that same groupoid
        calls = []
        validate = FiniteGroupoid._validate
        monkeypatch.setattr(FiniteGroupoid, "_validate", lambda g: calls.append(g) or validate(g))
        z6 = FinGroup.from_table(range(6), {(a, b): (a + b) % 6 for a in range(6) for b in range(6)}, 0)
        first, second = bg(z6), bg(z6)
        assert len(calls) == 1 and first is second is calls[0]
        assert first.mass() == Fraction(1, 6)

    def test_order_past_the_associativity_budget_is_refused(self):
        FinGroup.cyclic(12)
        with pytest.raises(DomainError, match="too large"):
            FinGroup.cyclic(171)  # 171^3 composable triples > 5,000,000


class TestGroupoids:
    def test_bg_mass(self):
        assert bg(FinGroup.cyclic(3)).mass() == Fraction(1, 3)

    def test_discrete_mass(self):
        assert discrete_groupoid(5).mass() == 5

    def test_trivial_action_groupoid_mass_one(self):
        z4 = FinGroup.cyclic(4)
        ag = action_groupoid(z4, z4.elements, lambda g, x: x)
        assert ag.mass() == 1
        assert len(ag.iso_classes()) == 4

    def test_regular_action_groupoid_is_point_like(self):
        z3 = FinGroup.cyclic(3)
        ag = action_groupoid(z3, z3.elements, lambda g, x: (g + x) % 3)
        assert ag.mass() == 1  # one class, trivial stabilisers
        assert len(ag.iso_classes()) == 1

    def test_validation_catches_bad_identity(self):
        with pytest.raises(DomainError):
            FiniteGroupoid.build(
                ("x",),
                {("x", "x"): ("a",)},
                {("x", "x", "x", "a", "a"): "a"},
                {"x": "b"},
            )

    def test_hom_to_an_unlisted_object_is_refused(self):
        with pytest.raises(DomainError, match="not listed"):
            FiniteGroupoid.build(
                ("x",),
                {("x", "x"): ("a",), ("x", "y"): ("b",)},
                {("x", "x", "x", "a", "a"): "a", ("x", "x", "y", "a", "b"): "b"},
                {"x": "a"},
            )

    def test_identity_at_an_unlisted_object_is_refused(self):
        with pytest.raises(DomainError, match="not listed"):
            FiniteGroupoid.build(
                ("x",),
                {("x", "x"): ("a",)},
                {("x", "x", "x", "a", "a"): "a"},
                {"x": "a", "ghost": "a"},
            )

    def test_json_roundtrip(self):
        g = bg(FinGroup.cyclic(4))
        data = g.to_json()
        back = FiniteGroupoid.from_json(data)
        assert back.mass() == g.mass()
        assert len(back.iso_classes()) == len(g.iso_classes())

    def test_caps(self):
        with pytest.raises(DomainError):
            discrete_groupoid(65)


GROUP_POOL = [
    FinGroup.cyclic(1), FinGroup.cyclic(2), FinGroup.cyclic(3), FinGroup.cyclic(4),
    FinGroup.direct_product(FinGroup.cyclic(2), FinGroup.cyclic(2)), FinGroup.quaternion(),
]


@st.composite
def group_backed_groupoids(draw):
    """Connected components, each with hom(x, y) = G for all its objects."""
    homs, group_of = {}, {}
    for ci, (gi, n_objs) in enumerate(
        draw(st.lists(st.tuples(st.integers(0, len(GROUP_POOL) - 1), st.integers(1, 3)), min_size=1, max_size=3))
    ):
        names = [f"c{ci}o{k}" for k in range(n_objs)]
        group_of.update({x: GROUP_POOL[gi] for x in names})
        homs.update({(x, y): GROUP_POOL[gi].elements for x in names for y in names})
    compose = _table(homs, lambda x, y, z, f, g: group_of[x].mul(g, f))
    identities = {x: grp.identity for x, grp in group_of.items()}
    return FiniteGroupoid.build(list(group_of), homs, compose, identities)


class TestJsonRecord:
    @given(group_backed_groupoids())
    def test_roundtrip_keeps_the_invariants(self, g):
        back = FiniteGroupoid.from_json(g.to_json())
        assert back.objects == g.objects
        assert sorted(map(sorted, back.iso_classes())) == sorted(map(sorted, g.iso_classes()))
        assert [back.aut_order(x) for x in back.objects] == [g.aut_order(x) for x in g.objects]
        assert back.class_aut_orders() == g.class_aut_orders()
        assert back.mass() == g.mass()

    @given(group_backed_groupoids(), st.data())
    def test_missing_compose_entry_is_refused(self, g, data):
        record = g.to_json()
        entries = [(key, fg) for key, table in record["compose"].items() for fg in table]
        key, fg = data.draw(st.sampled_from(entries))
        del record["compose"][key][fg]
        with pytest.raises(DomainError, match="incomplete"):
            FiniteGroupoid.from_json(record)


class TestRigidify:
    def test_full_group_gives_point(self):
        for grp in (FinGroup.cyclic(4), FinGroup.quaternion()):
            g = bg(grp)
            r = rigidify(g, CentralAutSubgroup({"*": frozenset(grp.elements)}))
            assert len(r.objects) == 1
            assert r.arrow_count() == 1
            assert r.mass() == 1

    def test_trivial_subgroup_identity(self):
        grp = FinGroup.cyclic(4)
        g = bg(grp)
        r = rigidify(g, CentralAutSubgroup({"*": frozenset({0})}))
        assert r.arrow_count() == g.arrow_count()
        assert r.mass() == g.mass()

    def test_bz4_by_z2(self):
        g = bg(FinGroup.cyclic(4))
        r = rigidify(g, CentralAutSubgroup({"*": frozenset({0, 2})}))
        assert r.aut_order("*") == 2
        assert r.mass() == Fraction(1, 2)
        ident = r.identities["*"]
        other = next(a for a in r.hom("*", "*") if a != ident)
        assert r.comp("*", "*", "*", other, other) == ident

    def test_mass_scaling(self):
        g = bg(FinGroup.quaternion())
        r = rigidify(
            g, CentralAutSubgroup({"*": frozenset({"1", "-1"})})
        )
        assert r.mass() == 2 * g.mass()

    def test_conjugation_stability_enforced(self):
        # a subgroup of Aut that is not conjugation stable must be refused
        s3_like = action_groupoid(
            FinGroup.cyclic(2), (0, 1), lambda g, x: (g + x) % 2
        )
        # hom(0,0) = {identity}; try a malformed "subgroup" at one object only
        with pytest.raises(DomainError):
            CentralAutSubgroup({0: frozenset({0})}).validate(s3_like)

    def test_subgroup_at_an_unlisted_object_is_refused(self):
        g = bg(FinGroup.cyclic(4))
        sub = CentralAutSubgroup({"*": frozenset({"0", "2"}), "ghost": frozenset({"0"})})
        with pytest.raises(DomainError, match="not listed"):
            sub.validate(g)


class TestFiberProducts:
    def test_over_point_is_product(self):
        a = bg(FinGroup.cyclic(2))
        b = discrete_groupoid(3)
        prod = product_groupoid(a, b)
        assert prod.mass() == a.mass() * b.mass()
        assert len(prod.iso_classes()) == 3

    @pytest.mark.parametrize(
        "grp,sub_gens",
        [(FinGroup.cyclic(4), [2]), (FinGroup.quaternion(), ["-1"])],
    )
    def test_central_2cartesian(self, grp, sub_gens):
        sub = grp.subgroup_closure(sub_gens)
        fun = quotient_functor(grp, sub)
        lhs = groupoid_fiber_product(fun, fun)
        sub_grp = FinGroup.from_table(
            sub, {(a, b): grp.mul(a, b) for a in sub for b in sub}, grp.identity
        )
        rhs = product_groupoid(bg(grp), bg(sub_grp))
        assert len(lhs.iso_classes()) == len(rhs.iso_classes())
        assert lhs.class_aut_orders() == rhs.class_aut_orders()
        assert lhs.mass() == rhs.mass()

    def test_functor_validation(self):
        g = bg(FinGroup.cyclic(2))
        # sends the identity arrow to the non-identity: not a functor
        bad = GroupoidFunctor(g, g, {"*": "*"}, {("*", "*", 0): 1, ("*", "*", 1): 0})
        with pytest.raises(DomainError):
            bad.validate()


class TestColimitSystems:
    def test_constant_system(self):
        x = SetSystem((("a", "b"), ("a", "b")), ({"a": "a", "b": "b"},))
        y = SetSystem(((0,), (0,)), ({0: 0},))
        m = SystemMap(x, y, ({"a": 0, "b": 0}, {"a": 0, "b": 0}))
        assert colim_fiber_product_check(m, m)

    def test_frobenius_style_injections(self):
        # levels are F_2-vector spaces of growing dimension, injective maps
        lv0 = tuple(range(2))
        lv1 = tuple(range(4))
        lv2 = tuple(range(8))
        x = SetSystem((lv0, lv1, lv2), ({0: 0, 1: 2}, {i: i for i in lv1}))
        y = SetSystem(((0,), (0,), (0,)), ({0: 0}, {0: 0}))
        a = SystemMap(x, y, ({v: 0 for v in lv0}, {v: 0 for v in lv1}, {v: 0 for v in lv2}))
        assert colim_fiber_product_check(a, a)

    def test_fiber_product_system_shape(self):
        x = SetSystem((("a",), ("a",)), ({"a": "a"},))
        y = SetSystem(((0, 1), (0, 1)), ({0: 0, 1: 1},))
        ma = SystemMap(x, y, ({"a": 0}, {"a": 0}))
        fp = fiber_product_system(ma, ma)
        assert fp.levels[0] == (("a", "a"),)

    def test_noncommuting_map_rejected(self):
        x = SetSystem((("a", "b"), ("c",)), ({"a": "c", "b": "c"},))
        y = SetSystem(((0, 1), (0, 1)), ({0: 0, 1: 1},))
        with pytest.raises(DomainError):
            SystemMap(x, y, ({"a": 0, "b": 1}, {"c": 0}))

    def test_random_harness(self):
        from ftk.acceptance import _random_system_pair

        rng = random.Random(55)
        for _ in range(25):
            a, b = _random_system_pair(rng)
            assert colim_fiber_product_check(a, b)
