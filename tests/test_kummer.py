import math
import random

import pytest
from hypothesis import given, strategies as st

import schoolbook
from ftk import fields
from ftk.errors import DomainError, NotInvertible, PrecisionExhausted
from ftk.fields import field, test_ring as local_test_ring
from ftk.kummer import (
    enumerate_kummer_classes,
    kummer_canonicalize,
    kummer_class_count,
    kummer_iso_witness,
)
from ftk.oracles import kummer_bruteforce_class_count, kummer_window_witness_exists
from ftk.series import LaurentSeries as L


F5, F7, F4 = field(5), field(7), field(2, 2)


def rand_unit(rng, spec, prec, val_range=(-3, 4)):
    """A random invertible series: t-power times constant times 1-unit."""
    k = rng.randrange(*val_range)
    lead = spec.from_index(rng.randrange(1, spec.q))
    tail = {}
    for e in range(1, 5):
        if rng.random() < 0.5:
            tail[e] = spec.from_index(rng.randrange(1, spec.q))
    u = L.from_dict(spec, {0: lead, **tail}, prec)
    return u.shift(k)


class TestCanonicalize:
    def test_spec_example(self):
        cls = kummer_canonicalize(L.monomial(F5.from_int(2), 7, 40), 4)
        assert (cls.q_exp, cls.unit_class) == (3, 1)

    def test_trivial(self):
        cls = kummer_canonicalize(L.constant(F5.one(), 12), 4)
        assert (cls.q_exp, cls.unit_class) == (0, 0)

    def test_exact_power(self):
        cls = kummer_canonicalize(L.monomial(F5.one(), 4, 20), 4)
        assert (cls.q_exp, cls.unit_class) == (0, 0)

    def test_wild_order_rejected(self):
        with pytest.raises(DomainError):
            kummer_canonicalize(L.constant(F5.one(), 8), 5)

    def test_non_invertible_rejected(self):
        with pytest.raises(NotInvertible):
            kummer_canonicalize(L.zero(F5, 8), 4)

    def test_class_invariance_under_units(self):
        rng = random.Random(61)
        for _ in range(80):
            spec, n = [(F5, 4), (F7, 3), (F4, 3), (F7, 2)][rng.randrange(4)]
            b = rand_unit(rng, spec, 40)
            u = rand_unit(rng, spec, 40, val_range=(-2, 3))
            assert kummer_canonicalize((u**n) * b, n) == kummer_canonicalize(b, n)

    def test_testring_class(self):
        from ftk.fields import test_ring as local_test_ring

        R = local_test_ring(5, 1, 2)
        # nilpotent tail + unit part: class reads the unit part only; the
        # wide window lets the root certification run over the test ring
        b = L.monomial(R.x(), -2, 60) + L.monomial(R.from_int(2), 7, 60)
        cls = kummer_canonicalize(b, 4)
        assert (cls.q_exp, cls.unit_class) == (3, 1)

    def test_field_class_takes_no_root(self, monkeypatch):
        # over a field the 1-unit factor always has an n-th root, so the
        # class is read without extracting it
        def refuse(self, n):
            raise AssertionError("nth_root_unit called")

        monkeypatch.setattr(L, "nth_root_unit", refuse)
        b = L.from_dict(F5, {7: F5.from_int(2), 8: F5.one(), 9: F5.from_int(3)}, 40)
        cls = kummer_canonicalize(b, 4)
        assert (cls.q_exp, cls.unit_class) == (3, 1)

    def test_testring_root_exhaustion_raises(self):
        from ftk.fields import test_ring as local_test_ring

        R = local_test_ring(5, 1, 2)
        # 1 + x t^-1 mod t^1: the window is too short to root the 1-unit
        b = L.from_dict(R, {-1: R.x(), 0: R.one()}, 1)
        with pytest.raises(PrecisionExhausted):
            kummer_canonicalize(b, 4)


class TestWitness:
    def test_self_iso(self):
        b = L.monomial(F5.from_int(3), 2, 30)
        u = kummer_iso_witness(b, b, 4)
        assert ((u**4) * b - b).is_zero()

    def test_power_shift(self):
        u = kummer_iso_witness(L.monomial(F5.one(), 4, 30), L.constant(F5.one(), 30), 4)
        assert u.support() == {-1: F5.one()}

    def test_none_when_classes_differ(self):
        assert (
            kummer_iso_witness(
                L.monomial(F5.from_int(2), 3, 20), L.monomial(F5.one(), 3, 20), 4
            )
            is None
        )

    def test_window_search_confirms_non_isomorphism(self):
        # brute-force window search finds no u with u^4 * 2t^3 = t^3
        b = L.monomial(F5.from_int(2), 3, 40)
        b2 = L.monomial(F5.one(), 3, 40)
        assert not kummer_window_witness_exists(b, b2, 4, -2, 2)

    def test_window_search_agrees_positively(self):
        b = L.monomial(F5.one(), 4, 40)
        b2 = L.constant(F5.one(), 40)
        assert kummer_window_witness_exists(b, b2, 4, -2, 2)

    def test_ord_rigidity_and_soundness(self):
        rng = random.Random(67)
        witnessed = 0
        for _ in range(120):
            spec, n = [(F5, 4), (F7, 3), (F4, 3)][rng.randrange(3)]
            b = rand_unit(rng, spec, 44)
            if rng.random() < 0.5:
                b2 = (rand_unit(rng, spec, 44, val_range=(-2, 3)) ** n) * b
            else:
                b2 = rand_unit(rng, spec, 44)
            u = kummer_iso_witness(b, b2, n)
            if u is None:
                continue
            witnessed += 1
            assert (b.unit_ord() - b2.unit_ord()) % n == 0
            assert ((u**n) * b - b2).is_zero()
        assert witnessed > 20

    def test_fail_fast_on_order_mismatch(self):
        b = L.monomial(F5.one(), 0, 20)
        b2 = L.monomial(F5.one(), 1, 20)
        assert kummer_iso_witness(b, b2, 4) is None

    def test_testring_witness(self):
        from ftk.fields import test_ring as local_test_ring

        R = local_test_ring(5, 1, 2)
        # the constant root is found in F_5 and lifted into the test ring
        b = L.from_dict(R, {-1: R.from_int(2), 0: R.x(), 2: R.one()}, 30)
        b2 = L.from_dict(R, {1: R.from_int(3), 2: R.x()}, 30) ** 4 * b
        u = kummer_iso_witness(b, b2, 4)
        assert u.ring == R
        assert ((u**4) * b - b2).is_zero()


def test_iso_witness_product_count(monkeypatch):
    # F_256, n = 5: b = lam t^-2 (1 + a 4-term tail) and b' = lam c^5 t^3 (...),
    # the parser's windows.  Nested Newton (an inner inverse per root step)
    # made 63 truncated products here; the inverse-root Newton makes 46,
    # and rooting the one unit ratio 44.  Newton and the certificate
    # multiply packed windows, and every series product is one packed
    # product too, so the kernel's multiply counts them all
    F256 = field(2, 8)
    lam, c = F256.from_index(0x35), F256.from_index(0x9B)
    b = L.from_dict(F256, {-2 + k: lam * F256.from_index(x) for k, x in enumerate((1, 7, 200, 41, 3))}, 36)
    lam2 = lam * c**5
    b2 = L.from_dict(F256, {3 + k: lam2 * F256.from_index(x) for k, x in enumerate((1, 99, 0, 18, 250))}, 32)
    calls = [0]
    real = fields._Kernel.mul

    def counted(self, x, y, n):
        calls[0] += 1
        return real(self, x, y, n)

    monkeypatch.setattr(fields._Kernel, "mul", counted)
    u = kummer_iso_witness(b, b2, 5)
    assert 0 < calls[0] <= 48
    assert ((u**5) * b - b2).is_zero()


def test_iso_witness_roots_leads_that_differ_by_a_nilpotent_unit():
    # b2 = (1+x)^4 b: dividing each side by its whole lead and rooting the
    # residues returned u = 1, and u^4 b - b2 = x + x t
    R = local_test_ring(5, 1, 2)
    b = L.from_dict(R, {0: R.one() + R.x(), 1: R.one()}, 20)
    b2 = L.constant((R.one() + R.x()) ** 4, 20) * b
    u = kummer_iso_witness(b, b2, 4)
    assert ((u**4) * b - b2).is_zero()
    assert str(u) == "(1+x)"


KUMMER_FIELDS = [field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 8))]
KUMMER_TEST_RINGS = [local_test_ring(p, e, m) for p, e, m in ((5, 1, 2), (3, 1, 3), (2, 2, 2), (7, 1, 2), (2, 1, 4))]


def _index_count(ring):
    return ring.base.q**ring.m if ring in KUMMER_TEST_RINGS else ring.q


@st.composite
def units(draw, ring, low=-3):
    """t^val times a unit-led window of 4 to 13 coefficients, val >= low;
    over a test ring the leading coefficient has a drawn nilpotent part.
    With low >= 0 every product with a unit of this kind keeps a window
    that reaches t^0."""
    q, size = ring.base.q, _index_count(ring)
    val = draw(st.integers(low, 3))
    lead = ring.from_index(draw(st.integers(1, q - 1)))
    if size > q:
        lead = lead + ring.from_index(q * draw(st.integers(0, size // q - 1)))
    tail = [ring.from_index(draw(st.integers(0, size - 1))) for _ in range(draw(st.integers(3, 12)))]
    return L.make(ring, val, val + 1 + len(tail), [lead] + tail)


def _tame_order(draw, ring):
    return draw(st.sampled_from([n for n in range(1, 9) if n % ring.p]))


@given(st.sampled_from(KUMMER_TEST_RINGS).flatmap(lambda R: st.tuples(st.just(R), units(R), units(R, 0))), st.data())
def test_iso_witness_over_test_rings_is_a_witness(rbv, data):
    ring, b, v = rbv
    n = _tame_order(data.draw, ring)
    b2 = v**n * b
    u = kummer_iso_witness(b, b2, n)
    assert u is not None
    assert ((u**n) * b - b2).is_zero()


@given(st.sampled_from(KUMMER_FIELDS).flatmap(lambda F: st.tuples(units(F), units(F, 0), units(F))), st.data())
def test_iso_witness_over_fields_matches_the_two_root_reference(bvw, data):
    b, v, w = bvw
    n = _tame_order(data.draw, b.ring)
    for b2 in (v**n * b, w):
        got = kummer_iso_witness(b, b2, n)
        want = schoolbook.kummer_iso_witness(b, b2, n)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.val, got.prec, got.coeffs) == (want.val, want.prec, want.coeffs)


class TestAutomorphisms:
    def test_examples(self):
        assert sorted(x.index for x in schoolbook.nth_roots_of_unity(F5, 4)) == [1, 2, 3, 4]
        assert sorted(x.index for x in schoolbook.nth_roots_of_unity(F7, 2)) == [1, 6]
        assert [x.index for x in schoolbook.nth_roots_of_unity(F4, 1)] == [1]

    @pytest.mark.parametrize("spec,n", [(F5, 4), (F7, 3), (F4, 3), (F5, 2)])
    def test_cardinality(self, spec, n):
        assert len(schoolbook.nth_roots_of_unity(spec, n)) == math.gcd(n, spec.q - 1)

    def test_torsion_units_are_constant(self):
        # every root of unity, viewed as a series, passes the constancy check
        for spec, n in [(F5, 4), (F7, 3), (F4, 3)]:
            for xi in schoolbook.nth_roots_of_unity(spec, n):
                s = L.constant(xi, 10)
                assert s.torsion_unit_is_constant(n)


class TestEnumeration:
    @pytest.mark.parametrize(
        "spec,n,expected",
        [(F5, 4, 16), (F7, 3, 9), (F4, 3, 9), (F5, 1, 1), (F5, 3, 3), (F7, 6, 36), (field(2, 4), 15, 225)],
    )
    def test_counts(self, spec, n, expected):
        classes = enumerate_kummer_classes(spec, n)
        assert len(classes) == expected == kummer_class_count(spec, n)
        assert len(set((c.q_exp, c.unit_class) for c in classes)) == expected

    @pytest.mark.parametrize("spec,n", [(F5, 4), (F7, 3), (F4, 3)])
    def test_counts_match_bruteforce(self, spec, n):
        assert len(enumerate_kummer_classes(spec, n)) == kummer_bruteforce_class_count(
            spec, n
        )

    def test_wild_rejected(self):
        with pytest.raises(DomainError):
            enumerate_kummer_classes(F5, 10)

    def test_every_monomial_lands_in_enumeration(self):
        classes = {(c.q_exp, c.unit_class) for c in enumerate_kummer_classes(F5, 4)}
        for i in range(8):
            for v in range(1, 5):
                cls = kummer_canonicalize(L.monomial(F5.from_index(v), i, 30), 4)
                assert (cls.q_exp, cls.unit_class) in classes
