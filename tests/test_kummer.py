import math
import random

import pytest

from ftk.errors import DomainError, NotInvertible, PrecisionExhausted
from ftk.fields import field
from ftk.kummer import (
    enumerate_kummer_classes,
    kummer_automorphisms,
    kummer_canonicalize,
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


class TestAutomorphisms:
    def test_examples(self):
        assert sorted(x.index for x in kummer_automorphisms(F5, 4)) == [1, 2, 3, 4]
        assert sorted(x.index for x in kummer_automorphisms(F7, 2)) == [1, 6]
        assert [x.index for x in kummer_automorphisms(F4, 1)] == [1]

    @pytest.mark.parametrize("spec,n", [(F5, 4), (F7, 3), (F4, 3), (F5, 2)])
    def test_cardinality(self, spec, n):
        assert len(kummer_automorphisms(spec, n)) == math.gcd(n, spec.q - 1)

    def test_torsion_units_are_constant(self):
        # every root of unity, viewed as a series, passes the constancy check
        for spec, n in [(F5, 4), (F7, 3), (F4, 3)]:
            for xi in kummer_automorphisms(spec, n):
                s = L.constant(xi, 10)
                assert s.torsion_unit_is_constant(n)


class TestEnumeration:
    @pytest.mark.parametrize(
        "spec,n,expected", [(F5, 4, 16), (F7, 3, 9), (F4, 3, 9), (F5, 1, 1)]
    )
    def test_counts(self, spec, n, expected):
        classes = enumerate_kummer_classes(spec, n)
        assert len(classes) == expected
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
