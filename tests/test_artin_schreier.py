import itertools
import json
import random
import time

import pytest
from hypothesis import given, strategies as st

import ftk.artin_schreier
from ftk.artin_schreier import (
    ASCanonical,
    _canonicalize_with_witness,
    as_canonicalize,
    as_iso_witness,
    as_moduli_point,
    elemab_canonicalize,
    elemab_enumerate,
    elemab_iso_witness,
    as_class_count,
    enumerate_as_classes,
    prime_to_p_support,
)
from ftk.errors import DomainError, PrecisionExhausted
from ftk.fields import field
from ftk.oracles import as_bruteforce_class_count, as_window_witness_exists
from ftk.series import LaurentSeries as L


F2, F3 = field(2), field(3)


def rand_series(rng, spec, lo, hi, prec, density=0.6):
    d = {}
    for e in range(lo, hi):
        if rng.random() < density:
            d[e] = spec.from_index(rng.randrange(1, spec.q))
    return L.from_dict(spec, d, prec)


class TestCanonicalize:
    def test_f2_example(self):
        b = L.from_dict(F2, {-4: F2.one(), -3: F2.one()}, 12)
        c = as_canonicalize(b)
        assert c.support_dict() == {3: F2.one(), 1: F2.one()}
        assert c.constant_class.is_zero()

    def test_witness_realises_moves(self):
        b = L.from_dict(F2, {-4: F2.one(), -3: F2.one()}, 12)
        c, u = _canonicalize_with_witness(b)
        assert u.support() == {-2: F2.one(), -1: F2.one()}
        assert (u.wp() + b - c.to_series(b.prec)).is_zero()

    def test_coboundary_collapses(self):
        rng = random.Random(5)
        for _ in range(40):
            u = rand_series(rng, F2, -6, 7, 24)
            c = as_canonicalize(u.wp())
            assert c.support == () and c.constant_class.is_zero()

    def test_f3_pth_root_chain(self):
        b = L.from_dict(F3, {-9: F3.from_int(2)}, 14)
        c = as_canonicalize(b)
        assert c.support_dict() == {1: F3.from_int(2)}

    def test_canonical_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            b = rand_series(rng, F3, -6, 4, 30)
            c = as_canonicalize(b)
            assert as_canonicalize(c.to_series(30)) == c

    def test_witness_identity_random(self):
        rng = random.Random(11)
        for _ in range(60):
            spec = [F2, F3, field(2, 2)][rng.randrange(3)]
            b = rand_series(rng, spec, -6, 5, 28)
            c, u = _canonicalize_with_witness(b)
            assert (u.wp() + b - c.to_series(b.prec)).is_zero()

    def test_requires_field_ring(self):
        from ftk.fields import test_ring as local_test_ring

        R = local_test_ring(2, 1, 2)
        with pytest.raises(DomainError):
            as_canonicalize(L.constant(R.one(), 5))


class TestIsoWitness:
    def test_example_pair(self):
        c = L.from_dict(F2, {-4: F2.one(), -3: F2.one()}, 12)
        d = L.from_dict(F2, {-3: F2.one(), -1: F2.one()}, 12)
        w = as_iso_witness(c, d)
        assert w.u.support() == {-2: F2.one(), -1: F2.one()}
        assert (w.u.wp() + c - d).is_zero()

    def test_self_witnesses_are_prime_field(self):
        # the full solution set of u^p - u = 0 is the witness plus F_p
        c = L.from_dict(F2, {-3: F2.one()}, 10)
        w = as_iso_witness(c, c)
        all_w = [w.u + L.constant(F2.from_int(k), w.u.prec) for k in range(F2.p)]
        assert len(all_w) == 2
        for u in all_w:
            assert (u.wp()).is_zero()

    def test_non_isomorphic(self):
        assert as_iso_witness(L.from_dict(F2, {-1: F2.one()}, 10), L.zero(F2, 10)) is None

    def test_completeness_against_window_search(self):
        # exhaustive window search finds a witness iff as_iso_witness does
        prec = 16
        window = []
        for values in itertools.product(range(2), repeat=4):
            d = {e: F2.from_index(v) for e, v in zip(range(-3, 1), values) if v}
            window.append(L.from_dict(F2, d, prec))
        for c in window:
            for d in window:
                structured = as_iso_witness(c, d) is not None
                brute = as_window_witness_exists(c, d, -3, 0)
                assert structured == brute, (str(c), str(d))

    def test_witnesses_verify(self):
        rng = random.Random(13)
        for _ in range(50):
            spec = [F2, F3][rng.randrange(2)]
            b = rand_series(rng, spec, -5, 3, 24)
            u = rand_series(rng, spec, -3, 3, 24)
            d = b + u.wp()
            w = as_iso_witness(b, d)
            assert w is not None
            assert (w.u.wp() + b - d).is_zero()


class TestBreakAndModuli:
    def test_break_examples(self):
        c = as_canonicalize(L.from_dict(F2, {-3: F2.one(), -1: F2.one()}, 10))
        assert c.break_ == 3
        empty = as_canonicalize(L.zero(F2, 10))
        assert empty.break_ is None

    def test_moduli_point_example(self):
        c = as_canonicalize(L.from_dict(F2, {-3: F2.one(), -1: F2.one()}, 10))
        pt = as_moduli_point(c)
        assert pt.level == 3
        assert [v.index for v in pt.value] == [1, 1]

    def test_moduli_point_unramified(self):
        pt = as_moduli_point(as_canonicalize(L.zero(F2, 8)))
        assert pt.level == 1
        assert all(v.is_zero() for v in pt.value)

    def test_s_excludes_multiples_of_p(self):
        assert prime_to_p_support(3, 5) == [1, 2, 4, 5]
        c = ASCanonical(F3, ((5, F3.from_int(2)),), F3.zero())
        pt = as_moduli_point(c)
        assert pt.level == 5
        assert [v.index for v in pt.value] == [0, 0, 0, 2]

    def test_injective_on_fixed_constant(self):
        pts = {}
        for c in enumerate_as_classes(F2, 3):
            if not c.constant_class.is_zero():
                continue
            pt = as_moduli_point(c)
            key = (pt.level, tuple(v.index for v in pt.value))
            assert key not in pts
            pts[key] = c

    @pytest.mark.parametrize("spec", [F2, F3, field(2, 2)], ids=["F2", "F3", "F4"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_moduli_points_of_the_level_m_classes(self, spec, m):
        # the classes with constant class 0 map one to one onto level m's
        # chart; each point is already level-minimal, and comes back from
        # every transition
        keys = []
        for c in enumerate_as_classes(spec, m):
            if not c.constant_class.is_zero():
                continue
            pt = as_moduli_point(c)
            keys.append(pt.transition(m).value)
            assert pt.canonical().level == max(c.break_ or 0, 1)
            for M in range(pt.level, 7):
                back = pt.transition(M).canonical()
                assert (back.level, back.value) == (pt.level, pt.value)
        assert len(set(keys)) == len(keys) == spec.q ** len(prime_to_p_support(spec.p, m))

    def test_frobenius_stability_of_points(self):
        rng = random.Random(17)
        for _ in range(30):
            b = rand_series(rng, F2, -5, 2, 24)
            p1 = as_moduli_point(as_canonicalize(b)).canonical()
            p2 = as_moduli_point(as_canonicalize(b.series_pth_power())).canonical()
            assert p1.eq(p2)


class TestEnumeration:
    @pytest.mark.parametrize(
        "p,e,m,expected",
        [(2, 1, 1, 4), (2, 1, 3, 8), (3, 1, 2, 27), (2, 1, 0, 2), (2, 2, 1, 8), (5, 1, 3, 625), (3, 2, 1, 27)],
    )
    def test_count_law(self, p, e, m, expected):
        spec = field(p, e)
        classes = enumerate_as_classes(spec, m)
        assert len(classes) == expected == as_class_count(spec, m)
        assert len(set(classes)) == expected
        assert len(classes) == p * spec.q ** len(prime_to_p_support(p, m))

    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (2, 1, 3), (3, 1, 2)])
    def test_counts_match_bruteforce(self, p, e, m):
        spec = field(p, e)
        assert len(enumerate_as_classes(spec, m)) == as_bruteforce_class_count(spec, m)

    def test_closed_form_count_refuses_at_once(self):
        assert as_class_count(F2, 8192) == 2**4097
        for m in (8193, 10**18, -1):
            with pytest.raises(DomainError):
                as_class_count(F2, m)

    def test_census_past_its_bound_is_refused_at_once(self):
        # 2 * 2^40 classes: the product walk was still running after 10 s
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^census scale exceeded: more than 65536 classes to walk$"):
            enumerate_as_classes(F2, 80)
        assert time.perf_counter() - start < 1

    def test_deterministic_order(self):
        # the order of the count-as CSV: by (break, class JSON text)
        a = enumerate_as_classes(F3, 2)
        b = enumerate_as_classes(F3, 2)
        assert a == b
        assert a == sorted(a, key=lambda c: (c.break_ or 0, json.dumps(c.to_json(), sort_keys=True)))


class TestElemAb:
    def test_rank_one_reduces_to_scalar(self):
        rng = random.Random(19)
        b = rand_series(rng, F3, -4, 3, 20)
        assert elemab_canonicalize((b,)) == (as_canonicalize(b),)

    def test_componentwise_witness(self):
        rng = random.Random(23)
        b1 = rand_series(rng, F2, -4, 2, 20)
        b2 = rand_series(rng, F2, -3, 2, 20)
        u1 = rand_series(rng, F2, -2, 2, 20)
        u2 = rand_series(rng, F2, -2, 2, 20)
        target = (b1 + u1.wp(), b2 + u2.wp())
        ws = elemab_iso_witness((b1, b2), target)
        assert ws is not None
        for u, b, d in zip(ws, (b1, b2), target):
            assert (u.wp() + b - d).is_zero()

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            elemab_iso_witness((L.zero(F2, 5),), (L.zero(F2, 5), L.zero(F2, 5)))

    def test_count_rank2(self):
        assert len(elemab_enumerate(F2, 2, 1)) == 16

    def test_zero_vector_canonical(self):
        out = elemab_canonicalize((L.zero(F2, 6), L.zero(F2, 6)))
        assert all(c.support == () and c.constant_class.is_zero() for c in out)

    def test_rank2_bruteforce_window(self):
        # orbit count of pairs over window [-1, 0] equals 16 = (p q^{|S_1|})^2
        prec = 12
        singles = []
        for values in itertools.product(range(2), repeat=2):
            d = {e: F2.from_index(v) for e, v in zip((-1, 0), values) if v}
            singles.append(L.from_dict(F2, d, prec))
        pairs = list(itertools.product(singles, repeat=2))
        classes = set()
        for pair in pairs:
            classes.add(elemab_canonicalize(pair))
        assert len(classes) == 16
        # brute-force confirmation: orbits under componentwise coboundaries
        reps = set()
        for pair in pairs:
            orbit = set()
            for u1 in singles:
                for u2 in singles:
                    img = (pair[0] + u1.wp(), pair[1] + u2.wp())
                    orbit.add(
                        tuple(
                            tuple(sorted((e, c.index) for e, c in x.support().items()))
                            for x in img
                        )
                    )
            reps.add(min(orbit))
        assert len(reps) == 16


# -- one canonicalisation per witness ---------------------------------------------


@pytest.mark.parametrize("prec_c, prec_d", [(0, 5), (5, 0), (0, 0), (-2, 3)])
def test_iso_witness_refuses_a_window_below_t0(prec_c, prec_d):
    # both windows are checked before c - d is formed: the difference of
    # equal series is zero to the smaller precision, which make refuses
    # with a message of its own when that precision is <= 0
    c = L.monomial(F3.one(), -3, prec_c)
    d = L.monomial(F3.one(), -3, prec_d)
    with pytest.raises(PrecisionExhausted, match="^cannot certify the positive-part discard$"):
        as_iso_witness(c, d)


def _counting(monkeypatch, owner, name):
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_canonical_form_builds_no_witness(monkeypatch):
    # poles with p-power chains, a constant and a positive part over F_9
    F9 = field(3, 2)
    g = F9.gen()
    b = L.from_dict(F9, {-18: g, -9: F9.one(), -4: g * g, 0: g, 2: F9.one(), 3: g, 9: g}, 20)
    expected = _canonicalize_with_witness(b)[0]
    solves = _counting(monkeypatch, L, "solve_positive")
    witnesses = _counting(monkeypatch, ftk.artin_schreier, "_canonicalize_with_witness")
    assert as_canonicalize(b) == expected
    assert (solves[0], witnesses[0]) == (0, 0)


def test_iso_witness_canonicalises_once(monkeypatch):
    F9 = field(3, 2)
    g = F9.gen()
    b = L.from_dict(F9, {-18: g, -9: F9.one(), -4: g * g, 0: g, 2: F9.one()}, 20)
    u = L.from_dict(F9, {-2: g, 0: F9.one(), 1: g * g}, 20)
    witnesses = _counting(monkeypatch, ftk.artin_schreier, "_canonicalize_with_witness")
    w = as_iso_witness(b, b + u.wp())
    assert witnesses[0] == 1
    assert (w.u.wp() + b - (b + u.wp())).is_zero()
    assert as_iso_witness(b, b + L.monomial(g, -1, 20)) is None
    assert witnesses[0] == 2


# -- the laws of the canonical form, as properties ---------------------------------

LAW_FIELDS = [field(p, e) for p, e in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4), (2, 8))]


@st.composite
def covers(draw, spec=None, min_prec=1):
    """A series over a field: poles at p-power multiples of prime-to-p slots
    (so the chains run), a constant and a zero-heavy positive tail."""
    spec = spec or draw(st.sampled_from(LAW_FIELDS))
    p = spec.p
    elem = st.integers(0, spec.q - 1).map(spec.from_index)
    prec = draw(st.integers(min_prec, 24))
    d = {}
    for _ in range(draw(st.integers(0, 4))):
        pole = draw(st.integers(1, 6)) * p ** draw(st.integers(0, 2))
        d[-pole] = draw(elem)
    for s in range(0, prec):
        if draw(st.integers(0, 3)) == 0:
            d[s] = draw(elem)
    return L.from_dict(spec, d, prec)


@st.composite
def cover_pairs(draw):
    spec = draw(st.sampled_from(LAW_FIELDS))
    return draw(covers(spec)), draw(covers(spec))


@given(cover_pairs())
def test_canonical_form_ignores_coboundaries(bu):
    b, u = bu
    assert as_canonicalize(b + u.wp()) == as_canonicalize(b)


@given(covers())
def test_canonical_form_ignores_the_series_pth_power(b):
    assert as_canonicalize(b.series_pth_power()) == as_canonicalize(b)


@st.composite
def iso_candidates(draw):
    """(c, d): d is c plus a coboundary, or a second cover."""
    c, other = draw(cover_pairs())
    return c, c + other.wp() if draw(st.booleans()) else other


@given(iso_candidates())
def test_canonical_form_of_a_difference(cd):
    # the law as_iso_witness rests on: the support of c - d is the slotwise
    # difference, and the constant classes subtract by trace, which the
    # transversal reads
    c, d = cd
    spec = c.ring
    fc, fd, diff = as_canonicalize(c), as_canonicalize(d), as_canonicalize(c - d)
    sc, sd = fc.support_dict(), fd.support_dict()
    slots = {s: sc.get(s, spec.zero()) - sd.get(s, spec.zero()) for s in set(sc) | set(sd)}
    assert diff.support_dict() == {s: v for s, v in slots.items() if not v.is_zero()}
    assert diff.constant_class == spec.wp_transversal_rep(fc.constant_class - fd.constant_class)
    w = as_iso_witness(c, d)
    assert (w is not None) == (fc == fd)
    if w is not None:
        # the composite of the two canonicalisations, constant included
        assert w.u == _canonicalize_with_witness(c)[1] - _canonicalize_with_witness(d)[1]
        assert (w.u.wp() + c - d).is_zero()


# -- the form and the witness on digit rows -----------------------------------------

GUARD_FIELDS = [field(2), field(3, 2), field(2, 8), field(5, 2)]


@pytest.mark.parametrize("spec", GUARD_FIELDS, ids=repr)
def test_the_form_and_the_witness_do_no_element_arithmetic(element_calls, spec):
    # poles with p-power chains, a constant and a positive part; d is c
    # moved by a coboundary, e a cover of another class.  Even the
    # constant's coset shift subtracts on digit rows, so nothing is counted
    rng = random.Random(spec.q)
    p = spec.p
    elem = lambda: spec.from_index(rng.randrange(1, spec.q))  # noqa: E731
    c = L.from_dict(spec, {-p * p: elem(), -3 * p: elem(), -4: elem(), 0: elem(), 1: elem(), p: elem()}, 30)
    u = L.from_dict(spec, {-5: elem(), -1: elem(), 0: elem(), 2: elem()}, 30)
    d, e = c + u.wp(), c + L.monomial(elem(), -1, 30)
    as_iso_witness(c, d)  # warm-up: the field tables
    element_calls.clear()
    w = as_iso_witness(c, d)
    assert as_iso_witness(c, e) is None
    form = as_canonicalize(c)
    assert sum(element_calls.values()) == 0, element_calls
    assert form == as_canonicalize(d) != as_canonicalize(e)
    assert (w.u.wp() + c - d).is_zero()
