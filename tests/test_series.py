import math
import random
import tracemalloc

import pytest

import schoolbook
from ftk.errors import DomainError, NotInvertible, PrecisionExhausted
from ftk.fields import MAX_TABLE_Q, field, test_ring as local_test_ring
from ftk.parse import parse_series
from ftk.semidirect import SemidirectGroup, TameFrame, ZPhiObject, phi_apply, vn_check
from ftk.series import LaurentSeries as L, positive_rows


F2, F3, F5 = field(2), field(3), field(5)
F256, R42 = field(2, 8), local_test_ring(2, 2, 2)


def rand_series(rng, spec, lo, hi, prec, density=0.6):
    d = {}
    for e in range(lo, hi):
        if rng.random() < density:
            v = rng.randrange(1, spec.q)
            d[e] = spec.from_index(v)
    return L.from_dict(spec, d, prec)


def naive_ord(a):
    """Least exponent with a nonzero coefficient; +inf for zero."""
    return math.inf if a.is_zero() else a.val


def coeff_frobenius(a):
    """The coefficient Frobenius x -> x^p, exponents unchanged."""
    return L.make(a.ring, a.eff_val, a.prec, [c.frobenius() for c in a.coeffs])


class TestArithmetic:
    def test_char2_cancellation(self):
        a = L.monomial(F2.one(), -1, 10)
        assert (a + a).is_zero()

    def test_difference_of_squares(self):
        one = L.constant(F3.one(), 5)
        t = L.monomial(F3.one(), 1, 5)
        prod = (one + t) * (one - t)
        assert prod == L.from_dict(F3, {0: F3.one(), 2: F3.from_int(2)}, 5)

    def test_monomial_product(self):
        a = L.monomial(F5.one(), -2, 8) * L.monomial(F5.one(), 3, 8)
        assert a.support() == {1: F5.one()}

    def test_shifted_zero_is_the_zero_series(self):
        # a zero series has val 0 whatever its window; shifting moves only
        # the window, also past t^0
        moved = L.zero(F2, 5).shift(2)
        assert moved == L.zero(F2, 7) and hash(moved) == hash(L.zero(F2, 7))
        assert L.monomial(F2.one(), 1, 5).shift(2) == L.monomial(F2.one(), 3, 7)
        below = L.zero(F2, 5).shift(-7)
        assert (below.val, below.prec, below.is_zero()) == (0, -2, True)

    def test_add_precision_is_min(self):
        a = L.monomial(F2.one(), 0, 10)
        b = L.monomial(F2.one(), 1, 7)
        assert (a + b).prec == 7

    def test_mul_precision_rule(self):
        a = L.monomial(F5.one(), 2, 9)   # val 2, prec 9
        b = L.monomial(F5.one(), -1, 4)  # val -1, prec 4
        assert (a * b).prec == min(2 + 4, -1 + 9)

    def test_ring_mismatch(self):
        with pytest.raises(DomainError):
            L.constant(F2.one(), 4) + L.constant(F3.one(), 4)

    def test_zero_window_raises(self):
        a = L.monomial(F2.one(), -5, -2)
        with pytest.raises(PrecisionExhausted):
            _ = a - a  # zero to precision -2: empty window


class TestInvert:
    def test_geometric_series(self):
        one = L.constant(F2.one(), 4)
        t = L.monomial(F2.one(), 1, 4)
        inv = (one + t).invert()
        assert inv == L.from_dict(F2, {i: F2.one() for i in range(4)}, 4)

    def test_monomial(self):
        assert L.monomial(F5.one(), 2, 9).invert().support() == {-2: F5.one()}

    def test_testring_nilpotent_head(self):
        R = local_test_ring(2, 1, 2)
        a = L.monomial(R.x(), -1, 5) + L.constant(R.one(), 5)
        inv = a.invert()
        assert (a * inv - L.constant(R.one(), inv.prec)).is_zero()

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(100):
            a = rand_series(rng, F5, -3, 5, 20)
            if a.is_zero():
                continue
            prod = a * a.invert()
            assert (prod - L.constant(F5.one(), prod.prec)).is_zero()

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertible):
            L.zero(F2, 5).invert()


class TestOrders:
    def test_naive_ord(self):
        # the naive order, the least exponent with a nonzero coefficient
        # (+inf for zero), is the valuation of a nonzero series
        a = L.monomial(F2.one(), -3, 5) + L.monomial(F2.one(), 1, 5)
        assert naive_ord(a) == -3
        assert naive_ord(L.zero(F2, 5)) == math.inf
        R = local_test_ring(2, 1, 2)
        b = L.monomial(R.x(), -1, 5) + L.constant(R.one(), 5)
        assert naive_ord(b) == -1  # naive order sees nilpotents

    def test_unit_ord_field(self):
        a = L.monomial(F5.from_int(2), 7, 12) + L.monomial(F5.one(), 9, 12)
        assert a.unit_ord() == 7
        assert L.constant(F3.one(), 4).unit_ord() == 0

    def test_unit_ord_testring(self):
        R = local_test_ring(3, 1, 2)
        a = L.monomial(R.x(), -2, 6) + L.monomial(R.one(), 1, 6)
        assert a.unit_ord() == 1

    def test_ord_additive_over_field(self):
        rng = random.Random(23)
        for _ in range(60):
            a = rand_series(rng, F3, -4, 3, 18)
            b = rand_series(rng, F3, -2, 4, 18)
            if a.is_zero() or b.is_zero():
                continue
            assert naive_ord(a * b) == naive_ord(a) + naive_ord(b)

    def test_unit_ord_additive_testring(self):
        R = local_test_ring(2, 1, 2)
        rng = random.Random(29)
        for _ in range(60):
            d1 = {e: R.from_index(rng.randrange(4)) for e in range(-2, 3)}
            d2 = {e: R.from_index(rng.randrange(4)) for e in range(-2, 3)}
            a = L.from_dict(R, {k: v for k, v in d1.items() if not v.is_zero()}, 14)
            b = L.from_dict(R, {k: v for k, v in d2.items() if not v.is_zero()}, 14)
            try:
                ia, ib = a.unit_ord(), b.unit_ord()
            except NotInvertible:
                continue
            assert (a * b).unit_ord() == ia + ib


def _reassemble(parts):
    """negative + constant + positive, the series split_parts split."""
    return parts.negative + L.constant(parts.constant, parts.negative.prec) + parts.positive


class TestSplitParts:
    def test_examples(self):
        s = (
            L.monomial(F5.one(), -1, 6)
            + L.constant(F5.from_int(2), 6)
            + L.monomial(F5.one(), 1, 6)
        )
        parts = s.split_parts()
        assert parts.negative.support() == {-1: F5.one()}
        assert parts.constant == F5.from_int(2)
        assert parts.positive.support() == {1: F5.one()}
        assert (_reassemble(parts) - s).is_zero()

    def test_pure_constant(self):
        s = L.constant(F5.from_int(3), 4)
        parts = s.split_parts()
        assert parts.negative.is_zero() and parts.positive.is_zero()
        assert parts.constant == F5.from_int(3)

    def test_pure_negative(self):
        s = L.monomial(F2.one(), -2, 5) + L.monomial(F2.one(), -1, 5)
        parts = s.split_parts()
        assert parts.positive.is_zero()
        assert parts.constant.is_zero()
        assert (_reassemble(parts) - s).is_zero()


class TestSolvePositive:
    def test_f2_example(self):
        b = L.monomial(F2.one(), 1, 16)
        u = b.solve_positive()
        assert u.support() == {e: F2.one() for e in (1, 2, 4, 8)}
        assert (u.wp() - b).is_zero()

    def test_zero(self):
        assert L.zero(F3, 8).solve_positive().is_zero()

    def test_f3_example(self):
        b = L.monomial(F3.one(), 3, 28)
        u = b.solve_positive()
        assert u.support() == {3: F3.from_int(2), 9: F3.from_int(2), 27: F3.from_int(2)}
        assert (u.wp() - b).is_zero()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_solutions_unique(self, p):
        spec = field(p)
        rng = random.Random(p * 101)
        for _ in range(66):
            b = rand_series(rng, spec, 1, 64, 64, density=0.4)
            u = b.solve_positive()
            assert (u.wp() - b).is_zero()
            # uniqueness: difference of two solutions is a positive-support
            # element of ker(wp), and wp is injective there
            assert u.is_zero() or u.val >= 1

    def test_rejects_negative_support(self):
        with pytest.raises(DomainError):
            L.monomial(F2.one(), -1, 8).solve_positive()

    @pytest.mark.parametrize("negated", [False, True])
    def test_allocates_from_the_valuation(self, negated):
        # t^N known mod t^(N+4): the window [N, N+4) is four slots, not N;
        # N and N + 2 are even, with halves below the valuation.  The
        # negated recurrence is the row loop the Artin-Schreier witness runs
        n = 2 * 10**6
        b = L.monomial(F2.one(), n, n + 4)
        tracemalloc.start()
        try:
            if negated:
                u = L.of_rows(F2, n, n + 4, positive_rows(F2, n, b.rows, negated=True))
            else:
                u = b.solve_positive()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert (u.val, u.prec, u.support()) == (n, n + 4, {n: F2.one()})


class TestFrobeniusStructure:
    def test_pth_power_monomial(self):
        assert L.monomial(F2.one(), -1, 5).series_pth_power().support() == {
            -2: F2.one()
        }

    def test_coeff_frobenius_f4(self):
        F4 = field(2, 2)
        g = F4.gen()
        a = coeff_frobenius(L.monomial(g, 1, 4))
        assert a.support() == {1: g * g}

    def test_pth_power_additive(self):
        rng = random.Random(31)
        for _ in range(40):
            a = rand_series(rng, F3, -4, 4, 12)
            b = rand_series(rng, F3, -4, 4, 12)
            lhs = (a + b).series_pth_power()
            rhs = a.series_pth_power() + b.series_pth_power()
            assert (lhs - rhs).is_zero()

    def test_pth_power_is_dilated_frobenius(self):
        rng = random.Random(37)
        for _ in range(40):
            a = rand_series(rng, F5, -3, 4, 10)
            lhs = a.series_pth_power()
            rhs = coeff_frobenius(a)
            assert lhs.support() == {
                5 * e: c for e, c in rhs.support().items()
            }


class TestScaleSubstitute:
    # xi is passed as its cycle (1, xi, ..., xi^(d-1))
    def test_basic(self):
        z = F5.from_int(3)
        a = L.monomial(F5.one(), 1, 5).scale_substitute(schoolbook.Cycle(z))
        assert a.support() == {1: z}

    def test_negative_exponent(self):
        a = L.monomial(F3.one(), -1, 4).scale_substitute(schoolbook.Cycle(F3.from_int(2)))
        assert a.support() == {-1: F3.from_int(2)}  # 2^{-1} = 2 in F_3

    def test_identity(self):
        rng = random.Random(41)
        a = rand_series(rng, F5, -3, 4, 9)
        assert (a.scale_substitute((F5.one(),)) - a).is_zero()

    def test_composition(self):
        # the cycles of x1, x2 and x1 x2: substituting by two is
        # substituting by the product
        rng = random.Random(43)
        for _ in range(40):
            a = rand_series(rng, F5, -4, 4, 11)
            x1 = F5.from_index(rng.randrange(1, 5))
            x2 = F5.from_index(rng.randrange(1, 5))
            lhs = a.scale_substitute(schoolbook.Cycle(x1)).scale_substitute(schoolbook.Cycle(x2))
            rhs = a.scale_substitute(schoolbook.Cycle(x1 * x2))
            assert (lhs - rhs).is_zero()

    def test_the_cycle_of_powers_scales_as_its_generator(self):
        # a frame passes (1, xi, ..., xi^(d-1)): windows shorter and longer
        # than d, valuations of both signs, and a test ring scaled by the
        # cycle of a root of unity of its residue field, against one power
        # of xi per coefficient
        rng = random.Random(47)
        F9, F4 = field(3, 2), field(2, 2)
        cases = [(TameFrame(F5, 4, 1), F5, 5), (TameFrame(F9, 8, 3), F9, 9), (TameFrame(F4, 3, 1), R42, 16)]
        for frame, ring, size in cases:
            xi, cycle = frame.xi, frame.xi_powers
            assert L.zero(ring, 3).scale_substitute(cycle) == L.zero(ring, 3)
            for _ in range(40):
                lo = rng.randrange(-7, 4)
                prec = rng.randrange(max(lo, 0) + 1, lo + 15)
                coeffs = {e: ring.from_index(rng.randrange(1, size)) for e in range(lo, prec) if rng.random() < 0.6}
                a = L.from_dict(ring, coeffs, prec)
                assert a.scale_substitute(cycle) == schoolbook.scale_substitute(a, xi)


class TestNthRootUnit:
    def test_trivial(self):
        one = L.constant(F5.one(), 6)
        assert (one.nth_root_unit(4) - one).is_zero()

    def test_f3_sqrt(self):
        a = L.constant(F3.one(), 3) + L.monomial(F3.one(), 1, 3)
        g = a.nth_root_unit(2)
        assert g == L.from_dict(F3, {0: F3.one(), 1: F3.from_int(2), 2: F3.one()}, 3)
        assert (g * g - a).is_zero()

    def test_f5_fourth_root(self):
        a = L.constant(F5.one(), 8) + L.monomial(F5.one(), 1, 8)
        g = a.nth_root_unit(4)
        assert (g**4 - a).is_zero()

    def test_random_roots(self):
        rng = random.Random(47)
        for _ in range(40):
            p, e, n = [(3, 1, 2), (5, 1, 4), (2, 2, 3), (7, 1, 3)][rng.randrange(4)]
            spec = field(p, e)
            tail = rand_series(rng, spec, 1, 7, 16, density=0.5)
            a = L.constant(spec.one(), 16) + tail
            g = a.nth_root_unit(n)
            assert ((g**n) - a).is_zero()

    def test_wild_n_rejected(self):
        a = L.constant(F3.one(), 5)
        with pytest.raises(DomainError):
            a.nth_root_unit(3)

    @staticmethod
    def _spoiled_root_message(monkeypatch, ring, n, spoil, k):
        """The certificate's message for 1 + t over ring, known mod t^20,
        when the Newton root is wrong by spoil at t^k."""
        import ftk.series

        real = ftk.series._root_unit_led

        def spoiled(kernel, a, r0, n, size):
            rows = kernel.unpack(real(kernel, a, r0, n, size), size)
            rows[k] = ring.add_rows(rows[k], spoil.coords)
            return kernel.pack(rows)

        monkeypatch.setattr(ftk.series, "_root_unit_led", spoiled)
        a = L.constant(ring.one(), 20) + L.monomial(ring.one(), 1, 20)
        with pytest.raises(PrecisionExhausted) as exc:
            a.nth_root_unit(n)
        return str(exc.value)

    def test_uncertified_root_names_its_window(self, monkeypatch):
        # a Newton root that is wrong at t^5 fails the g^n = self check
        message = self._spoiled_root_message(monkeypatch, F5, 4, F5.one(), 5)
        assert message == "4-th root not certified mod t^20: g^4 - self is nonzero at t^5"

    @pytest.mark.parametrize("ring, spoil, k", [
        (F256, F256.gen() ** 7, 9),
        (R42, R42.x() * R42.from_field(R42.base.gen()), 13),
    ], ids=["F_256", "F_4[x]/(x^2)"])
    def test_uncertified_root_names_its_window_inside_a_block(self, monkeypatch, ring, spoil, k):
        # the spoiled digit sits above slot 0 of its block (g^7; x g), so
        # the failing exponent is read from a bit inside the block
        message = self._spoiled_root_message(monkeypatch, ring, 3, spoil, k)
        assert message == f"3-th root not certified mod t^20: g^3 - self is nonzero at t^{k}"

    def test_non_power_leading_coefficient_rejected(self):
        a = L.constant(F5.from_int(2), 6)  # 2 is not a 4th power mod 5
        with pytest.raises(DomainError):
            a.nth_root_unit(4)


@pytest.mark.parametrize("ring", [F256, R42], ids=repr)
def test_newton_builds_only_the_returned_coefficients(from_digits_calls, monkeypatch, ring):
    # the inverse and the root iterate on packed windows and return rows:
    # no element sum, difference, negation or scaling, and no element of
    # the window; the one element built is the leading coefficient, whose
    # inverse or canonical root starts Newton.  The lead is a residue lift,
    # a cube, so no x-adic lift runs
    rng = random.Random(53)
    q = ring.base.q
    size = q**ring.m
    lead = ring.from_index(rng.randrange(1, q)) ** 3
    a = L.make(ring, 0, 30, [lead] + [ring.from_index(rng.randrange(size)) for _ in range(29)])
    del from_digits_calls[:]
    inv = a.shift(-4).invert()
    assert from_digits_calls == [lead.coords]
    del from_digits_calls[:]
    g = a.nth_root_unit(3)
    assert from_digits_calls == [lead.coords]
    monkeypatch.undo()
    assert (inv * a.shift(-4) - L.constant(ring.one(), 30)).is_zero()
    assert (g**3 - a).is_zero()


@pytest.fixture
def field_tables(ring):
    """The tables of the ring's residue field, built before a guard is set."""
    if ring.base.q <= MAX_TABLE_Q:
        ring.base.generator


@pytest.mark.parametrize("ring", [F2, field(3, 2), F256, field(2**31 - 1), R42], ids=repr)
def test_series_arithmetic_builds_no_element(field_tables, from_digits_calls, ring):
    # a series holds digit rows: sums, products, the three scalings, the
    # Newton inverse and root, the positive part, u^p - u, the twist phi
    # and the cocycle sum build no element from a row and make no element
    # sum, difference, negation or scaling; invert and nth_root_unit read
    # one element, the leading coefficient that starts their Newton
    rng = random.Random(29)
    q, size = ring.base.q, ring.base.q**ring.m

    def window(val, prec, lead):
        tail = [ring.from_index(rng.randrange(size)) for _ in range(prec - val - 1)]
        return L.make(ring, val, prec, [lead] + tail)

    one, last = ring.one(), ring.from_index(size - 1)
    cycle = tuple(schoolbook.Cycle(last))
    a, b, u = window(-3, 20, one), window(-5, 17, last), window(1, 24, one)
    twist = None
    if 2 < q <= MAX_TABLE_Q:
        # psi = 1 and xi of order n: the cocycle sum is n times the part of u
        # at exponents divisible by n, so it vanishes on the others
        n = next(d for d in range(2, q) if (q - 1) % d == 0)
        twist = SemidirectGroup.make(ring.p, 1, n, [[1]]), TameFrame(ring.base, n, 1)
        off = {e: ring.from_index(rng.randrange(size)) for e in range(-7, 24) if e % n}
        obj = ZPhiObject((b,), (L.from_dict(ring, off, 24),))
    del from_digits_calls[:]
    a + b, a - b, -a, a * b, u.solve_positive()
    a.scale(last), a.scale_int(-2), b.scale_substitute(cycle)
    if twist:
        phi_apply(*twist, (a,))
        if ring.m == 1:  # the cocycle sum's values are read in the prime field
            assert vn_check(*twist, obj) == (0,)
    if ring.p < 2**8:  # u^p dilates the window by p
        u.series_pth_power(), u.wp()
    if ring.m == 1:
        parse_series("t^-3 + 3*t^2 + t^7", ring)
    assert from_digits_calls == []
    a.invert()
    assert from_digits_calls == [one.coords]
    del from_digits_calls[:]
    if ring.base.q <= MAX_TABLE_Q:
        a.shift(3).nth_root_unit(5)
    else:
        # the canonical root of the lead needs the field's tables
        with pytest.raises(DomainError, match="field tables"):
            a.shift(3).nth_root_unit(5)
    assert from_digits_calls == [one.coords]


class TestConstancyChecks:
    def test_torsion_examples(self):
        assert L.constant(F5.one(), 5).torsion_unit_is_constant(3)
        assert L.constant(F5.from_int(4), 5).torsion_unit_is_constant(2)

    def test_torsion_precondition(self):
        with pytest.raises(DomainError):
            L.constant(F5.from_int(2), 5).torsion_unit_is_constant(2)

    def test_idempotent_examples(self):
        assert L.zero(F2, 5).idempotent_is_constant()
        assert L.constant(F2.one(), 5).idempotent_is_constant()
        with pytest.raises(DomainError):
            L.monomial(F2.one(), 1, 5).idempotent_is_constant()

    def test_exhaustive_idempotents_f2_window(self):
        hits = []
        import itertools

        for values in itertools.product(range(2), repeat=6):
            d = {e: F2.from_index(v) for e, v in zip(range(-3, 3), values) if v}
            f = L.from_dict(F2, d, 40)
            if (f * f - f).is_zero():
                hits.append(f)
                assert f.idempotent_is_constant()
        assert len(hits) == 2  # 0 and 1


def test_default_prec_rule():
    from ftk.series import default_prec

    assert default_prec(4) == 40
    assert default_prec(0) == 32


def test_difference_negates_nothing(monkeypatch):
    # a - b subtracts pairwise; as a + (-b) it negated every coefficient
    # of b first
    from ftk.fields import FqElem

    F5 = field(5)
    a = L.from_dict(F5, {e: F5.from_int(e % 4 + 1) for e in range(-3, 12)}, 12)
    b = L.from_dict(F5, {e: F5.from_int(e % 3 + 2) for e in range(-3, 12)}, 12)
    expected = a + b.scale_int(-1)
    calls = [0]
    real = FqElem.__neg__

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(FqElem, "__neg__", counted)
    assert a - b == expected
    assert calls[0] == 0


@pytest.mark.parametrize("p, e", [(5, 1), (7, 1), (3, 2), (2, 8)])
def test_newton_negates_no_element(monkeypatch, p, e):
    # the inverse and the root iterate on digit rows and negate digits;
    # elementwise, the inverse negated every new coefficient
    from ftk.fields import FqElem

    F = field(p, e)
    coeffs = {k: F.from_index((7 * k + 3) % F.q) for k in range(24)}
    coeffs[0] = F.one()
    a = L.from_dict(F, coeffs, 24)
    calls = [0]
    real = FqElem.__neg__

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(FqElem, "__neg__", counted)
    inv = a.invert()
    root = a.nth_root_unit(4 if p != 2 else 5)
    assert calls[0] == 0
    monkeypatch.undo()
    assert (a * inv - L.constant(F.one(), 24)).is_zero()
    assert (root ** (4 if p != 2 else 5) - a).is_zero()
