import random

import pytest

from ftk.artin_schreier import elemab_canonicalize
from ftk.errors import DomainError, FtkError
from ftk.fields import field
from ftk.oracles import AffineMap, semidirect_bruteforce
from ftk.semidirect import (
    SemidirectGroup,
    TameFrame,
    ZPhiObject,
    enumerate_g_torsors,
    mat_pow,
    mat_vec_series,
    phi_apply,
    reduce_to_coprime,
    vn_check,
    zphi_solve,
)
from ftk.series import LaurentSeries as L


F3 = field(3)
S3_GROUP = SemidirectGroup.make(3, 1, 2, [[-1]])
S3_FRAME = TameFrame(F3, 2, 1)


class TestGroupAndFrame:
    def test_psi_order_validated(self):
        with pytest.raises(DomainError):
            SemidirectGroup.make(3, 1, 4, [[2, 0], [0, 1]])
        with pytest.raises(DomainError):
            SemidirectGroup.make(2, 1, 2, [[1]])  # gcd(n, p) != 1

    def test_frame_requires_roots_of_unity(self):
        with pytest.raises(DomainError):
            TameFrame(F3, 4, 1)  # 4 does not divide q - 1 = 2

    def test_frame_requires_coprime(self):
        with pytest.raises(DomainError):
            TameFrame(field(3, 2), 4, 2)

    def test_frame_constants(self):
        fr = TameFrame(field(3, 2), 4, 3)
        assert (fr.zeta**4).index == 1 and fr.zeta.index != 1
        assert (fr.beta * 3) % 4 == 1
        assert fr.xi == fr.zeta**fr.beta

    def test_reduce_examples(self):
        g4 = SemidirectGroup.make(3, 1, 4, [[-1]])
        n2, q2, g2 = reduce_to_coprime(g4, 2)
        assert (n2, q2) == (2, 1)
        assert g2.psi == mat_pow(g4.psi, 2, 3)
        g3 = SemidirectGroup.make(2, 1, 3, [[1]])
        assert reduce_to_coprime(g3, 1)[:2] == (3, 1)
        assert reduce_to_coprime(g4, 0)[:2] == (1, 0)


class TestPhi:
    def test_identity_twist(self):
        g = SemidirectGroup.make(3, 1, 1, [[1]])
        fr = TameFrame(F3, 1, 0)
        b = L.monomial(F3.one(), -2, 12)
        out = phi_apply(g, fr, (b,))
        assert (out[0] - b).is_zero()

    def test_s3_fixed_point(self):
        b = L.monomial(F3.one(), -1, 16)
        out = phi_apply(S3_GROUP, S3_FRAME, (b,))
        assert (out[0] - b).is_zero()

    def test_phi_iterated_n_times_is_identity_on_classes(self):
        rng = random.Random(3)
        for _ in range(30):
            d = {e: F3.from_index(rng.randrange(3)) for e in range(-4, 1)}
            b = L.from_dict(F3, {k: v for k, v in d.items() if not v.is_zero()}, 20)
            vec = (b,)
            for _ in range(S3_FRAME.n):
                vec = phi_apply(S3_GROUP, S3_FRAME, vec)
            assert elemab_canonicalize(vec) == elemab_canonicalize((b,))

    def test_phi_respects_classes(self):
        rng = random.Random(5)
        for _ in range(30):
            d = {e: F3.from_index(rng.randrange(3)) for e in range(-3, 1)}
            b = L.from_dict(F3, {k: v for k, v in d.items() if not v.is_zero()}, 20)
            u_support = (
                {-1: F3.from_index(rng.randrange(1, 3))} if rng.random() < 0.5 else {}
            )
            u = L.from_dict(F3, u_support, 20)
            b2 = b + u.wp()
            lhs = elemab_canonicalize(phi_apply(S3_GROUP, S3_FRAME, (b,)))
            rhs = elemab_canonicalize(phi_apply(S3_GROUP, S3_FRAME, (b2,)))
            assert lhs == rhs


class TestZPhi:
    def test_trivial_cover_solutions(self):
        z = (L.zero(F3, 16),)
        sols = zphi_solve(S3_GROUP, S3_FRAME, z)
        assert len(sols) == 3
        for (u,) in sols:
            assert u.is_constant()

    def test_fixed_cover_solutions(self):
        b = (L.monomial(F3.one(), -1, 16),)
        sols = zphi_solve(S3_GROUP, S3_FRAME, b)
        assert sols is not None and len(sols) == 3
        for u_vec in sols:
            ZPhiObject.make(S3_GROUP, S3_FRAME, b, u_vec)  # witness identity

    def test_unfixed_cover_has_no_solutions(self):
        # psi = +1 with xi = -1 moves the class of s^{-1}
        g = SemidirectGroup.make(3, 1, 2, [[1]])
        b = (L.monomial(F3.one(), -1, 16),)
        assert zphi_solve(g, S3_FRAME, b) is None

    def test_solutions_form_torsor(self):
        b = (L.monomial(F3.from_int(2), -1, 16),)
        sols = zphi_solve(S3_GROUP, S3_FRAME, b)
        base = sols[0][0]
        diffs = {str(u[0] - base) for u in sols}
        assert diffs == {"0", "1", "2"}

    def test_bad_witness_rejected(self):
        b = (L.monomial(F3.one(), -1, 16),)
        with pytest.raises(DomainError):
            ZPhiObject.make(S3_GROUP, S3_FRAME, b, (L.monomial(F3.one(), -2, 16),))


class TestVnCheck:
    def test_zero_datum(self):
        z = (L.zero(F3, 16),)
        obj = ZPhiObject(z, (L.zero(F3, 16),))
        assert vn_check(S3_GROUP, S3_FRAME, obj) == (0,)

    def test_constant_solutions_all_pass_for_s3(self):
        # psi = -1: sum psi^j = 0, so the p lifts agree; all pass
        z = (L.zero(F3, 16),)
        for k in range(3):
            obj = ZPhiObject(z, (L.constant(F3.from_int(k), 16),))
            assert vn_check(S3_GROUP, S3_FRAME, obj) == (0,)

    def test_shift_law(self):
        # shifting u by a constant h shifts the sum by (sum psi^j) h
        g6 = SemidirectGroup.make(3, 1, 2, [[1]])
        z = (L.zero(F3, 16),)
        for k in range(3):
            obj = ZPhiObject(z, (L.constant(F3.from_int(k), 16),))
            assert vn_check(g6, S3_FRAME, obj) == ((2 * k) % 3,)

    def test_matches_symbolic_composition(self):
        # gamma = (psi^{-1} X + psi^{-1} u, s -> xi s); gamma^n trivial
        # exactly when vn_check vanishes
        rng = random.Random(9)
        cases = [
            (S3_GROUP, S3_FRAME),
            (SemidirectGroup.make(3, 1, 2, [[1]]), S3_FRAME),
            (
                SemidirectGroup.make(2, 2, 3, [[0, 1], [1, 1]]),
                TameFrame(field(2, 2), 3, 1),
            ),
        ]
        for group, frame in cases:
            spec = frame.spec
            p, r = group.p, group.r
            psi_inv = mat_pow(group.psi, group.n - 1, p)
            for _ in range(40):
                d = {
                    e: spec.from_index(rng.randrange(spec.q)) for e in range(-3, 1)
                }
                b = L.from_dict(
                    spec, {k: v for k, v in d.items() if not v.is_zero()}, 24
                )
                b_vec = tuple([b] * r)
                sols = zphi_solve(group, frame, b_vec)
                if sols is None:
                    continue
                for u_vec in sols[: p]:
                    obj = ZPhiObject(b_vec, u_vec)
                    structured = all(
                        v == 0 for v in vn_check(group, frame, obj)
                    )
                    c_vec = mat_vec_series(psi_inv, u_vec, p)
                    gamma = AffineMap(0, 0, psi_inv, c_vec, frame.xi)
                    symbolic = gamma.power(frame.n, p).is_identity()
                    assert structured == symbolic

    def test_nonconstant_sum_raises(self):
        # a made-up datum whose twisted sum cannot be constant
        obj = ZPhiObject(
            (L.zero(F3, 16),), (L.monomial(F3.one(), -2, 16),)
        )
        g6 = SemidirectGroup.make(3, 1, 2, [[1]])
        with pytest.raises(FtkError):
            vn_check(g6, S3_FRAME, obj)


class TestEnumeration:
    def test_s3_frozen_count(self):
        classes = enumerate_g_torsors(S3_GROUP, S3_FRAME, 4)
        assert len(classes) == 3
        assert [c.aut_count for c in classes] == [1, 1, 1]
        for c in classes:
            assert vn_check(S3_GROUP, S3_FRAME, c.zphi) == (0,)

    def test_s3_matches_bruteforce_small(self):
        structured = enumerate_g_torsors(S3_GROUP, S3_FRAME, 2)
        brute = semidirect_bruteforce(S3_GROUP, S3_FRAME, 2)
        assert (len(structured), sorted(c.aut_count for c in structured)) == brute

    def test_z6_frozen_count(self):
        g6 = SemidirectGroup.make(3, 1, 2, [[1]])
        classes = enumerate_g_torsors(g6, S3_FRAME, 4)
        assert len(classes) == 27
        assert {c.aut_count for c in classes} == {3}

    def test_n1_reduces_to_elemab(self):
        g = SemidirectGroup.make(3, 1, 1, [[1]])
        fr = TameFrame(F3, 1, 0)
        classes = enumerate_g_torsors(g, fr, 2)
        from ftk.artin_schreier import elemab_enumerate

        assert len(classes) == len(elemab_enumerate(F3, 1, 2))

    def test_rank_zero_single_class(self):
        g = SemidirectGroup.make(3, 0, 2, [])
        classes = enumerate_g_torsors(g, S3_FRAME, 3)
        assert len(classes) == 1 and classes[0].aut_count == 1

    def test_requires_coprime_frame(self):
        with pytest.raises(DomainError):
            TameFrame(field(3, 2), 4, 2)

    def test_order3_psi_case(self):
        group = SemidirectGroup.make(2, 2, 3, [[0, 1], [1, 1]])
        frame = TameFrame(field(2, 2), 3, 1)
        classes = enumerate_g_torsors(group, frame, 1)
        assert (len(classes), sorted(c.aut_count for c in classes)) == (
            4,
            [1, 1, 1, 1],
        )

    def test_deterministic_order(self):
        a = enumerate_g_torsors(S3_GROUP, S3_FRAME, 3)
        b = enumerate_g_torsors(S3_GROUP, S3_FRAME, 3)
        assert [c.class_id() for c in a] == [c.class_id() for c in b]
