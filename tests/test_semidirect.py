import itertools
import json
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import schoolbook
from ftk import artin_schreier, semidirect
from ftk.artin_schreier import as_class_count, elemab_canonicalize
from ftk.errors import DomainError, FtkError
from ftk.fields import FqElem, field, mat_identity, mat_pow, test_ring as local_test_ring
from ftk.oracles import AffineMap, _Composition, _WindowCodec, semidirect_bruteforce
from ftk.semidirect import (
    SemidirectGroup,
    TameFrame,
    ZPhiObject,
    enumerate_g_torsors,
    g_torsor_class_count,
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

    def test_rank_zero_refuses_a_nonempty_psi(self):
        for psi in ([[1, 2, 5]], [[1]], [[]]):
            with pytest.raises(DomainError, match="psi must be r x r"):
                SemidirectGroup.make(3, 0, 2, psi)
        assert SemidirectGroup.make(3, 0, 2, []).to_json()["psi"] == []

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
        # exactly when vn_check vanishes.  The oracles compose on codec
        # vectors: the translations are encoded, the power's decoded.  The
        # codec holds polar parts known mod t^1, so the translations are
        # cut there; u solves u^p - u = phi(b) - b with b supported in
        # [-3, 0], so it has no positive part to lose.
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
            codec = _WindowCodec(spec, -3)
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
                    assert all(e <= 0 for c in c_vec for e in c.support())
                    gamma = AffineMap(0, 0, psi_inv, tuple(codec.encode(c.truncate(1)) for c in c_vec), frame.xi.index)
                    (power,) = _Composition(codec, r).power((gamma,), frame.n)
                    symbolic = power.is_identity()
                    # the same verdict, read from the decoded translations
                    assert symbolic == (
                        power.matrix == mat_pow(group.psi, 0, p)
                        and codec.elems[power.lam] == spec.one()
                        and all(codec.decode(t).is_zero() for t in power.trans)
                    )
                    assert structured == symbolic

    def test_nonconstant_sum_raises(self):
        # a made-up datum whose twisted sum cannot be constant
        obj = ZPhiObject(
            (L.zero(F3, 16),), (L.monomial(F3.one(), -2, 16),)
        )
        g6 = SemidirectGroup.make(3, 1, 2, [[1]])
        with pytest.raises(FtkError):
            vn_check(g6, S3_FRAME, obj)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("ring", [local_test_ring(3, 1, 2), field(3, 2)], ids=["F_3[x]/(x^2)", "F_9"])
    def test_a_witness_over_another_ring_is_refused(self, ring, n):
        # the witness ring must be the frame's field: the constant 1 over
        # F_3[x]/(x^2) reached FqElem-only methods and raised AttributeError
        u = L.constant(ring.one(), 4)
        obj = ZPhiObject((u,), (u,))
        group = SemidirectGroup.make(3, 1, n, [[1]])
        with pytest.raises(DomainError, match=re.escape(f"witness over {ring!r}, frame over F_3")):
            vn_check(group, TameFrame(F3, n, 1), obj)


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


# (spec, r, m) with at most 300 (canonical vector, witness) pairs, all of
# which the reference checks: at most 150 canonical vectors
CENSUS_SHAPES = [
    (spec, r, m)
    for spec in [field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
    for r in (1, 2)
    for m in range(4)
    if (spec.p * as_class_count(spec, m)) ** r <= 300
]


@st.composite
def census_systems(draw):
    """(group, frame, m) as the CLI builds them: any q_exp, reduced by
    reduce_to_coprime, and psi with psi^n = 1."""
    spec, r, m = draw(st.sampled_from(CENSUS_SHAPES))
    p = spec.p
    n = draw(st.sampled_from([k for k in range(1, spec.q) if (spec.q - 1) % k == 0]))
    q_exp = draw(st.integers(0, 2 * n))
    rows = list(itertools.product(range(p), repeat=r))
    psis = [psi for psi in itertools.product(rows, repeat=r) if mat_pow(psi, n, p) == mat_identity(r)]
    n2, q2, group = reduce_to_coprime(SemidirectGroup.make(p, r, n, draw(st.sampled_from(psis))), q_exp)
    return group, TameFrame(spec, n2, q2), m


def _census(classes):
    """(break, class JSON text, aut order) of each class, in its order."""
    return [(c.break_, json.dumps(c.class_id(), sort_keys=True), c.aut_count) for c in classes]


def reduced_system(p, e, r, n, psi, q_exp, m):
    n2, q2, group = reduce_to_coprime(SemidirectGroup.make(p, r, n, psi), q_exp)
    return group, TameFrame(field(p, e), n2, q2), m


@settings(max_examples=30)
@given(census_systems())
@example(reduced_system(3, 1, 1, 2, [[-1]], 1, 3))  # S_3 over F_3
@example(reduced_system(5, 1, 1, 4, [[2]], 2, 1))  # Z/5 x| C_4, reduced to n = 2
@example(reduced_system(2, 2, 2, 3, [[0, 1], [1, 1]], 1, 1))  # A_4 over F_4
def test_census_matches_the_shift_quotient_reference(case):
    # the same classes, and listed in the CSV order, by (break, text)
    assert _census(enumerate_g_torsors(*case)) == sorted(_census(schoolbook.enumerate_g_torsors(*case)))


def slot_class_count(group, frame, m):
    """|ker(psi - 1)| * prod_{k in S_m} #{v in F_q^r : xi^-k psi v = v}, by
    walking F_p^r and, per slot, F_q^r with element arithmetic."""
    spec, p, r, psi = frame.spec, group.p, group.r, group.psi

    def twisted(lam, v):
        return tuple(lam * sum((v[j] * psi[i][j] for j in range(r)), spec.zero()) for i in range(r))

    count = sum(
        all(sum(psi[i][j] * h[j] for j in range(r)) % p == h[i] for i in range(r))
        for h in itertools.product(range(p), repeat=r)
    )
    xi_inv = frame.xi.inverse()
    for k in range(1, m + 1):
        if k % p:
            lam = xi_inv**k
            count *= sum(twisted(lam, v) == v for v in itertools.product(spec.elements(), repeat=r))
    return count


@settings(max_examples=30)
@given(census_systems())
@example(reduced_system(3, 1, 1, 2, [[-1]], 1, 3))  # S_3 over F_3
@example(reduced_system(5, 1, 1, 4, [[2]], 2, 1))  # Z/5 x| C_4, reduced to n = 2
@example(reduced_system(2, 2, 2, 3, [[0, 1], [1, 1]], 1, 3))  # A_4 over F_4
@example(reduced_system(3, 1, 1, 2, [[1]], 1, 7))  # Z/6 over F_3: the even slots 2, 4
def test_census_size_is_the_slot_count(case):
    count = slot_class_count(*case)
    assert len(enumerate_g_torsors(*case)) == count
    assert g_torsor_class_count(*case) == count


def test_closed_form_count_builds_no_class():
    # 11 odd prime-to-3 slots up to 31: 3^11 classes, past MAX_CENSUS
    assert g_torsor_class_count(S3_GROUP, S3_FRAME, 31) == slot_class_count(S3_GROUP, S3_FRAME, 31) == 3**11


def test_closed_form_count_refuses_a_huge_break_bound():
    # as as_class_count does: a bound whose window passes 2^4096 classes
    with pytest.raises(DomainError, match="2\\^4096"):
        g_torsor_class_count(S3_GROUP, S3_FRAME, 10**9)
    with pytest.raises(DomainError, match="break bound must be >= 0"):
        g_torsor_class_count(SemidirectGroup.make(3, 0, 2, []), S3_FRAME, -1)


def test_count_as_is_the_census_of_the_trivial_twist():
    # Z/3 with C_1 over F_9 at m = 3: the semidirect rows are the count-as
    # rows, each class text wrapped as the b of a witness-0 class
    spec = field(3, 2)
    rows = [(brk, aut, f'{{"b": [{text}], "u": ["0"]}}') for brk, aut, text, _ in artin_schreier.as_census(spec, 3)]
    census = semidirect.g_torsor_census(SemidirectGroup.make(3, 1, 1, [[1]]), TameFrame(spec, 1, 0), 3)
    assert len(rows) == 243
    assert [row[:3] for row in census] == rows


def test_census_past_its_bound_is_refused_at_once():
    # 3^67 classes at m = 200: the census was still running after 10 s
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^census scale exceeded: more than 65536 classes to walk$"):
        enumerate_g_torsors(S3_GROUP, S3_FRAME, 200)
    assert time.perf_counter() - start < 1


def _count_calls(monkeypatch, owner, name) -> list:
    """Wrap owner.name so that each call adds one to the returned [count]."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_census_applies_phi_once_per_class_and_step(monkeypatch):
    # S_3 over F_3 at m = 7: 27 classes.  Each class forms phi(b) once, for
    # its fixed check; the witness search made 54 calls, the candidate
    # walk 783
    calls = _count_calls(monkeypatch, semidirect, "phi_apply")
    assert len(enumerate_g_torsors(S3_GROUP, S3_FRAME, 7)) == 27
    assert calls[0] == 27


def test_census_builds_series_for_emitted_classes_only(monkeypatch):
    # the candidate walk built series for all 729 canonical vectors of
    # S_3 over F_3 at m = 7; only the 27 emitted ones are built now, each
    # once, from its slot values
    calls = _count_calls(monkeypatch, L, "from_dict")
    assert len(enumerate_g_torsors(S3_GROUP, S3_FRAME, 7)) == 27
    assert calls[0] == 27


def test_a_generated_vector_that_phi_moves_raises(monkeypatch):
    # the certificate re-checks the slot algebra on series: a generated
    # vector that phi moves is a fault, not a class with witness 0
    real = semidirect.phi_apply

    def moved(group, frame, b_vec):
        return tuple(b + L.constant(b.ring.one(), b.prec) for b in real(group, frame, b_vec))

    monkeypatch.setattr(semidirect, "phi_apply", moved)
    with pytest.raises(FtkError, match="not phi-fixed"):
        enumerate_g_torsors(S3_GROUP, S3_FRAME, 1)


def test_census_checks_one_witness_per_good_vector(monkeypatch):
    # S_3 over F_3 at m = 7: every phi-fixed vector is fixed on the nose,
    # so its witness is 0 and nothing searches for one; the search made
    # 27 zphi_solve and 27 vn_check calls
    counts = [
        _count_calls(monkeypatch, semidirect, "zphi_solve"),
        _count_calls(monkeypatch, semidirect, "vn_check"),
        _count_calls(monkeypatch, ZPhiObject, "make"),
        _count_calls(monkeypatch, artin_schreier, "elemab_canonicalize"),
    ]
    classes = enumerate_g_torsors(S3_GROUP, S3_FRAME, 7)
    assert len(classes) == 27
    assert [c[0] for c in counts] == [0, 0, 0, 0]
    assert {str(u) for c in classes for u in c.zphi.u_vec} == {"0"}


def test_census_scalings_make_few_field_products(monkeypatch):
    # the scalings run on digit rows and the cocycle sum by Horner: the
    # S_3 census over F_3 at m = 7 made 350699 field products when every
    # coefficient was scaled as an element, and 4155 now
    calls = [0]
    mul = FqElem.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(FqElem, "__mul__", counted)
    monkeypatch.setattr(FqElem, "__rmul__", counted)
    assert len(enumerate_g_torsors(S3_GROUP, S3_FRAME, 7)) == 27
    assert calls[0] < 20000
