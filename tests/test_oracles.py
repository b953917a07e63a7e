"""The brute-force oracles against the reference bodies in ``schoolbook.py``
and, past the references' reach, against the semidirect census; their
index-coded windows against ``LaurentSeries``; and the oracles' size bound.

The reference computes every loop invariant once per (object, witness)
pair, on ``LaurentSeries``; the oracles compute it once per call, on
index-coded windows.  Both must give the same count and the same
automorphism multiset.  Every refusal must come before anything is built:
the tests make building a codec, a window or a monomial fail.
"""

import itertools
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import schoolbook
from ftk import oracles
from ftk.errors import DomainError, FtkError
from ftk.fields import field, mat_identity, mat_pow
from ftk.semidirect import (
    SemidirectGroup,
    TameFrame,
    enumerate_g_torsors,
    reduce_to_coprime,
)
from ftk.series import LaurentSeries as L

F2, F3, F4, F5, F7, F9, F256 = (field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 8)))

# (label, p, e, r, n, psi, q_exp)
S3_F3 = ("S3/F3", 3, 1, 1, 2, [[-1]], 1)
S3_F9 = ("S3/F9", 3, 2, 1, 2, [[-1]], 1)
Z5C4_F5 = ("Z5xC4/F5", 5, 1, 1, 4, [[2]], 1)
A4_F4 = ("A4/F4", 2, 2, 2, 3, [[0, 1], [1, 1]], 1)
Z7C3_F7 = ("Z7xC3/F7", 7, 1, 1, 3, [[2]], 1)
Z3SQ_F3 = ("(Z3)^2xC2/F3", 3, 1, 2, 2, [[-1, 0], [0, -1]], 1)
Z3C4 = SemidirectGroup.make(3, 1, 4, [[-1]])


def system(label, p, e, r, n, psi, q_exp):
    return SemidirectGroup.make(p, r, n, psi), TameFrame(field(p, e), n, q_exp)


@pytest.mark.parametrize(
    "spec, m",
    [(F2, 0), (F2, 1), (F2, 2), (F2, 3), (F3, 0), (F3, 1), (F3, 2), (F4, 1)],
    ids=lambda x: f"m{x}" if isinstance(x, int) else f"F{x.q}",
)
def test_as_count_matches_reference(spec, m):
    assert oracles.as_bruteforce_class_count(spec, m) == schoolbook.as_bruteforce_class_count(spec, m)


@pytest.mark.parametrize(
    "spec, n",
    [(F3, 2), (F5, 2), (F5, 4), (F7, 3), (F4, 3)],
    ids=lambda x: f"n{x}" if isinstance(x, int) else f"F{x.q}",
)
def test_kummer_count_matches_reference(spec, n):
    assert oracles.kummer_bruteforce_class_count(spec, n) == schoolbook.kummer_bruteforce_class_count(spec, n)


@pytest.mark.parametrize(
    "case, m",
    [(S3_F3, 0), (S3_F3, 1), (S3_F3, 2), (Z5C4_F5, 0), (Z5C4_F5, 1), (A4_F4, 0), (S3_F9, 1), (Z7C3_F7, 1)],
    ids=lambda x: x[0] if isinstance(x, tuple) else f"m{x}",
)
def test_semidirect_matches_reference(case, m):
    group, frame = system(*case)
    got = oracles.semidirect_bruteforce(group, frame, m)
    assert got == schoolbook.semidirect_bruteforce(group, frame, m)


@pytest.mark.parametrize("m", [0, 1])
def test_split_frame_matches_reference(m):
    got = oracles.double_frame_bruteforce(Z3C4, F9, m)
    assert got == schoolbook.double_frame_bruteforce(Z3C4, F9, m)


def test_split_frame_matches_the_reduced_census():
    # Z/5 x| C_4 over F_5 at m = 2, as criterion 11 checks Z/3 x| C_4 over
    # F_9: psi = 2 has order 4, so psi and psi^-1 differ
    group = SemidirectGroup.make(5, 1, 4, [[2]])
    n2, q2, group2 = reduce_to_coprime(group, 2)
    classes = enumerate_g_torsors(group2, TameFrame(F5, n2, q2), 2)
    census = (len(classes), sorted(c.aut_count for c in classes))
    assert oracles.double_frame_bruteforce(group, F5, 2) == census


# (field, rank, break bound) whose reference cost, q^(2r(m+1)) pairs of
# window vectors, is at most 256: about half a second a system
SMALL_SHAPES = [
    (spec, r, m)
    for spec in (F2, F3, F4, F5, F7, F9)
    for r in (1, 2)
    for m in range(3)
    if spec.q ** (2 * r * (m + 1)) <= 256
]


@st.composite
def small_systems(draw):
    """(group, frame, m): rank 1 or 2, n | q - 1, q_exp a unit mod n, and
    psi drawn from the r x r matrices over F_p with psi^n = 1."""
    spec, r, m = draw(st.sampled_from(SMALL_SHAPES))
    p = spec.p
    n = draw(st.sampled_from([k for k in range(1, spec.q) if (spec.q - 1) % k == 0]))
    q_exp = draw(st.sampled_from([k for k in range(1, n + 1) if math.gcd(k, n) == 1]))
    rows = list(itertools.product(range(p), repeat=r))
    psis = [psi for psi in itertools.product(rows, repeat=r) if mat_pow(psi, n, p) == mat_identity(r)]
    group = SemidirectGroup.make(p, r, n, draw(st.sampled_from(psis)))
    return group, TameFrame(spec, n, q_exp), m


@settings(max_examples=10)
@given(small_systems())
# q_exp = 3 makes xi = zeta^3 here, which changes the answer
@example((SemidirectGroup.make(5, 1, 4, [[2]]), TameFrame(F5, 4, 3), 1))
def test_semidirect_matches_reference_on_random_systems(case):
    assert oracles.semidirect_bruteforce(*case) == schoolbook.semidirect_bruteforce(*case)


# sizes the raw-pair oracle refused; the census side takes most of the time
PAST_THE_OLD_BOUND = [(S3_F9, 2), (A4_F4, 2), (Z7C3_F7, 2)]


@pytest.mark.parametrize("case, m", PAST_THE_OLD_BOUND, ids=lambda x: x[0] if isinstance(x, tuple) else f"m{x}")
def test_semidirect_matches_the_census(case, m):
    group, frame = system(*case)
    classes = enumerate_g_torsors(group, frame, m)
    census = (len(classes), sorted(c.aut_count for c in classes))
    assert oracles.semidirect_bruteforce(group, frame, m) == census


@st.composite
def key_graphs(draw):
    """(keys, images): up to 12 distinct keys, each with up to 6 images
    drawn from the keys (itself included) and from integers outside them."""
    keys = draw(st.lists(st.integers(0, 20), unique=True, max_size=12))
    image = st.integers(-5, 25) if not keys else st.one_of(st.sampled_from(keys), st.integers(-5, 25))
    images = [draw(st.lists(st.one_of(image, st.just(key)), max_size=6)) for key in keys]
    return keys, images


@given(key_graphs())
def test_quotient_matches_the_union_find_loop(graph):
    keys, images = graph
    assert oracles._quotient(keys, images) == schoolbook.quotient(keys, images)


@st.composite
def window_problems(draw):
    """(c, d, lo, hi) over F_2, F_3 or F_4 with at most 27 window series;
    half the time d = c + wp(u) for some u on a window near [lo, hi]."""
    spec = draw(st.sampled_from([F2, F3, F4]))
    lo = draw(st.integers(-3, 0))
    hi = lo + draw(st.integers(0, {2: 3, 3: 2, 4: 1}[spec.q]))

    def series(lo_s, hi_s, prec):
        exps = range(lo_s, hi_s + 1)
        digits = draw(st.lists(st.integers(0, spec.q - 1), min_size=len(exps), max_size=len(exps)))
        return L.from_dict(spec, {e: spec.from_index(i) for e, i in zip(exps, digits) if i}, prec)

    prec = draw(st.integers(2, 6))
    c = series(draw(st.integers(-6, 1)), prec - 1, prec)
    if draw(st.booleans()):
        u_hi = min(hi + draw(st.integers(-1, 1)), prec - 1)
        d = c + series(lo + draw(st.integers(-1, 1)), u_hi, prec).wp()
    else:
        d_prec = draw(st.integers(2, 6))
        d = series(draw(st.integers(-6, 1)), d_prec - 1, d_prec)
    return c, d, lo, hi


def outcome(fn, *args):
    try:
        return fn(*args)
    except FtkError as exc:
        return type(exc)


@given(window_problems())
def test_as_window_witness_matches_reference(problem):
    assert outcome(oracles.as_window_witness_exists, *problem) == outcome(
        schoolbook.as_window_witness_exists, *problem
    )


@st.composite
def composable_maps(draw):
    """(p, f, g): two series-valued reference AffineMaps over F_3, F_4 or
    F_9 of rank 1 or 2, f's matrix the identity half the time, translations
    with support in [-3, 0], known mod t^1: the polar parts the oracles
    compose."""
    spec = draw(st.sampled_from([F3, F4, F9]))
    p, r = spec.p, draw(st.integers(1, 2))

    def series():
        lo = draw(st.integers(-3, 0))
        digits = draw(st.lists(st.integers(0, spec.q - 1), min_size=1 - lo, max_size=1 - lo))
        return L.from_dict(spec, {lo + i: spec.from_index(d) for i, d in enumerate(digits) if d}, 1)

    def matrix():
        row = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).map(tuple)
        return tuple(draw(st.lists(row, min_size=r, max_size=r)))

    def affine(m):
        lam = spec.from_index(draw(st.integers(1, spec.q - 1)))
        return schoolbook.AffineMap(0, 0, m, tuple(series() for _ in range(r)), lam)

    f = affine(mat_identity(r) if draw(st.booleans()) else matrix())
    return p, f, affine(matrix())


@given(composable_maps())
def test_composition_matches_reference(maps):
    # the identity-matrix shortcut must give what the matrix product gives;
    # the maps are encoded for the oracles' composition and its result decoded
    p, f, g = maps
    codec = oracles._WindowCodec(f.lam.spec, -3)

    def encode(h):
        return oracles.AffineMap(h.src, h.dst, h.matrix, tuple(map(codec.encode, h.trans)), h.lam.index)

    def decode(h):
        return schoolbook.AffineMap(h.src, h.dst, h.matrix, tuple(map(codec.decode, h.trans)), codec.elems[h.lam])

    def fields(h):
        return h.matrix, h.lam, [(t.val, t.prec, t.coeffs) for t in h.trans]

    (got,) = oracles._Composition(codec, len(f.matrix)).then((encode(f),), (encode(g),))
    assert fields(decode(got)) == fields(schoolbook.affine_then(f, g, p))


# -- the index-coded windows --------------------------------------------------

CODEC_LO = -16
CODEC_FIELDS = [F2, F3, F4, F5, F9, F256]


@pytest.fixture(scope="module")
def codecs():
    """One codec per field, windows from t^-16: built once, since the F_256
    sums table has 65536 entries."""
    return {spec.q: oracles._WindowCodec(spec, CODEC_LO) for spec in CODEC_FIELDS}


@st.composite
def coded_series(draw, spec):
    """A series over spec with support in [-3, 0] (so u^p - u stays above
    CODEC_LO for p <= 5), known mod t^1 as the codec's vectors are; zero a
    fifth of the time."""
    if draw(st.integers(0, 4)) == 0:
        return L.zero(spec, 1)
    lo = draw(st.integers(-3, 0))
    digits = draw(st.lists(st.integers(0, spec.q - 1), min_size=1 - lo, max_size=1 - lo))
    return L.from_dict(spec, {lo + i: spec.from_index(d) for i, d in enumerate(digits) if d}, 1)


@st.composite
def codec_problems(draw):
    spec = draw(st.sampled_from(CODEC_FIELDS))
    op = draw(st.sampled_from(["add", "sub", "scale", "wp", "substitute"]))
    a, b = draw(coded_series(spec)), draw(coded_series(spec))
    k = draw(st.integers(-spec.p, 2 * spec.p))
    lam = spec.from_index(draw(st.integers(1, spec.q - 1)))
    return spec, op, a, b, k, lam


@given(codec_problems())
def test_codec_matches_series_arithmetic(codecs, problem):
    spec, op, a, b, k, lam = problem
    codec = codecs[spec.q]
    x, y = codec.encode(a), codec.encode(b)
    got, want = {
        "add": (lambda: codec.add(x, y), lambda: a + b),
        "sub": (lambda: codec.sub(x, y), lambda: a - b),
        "scale": (lambda: codec.scale(x, k), lambda: a.scale_int(k)),
        "wp": (lambda: codec.wp(x), lambda: a.wp()),
        "substitute": (lambda: codec.substitute(x, lam.index), lambda: a.scale_substitute(schoolbook.Cycle(lam))),
    }[op]
    out, ref = codec.decode(got()), want()
    assert (out.val, out.prec, out.coeffs) == (ref.val, ref.prec, ref.coeffs)
    assert codec.decode(x) == a and codec.encode(out) == got()


def test_codec_refuses_what_it_cannot_hold(codecs):
    codec = codecs[3]
    with pytest.raises(DomainError):
        codec.encode(L.monomial(F3.one(), CODEC_LO - 1, 1))
    with pytest.raises(DomainError):
        codec.encode(L.monomial(F3.one(), -3, 0))
    with pytest.raises(DomainError):
        codec.encode(L.monomial(F3.one(), -3, 2))
    with pytest.raises(DomainError):
        codec.wp(codec.encode(L.monomial(F3.one(), -6, 1)))


def test_oracles_run_without_series_arithmetic(monkeypatch):
    # the reference answers first, then the oracles with every series
    # operation of their loops made to raise
    cases = [
        (oracles.as_bruteforce_class_count, schoolbook.as_bruteforce_class_count, (F3, 2)),
        (oracles.as_bruteforce_class_count, schoolbook.as_bruteforce_class_count, (F4, 1)),
        (oracles.kummer_bruteforce_class_count, schoolbook.kummer_bruteforce_class_count, (F7, 3)),
        (oracles.semidirect_bruteforce, schoolbook.semidirect_bruteforce, system(*S3_F3) + (2,)),
        (oracles.semidirect_bruteforce, schoolbook.semidirect_bruteforce, system(*A4_F4) + (0,)),
        (oracles.semidirect_bruteforce, schoolbook.semidirect_bruteforce, system(*Z5C4_F5) + (1,)),
    ]
    expected = [reference(*args) for _, reference, args in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("series arithmetic inside an oracle")

    for name in ("__add__", "__mul__", "scale", "scale_substitute", "wp"):
        monkeypatch.setattr(L, name, refuse)
    assert [oracle(*args) for oracle, _, args in cases] == expected


# -- the size bound ---------------------------------------------------------------


class Built(Exception):
    pass


@pytest.fixture
def nothing_built(monkeypatch):
    """Make building a codec, a window or a monomial raise."""

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(oracles, "_WindowCodec", refuse)
    monkeypatch.setattr(oracles, "_window_series", refuse)
    monkeypatch.setattr(L, "monomial", staticmethod(refuse))


REFUSED = [
    ("AS F_256 m=3", lambda: oracles.as_bruteforce_class_count(F256, 3)),
    ("AS F_2 m=12", lambda: oracles.as_bruteforce_class_count(F2, 12)),
    ("AS F_2 m=10^9", lambda: oracles.as_bruteforce_class_count(F2, 10**9)),
    ("AS m=-2", lambda: oracles.as_bruteforce_class_count(F2, -2)),
    ("Kummer F_256 n=255", lambda: oracles.kummer_bruteforce_class_count(F256, 255)),
    ("Kummer n=-1", lambda: oracles.kummer_bruteforce_class_count(F5, -1)),
    ("Kummer n=0", lambda: oracles.kummer_bruteforce_class_count(F5, 0)),
    ("S3/F3 m=8", lambda: oracles.semidirect_bruteforce(*system(*S3_F3), 8)),
    ("A4/F4 m=6", lambda: oracles.semidirect_bruteforce(*system(*A4_F4), 6)),
    ("S3/F3 m=-1", lambda: oracles.semidirect_bruteforce(*system(*S3_F3), -1)),
    # the window fits, the 3^8 chains x 9 crossings x 9 shifts do not
    ("(Z3)^2xC2/F3 m=4", lambda: oracles.semidirect_bruteforce(*system(*Z3SQ_F3), 4)),
    ("split F_9 m=6", lambda: oracles.double_frame_bruteforce(Z3C4, F9, 6)),
    ("split F_9 m=-1", lambda: oracles.double_frame_bruteforce(Z3C4, F9, -1)),
    ("AS window F_256 3 slots", lambda: oracles.as_window_witness_exists(L.zero(F256, 5), L.zero(F256, 5), -2, 0)),
    ("Kummer window F_256 5 slots", lambda: oracles.kummer_window_witness_exists(L.zero(F256, 5), L.zero(F256, 5), 3)),
]


@pytest.mark.parametrize("call", [c for _, c in REFUSED], ids=[name for name, _ in REFUSED])
def test_refusal_comes_before_anything_is_built(nothing_built, call):
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - t0 < 1


# the largest sizes the library, the acceptance criteria, the benchmark and the
# census comparisons run, and the sizes the pins above moved past
ADMITTED = [
    ("AS F_2 m=5", lambda: oracles.as_bruteforce_class_count(F2, 5)),
    ("AS F_2 m=8", lambda: oracles.as_bruteforce_class_count(F2, 8)),
    ("AS F_2 m=9", lambda: oracles.as_bruteforce_class_count(F2, 9)),
    ("AS F_2 m=11", lambda: oracles.as_bruteforce_class_count(F2, 11)),
    ("Kummer F_7 n=3", lambda: oracles.kummer_bruteforce_class_count(F7, 3)),
    ("S3/F3 m=4", lambda: oracles.semidirect_bruteforce(*system(*S3_F3), 4)),
    ("S3/F3 m=5", lambda: oracles.semidirect_bruteforce(*system(*S3_F3), 5)),
    ("S3/F3 m=7", lambda: oracles.semidirect_bruteforce(*system(*S3_F3), 7)),
    ("S3/F9 m=1", lambda: oracles.semidirect_bruteforce(*system(*S3_F9), 1)),
    ("S3/F9 m=2", lambda: oracles.semidirect_bruteforce(*system(*S3_F9), 2)),
    ("A4/F4 m=1", lambda: oracles.semidirect_bruteforce(*system(*A4_F4), 1)),
    ("A4/F4 m=2", lambda: oracles.semidirect_bruteforce(*system(*A4_F4), 2)),
    ("A4/F4 m=5", lambda: oracles.semidirect_bruteforce(*system(*A4_F4), 5)),
    ("(Z3)^2xC2/F3 m=3", lambda: oracles.semidirect_bruteforce(*system(*Z3SQ_F3), 3)),
    ("Z5xC4/F5 m=3", lambda: oracles.semidirect_bruteforce(*system(*Z5C4_F5), 3)),
    ("Z7xC3/F7 m=2", lambda: oracles.semidirect_bruteforce(*system(*Z7C3_F7), 2)),
    ("split F_9 m=2", lambda: oracles.double_frame_bruteforce(Z3C4, F9, 2)),
]


@pytest.mark.parametrize("call", [c for _, c in ADMITTED], ids=[name for name, _ in ADMITTED])
def test_bound_admits_the_desk_sizes(nothing_built, call):
    with pytest.raises(Built):
        call()
