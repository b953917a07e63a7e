"""Test-ring elements as digit rows against the tuple-of-field-elements
layout they replaced (``schoolbook.TupleRing``).

Each property draws one of five test rings F_q[x]/(x^m) and elements by
index.  The row element and the reference must give the same value (the
row equals the reference's digits), the same index and the same string,
or raise the same exception type, for every element operation; series
products, inverses and Hensel roots must agree coefficient by coefficient.
The library side runs the Kronecker products and the digit-row Newton,
the reference side the schoolbook loops on tuples.
"""

from hypothesis import given, strategies as st

import schoolbook
from ftk.errors import FtkError
from ftk.fields import test_ring as local_test_ring
from ftk.series import LaurentSeries as L

RINGS = [local_test_ring(p, e, m) for p, e, m in ((5, 1, 2), (3, 1, 3), (2, 2, 2), (7, 1, 2), (2, 1, 4))]


def _size(ring):
    return ring.base.q**ring.m


def element(fn):
    """(row, index, string) of fn's element, or the type of its FtkError."""
    try:
        a = fn()
    except FtkError as exc:
        return type(exc)
    return a.coords, a.index, str(a)


def series(fn):
    """(val, prec, rows) of fn's series, or the type of its FtkError."""
    try:
        s = fn()
    except FtkError as exc:
        return type(exc)
    return s.val, s.prec, [c.coords for c in s.coeffs]


def _indices(ring):
    return st.integers(0, _size(ring) - 1)


@given(
    st.sampled_from(RINGS).flatmap(lambda r: st.tuples(st.just(r), _indices(r), _indices(r))),
    st.integers(-4, 9),
)
def test_row_elements_match_tuple_reference(case, k):
    ring, i, j = case
    ref = schoolbook.TupleRing(ring)
    a, b = ring.from_index(i), ring.from_index(j)
    ra, rb = ref.from_index(i), ref.from_index(j)
    assert element(lambda: a) == element(lambda: ra)
    pairs = [
        (lambda: a + b, lambda: ra + rb),
        (lambda: a - b, lambda: ra - rb),
        (lambda: -a, lambda: -ra),
        (lambda: a * b, lambda: ra * rb),
        (lambda: a * k, lambda: ra * k),
        (lambda: a.scale(k), lambda: ra.scale(k)),
        (lambda: a**k, lambda: ra**k),
        (a.inverse, ra.inverse),
        (a.frobenius, ra.frobenius),
    ]
    for new, old in pairs:
        assert element(new) == element(old)
    assert a.residue() == ra.residue()
    assert a.is_unit() == ra.is_unit()
    assert a.is_zero() == ra.is_zero()


@st.composite
def windows(draw, rings=st.sampled_from(RINGS), unit_led=False):
    """A ring, a window [val, prec) and its coefficient indices: dense or
    zero-heavy; unit-led windows have a nilpotent head below a unit at t^0."""
    ring = draw(rings)
    q, size = ring.base.q, _size(ring)
    prec = draw(st.integers(1, 10))
    zero_heavy = draw(st.booleans())
    coeff = st.integers(0, size - 1)
    if zero_heavy:
        coeff = st.one_of(st.just(0), st.just(0), coeff)
    if unit_led:
        head = draw(st.lists(st.integers(0, size // q - 1).map(lambda n: n * q), max_size=2))
        lead = draw(st.integers(1, q - 1)) + q * draw(st.integers(0, size // q - 1))
        idx = head + [lead] + [draw(coeff) for _ in range(prec - 1)]
        return ring, -len(head), prec, idx
    val = draw(st.integers(prec - 8, prec - 1))
    return ring, val, prec, [draw(coeff) for _ in range(prec - val)]


def _both(case):
    """The window over the ring and over its tuple reference."""
    ring, val, prec, idx = case
    ref = schoolbook.TupleRing(ring)
    return (
        L.make(ring, val, prec, [ring.from_index(i) for i in idx]),
        L.make(ref, val, prec, [ref.from_index(i) for i in idx]),
    )


@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(windows(st.just(r)), windows(st.just(r)))))
def test_series_products_match_tuple_reference(xy):
    (a, ra), (b, rb) = map(_both, xy)
    assert series(lambda: a * b) == series(lambda: schoolbook.mul(ra, rb))


@given(windows())
def test_invert_matches_tuple_reference(x):
    a, ra = _both(x)
    assert series(a.invert) == series(lambda: schoolbook.invert(ra))


@given(windows(unit_led=True), st.integers(1, 6))
def test_nth_root_unit_matches_tuple_reference(x, n):
    a, ra = _both(x)
    assert series(lambda: a.nth_root_unit(n)) == series(lambda: schoolbook.nth_root_unit(ra, n))
