"""The Kronecker product, the doubling-Newton inverse and the Hensel root
against the schoolbook reference in ``schoolbook.py``.

Each property draws a ring (fields F_2 .. F_256, test rings F_q[x]/(x^m)
with m <= 4) and windows of three shapes: dense, zero-heavy and
monomial, at negative as well as positive valuations.  The fast path and
the reference must return the same ``(val, prec, coeffs)`` or raise the
same exception type.
"""

from hypothesis import example, given, strategies as st

import schoolbook
from ftk.errors import FtkError
from ftk import fields
from ftk.fields import field, test_ring as local_test_ring
from ftk.series import LaurentSeries as L

FIELDS = [
    field(p, e)
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8))
]
TEST_RINGS = [
    local_test_ring(p, e, m)
    for p, e, m in ((2, 1, 2), (5, 1, 2), (3, 1, 3), (2, 2, 2), (2, 1, 4), (5, 1, 4), (3, 2, 2))
]
RINGS = FIELDS + TEST_RINGS
# digits past one byte and product slots past 64 bits; too large for the
# root's reference, which scans the field
WIDE = RINGS + [field(2**31 - 1)]

R52 = local_test_ring(5, 1, 2)


def outcome(fn):
    try:
        s = fn()
    except FtkError as exc:
        return type(exc)
    return s.ring, s.val, s.prec, s.coeffs


def _size(ring):
    return ring.base.q ** ring.m if isinstance(ring, fields.TestRingSpec) else ring.q


@st.composite
def series(draw, rings=st.sampled_from(RINGS)):
    ring = draw(rings)
    prec = draw(st.integers(-4, 24))
    val = draw(st.integers(prec - 16, prec))
    shape = draw(st.sampled_from(["dense", "zero-heavy", "monomial"]))
    size = _size(ring)
    coeffs = []
    for k in range(prec - val):
        if shape == "dense" or (shape == "zero-heavy" and draw(st.integers(0, 5)) == 0):
            coeffs.append(ring.from_index(draw(st.integers(0, size - 1))))
        elif shape == "monomial" and k == 0:
            coeffs.append(ring.from_index(draw(st.integers(1, size - 1))))
        else:
            coeffs.append(ring.zero())
    if not any(not c.is_zero() for c in coeffs) and prec <= 0:
        prec = 1
        val = min(val, 0)
        coeffs = [ring.zero()] * (prec - val)
    return L.make(ring, val, prec, coeffs)


@st.composite
def pairs(draw):
    ring = draw(st.sampled_from(WIDE))
    return draw(series(st.just(ring))), draw(series(st.just(ring)))


@st.composite
def unit_led(draw):
    """unit_ord 0, as nth_root_unit needs; over a test ring with an optional
    nilpotent head below t^0 and nilpotent parts in the leading coefficient."""
    ring = draw(st.sampled_from(RINGS))
    q, size = ring.base.q, _size(ring)
    prec = draw(st.integers(1, 24))
    head = draw(st.integers(0, 2)) if size > q else 0
    nilpotent = st.integers(0, size // q - 1).map(lambda k: ring.from_index(k * q))
    coeffs = [draw(nilpotent) for _ in range(head)]
    lead = ring.from_index(draw(st.integers(1, q - 1)))
    if size > q:
        lead = lead + draw(nilpotent)
    coeffs.append(lead)
    zero_heavy = draw(st.booleans())
    for _ in range(prec - 1):
        if zero_heavy and draw(st.integers(0, 4)):
            coeffs.append(ring.zero())
        else:
            coeffs.append(ring.from_index(draw(st.integers(0, size - 1))))
    return L.make(ring, -head, prec, coeffs)


@given(pairs())
def test_product_matches_schoolbook(ab):
    a, b = ab
    assert outcome(lambda: a * b) == outcome(lambda: schoolbook.mul(a, b))


@given(series(st.sampled_from(WIDE)))
def test_invert_matches_schoolbook(a):
    assert outcome(a.invert) == outcome(lambda: schoolbook.invert(a))


@given(unit_led(), st.integers(1, 12))
# the 1-unit roots behind test_kummer's test_testring_root_exhaustion_raises
# and test_testring_class
@example(L.from_dict(R52, {-1: R52.x(), 0: R52.one()}, 1), 4)
@example(L.from_dict(R52, {-9: R52.x().scale(3), 0: R52.one()}, 53), 4)
def test_nth_root_unit_matches_schoolbook(a, n):
    assert outcome(lambda: a.nth_root_unit(n)) == outcome(lambda: schoolbook.nth_root_unit(a, n))


@st.composite
def positive_windows(draw):
    """Windows with val >= 1, long enough to reach exponents divisible by p^3,
    dense, zero-heavy, monomial or zero."""
    ring = draw(st.sampled_from(RINGS))
    prec = draw(st.integers(1, 40))
    val = draw(st.integers(1, prec))
    shape = draw(st.sampled_from(["dense", "zero-heavy", "monomial", "zero"]))
    size = _size(ring)
    coeffs = []
    for k in range(prec - val):
        if shape == "dense" or (shape == "zero-heavy" and draw(st.integers(0, 5)) == 0):
            coeffs.append(ring.from_index(draw(st.integers(0, size - 1))))
        elif shape == "monomial" and k == 0:
            coeffs.append(ring.from_index(draw(st.integers(1, size - 1))))
        else:
            coeffs.append(ring.zero())
    return L.make(ring, val, prec, coeffs)


@given(positive_windows())
def test_solve_positive_matches_schoolbook(b):
    u = b.solve_positive()
    assert outcome(lambda: u) == outcome(lambda: schoolbook.solve_positive(b))
    assert u.wp() == b
