"""The Kronecker product, the doubling-Newton inverse, the Hensel root, the
zero-aware sums, the Artin-Schreier witness and the tokenising parser
against the references in ``schoolbook.py``.

Each property draws a ring (fields F_2 .. F_256, test rings F_q[x]/(x^m)
with m <= 4) and windows of several shapes: dense, zero-heavy, monomial
and zero, at negative as well as positive valuations.  The fast path and
the reference must return the same ``(val, prec, coeffs)`` or raise the
same exception type; the parsers must also raise the same message at the
same offset, except that a run of digits ``int()`` refuses, a ValueError
in the reference, is a ParseError at the start of the run.  The Kronecker
kernel is also checked against the schoolbook product on windows of up
to 64 coefficients, in rings chosen to reach every slot width, in chains
of products fed back packed, as Newton feeds them, and by an exhaustive
check of its per-slot Barrett step.
"""

from itertools import groupby

import pytest
from hypothesis import example, given, strategies as st

import schoolbook
from ftk.artin_schreier import _canonicalize_with_witness, as_canonicalize, as_iso_witness
from ftk.errors import FtkError, ParseError
from ftk import fields
from ftk.fields import field, test_ring as local_test_ring
from ftk.parse import parse_field_elem, parse_series
from ftk.series import LaurentSeries as L

FIELDS = [
    field(p, e)
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8))
]
# the five rings of test_ring_layout
LAYOUT_RINGS = ((5, 1, 2), (3, 1, 3), (2, 2, 2), (7, 1, 2), (2, 1, 4))
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


# one ring per slot width of the Kronecker kernel for windows of 1 to 64
# coefficients: F_256 (1 and 2 bytes), F_251 (2 and 4), F_(127^3) (4),
# F_(65521^2) (8) and F_(2^31-1) (8, and 9 read slot by slot); then p > 2
# with e > 1, and test rings up to m = 4
KERNEL_RINGS = [
    field(p, e)
    for p, e in ((2, 8), (251, 1), (127, 3), (65521, 2), (2**31 - 1, 1), (3, 2), (5, 3), (3, 5))
] + [local_test_ring(p, e, m) for p, e, m in ((2, 1, 4), (5, 1, 4), (3, 2, 3), (2, 3, 2), (7, 1, 3))]


@st.composite
def kernel_operands(draw):
    """A ring of KERNEL_RINGS, two coefficient windows of 0 to 64 entries
    (dense, zero-heavy, monomial, or zero below a dense top) and n."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    size = _size(ring)
    windows = []
    for _ in range(2):
        length = draw(st.integers(0, 64))
        shape = draw(st.sampled_from(["dense", "zero-heavy", "monomial", "high"]))
        cut = draw(st.integers(0, length))
        coeffs = []
        for k in range(length):
            if (shape == "dense" or (shape == "zero-heavy" and draw(st.integers(0, 5)) == 0)
                    or (shape == "monomial" and k == cut) or (shape == "high" and k >= cut)):
                coeffs.append(ring.from_index(draw(st.integers(0, size - 1))))
            else:
                coeffs.append(ring.zero())
        windows.append(coeffs)
    return ring, windows[0], windows[1], draw(st.integers(0, 70))


def _kernel_example(ring, a, b, n):
    return ring, [ring.from_index(i) for i in a], [ring.from_index(i) for i in b], n


@given(kernel_operands())
@example(_kernel_example(field(251), [250], [249], 1))  # 2-byte slots
@example(_kernel_example(field(2, 8), [255], [0, 254], 3))  # 1-byte slots
# raw sums of up to 248 fill a 1-byte slot; the reduction lifts them past it
@example(_kernel_example(field(2, 8), [255] * 31, [255] * 31, 31))
@example(_kernel_example(local_test_ring(2, 1, 4), [15, 3, 0, 9], [7, 0, 12], 7))
@example(_kernel_example(local_test_ring(2, 3, 2), [0, 63, 9], [40, 0, 0, 1], 6))
@example(_kernel_example(field(2**31 - 1), [2**31 - 2] * 64, [2**31 - 3] * 64, 64))
def test_digit_product_matches_schoolbook(operands):
    ring, a, b, n = operands
    top = len(a) + len(b) + 1  # both windows exact past the product's degree
    zero = ring.zero()
    product = schoolbook.mul(
        L.make(ring, 0, top, a + [zero] * (top - len(a))), L.make(ring, 0, top, b + [zero] * (top - len(b)))
    )
    expected = [product.coeff(i) if i < product.prec else zero for i in range(n)]
    assert ring.digit_product([x.coords for x in a], [y.coords for y in b], n) == [c.coords for c in expected]


# -- packed windows, chained as Newton chains them ----------------------------

P64 = 2**64 - 59  # the largest prime below 2^64
CHAIN_RINGS = KERNEL_RINGS + [field(P64)] + [local_test_ring(p, e, m) for p, e, m in LAYOUT_RINGS]


def _reference(ring):
    """A ring whose element products do not go through the kernel."""
    return schoolbook.TupleRing(ring) if isinstance(ring, fields.TestRingSpec) else ring


def _reference_product(ref, a, b, n):
    """The first n coefficients of a b by ``schoolbook.mul``."""
    top = len(a) + len(b) + 1  # both windows exact past the product's degree
    zero = ref.zero()
    product = schoolbook.mul(
        L.make(ref, 0, top, a + [zero] * (top - len(a))), L.make(ref, 0, top, b + [zero] * (top - len(b)))
    )
    return [product.coeff(i) if i < product.prec else zero for i in range(n)]


@st.composite
def kernel_chains(draw):
    """A ring of CHAIN_RINGS, a first window (indices) and one to three steps,
    each a product by a new window, a square or a scaling by an integer,
    all at n coefficients."""
    ring = draw(st.sampled_from(CHAIN_RINGS))
    window = st.lists(st.integers(0, _size(ring) - 1), max_size=64)
    step = st.one_of(window, st.just("square"), st.integers(-10**20, 10**20))
    return ring, draw(window), draw(st.lists(step, min_size=1, max_size=3)), draw(st.integers(0, 64))


def _full(ring, steps, n=64):
    """The chain with every digit p - 1 in each window of n coefficients."""
    top = _size(ring) - 1
    return ring, [top] * n, [[top] * n if s == "window" else s for s in steps], n


@given(kernel_chains())
@example(_full(field(3), ["window", "square", -1]))
@example(_full(field(5), ["square", "window"]))
@example(_full(field(7), ["window", "window", "square"]))
@example(_full(field(2, 8), ["window", "square"]))
@example(_full(field(2**31 - 1), ["window", "square"]))
@example(_full(field(P64), ["window", "square", 3]))
@example(_full(local_test_ring(5, 1, 2), ["window", "square"]))
@example(_full(local_test_ring(3, 1, 3), ["window", "square"]))
@example(_full(local_test_ring(2, 2, 2), ["window", "square"]))
@example(_full(local_test_ring(7, 1, 2), ["window", "square"]))
@example(_full(local_test_ring(2, 1, 4), ["window", "square"]))
def test_chained_packed_products_match_schoolbook(chain):
    # each product's output is fed to the next without unpacking, so every
    # step relies on the slots holding reduced digits in [0, p)
    ring, first, steps, n = chain
    ref = _reference(ring)
    k = ring.kernel(n)
    x = k.pack([ring.from_index(i).coords for i in first[:n]])
    expected = [ref.from_index(i) for i in first[:n]] + [ref.zero()] * (n - len(first[:n]))
    for s in steps:
        if s == "square":
            x = k.mul(x, x, n)
            expected = _reference_product(ref, expected, expected, n)
        elif isinstance(s, int):
            x = k.scale(x, s)
            expected = [c.scale(s) for c in expected]
        else:
            x = k.mul(x, k.pack([ring.from_index(i).coords for i in s[:n]]), n)
            expected = _reference_product(ref, expected, [ref.from_index(i) for i in s[:n]], n)
    assert k.unpack(x, n) == [c.coords for c in expected]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("extra", [0, 1])
def test_barrett_step_is_exact_below_its_bound(p, extra):
    # every v < 2^b, one per slot of a prime field's kernel, so each
    # quotient also sees the bits its neighbours shift into it
    k = fields._kernel(field(p), 1, field(p).kernel(1).layout.size + extra)
    v = sum(x << k.step * x for x in range(k.bound))
    assert k.unpack(k.reduce(v), k.bound) == [(x % p,) for x in range(k.bound)]


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


# -- zero-aware sums ------------------------------------------------------------


def result(fn):
    """fn's value, or the type of the FtkError it raised."""
    try:
        return fn()
    except FtkError as exc:
        return type(exc)


def _elements(ring):
    """Zero half of the time, else any element."""
    return st.one_of(st.just(ring.zero()), st.integers(0, _size(ring) - 1).map(ring.from_index))


@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(_elements(r), _elements(r))))
def test_element_sums_match_reference(ab):
    a, b = ab
    assert a + b == schoolbook.elem_add(a, b)
    assert a - b == schoolbook.elem_sub(a, b)
    assert -a == schoolbook.elem_neg(a)


@given(st.sampled_from(TEST_RINGS).flatmap(_elements))
def test_test_ring_frobenius_is_the_pth_power(a):
    assert a.frobenius() == fields._RingElem.__pow__(a, a.spec.p)


@st.composite
def _window(draw, ring, val, prec, lo, hi):
    """Coefficients for exponents val .. prec-1, nonzero only in [lo, hi)."""
    shape = draw(st.sampled_from(["dense", "zero-heavy", "monomial", "zero"]))
    size = _size(ring)
    coeffs, first = [], True
    for e in range(val, prec):
        nonzero = lo <= e < hi and (
            shape == "dense"
            or (shape == "zero-heavy" and draw(st.integers(0, 5)) == 0)
            or (shape == "monomial" and first)
        )
        if nonzero:
            coeffs.append(ring.from_index(draw(st.integers(1, size - 1))))
            first = False
        else:
            coeffs.append(ring.zero())
    return coeffs


@st.composite
def sum_pairs(draw):
    """Two series over one ring: overlapping, or disjoint (the first nonzero
    only below a cut, the second only at and above it), of unequal
    precision, zero-heavy or zero."""
    ring = draw(st.sampled_from(RINGS))
    cut = draw(st.integers(-10, 12))
    disjoint = draw(st.booleans())
    out = []
    for side in range(2):
        prec = draw(st.integers(cut - 4, cut + 14))
        val = draw(st.integers(prec - 20, prec))
        lo, hi = (-99, 99) if not disjoint else ((-99, cut) if side == 0 else (cut, 99))
        coeffs = draw(_window(ring, val, prec, lo, hi))
        if prec <= 0 and all(c.is_zero() for c in coeffs):
            coeffs += [ring.zero()] * (1 - prec)
            prec = 1
        out.append(L.make(ring, val, prec, coeffs))
    return tuple(out)


@given(sum_pairs())
def test_series_sums_match_reference(ab):
    a, b = ab
    assert result(lambda: a + b) == result(lambda: schoolbook.series_add(a, b))
    assert result(lambda: a - b) == result(lambda: schoolbook.series_sub(a, b))
    assert -a == schoolbook.series_neg(a)
    for s in ab:
        assert result(s.split_parts) == result(lambda: schoolbook.series_split_parts(s))


@given(
    st.sampled_from(RINGS),
    st.integers(-20, 20),
    st.integers(0, 40),
    st.sampled_from([0, 0, 0, 1, -1]),
    st.data(),
)
def test_make_matches_reference(ring, val, length, misfit, data):
    # a long zero head, then a zero-heavy or zero tail; misfit != 0 makes
    # the window disagree with [val, prec)
    head = data.draw(st.integers(0, length))
    tail = data.draw(_window(ring, val + head, val + length, -99, 99))
    coeffs = [ring.zero()] * head + tail
    prec = val + length + misfit
    assert result(lambda: L.make(ring, val, prec, coeffs)) == result(
        lambda: schoolbook.series_make(ring, val, prec, coeffs)
    )


# the two fields of WIDE and PARSE_FIELDS that keep no table: every element
# from_digits builds over them is new
TABLELESS = [field(2, 20), field(2**31 - 1)]


@given(series(st.sampled_from(RINGS + TABLELESS)))
def test_make_round_trips_through_coeffs(s):
    # coeffs builds the window's elements at the edge, none for zero (whose
    # window starts at eff_val = prec); make takes them back
    assert L.make(s.ring, s.eff_val, s.prec, s.coeffs) == s


@given(
    st.sampled_from(RINGS + TABLELESS),
    st.integers(-20, 20),
    st.integers(0, 40),
    st.sampled_from([0, 0, 0, 1, -1]),
    st.data(),
)
@example(field(2, 20), -6, 4, 0, None)  # all zero, prec -2
@example(field(2**31 - 1), -1, 1, 0, None)  # all zero, prec 0
@example(local_test_ring(2, 1, 4), 3, 5, 1, None)  # one row too few
def test_of_rows_and_make_normalise_alike(ring, val, length, misfit, data):
    # a long zero head, then a zero-heavy or zero tail, as in
    # test_make_matches_reference; misfit != 0 makes the window disagree
    # with [val, prec).  The examples pass no data: their windows are zero
    head = length if data is None else data.draw(st.integers(0, length))
    tail = [] if data is None else data.draw(_window(ring, val + head, val + length, -99, 99))
    coeffs = [ring.zero()] * head + tail
    prec = val + length + misfit
    expected = result(lambda: schoolbook.series_make(ring, val, prec, coeffs))
    assert result(lambda: L.of_rows(ring, val, prec, [c.coords for c in coeffs])) == expected
    assert result(lambda: L.make(ring, val, prec, coeffs)) == expected


# -- the Artin-Schreier witness --------------------------------------------------


@st.composite
def as_covers(draw):
    """b with poles at p-power multiples of prime-to-p slots (so the chains
    run), a zero-heavy positive tail and a constant; and d, either b plus a
    coboundary u^p - u or a second such series."""
    spec = draw(st.sampled_from(FIELDS))
    p = spec.p
    elem = st.integers(0, spec.q - 1).map(spec.from_index)

    def cover(prec):
        d = {}
        for _ in range(draw(st.integers(0, 4))):
            pole = draw(st.integers(1, 6)) * p ** draw(st.integers(0, 3))
            d[-min(pole, 60)] = draw(elem)
        for s in range(0, prec):
            if draw(st.integers(0, 3)) == 0:
                d[s] = draw(elem)
        return L.from_dict(spec, d, prec)

    b = cover(draw(st.integers(1, 30)))
    if draw(st.booleans()):
        u = cover(draw(st.integers(1, 30)))
        d = b + u.wp()
    else:
        d = cover(draw(st.integers(1, 30)))
    return b, d


@given(as_covers())
def test_as_witness_matches_reference(bd):
    b, d = bd
    expected = schoolbook.canonicalize_with_witness(b)
    assert _canonicalize_with_witness(b) == expected
    assert as_canonicalize(b) == expected[0]
    w = as_iso_witness(b, d)
    assert (None if w is None else w.u) == schoolbook.as_iso_witness(b, d)


@st.composite
def as_differences(draw):
    """(c, d) over one field, each at its own precision: d is c, or c with
    its lowest slots kept and the rest redrawn (so c - d cancels there), or
    a second cover.  A cover may have poles, a constant and a positive
    part, or only a positive part, so valuations run from -60 to 30."""
    spec = draw(st.sampled_from(FIELDS))
    p = spec.p
    elem = st.integers(0, spec.q - 1).map(spec.from_index)

    def terms(prec, lo, hi):
        return {s: draw(elem) for s in range(lo, min(hi, prec)) if draw(st.integers(0, 3)) == 0}

    def cover(prec):
        d = {}
        if draw(st.booleans()):
            for _ in range(draw(st.integers(0, 4))):
                d[-min(draw(st.integers(1, 6)) * p ** draw(st.integers(0, 3)), 60)] = draw(elem)
            d.update(terms(prec, 0, prec))
        else:
            d.update(terms(prec, draw(st.integers(1, 30)), prec))
        return d

    prec_c, prec_d = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    dc = cover(prec_c)
    shape = draw(st.sampled_from(["equal", "low slots cancel", "other"]))
    if shape == "equal":
        dd = {s: v for s, v in dc.items() if s < prec_d}
    elif shape == "low slots cancel":
        cut = draw(st.integers(-61, 30))
        dd = {s: v for s, v in dc.items() if s < min(cut, prec_d)}
        dd.update(terms(prec_d, cut, prec_d))
    else:
        dd = cover(prec_d)
    return L.from_dict(spec, dc, prec_c), L.from_dict(spec, dd, prec_d)


@given(as_differences())
def test_canonicalising_a_difference_on_rows(cd):
    # as_iso_witness canonicalises the series c - d, whose lowest slots may
    # cancel, on its rows: the form and the witness are the reference's
    c, d = cd
    assert result(lambda: _canonicalize_with_witness(c - d)) == result(
        lambda: schoolbook.canonicalize_with_witness(c - d)
    )


# -- the parser ------------------------------------------------------------------


def parsed(fn):
    """fn's value, or the type, message and offset of the error it raised."""
    try:
        return fn()
    except (FtkError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


# the last two have no tables: a parse needs none
PARSE_FIELDS = [field(5), field(7), field(2, 2), field(3, 2), field(2, 8), field(2, 20), field(2**31 - 1)]
# small coefficients, multi-digit ones above p, and ones above 2^64
_int = st.one_of(st.integers(0, 12), st.integers(13, 10**12), st.integers(2**64, 2**80)).map(str)
_gap = st.sampled_from(["", "", " ", "  ", "\t"])
_FLIP = {"+": "-", "-": "+"}


@st.composite
def series_text(draw, cancel=False):
    """A text of the series grammar, with optional spacing and signs; some
    terms are repeated with the opposite sign, the lowest term among them
    at times, and with ``cancel`` every term is."""
    spec = draw(st.sampled_from(PARSE_FIELDS))

    def monomial():
        out = draw(st.one_of(st.just(""), _int))
        if spec.e > 1 and draw(st.booleans()):
            out += (draw(st.sampled_from(["", "*", " "])) if out else "") + "g"
            if draw(st.booleans()):
                k = draw(st.one_of(st.integers(-1, 9), st.integers(10, 10**6)))
                out += "^" + str(k)
        return out or "1"

    terms = []  # (sign, text, exponent)
    for _ in range(draw(st.integers(1, 5))):
        coeff = monomial()
        if spec.e > 1 and draw(st.integers(0, 3)) == 0:
            for _ in range(draw(st.integers(1, 3))):
                coeff += draw(st.sampled_from(["+", "-", " + ", " - "])) + monomial()
            coeff = "(" + coeff + ")"
        shape = draw(st.sampled_from(["coeff", "t", "coeff*t"]))
        t, exp = "t", 1
        if draw(st.integers(0, 4)):
            sign = draw(st.sampled_from(["", "", "-", "+", " "]))
            exp = draw(st.integers(0, 40))
            t += "^" + sign + str(exp)
            exp = -exp if sign == "-" else exp
        if shape == "coeff":
            term, exp = coeff, 0
        elif shape == "t":
            term = t
        else:
            term = coeff + draw(st.sampled_from(["*", "", " * ", "* "])) + t
        terms.append((draw(st.sampled_from(["+", "-"])), term, exp))
    if cancel:
        terms += [(_FLIP[sign], term, exp) for sign, term, exp in terms]
    elif draw(st.booleans()):
        lowest = min(terms, key=lambda term: term[2])
        sign, term, exp = draw(st.sampled_from([lowest] + terms))
        terms.append((_FLIP[sign], term, exp))
    if len(terms) > 1:
        terms = draw(st.permutations(terms))
    sign, first, _ = terms[0]
    text = first if sign == "+" else draw(st.sampled_from(["-", " -"])) + first
    for sign, term, _ in terms[1:]:
        text += draw(_gap) + sign + draw(_gap) + term
    return spec, draw(_gap) + text + draw(_gap)


# single characters for the mutations: the grammar's, spacing, a letter
# outside it, and digits that are not ASCII ('²' is a digit but not a
# decimal, which int() refuses; '٣' is the Arabic-Indic 3)
_MUTANT = st.sampled_from(list("tg^*()+-0123456789 x") + ["\t", "\x1c", "\u00a0", "²", "٣"])


@st.composite
def mutated(draw, texts):
    spec, text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        ch = draw(_MUTANT) if op != "delete" else ""
        text = text[:i] + ch + text[i + (op != "insert") :]
    return spec, text


def _refused_run(text: str) -> int:
    """Where the first run of digits (str.isdigit) that int() refuses starts."""
    at = 0
    for is_digit, run in groupby(text, str.isdigit):
        run = "".join(run)
        if is_digit:
            try:
                int(run)
            except ValueError:
                return at
        at += len(run)
    raise AssertionError(f"no refused run of digits in {text!r}")


def scanned(fn, text):
    """The reference's outcome, where its ValueError (int() refusing a run
    of digits) reads as the parser's ParseError at the start of that run."""
    out = parsed(fn)
    if isinstance(out, tuple) and out[0] is ValueError:
        at = _refused_run(text)
        return ParseError, f"expected an integer (at offset {at})", at
    return out


@given(st.one_of(series_text(), series_text(cancel=True), mutated(series_text())))
@example((field(5), "t^-²"))
@example((field(5), "3²*t + 1"))
@example((field(2, 2), "(g + 2²)*t^3"))
@example((field(7), "t^" + "1" * 4301))
@example((field(7), "2 + " + "3" * 4301 + "*t"))
def test_parser_matches_the_scanner(spec_text):
    spec, text = spec_text
    for prec in (None, 40, 0, -3):
        assert parsed(lambda: parse_series(text, spec, prec)) == scanned(
            lambda: schoolbook.scan_series(text, spec, prec), text
        )
    assert parsed(lambda: parse_field_elem(text, spec)) == scanned(
        lambda: schoolbook.scan_field_elem(text, spec), text
    )

