import random

import pytest

from ftk.errors import ParseError, PrecisionExhausted
from ftk.fields import field
from ftk.parse import parse_field_elem, parse_series, render_series
from ftk.series import LaurentSeries as L


F5 = field(5)
F4 = field(2, 2)


def test_basic_series():
    s = parse_series("t^-7 + 3*t^-2 + 1", F5)
    assert s.val == -7
    assert s.support() == {-7: F5.one(), -2: F5.from_int(3), 0: F5.one()}


def test_extension_coefficient():
    s = parse_series("g^2*t^-1", F4)
    g = F4.gen()
    assert s.support() == {-1: g * g}


def test_parenthesised_coefficient():
    F9 = field(3, 2)
    s = parse_series("(g^2+2g+1)*t^-1", F9)
    g = F9.gen()
    assert s.support() == {-1: g * g + g.scale(2) + F9.one()}


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_series("t^", F5)
    assert exc.value.offset == 2


def test_bad_trailing_input():
    with pytest.raises(ParseError):
        parse_series("7*q", F5)


def test_coefficient_not_in_ring():
    with pytest.raises(ParseError):
        parse_series("g*t", F5)  # prime field has no g


def test_minus_signs():
    s = parse_series("-t^2 + 2 - t^-1", F5)
    assert s.support() == {
        2: F5.from_int(4),
        0: F5.from_int(2),
        -1: F5.from_int(4),
    }


@pytest.mark.parametrize(
    "text, offset",
    [
        ("t^-3 +", 6), ("2*t -", 5), ("t + -1", 4), ("(g+)*t", 3), ("(+g)*t", 1),
        ("3*", 2), ("t + 2*", 6), ("3*+t", 2),
    ],
)
def test_empty_summand_is_an_error(text, offset):
    # a dangling sign leaves an empty summand, which is not the coefficient 1;
    # a dangling '*' leaves a term without its t
    with pytest.raises(ParseError) as exc:
        parse_series(text, F4 if "g" in text else F5)
    assert exc.value.offset == offset


def test_repeated_exponent_accumulates():
    s = parse_series("t + t + t", F5)
    assert s.support() == {1: F5.from_int(3)}


def test_field_literal():
    F9 = field(3, 2)
    assert parse_field_elem("g^2+2g+1", F9) == F9.gen() ** 2 + F9.gen().scale(2) + F9.one()
    assert parse_field_elem("4", F5) == F5.from_int(4)
    with pytest.raises(ParseError):
        parse_field_elem("", F5)


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (3, 3), (2, 8)])
def test_g_power_literal_equals_the_power(p, e):
    # below the degree the parser reads g^k as a coordinate vector
    spec = field(p, e)
    for k in range(2 * e):
        assert parse_field_elem(f"g^{k}", spec) == spec.gen() ** k
        assert parse_field_elem(f"2g^{k}", spec) == (spec.gen() ** k).scale(2)


def test_roundtrip_random():
    rng = random.Random(77)
    for _ in range(100):
        spec = [F5, F4, field(3)][rng.randrange(3)]
        d = {}
        for e in range(-6, 7):
            if rng.random() < 0.4:
                d[e] = spec.from_index(rng.randrange(1, spec.q))
        s = L.from_dict(spec, d, 20)
        back = parse_series(render_series(s), spec, prec=20)
        assert back == s


def test_zero_renders_and_parses():
    s = L.zero(F5, 8)
    assert render_series(s) == "0"
    assert parse_series("0", F5, prec=8).is_zero()



# texts over prime fields and extensions: bare and parenthesised
# coefficients, g^k below and above the degree, signs, repeated and
# cancelling exponents, coefficients above p and above 2^64
GUARD_TEXTS = [
    (field(2), "1*t^-9 + 1*t^-7 + t^-7 + 1*t^3 - t"),
    (field(5), "-3*t^-4 + 2 - t^-1 + 7*t^-4 + 18446744073709551621*t^2"),
    (field(2, 2), "(g+1)*t^-3 + g^2*t^-1 - (g^2 + g)*t^-1 + 2g*t"),
    (field(3, 2), "(2g+2)*t^-5 - g^7*t^-2 + g^7*t^-2 + (g - 4g^3)*t^4"),
    (field(2, 8), "(g^7+g^5+g+1)*t^-13 + g^300*t^-2 + (g^8 + g^255)*t + g^6*t^-13"),
    (field(2, 20), "g^19*t^-3 + (g^20 + g^1048575)*t^-2 + 5g*t"),
    (field(2**31 - 1), "2147483648*t^-2 - 2147483646*t^-2 + 3*t^-1 + 99999999999999999999"),
]
# texts whose every coefficient cancels
ZERO_TEXTS = [
    (field(5), "3*t^-2 - 3*t^-2 + 5*t"),
    (field(2, 8), "(g^255 - 1)*t^-1 + (g^8 - g^8)"),
    (field(3, 2), "g*t^-3 - g*t^-3 + (2g + g)*t^4"),
]


@pytest.mark.parametrize("spec, text", GUARD_TEXTS, ids=[repr(s) for s, _ in GUARD_TEXTS])
def test_parsing_builds_one_element_per_nonzero_coefficient(from_digits_calls, spec, text):
    # the window goes to the series as digit rows: no element at all, and
    # one per nonzero coefficient only when a caller reads them
    s = parse_series(text, spec)
    assert from_digits_calls == []
    parse_series(text, spec, prec=30)
    assert from_digits_calls == []
    assert len(s.support()) == len(from_digits_calls) > 0


@pytest.mark.parametrize("spec, text", ZERO_TEXTS, ids=[repr(s) for s, _ in ZERO_TEXTS])
def test_a_cancelling_text_builds_no_element(from_digits_calls, spec, text):
    assert parse_series(text, spec).is_zero()
    with pytest.raises(PrecisionExhausted, match="zero to precision 0"):
        parse_series(text, spec, prec=0)
    assert from_digits_calls == []


def test_a_field_literal_is_one_element(from_digits_calls):
    F256 = field(2, 8)
    g7, g300 = F256.gen() ** 7, F256.gen() ** 300
    # -3g^255 + 1 = -2 = 0 in characteristic 2, and a sum of rows is their xor
    expected = tuple(a ^ b for a, b in zip(g7.coords, g300.coords))
    assert parse_field_elem("g^7 + g^300 - 3g^255 + 1", F256).coords == expected
    assert len(from_digits_calls) == 1
    assert parse_field_elem("g^255 - 1", F256).is_zero()
    assert len(from_digits_calls) == 1
