"""Parser for the series grammar used by the CLI and test fixtures.

    series  :=  term (('+' | '-') term)*
    term    :=  [coeff '*'] 't' '^' exp  |  coeff
    coeff   :=  integer  |  g-monomial  |  '(' g-polynomial ')'
    exp     :=  integer (may be negative)

Prime-field coefficients are integers mod p.  Extension-field coefficients
are polynomials in ``g``; a bare monomial like ``2g^2`` needs no parens,
a sum like ``g^2+2g+1`` must be parenthesised inside a series (standalone
field literals may omit them).  Errors carry character offsets.
"""

from __future__ import annotations

from .errors import ParseError
from .fields import FieldSpec, FqElem
from .series import LaurentSeries


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected '{ch}'", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", self.pos)
        return int(self.text[start : self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_g_monomial(sc: _Scanner, spec: FieldSpec) -> FqElem:
    """[int] ['g' ['^' exp]]: one summand of a g-polynomial, never empty."""
    if not (sc.peek().isdigit() or sc.peek() == "g"):
        raise ParseError("empty summand", sc.pos)
    c = 1
    if sc.peek().isdigit():
        c = sc.integer()
        mark = sc.pos
        if sc.take("*") and sc.peek() != "g":
            sc.pos = mark  # a '*' before anything but g is the term's
    if sc.peek() == "g":
        sc.pos += 1
        e = 1
        if sc.take("^"):
            e = sc.integer()
            if e < 0:
                raise ParseError("negative power of g", sc.pos)
        if spec.e == 1:
            raise ParseError("coefficient uses g but the field is prime", sc.pos)
        # below the degree g^e is the coordinate vector of index p^e
        power = spec.from_index(spec.p**e) if e < spec.e else spec.gen() ** e
        return power.scale(c)
    return spec.from_int(c)


def _parse_g_poly(sc: _Scanner, spec: FieldSpec) -> FqElem:
    total = _parse_g_monomial(sc, spec)
    while True:
        if sc.take("+"):
            total = total + _parse_g_monomial(sc, spec)
        elif sc.peek() == "-":
            sc.pos += 1
            total = total - _parse_g_monomial(sc, spec)
        else:
            return total


def parse_field_elem(text: str, spec: FieldSpec) -> FqElem:
    """A standalone field literal: integer mod p, or a polynomial in g."""
    sc = _Scanner(text)
    if sc.at_end():
        raise ParseError("empty coefficient", 0)
    value = _parse_g_poly(sc, spec)
    if not sc.at_end():
        raise ParseError("trailing input after coefficient", sc.pos)
    return value


def _parse_coeff(sc: _Scanner, spec: FieldSpec) -> FqElem:
    if sc.take("("):
        value = _parse_g_poly(sc, spec)
        sc.expect(")")
        return value
    return _parse_g_monomial(sc, spec)


def _parse_term(sc: _Scanner, spec: FieldSpec):
    """Returns (exponent, coefficient)."""
    if sc.peek() == "t":
        coeff = spec.one()
    else:
        coeff = _parse_coeff(sc, spec)
        if not sc.take("*"):
            # bare coefficient term
            if sc.peek() != "t":
                return 0, coeff
    if sc.peek() != "t":
        raise ParseError("expected 't'", sc.pos)
    sc.pos += 1
    exp = 1
    if sc.take("^"):
        exp = sc.integer()
    return exp, coeff


def parse_series(text: str, spec: FieldSpec, prec: int = None) -> LaurentSeries:
    """Parse per the series grammar; exact, with explicit precision window."""
    sc = _Scanner(text)
    if sc.at_end():
        raise ParseError("empty series", 0)
    support: dict = {}
    sign = 1
    if sc.take("-"):
        sign = -1
    while True:
        exp, coeff = _parse_term(sc, spec)
        if sign < 0:
            coeff = -coeff
        if exp in support:
            support[exp] = support[exp] + coeff
        else:
            support[exp] = coeff
        if sc.at_end():
            break
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", sc.pos)
    support = {e: c for e, c in support.items() if not c.is_zero()}
    if prec is None:
        top = max(support) if support else 0
        bottom = min(support) if support else 0
        from .series import default_prec

        prec = max(top + 1, default_prec(max(0, -bottom)))
    return LaurentSeries.from_dict(spec, support, prec)


def render_series(s: LaurentSeries) -> str:
    """Inverse of parse_series on the support (precision not encoded)."""
    return str(s)
