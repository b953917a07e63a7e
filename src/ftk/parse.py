"""Parser for the series grammar used by the CLI and test fixtures.

    series  :=  term (('+' | '-') term)*
    term    :=  [coeff '*'] 't' '^' exp  |  coeff
    coeff   :=  integer  |  g-monomial  |  '(' g-polynomial ')'
    exp     :=  integer (may be negative)

Prime-field coefficients are integers mod p.  Extension-field coefficients
are polynomials in ``g``; a bare monomial like ``2g^2`` needs no parens,
a sum like ``g^2+2g+1`` must be parenthesised inside a series (standalone
field literals may omit them).  Errors carry character offsets.

A text is read in two steps.  One pass of a compiled regex splits it into
tokens, each a run of digits or one other non-space character, and keeps
each with the whitespace before it.  A recursive descent then walks the
token list.  Offsets are preserved: an error reports the offset of the
next token (the length of the text at the end), or, after a sign or an
exponent, the character right after what was read, which is what a scan
character by character, skipping whitespace before each look, reports.
An offset is a sum of token and spacing lengths, computed only when an
error is raised.  A run of digits that ``int()`` cannot read, because it
holds a digit that is not a decimal (such as '²') or more digits than
``int()`` reads (4300 by default), is "expected an integer" at the start
of the run.
"""

from __future__ import annotations

import re

from .errors import DomainError, ParseError
from .fields import FieldSpec, FqElem
from .series import LaurentSeries, default_prec

# one match per token: the whitespace before it, then the token, a run of
# digits or one other non-space character
_TOKEN = re.compile(r"(\s*)(\d+|\S)")

# the widest window, prec minus the lowest exponent, that a parsed series
# may span: kummer-iso over F_256 with a t^-3 pole took 0.5 s at --prec
# 1024, 5.0 s at 4096 and 13.9 s at 8192 (as-iso took 0.14 s at each), on
# a 2-core host with CPython 3.11; the widest golden classify window is 1061
MAX_WINDOW = 2**12


def _tokens(text: str) -> list:
    """The (spacing, token) pairs of text, then the end marker: the trailing
    whitespace and the empty token."""
    pattern = _TOKEN
    if not text.isascii():
        # str.isdigit also holds for a few non-decimal digits such as '²':
        # they join a run of digits, which is then refused as an integer
        odd = {c for c in text if c.isdigit() and not c.isdecimal()}
        if odd:
            pattern = re.compile(r"(\s*)([\d%s]+|\S)" % re.escape("".join(sorted(odd))))
    toks = pattern.findall(text)
    toks.append((text[len(text.rstrip()) :], ""))
    return toks


class _Cursor:
    """The descent's place in the token list.  Offsets are summed from the
    token lengths only when an error needs one."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str:
        """The next token; "" at the end."""
        return self.toks[self.i][1]

    def offset(self, i: int = None) -> int:
        """Where token i starts (default: the next); the text's length at the end."""
        i = self.i if i is None else i
        return sum(len(space) + len(tok) for space, tok in self.toks[:i]) + len(self.toks[i][0])

    def end_of_last(self) -> int:
        """Where the last token read ends."""
        return self.offset(self.i - 1) + len(self.toks[self.i - 1][1])

    def take(self, tok: str) -> bool:
        if self.toks[self.i][1] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str):
        if not self.take(tok):
            raise ParseError(f"expected '{tok}'", self.offset())

    def integer(self) -> int:
        """Digits, with a sign right before them if there is one."""
        start = self.i
        sign = self.peek()
        if sign == "+" or sign == "-":
            self.i += 1
            space, tok = self.toks[self.i]
            if space:
                tok = ""
        else:
            sign, tok = "", sign
        if not tok.isdigit():
            raise ParseError("expected an integer", self.offset(start) + len(sign))
        return self.digits(sign)

    def digits(self, sign: str = "") -> int:
        """The next token, a run of digits, read after sign as an int."""
        try:
            value = int(sign + self.toks[self.i][1])
        except ValueError:
            # a digit that is not a decimal, such as '²', or more digits
            # than int() reads
            raise ParseError("expected an integer", self.offset()) from None
        self.i += 1
        return value

    def at_end(self) -> bool:
        return not self.toks[self.i][1]


def _parse_g_monomial(cur: _Cursor, spec: FieldSpec) -> FqElem:
    """[int] ['g' ['^' exp]]: one summand of a g-polynomial, never empty."""
    tok = cur.peek()
    if not (tok.isdigit() or tok == "g"):
        raise ParseError("empty summand", cur.offset())
    c = 1
    if tok.isdigit():
        c = cur.digits()
        if cur.peek() == "*" and cur.toks[cur.i + 1][1] == "g":
            cur.i += 1  # a '*' before anything but g is the term's
    if cur.peek() != "g":
        return spec.from_int(c)
    cur.i += 1
    e = 1
    caret = cur.take("^")
    if caret:
        e = cur.integer()
        if e < 0:
            raise ParseError("negative power of g", cur.end_of_last())
    if spec.e == 1:
        at = cur.end_of_last() if caret else cur.offset()
        raise ParseError("coefficient uses g but the field is prime", at)
    if e < spec.e:
        # below the degree c g^e is the coordinate vector with c mod p at e
        coords = [0] * spec.e
        coords[e] = c % spec.p
        return spec.from_digits(tuple(coords))
    return (spec.gen() ** e).scale(c)


def _parse_g_poly(cur: _Cursor, spec: FieldSpec) -> FqElem:
    total = _parse_g_monomial(cur, spec)
    while True:
        if cur.take("+"):
            total = total + _parse_g_monomial(cur, spec)
        elif cur.take("-"):
            total = total - _parse_g_monomial(cur, spec)
        else:
            return total


def parse_field_elem(text: str, spec: FieldSpec) -> FqElem:
    """A standalone field literal: integer mod p, or a polynomial in g."""
    cur = _Cursor(text)
    if cur.at_end():
        raise ParseError("empty coefficient", 0)
    value = _parse_g_poly(cur, spec)
    if not cur.at_end():
        raise ParseError("trailing input after coefficient", cur.offset())
    return value


def _parse_coeff(cur: _Cursor, spec: FieldSpec) -> FqElem:
    if cur.take("("):
        value = _parse_g_poly(cur, spec)
        cur.expect(")")
        return value
    return _parse_g_monomial(cur, spec)


def _parse_term(cur: _Cursor, spec: FieldSpec):
    """Returns (exponent, coefficient)."""
    if cur.peek() == "t":
        coeff = spec.one()
    else:
        coeff = _parse_coeff(cur, spec)
        if not cur.take("*"):
            # bare coefficient term
            if cur.peek() != "t":
                return 0, coeff
    if not cur.take("t"):
        raise ParseError("expected 't'", cur.offset())
    exp = 1
    if cur.take("^"):
        exp = cur.integer()
    return exp, coeff


def parse_series(text: str, spec: FieldSpec, prec: int = None) -> LaurentSeries:
    """Parse per the series grammar; exact, with explicit precision window."""
    cur = _Cursor(text)
    if cur.at_end():
        raise ParseError("empty series", 0)
    support: dict = {}
    sign = 1
    if cur.take("-"):
        sign = -1
    while True:
        exp, coeff = _parse_term(cur, spec)
        if sign < 0:
            coeff = -coeff
        if exp in support:
            support[exp] = support[exp] + coeff
        else:
            support[exp] = coeff
        if cur.at_end():
            break
        if cur.take("+"):
            sign = 1
        elif cur.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", cur.offset())
    support = {e: c for e, c in support.items() if not c.is_zero()}
    bottom = min(support) if support else 0
    if prec is None:
        top = max(support) if support else 0
        prec = max(top + 1, default_prec(max(0, -bottom)))
    if prec - bottom > MAX_WINDOW:
        raise DomainError(f"series window too wide: {prec - bottom} coefficients, limit {MAX_WINDOW}")
    return LaurentSeries.from_dict(spec, support, prec)


def render_series(s: LaurentSeries) -> str:
    """Inverse of parse_series on the support (precision not encoded)."""
    return str(s)
