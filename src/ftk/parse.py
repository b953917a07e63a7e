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
tokens, each a run of digits or one other non-space character, kept as a
list of strings with "" as the end marker.  A recursive descent then walks
that list, its position a local integer passed from function to function.
The whitespace is read in two places only.  A sign joins the digits of an
exponent when nothing parts them: a text in which whitespace follows an
exponent's sign is rare (the regex ``_PARTED_SIGN`` finds it), and there
the run of digits after such a sign is blanked to spaces of its length,
so that the descent reads no integer there.  And an error's offset is
found by walking the text token by token, skipping whitespace before
each, only when the error is raised.  Offsets are preserved: an error
reports the offset of the next token (the length of the text at the end),
or, after a sign or an exponent, the character right after what was read,
which is what a scan character by character, skipping whitespace before
each look, reports.  A run of digits that ``int()`` cannot read, because
it holds a digit that is not a decimal (such as '²') or more digits than
``int()`` reads (4300 by default), is "expected an integer" at the start
of the run.

``parse_series`` builds no field element.  A coefficient is a digit row, a
list of its e coordinates in g^0 .. g^(e-1) as plain integers: a summand
c g^k adds c at digit k when k < e, and c times the digits of g^k mod the
modulus otherwise (``fields.power`` on digit rows).  A term's sign is
carried into its summands, and the rows of a repeated exponent are summed
digit by digit, so a text is read with integer additions only.  Each
exponent's row is reduced mod p once; zero rows are dropped, the window
is one list of the ring's zero row with each nonzero row in its slot, and
``LaurentSeries.of_rows`` takes that window as it is.  Only
``parse_field_elem``, which returns an element, calls ``from_digits``.
"""

from __future__ import annotations

import re

from .errors import DomainError, ParseError, PrecisionExhausted
from .fields import FieldSpec, FqElem, power
from .series import LaurentSeries, default_prec

# one match per token: a run of digits or one other non-space character
_TOKEN = re.compile(r"\d+|\S")
_SPACE = re.compile(r"\s*")
# an exponent's sign with whitespace after it
_PARTED_SIGN = re.compile(r"\^\s*[+-]\s")

# the widest window, prec minus the lowest exponent, that a parsed series
# may span: kummer-iso over F_256, n = 3, with a t^-3 pole on both sides
# takes 0.3 s at --prec 1024 and 1.3 s at --prec 4093, the widest window
# admitted (as-iso 0.1 s at each), on a 2-core host with CPython 3.11; the
# widest golden classify window is 1061
MAX_WINDOW = 2**12


def _tokens(text: str) -> list:
    """The tokens of text, then the end marker ""."""
    pattern = _TOKEN
    if not text.isascii():
        # str.isdigit also holds for a few non-decimal digits such as '²':
        # they join a run of digits, which is then refused as an integer
        odd = {c for c in text if c.isdigit() and not c.isdecimal()}
        if odd:
            pattern = re.compile(r"[\d%s]+|\S" % re.escape("".join(sorted(odd))))
    toks = pattern.findall(text)
    toks.append("")
    if _PARTED_SIGN.search(text):
        # blank each run of digits that whitespace parts from an
        # exponent's sign, keeping its length for the offsets
        pos = 0
        for i, tok in enumerate(toks[:-1]):
            pos = _SPACE.match(text, pos).end() + len(tok)
            after = toks[i + 1]
            if (tok == "+" or tok == "-") and i and toks[i - 1] == "^" and after.isdigit():
                if _SPACE.match(text, pos).end() > pos:
                    toks[i + 1] = " " * len(after)
    return toks


def _end(text: str, toks: list, i: int) -> int:
    """Where token i - 1 ends (0 for i = 0)."""
    pos = 0
    for tok in toks[:i]:
        pos = _SPACE.match(text, pos).end() + len(tok)
    return pos


def _offset(text: str, toks: list, i: int) -> int:
    """Where token i starts; the text's length at the end marker."""
    return _SPACE.match(text, _end(text, toks, i)).end()


def _integer(text: str, toks: list, i: int):
    """(value, position after it) of the digits at token i, with a sign
    right before them if there is one."""
    sign = toks[i]
    if sign == "+" or sign == "-":
        at = i + 1
        tok = toks[at]
    else:
        at, sign, tok = i, "", sign
    if not tok.isdigit():
        raise ParseError("expected an integer", _offset(text, toks, i) + len(sign))
    try:
        return int(sign + tok), at + 1
    except ValueError:
        # a digit that is not a decimal, such as '²', or more digits than
        # int() reads
        raise ParseError("expected an integer", _offset(text, toks, at)) from None


def _g_power(spec: FieldSpec, k: int) -> tuple:
    """The digit row of g^k, a power of digit rows after reducing k mod
    q - 1 (g^(q-1) = 1)."""
    k %= spec.q - 1
    zeros = (0,) * (spec.e - 2)
    if not k:
        return (1, 0) + zeros
    return power((0, 1) + zeros, k, lambda a, b: spec.digit_product([a], [b], 1)[0])


def _g_monomial(text: str, toks: list, i: int, spec: FieldSpec, row: list, c: int) -> int:
    """Adds c times the summand [int] ['g' ['^' exp]] at token i, never
    empty, into the digit row; returns the position after it."""
    tok = toks[i]
    if tok != "g":
        if not tok.isdigit():
            raise ParseError("empty summand", _offset(text, toks, i))
        try:
            c *= int(tok)
        except ValueError:
            raise ParseError("expected an integer", _offset(text, toks, i)) from None
        i += 1
        if toks[i] != "g":
            if toks[i] != "*" or toks[i + 1] != "g":
                # a '*' before anything but g is the term's
                row[0] += c
                return i
            i += 1
    i += 1
    k = 1
    caret = toks[i] == "^"
    if caret:
        k, i = _integer(text, toks, i + 1)
        if k < 0:
            raise ParseError("negative power of g", _end(text, toks, i))
    if spec.e == 1:
        at = _end(text, toks, i) if caret else _offset(text, toks, i)
        raise ParseError("coefficient uses g but the field is prime", at)
    if k < spec.e:
        row[k] += c
    else:
        for j, d in enumerate(_g_power(spec, k)):
            row[j] += c * d
    return i


def _g_poly(text: str, toks: list, i: int, spec: FieldSpec, row: list, sign: int) -> int:
    """Adds sign times the g-polynomial at token i into the digit row;
    returns the position after it."""
    i = _g_monomial(text, toks, i, spec, row, sign)
    while True:
        tok = toks[i]
        if tok == "+":
            i = _g_monomial(text, toks, i + 1, spec, row, sign)
        elif tok == "-":
            i = _g_monomial(text, toks, i + 1, spec, row, -sign)
        else:
            return i


def parse_field_elem(text: str, spec: FieldSpec) -> FqElem:
    """A standalone field literal: integer mod p, or a polynomial in g."""
    toks = _tokens(text)
    if not toks[0]:
        raise ParseError("empty coefficient", 0)
    row = [0] * spec.e
    i = _g_poly(text, toks, 0, spec, row, 1)
    if toks[i]:
        raise ParseError("trailing input after coefficient", _offset(text, toks, i))
    p = spec.p
    row = tuple([d % p for d in row])
    return spec.from_digits(row) if any(row) else spec.zero()


def _term(text: str, toks: list, i: int, spec: FieldSpec, sign: int):
    """(exponent, digit row, position after it) of sign times the term at
    token i."""
    row = [0] * spec.e
    tok = toks[i]
    if tok == "t":
        row[0] = sign
    else:
        if tok == "(":
            i = _g_poly(text, toks, i + 1, spec, row, sign)
            if toks[i] != ")":
                raise ParseError("expected ')'", _offset(text, toks, i))
            i += 1
        else:
            i = _g_monomial(text, toks, i, spec, row, sign)
        tok = toks[i]
        if tok == "*":
            i += 1
            tok = toks[i]
        elif tok != "t":
            # bare coefficient term
            return 0, row, i
        if tok != "t":
            raise ParseError("expected 't'", _offset(text, toks, i))
    if toks[i + 1] == "^":
        exp, i = _integer(text, toks, i + 2)
        return exp, row, i
    return 1, row, i + 1


def parse_series(text: str, spec: FieldSpec, prec: int = None) -> LaurentSeries:
    """Parse per the series grammar; exact, with explicit precision window."""
    toks = _tokens(text)
    if not toks[0]:
        raise ParseError("empty series", 0)
    rows: dict = {}
    sign, i = (-1, 1) if toks[0] == "-" else (1, 0)
    while True:
        exp, row, i = _term(text, toks, i, spec, sign)
        if exp in rows:
            rows[exp] = [a + b for a, b in zip(rows[exp], row)]
        else:
            rows[exp] = row
        tok = toks[i]
        if not tok:
            break
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", _offset(text, toks, i))
        i += 1
    p = spec.p
    support = {}
    for exp, row in rows.items():
        row = tuple([d % p for d in row])
        if any(row):
            support[exp] = row
    bottom = min(support) if support else 0
    top = max(support) if support else 0
    if prec is None:
        prec = max(top + 1, default_prec(max(0, -bottom)))
    if prec - bottom > MAX_WINDOW:
        raise DomainError(f"series window too wide: {prec - bottom} coefficients, limit {MAX_WINDOW}")
    if not support:
        return LaurentSeries.zero(spec, prec)
    if top >= prec:
        raise PrecisionExhausted("support exceeds precision window")
    rows = [spec.zero().coords] * (prec - bottom)
    for exp, row in support.items():
        rows[exp - bottom] = row
    return LaurentSeries.of_rows(spec, bottom, prec, rows)

