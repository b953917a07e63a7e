"""Exception hierarchy shared across the package.

CLI exit codes map onto these: ParseError -> 1, DomainError -> 2,
OracleMismatch -> 3.  PrecisionExhausted signals that a truncated series
window is too small to certify the requested computation.  The argument
checks below are shared by the structured paths and the oracles, so a bad
argument gets one message whichever path meets it first.
"""

# the most classes a census lists: count-as F_2 at m = 30, with 65536
# classes, is the largest one the tests run
MAX_CENSUS = 2**16


class FtkError(Exception):
    pass


class ParseError(FtkError):
    """Syntax or literal error in textual input, with a character offset."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(FtkError):
    """Input outside an operation's mathematical domain."""


class NotInvertible(DomainError):
    pass


class PrecisionExhausted(FtkError):
    pass


class OracleMismatch(FtkError):
    pass


def check_break_bound(m: int):
    if m < 0:
        raise DomainError("break bound must be >= 0")


def check_tame_order(p: int, n: int):
    if n < 1:
        raise DomainError("n must be >= 1")
    if n % p == 0:
        raise DomainError(f"n = {n} is divisible by the characteristic")


def check_census(count: int):
    """Refuse a census of more than MAX_CENSUS classes, before any is built."""
    if count > MAX_CENSUS:
        raise DomainError(f"census scale exceeded: more than {MAX_CENSUS} classes to walk")
