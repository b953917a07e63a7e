"""Tame cyclic covers Y^n = b of Spec F_q((t)), gcd(n, p) = 1.

An invertible series decomposes as b = (lead) t^i (1-unit) after the
nilpotent tail is stripped; the 1-unit factor is always an n-th power
(Hensel), so the class of the cover is exactly (i mod n, lead mod n-th
powers).  A witness u with u^n b = b' is a power of t times the Hensel
root of the unit ratio, whose leading coefficient is the canonical n-th
root of the ratio of the leading coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_census, check_tame_order
from .fields import FieldSpec, nth_power_class
from .series import LaurentSeries


@dataclass(frozen=True)
class KummerClass:
    """(valuation mod n, unit class): the complete invariant of the cover."""

    spec: FieldSpec
    n: int
    q_exp: int
    unit_class: int

    def __post_init__(self):
        if not 0 <= self.q_exp < self.n:
            raise DomainError("q_exp must lie in 0..n-1")

    def to_json(self) -> dict:
        return {"n": self.n, "q_exp": self.q_exp, "unit_class": self.unit_class}


def kummer_canonicalize(b: LaurentSeries, n: int) -> KummerClass:
    ring = b.ring
    check_tame_order(ring.p, n)
    i = b.unit_ord()
    lead = b.coeff(i)
    cls = KummerClass(ring.base, n, i % n, nth_power_class(lead.residue(), n))
    if not isinstance(ring, FieldSpec):
        # over a field Hensel always roots the 1-unit factor b / (lead t^i);
        # over a test ring the nilpotent tail can exhaust the window, so
        # certify it
        b.scale(lead.inverse()).shift(-i).nth_root_unit(n)
    return cls


def kummer_iso_witness(b: LaurentSeries, b2: LaurentSeries, n: int):
    """A unit u with u^n * b = b2 (mod precision), or None.

    Fails fast when the unit orders disagree mod n, before any root
    extraction.
    """
    if b.ring != b2.ring:
        raise DomainError("covers over different rings")
    check_tame_order(b.ring.p, n)
    i, i2 = b.unit_ord(), b2.unit_ord()
    if (i2 - i) % n:
        return None
    lead, lead2 = b.coeff(i), b2.coeff(i2)
    res, res2 = lead.residue(), lead2.residue()
    if nth_power_class(res, n) != nth_power_class(res2, n):
        return None
    # the ratio has unit order 0 and leading coefficient lead2 / lead, whose
    # residue is an n-th power; nth_root_unit roots it, nilpotent part too
    ratio = b2.shift(-i2) * b.shift(-i).invert()
    return ratio.nth_root_unit(n).shift((i2 - i) // n)


def kummer_class_count(spec: FieldSpec, n: int) -> int:
    """n * gcd(n, q-1), the number of classes enumerate_kummer_classes
    lists, in closed form."""
    check_tame_order(spec.p, n)
    return n * math.gcd(n, spec.q - 1)


def enumerate_kummer_classes(spec: FieldSpec, n: int):
    """All n * gcd(n, q-1) classes, ordered numerically by (q_exp,
    unit_class).  The CSV census lists the same classes in the order of
    their JSON text, which ``kummer_class_texts`` gives; the two orders
    part once n or gcd(n, q-1) passes 10 (q_exp 10 comes before 2)."""
    check_tame_order(spec.p, n)
    d = math.gcd(n, spec.q - 1)
    return [
        KummerClass(spec, n, q_exp, uc)
        for q_exp in range(n)
        for uc in range(d)
    ]


def kummer_class_texts(spec: FieldSpec, n: int):
    """The JSON text ``{"n": N, "q_exp": A, "unit_class": C}`` of every
    class, as ``json.dumps(cls.to_json(), sort_keys=True)`` writes it, in
    sorted text order, built straight from the (A, C) grid.

    Every text is a head ``{"n": N, "q_exp": A, "unit_class": `` followed
    by a tail ``C}``.  Two heads share the prefix up to A and differ at or
    before the comma that ends A: where one decimal is a prefix of the
    other, a comma meets a digit, and a comma sorts below every digit.  So
    no head is a prefix of another, and two texts compare as their heads
    unless the heads are equal, then as their tails.  The texts in order
    are therefore each sorted head followed by each sorted tail.  A brace
    sorts above every digit, so the tail of 50 comes before that of 5.

    The tame order and the census bound are checked before the first
    text; the texts come lazily.
    """
    check_census(kummer_class_count(spec, n))
    heads = sorted(f'{{"n": {n}, "q_exp": {a}, "unit_class": ' for a in range(n))
    tails = sorted(f"{c}}}" for c in range(math.gcd(n, spec.q - 1)))
    return (head + tail for head in heads for tail in tails)
