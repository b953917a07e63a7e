"""Tame cyclic covers Y^n = b of Spec F_q((t)), gcd(n, p) = 1.

An invertible series decomposes as b = (lead) t^i (1-unit) after the
nilpotent tail is stripped; the 1-unit factor is always an n-th power
(Hensel), so the class of the cover is exactly (i mod n, lead mod n-th
powers).  Witnesses u with u^n b = b' are assembled from a power of t,
a canonical constant root, and the Hensel root of the 1-unit ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_tame_order
from .fields import (
    FieldSpec,
    canonical_nth_root,
    nth_power_class,
)
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

    def sort_key(self):
        return (self.q_exp, self.unit_class)

    def to_json(self) -> dict:
        return {"n": self.n, "q_exp": self.q_exp, "unit_class": self.unit_class}


def kummer_canonicalize(b: LaurentSeries, n: int) -> KummerClass:
    ring = b.ring
    check_tame_order(ring.p, n)
    i = b.unit_ord()
    lead = b.coeff(i)
    cls = KummerClass(ring.base, n, i % n, nth_power_class(lead.residue(), n))
    if not isinstance(ring, FieldSpec):
        # over a field Hensel always roots the 1-unit factor; over a test
        # ring the nilpotent tail can exhaust the window, so certify it
        _strip_to_one_unit(b, i, lead).nth_root_unit(n)
    return cls


def _strip_to_one_unit(b: LaurentSeries, i: int, lead) -> LaurentSeries:
    """b / (lead t^i), a series with unit order 0 and leading coefficient 1
    modulo the nilpotent tail (exactly 1 over a field).

    The monomial divisor is exact, so its window is chosen to preserve all
    of b's precision in the product."""
    mono = LaurentSeries.monomial(lead.inverse(), -i, b.prec - i - b.eff_val)
    return b * mono


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
    k = (i2 - i) // n
    const_root = b.ring.from_field(canonical_nth_root(res2 * res.inverse(), n))
    ratio = _strip_to_one_unit(b2, i2, lead2) * _strip_to_one_unit(b, i, lead).invert()
    root = ratio.nth_root_unit(n)
    u = root.scale(const_root).shift(k)
    return u


def kummer_class_count(spec: FieldSpec, n: int) -> int:
    """n * gcd(n, q-1), the number of classes enumerate_kummer_classes
    lists, in closed form."""
    check_tame_order(spec.p, n)
    return n * math.gcd(n, spec.q - 1)


def enumerate_kummer_classes(spec: FieldSpec, n: int):
    """All n * gcd(n, q-1) classes, ordered by (q_exp, unit_class)."""
    check_tame_order(spec.p, n)
    d = math.gcd(n, spec.q - 1)
    return [
        KummerClass(spec, n, q_exp, uc)
        for q_exp in range(n)
        for uc in range(d)
    ]
