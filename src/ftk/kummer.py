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

from .errors import DomainError
from .fields import (
    FieldSpec,
    canonical_nth_root,
    nth_power_class,
    nth_roots_of_unity,
)
from .series import LaurentSeries


def _check_tame(spec, n: int):
    if n < 1:
        raise DomainError("n must be >= 1")
    if math.gcd(n, spec.p if hasattr(spec, "p") else spec.char) != 1:
        raise DomainError(f"n = {n} is divisible by the characteristic")


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
    _check_tame(ring, n)
    i = b.unit_ord()
    lead = b.coeff(i)
    residue = lead.residue() if hasattr(lead, "residue") else lead
    spec = ring.base if hasattr(ring, "base") else ring
    cls = KummerClass(spec, n, i % n, nth_power_class(residue, n))
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
    _check_tame(b.ring, n)
    i, i2 = b.unit_ord(), b2.unit_ord()
    if (i2 - i) % n:
        return None
    lead, lead2 = b.coeff(i), b2.coeff(i2)
    res = lead.residue() if hasattr(lead, "residue") else lead
    res2 = lead2.residue() if hasattr(lead2, "residue") else lead2
    if nth_power_class(res, n) != nth_power_class(res2, n):
        return None
    k = (i2 - i) // n
    const_root = canonical_nth_root(
        res2 * res.inverse(), n
    )
    if hasattr(lead, "residue"):
        const_root = b.ring.from_field(const_root)
    ratio = _strip_to_one_unit(b2, i2, lead2) * _strip_to_one_unit(b, i, lead).invert()
    root = ratio.nth_root_unit(n)
    u = root.scale(const_root).shift(k)
    return u


def kummer_automorphisms(spec: FieldSpec, n: int):
    """mu_n(F_q): all xi with xi^n = 1; there are gcd(n, q-1)."""
    return nth_roots_of_unity(spec, n)


def enumerate_kummer_classes(spec: FieldSpec, n: int):
    """All n * gcd(n, q-1) classes, ordered by (q_exp, unit_class)."""
    _check_tame(spec, n)
    d = math.gcd(n, spec.q - 1)
    return [
        KummerClass(spec, n, q_exp, uc)
        for q_exp in range(n)
        for uc in range(d)
    ]
