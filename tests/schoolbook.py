"""Schoolbook reference for the series product, inverse and Hensel root,
and for the roots of unity of a field.

These are the quadratic coefficient loops and the full-window Newton
iteration that ``ftk.series`` used before it moved to Kronecker products
and precision-doubling Newton.  They are kept here, written against the
public LaurentSeries fields only, so the property tests can require the
fast paths to return the same ``(val, prec, coeffs)`` and raise the same
exceptions.  ``nth_roots_of_unity`` is the scan over every element that
``ftk.fields`` used before it read the roots from its power table.
"""

from __future__ import annotations

import math

from ftk.errors import DomainError, PrecisionExhausted
from ftk.series import LaurentSeries


def nth_roots_of_unity(spec, n: int):
    """All xi in F_q with xi^n = 1, in index order, by raising every element."""
    return [a for a in spec.elements() if not a.is_zero() and a**n == spec.one()]


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    if a.ring != b.ring:
        raise DomainError("series over different rings")
    prec = min(a.eff_val + b.prec, b.eff_val + a.prec)
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero(a.ring, prec)
    lo = a.val + b.val
    out = [a.ring.zero()] * (prec - lo)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            e = a.val + i + b.val + j
            if e >= prec:
                break
            if not y.is_zero():
                out[e - lo] = out[e - lo] + x * y
    return LaurentSeries.make(a.ring, lo, prec, out)


def power(a: LaurentSeries, n: int) -> LaurentSeries:
    """a**n for n >= 0."""
    if n == 0:
        return LaurentSeries.constant(a.ring.one(), max(a.prec, 1))
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def invert_unit_led(ring, coeffs):
    """Inverse of sum coeffs[k] t^k with coeffs[0] a unit, same length."""
    c0_inv = coeffs[0].inverse()
    n = len(coeffs)
    out = [c0_inv] + [ring.zero()] * (n - 1)
    for k in range(1, n):
        s = ring.zero()
        for j in range(1, k + 1):
            s = s + coeffs[j] * out[k - j]
        out[k] = -(c0_inv * s)
    return out


def invert(a: LaurentSeries) -> LaurentSeries:
    i = a.unit_ord()
    inv_unit = invert_unit_led(a.ring, [a.coeff(e) for e in range(i, a.prec)])
    inv = LaurentSeries.make(a.ring, -i, -i + len(inv_unit), inv_unit)
    if i == a.val:
        return inv
    head_coeffs = [a.coeff(e) for e in range(a.val, i)]
    head = LaurentSeries.make(
        a.ring, a.val, a.prec, head_coeffs + [a.ring.zero()] * (a.prec - i)
    )
    acc = inv
    term = inv
    for _ in range(a.ring.m - 1):
        term = -mul(term, mul(head, inv))
        acc = acc + term
        if term.is_zero():
            break
    return acc


def canonical_nth_root(c, n: int):
    """The smallest r (enumeration order) with r^n = c, by scanning F_q."""
    best = None
    for r in c.spec.elements():
        if r**n == c and (best is None or r.index < best.index):
            best = r
    if best is None:
        raise DomainError(f"{c} is not an n-th power for n = {n}")
    return best


def nth_root_unit(a: LaurentSeries, n: int) -> LaurentSeries:
    if math.gcd(n, a.ring.p) != 1:
        raise DomainError("n must be invertible: gcd(n, p) = 1")
    if a.unit_ord() != 0:
        raise DomainError("nth_root_unit needs unit order 0")
    lead = a.coeff(0)
    r0 = a.ring.from_field(canonical_nth_root(lead.residue(), n))
    if r0**n != lead:
        n_elem = a.ring.from_int(n)
        for _ in range(a.ring.m):
            r0 = r0 - (r0**n - lead) * (n_elem * r0 ** (n - 1)).inverse()
        if r0**n != lead:
            raise DomainError("leading coefficient is not an n-th power")
    g = LaurentSeries.constant(r0, a.prec)
    n_scalar = a.ring.from_int(n)
    for _ in range(a.prec.bit_length() + 3):
        err = power(g, n) - a
        if err.is_zero():
            return g
        deriv = power(g, n - 1).scale(n_scalar)
        g = g - mul(err, invert(deriv))
    raise PrecisionExhausted("Newton iteration failed to converge")

