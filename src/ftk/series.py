"""Truncated Laurent series over a FieldSpec or TestRingSpec.

A series is a window of known coefficients: exponents below ``val`` are
known to vanish, exponents in ``[val, prec)`` are stored, exponents at and
above ``prec`` are unknown ("the series is known modulo t^prec").  Every
operation computes the exact precision of its output from the inputs; an
operation whose result window would carry no usable information raises
PrecisionExhausted rather than silently degrading.

Normalisation: a nonzero series has a nonzero lowest stored coefficient
(over a test ring that coefficient may be a nilpotent unit-less element,
but never the ring zero).  The zero-to-precision series stores an empty
coefficient tuple and val = 0, keeping equality of equal series syntactic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NotInvertible, PrecisionExhausted
from .fields import FieldSpec, FqElem, TestRingSpec


@dataclass(frozen=True)
class LaurentSeries:
    ring: object  # FieldSpec or TestRingSpec
    val: int
    prec: int  # exclusive upper bound of the known window
    coeffs: tuple  # ring elements for exponents val .. prec-1; () iff zero

    # -- construction -------------------------------------------------

    @staticmethod
    def make(ring, val: int, prec: int, coeffs) -> "LaurentSeries":
        coeffs = list(coeffs)
        if len(coeffs) != prec - val:
            raise DomainError("coefficient window does not match [val, prec)")
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            val += 1
        if not coeffs:
            if prec <= 0:
                raise PrecisionExhausted(
                    f"zero to precision {prec}: window certifies nothing"
                )
            return LaurentSeries(ring, 0, prec, ())
        return LaurentSeries(ring, val, prec, tuple(coeffs))

    @staticmethod
    def zero(ring, prec: int) -> "LaurentSeries":
        return LaurentSeries.make(ring, prec, prec, ())

    @staticmethod
    def constant(elem, prec: int) -> "LaurentSeries":
        ring = elem.spec
        if prec < 1:
            raise PrecisionExhausted("constant needs prec >= 1")
        coeffs = [elem] + [ring.zero()] * (prec - 1)
        return LaurentSeries.make(ring, 0, prec, coeffs)

    @staticmethod
    def monomial(elem, exp: int, prec: int) -> "LaurentSeries":
        ring = elem.spec
        if prec <= exp:
            raise PrecisionExhausted("monomial exponent outside window")
        coeffs = [elem] + [ring.zero()] * (prec - exp - 1)
        return LaurentSeries.make(ring, exp, prec, coeffs)

    @staticmethod
    def from_dict(ring, d: dict, prec: int) -> "LaurentSeries":
        """Series with support d = {exponent: element}, known mod t^prec."""
        if any(e >= prec for e in d):
            raise PrecisionExhausted("support exceeds precision window")
        if not d:
            return LaurentSeries.zero(ring, prec)
        lo = min(d)
        coeffs = [d.get(i, ring.zero()) for i in range(lo, prec)]
        return LaurentSeries.make(ring, lo, prec, coeffs)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def eff_val(self) -> int:
        """val for precision bookkeeping: prec for the zero series."""
        return self.prec if self.is_zero() else self.val

    def coeff(self, i: int):
        if i >= self.prec:
            raise PrecisionExhausted(f"coefficient at t^{i} is beyond precision {self.prec}")
        if self.is_zero() or i < self.val:
            return self.ring.zero()
        return self.coeffs[i - self.val]

    def support(self) -> dict:
        return {
            self.val + i: c for i, c in enumerate(self.coeffs) if not c.is_zero()
        }

    def _check_ring(self, other: "LaurentSeries"):
        if self.ring != other.ring:
            raise DomainError("series over different rings")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ring(other)
        prec = min(self.prec, other.prec)
        lo = min(self.eff_val, other.eff_val, prec)
        zero = self.ring.zero()
        coeffs = []
        for i in range(lo, prec):
            a = self.coeff(i) if i < self.prec else zero
            b = other.coeff(i) if i < other.prec else zero
            coeffs.append(a + b)
        return LaurentSeries.make(self.ring, lo, prec, coeffs)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.ring, self.val, self.prec, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ring(other)
        prec = min(self.eff_val + other.prec, other.eff_val + self.prec)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.ring, prec)
        lo = self.val + other.val
        zero = self.ring.zero()
        out = [zero] * (prec - lo)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            ea = self.val + i
            for j, b in enumerate(other.coeffs):
                e = ea + other.val + j
                if e >= prec:
                    break
                if not b.is_zero():
                    out[e - lo] = out[e - lo] + a * b
        return LaurentSeries.make(self.ring, lo, prec, out)

    def scale(self, elem) -> "LaurentSeries":
        """Multiply by a ring element (exact; precision unchanged)."""
        if elem.is_zero() or self.is_zero():
            return LaurentSeries.zero(self.ring, self.prec)
        return LaurentSeries.make(
            self.ring, self.val, self.prec, [elem * c for c in self.coeffs]
        )

    def scale_int(self, n: int) -> "LaurentSeries":
        return self.scale(self.ring.from_int(n))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k (exact)."""
        return LaurentSeries(self.ring, self.val + k, self.prec + k, self.coeffs)

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec > self.prec:
            raise PrecisionExhausted("cannot raise precision by truncation")
        if self.is_zero() or prec <= self.val:
            return LaurentSeries.zero(self.ring, prec)
        return LaurentSeries.make(self.ring, self.val, prec, self.coeffs[: prec - self.val])

    def __pow__(self, n: int) -> "LaurentSeries":
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return LaurentSeries.constant(self.ring.one(), max(self.prec, 1))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse to the attainable precision.

        Over a field any nonzero series inverts.  Over a test ring the
        series must show a unit coefficient in its window; the nilpotent
        head below it is stripped with at most m-1 correction rounds.
        """
        i = self.unit_ord()
        unit_part_coeffs = [self.coeff(e) for e in range(i, self.prec)]
        inv_unit = self._invert_unit_led(self.ring, unit_part_coeffs)
        inv = LaurentSeries.make(self.ring, -i, -i + len(inv_unit), inv_unit)
        if i == self.val:
            return inv
        # nilpotent head: a = head + U; a^-1 = U^-1 * sum (-head U^-1)^k
        head_coeffs = [self.coeff(e) for e in range(self.val, i)]
        # pad head window up to self.prec (known exactly there: zeros)
        head = LaurentSeries.make(
            self.ring, self.val, self.prec,
            head_coeffs + [self.ring.zero()] * (self.prec - i),
        )
        rounds = self.ring.m - 1 if isinstance(self.ring, TestRingSpec) else 0
        acc = inv
        term = inv
        for _ in range(rounds):
            term = -(term * (head * inv))
            acc = acc + term
            if term.is_zero():
                break
        return acc

    @staticmethod
    def _invert_unit_led(ring, coeffs):
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

    # -- order functions ------------------------------------------------

    def naive_ord(self):
        """Least exponent with a nonzero coefficient; +inf for zero."""
        return math.inf if self.is_zero() else self.val

    def unit_ord(self) -> int:
        """The i with a = b_- + t^i b_+, b_+ unit-led, b_- nilpotent.

        Over a field this is the valuation.  Raises NotInvertible when no
        unit coefficient is visible in the window.
        """
        if self.is_zero():
            raise NotInvertible("zero series has no unit order")
        for i, c in enumerate(self.coeffs):
            if c.is_unit():
                return self.val + i
        raise NotInvertible("no unit coefficient within precision window")

    # -- decompositions ---------------------------------------------------

    def split_parts(self) -> "PartsDecomposition":
        if self.prec < 1:
            raise PrecisionExhausted("cannot split: constant term beyond precision")
        zero = self.ring.zero()
        lo = min(self.eff_val, 0)
        neg = [self.coeff(i) if i < 0 else zero for i in range(lo, self.prec)]
        pos = [self.coeff(i) if i > 0 else zero for i in range(lo, self.prec)]
        return PartsDecomposition(
            negative=LaurentSeries.make(self.ring, lo, self.prec, neg),
            constant=self.coeff(0),
            positive=LaurentSeries.make(self.ring, lo, self.prec, pos),
        )

    # -- characteristic-p structure ----------------------------------------

    def coeff_frobenius(self) -> "LaurentSeries":
        """Apply the coefficient Frobenius x -> x^p; exponents unchanged."""
        return LaurentSeries(
            self.ring, self.val, self.prec, tuple(c.frobenius() for c in self.coeffs)
        )

    def series_pth_power(self) -> "LaurentSeries":
        """The ring-theoretic p-th power: exponents dilated by p."""
        p = self.ring.char
        prec = p * self.prec
        if self.is_zero():
            return LaurentSeries.zero(self.ring, prec)
        zero = self.ring.zero()
        lo = p * self.val
        out = [zero] * (prec - lo)
        for i, c in enumerate(self.coeffs):
            out[p * (self.val + i) - lo] = c.frobenius()
        return LaurentSeries.make(self.ring, lo, prec, out)

    def wp(self) -> "LaurentSeries":
        """The Artin-Schreier operator u -> u^p - u."""
        return self.series_pth_power() - self

    def scale_substitute(self, xi) -> "LaurentSeries":
        """a(t) -> a(xi * t): coefficient at exponent i picks up xi^i."""
        if xi.is_zero():
            raise DomainError("substitution scalar must be nonzero")
        if isinstance(self.ring, TestRingSpec) and isinstance(xi, FqElem):
            xi = self.ring.from_field(xi)
        if self.is_zero():
            return self
        xi_inv = xi.inverse()
        out = []
        for i, c in enumerate(self.coeffs):
            e = self.val + i
            f = xi**e if e >= 0 else xi_inv ** (-e)
            out.append(f * c)
        return LaurentSeries.make(self.ring, self.val, self.prec, out)

    # -- the positive-part solver -----------------------------------------

    def solve_positive(self) -> "LaurentSeries":
        """The unique u with support >= 1 and u^p - u = self (mod t^prec).

        Coefficientwise: u_s = -(b_s + b_{s/p}^p + b_{s/p^2}^{p^2} + ...),
        the sum stopping as soon as s/p^n leaves the integers.
        """
        if not self.is_zero() and self.val < 1:
            raise DomainError("solve_positive needs support in exponents >= 1")
        if self.prec < 1:
            raise PrecisionExhausted("empty positive window")
        p = self.ring.char
        zero = self.ring.zero()
        out = [zero] * (self.prec - 1)  # exponents 1 .. prec-1
        for s in range(1, self.prec):
            total = zero
            m, n = s, 0
            while True:
                c = self.coeff(m) if m >= self.val else zero
                for _ in range(n):
                    c = c.frobenius()
                total = total + c
                if m % p:
                    break
                m //= p
                n += 1
            out[s - 1] = -total
        return LaurentSeries.make(self.ring, 1, self.prec, out)

    # -- Hensel n-th roots ---------------------------------------------------

    def nth_root_unit(self, n: int) -> "LaurentSeries":
        """g with g^n = self (mod t^prec), for unit_ord 0 and gcd(n, p) = 1.

        The leading coefficient of g is the canonical (smallest) n-th root
        of the leading coefficient; the rest is Newton iteration, which
        converges quadratically since n is invertible.
        """
        from .fields import canonical_nth_root

        p = self.ring.char
        if math.gcd(n, p) != 1:
            raise DomainError("n must be invertible: gcd(n, p) = 1")
        if self.unit_ord() != 0:
            raise DomainError("nth_root_unit needs unit order 0")
        lead = self.coeff(0)
        if isinstance(self.ring, FieldSpec):
            r0 = canonical_nth_root(lead, n)
        else:
            res = canonical_nth_root(lead.residue(), n)
            r0 = self.ring.from_field(res)
            # x-adic Hensel lift inside the test ring
            n_elem = self.ring.from_int(n)
            for _ in range(self.ring.m):
                r0 = r0 - (r0**n - lead) * (n_elem * r0 ** (n - 1)).inverse()
            if r0**n != lead:
                raise DomainError("leading coefficient is not an n-th power")
        g = LaurentSeries.constant(r0, self.prec)
        n_scalar = self.ring.from_int(n)
        for _ in range(self.prec.bit_length() + 3):
            err = g**n - self
            if err.is_zero():
                return g
            deriv = (g ** (n - 1)).scale(n_scalar)
            g = g - err * deriv.invert()
        raise PrecisionExhausted("Newton iteration failed to converge")

    # -- constancy checks ------------------------------------------------

    def is_constant(self) -> bool:
        """No nonzero coefficient at a nonzero exponent (within the window)."""
        return all(
            c.is_zero() for i, c in enumerate(self.coeffs) if self.val + i != 0
        )

    def torsion_unit_is_constant(self, n: int) -> bool:
        if not (self**n - LaurentSeries.constant(self.ring.one(), self.prec)).is_zero():
            raise DomainError("input does not satisfy a^n = 1 to precision")
        return self.is_constant()

    def idempotent_is_constant(self) -> bool:
        if not (self * self - self).is_zero():
            raise DomainError("input does not satisfy a^2 = a to precision")
        return self.is_constant()

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = self.val + i
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            elif cs == "1":
                terms.append(f"t^{e}" if e != 1 else "t")
            else:
                terms.append(f"{cs}*t^{e}" if e != 1 else f"{cs}*t")
        return " + ".join(terms)

    def __repr__(self):
        return f"<{self} + O(t^{self.prec}) over {self.ring!r}>"


@dataclass(frozen=True)
class PartsDecomposition:
    """u = u_- + u_0 + u_+ split at exponent zero; reassembles exactly."""

    negative: LaurentSeries
    constant: object
    positive: LaurentSeries

    def reassemble(self) -> LaurentSeries:
        const = LaurentSeries.constant(self.constant, self.negative.prec)
        return self.negative + const + self.positive


def default_prec(break_bound: int) -> int:
    """CLI default window: generous enough for all witness constructions."""
    return 2 * break_bound + 32
