"""Truncated Laurent series over a FieldSpec or TestRingSpec.

A series is a window of known coefficients: exponents below ``val`` are
known to vanish, exponents in ``[val, prec)`` are stored, exponents at and
above ``prec`` are unknown ("the series is known modulo t^prec").  Every
operation computes the exact precision of its output from the inputs; an
operation whose result window would carry no usable information raises
PrecisionExhausted rather than silently degrading.

Storage.  A series holds its window as digit rows: ``rows`` has one row per
exponent val .. prec-1, in the layout of ``fields`` (a coefficient's row is
the ``coords`` of its ring element).  A nonzero series has a nonzero first
row (over a test ring that coefficient may be nilpotent, but never zero).
The zero-to-precision series stores no row and val = 0, keeping equality
of equal series syntactic.  ``of_rows`` is the one constructor that
normalises a window: it finds the first nonzero row in one scan and slices
there.  ``make`` is ``of_rows`` of its elements' ``coords``.

The element edge.  Ring elements are built only where a caller reads a
coefficient: ``coeff``, ``support``, ``coeffs``, ``__str__`` and the
constant of ``split_parts``, each through the ring's ``from_digits`` (one
shared element per row over a small ring).  Everything else runs on rows.
A sum or difference pads each operand's rows with the ring's zero row to
the common range [lo, prec) and combines them with ``add_rows`` or
``sub_rows``; ``split_parts`` slices one padded window at t^0.  A product
is the ring's ``digit_product``, one packed product of the ring's kernel
(see ``fields``): a window is packed into one Python int, a block of slots
per coefficient wide enough for the largest sum the product and the field
modulus leave in a slot; one big-int multiply does the convolution, a few
big-int steps reduce by the modulus, and one Barrett step (one AND for
p = 2) reduces every slot mod p in place.  ``series_pth_power`` maps rows by
the ring's ``frobenius_row``, ``solve_positive`` runs ``positive_rows``,
and ``unit_ord`` reads each row's residue digits.

``scale``, ``scale_int`` and ``scale_substitute`` stay on elements: they
read ``coeffs`` and make one element product per coefficient.  They are
the census's hot path, and the census keeps its cost until its benchmark
reads peak memory independently of the number of passes (ROADMAP item 1).

One Newton.  Inverses and Hensel roots of unit-led windows are one Newton
iteration on the packed window, ``_inverse_root``, which doubles the window,
so the cost is a few products at the full window.  The window is packed
once from its rows; every product, shift by t^w, truncation and scaling by
an F_p constant keeps its digits in [0, p), and the result is unpacked
once, into the rows of the series returned.  The iteration is for the
inverse root x = a^(-1/n), from x_0 = r0^(-1) where r0^n = a_0, and needs
no inverse inside the loop: if a x^n = 1 + t^w E mod t^2w, then
x' = x (1 - t^w E / n) has a x'^n = (1 + t^w E)(1 - t^w E + t^2w (...)) = 1
mod t^2w.  With n = 1 it is the inverse, h <- h (1 - t^w E) = h (2 - a h).
The root is g = a x^(n-1): g^n = a (a x^n)^(n-1) = a and
g_0 = r0^n r0^(1-n) = r0.  Both return the same series as iterating on the
full window: the inverse of a unit-led series is unique, and so is its
n-th root with a given leading coefficient, mod t^prec, because n is
invertible (if g^n = h^n with g/h = 1 + w, w in tR[[t]], then
w (n + binom(n, 2) w + ...) = 0 and the second factor is a unit).  The
root is certified on the same packed ints: g^n is compared with the packed
series, and the first differing block names the exponent.  A test-ring
series with a nilpotent head below t^0 loses precision in every product,
so its root keeps full-window Newton steps g <- g - (g^n - a)/(n g^(n-1)),
whose window is the one the result can certify, and is certified by
g^n - a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NotInvertible, PrecisionExhausted
from .fields import FqElem, canonical_nth_root


@dataclass(frozen=True)
class LaurentSeries:
    ring: object  # FieldSpec or TestRingSpec
    val: int
    prec: int  # exclusive upper bound of the known window
    rows: tuple  # digit rows for exponents val .. prec-1; () iff zero

    # -- construction -------------------------------------------------

    @staticmethod
    def of_rows(ring, val: int, prec: int, rows) -> "LaurentSeries":
        """The series whose digit rows at exponents val .. prec-1 are
        ``rows``, normalised."""
        rows = tuple(rows)
        if len(rows) != prec - val:
            raise DomainError("coefficient window does not match [val, prec)")
        for k, row in enumerate(rows):
            if any(row):
                return LaurentSeries(ring, val + k, prec, rows[k:])
        if prec <= 0:
            raise PrecisionExhausted(f"zero to precision {prec}: window certifies nothing")
        return LaurentSeries(ring, 0, prec, ())

    @staticmethod
    def make(ring, val: int, prec: int, coeffs) -> "LaurentSeries":
        """The series with ring elements ``coeffs`` at exponents val .. prec-1."""
        return LaurentSeries.of_rows(ring, val, prec, [c.coords for c in coeffs])

    @staticmethod
    def zero(ring, prec: int) -> "LaurentSeries":
        return LaurentSeries.of_rows(ring, prec, prec, ())

    @staticmethod
    def constant(elem, prec: int) -> "LaurentSeries":
        if prec < 1:
            raise PrecisionExhausted("constant needs prec >= 1")
        return LaurentSeries.monomial(elem, 0, prec)

    @staticmethod
    def monomial(elem, exp: int, prec: int) -> "LaurentSeries":
        ring = elem.spec
        if prec <= exp:
            raise PrecisionExhausted("monomial exponent outside window")
        rows = (elem.coords,) + (ring.zero().coords,) * (prec - exp - 1)
        return LaurentSeries.of_rows(ring, exp, prec, rows)

    @staticmethod
    def from_dict(ring, d: dict, prec: int) -> "LaurentSeries":
        """Series with support d = {exponent: element}, known mod t^prec."""
        if any(e >= prec for e in d):
            raise PrecisionExhausted("support exceeds precision window")
        if not d:
            return LaurentSeries.zero(ring, prec)
        lo = min(d)
        zero = ring.zero()
        coeffs = [d.get(i, zero) for i in range(lo, prec)]
        return LaurentSeries.make(ring, lo, prec, coeffs)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def eff_val(self) -> int:
        """val for precision bookkeeping: prec for the zero series."""
        return self.prec if self.is_zero() else self.val

    @property
    def coeffs(self) -> tuple:
        """The ring elements at exponents val .. prec-1."""
        return tuple(self.ring.from_rows(self.rows))

    def coeff(self, i: int):
        if i >= self.prec:
            raise PrecisionExhausted(f"coefficient at t^{i} is beyond precision {self.prec}")
        if self.is_zero() or i < self.val:
            return self.ring.zero()
        row = self.rows[i - self.val]
        return self.ring.from_digits(row) if any(row) else self.ring.zero()

    def support(self) -> dict:
        from_digits = self.ring.from_digits
        return {self.val + i: from_digits(r) for i, r in enumerate(self.rows) if any(r)}

    def _check_ring(self, other: "LaurentSeries"):
        if self.ring != other.ring:
            raise DomainError("series over different rings")

    def padded(self, lo: int, hi: int) -> list:
        """The rows at exponents lo .. hi-1, for lo <= eff_val and
        hi <= prec: zero rows below val, then a slice of the window."""
        zero = self.ring.zero().coords
        if hi <= self.eff_val:
            return [zero] * (hi - lo)
        return [zero] * (self.val - lo) + list(self.rows[: hi - self.val])

    # -- arithmetic ----------------------------------------------------

    def _pairwise(self, other: "LaurentSeries", op) -> "LaurentSeries":
        """The row map op applied slot by slot on the common window; a slot
        where other holds the shared zero row keeps self's row."""
        self._check_ring(other)
        prec = min(self.prec, other.prec)
        lo = min(self.eff_val, other.eff_val, prec)
        zero = self.ring.zero().coords
        rows = [x if y is zero else op(x, y) for x, y in zip(self.padded(lo, prec), other.padded(lo, prec))]
        return LaurentSeries.of_rows(self.ring, lo, prec, rows)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._pairwise(other, self.ring.add_rows)

    def __neg__(self) -> "LaurentSeries":
        sub, zero = self.ring.sub_rows, self.ring.zero().coords
        return LaurentSeries(self.ring, self.val, self.prec, tuple(sub(zero, r) for r in self.rows))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._pairwise(other, self.ring.sub_rows)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ring(other)
        prec = min(self.eff_val + other.prec, other.eff_val + self.prec)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.ring, prec)
        lo = self.val + other.val
        rows = self.ring.digit_product(self.rows, other.rows, prec - lo)
        return LaurentSeries.of_rows(self.ring, lo, prec, rows)

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
        return LaurentSeries(self.ring, self.val + k, self.prec + k, self.rows)

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec > self.prec:
            raise PrecisionExhausted("cannot raise precision by truncation")
        if self.is_zero() or prec <= self.val:
            return LaurentSeries.zero(self.ring, prec)
        return LaurentSeries.of_rows(self.ring, self.val, prec, self.rows[: prec - self.val])

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
        ring, size = self.ring, self.prec - i
        k = ring.kernel(size)
        h = _inverse_root(k, k.pack(self.rows[i - self.val :]), self.coeff(i).inverse(), 1, size)
        inv = LaurentSeries.of_rows(ring, -i, size - i, k.unpack(h, size))
        if i == self.val:
            return inv
        # nilpotent head: a = head + U; a^-1 = U^-1 * sum (-head U^-1)^k,
        # the head window known exactly up to self.prec (zeros)
        head = self.rows[: i - self.val] + (ring.zero().coords,) * size
        head = LaurentSeries.of_rows(ring, self.val, self.prec, head)
        # only a test ring gets here: over a field unit_ord() == val
        acc = inv
        term = inv
        for _ in range(ring.m - 1):
            term = -(term * (head * inv))
            acc = acc + term
            if term.is_zero():
                break
        return acc

    # -- order functions ------------------------------------------------

    def unit_ord(self) -> int:
        """The i with a = b_- + t^i b_+, b_+ unit-led, b_- nilpotent.

        Over a field this is the valuation.  Raises NotInvertible when no
        unit coefficient is visible in the window.
        """
        if self.is_zero():
            raise NotInvertible("zero series has no unit order")
        e = self.ring.base.e  # a unit's residue digits are its first e
        for i, row in enumerate(self.rows):
            if any(row[:e]):
                return self.val + i
        raise NotInvertible("no unit coefficient within precision window")

    # -- decompositions ---------------------------------------------------

    def split_parts(self) -> "PartsDecomposition":
        if self.prec < 1:
            raise PrecisionExhausted("cannot split: constant term beyond precision")
        zero = self.ring.zero().coords
        lo = min(self.eff_val, 0)
        window = self.padded(lo, self.prec)
        k = -lo  # the index of t^0
        neg = window[:k] + [zero] * (len(window) - k)
        pos = [zero] * (k + 1) + window[k + 1 :]
        return PartsDecomposition(
            negative=LaurentSeries.of_rows(self.ring, lo, self.prec, neg),
            constant=self.coeff(0),
            positive=LaurentSeries.of_rows(self.ring, lo, self.prec, pos),
        )

    # -- characteristic-p structure ----------------------------------------

    def series_pth_power(self) -> "LaurentSeries":
        """The ring-theoretic p-th power: exponents dilated by p."""
        p = self.ring.p
        prec = p * self.prec
        if self.is_zero():
            return LaurentSeries.zero(self.ring, prec)
        lo = p * self.val
        out = [self.ring.zero().coords] * (prec - lo)
        out[::p] = map(self.ring.frobenius_row, self.rows)
        return LaurentSeries.of_rows(self.ring, lo, prec, out)

    def wp(self) -> "LaurentSeries":
        """The Artin-Schreier operator u -> u^p - u."""
        return self.series_pth_power() - self

    def scale_substitute(self, xi) -> "LaurentSeries":
        """a(t) -> a(xi * t): coefficient at exponent i picks up xi^i."""
        if xi.is_zero():
            raise DomainError("substitution scalar must be nonzero")
        if isinstance(xi, FqElem):
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
        the sum stopping as soon as s/p^n leaves the integers.  It is
        computed by the recurrence

            u_s = (u_{s/p})^p - b_s,   with u_{s/p} = 0 when p does not divide s,

        one Frobenius per p-divisible exponent.  Proof: when p | s the sum
        is b_s + (b_{s/p} + b_{s/p^2}^p + ...)^p, because Frobenius is
        additive; the bracket is -u_{s/p}, and (-x)^p = -(x^p), again by
        additivity.  When p does not divide s the sum is b_s alone.  The
        same argument gives v_s = (v_{s/p})^p + b_s for v = -u, so the one
        loop of ``positive_rows`` runs with - or +; v needs no negation at
        all, and where v_{s/p} = 0 it stores b_s itself.  Below ``val``
        every b_s vanishes, so every u_s does too: the result is allocated
        on [val, prec) only, the loop starts at ``val``, u_{s/p} is 0 when
        s/p is below ``val``, and a zero window returns at once.  So a
        series t^N known mod t^(N+1) costs one slot, not N.
        """
        if not self.is_zero() and self.val < 1:
            raise DomainError("solve_positive needs support in exponents >= 1")
        if self.prec < 1:
            raise PrecisionExhausted("empty positive window")
        if self.is_zero():
            return self
        rows = positive_rows(self.ring, self.val, self.rows)
        return LaurentSeries.of_rows(self.ring, self.val, self.prec, rows)

    # -- Hensel n-th roots ---------------------------------------------------

    def nth_root_unit(self, n: int) -> "LaurentSeries":
        """g with g^n = self (mod t^prec), for unit_ord 0 and gcd(n, p) = 1.

        The leading coefficient of g is the canonical (smallest) n-th root
        of the leading coefficient; the rest is Newton iteration, which
        converges quadratically since n is invertible.  The result is
        certified: PrecisionExhausted names the window and the first
        exponent where g^n and self differ.
        """
        if math.gcd(n, self.ring.p) != 1:
            raise DomainError("n must be invertible: gcd(n, p) = 1")
        if self.unit_ord() != 0:
            raise DomainError("nth_root_unit needs unit order 0")
        lead = self.coeff(0)
        r0 = self.ring.from_field(canonical_nth_root(lead.residue(), n))
        if r0**n != lead:
            # x-adic Hensel lift inside the test ring
            n_elem = self.ring.from_int(n)
            for _ in range(self.ring.m):
                r0 = r0 - (r0**n - lead) * (n_elem * r0 ** (n - 1)).inverse()
            if r0**n != lead:
                raise DomainError("leading coefficient is not an n-th power")
        if self.val == 0:
            k = self.ring.kernel(self.prec)
            a = k.pack(self.rows)
            g = _root_unit_led(k, a, r0, n, self.prec)
            bad = k.first_difference(_power(k, g, n, self.prec), a)
            root = LaurentSeries.of_rows(self.ring, 0, self.prec, k.unpack(g, self.prec))
        else:
            root = self._newton_full_window(r0, n)
            err = root**n - self
            bad = None if err.is_zero() else err.val
        if bad is not None:
            raise PrecisionExhausted(
                f"{n}-th root not certified mod t^{self.prec}: "
                f"g^{n} - self is nonzero at t^{bad}"
            )
        return root

    def _newton_full_window(self, r0, n: int) -> "LaurentSeries":
        """Newton steps g <- g - (g^n - self)/(n g^(n-1)) on the whole window.

        Only a test-ring series with a nilpotent head below t^0 gets here.
        Every product with that head loses precision, so the window cannot
        double; the steps keep the window their own products certify.
        """
        g = LaurentSeries.constant(r0, self.prec)
        n_scalar = self.ring.from_int(n)
        for _ in range(self.prec.bit_length() + 3):
            err = g**n - self
            if err.is_zero():
                break
            g = g - err * (g ** (n - 1)).scale(n_scalar).invert()
        return g

    # -- constancy checks ------------------------------------------------

    def is_constant(self) -> bool:
        """No nonzero coefficient at a nonzero exponent (within the window)."""
        return not any(any(r) for i, r in enumerate(self.rows, self.val) if i)

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
        for e, c in self.support().items():
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


def positive_rows(ring, val: int, rows, negated: bool = False) -> list:
    """The recurrence of ``LaurentSeries.solve_positive`` on digit rows: the
    rows of u (of v = -u when ``negated``) at exponents val, val + 1, ...
    for b of rows ``rows`` there, val >= 1, Frobenius being the spec's row
    map."""
    p = ring.p
    zero = ring.zero().coords
    combine = ring.add_rows if negated else ring.sub_rows
    frobenius = ring.frobenius_row
    out = [zero] * len(rows)
    for s, b in enumerate(rows, val):
        prev = zero if s % p or s // p < val else out[s // p - val]
        if any(prev):
            prev = frobenius(prev)
            out[s - val] = combine(prev, b) if any(b) else prev
        elif any(b):
            out[s - val] = b if negated else ring.sub_rows(zero, b)
    return out


def _power(k, x: int, e: int, size: int) -> int:
    """x^e mod t^size for a packed window x of kernel k, e >= 0."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else k.mul(result, x, size)
        e >>= 1
        if e:
            x = k.mul(x, x, size)
    return 1 if result is None else result  # 1: digit 1 in slot 0 of block 0


def _inverse_root(k, a: int, x0, n: int, size: int) -> int:
    """x = a^(-1/n) mod t^size for the packed window a of kernel k, from the
    unit x0 with x0^(-n) = a_0: Newton on the packed window, doubling it.
    If a x^n = 1 + t^w E mod t^2w, then x <- x - x t^w E / n makes
    a x^n = 1 mod t^2w; n = 1 is the inverse."""
    minus_inv_n = -pow(n, -1, k.p)
    x = k.pack([x0.coords])
    w = 1
    while w < size:
        top = min(2 * w, size)
        err = k.shift(k.mul(k.truncate(a, top), _power(k, x, n, top), top), -w)
        x += k.shift(k.scale(k.mul(x, err, top - w), minus_inv_n), w)
        w = top
    return x


def _root_unit_led(k, a: int, r0, n: int, size: int) -> int:
    """The packed g with g^n = a mod t^size and g_0 = r0, for the packed
    window a of kernel k with r0^n = a_0, r0 a unit: g = a x^(n-1) for the
    inverse root x."""
    x = _inverse_root(k, a, r0.inverse(), n, size)
    return k.mul(a, _power(k, x, n - 1, size), size)


def default_prec(break_bound: int) -> int:
    """CLI default window: generous enough for all witness constructions."""
    return 2 * break_bound + 32
