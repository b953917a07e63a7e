"""Exact arithmetic in finite fields F_{p^e} and in the local test rings
F_q[x]/(x^m).

Every F_{p^e} is presented as F_p[g]/(modulus) where the modulus is the
first monic irreducible of degree e in the fixed enumeration (coefficient
vectors read as base-p integers, constant digit least significant),
found by testing each candidate in turn with Ben-Or's irreducibility
test.  For e = 1 nothing depends on the modulus.  A degree above
MAX_DEGREE = 64, and a p >= MAX_PRIME = 2^64, raise DomainError before
the search and the primality test (deterministic Miller-Rabin) start.  A
FieldSpec caches the tables the Kummer side relies on, built in O(q)
field operations by ``_field_tables`` for q <= MAX_TABLE_Q = 2^14 (larger
fields raise DomainError before anything is allocated):

- the generator h: the first element in enumeration order with
  h^((q-1)/l) != 1 for every prime l dividing q-1, i.e. the smallest
  primitive element;
- the powers h^0 .. h^(q-2), from one walk of q-2 multiplications, and
  the discrete logs, read off that walk.

The Artin-Schreier side needs no table, so it works in every field.  By
additive Hilbert 90 the image of u -> u^p - u is ker Tr, Tr(u) = u + u^p
+ ... + u^(p^(e-1)) the absolute trace (Lidl-Niederreiter, Finite
Fields, Thm 2.25), so the cosets of that image are the fibres of Tr, and
both facts the library reads from them are F_p-linear:

- the trace: ``FieldSpec.trace`` is sum_i c_i T_i mod p, T_i = Tr(g^i)
  the i-th power sum of the roots of the modulus, from Newton's
  identities on its coefficients (``_basis_traces``);
- the transversal: the representative of c is (Tr(c)/T_j) g^j for the
  first j with T_j != 0 (``_trace_rep``, with the proof that it is the
  lex-smallest element of c's coset), and the smallest w with
  w^p - w = rep - c is one cached e x e matrix over F_p applied to c
  (``_wp_section``).

Every power in the library, of an element, a polynomial mod the modulus,
an F_p matrix, a series or a packed window, is one ``power(x, n, mul)``:
square and multiply from the low bit, each caller handing it its product
and keeping its own n = 0 case.

Frobenius, p-th roots and inverses need no table, so they work in every
field that ``field`` accepts.  Frobenius x -> x^p is F_p-linear:
``frobenius`` applies its e x e matrix over F_p (row i holds the
coordinates of (g^i)^p), and ``pth_root`` applies the matrix of its
inverse x -> x^(p^(e-1)); both matrices are built once per spec, and both
maps are the identity for e = 1.  ``inverse`` is pow(a, -1, p) for e = 1
and extended Euclid against the modulus otherwise.  A test-ring
element's Frobenius is (sum a_i x^i)^p = sum a_i^p x^(ip), below x^m, with
each a_i^p from the field's matrix.  The other square F_p matrices of the
library, such as the action psi of C_n on (Z/p)^r in ``semidirect`` and
its oracle, are tuples of rows in the same convention, and ``mat_mul``
applies each row of its left factor through ``_apply_rows``.  So is
``mul_matrix(a)``, the matrix of x -> a x.  ``mat_kernel`` is the one F_p
Gaussian elimination of the library: it returns a basis of the relations
among a list of digit rows, the kernel of x -> ``_apply_rows(rows, x)``.

Every element is its digit row ``coords``: the m*e coordinates of
sum a_i x^i in F_p, x-major, the digit of x^i g^j at index i*e + j (a
field is the case m = 1).  What reads only this layout is written once,
in ``_RingSpec`` and ``_RingElem``: ``index`` reads the row in base p
(``from_index`` inverts it); sums, negation and scaling by an integer act
digit by digit, mod p; a residue is the first e digits.  Only products,
inverses, Frobenius and printing differ between the kinds, and no other
module builds an element from a row except through ``from_digits``.

Zeros are shared and skipped.  Each spec builds its zero once, and
``is_zero`` is ``not any(coords)``.  ``+``, ``-`` and unary ``-`` return
an operand that is already there when one side is zero: a + 0 and a - 0
are a, 0 + b is b, 0 - b is -b, and -0 is 0; in characteristic 2 -a is
a.  The values are those of the digitwise sums, so no output depends on
it; a series sum whose windows hold mostly zeros builds no new element
for them.  ``from_digits`` shares every element of a ring of at most
MAX_TABLE_Q elements: the spec keeps a dict from row to element, seeded
with its zero, and builds each row's element once (hash-consing:
Filliatre and Conchon, ML Workshop 2006).  A larger ring keeps no dict,
so memory stays bounded.  Equality stays by value.

Both kinds answer one protocol, so no other module asks which kind it
holds:

- a spec (FieldSpec, TestRingSpec) has ``p``, ``m``, ``base`` (its residue
  field F_q; a field is its own), ``zero()``, ``one()``, ``from_int(n)``,
  ``from_index(i)``, ``elements()``, ``from_field(a)`` (the constant lift
  of an element of ``base``; the identity on a field),
  ``from_digits(row)``, ``from_rows(rows)`` (an element per row),
  ``add_rows(a, b)``, ``sub_rows(a, b)``, ``frobenius_row(row)`` (the rows
  of a + b, a - b and a^p), ``kernel(length)`` and
  ``digit_product(a, b, n)``.  ``kernel`` is the packed-window kernel for
  windows of at most ``length`` coefficients.  ``digit_product`` gives the
  first n coefficients of (sum a_i t^i)(sum b_j t^j) for sequences a, b of
  digit rows, as n rows; a test-ring product of two elements is one of
  length 1.  Series hold their windows as digit rows and call only this
  row protocol, so elements enter a series computation only where a
  caller reads a coefficient;
- an element (FqElem, TestRingElem) has ``spec``, ``coords``, ``index``,
  ``+``, ``-``, ``*`` (also by an int), ``scale(n)``, ``**``,
  ``inverse()``, ``frobenius()``, ``is_zero()``, ``is_unit()`` (a nonzero
  residue; every other test-ring element is nilpotent) and ``residue()``
  (its image in ``base``; the identity on a field).

Truncated products run on packed windows, by Kronecker substitution.  A
window of n coefficients is one Python int of n blocks: the F_p digit of
x^i g^j (i < m, j < e) sits in slot i(2e-1) + j of a block of (2m-1)(2e-1)
slots, so one big-int multiply puts every product of digits in a slot of
its own.  The field modulus is applied to the packed product too: for each
g-degree d = e .. 2e-2, one shift and one mask bring slot d of every block
down to slot 0, and one multiply by the packed coordinates of g^d mod f
adds c g^d to the low slots.  For windows of at most L coefficients a raw
slot sums at most raw = L m e (p-1)^2, and the reduction adds e-1 raw slots
times digits <= p-1, so every low slot ends below 2^b, b the bit length of
raw (1 + (e-1)(p-1)).

The low slots are then reduced mod p in place.  For p = 2 one AND keeps
bit 0 of each low slot, so a slot needs only b bits.  For odd p a mask
clears every other slot and one Barrett step (P. Barrett, CRYPTO '86)
reduces all of them: with s = b + bitlen(p) and M = floor(2^s/p) + 1,
q = ((v M) >> s) & qmask, then v - p q.  Proof, slot by slot, for 0 <= v < 2^b: M = (2^s + d)/p with
1 <= d <= p, so v M/2^s = v/p + v d/(p 2^s), where the second term is
below 2^(b-s) = 2^-bitlen(p) < 1/p.  As v/p = floor(v/p) + r/p with
r <= p-1, the sum stays below floor(v/p) + 1, so q = floor(v/p) and
v - p q = v mod p borrows from no other slot.  M <= 2^(b+1) + 1 gives
v M < 2^(2b+1), so a slot of at least 2b + 2 bits holds v M; the shift by
s moves the low s bits of the next slot's v M to bit W - s and up of this
slot, W its width, above the 2b + 1 - s bits of q that qmask keeps.

So every window the kernel (``_Kernel``, one per ring and slot width)
takes or returns holds digits in [0, p) in its low slots and zeros
elsewhere, and its operations chain without unpacking: a product, a shift
by t^w (w blocks), a truncation (a mask), a scaling by an integer c (c mod
p times a digit is below (p-1)^2 + 1 <= 2^b, then the same reduction) and
the first difference of two windows (the lowest set bit of their xor,
divided by the block width).  Slots are rounded up to whole bytes, so one
struct packs and unpacks a window: a digit takes the smallest of 1, 2, 4
or 8 bytes that holds p-1 (``field`` refuses p >= MAX_PRIME = 2^64), the
rest of its slot is padding.  ``digit_product`` is one pack, one kernel
product and one unpack.

All values are immutable; tables are computed once per spec and shared.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap

from .errors import DomainError, NotInvertible

# largest field whose tables are built: q = 2^14 takes about 0.25 s and 5 MB
# on a 2-core x86-64 host under CPython 3.11
MAX_TABLE_Q = 2**14
# largest extension degree: the modulus search for F_{2^64} takes about
# 0.04 s and for F_{11^64} about 1 s on the same host
MAX_DEGREE = 64
# characteristic bound, exclusive: see ``_is_prime`` and ``_DIGIT_CODE``
MAX_PRIME = 2**64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: no n < 3.18 * 10^23, so no n < MAX_PRIME,
    is a strong pseudoprime to all of the bases 2 .. 37 (Sorenson and
    Webster, Math. Comp. 86 (2017))."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(x, n: int, mul):
    """x^n for n >= 1, ``mul`` the product: square and multiply from the low
    bit, so there is no product by one and no squaring past the last bit
    (Knuth, TAOCP vol. 2, 4.6.3).  A caller keeps its own n = 0 case."""
    if n < 1:
        raise DomainError(f"power needs an exponent n >= 1, got n = {n}")
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


# -- polynomial helpers over F_p (tuples, constant coefficient first) --


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(a)


def _monic_poly_from_index(idx: int, deg: int, p: int):
    coeffs = []
    for _ in range(deg):
        coeffs.append(idx % p)
        idx //= p
    return tuple(coeffs) + (1,)


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = tuple(a) + (0,) * (n - len(a)), tuple(b) + (0,) * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_monic(a, p):
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _poly_gcd(a, b, p):
    """The monic gcd of a and b over F_p."""
    while b:
        b = _poly_monic(b, p)
        a, b = b, _poly_mod(a, b, p)
    return _poly_monic(a, p)


def _poly_divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b over F_p."""
    a = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - db, 0)
    for k in reversed(range(len(quot))):
        c = a[k + db] * lead_inv % p
        quot[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return _poly_trim(quot), _poly_trim(a[:db])


def _poly_inverse_mod(a, f, p):
    """a^-1 mod f for a nonzero a coprime to f, by extended Euclid: each
    step keeps s_i a = r_i (mod f) and ends on a nonzero constant r."""
    r0, r1 = f, _poly_trim(a)
    s0, s1 = (), (1,)
    while len(r1) > 1:
        quot, rem = _poly_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(quot, s1, p), p)
    inv = pow(r1[0], -1, p)
    return tuple(c * inv % p for c in s1)


def _poly_powmod(a, n: int, f, p):
    """a^n mod f for monic f and n >= 1."""
    return power(_poly_mod(a, f, p), n, lambda x, y: _poly_mod(_poly_mul(x, y, p), f, p))


def _poly_is_irreducible(f, p: int) -> bool:
    """Ben-Or's test for monic f of degree d: f is irreducible exactly when
    gcd(f, x^(p^i) - x) = 1 for i = 1 .. d/2, since x^(p^i) - x is the
    product of the monic irreducibles whose degree divides i (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 14)."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    x = (0, 1)
    h = x
    for _ in range(deg // 2):
        h = _poly_powmod(h, p, f, p)  # x^(p^i) mod f
        if _poly_gcd(f, _poly_sub(h, x, p), p) != (1,):
            return False
    return True


def _smallest_irreducible(p: int, e: int):
    # the first p indices are the binomials x^e + c.  For e >= 2, x^e - a
    # is irreducible over F_p only when every prime factor of e divides
    # the order of a, a divisor of p - 1, and p = 1 mod 4 when 4 | e
    # (Lidl and Niederreiter, Finite Fields, Thm 3.75); when either fails
    # the search starts after them
    skip = any((p - 1) % ell for ell in _prime_factors(e)) or (e % 4 == 0 and p % 4 == 3)
    start = p if skip else 0
    for idx in range(start, p**e):
        f = _monic_poly_from_index(idx, e, p)
        if _poly_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def _frobenius_rows(base: "FieldSpec", k: int):
    """The F_p-linear map x -> x^(p^k) of F_q: row i holds the coordinates
    of (g^i)^(p^k), i = 0 .. e-1."""
    p, e, f = base.p, base.e, base.modulus
    image = _poly_powmod((0, 1), p**k, f, p)  # g^(p^k)
    rows, row = [], (1,)
    for _ in range(e):
        rows.append(row + (0,) * (e - len(row)))
        row = _poly_mod(_poly_mul(row, image, p), f, p)
    return tuple(rows)


@lru_cache(maxsize=None)
def _basis_traces(spec: "FieldSpec") -> tuple:
    """T_i = Tr(g^i) for i = 0 .. e-1.  The conjugates of g are the roots of
    the modulus x^e + a_(e-1) x^(e-1) + ... + a_0, so T_i is their i-th
    power sum: T_0 = e, and Newton's identities give
    T_i = -(i a_(e-i) + sum_{k=1}^{i-1} a_(e-k) T_(i-k)) for 1 <= i < e."""
    p, e, a = spec.p, spec.e, spec.modulus
    traces = [e % p]
    for i in range(1, e):
        traces.append(-(i * a[e - i] + sum(a[e - k] * traces[i - k] for k in range(1, i))) % p)
    return tuple(traces)


def _trace_rep(spec: "FieldSpec", t: int) -> "FqElem":
    """The transversal representative of trace t: (t/T_j) g^j, j the first
    index with T_j != 0 (Tr is onto F_p, so there is one).  It is the
    lex-smallest element of the fibre of t: an index reads the digits base
    p, the highest nonzero digit deciding, and the digits below j meet only
    T_i = 0.  So an element of trace t != 0 has a nonzero digit at j or
    above, and of those below p^(j+1) the smallest has digit t/T_j at j and
    zeros below."""
    p, e, traces = spec.p, spec.e, _basis_traces(spec)
    j = next(i for i, tj in enumerate(traces) if tj)
    return spec.from_digits((0,) * j + (t * pow(traces[j], -1, p) % p,) + (0,) * (e - 1 - j))


@lru_cache(maxsize=None)
def _wp_section(spec: "FieldSpec") -> tuple:
    """The e x e matrix over F_p whose row a holds the digits of w_a, the
    solution of w^p - w = rep(g^a) - g^a with digit 0 equal to 0.

    u -> u^p - u is F - 1, F the Frobenius matrix: F_p-linear with kernel
    F_p = <g^0> and image ker Tr.  So the rows (F - 1) g^i, i = 1 .. e-1,
    are independent and span ker Tr, which holds each target
    t_a = g^a - rep(g^a): Tr t_a = T_a - (T_a/T_j) T_j = 0.
    ``mat_kernel`` of those rows followed by the targets, in that order,
    picks every pivot among the first e - 1 rows.  Before each column, a
    target row is its input minus multiples of the pivot rows, so it is a
    combination of the pivot rows and the first rows not yet pivots; it
    and those rows are zero in every earlier column, and the pivot rows
    are in echelon form there, so the pivot rows take coefficient 0, and
    the target is zero in this column whenever those first rows are.  So no target is swapped or becomes a pivot,
    the rank is e - 1, and the relations are the targets in order, each
    with coefficient 1 on itself and 0 on the others: x with
    sum_i x_i (F - 1) g^i = -t_a, so w_a = sum_i x_i g^i.

    rep is linear, so w = sum_a c_a w_a solves w^p - w = rep(c) - c with
    digit 0 equal to 0.  The solutions are w + F_p, and adding k in F_p
    moves only digit 0, the least significant: w is the smallest."""
    p, e = spec.p, spec.e
    unit = [spec.from_index(p**i).coords for i in range(e)]
    first = [spec.sub_rows(spec.frobenius_row(g_i), g_i) for g_i in unit[1:]]
    reps = [_trace_rep(spec, t).coords for t in _basis_traces(spec)]
    relations = mat_kernel(first + [spec.sub_rows(g_a, r) for g_a, r in zip(unit, reps)], p)
    return tuple((0,) + x[: e - 1] for x in relations)


def _apply_rows(rows, coords, p):
    """The coordinates of sum_i coords[i] * rows[i], mod p: a vector as
    wide as the rows, whatever their number."""
    out = [0] * (len(rows[0]) if rows else 0)
    for c, row in zip(coords, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return tuple(v % p for v in out)


# -- square matrices over F_p: tuples of rows, the convention of the above --


def mat_identity(r: int):
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul(a, b, p: int):
    """The product a b: row i is row i of a applied to the rows of b."""
    return tuple(_apply_rows(b, row, p) for row in a)


def mat_pow(a, n: int, p: int):
    """a^n for n >= 0: the identity for n = 0."""
    return power(a, n, lambda x, y: mat_mul(x, y, p)) if n else mat_identity(len(a))


def mat_kernel(rows, p: int) -> list:
    """A basis of the relations among ``rows``: the coordinate vectors x
    with sum_i x[i] rows[i] = 0 over F_p, the sum ``_apply_rows(rows, x, p)``.

    One Gaussian elimination on the rows, each augmented by its unit
    vector, so that every row stays the combination of the inputs its
    right part records.  Forward elimination clears each pivot column
    below its pivot; a later pivot row had a zero in every earlier column
    without a pivot, so the rows past the rank end with a zero left part,
    and their right parts are independent relations, as many as the
    number of rows minus the rank.  For a square matrix that is the
    dimension of both kernels."""
    n = len(rows)
    width = len(rows[0]) if n else 0
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col], -1, p)
        top = aug[rank] = [(x * inv) % p for x in aug[rank]]
        for i in range(rank + 1, n):
            if f := aug[i][col]:
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], top)]
        rank += 1
    return [tuple(row[width:]) for row in aug[rank:]]


def mul_matrix(a: "FqElem"):
    """The e x e matrix over F_p of x -> a x on F_q, in the convention of
    the Frobenius matrix: row i holds the coordinates of g^i a."""
    spec = a.spec
    return tuple((spec.from_index(spec.p**i) * a).coords for i in range(spec.e))


# -- packed windows: Kronecker substitution ---------------------------

# the struct code of a digit in [0, p): the smallest of 1, 2, 4, 8 bytes
_DIGIT_CODE = ((1 << 8, "B"), (1 << 16, "H"), (1 << 32, "I"), (MAX_PRIME, "Q"))


class _Kernel:
    """Packed windows over F_q[x]/(x^m), q = p^e, at ``width`` bytes per
    slot: the layout, the slot bound and the reduction are those of the
    module docstring.  Every window an operation takes holds digits in
    [0, p) in its low slots and zeros elsewhere, and so does every window it
    returns."""

    def __init__(self, base: "FieldSpec", m: int, width: int):
        p, e, bits = base.p, base.e, 8 * width
        span = 2 * e - 1
        code = next(c for bound, c in _DIGIT_CODE if p <= bound)
        slot = code + "x" * (width - struct.calcsize(code))
        degree = slot * e + f"{(e - 1) * width}x"  # the 2e-1 slots of one x-degree
        self.layout = struct.Struct("<" + degree * m + f"{(m - 1) * span * width}x")
        self.p, self.step = p, 8 * self.layout.size
        full = (1 << bits) - 1
        ones = sum(1 << bits * (i * span + j) for i in range(m) for j in range(e))
        self.reduction = []  # (the shift of slot d, g^d mod f packed), d = e .. 2e-2
        for d in range(e, span):
            red = _poly_mod((0,) * d + (1,), base.modulus, p)
            self.reduction.append((bits * d, sum(c << bits * j for j, c in enumerate(red))))
        # Barrett: every low slot below 2^b, and 8 * width >= 2b + 2
        b = (bits - 2) // 2
        self.bound = 1 << b
        self.quotient_shift = b + p.bit_length()
        self.barrett = (1 << self.quotient_shift) // p + 1
        quotient = (1 << (2 * b + 1 - self.quotient_shift)) - 1
        slot0 = sum(full << bits * i * span for i in range(m))
        self._units = (ones * full, ones if p == 2 else ones * quotient, slot0)
        self._cover = -1

    def _masks(self, v: int):
        """(low slots, quotients, slot (i, 0)) masks over at least v's blocks."""
        if v.bit_length() > self._cover:
            self._cover = 2 * (v.bit_length() // self.step + 1) * self.step
            repunit = ((1 << self._cover) - 1) // ((1 << self.step) - 1)
            self._low, self._quotient, self._slot0 = (u * repunit for u in self._units)
        return self._low, self._quotient, self._slot0

    def pack(self, rows) -> int:
        return int.from_bytes(b"".join(starmap(self.layout.pack, rows)), "little")

    def unpack(self, x: int, n: int) -> list:
        """The first n digit rows of x."""
        return list(self.layout.iter_unpack(x.to_bytes(self.layout.size * n, "little")))

    def truncate(self, x: int, n: int) -> int:
        return x & ((1 << self.step * n) - 1)

    def shift(self, x: int, w: int) -> int:
        """x t^w, dropping the blocks that fall below t^0."""
        return x << self.step * w if w >= 0 else x >> -self.step * w

    def reduce(self, v: int) -> int:
        """Every low slot mod p and every other slot cleared, for v whose low
        slots are below ``bound``; p = 2 keeps bit 0 of each low slot."""
        low, quotient, _ = self._masks(v)
        if self.p == 2:
            return v & quotient
        v &= low
        return v - self.p * (((v * self.barrett) >> self.quotient_shift) & quotient)

    def scale(self, x: int, c: int) -> int:
        """c x for an integer c: each slot c mod p times a digit < p^2."""
        return self.reduce(x * (c % self.p))

    def mul(self, x: int, y: int, n: int) -> int:
        """The first n coefficients of x y."""
        v = self.truncate(x * y, n)
        if self.reduction:
            slot0 = self._masks(v)[2]
            for shift, row in self.reduction:
                v += ((v >> shift) & slot0) * row
        return self.reduce(v)

    def first_difference(self, x: int, y: int):
        """The first block where x and y differ, or None."""
        d = x ^ y
        return ((d & -d).bit_length() - 1) // self.step if d else None


@lru_cache(maxsize=None)
def _kernel(base: "FieldSpec", m: int, width: int) -> _Kernel:
    return _Kernel(base, m, width)


# -- elements and specs: one digit-row layout, a field being m = 1 ----


@dataclass(frozen=True)
class _RingElem:
    """What FqElem and TestRingElem share.  An element is its digit row, so
    every method that reads only the layout is written once, here."""

    spec: object  # FieldSpec or TestRingSpec
    coords: tuple  # the digit row: m*e entries in 0..p-1, x-major

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise DomainError(f"mixed arithmetic over {self.spec!r} and {other.spec!r}")

    @property
    def index(self) -> int:
        """The digit row read in base p, digit 0 least significant."""
        p = self.spec.p
        idx = 0
        for c in reversed(self.coords):
            idx = idx * p + c
        return idx

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_unit(self) -> bool:
        """Whether the residue, the first e digits, is nonzero."""
        return any(self.coords[: self.spec.base.e])

    def __add__(self, other):
        self._check(other)
        if not any(other.coords):
            return self
        if not any(self.coords):
            return other
        return type(self)(self.spec, self.spec.add_rows(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        if not any(other.coords):
            return self
        if not any(self.coords):
            return -other
        return type(self)(self.spec, self.spec.sub_rows(self.coords, other.coords))

    def __neg__(self):
        p = self.spec.p
        if p == 2 or not any(self.coords):
            return self
        return type(self)(self.spec, tuple((-a) % p for a in self.coords))

    def scale(self, n: int):
        p = self.spec.p
        return type(self)(self.spec, tuple((a * n) % p for a in self.coords))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, type(self).__mul__) if n else self.spec.one()

    def __repr__(self):
        return f"{self} in {self.spec!r}"


class FqElem(_RingElem):
    """An element of F_q: its row holds its coordinates in g^0 .. g^(e-1)."""

    def residue(self) -> "FqElem":
        return self

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        prod = _poly_mul(self.coords, other.coords, self.spec.p)
        red = _poly_mod(prod, self.spec.modulus, self.spec.p)
        return FqElem(self.spec, red + (0,) * (self.spec.e - len(red)))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise NotInvertible("division by zero in a field")
        spec = self.spec
        if spec.e == 1:
            return FqElem(spec, (pow(self.coords[0], -1, spec.p),))
        inv = _poly_inverse_mod(self.coords, spec.modulus, spec.p)
        return FqElem(spec, inv + (0,) * (spec.e - len(inv)))

    def _frobenius_power(self, k: int) -> "FqElem":
        """x -> x^(p^k) through its cached matrix; the identity when e = 1."""
        spec = self.spec
        return self if spec.e == 1 else FqElem(spec, spec.frobenius_row(self.coords, k))

    def frobenius(self) -> "FqElem":
        return self._frobenius_power(1)

    def pth_root(self) -> "FqElem":
        # inverse of Frobenius on a perfect field: x -> x^{p^{e-1}}
        return self._frobenius_power(self.spec.e - 1)

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_int(self) -> int:
        """The value in 0..p-1, defined only for prime-field elements."""
        if not self.in_prime_field():
            raise DomainError(f"{self} is not in the prime field")
        return self.coords[0]

    def __str__(self):
        if self.spec.e == 1:
            return str(self.coords[0])
        terms = []
        for i in reversed(range(self.spec.e)):
            c = self.coords[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                v = "g" if i == 1 else f"g^{i}"
                terms.append(v if c == 1 else f"{c}{v}")
        return "+".join(terms) if terms else "0"


class TestRingElem(_RingElem):
    """An element sum a_i x^i of F_q[x]/(x^m): digits i*e .. i*e + e-1 of
    its row are the coordinates of a_i."""

    def residue(self) -> FqElem:
        base = self.spec.base
        return FqElem(base, self.coords[: base.e])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        return TestRingElem(self.spec, self.spec.digit_product([self.coords], [other.coords], 1)[0])

    __rmul__ = __mul__

    def frobenius(self) -> "TestRingElem":
        return TestRingElem(self.spec, self.spec.frobenius_row(self.coords))

    def inverse(self) -> "TestRingElem":
        if not self.is_unit():
            raise NotInvertible(f"{self} is not a unit (residue 0)")
        # Newton y <- y(2 - a y) on a one-block packed window: from the lift
        # of a0^-1, a y - 1 is a multiple of x and each step squares it, so
        # ceil(log2 m) steps reach x^m = 0; for odd p, 2y - a y^2 has slots
        # below 3(p-1) <= 2 (p-1)^2, inside the kernel's bound when m >= 2
        spec = self.spec
        k = spec.kernel(1)
        a = k.pack([self.coords])
        y = k.pack([spec.from_field(self.residue().inverse()).coords])
        for _ in range((spec.m - 1).bit_length()):
            y = k.reduce(2 * y + k.scale(k.mul(a, k.mul(y, y, 1), 1), -1))
        return TestRingElem(spec, k.unpack(y, 1)[0])

    def __str__(self):
        base, e = self.spec.base, self.spec.base.e
        parts = []
        for i in range(self.spec.m):
            c = FqElem(base, self.coords[i * e : (i + 1) * e])
            if c.is_zero():
                continue
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if cs == "1" else f"{cs}{xs}")
        return "+".join(parts) if parts else "0"


class _RingSpec:
    """What FieldSpec and TestRingSpec share, written once.  A subclass has
    ``p``, ``base`` (F_q), ``m`` and ``_elem``, its element class."""

    def __post_init__(self):
        zero = self._elem(self, (0,) * (self.m * self.base.e))
        object.__setattr__(self, "_zero", zero)
        # the shared elements of from_digits, by row: see the module docstring
        shared = {zero.coords: zero} if self.base.q**self.m <= MAX_TABLE_Q else None
        object.__setattr__(self, "_shared", shared)

    def zero(self):
        return self._zero

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        return self._elem(self, (n % self.p,) + self._zero.coords[1:])

    def from_index(self, idx: int):
        """The element whose digit row is idx in base p."""
        p, coords = self.p, []
        for _ in range(self.m * self.base.e):
            coords.append(idx % p)
            idx //= p
        return self._elem(self, tuple(coords))

    def elements(self):
        return [self.from_index(i) for i in range(self.p ** (self.m * self.base.e))]

    def from_digits(self, row: tuple):
        """The element of digit row ``row``, shared when the ring is small."""
        shared = self._shared
        if shared is None:
            return self._elem(self, row)
        elem = shared.get(row)
        if elem is None:
            elem = shared[row] = self._elem(self, row)
        return elem

    def from_rows(self, rows) -> list:
        """One element per nonzero row, the shared zero for each zero row."""
        zero, from_digits = self._zero, self.from_digits
        return [from_digits(r) if any(r) else zero for r in rows]

    def add_rows(self, a: tuple, b: tuple) -> tuple:
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub_rows(self, a: tuple, b: tuple) -> tuple:
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def kernel(self, length: int) -> _Kernel:
        """The packed-window kernel for products of windows of at most
        ``length`` coefficients: slots of at least b bits for p = 2, 2b + 2
        for odd p, b the bit length of the raw slot bound."""
        p, e = self.p, self.base.e
        raw = max(length, 1) * self.m * e * (p - 1) ** 2
        b = (raw * (1 + (e - 1) * (p - 1))).bit_length()
        return _kernel(self.base, self.m, -(-(b if p == 2 else 2 * b + 2) // 8))

    def digit_product(self, a, b, n: int) -> list:
        """The first n coefficients of (sum a_i t^i)(sum b_j t^j), for digit
        rows a, b, as n digit rows: one packed product."""
        k = self.kernel(min(len(a), len(b), n))
        return k.unpack(k.mul(k.pack(a[:n]), k.pack(b[:n]), n), n)


@dataclass(frozen=True)
class FieldSpec(_RingSpec):
    """The field F_q, q = p^e, with its fixed modulus and cached tables."""

    p: int
    e: int
    modulus: tuple  # monic, length e+1, constant coefficient first

    m = 1  # a field is F_q[x]/(x^1)
    _elem = FqElem

    @property
    def q(self) -> int:
        return self.p**self.e

    def gen(self) -> FqElem:
        """The coordinate generator g (= the class of x)."""
        if self.e == 1:
            raise DomainError("prime field has no coordinate generator g")
        return self.from_index(self.p)

    @property
    def base(self) -> "FieldSpec":
        """The residue field: a field is its own."""
        return self

    def from_field(self, a: FqElem) -> FqElem:
        return a

    def frobenius_row(self, row: tuple, k: int = 1) -> tuple:
        """The digit row of x^(p^k), x of digit row ``row``."""
        return row if self.e == 1 else _apply_rows(_frobenius_rows(self, k), row, self.p)

    def trace(self, c: FqElem) -> int:
        """The absolute trace of c, in 0 .. p-1: sum_i c_i Tr(g^i) mod p."""
        return sum(x * t for x, t in zip(c.coords, _basis_traces(self))) % self.p

    # -- cached structure tables ------------------------------------

    @property
    def generator(self) -> FqElem:
        """Smallest primitive element in enumeration order."""
        return _field_tables(self)[0]

    def dlog(self, a: FqElem) -> int:
        if a.is_zero():
            raise DomainError("dlog of 0")
        return _field_tables(self)[1][a.coords]

    def wp_transversal_rep(self, c: FqElem) -> FqElem:
        """Lex-smallest representative of c's coset mod the image of u -> u^p - u,
        the element ``_trace_rep`` of c's trace."""
        return _trace_rep(self, self.trace(c))

    def __repr__(self):
        return f"F_{self.q}" if self.e > 1 else f"F_{self.p}"


@lru_cache(maxsize=None)
def field(p: int, e: int = 1) -> FieldSpec:
    if p >= MAX_PRIME:
        # refused before the primality test, which is exact only below 2^64
        raise DomainError(f"characteristic is limited to p < 2^64, got a {p.bit_length()}-bit p")
    if not _is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    if e < 1:
        raise DomainError("extension degree must be >= 1")
    if e > MAX_DEGREE:
        raise DomainError(f"extension degree is limited to e <= {MAX_DEGREE}, got e = {e}")
    return FieldSpec(p, e, _smallest_irreducible(p, e))


def _prime_factors(n: int):
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _field_tables(spec: FieldSpec):
    """(generator, dlog, powers) of F_q, built from one walk of the
    generator's powers; see the module docstring."""
    q = spec.q
    if q > MAX_TABLE_Q:
        raise DomainError(f"field tables are limited to q <= {MAX_TABLE_Q}, got q = {q}")
    order = q - 1
    one = spec.one()
    cofactors = [order // ell for ell in _prime_factors(order)]
    generator = next(
        a for a in map(spec.from_index, range(1, q)) if all(a**k != one for k in cofactors)
    )
    powers = [one]
    for _ in range(order - 1):
        powers.append(powers[-1] * generator)
    return generator, {x.coords: k for k, x in enumerate(powers)}, powers


# -- spec-level operations ------------------------------------------


def nth_power_class(c: FqElem, n: int) -> int:
    """Class of c in F_q^* / (F_q^*)^n, as a residue in Z/gcd(n, q-1).

    Computed against the field's fixed generator, so equal outputs
    characterise ratios that are n-th powers.
    """
    if c.is_zero():
        raise DomainError("0 has no power class")
    if math.gcd(n, c.spec.p) != 1:
        raise DomainError("n must be coprime to the characteristic")
    d = math.gcd(n, c.spec.q - 1)
    return c.spec.dlog(c) % d


def canonical_nth_root(c: FqElem, n: int) -> FqElem:
    """The smallest r (enumeration order) with r^n = c; DomainError if none.

    With c = h^L for the fixed generator h, the roots are the h^k with
    n k = L (mod q-1): none unless d = gcd(n, q-1) divides L, else the d
    exponents k0 + j (q-1)/d.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if c.is_zero():
        return c
    spec = c.spec
    order = spec.q - 1
    d = math.gcd(n, order)
    log = spec.dlog(c)
    if log % d:
        raise DomainError(f"{c} is not an n-th power for n = {n}")
    step = order // d
    k0 = log // d * pow(n // d, -1, step)
    powers = _field_tables(spec)[2]
    return min((powers[(k0 + j * step) % order] for j in range(d)), key=lambda r: r.index)


def canonical_wp_shift(c: FqElem):
    """(rep, w): the transversal representative of c and the smallest w with
    w^p - w = rep - c, the matrix ``_wp_section`` applied to c."""
    spec = c.spec
    return spec.wp_transversal_rep(c), spec.from_digits(_apply_rows(_wp_section(spec), c.coords, spec.p))


# -- test rings F_q[x]/(x^m) -----------------------------------------


@dataclass(frozen=True)
class TestRingSpec(_RingSpec):
    """The local ring F_q[x]/(x^m); every element is a unit or nilpotent."""

    base: FieldSpec
    m: int

    _elem = TestRingElem

    @property
    def p(self) -> int:
        return self.base.p

    def from_field(self, a: FqElem) -> TestRingElem:
        a._check(self.base.zero())  # a row from another field would be misread
        return TestRingElem(self, a.coords + (0,) * ((self.m - 1) * self.base.e))

    def frobenius_row(self, row: tuple) -> tuple:
        """(sum a_i x^i)^p = sum a_i^p x^(ip) in characteristic p, below x^m."""
        base, p, e = self.base, self.p, self.base.e
        out = [0] * (self.m * e)
        for i in range((self.m - 1) // p + 1):
            out[i * p * e : (i * p + 1) * e] = base.frobenius_row(row[i * e : (i + 1) * e])
        return tuple(out)

    def x(self) -> TestRingElem:
        if self.m < 2:
            raise DomainError("x = 0 in a test ring with m = 1")
        # the digit of x^1 g^0 is digit e, worth p^e = q
        return self.from_index(self.base.q)

    def __repr__(self):
        return f"{self.base!r}[x]/(x^{self.m})"


@lru_cache(maxsize=None)
def test_ring(p: int, e: int = 1, m: int = 2) -> TestRingSpec:
    if not 1 <= m <= 4:
        raise DomainError("test rings are limited to F_q[x]/(x^m) with m <= 4")
    return TestRingSpec(field(p, e), m)
