"""The benchmark's own arithmetic, used to build inputs and check outputs.

Nothing here imports ftk.  A field F_q, q = p^e, is F_p[g]/(modulus) with
the modulus chosen by the rule in the repository README: the first monic
irreducible of degree e when coefficient vectors are read as base-p
integers, constant digit least significant.  Elements are ints: the
element sum c_i g^i is the integer sum c_i p^i (ftk's ``index``).
Multiplication goes through log/antilog tables built from the smallest
primitive element, which this module finds itself.

A series is (val, prec, coeffs): the coefficients of t^val .. t^(prec-1),
known modulo t^prec.
"""

from __future__ import annotations

import math

# -- polynomials over F_p, coefficient lists with the constant first --------


def _digits(idx: int, p: int, n: int):
    out = []
    for _ in range(n):
        out.append(idx % p)
        idx //= p
    return out


def _poly_rem(a, m, p):
    a = list(a)
    while len(a) >= len(m):
        lead = a[-1] % p
        if lead:
            shift = len(a) - len(m)
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _irreducible(f, p: int) -> bool:
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            if not _poly_rem(f, _digits(idx, p, d) + [1], p):
                return False
    return deg >= 1


class Field:
    """F_{p^e} on int-coded elements, built without ftk."""

    def __init__(self, p: int, e: int = 1):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"p = {p} is not prime")
        self.p, self.e, self.q = p, e, p**e
        self.modulus = next(
            f
            for f in (_digits(i, p, e) + [1] for i in range(p**e))
            if _irreducible(f, p)
        )
        self.gen = next(a for a in range(1, self.q) if self._order(a) == self.q - 1)
        self.exp = [1] * (self.q - 1)
        for k in range(1, self.q - 1):
            self.exp[k] = self._mul_poly(self.exp[k - 1], self.gen)
        self.log = {a: k for k, a in enumerate(self.exp)}
        if len(self.log) != self.q - 1:
            raise AssertionError("generator is not primitive")

    # -- slow multiplication used to build the tables ---------------------

    def _mul_poly(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        x, y = _digits(a, p, e), _digits(b, p, e)
        prod = [0] * (2 * e)
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y):
                    prod[i + j] = (prod[i + j] + u * v) % p
        return self.from_digits(_poly_rem(prod, self.modulus, p))

    def _order(self, a: int) -> int:
        x, k = a, 1
        while x != 1:
            x = self._mul_poly(x, a)
            k += 1
            if k > self.q:
                return 0
        return k

    # -- element arithmetic ------------------------------------------------

    def from_digits(self, digits) -> int:
        return sum(c * self.p**i for i, c in enumerate(digits))

    def digits(self, a: int):
        return _digits(a, self.p, self.e)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        return self.from_digits((x + y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        return self.from_digits(-x % self.p for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n > 0 else 1
        return self.exp[(self.log[a] * n) % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def trace(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(e-1)), an element of F_p."""
        t = 0
        for k in range(self.e):
            t = self.add(t, self.pow(a, self.p**k))
        if t >= self.p:
            raise AssertionError("trace left the prime field")
        return t

    def trace_rep(self, tau: int) -> int:
        """Smallest element (by index) of absolute trace tau.

        The image of u -> u^p - u is the kernel of the trace (additive
        Hilbert 90), so this is the lex-smallest member of the coset of
        constants with trace tau.
        """
        return next(a for a in range(self.q) if self.trace(a) == tau)

    def dlog(self, a: int) -> int:
        return self.log[a]

    # -- text in ftk's series grammar ---------------------------------------

    def render(self, a: int) -> str:
        if self.e == 1:
            return str(a)
        terms = []
        for i, c in reversed(list(enumerate(self.digits(a)))):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                v = "g" if i == 1 else f"g^{i}"
                terms.append(v if c == 1 else f"{c}{v}")
        return "+".join(terms) if terms else "0"

    def parse(self, text: str) -> int:
        """Read an element as ftk renders it: '2', 'g^2+2g+1', '(g+1)'."""
        text = text.strip().strip("()")
        total = 0
        for term in text.split("+"):
            term = term.strip()
            if "g" not in term:
                total = self.add(total, int(term) % self.p)
                continue
            coeff, _, power = term.partition("g")
            c = int(coeff) if coeff else 1
            k = int(power[1:]) if power else 1
            if self.e == 1 or k >= self.e:
                raise ValueError(f"bad element text {text!r}")
            total = self.add(total, (c % self.p) * self.p**k)
        return total

    def __repr__(self):
        return f"Field({self.p}, {self.e})"


def render_series(field: Field, support: dict) -> str:
    """Text for the Laurent polynomial sum support[k] t^k (nonzero values)."""
    terms = []
    for k in sorted(support):
        c = support[k]
        if c == 0:
            continue
        cs = field.render(c)
        if "+" in cs:
            cs = f"({cs})"
        terms.append(cs if k == 0 else f"{cs}*t^{k}")
    return " + ".join(terms) if terms else "0"


def default_prec(support: dict) -> int:
    """The window ftk's parser opens for a literal (README: 2 * pole + 32)."""
    top = max(support) if support else 0
    bottom = min(support) if support else 0
    return max(top + 1, 2 * max(0, -bottom) + 32)


# -- truncated series (val, prec, coeffs) ---------------------------------


def series(field: Field, support: dict, prec: int):
    lo = min(support, default=prec)
    return (lo, prec, [support.get(k, 0) for k in range(lo, prec)])


def s_coeff(s, k: int) -> int:
    val, prec, cs = s
    if k >= prec:
        raise ValueError(f"coefficient t^{k} is beyond precision {prec}")
    return cs[k - val] if val <= k else 0


def s_add(field: Field, a, b):
    prec = min(a[1], b[1])
    lo = min(a[0], b[0], prec)
    return (lo, prec, [field.add(s_coeff(a, k), s_coeff(b, k)) for k in range(lo, prec)])


def s_neg(field: Field, a):
    return (a[0], a[1], [field.neg(c) for c in a[2]])


def s_mul(field: Field, a, b):
    """Product known modulo t^min(val_a + prec_b, val_b + prec_a)."""
    va, vb = valuation(a), valuation(b)
    prec = min(va + b[1], vb + a[1])
    lo = a[0] + b[0]
    out = [0] * max(0, prec - lo)
    for i, x in enumerate(a[2]):
        if x:
            for j, y in enumerate(b[2]):
                k = i + j
                if lo + k >= prec:
                    break
                if y:
                    out[k] = field.add(out[k], field.mul(x, y))
    return (lo, prec, out)


def valuation(s) -> int:
    """Least exponent with a nonzero coefficient; prec for the zero series."""
    for i, c in enumerate(s[2]):
        if c:
            return s[0] + i
    return s[1]


def s_pow(field: Field, a, n: int):
    result, base = None, a
    while n:
        if n & 1:
            result = base if result is None else s_mul(field, result, base)
        n >>= 1
        if n:
            base = s_mul(field, base, base)
    return result


def s_wp(field: Field, u):
    """u^p - u: coefficientwise Frobenius with exponents dilated by p."""
    p = field.p
    val, prec, cs = u
    up = {p * (val + i): field.pow(c, p) for i, c in enumerate(cs) if c}
    return s_add(field, series(field, up, p * prec), s_neg(field, u))


def first_mismatch(a, b, lo: int, hi: int):
    """The least exponent in [lo, hi) where a and b differ, or None."""
    for k in range(lo, hi):
        if s_coeff(a, k) != s_coeff(b, k):
            return k
    return None


# -- Artin-Schreier expectations --------------------------------------------


def prime_to_p_slots(p: int, m: int):
    return [k for k in range(1, m + 1) if k % p]


def as_class_count(field: Field, m: int) -> int:
    return field.p * field.q ** len(prime_to_p_slots(field.p, m))


def kummer_class_count(field: Field, n: int) -> int:
    return n * math.gcd(n, field.q - 1)


# -- F_q linear algebra and semidirect expectations --------------------------


def kernel_size(field: Field, mat) -> int:
    """|ker M| for a square matrix over the field, by Gaussian elimination."""
    rows = [list(r) for r in mat]
    r = len(rows)
    rank = 0
    for col in range(r):
        piv = next((i for i in range(rank, r) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(r):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return field.q ** (r - rank)


def mat_pow_mod(mat, n: int, p: int):
    r = len(mat)
    out = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(n):
        out = [[sum(out[i][k] * mat[k][j] for k in range(r)) % p for j in range(r)] for i in range(r)]
    return out


class SemidirectExpectation:
    """Expected G-torsor census for G = (Z/p)^r x| C_n over F_q, frame q_exp.

    After dividing out d = gcd(n, q_exp) (the generator's d-th power acts
    through psi^d), the twist phi acts on canonical forms slot by slot:
    the coefficient vector c_k at pole slot k goes to xi^(-k) psi c_k, and
    the constant classes (Z/p-valued through the trace) go to psi c_0.
    Each phi-fixed canonical vector carries exactly one torsor class,
    since C_n has order prime to p and so no cohomology on (Z/p)^r.
    """

    def __init__(self, field: Field, r: int, n: int, psi, q_exp: int):
        p = field.p
        d = math.gcd(n, q_exp)
        self.field, self.r = field, r
        self.n, self.q_exp = n // d, q_exp // d
        self.psi = mat_pow_mod([[x % p for x in row] for row in psi], d, p)
        if (field.q - 1) % self.n:
            raise ValueError("the field lacks the n-th roots of unity")
        zeta = field.pow(field.gen, (field.q - 1) // self.n)
        beta = pow(self.q_exp, -1, self.n) if self.n > 1 else 0
        self.xi = field.pow(zeta, beta)
        ident = [[int(i == j) for j in range(r)] for i in range(r)]
        self.aut = kernel_size(
            Field(p), [[(self.psi[i][j] - ident[i][j]) % p for j in range(r)] for i in range(r)]
        )

    def slot_matrix(self, k: int):
        """xi^(-k) psi - 1 over F_q."""
        f = self.field
        s = f.pow(self.xi, -k)
        return [
            [f.sub(f.mul(s, self.psi[i][j] % f.p), int(i == j)) for j in range(self.r)]
            for i in range(self.r)
        ]

    def slot_size(self, k: int) -> int:
        return kernel_size(self.field, self.slot_matrix(k))

    def count(self, m: int) -> int:
        out = self.aut
        for k in prime_to_p_slots(self.field.p, m):
            out *= self.slot_size(k)
        return out

    def is_fixed_vector(self, k: int, vec) -> bool:
        """Is the coefficient vector at slot k fixed by xi^(-k) psi?"""
        f = self.field
        for row in self.slot_matrix(k):
            acc = 0
            for a, x in zip(row, vec):
                acc = f.add(acc, f.mul(a, x))
            if acc:
                return False
        return True

