"""Torsors under G = H x| C_n over F_q((t)), H elementary abelian of rank
r, n coprime to p, mu_n contained in F_q.

After reducing (n, q_exp) to coprime and passing to the tame frame
F_q((s)) with s^n = t, a G-torsor is a pair: an H-cover vector b over
F_q((s)) and a twist witness u with

    u_i^p - u_i  =  phi(b)_i - b_i,     phi(b) = psi . b(xi s),

where psi is the matrix through which the chosen generator of C_n acts
on H and xi = zeta^beta for the fixed primitive n-th root zeta and
beta = q_exp^{-1} mod n.  The pair defines a G-torsor exactly when the
twisted cocycle sum

    sum_{j=0}^{n-1} psi^j . u(xi^j s)

vanishes; that sum is the translation part of the n-th power of the
semilinear map realising the twist, and it always lies in (F_p)^r.

Each phi-fixed canonical b carries exactly one G-torsor class, with
automorphism group ker(psi - 1).  The witnesses are u0 + h, h in (F_p)^r,
and the cocycle sum of u0 + h is V(u0) + N h with N = sum_j psi^j.  Since
p does not divide n, (F_p)^r is the direct sum of ker(psi - 1) and
im(psi - 1), N is n on the first summand and 0 on the second, and V(u0)
lies in ker(psi - 1); so the h with a vanishing sum form one coset of
im(psi - 1), which is one orbit of the residual action u ~ u + (psi - 1)h.
The full proof is in ``enumerate_g_torsors``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .artin_schreier import elemab_canonicalize, elemab_enumerate
from .errors import DomainError, FtkError
from .fields import FieldSpec
from .series import LaurentSeries, default_prec


# -- tiny F_p linear algebra ----------------------------------------------


def mat_identity(r: int):
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul(a, b, p: int):
    r = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(r)) % p for j in range(r))
        for i in range(r)
    )


def mat_pow(a, n: int, p: int):
    result = mat_identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        n >>= 1
    return result


def mat_vec_series(m, vec, p: int):
    """Apply an F_p matrix to a vector of series."""
    out = []
    for i in range(len(m)):
        acc = None
        for j, x in enumerate(vec):
            term = x.scale_int(m[i][j])
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def mat_kernel_size(m, p: int) -> int:
    """|ker| of an r x r matrix over F_p, by Gaussian elimination."""
    r = len(m)
    rows = [list(row) for row in m]
    rank = 0
    col = 0
    for col in range(r):
        piv = next((i for i in range(rank, r) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(r):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return p ** (r - rank)


# -- group and frame -------------------------------------------------------


@dataclass(frozen=True)
class SemidirectGroup:
    """G = (Z/pZ)^r x| C_n, the generator of C_n acting through psi."""

    p: int
    r: int
    n: int
    psi: tuple  # r x r matrix over F_p

    @staticmethod
    def make(p: int, r: int, n: int, psi) -> "SemidirectGroup":
        if math.gcd(n, p) != 1:
            raise DomainError("n must be coprime to p")
        if r < 0 or n < 1:
            raise DomainError("bad rank or order")
        psi = tuple(tuple(x % p for x in row) for row in psi)
        if len(psi) != r or any(len(row) != r for row in psi):
            raise DomainError("psi must be r x r")
        if r and mat_pow(psi, n, p) != mat_identity(r):
            raise DomainError("psi^n must be the identity")
        return SemidirectGroup(p, r, n, psi)

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r, "n": self.n, "psi": [list(r_) for r_ in self.psi]}


@dataclass(frozen=True)
class TameFrame:
    """The marked tame cover: F_q((s)), s^n = t, with the generator zeta of
    mu_n acting as s -> xi s, xi = zeta^beta, beta = q_exp^{-1} mod n."""

    spec: FieldSpec
    n: int
    q_exp: int

    def __post_init__(self):
        if math.gcd(self.n, self.spec.p) != 1:
            raise DomainError("frame order divisible by p")
        if self.n > 1 and math.gcd(self.q_exp, self.n) != 1:
            raise DomainError("q_exp not coprime to n: reduce first")
        if (self.spec.q - 1) % self.n:
            raise DomainError(f"F_{self.spec.q} lacks the n-th roots of unity")

    @property
    def zeta(self):
        """Canonical primitive n-th root of unity (a power of the generator)."""
        return self.spec.generator ** ((self.spec.q - 1) // self.n)

    @property
    def beta(self) -> int:
        return pow(self.q_exp, -1, self.n) if self.n > 1 else 0

    @property
    def xi(self):
        return self.zeta**self.beta


def reduce_to_coprime(group: SemidirectGroup, q_exp: int):
    """(n', q_exp', group'): divide out d = gcd(n, q_exp).

    The subgroup H x| C_{n/d} is generated by the d-th power of the chosen
    generator, so it acts through psi^d; the induced map on torsor classes
    is a bijection.
    """
    d = math.gcd(group.n, q_exp)
    if d <= 1:
        return group.n, q_exp, group
    n2 = group.n // d
    psi2 = mat_pow(group.psi, d, group.p) if group.r else group.psi
    return n2, q_exp // d, SemidirectGroup.make(group.p, group.r, n2, psi2)


# -- the twist phi and the Z_phi data --------------------------------------


def phi_apply(group: SemidirectGroup, frame: TameFrame, b_vec):
    """Class-level action of the twist: psi . (b with s -> xi s)."""
    if len(b_vec) != group.r:
        raise DomainError("vector rank mismatch")
    substituted = tuple(b.scale_substitute(frame.xi) for b in b_vec)
    return mat_vec_series(group.psi, substituted, group.p)


@dataclass(frozen=True)
class ZPhiObject:
    """(b, u) with u_i^p - u_i = phi(b)_i - b_i, to precision."""

    b_vec: tuple
    u_vec: tuple

    @staticmethod
    def make(group, frame, b_vec, u_vec) -> "ZPhiObject":
        target = phi_apply(group, frame, b_vec)
        for u, b, d in zip(u_vec, b_vec, target):
            if not (u.wp() + b - d).is_zero():
                raise DomainError("witness identity fails")
        return ZPhiObject(tuple(b_vec), tuple(u_vec))


def zphi_solve(group: SemidirectGroup, frame: TameFrame, b_vec):
    """All witness vectors u (a torsor under (F_p)^r), or None.

    Solvable exactly when the canonical form of b is phi-fixed.
    """
    target = phi_apply(group, frame, b_vec)
    from .artin_schreier import elemab_iso_witness

    u0 = elemab_iso_witness(b_vec, target)
    if u0 is None:
        return None
    ring = b_vec[0].ring
    out = []
    for consts in itertools.product(range(group.p), repeat=group.r):
        shift = [
            LaurentSeries.constant(ring.from_int(k), u.prec)
            for k, u in zip(consts, u0)
        ]
        out.append(tuple(u + s for u, s in zip(u0, shift)))
    out.sort(key=lambda uv: tuple((u.val, tuple(c.index for c in u.coeffs)) for u in uv))
    return out


def vn_check(group: SemidirectGroup, frame: TameFrame, obj: ZPhiObject):
    """The twisted cocycle sum sum_j psi^j . u(xi^j s), as a vector in
    (F_p)^r; zero exactly when (b, u) extends to a G-torsor.

    A non-constant sum signals a convention or precision fault and raises.
    """
    p = group.p
    total = None
    for j in range(frame.n):
        twisted = tuple(u.scale_substitute(frame.xi**j) for u in obj.u_vec)
        term = mat_vec_series(mat_pow(group.psi, j, p), twisted, p)
        total = term if total is None else tuple(a + b for a, b in zip(total, term))
    values = []
    for w in total:
        if not w.is_constant():
            raise FtkError("twisted cocycle sum is not constant")
        c = w.coeff(0) if w.prec > 0 else w.ring.zero()
        if not c.in_prime_field():
            raise FtkError("twisted cocycle sum not in the prime field")
        values.append(c.as_int())
    return tuple(values)


# -- enumeration ------------------------------------------------------------


@dataclass(frozen=True)
class GTorsorClass:
    group: SemidirectGroup
    frame: TameFrame
    zphi: ZPhiObject  # canonical representative; b entries are canonical forms
    canonical_b: tuple  # componentwise ASCanonical
    aut_count: int

    @property
    def break_(self):
        return max((c.break_ or 0 for c in self.canonical_b), default=0)

    def class_id(self) -> dict:
        return {
            "b": [c.to_json() for c in self.canonical_b],
            "u": [str(u) for u in self.zphi.u_vec],
        }


def enumerate_g_torsors(group: SemidirectGroup, frame: TameFrame, break_bound: int):
    """Classes of G-torsors marked with the given tame frame, wild break
    at most break_bound (in the frame variable s).

    Walks the canonical H-cover vectors b that phi fixes and emits one
    class for each: the witness is the first solution of ``zphi_solve``, in
    its sort order, whose twisted cocycle sum vanishes, and aut_count =
    |ker(psi - 1)|.

    Theorem: a phi-fixed b carries exactly one class.  Write
    V(u) = sum_{j<n} psi^j u(xi^j s) and N = sum_{j<n} psi^j; the
    witnesses are u0 + h, h in (F_p)^r.

    1. Constants are fixed by s -> xi^j s, so V(u0 + h) = V(u0) + N h.
    2. V(u0) is a constant in (F_p)^r: V(u0)^p - V(u0) telescopes to
       psi^n b(xi^n s) - b = 0.  Shifting j to j + 1 and using psi^n = 1,
       xi^n = 1 gives psi V(u0) = V(u0)(xi^-1 s) = V(u0), so V(u0) lies
       in ker(psi - 1).
    3. As p does not divide n, (psi - 1) N = psi^n - 1 = 0 and N is n, a
       unit, on ker(psi - 1): so im N = ker(psi - 1).  N (psi - 1) = 0
       and dim ker N = r - dim ker(psi - 1) then give
       ker N = im(psi - 1).
    4. So N h = -V(u0) is solvable, and its solutions form exactly one
       coset of im(psi - 1), which is one orbit of the residual action
       u ~ u + (psi - 1)h.  Its stabiliser is ker(psi - 1).

    A phi-fixed b without a good witness is therefore a fault, and raises
    FtkError.
    """
    if frame.n > 1 and math.gcd(frame.q_exp, frame.n) != 1:
        raise DomainError("apply reduce_to_coprime first")
    prec = default_prec(break_bound)
    spec = frame.spec
    p = group.p
    if group.r == 0:
        return [
            GTorsorClass(group, frame, ZPhiObject((), ()), (), 1)
        ]
    psi_minus_1 = tuple(
        tuple((group.psi[i][j] - (1 if i == j else 0)) % p for j in range(group.r))
        for i in range(group.r)
    )
    aut = mat_kernel_size(psi_minus_1, p)

    def classes_at(canon_vec):
        b_vec = tuple(c.to_series(prec) for c in canon_vec)
        if elemab_canonicalize(phi_apply(group, frame, b_vec)) != canon_vec:
            return []
        for u_vec in zphi_solve(group, frame, b_vec) or ():
            obj = ZPhiObject(b_vec, u_vec)
            if not any(vn_check(group, frame, obj)):
                return [GTorsorClass(group, frame, obj, canon_vec, aut)]
        raise FtkError("a phi-fixed cover vector has no twist witness with a vanishing cocycle sum")

    from .parallel import parallel_map

    chunks = parallel_map(classes_at, elemab_enumerate(spec, group.r, break_bound))
    out = [cls for chunk in chunks for cls in chunk]
    out.sort(key=lambda c: (c.break_, tuple(x.sort_key() for x in c.canonical_b)))
    return out
