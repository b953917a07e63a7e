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

On canonical vectors phi acts slot by slot: at a pole slot k it is
c_k -> xi^-k psi c_k on F_q^r, and on the constant classes it is psi on
their traces.  So the census generates the phi-fixed vectors as the
product of one F_p-kernel per slot and the psi-fixed constants, through
the census generator ``artin_schreier.census_rows`` that count-as also
uses, and counts them in closed form before building any.  Such a b is
fixed by phi on the nose, not only up to Artin-Schreier equivalence, so
u = 0 is a witness with a vanishing cocycle sum, and the census emits
(b, 0) for each.  The full proofs are in ``g_torsor_census``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .artin_schreier import as_class_count, canonical_vector, census_rows, prime_to_p_support
from .errors import DomainError, FtkError
from .fields import FieldSpec, mat_identity, mat_kernel, mat_pow, mul_matrix
from .series import LaurentSeries


# -- F_p matrices on vectors of series ------------------------------------


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
        if mat_pow(psi, n, p) != mat_identity(r):
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
    psi2 = mat_pow(group.psi, d, group.p)
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
        """Check the witness identity."""
        target = phi_apply(group, frame, b_vec)
        for u, b, d in zip(u_vec, b_vec, target):
            if not (u.wp() + b - d).is_zero():
                raise DomainError("witness identity fails")
        return ZPhiObject(tuple(b_vec), tuple(u_vec))


def zphi_solve(group: SemidirectGroup, frame: TameFrame, b_vec):
    """All witness vectors u (a torsor under (F_p)^r), or None.

    Solvable exactly when the canonical form of b is phi-fixed.
    """
    from .artin_schreier import elemab_iso_witness

    u0 = elemab_iso_witness(b_vec, phi_apply(group, frame, b_vec))
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

    The sum is sum_{j<n} phi^j(u) for phi(v) = psi . v(xi s), the map of
    ``phi_apply``.  Proof, by induction on j: psi is F_p-linear and
    s -> xi s is additive and acts on each entry alone, so the two
    commute, and phi^(j+1)(u) = psi . (psi^j . u(xi^j s))(xi s)
    = psi^(j+1) . u(xi^(j+1) s).  phi is additive, so the sum is computed
    by Horner, total <- u + phi(total) run n - 1 times from total = u: no
    power of psi or of xi is formed.

    The sum is read in the prime field of the frame's field, so a witness
    over any other ring is refused before any arithmetic.  A non-constant
    sum signals a convention or precision fault and raises.
    """
    for u in obj.u_vec:
        if u.ring != frame.spec:
            raise DomainError(f"witness over {u.ring!r}, frame over {frame.spec!r}")
    total = obj.u_vec
    for _ in range(frame.n - 1):
        total = tuple(a + b for a, b in zip(obj.u_vec, phi_apply(group, frame, total)))
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


def _twist_minus_one(psi, lam_rows, p: int):
    """The rows of v -> lam psi v - v on F_q^r, one per digit of v.

    A vector is its e r digits, component-major: digit a of component j
    at index j e + a.  The row of that digit is lam g^a, the row a of
    ``lam_rows = mul_matrix(lam)``, put in each component i with weight
    psi[i][j], less the unit vector of the digit.  So the relations among
    the rows (``mat_kernel``) are the v with lam psi v = v.  With e = 1 and
    lam_rows = ((1,),) they are the v in F_p^r with psi v = v."""
    r, e = len(psi), len(lam_rows)
    rows = []
    for j in range(r):
        for a in range(e):
            row = [psi[i][j] * x % p for i in range(r) for x in lam_rows[a]]
            row[j * e + a] = (row[j * e + a] - 1) % p
            rows.append(row)
    return rows


def _fixed_bases(group: SemidirectGroup, frame: TameFrame, break_bound: int):
    """(constants, slots): F_p bases of the phi-fixed canonical coordinates.

    ``constants`` spans ker(psi - 1) in F_p^r, the trace vectors of the
    fixed constant classes; ``slots`` pairs each k in S_m with a basis of
    ker(xi^-k psi - 1) in the e r digits of F_q^r.  That matrix depends on
    k mod n only, as xi^n = 1, so each residue is eliminated once."""
    p, n, psi = group.p, frame.n, group.psi
    constants = mat_kernel(_twist_minus_one(psi, ((1,),), p), p)
    by_residue: dict = {}
    slots = []
    for k in prime_to_p_support(p, break_bound):
        basis = by_residue.get(k % n)
        if basis is None:
            lam = frame.xi ** (n - k % n)  # xi^-k
            basis = by_residue[k % n] = mat_kernel(_twist_minus_one(psi, mul_matrix(lam), p), p)
        slots.append((k, basis))
    return constants, slots


def g_torsor_class_count(group: SemidirectGroup, frame: TameFrame, break_bound: int) -> int:
    """The number of classes ``g_torsor_census`` emits, in closed form
    from the same slot kernels: |ker(psi - 1)| * prod_{k in S_m}
    |ker(xi^-k psi - 1)|.  No class is built.  The break bound is refused
    as ``as_class_count`` refuses it, so a huge bound costs nothing."""
    as_class_count(frame.spec, break_bound)
    constants, slots = _fixed_bases(group, frame, break_bound)
    return group.p ** (len(constants) + sum(len(basis) for _, basis in slots))


def g_torsor_census(group: SemidirectGroup, frame: TameFrame, break_bound: int):
    """The census rows (break, aut_order, text, choice, b) of the classes
    of G-torsors marked with the given tame frame, wild break at most
    break_bound (in the frame variable s), in CSV order.

    The canonical H-cover vectors b that phi fixes come from
    ``census_rows`` on the slot kernels of ``_fixed_bases``, and each
    gives one class: (b, 0), with aut_order = |ker(psi - 1)|.  text is the
    class id ``{"b": [T_1, ...], "u": ["0", ...]}`` as ``json.dumps``
    writes it; it sorts as the components' texts T_i, so the rows keep
    the order of ``census_rows``.  b is the cover vector as series on the
    polar window, and choice its slot values.  No other candidate is
    built and no witness is searched for, so the cost follows the number
    of classes.  The break bound and the class count are refused at the
    call; the rows come lazily.

    Theorem A: phi acts slot by slot on canonical vectors.  Write the
    components of a canonical b as b_i = sum_{k in S_m} c_{i,k} s^-k +
    c_{i,0}, and c_k = (c_{i,k})_i in F_q^r.  Then

        phi(b)_i = sum_j psi_ij b_j(xi s)
                 = sum_k xi^-k (psi c_k)_i s^-k + (psi c_0)_i.

    Its poles sit at the slots k, prime to p, where canonicalisation moves
    nothing (a chain starts only at an exponent divisible by p), and it
    has no positive part.  So the canonical form of phi(b) has the slot
    vector xi^-k psi c_k at each k, and at t^0 the transversal
    representative of psi c_0.  A representative is fixed by its absolute
    trace, and Tr is F_p-linear while psi has entries in F_p, so that
    representative has trace vector psi Tr(c_0).

    Corollary: b is phi-fixed exactly when c_k lies in ker(xi^-k psi - 1)
    for every k in S_m and Tr(c_0) lies in ker(psi - 1) on F_p^r.  The
    conditions are on disjoint coordinates, so the fixed set is the
    product of the slot kernels and the psi-fixed constant classes, and
    its size is |ker(psi - 1)| * prod_k |ker(xi^-k psi - 1)|
    (``g_torsor_class_count``).  Each slot kernel is F_q-linear; on the
    e r digits its map is psi (x) M(xi^-k) - 1, M(a) = ``mul_matrix(a)``.

    Theorem B: a phi-fixed b carries exactly one class.  Write
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

    Corollary C: a generated b satisfies phi(b) = b as series, not only
    up to Artin-Schreier equivalence, so u = 0 is a witness of its class.
    By Theorem A, phi(b) has the slot vector xi^-k psi c_k at each k and
    the constant vector psi c_0.
    1. The slot part is fixed by construction: c_k lies in
       ker(xi^-k psi - 1), so xi^-k psi c_k = c_k.
    2. ``wp_transversal()`` is an F_p-line in F_q, so psi c_0, an F_p
       combination of representatives, is a vector of representatives.
       Its trace vector is psi Tr(c_0) = Tr(c_0), and a representative is
       fixed by its trace, so psi c_0 = c_0.
    3. So u = 0 solves u^p - u = phi(b) - b = 0, and its cocycle sum is
       V(0) = 0: (b, 0) is the class of Theorem B.

    Every emitted class is still certified by one exact check, on the b
    built from the same slot values as its text: b lives on the exponents
    [-m, 0], and neither s -> xi s nor an F_p matrix moves an exponent, so
    phi(b) = b holds on the polar window (precision 1) exactly when it
    holds as series.  A generated vector that fails it is a fault and
    raises FtkError.
    """
    spec, r = frame.spec, group.r
    as_class_count(spec, break_bound)
    rows = census_rows(spec, r, *_fixed_bases(group, frame, break_bound))
    zeros = ", ".join(['"0"'] * r)

    def certified(brk, aut, text, choice):
        b_vec = tuple(LaurentSeries.from_dict(spec, {-k: v[i] for _, k, v in choice}, 1) for i in range(r))
        if phi_apply(group, frame, b_vec) != b_vec:
            raise FtkError("a generated cover vector is not phi-fixed")
        return brk, aut, f'{{"b": [{text}], "u": [{zeros}]}}', choice, b_vec

    return (certified(*row) for row in rows)


def enumerate_g_torsors(group: SemidirectGroup, frame: TameFrame, break_bound: int):
    """The classes of ``g_torsor_census``, in its order, as objects."""
    zeros = (LaurentSeries.zero(frame.spec, 1),) * group.r
    return [
        GTorsorClass(group, frame, ZPhiObject(b_vec, zeros), canonical_vector(frame.spec, choice), aut)
        for _, aut, _, choice, b_vec in g_torsor_census(group, frame, break_bound)
    ]
