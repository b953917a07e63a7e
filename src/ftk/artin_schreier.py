"""Classification of Z/pZ-covers and elementary-abelian p-covers of
Spec F_q((t)).

A degree-p cyclic cover is B((t))[X]/(X^p - X - b); two series present
isomorphic covers exactly when they differ by a coboundary u^p - u, and a
morphism b -> d is a series u with u^p - u + b = d, composing additively.
Canonical forms live on the prime-to-p support: the positive part of b is
always a coboundary, a pole of order p^a * s (s prime to p) moves to the
slot s after a coefficient p-th roots, and the constant lands on a fixed
transversal of F_q modulo u^p - u.  Each move is realised by an explicit
witness, so canonicalisation doubles as an isomorphism-witness factory.

``as_canonicalize`` reads only the exponents <= 0: the positive part never
changes the class, so it builds no witness and solves nothing, but the
window must still reach t^0 (prec >= 1).  Since u -> u^p - u is additive,
the canonical form is F_p-linear up to the transversal, and two covers c
and d are isomorphic exactly when the form of c - d is zero.
``as_iso_witness`` therefore makes one canonicalisation, of the series
c - d, and its witness is the one the canonicalisations of c and d
compose to: the constant at t^0 is w_c - w_d, each w from
``canonical_wp_shift``, because that shift is the solution whose g^0
coordinate is 0, a linear choice (the proof is in ``as_iso_witness``).
Both functions read the series' digit rows: the difference c - d is a
row-wise series difference, and ``_canonicalize_with_witness(b)`` reads the
rows of its one argument; the positive part, the p-th-root chains and the
slot sums are row maps, the witness is returned as a series of rows, and
elements are built only for the support, one per nonzero slot.

Rank-r elementary-abelian covers are vectors of the rank-1 data, handled
componentwise throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, PrecisionExhausted, check_break_bound
from .fields import FieldSpec, FqElem, canonical_wp_shift
from .series import LaurentSeries, positive_rows


def prime_to_p_support(p: int, m: int):
    """S_m = {1 <= n <= m : p does not divide n}."""
    return [n for n in range(1, m + 1) if n % p]


@dataclass(frozen=True)
class ASCanonical:
    """Canonical datum of a Z/pZ-cover: finitely supported map on the
    prime-to-p integers plus a transversal representative of the
    unramified constant class."""

    spec: FieldSpec
    support: tuple  # sorted ((s, FqElem nonzero), ...), s prime to p
    constant_class: FqElem

    def __post_init__(self):
        for s, c in self.support:
            if s < 1 or s % self.spec.p == 0:
                raise DomainError(f"support key {s} is not prime to p")
            if c.is_zero():
                raise DomainError("canonical support stores nonzero values only")

    @property
    def break_(self):
        """Largest pole slot; None when unramified."""
        return max((s for s, _ in self.support), default=None)

    def support_dict(self) -> dict:
        return dict(self.support)

    def to_series(self, prec: int) -> LaurentSeries:
        d = {-s: c for s, c in self.support}
        if not self.constant_class.is_zero():
            d[0] = self.constant_class
        return LaurentSeries.from_dict(self.spec, d, prec)

    def sort_key(self):
        return (
            tuple((s, c.index) for s, c in self.support),
            self.constant_class.index,
        )

    def to_json(self) -> dict:
        return {
            "support": {str(s): str(c) for s, c in self.support},
            "constant_class": str(self.constant_class),
            "p": self.spec.p,
            "q": self.spec.q,
        }

    def __str__(self):
        return str(self.to_series(1))


@dataclass(frozen=True)
class ASWitness:
    """u with u^p - u + c = d, certifying an isomorphism of covers; the
    full solution set is u + F_p."""

    u: LaurentSeries


def _check_canonical(b: LaurentSeries):
    """Refuse what has no canonical form: a series over a test ring, or a
    window that does not reach t^0."""
    if not isinstance(b.ring, FieldSpec):
        raise DomainError("canonical forms are defined over fields only")
    if b.prec < 1:
        raise PrecisionExhausted("cannot certify the positive-part discard")


def _pole_chains(spec: FieldSpec, lo: int, rows, acc=None):
    """The canonical support of the polar part whose digit rows, at
    exponents lo, lo + 1, ..., are ``rows`` (all below t^0), as sorted
    nonzero (slot, element) pairs.

    A pole of order j = p^a s, p not dividing s, walks down to slot s by a
    p-th roots.  With ``acc``, a row list whose entry k is the exponent
    lo + k, the chain's witness terms are subtracted into it: moving
    c t^{-p^a s} to root = c^{p^-a} at t^{-s} costs -(root^{p^k} t^{-p^k s})
    at every intermediate level k < a, and root^{p^k} = c^{p^(k-a)} is one
    more p-th root per level down."""
    p, e = spec.p, spec.e
    slots: dict = {}
    for i, row in enumerate(rows):
        if not any(row):
            continue
        j, a = -(lo + i), 0
        while j % p == 0:
            j //= p
            a += 1
        for k in reversed(range(a)):
            row = spec.frobenius_row(row, e - 1)
            if acc is not None:
                at = -(p**k) * j - lo
                acc[at] = spec.sub_rows(acc[at], row)
        slots[j] = spec.add_rows(slots[j], row) if j in slots else row
    return tuple((s, spec.from_digits(r)) for s, r in sorted(slots.items()) if any(r))


def _canonicalize_with_witness(b: LaurentSeries):
    """(canonical form, u) with u^p - u + b = canonical (mod t^prec).

    Everything runs on digit rows.  The window is read once, the rows of b
    from its lowest nonzero exponent lo (prec when b is zero).  u is
    assembled in one row list over [lo, prec): the negated positive-part
    solution (``positive_rows`` with ``negated``), the chain terms at
    negative exponents and the constant shift at t^0 sit at disjoint
    exponents, so one list holds their sum, and the support builds one
    element per nonzero slot.  When b has no term at or below t^0, lo > 0:
    then b_0 = 0, so w = 0 and the t^0 slot is left out, and a cover t^N
    known mod t^(N+1) costs one slot, not N."""
    _check_canonical(b)
    spec, zero = b.ring, b.ring.zero().coords
    prec, lo, rows = b.prec, b.eff_val, b.rows
    acc = [zero] * (prec - lo)
    top = max(lo, 1)  # the positive part: adding -(u_+^p - u_+) kills it
    acc[top - lo :] = positive_rows(spec, top, rows[top - lo :], negated=True)
    support = _pole_chains(spec, lo, rows[: max(-lo, 0)], acc)
    # constant to its transversal representative
    rep, w = canonical_wp_shift(b.coeff(0) if lo <= 0 else spec.zero())
    if lo <= 0:
        acc[-lo] = w.coords
    return ASCanonical(spec, support, rep), LaurentSeries.of_rows(spec, lo, prec, acc)


def as_canonicalize(b: LaurentSeries) -> ASCanonical:
    """The canonical form of b, read from its rows at exponents <= 0 only.

    The positive part of b is always a coboundary (``solve_positive``
    names its witness), so it changes nothing and is not read; the window
    must still reach t^0."""
    _check_canonical(b)
    spec = b.ring
    polar = b.rows[: max(-b.val, 0)]
    return ASCanonical(spec, _pole_chains(spec, b.val, polar), spec.wp_transversal_rep(b.coeff(0)))


def as_iso_witness(c: LaurentSeries, d: LaurentSeries):
    """An ASWitness u with u^p - u + c = d when the covers are isomorphic,
    else None, from one canonicalisation: that of c - d.

    Canonical forms are F_p-linear up to the transversal.  The pole chains
    are sums of p-th roots and ``solve_positive`` is a recurrence of
    Frobenius maps, all additive, so the support of c - d is the slotwise
    difference of the supports of c and d.  The constant class is read
    from the trace, and Tr(c_0 - d_0) = Tr(c_0) - Tr(d_0).  So the form
    of c - d is zero exactly when c and d have equal canonical forms.

    The witness is then the one the two canonicalisations compose to,
    u_c - u_d (u_b the witness of ``_canonicalize_with_witness`` of b, on
    the common window).  Away from t^0 that is again additivity.  At t^0
    u_b holds w_b, the smallest w with w^p - w = rep - b_0.  The solutions
    are w_b + F_p, and adding k in F_p moves only the g^0 coordinate, so
    w_b is the solution whose g^0 coordinate is 0.  w_c - w_d has g^0
    coordinate 0 and solves w^p - w = d_0 - c_0 (the representatives are
    equal), which is the equation of c - d: so w_c - w_d = w_{c-d}.

    c - d is a row-wise series difference.  Both covers are checked
    first, so a test-ring cover or one with prec <= 0 raises the
    canonicalisation's own error before the difference is formed."""
    if c.ring != d.ring:
        raise DomainError("covers over different rings")
    _check_canonical(c)
    _check_canonical(d)
    canon, u = _canonicalize_with_witness(c - d)
    if canon.support or not canon.constant_class.is_zero():
        return None
    return ASWitness(u)


def as_moduli_point(f: ASCanonical):
    """The point of the Frobenius-twisted colimit at the minimal level that
    shows the whole support.  The constant class is not part of the point."""
    from .groupoids import IndPoint

    level = f.break_ or 1
    sup = f.support_dict()
    value = tuple(
        sup.get(s, f.spec.zero()) for s in prime_to_p_support(f.spec.p, level)
    )
    return IndPoint(f.spec, 1, level, value)


def as_class_count(spec: FieldSpec, m: int) -> int:
    """p * q^|S_m|, the number of classes enumerate_as_classes lists, in
    closed form.  Refused when q^|S_m| could pass 2^4096, so that a huge
    break bound costs nothing."""
    check_break_bound(m)
    slots = m - m // spec.p
    if slots * (spec.q - 1).bit_length() > 4096:
        raise DomainError("class count exceeds 2^4096")
    return spec.p * spec.q**slots


def enumerate_as_classes(spec: FieldSpec, m: int):
    """Every canonical form with support in S_m, in deterministic order.

    There are p * q^|S_m| of them: q choices per slot times the p
    transversal classes.
    """
    check_break_bound(m)
    slots = prime_to_p_support(spec.p, m)
    transversal = spec.wp_transversal()
    out = []
    for values in itertools.product(range(spec.q), repeat=len(slots)):
        support = tuple(
            (s, spec.from_index(v)) for s, v in zip(slots, values) if v
        )
        for rep in transversal:
            out.append(ASCanonical(spec, support, rep))
    out.sort(key=ASCanonical.sort_key)
    return out


# -- elementary abelian (Z/pZ)^r, componentwise ------------------------


def _check_vector(b_vec):
    if not b_vec:
        raise DomainError("rank-0 vector")
    ring = b_vec[0].ring
    for b in b_vec:
        if b.ring != ring:
            raise DomainError("mixed rings in cover vector")
    return ring


def elemab_canonicalize(b_vec):
    _check_vector(b_vec)
    return tuple(as_canonicalize(b) for b in b_vec)


def elemab_iso_witness(c_vec, d_vec):
    if len(c_vec) != len(d_vec):
        raise DomainError("rank mismatch")
    ws = [as_iso_witness(c, d) for c, d in zip(c_vec, d_vec)]
    if any(w is None for w in ws):
        return None
    return tuple(w.u for w in ws)


def elemab_enumerate(spec: FieldSpec, r: int, m: int):
    """All rank-r canonical vectors with break bound m: (p q^|S_m|)^r."""
    if r < 1:
        raise DomainError("rank must be >= 1")
    singles = enumerate_as_classes(spec, m)
    return [vec for vec in itertools.product(singles, repeat=r)]
