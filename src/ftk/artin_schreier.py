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

IndPoint models a point of colim_m A^(S_m) (tensored with an elementary
abelian group of rank r): the transition from level m to m+1 includes the
coordinate vector into the larger slot set and applies the coefficient
Frobenius once.  The slots S_m = {1 <= k <= m : p does not divide k} are
ascending, so S_m is a prefix of S_M, and S_m minus S_(m-1) is {m} when p
does not divide m and empty otherwise.  A value is slot-major, one row of
r coordinates per slot, so the inclusion appends zero rows and a step
down drops the top row.  Equality is equality after transporting to a
common level; the canonical representative is the level-minimal one,
reachable because coefficient p-th roots exist over a perfect field.
``as_moduli_point`` sends a canonical form to its point.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .errors import DomainError, PrecisionExhausted, check_break_bound, check_census
from .fields import FieldSpec, FqElem, _trace_rep, canonical_wp_shift, mat_identity
from .series import LaurentSeries, positive_rows


def prime_to_p_support(p: int, m: int):
    """S_m = {1 <= n <= m : p does not divide n}."""
    return [n for n in range(1, m + 1) if n % p]


def _slot_count(p: int, m: int) -> int:
    """|S_m| = m - floor(m/p)."""
    return m - m // p


@dataclass(frozen=True)
class IndPoint:
    """A point of the level-m affine chart, considered in the colimit."""

    spec: FieldSpec
    r: int
    level: int
    value: tuple  # FqElem vector indexed by S_level x r, slot-major

    def __post_init__(self):
        if self.level < 1:
            raise DomainError("levels start at 1")
        expected = _slot_count(self.spec.p, self.level) * self.r
        if len(self.value) != expected:
            raise DomainError(
                f"value length {len(self.value)} != |S_m| * r = {expected}"
            )

    def transition(self, M: int) -> "IndPoint":
        """Transport to level M >= level: apply the coefficient Frobenius
        once per level step, then append a zero row for each slot of S_M
        beyond S_level."""
        if M < self.level:
            raise DomainError("transitions only go up")
        out = []
        for c in self.value:
            for _ in range(M - self.level):
                c = c.frobenius()
            out.append(c)
        new_rows = _slot_count(self.spec.p, M) - _slot_count(self.spec.p, self.level)
        out.extend([self.spec.zero()] * (new_rows * self.r))
        return IndPoint(self.spec, self.r, M, tuple(out))

    def eq(self, other: "IndPoint") -> bool:
        if self.spec != other.spec or self.r != other.r:
            raise DomainError("points of different systems")
        M = max(self.level, other.level)
        return self.transition(M).value == other.transition(M).value

    def canonical(self) -> "IndPoint":
        """The least-level representative of the colimit class (idempotent)."""
        level, value = self.level, self.value
        while level > 1:
            # the top row is slot `level`, present when p does not divide it
            top = self.r if level % self.spec.p else 0
            rest = len(value) - top
            if any(not c.is_zero() for c in value[rest:]):
                break
            value = tuple(c.pth_root() for c in value[:rest])
            level -= 1
        return IndPoint(self.spec, self.r, level, value)


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
    slots = _slot_count(spec.p, m)
    if slots * (spec.q - 1).bit_length() > 4096:
        raise DomainError("class count exceeds 2^4096")
    return spec.p * spec.q**slots


def _span(basis, p: int, width: int) -> list:
    """Every F_p combination of the basis vectors, p^len(basis) of them,
    the zero vector first."""
    out = [(0,) * width]
    for b in basis:
        out = [tuple((x + c * y) % p for x, y in zip(v, b)) for v in out for c in range(p)]
    return out


def census_grid(spec: FieldSpec, r: int, constants, slots):
    """(heads, options): the census of ``census_rows`` as a grid, before
    any class text is joined.

    - heads lists the constant options in text order, p^len(constants)
      of them: their number is the aut_order of every class.
    - options maps each slot k of ``slots`` to its nonzero options in
      text order and its zero option.

    An option is (pieces, k, vector), k = 0 for a head.  vector is the
    value in F_q^r, the constant classes for a head.  pieces holds its
    text per component: a head ``{"constant_class": C, "p": P, "q": Q,
    "support": {``, or a slot piece ``"k": V`` ("" where the component
    is zero).  Each field element is quoted once.  ``grid_breaks`` gives
    the slot factors of each break.  The class count is refused past
    MAX_CENSUS at the call, before any option is built."""
    p, e = spec.p, spec.e
    check_census(p ** (len(constants) + sum(len(basis) for _, basis in slots)))
    quote = functools.cache(lambda c: json.dumps(str(c)))
    heads = sorted(
        (tuple(f'{{"constant_class": {quote(c)}, "p": {p}, "q": {spec.q}, "support": {{' for c in vec), 0, vec)
        for vec in (tuple(_trace_rep(spec, t) for t in v) for v in _span(constants, p, r))
    )
    options = {}
    for k, basis in slots:
        vecs = [tuple(spec.from_digits(v[j * e : (j + 1) * e]) for j in range(r)) for v in _span(basis, p, e * r)]
        zero, *rest = [(tuple("" if c.is_zero() else f'"{k}": {quote(c)}' for c in vec), k, vec) for vec in vecs]
        options[k] = sorted(rest), zero
    return heads, options


def grid_breaks(options):
    """(j, factors) for each break j in numeric order: 0, then each slot
    with a nonzero option.  options maps each slot k to (its nonzero
    options, its zero option), as ``census_grid`` gives them or any map
    of them.  factors lists the slots k <= j in key-text order ("1" <
    "11" < "3"), each as its nonzero options, then its zero option unless
    k = j: the classes of break j have slot j nonzero.  At rank 1 each
    break is one census block (j, aut_order, heads, tails): its classes
    are each head followed by each tail of ``joined_tails`` of the
    factors' pieces."""
    for j in [0] + [k for k, (nonzero, _) in options.items() if nonzero]:
        keys = sorted((k for k in options if k <= j), key=str)
        yield j, [options[k][0] + ([] if k == j else [options[k][1]]) for k in keys]


def joined_tails(factors):
    """The tails of rank-1 class texts: for each choice of one piece per
    factor, in product order, the nonempty pieces joined by ", " and
    closed by ``}}``.  A factor lists its pieces, "" (absent) last if at
    all.

    Built back to front from [``}}``], the tails of no factor.  A piece o
    goes before every tail t of the factors after it, as o + ", " + t,
    or o + ``}}`` for the empty tail ``}}``, which is last when present;
    the absent piece takes those tails unchanged.  Each piece's run of
    tails is one C-level map of o + ", " onto the list."""
    tails = ["}}"]
    for pieces in reversed(factors):
        closed = tails[-1] == "}}"
        rest = tails[:-1] if closed else tails
        out = []
        for piece in pieces:
            if not piece:
                out += tails
                continue
            out += map((piece + ", ").__add__, rest)
            if closed:
                out.append(piece + "}}")
        tails = out
    return tails


def census_rows(spec: FieldSpec, r: int, constants, slots):
    """The census rows (break, aut_order, text, choice) of the rank-r
    canonical vectors whose constant classes have a trace vector in the
    F_p-span of ``constants`` (vectors of F_p^r) and whose vector at each
    slot k of ``slots``, pairs (k, basis) for k in S_m ascending, lies in
    the span of ``basis`` (the e r digits of F_q^r, digit a of component j
    at index j e + a).  count-as passes the full bases, the semidirect
    census the kernels of its twist.

    - text is ``json.dumps(c.to_json(), sort_keys=True)`` of each
      component c, joined by ", ", written from the pieces of
      ``census_grid``: no class object and no json.dumps call per row.
    - aut_order is p^len(constants): the shifts h in F_p^r that the twist
      fixes, so p for count-as.
    - choice holds one option (pieces, k, vector) per coordinate: k = 0
      for the constants, then each slot of S_break in key-text order.
      ``canonical_vector`` reads it.

    The rows come in CSV order, by (break, text), lazily; the class count
    p^(len(constants) + the sum of the slot dimensions) is refused past
    MAX_CENSUS at the call, before any row.  The CLI writes a census as
    blocks (break, aut_order, heads, tails), whose classes are each head
    followed by each tail: a row of semidirect-enum, built from one of
    these, is a block of one class, and at rank 1 the rows of a break are
    one block, the heads and the joined tails of ``grid_breaks``.

    Proof of the order.  Breaks come in numeric order, and the classes of
    break j are those whose slot j is nonzero, with slots in S_j only.  A
    component text is ``{"constant_class": C, "p": P, "q": Q, "support":
    {"k": V, ...}}`` with C and V quoted and the keys in text order
    ("1" < "11" < "3").

    - r = 1.  Texts that differ in C compare as the quoted C's, which end
      in a quote, so neither is a prefix of the other.  With equal C they
      agree up to the support, which is read slot by slot in key-text
      order.  At the first slot k where two supports differ, either both
      hold k, and compare as the quoted values, or one holds it and the
      other goes on to a later key or ends.  The holder's next characters
      are ``"k"``; the other's are a longer key (a quote sorts below every
      digit, so "1" < "11") or a key that sorts after k, or ``}``, which
      sorts above the quote and the comma.  So absent sorts last, and the
      texts of a break are the plain product, in this order, of the
      constants by quoted text and of each slot's nonzero values by
      quoted text, then absent (slot j takes nonzero values only).
      These are the heads and the factors of ``grid_breaks``.
    - The grid.  ``joined_tails`` lists the product of the slot factors
      in product order.  By induction from the back: if the tails of the
      later factors are in product order, with the empty one last when
      present, then each piece in turn followed by each of them is again
      in product order, and the absent piece, last, leaves them as they
      are.  So the texts of break j are each head followed by each tail,
      which is how the count-as CSV writes them.
    - r >= 2.  No complete JSON object is a proper prefix of another, so
      the joined texts compare as (T_1, ..., T_r), component-major.  The
      bases couple the components, so no product gives this order, and
      the texts of one break are sorted; no sort spans the census.
    """
    heads, options = census_grid(spec, r, constants, slots)
    aut = len(heads)

    def rows_at(j, factors):
        for choice in itertools.product(heads, *factors):
            text = ", ".join(
                head + ", ".join([o[0][i] for o in choice[1:] if o[0][i]]) + "}}"
                for i, head in enumerate(choice[0][0])
            )
            yield j, aut, text, choice

    return (
        row
        for j, factors in grid_breaks(options)
        for row in (rows_at(j, factors) if r == 1 else sorted(rows_at(j, factors), key=lambda row: row[2]))
    )


def canonical_vector(spec: FieldSpec, choice) -> tuple:
    """The components of a ``census_rows`` choice, as ASCanonical forms."""
    return tuple(
        ASCanonical(spec, tuple(sorted((k, v[i]) for _, k, v in choice[1:] if not v[i].is_zero())), c)
        for i, c in enumerate(choice[0][2])
    )


def _as_bases(spec: FieldSpec, m: int):
    """The count-as bases: F_p at the constants and F_q at every slot of
    S_m, after the break bound and the class count are checked."""
    as_class_count(spec, m)
    full = mat_identity(spec.e)
    return mat_identity(1), [(k, full) for k in prime_to_p_support(spec.p, m)]


def as_class_grid(spec: FieldSpec, m: int):
    """(heads, breaks): the count-as census, p * q^|S_m| classes (the
    census of G = Z/p with the trivial twist), as text pieces.

    - heads lists the constant heads of ``census_grid`` in text order;
      their number p is the aut_order of every class.
    - breaks yields (j, factors) for each break j, as ``grid_breaks``
      does, each factor the piece texts of one slot, "" (absent) last.

    The classes of break j are each head followed by each tail of
    ``joined_tails(factors)``, in CSV order, as ``census_rows`` proves: a
    census block (break, aut_order, heads, tails) per break.  The grid is
    built, and a census past MAX_CENSUS refused, at the call; the breaks
    come lazily."""
    heads, options = census_grid(spec, 1, *_as_bases(spec, m))
    pieces = {k: ([o[0][0] for o in nonzero], "") for k, (nonzero, _) in options.items()}
    return [o[0][0] for o in heads], grid_breaks(pieces)


def as_census(spec: FieldSpec, m: int):
    """The rows of the count-as census: ``census_rows`` on the bases of
    ``as_class_grid``, F_p at the constants and F_q at every slot."""
    return census_rows(spec, 1, *_as_bases(spec, m))


def enumerate_as_classes(spec: FieldSpec, m: int):
    """Every canonical form with support in S_m, p * q^|S_m| of them, in
    the order of ``census_rows``, which is that of the count-as CSV."""
    return [canonical_vector(spec, choice)[0] for *_, choice in as_census(spec, m)]


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
