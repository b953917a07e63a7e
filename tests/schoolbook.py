"""Schoolbook reference for the series product, inverse and Hensel root,
for the roots of unity of a field, and for the brute-force oracles.

These are the quadratic coefficient loops and the full-window Newton
iteration that ``ftk.series`` used before it moved to Kronecker products
and precision-doubling Newton.  They are kept here, written against the
public LaurentSeries fields only, so the property tests can require the
fast paths to return the same ``(val, prec, coeffs)`` and raise the same
exceptions.  ``nth_roots_of_unity`` is the scan over every element that
``ftk.fields`` used before it read the roots from its power table (the
library no longer lists the roots; the Kummer automorphism tests read this
scan), and ``field_tables`` is the O(q^2) build of a field's tables that
``ftk.fields._field_tables`` replaced by one walk of the generator's
powers: it walks each candidate generator's full order and scans the whole
coset of every element for the transversal.  ``smallest_irreducible``
is the modulus search ``ftk.fields`` ran before it tested irreducibility
by Ben-Or's test: the same enumeration, with trial division by every
monic polynomial of degree at most e/2.  ``is_prime`` is the trial
division ``ftk.fields`` tested primality with before Miller-Rabin.

``scale``, ``scale_int`` and ``scale_substitute`` are the scalings of
``LaurentSeries`` before they ran on digit rows: one element product per
coefficient, and for the substitution t -> xi t one power of xi per
coefficient by square and multiply.  ``nth_root_unit`` scales through
``scale``, so the reference shares no code with the row scalings.

``fq_inverse``, ``fq_frobenius`` and ``fq_pth_root`` are the powers
a^(q-2), a^p and a^(p^(e-1)) that ``FqElem`` computed by square and
multiply before it applied the F_p-linear Frobenius and ran extended
Euclid.  ``solve_positive`` is the loop ``LaurentSeries.solve_positive``
ran before its one-pass recurrence: each term of the nested sum is raised
by repeated p-th powers, spelled ``c**p`` (what ``frobenius()`` computed
then) so that it shares no code with the element maps it is checked with.

The oracle references are the bodies ``ftk.oracles`` had before each
oracle computed its loop invariants once per call: ``u.wp()`` and
``u**n`` once per (object, witness) pair, ``scale_substitute`` on every
composition (also by 1) and on every cover vector.  They keep their own
copies of the union-find class ``_UnionFind`` and of ``SplitMap``, the
two-component frame map, both as ``ftk.oracles`` had them before every
oracle quotiented through ``_quotient`` and every frame map became a
tuple of ``AffineMap`` parts.  They also keep the LaurentSeries window
enumeration ``_window_series``, the keys ``_series_key`` and
``_support_key``, the series-valued ``AffineMap`` and the crossing solver
``_solve_wp``, as ``ftk.oracles`` had them before its count oracles moved
to index-coded windows.  They share nothing with ``ftk.oracles``, so the
differential tests can require equal ``(count, aut multiset)`` from both.

``fq_add``, ``fq_sub``, ``fq_neg`` and ``ring_add``, ``ring_sub``,
``ring_neg`` are the sums ``FqElem`` and ``TestRingElem`` computed before
a zero operand was returned as it is: every sum builds a new element.
The ``ring_*`` sums act on digit rows, the layout of both element kinds.
``series_make``, ``series_add`` and ``series_split_parts`` are
``LaurentSeries.make`` with its ``pop(0)`` loop, ``__add__`` through two
``coeff(i)`` calls per exponent and ``split_parts`` the same way, as they
were before sums moved to slices; they add and negate elements through the
functions above.  ``canonicalize_with_witness`` and ``as_iso_witness`` are
the Artin-Schreier witness before it was assembled in one coefficient
list: a negated series and two full-window series sums.  ``scan_series``
and ``scan_field_elem`` are the parser before it tokenised its text: a
character scanner that skips whitespace before every look.

``enumerate_g_torsors`` (with ``_const_offsets``) is the semidirect census
before it emitted one class per phi-fixed cover vector: it checks the
cocycle sum of every twist witness and quotients the good ones by
u ~ u + (psi - 1)h.  ``kummer_iso_witness`` (with ``_strip_to_one_unit``)
is the Kummer witness before it rooted the single ratio of the two unit
parts: it divides each side by its whole leading coefficient and
multiplies a constant root of the residues in afterwards, which is wrong
when the leading coefficients differ by a nilpotent 1-unit, so it is a
reference over fields only.

``count_kummer_csv`` is the stdout of ``count-kummer --format csv`` as
``ftk.cli`` printed it before the rows were streamed from the (q_exp,
unit_class) grid: ``enumerate_kummer_classes`` builds every ``KummerClass``
in numeric order, ``census_rows`` writes each class's
``json.dumps(..., sort_keys=True)`` text and sorts the rows by (break,
text), and ``emit_csv`` prints them one ``print`` per row.
``count_as_csv`` and ``semidirect_enum_stdout`` are the stdout of
``count-as --format csv`` and of ``semidirect-enum`` (JSON or CSV) the
same way, as ``ftk.cli`` printed them before both censuses streamed from
one generator in class-text order: ``enumerate_as_classes`` is the
product of every slot value and constant class sorted by (support
indices, constant index), ``elemab_enumerate`` its r-fold product, and
the semidirect classes come from ``enumerate_g_torsors`` below, which
walks that product.  So no reference here goes through
``ftk.artin_schreier.census_rows``.

``QUATERNION_ROWS`` is the multiplication table of Q_8 that
``FinGroup.quaternion`` spelled out literally before it built the table
from the relations i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j.

``IndPoint`` is the point of the colimit of the level charts A^(S_m) as
``ftk.groupoids`` had it before a point became a prefix of slot rows
(``ftk.artin_schreier`` holds it now):
every transition and every canonical step builds S_level and S_M with
``prime_to_p_support`` and reads the rows through a slot dict.

``TupleRing`` and ``TupleRingElem`` are the test ring F_q[x]/(x^m) as
``ftk.fields`` kept it before a test-ring element became its digit row:
an element holds ``parts``, a tuple of m field elements, x-adic, constant
first.  Its product is the schoolbook double loop over field products, its
inverse the geometric series in the nilpotent part, its Frobenius maps
each coefficient, and its index reads the coefficients' indices in base q.
A ``LaurentSeries`` stores digit rows, so the reference also speaks the
row protocol a series needs: an element's ``coords`` is its digit row, and
``from_digits``, ``from_rows``, ``add_rows`` and ``sub_rows`` go through
its own element arithmetic.  Series over a ``TupleRing`` run through
``mul``, ``invert`` and ``nth_root_unit`` above, so the differential tests
compare the row layout with this one element by element and series by
series.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass

from ftk.artin_schreier import ASCanonical, prime_to_p_support
from ftk.errors import (
    DomainError,
    FtkError,
    NotInvertible,
    ParseError,
    PrecisionExhausted,
    check_break_bound,
    check_tame_order,
)
from ftk.fields import (
    FieldSpec,
    FqElem,
    _monic_poly_from_index,
    _poly_mod,
    canonical_wp_shift,
    mat_kernel,
)
from ftk.kummer import KummerClass
from ftk.series import LaurentSeries, PartsDecomposition, default_prec


class _UnionFind:
    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def class_count(self):
        return len({self.find(k) for k in self.parent})

    def classes(self):
        out: dict = {}
        for k in self.parent:
            out.setdefault(self.find(k), []).append(k)
        return list(out.values())


class SplitMap:
    """A G-algebra map of a cover over the two-component frame
    B((t))[X]/(X^(2d) - t^d): one AffineMap per source component."""

    def __init__(self, parts):
        self.parts = dict(parts)  # src component -> AffineMap

    def is_identity(self) -> bool:
        return all(f.is_identity() for f in self.parts.values())

    def key(self):
        return tuple(sorted((a, f.key()) for a, f in self.parts.items()))


def field_tables(spec):
    """(generator, dlog, wp preimages, transversal, powers), as
    ``ftk.fields._field_tables`` returns them."""
    elems = spec.elements()
    one = spec.one()
    # smallest primitive element
    generator = None
    for a in elems:
        if a.is_zero():
            continue
        order = 1
        x = a
        while x != one:
            x = x * a
            order += 1
        if order == spec.q - 1:
            generator = a
            break
    dlog = {}
    powers = []
    x = one
    for k in range(spec.q - 1):
        dlog[x.coords] = k
        powers.append(x)
        x = x * generator
    # Artin-Schreier operator u -> u^p - u at the residue level
    preimages: dict = {}
    for u in elems:
        preimages.setdefault((u**spec.p - u).coords, []).append(u)
    image_elems = [a for a in elems if a.coords in preimages]
    # transversal: lex-smallest element of each coset of the image subgroup
    transversal = {}
    for a in elems:
        rep = spec.from_index(min((a + w).index for w in image_elems))
        transversal[a.coords] = rep
    return generator, dlog, {k: tuple(v) for k, v in preimages.items()}, transversal, powers


def poly_is_irreducible(f, p: int) -> bool:
    """Irreducibility of a monic f over F_p by trial division, as
    ``ftk.fields`` tested it before it moved to Ben-Or's test."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    # trial division by every monic polynomial of degree 1..deg//2
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            g = _monic_poly_from_index(idx, d, p)
            if not _poly_mod(f, g, p):
                return False
    return True


def smallest_irreducible(p: int, e: int):
    for idx in range(p**e):
        f = _monic_poly_from_index(idx, e, p)
        if poly_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def nth_roots_of_unity(spec, n: int):
    """All xi in F_q with xi^n = 1, in index order, by raising every element."""
    return [a for a in spec.elements() if not a.is_zero() and a**n == spec.one()]


# row a lists a * b for b in the order of the row keys, which is the
# element order of FinGroup.quaternion
QUATERNION_ROWS = {
    "1": ("1", "-1", "i", "-i", "j", "-j", "k", "-k"),
    "-1": ("-1", "1", "-i", "i", "-j", "j", "-k", "k"),
    "i": ("i", "-i", "-1", "1", "k", "-k", "-j", "j"),
    "-i": ("-i", "i", "1", "-1", "-k", "k", "j", "-j"),
    "j": ("j", "-j", "-k", "k", "-1", "1", "i", "-i"),
    "-j": ("-j", "j", "k", "-k", "1", "-1", "-i", "i"),
    "k": ("k", "-k", "j", "-j", "-i", "i", "-1", "1"),
    "-k": ("-k", "k", "-j", "j", "i", "-i", "1", "-1"),
}


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
        deriv = scale(power(g, n - 1), n_scalar)
        g = g - mul(err, invert(deriv))
    raise PrecisionExhausted("Newton iteration failed to converge")


def scale(a: LaurentSeries, elem) -> LaurentSeries:
    """a times the ring element elem: one element product per coefficient."""
    if elem.is_zero() or a.is_zero():
        return LaurentSeries.zero(a.ring, a.prec)
    return LaurentSeries.make(a.ring, a.val, a.prec, [elem * c for c in a.coeffs])


def scale_int(a: LaurentSeries, n: int) -> LaurentSeries:
    return scale(a, a.ring.from_int(n))


def scale_substitute(a: LaurentSeries, xi) -> LaurentSeries:
    """a(xi t): the coefficient at exponent e times xi^e, one power by
    square and multiply per coefficient."""
    if xi.is_zero():
        raise DomainError("substitution scalar must be nonzero")
    if isinstance(xi, FqElem):
        xi = a.ring.from_field(xi)
    if a.is_zero():
        return a
    xi_inv = xi.inverse()
    out = []
    for i, c in enumerate(a.coeffs):
        e = a.val + i
        f = xi**e if e >= 0 else xi_inv ** (-e)
        out.append(f * c)
    return LaurentSeries.make(a.ring, a.val, a.prec, out)


# -- element maps and the positive-part solver by powering ---------------------


def fq_inverse(a):
    """a^-1 = a^(q-2) in F_q^*."""
    return a ** (a.spec.q - 2)


def fq_frobenius(a):
    return a**a.spec.p


def fq_pth_root(a):
    """The inverse of Frobenius on F_q: a^(p^(e-1))."""
    return a ** (a.spec.p ** (a.spec.e - 1))


def solve_positive(b: LaurentSeries) -> LaurentSeries:
    """u_s = -(b_s + b_{s/p}^p + b_{s/p^2}^{p^2} + ...), each term raised by
    repeated p-th powers and every exponent of the window walked."""
    if not b.is_zero() and b.val < 1:
        raise DomainError("solve_positive needs support in exponents >= 1")
    if b.prec < 1:
        raise PrecisionExhausted("empty positive window")
    p = b.ring.p
    zero = b.ring.zero()
    out = [zero] * (b.prec - 1)  # exponents 1 .. prec-1
    for s in range(1, b.prec):
        total = zero
        m, n = s, 0
        while True:
            c = b.coeff(m) if m >= b.val else zero
            for _ in range(n):
                c = c**p
            total = total + c
            if m % p:
                break
            m //= p
            n += 1
        out[s - 1] = -total
    return LaurentSeries.make(b.ring, 1, b.prec, out)



# -- the brute-force oracles ----------------------------------------------------

_MAX_WINDOW_SLOTS = 12


def _series_key(s: LaurentSeries):
    return (s.val, tuple(c.index for c in s.coeffs))


def _window_series(spec, exponents, prec):
    """Every series supported on the given exponents, exact to prec."""
    out = []
    for values in itertools.product(range(spec.q), repeat=len(exponents)):
        d = {e: spec.from_index(v) for e, v in zip(exponents, values) if v}
        out.append(LaurentSeries.from_dict(spec, d, prec))
    return out


def _support_key(s: LaurentSeries):
    """Support-only key: valid for comparing exact polynomial windows."""
    return tuple(sorted((e, c.index) for e, c in s.support().items()))


@dataclass(frozen=True)
class AffineMap:
    """A semilinear algebra map between elementary-abelian cover
    presentations over (components of) a tame frame.

    f sends the coordinate vector X of the source presentation to
    M X + c in the target, and a scalar series a(s) to a(lam * s);
    src/dst label the frame components being crossed (both 0 when the
    frame is connected).  A frame map is a tuple of these, the i-th with
    src = i.
    """

    src: int
    dst: int
    matrix: tuple  # r x r over F_p
    trans: tuple  # r series over the target component's field
    lam: object  # FqElem substitution factor

    def is_identity(self) -> bool:
        from ftk.fields import mat_identity

        r = len(self.matrix)
        p = self.trans[0].ring.p if self.trans else None
        if self.src != self.dst:
            return False
        if p is not None and self.matrix != mat_identity(r):
            return False
        if not all(t.is_zero() for t in self.trans):
            return False
        return self.lam == self.lam.spec.one()

    def key(self):
        return (
            self.src,
            self.dst,
            self.matrix,
            tuple(_series_key(t) for t in self.trans),
            self.lam.index,
        )


def _solve_wp(rhs_vec):
    """Componentwise u with u^p - u = rhs, via the canonicalisation
    witnesses; None when some component is not a coboundary."""
    from ftk.artin_schreier import as_iso_witness

    out = []
    for rhs in rhs_vec:
        zero = LaurentSeries.zero(rhs.ring, rhs.prec)
        w = as_iso_witness(zero, rhs)
        if w is None:
            return None
        out.append(w.u)
    return tuple(out)


def quotient(keys, images):
    """The quotient loop of the oracle bodies below, on explicit key
    graphs: images[i] lists the images of keys[i] under every move."""
    uf = _UnionFind(keys)
    index = set(keys)
    aut_of = {k: 0 for k in keys}
    for key, moved in zip(keys, images):
        for k2 in moved:
            if k2 in index:
                uf.union(key, k2)
                if k2 == key:
                    aut_of[key] += 1
    classes = uf.classes()
    return len(classes), sorted(aut_of[cls[0]] for cls in classes)


def as_bruteforce_class_count(spec, m: int) -> int:
    if m + 1 > _MAX_WINDOW_SLOTS:
        raise DomainError("oracle scale exceeded")
    prec = 4 * max(m, 1) + 8
    exps = list(range(-m, 1))
    objects = _window_series(spec, exps, prec)
    candidates = _window_series(spec, exps, prec)
    uf = _UnionFind([_series_key(b) for b in objects])
    by_key = {_series_key(b): b for b in objects}
    for b in objects:
        for u in candidates:
            image = u.wp() + b
            k = _series_key(image)
            if k in by_key:
                uf.union(_series_key(b), k)
    return uf.class_count()


def as_window_witness_exists(c, d, lo: int, hi: int) -> bool:
    if hi - lo + 1 > _MAX_WINDOW_SLOTS:
        raise DomainError("oracle scale exceeded")
    spec = c.ring
    prec = min(c.prec, d.prec)
    for u in _window_series(spec, list(range(lo, hi + 1)), prec):
        if (u.wp() + c - d).is_zero():
            return True
    return False


def kummer_bruteforce_class_count(spec, n: int) -> int:
    if math.gcd(n, spec.p) != 1:
        raise DomainError("p divides n")
    prec = 4 * n + 8
    objects = [
        LaurentSeries.monomial(spec.from_index(c), i, prec)
        for i in range(2 * n)
        for c in range(1, spec.q)
    ]
    uf = _UnionFind([_support_key(b) for b in objects])
    by_key = {_support_key(b) for b in objects}
    units = [spec.from_index(c) for c in range(1, spec.q)]
    for b in objects:
        for k in range(-2 * n, 2 * n + 1):
            for v in units:
                u = LaurentSeries.monomial(v, k, prec)
                image = (u**n) * b
                key = _support_key(image)
                if key in by_key:
                    uf.union(_support_key(b), key)
    return uf.class_count()


def affine_then(f, g, p: int):
    """g o f, substituting every translation series, also by 1."""
    if f.dst != g.src:
        raise DomainError("component mismatch in composition")
    from ftk.fields import mat_mul
    from ftk.semidirect import mat_vec_series

    m = mat_mul(f.matrix, g.matrix, p)
    mixed = mat_vec_series(f.matrix, g.trans, p)
    subbed = tuple(c.scale_substitute(g.lam) for c in f.trans)
    trans = tuple(a + b for a, b in zip(mixed, subbed))
    return AffineMap(f.src, g.dst, m, trans, f.lam * g.lam)


def split_then(f, g, p: int):
    return SplitMap({a: affine_then(h, g.parts[h.dst], p) for a, h in f.parts.items()})


def _power(f, n: int, p: int, then):
    out = f
    for _ in range(n - 1):
        out = then(out, f, p)
    return out


def semidirect_bruteforce(group, frame, break_bound: int):
    r, p, n = group.r, group.p, frame.n
    if (break_bound + 1) * r > _MAX_WINDOW_SLOTS:
        raise DomainError("oracle scale exceeded")
    from ftk.fields import mat_identity, mat_pow

    spec = frame.spec
    prec = 3 * break_bound + 12
    exps = list(range(-break_bound, 1))
    window = _window_series(spec, exps, prec)
    psi_inv = mat_pow(group.psi, n - 1, p) if r else ()
    xi = frame.xi
    one = spec.one()

    def vec_key(vec):
        return tuple(_series_key(v) for v in vec)

    wp_of = {_series_key(w): w.wp() for w in window}
    c_by_wp = {}
    for w in window:
        c_by_wp.setdefault(_series_key(wp_of[_series_key(w)]), []).append(w)

    pairs = []
    for b_vec in itertools.product(window, repeat=r):
        sigma_b = [s.scale_substitute(xi) for s in b_vec]
        per_component = []
        for i in range(r):
            rhs = sigma_b[i]
            for j in range(r):
                if psi_inv[i][j]:
                    rhs = rhs - b_vec[j].scale_int(psi_inv[i][j])
            per_component.append(c_by_wp.get(_series_key(rhs), []))
        for c_vec in itertools.product(*per_component):
            gamma = AffineMap(0, 0, psi_inv, tuple(c_vec), xi)
            if _power(gamma, n, p, affine_then).is_identity():
                pairs.append((tuple(b_vec), gamma))
    keys = [(vec_key(b), g.key()) for b, g in pairs]
    uf = _UnionFind(keys)
    index = set(keys)
    id_mat = mat_identity(r)
    aut_of = {k: 0 for k in keys}
    for (b_vec, gamma), key in zip(pairs, keys):
        for h_vec in itertools.product(window, repeat=r):
            m_h = AffineMap(0, 0, id_mat, tuple(x.scale_int(-1) for x in h_vec), one)
            m_h_inv = AffineMap(0, 0, id_mat, tuple(h_vec), one)
            conj = affine_then(affine_then(m_h_inv, gamma, p), m_h, p)
            b2 = tuple(x + wp_of[_series_key(h)] for x, h in zip(b_vec, h_vec))
            k2 = (vec_key(b2), conj.key())
            if k2 in index:
                uf.union(key, k2)
                if k2 == key:
                    aut_of[key] += 1
    classes = uf.classes()
    auts = sorted(aut_of[cls[0]] for cls in classes)
    return len(classes), auts


def double_frame_bruteforce(group, spec, break_bound: int, prec: int = None):
    from ftk.artin_schreier import as_canonicalize
    from ftk.fields import mat_identity, mat_pow
    from ftk.semidirect import mat_vec_series

    if group.n != 4:
        raise DomainError("split-frame oracle models n = 4, q_exp = 2 only")
    r, p = group.r, group.p
    if (spec.q - 1) % 4:
        raise DomainError("need the 4th roots of unity in the base field")
    if prec is None:
        prec = 3 * break_bound + 14
    zeta4 = spec.generator ** ((spec.q - 1) // 4)
    psi_inv = mat_pow(group.psi, group.n - 1, p)
    id_mat = mat_identity(r)
    one = spec.one()

    def subst(vec, lam):
        return tuple(v.scale_substitute(lam) for v in vec)

    def minus_mat_vec(m, vec):
        return tuple(v.scale_int(-1) for v in mat_vec_series(m, vec, p))

    def crossing_rhs(b_src, b_dst):
        tau = subst(b_src, zeta4)
        mixed = minus_mat_vec(psi_inv, b_dst)
        return tuple(a + b for a, b in zip(tau, mixed))

    singles = enumerate_as_classes(spec, break_bound)
    vectors = [vec for vec in itertools.product(singles, repeat=r)]
    reps = {vec: tuple(c.to_series(prec) for c in vec) for vec in vectors}

    found = []
    for v1 in vectors:
        b1 = reps[v1]
        target_cls = tuple(
            as_canonicalize(x)
            for x in mat_vec_series(group.psi, subst(b1, zeta4), p)
        )
        if target_cls not in reps:
            continue
        b2 = reps[target_cls]
        rhs12 = crossing_rhs(b1, b2)
        rhs21 = crossing_rhs(b2, b1)
        w12 = _solve_wp(rhs12)
        w21 = _solve_wp(rhs21)
        if w12 is None or w21 is None:
            continue
        consts = [
            LaurentSeries.constant(spec.from_int(k), prec) for k in range(p)
        ]
        for shift12 in itertools.product(range(p), repeat=r):
            c12 = tuple(w + consts[k] for w, k in zip(w12, shift12))
            for shift21 in itertools.product(range(p), repeat=r):
                c21 = tuple(w + consts[k] for w, k in zip(w21, shift21))
                gamma = SplitMap(
                    {
                        0: AffineMap(0, 1, psi_inv, c12, zeta4),
                        1: AffineMap(1, 0, psi_inv, c21, zeta4),
                    }
                )
                if _power(gamma, 4, p, split_then).is_identity():
                    found.append(((v1, target_cls), (b1, b2), gamma))
    keys = [(cls, g.key()) for cls, _, g in found]
    uf = _UnionFind(keys)
    index = set(keys)
    aut_of = {k: 0 for k in keys}
    const_vectors = list(
        itertools.product(
            [LaurentSeries.constant(spec.from_int(k), prec) for k in range(p)],
            repeat=r,
        )
    )
    for (cls, _, gamma), key in zip(found, keys):
        for h1 in const_vectors:
            for h2 in const_vectors:
                m_h = SplitMap(
                    {
                        0: AffineMap(0, 0, id_mat, tuple(x.scale_int(-1) for x in h1), one),
                        1: AffineMap(1, 1, id_mat, tuple(x.scale_int(-1) for x in h2), one),
                    }
                )
                m_h_inv = SplitMap(
                    {
                        0: AffineMap(0, 0, id_mat, h1, one),
                        1: AffineMap(1, 1, id_mat, h2, one),
                    }
                )
                conj = split_then(split_then(m_h_inv, gamma, p), m_h, p)
                k2 = (cls, conj.key())
                if k2 in index:
                    uf.union(key, k2)
                    if k2 == key:
                        aut_of[key] += 1
    classes = uf.classes()
    return len(classes), sorted(aut_of[cls[0]] for cls in classes)


# -- zero-blind sums, the two-series witness and the character scanner ---------


def fq_add(self, other):
    self._check(other)
    p = self.spec.p
    return FqElem(self.spec, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))


def fq_sub(self, other):
    self._check(other)
    p = self.spec.p
    return FqElem(self.spec, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))


def fq_neg(self):
    p = self.spec.p
    return FqElem(self.spec, tuple((-a) % p for a in self.coords))


def ring_add(self, other):
    self._check(other)
    p = self.spec.p
    return self.spec.from_digits(tuple((a + b) % p for a, b in zip(self.coords, other.coords)))


def ring_sub(self, other):
    self._check(other)
    p = self.spec.p
    return self.spec.from_digits(tuple((a - b) % p for a, b in zip(self.coords, other.coords)))


def ring_neg(self):
    p = self.spec.p
    return self.spec.from_digits(tuple((-a) % p for a in self.coords))


def elem_add(a, b):
    return fq_add(a, b) if isinstance(a, FqElem) else ring_add(a, b)


def elem_sub(a, b):
    return fq_sub(a, b) if isinstance(a, FqElem) else ring_sub(a, b)


def elem_neg(a):
    return fq_neg(a) if isinstance(a, FqElem) else ring_neg(a)


def series_make(ring, val: int, prec: int, coeffs) -> LaurentSeries:
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
    return LaurentSeries(ring, val, prec, tuple(c.coords for c in coeffs))


def series_add(self, other):
    self._check_ring(other)
    prec = min(self.prec, other.prec)
    lo = min(self.eff_val, other.eff_val, prec)
    zero = self.ring.zero()
    coeffs = []
    for i in range(lo, prec):
        a = self.coeff(i) if i < self.prec else zero
        b = other.coeff(i) if i < other.prec else zero
        coeffs.append(elem_add(a, b))
    return series_make(self.ring, lo, prec, coeffs)


def series_neg(self):
    return LaurentSeries(self.ring, self.val, self.prec, tuple(elem_neg(c).coords for c in self.coeffs))


def series_sub(self, other):
    return series_add(self, series_neg(other))


def series_split_parts(self):
    if self.prec < 1:
        raise PrecisionExhausted("cannot split: constant term beyond precision")
    zero = self.ring.zero()
    lo = min(self.eff_val, 0)
    neg = [self.coeff(i) if i < 0 else zero for i in range(lo, self.prec)]
    pos = [self.coeff(i) if i > 0 else zero for i in range(lo, self.prec)]
    return PartsDecomposition(
        negative=series_make(self.ring, lo, self.prec, neg),
        constant=self.coeff(0),
        positive=series_make(self.ring, lo, self.prec, pos),
    )


def canonicalize_with_witness(b: LaurentSeries):
    """(canonical form, u) with u^p - u + b = canonical (mod t^prec)."""
    if not isinstance(b.ring, FieldSpec):
        raise DomainError("canonical forms are defined over fields only")
    spec = b.ring
    p = spec.p
    if b.prec < 1:
        raise PrecisionExhausted("cannot certify the positive-part discard")
    parts = series_split_parts(b)
    # positive part: u_+^p - u_+ = positive, so adding -(that) kills it
    u_total = series_neg(parts.positive.solve_positive())
    # negative terms: pole order j = p^a s walks down to slot s by p-th roots
    slots: dict = {}
    witness_terms: dict = {}
    for j, c in sorted(parts.negative.support().items()):  # most negative first
        j = -j
        a = 0
        while j % p == 0:
            j //= p
            a += 1
        # chain witness: moving c t^{-p^a s} to root = c^{p^-a} at t^{-s}
        # costs -(root^{p^k} t^{-p^k s}) at every intermediate level k < a;
        # root^{p^k} = c^{p^(k-a)} is one more p-th root per level down
        root = c
        for k in reversed(range(a)):
            root = root.pth_root()
            e = -(p**k) * j
            witness_terms[e] = fq_sub(witness_terms.get(e, spec.zero()), root)
        slots[j] = fq_add(slots.get(j, spec.zero()), root)
    if witness_terms:
        u_total = series_add(u_total, LaurentSeries.from_dict(spec, witness_terms, b.prec))
    # constant to its transversal representative
    rep, w = canonical_wp_shift(parts.constant)
    if not w.is_zero():
        u_total = series_add(u_total, LaurentSeries.constant(w, b.prec))
    canon = ASCanonical(
        spec,
        tuple(sorted((s, c) for s, c in slots.items() if not c.is_zero())),
        rep,
    )
    return canon, u_total


def as_iso_witness(c: LaurentSeries, d: LaurentSeries):
    """The u of the ASWitness ``ftk.artin_schreier.as_iso_witness`` returns, or None."""
    if c.ring != d.ring:
        raise DomainError("covers over different rings")
    canon_c, u_c = canonicalize_with_witness(c)
    canon_d, u_d = canonicalize_with_witness(d)
    if canon_c != canon_d:
        return None
    return series_sub(u_c, u_d)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected '{ch}'", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", self.pos)
        return int(self.text[start : self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _scan_g_monomial(sc: _Scanner, spec: FieldSpec) -> FqElem:
    """[int] ['g' ['^' exp]]: one summand of a g-polynomial, never empty."""
    if not (sc.peek().isdigit() or sc.peek() == "g"):
        raise ParseError("empty summand", sc.pos)
    c = 1
    if sc.peek().isdigit():
        c = sc.integer()
        mark = sc.pos
        if sc.take("*") and sc.peek() != "g":
            sc.pos = mark  # a '*' before anything but g is the term's
    if sc.peek() == "g":
        sc.pos += 1
        e = 1
        if sc.take("^"):
            e = sc.integer()
            if e < 0:
                raise ParseError("negative power of g", sc.pos)
        if spec.e == 1:
            raise ParseError("coefficient uses g but the field is prime", sc.pos)
        # below the degree g^e is the coordinate vector of index p^e
        power = spec.from_index(spec.p**e) if e < spec.e else spec.gen() ** e
        return power.scale(c)
    return spec.from_int(c)


def _scan_g_poly(sc: _Scanner, spec: FieldSpec) -> FqElem:
    total = _scan_g_monomial(sc, spec)
    while True:
        if sc.take("+"):
            total = fq_add(total, _scan_g_monomial(sc, spec))
        elif sc.peek() == "-":
            sc.pos += 1
            total = fq_sub(total, _scan_g_monomial(sc, spec))
        else:
            return total


def scan_field_elem(text: str, spec: FieldSpec) -> FqElem:
    """A standalone field literal: integer mod p, or a polynomial in g."""
    sc = _Scanner(text)
    if sc.at_end():
        raise ParseError("empty coefficient", 0)
    value = _scan_g_poly(sc, spec)
    if not sc.at_end():
        raise ParseError("trailing input after coefficient", sc.pos)
    return value


def _scan_coeff(sc: _Scanner, spec: FieldSpec) -> FqElem:
    if sc.take("("):
        value = _scan_g_poly(sc, spec)
        sc.expect(")")
        return value
    return _scan_g_monomial(sc, spec)


def _scan_term(sc: _Scanner, spec: FieldSpec):
    """Returns (exponent, coefficient)."""
    if sc.peek() == "t":
        coeff = spec.one()
    else:
        coeff = _scan_coeff(sc, spec)
        if not sc.take("*"):
            # bare coefficient term
            if sc.peek() != "t":
                return 0, coeff
    if sc.peek() != "t":
        raise ParseError("expected 't'", sc.pos)
    sc.pos += 1
    exp = 1
    if sc.take("^"):
        exp = sc.integer()
    return exp, coeff


def scan_series(text: str, spec: FieldSpec, prec: int = None) -> LaurentSeries:
    """Parse per the series grammar; exact, with explicit precision window."""
    sc = _Scanner(text)
    if sc.at_end():
        raise ParseError("empty series", 0)
    support: dict = {}
    sign = 1
    if sc.take("-"):
        sign = -1
    while True:
        exp, coeff = _scan_term(sc, spec)
        if sign < 0:
            coeff = fq_neg(coeff)
        if exp in support:
            support[exp] = fq_add(support[exp], coeff)
        else:
            support[exp] = coeff
        if sc.at_end():
            break
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", sc.pos)
    support = {e: c for e, c in support.items() if not c.is_zero()}
    if prec is None:
        top = max(support) if support else 0
        bottom = min(support) if support else 0
        prec = max(top + 1, default_prec(max(0, -bottom)))
    return LaurentSeries.from_dict(spec, support, prec)


# -- the semidirect census tail and the Kummer witness, as they were -----------


def enumerate_g_torsors(group, frame, break_bound: int, prec: int = None):
    """The census with the shift quotient: every solution is checked, the
    good ones are quotiented by u ~ u + (psi - 1)h, and the classes are
    sorted by (break, canonical vector, witness)."""
    from ftk.artin_schreier import elemab_canonicalize
    from ftk.semidirect import (
        GTorsorClass,
        ZPhiObject,
        phi_apply,
        vn_check,
        zphi_solve,
    )

    if frame.n > 1 and math.gcd(frame.q_exp, frame.n) != 1:
        raise DomainError("apply reduce_to_coprime first")
    if prec is None:
        prec = default_prec(break_bound)
    spec = frame.spec
    p = group.p
    if group.r == 0:
        return [GTorsorClass(group, frame, ZPhiObject((), ()), (), 1)]
    psi_minus_1 = tuple(
        tuple((group.psi[i][j] - (1 if i == j else 0)) % p for j in range(group.r))
        for i in range(group.r)
    )
    aut = p ** len(mat_kernel(psi_minus_1, p))
    shifts = set()
    for h in itertools.product(range(p), repeat=group.r):
        shifts.add(
            tuple(
                sum(psi_minus_1[i][j] * h[j] for j in range(group.r)) % p
                for i in range(group.r)
            )
        )

    def classes_at(canon_vec):
        b_vec = tuple(c.to_series(prec) for c in canon_vec)
        if elemab_canonicalize(phi_apply(group, frame, b_vec)) != canon_vec:
            return []
        solutions = zphi_solve(group, frame, b_vec)
        if solutions is None:
            return []
        good = [
            u_vec
            for u_vec in solutions
            if all(v == 0 for v in vn_check(group, frame, ZPhiObject(b_vec, u_vec)))
        ]
        if not good:
            return []
        seen = set()
        reps = []
        for u_vec in good:
            key = _const_offsets(good[0], u_vec, p)
            if key in seen:
                continue
            for sh in shifts:
                seen.add(tuple((k + s) % p for k, s in zip(key, sh)))
            reps.append(u_vec)
        return [
            GTorsorClass(group, frame, ZPhiObject(b_vec, u_vec), canon_vec, aut)
            for u_vec in reps
        ]

    def witness_key(obj):
        return tuple((u.val, tuple(c.index for c in u.coeffs)) for u in obj.u_vec)

    out = [cls for canon in elemab_enumerate(spec, group.r, break_bound) for cls in classes_at(canon)]
    out.sort(key=lambda c: (c.break_, tuple(map(_as_sort_key, c.canonical_b)), witness_key(c.zphi)))
    return out


def _const_offsets(base_u, u, p: int):
    """The constant vector u - base_u in (F_p)^r."""
    out = []
    for a, b in zip(u, base_u):
        d = a - b
        if d.is_zero():
            out.append(0)
            continue
        if not d.is_constant():
            raise FtkError("witness difference is not constant")
        out.append(d.coeff(0).as_int())
    return tuple(out)


def _strip_to_one_unit(b: LaurentSeries, i: int, lead) -> LaurentSeries:
    mono = LaurentSeries.monomial(lead.inverse(), -i, b.prec - i - b.eff_val)
    return b * mono


def kummer_iso_witness(b: LaurentSeries, b2: LaurentSeries, n: int):
    """The witness from a canonical constant root times the Hensel root of
    the ratio of the two 1-units (each side divided by its whole leading
    coefficient)."""
    from ftk.fields import canonical_nth_root as table_nth_root, nth_power_class

    i, i2 = b.unit_ord(), b2.unit_ord()
    if (i2 - i) % n:
        return None
    lead, lead2 = b.coeff(i), b2.coeff(i2)
    res, res2 = lead.residue(), lead2.residue()
    if nth_power_class(res, n) != nth_power_class(res2, n):
        return None
    const_root = b.ring.from_field(table_nth_root(res2 * res.inverse(), n))
    ratio = _strip_to_one_unit(b2, i2, lead2) * _strip_to_one_unit(b, i, lead).invert()
    return ratio.nth_root_unit(n).scale(const_root).shift((i2 - i) // n)


# -- the count-kummer CSV, enumerated, dumped, sorted and printed ---------------


def enumerate_kummer_classes(spec, n: int):
    check_tame_order(spec.p, n)
    d = math.gcd(n, spec.q - 1)
    return [
        KummerClass(spec, n, q_exp, uc)
        for q_exp in range(n)
        for uc in range(d)
    ]


def census_rows(entries):
    rows = [(brk, json.dumps(cls, sort_keys=True), aut, cls) for cls, brk, aut in entries]
    rows.sort(key=lambda row: row[:2])
    return rows


def emit_csv(rows):
    print("break,aut_order,multiplicity,class")
    for brk, text, aut, _ in rows:
        cls = text.replace('"', '""')
        print(f'{brk},{aut},1,"{cls}"')


def count_kummer_csv(spec, n: int) -> str:
    aut = math.gcd(n, spec.q - 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_csv(census_rows((c.to_json(), 0, aut) for c in enumerate_kummer_classes(spec, n)))
    return out.getvalue()


# -- the count-as and semidirect-enum stdout, enumerated, dumped, sorted -------


def enumerate_as_classes(spec, m: int):
    check_break_bound(m)
    slots = prime_to_p_support(spec.p, m)
    transversal = spec.wp_transversal()
    out = []
    for values in itertools.product(range(spec.q), repeat=len(slots)):
        support = tuple((s, spec.from_index(v)) for s, v in zip(slots, values) if v)
        for rep in transversal:
            out.append(ASCanonical(spec, support, rep))
    out.sort(key=_as_sort_key)
    return out


def _as_sort_key(c):
    """The order ``ASCanonical.sort_key`` gave: support indices, then the
    constant's index."""
    return tuple((s, x.index) for s, x in c.support), c.constant_class.index


def elemab_enumerate(spec, r: int, m: int):
    return list(itertools.product(enumerate_as_classes(spec, m), repeat=r))


def count_as_csv(spec, m: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_csv(census_rows((c.to_json(), c.break_ or 0, spec.p) for c in enumerate_as_classes(spec, m)))
    return out.getvalue()


def semidirect_enum_stdout(group, frame, m: int, fmt: str) -> str:
    """The stdout of semidirect-enum on a reduced (group, frame), whose
    --n and --q-exp are the frame's."""
    classes = enumerate_g_torsors(group, frame, m)
    rows = census_rows((c.class_id(), c.break_, c.aut_count) for c in classes)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if fmt == "csv":
            emit_csv(rows)
        else:
            payload = {
                "group": group.to_json(),
                "q_exp": frame.q_exp,
                "reduced": {"n": frame.n, "q_exp": frame.q_exp},
                "max_break": m,
                "count": len(classes),
                "classes": [
                    {"class": cls, "break": brk, "aut_order": aut, "multiplicity": 1}
                    for brk, _, aut, cls in rows
                ],
                "brute_force": None,
            }
            print(json.dumps(payload, sort_keys=True))
    return out.getvalue()


# -- ind-points through slot dicts ----------------------------------------------


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
        expected = len(prime_to_p_support(self.spec.p, self.level)) * self.r
        if len(self.value) != expected:
            raise DomainError(
                f"value length {len(self.value)} != |S_m| * r = {expected}"
            )

    def transition(self, M: int) -> "IndPoint":
        """Transport to level M >= level: include into the S_M slots and
        apply the coefficient Frobenius once per level step."""
        if M < self.level:
            raise DomainError("transitions only go up")
        src = prime_to_p_support(self.spec.p, self.level)
        dst = prime_to_p_support(self.spec.p, M)
        steps = M - self.level
        by_slot = {s: self.value[i * self.r : (i + 1) * self.r] for i, s in enumerate(src)}
        zero_row = (self.spec.zero(),) * self.r
        out = []
        for s in dst:
            row = by_slot.get(s, zero_row)
            frow = []
            for c in row:
                for _ in range(steps):
                    c = c.frobenius()
                frow.append(c)
            out.extend(frow)
        return IndPoint(self.spec, self.r, M, tuple(out))

    def eq(self, other: "IndPoint") -> bool:
        if self.spec != other.spec or self.r != other.r:
            raise DomainError("points of different systems")
        M = max(self.level, other.level)
        return self.transition(M).value == other.transition(M).value

    def canonical(self) -> "IndPoint":
        """The least-level representative of the colimit class (idempotent)."""
        pt = self
        while pt.level > 1:
            m = pt.level
            src = prime_to_p_support(pt.spec.p, m)
            prev = prime_to_p_support(pt.spec.p, m - 1)
            by_slot = {s: pt.value[i * pt.r : (i + 1) * pt.r] for i, s in enumerate(src)}
            new_slots = [s for s in src if s not in prev]
            if any(not c.is_zero() for s in new_slots for c in by_slot[s]):
                break
            value = tuple(
                c.pth_root() for s in prev for c in by_slot[s]
            )
            pt = IndPoint(pt.spec, pt.r, m - 1, value)
        return pt


# -- the tuple-of-FqElem test ring ----------------------------------------------


@dataclass(frozen=True)
class TupleRing:
    """The test ring ``spec`` (an ``ftk.fields.TestRingSpec``) with elements
    held as tuples of field elements."""

    spec: object

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def base(self):
        return self.spec.base

    def zero(self):
        return self.from_field(self.base.zero())

    def one(self):
        return self.from_field(self.base.one())

    def from_int(self, n: int):
        return self.from_field(self.base.from_int(n))

    def from_field(self, a):
        return TupleRingElem(self, (a,) + (self.base.zero(),) * (self.m - 1))

    def from_index(self, idx: int):
        q = self.base.q
        parts = []
        for _ in range(self.m):
            parts.append(self.base.from_index(idx % q))
            idx //= q
        return TupleRingElem(self, tuple(parts))

    # the digit-row protocol a LaurentSeries needs: rows are the x-major
    # digits of ``TupleRingElem.coords``

    def from_digits(self, row: tuple):
        e = self.base.e
        parts = (self.base.from_digits(row[i * e : (i + 1) * e]) for i in range(self.m))
        return TupleRingElem(self, tuple(parts))

    def from_rows(self, rows) -> list:
        return [self.from_digits(r) for r in rows]

    def add_rows(self, a: tuple, b: tuple) -> tuple:
        return (self.from_digits(a) + self.from_digits(b)).coords

    def sub_rows(self, a: tuple, b: tuple) -> tuple:
        return (self.from_digits(a) - self.from_digits(b)).coords


@dataclass(frozen=True)
class TupleRingElem:
    spec: TupleRing
    parts: tuple  # m field elements, x-adic, constant first

    def _check(self, other):
        if self.spec != other.spec:
            raise DomainError("mixed test-ring arithmetic")

    @property
    def coords(self) -> tuple:
        """The m*e F_p digits, x-major: the row layout of the same element."""
        return tuple(d for c in self.parts for d in c.coords)

    @property
    def index(self) -> int:
        q = self.spec.base.q
        idx = 0
        for c in reversed(self.parts):
            idx = idx * q + c.index
        return idx

    def is_zero(self) -> bool:
        return not any(any(c.coords) for c in self.parts)

    def residue(self):
        return self.parts[0]

    def is_unit(self) -> bool:
        return not self.residue().is_zero()

    def __add__(self, other):
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return TupleRingElem(self.spec, tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other):
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        return TupleRingElem(self.spec, tuple(a - b for a, b in zip(self.parts, other.parts)))

    def __neg__(self):
        if self.spec.p == 2 or self.is_zero():
            return self
        return TupleRingElem(self.spec, tuple(-a for a in self.parts))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        m = self.spec.m
        zero = self.spec.base.zero()
        out = [zero] * m
        for i, a in enumerate(self.parts):
            if a.is_zero():
                continue
            for j, b in enumerate(other.parts):
                if i + j < m and not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TupleRingElem(self.spec, tuple(out))

    __rmul__ = __mul__

    def scale(self, n: int):
        return TupleRingElem(self.spec, tuple(a.scale(n) for a in self.parts))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self):
        """(sum a_i x^i)^p = sum a_i^p x^(ip) in characteristic p, below x^m."""
        spec = self.spec
        p, m = spec.p, spec.m
        out = [spec.base.zero()] * m
        for i, a in enumerate(self.parts[: (m - 1) // p + 1]):
            out[i * p] = a.frobenius()
        return TupleRingElem(spec, tuple(out))

    def inverse(self):
        if not self.is_unit():
            raise NotInvertible(f"{self} is not a unit (residue 0)")
        # a = a0 (1 + nu) with nu nilpotent; geometric series stops at x^m = 0
        a0_inv = self.spec.from_field(self.parts[0].inverse())
        nu = self * a0_inv - self.spec.one()
        acc = self.spec.one()
        term = self.spec.one()
        for _ in range(self.spec.m - 1):
            term = -(term * nu)
            acc = acc + term
        return acc * a0_inv

    def __str__(self):
        parts = []
        for i, c in enumerate(self.parts):
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
