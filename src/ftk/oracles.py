"""Independent brute-force oracles for the classification paths.

Over F_q the paper's stack of torsors is counted as a groupoid: its
classes and their automorphism groups.  Each oracle computes exactly that
as an orbit quotient, ``_quotient``: its objects are raw data over an
explicit finite window, its moves are exhaustively searched witnesses,
and a class's automorphism count is the number of moves that fix its
first object.  The oracles share with the main path only the elementary
series arithmetic and the library's one union-find
(``groupoids._union_classes``), not the canonicalisation logic.  The one
exception is the split-frame oracle, ``double_frame_bruteforce``: it
takes its component covers from ``enumerate_as_classes`` and
``as_canonicalize``, and solves its crossings with ``as_iso_witness``
(through ``_solve_wp``), until an oracle for every non-coprime frame
replaces it.

* Artin-Schreier class counts: enumerate raw series over a window and
  quotient by exhaustively searched coboundary witnesses.  The window is
  built once and ``u^p - u`` is computed once per witness u.
* Kummer class counts: enumerate monomial covers and quotient by
  exhaustively searched monomial witnesses (valuation additivity makes
  the monomial search complete for monomial covers); ``u^n`` is computed
  once per witness u.  Windowed all-coefficient searches back the
  targeted non-existence checks.
* Semidirect torsors: enumerate raw (cover, twist) pairs, realise twists
  as frame maps composed symbolically, keep the pairs whose n-th power is
  the identity, and quotient by exhaustive conjugation.  A frame map is a
  tuple of semilinear affine maps X -> M X + c, one per source component
  of the frame (a connected frame's maps are 1-tuples).  The
  gcd-reduction check builds the non-coprime frame out of its two field
  components and enumerates honestly there.  Within one call, a
  substitution s -> lam s is computed at most once per series (and not
  at all for lam = 1), and each conjugating morphism is built once.

Every table an oracle keeps lives in that call: nothing persists between
calls.  Oracles refuse work beyond desk scale instead of approximating:
an oracle builds at most ``_MAX_ENUMERATION`` = 2^18 series (or series
vectors) and tests at most 2^18 (object, witness) pairs.  The
sizes are counted from the arguments before anything is built, and a
refusal is a ``DomainError`` (CLI exit code 2).  Break bounds and the
Kummer degree n are checked by the same functions as the structured
paths check them, so both refuse with one message.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, check_break_bound, check_tame_order
from .fields import FieldSpec
from .groupoids import _union_classes
from .series import LaurentSeries

_MAX_ENUMERATION = 2**18


def _capped_pow(base: int, exp: int) -> int:
    """base**exp for base >= 2, or _MAX_ENUMERATION + 1 once it is larger,
    so that a huge exponent costs nothing to refuse."""
    out = 1
    for _ in range(exp):
        out *= base
        if out > _MAX_ENUMERATION:
            return _MAX_ENUMERATION + 1
    return out


def _check_scale(*sizes: int):
    if max(sizes) > _MAX_ENUMERATION:
        raise DomainError(
            f"oracle scale exceeded: more than {_MAX_ENUMERATION} series or pairs"
        )


def _series_key(s: LaurentSeries):
    return (s.val, tuple(c.index for c in s.coeffs))


def _window_series(spec, exponents, prec):
    """Every series supported on the given exponents, exact to prec."""
    out = []
    for values in itertools.product(range(spec.q), repeat=len(exponents)):
        d = {e: spec.from_index(v) for e, v in zip(exponents, values) if v}
        out.append(LaurentSeries.from_dict(spec, d, prec))
    return out


def _quotient(keys, images):
    """(class count, sorted aut counts) of the orbits of keys under moves.

    images yields, for each key in order, its images under every move; an
    image outside keys is dropped.  A class's aut count is the number of
    moves that fix its first key."""
    index = set(keys)
    links, fixed = [], dict.fromkeys(keys, 0)
    for key, moved in zip(keys, images):
        for image in moved:
            if image == key:
                fixed[key] += 1
            elif image in index:
                links.append((key, image))
    classes = _union_classes(keys, links).values()
    return len(classes), sorted(fixed[members[0]] for members in classes)


# -- Artin-Schreier ---------------------------------------------------------


def as_bruteforce_class_count(spec: FieldSpec, m: int) -> int:
    """Orbit count of series with support in [-m, 0] under coboundaries,
    by exhaustive witness search over the same window."""
    check_break_bound(m)
    n_window = _capped_pow(spec.q, m + 1)
    _check_scale(n_window, n_window * n_window)
    prec = 4 * max(m, 1) + 8
    window = _window_series(spec, list(range(-m, 1)), prec)
    coboundaries = [u.wp() for u in window]
    images = ([_series_key(wu + b) for wu in coboundaries] for b in window)
    return _quotient([_series_key(b) for b in window], images)[0]


def as_window_witness_exists(c: LaurentSeries, d: LaurentSeries, lo: int, hi: int) -> bool:
    """Is there u supported on [lo, hi] with u^p - u + c = d?  Exhaustive."""
    spec = c.ring
    _check_scale(_capped_pow(spec.q, hi - lo + 1))
    prec = min(c.prec, d.prec)
    target = d - c
    for u in _window_series(spec, list(range(lo, hi + 1)), prec):
        if (u.wp() - target).is_zero():
            return True
    return False


# -- Kummer -----------------------------------------------------------------


def _support_key(s: LaurentSeries):
    """Support-only key: valid for comparing exact polynomial windows."""
    return tuple(sorted((e, c.index) for e, c in s.support().items()))


def kummer_bruteforce_class_count(spec: FieldSpec, n: int) -> int:
    """Orbit count of the monomial covers c t^i (i in 0..2n-1) under
    u^n-multiplication, searching monomial witnesses exhaustively.

    Monomial witnesses suffice for monomial covers because valuations add
    under multiplication over a field (checked separately in the tests).
    """
    check_tame_order(spec.p, n)
    n_objects, n_witnesses = 2 * n * (spec.q - 1), (4 * n + 1) * (spec.q - 1)
    _check_scale(n_objects, n_witnesses, n_objects * n_witnesses)
    prec = 4 * n + 8
    objects = [
        LaurentSeries.monomial(spec.from_index(c), i, prec)
        for i in range(2 * n)
        for c in range(1, spec.q)
    ]
    units = [spec.from_index(c) for c in range(1, spec.q)]
    multipliers = [
        LaurentSeries.monomial(v, k, prec) ** n
        for k in range(-2 * n, 2 * n + 1)
        for v in units
    ]
    images = ([_support_key(un * b) for un in multipliers] for b in objects)
    return _quotient([_support_key(b) for b in objects], images)[0]


def kummer_window_witness_exists(
    b: LaurentSeries, b2: LaurentSeries, n: int, lo: int = -2, hi: int = 2
) -> bool:
    """Full-window search: any u with support in [lo, hi] (all coefficient
    combinations, u invertible) and u^n b = b2 to the available precision?"""
    spec = b.ring
    _check_scale(_capped_pow(spec.q, hi - lo + 1))
    prec = min(b.prec, b2.prec)
    for u in _window_series(spec, list(range(lo, hi + 1)), prec):
        if u.is_zero():
            continue
        if ((u**n) * b - b2).is_zero():
            return True
    return False


# -- frame maps: one semilinear affine map per source component ---------------


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
        from .semidirect import mat_identity

        r = len(self.matrix)
        p = self.trans[0].ring.p if self.trans else None
        if self.src != self.dst:
            return False
        if p is not None and self.matrix != mat_identity(r, p):
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


def _map_key(f) -> tuple:
    return tuple(part.key() for part in f)


def _is_identity(f) -> bool:
    return all(part.is_identity() for part in f)


def _shifts(translations, r: int, p: int, one):
    """(X -> X + h, X -> X - h) for each h in translations, a tuple with
    one translation vector per frame component: the conjugating
    morphisms of both semidirect oracles."""
    from .semidirect import mat_identity

    id_mat = mat_identity(r, p)

    def shift(hs):
        return tuple(AffineMap(i, i, id_mat, h, one) for i, h in enumerate(hs))

    return [
        (shift(hs), shift(tuple(tuple(x.scale_int(-1) for x in h) for h in hs)))
        for hs in translations
    ]


class _Composition:
    """Composition of frame maps over F_p within one oracle call.
    sigma_lam(a)(s) = a(lam s) is a itself for lam = 1 and is otherwise
    computed at most once per (series, lam): the table lives as long as
    this object, and an oracle builds one per call."""

    def __init__(self, p: int):
        self.p = p
        self.table: dict = {}

    def sigma(self, vec, lam) -> tuple:
        if lam == lam.spec.one():
            return tuple(vec)
        out = []
        for a in vec:
            key = (a.prec, _series_key(a), lam.index)
            s = self.table.get(key)
            if s is None:
                s = self.table[key] = a.scale_substitute(lam)
            out.append(s)
        return tuple(out)

    def then(self, f, g) -> tuple:
        """g o f: apply f first, then g; each part of f is followed by the
        part of g that leaves the component it lands on."""
        return tuple(self._affine_then(h, g[h.dst]) for h in f)

    def _affine_then(self, f: AffineMap, g: AffineMap) -> AffineMap:
        from .semidirect import mat_identity, mat_mul, mat_vec_series

        # (g o f)(X) = M_f (M_g X + c_g) + sigma_{lam_g}(c_f)
        m = mat_mul(f.matrix, g.matrix, self.p)
        if f.matrix == mat_identity(len(f.matrix), self.p):
            # M_f c_g is c_g, each series cut to the shortest window as the
            # matrix product would
            prec = min((t.prec for t in g.trans), default=0)
            mixed = tuple(t if t.prec == prec else t.truncate(prec) for t in g.trans)
        else:
            mixed = mat_vec_series(f.matrix, g.trans, self.p)
        trans = tuple(a + b for a, b in zip(mixed, self.sigma(f.trans, g.lam)))
        return AffineMap(f.src, g.dst, m, trans, f.lam * g.lam)

    def power(self, f, n: int) -> tuple:
        out = f
        for _ in range(n - 1):
            out = self.then(out, f)
        return out

    def conjugate(self, gamma, shift) -> tuple:
        """h^-1 o gamma o h for shift = (X -> X + h, X -> X - h)."""
        plus, minus = shift
        return self.then(self.then(plus, gamma), minus)


# -- semidirect: raw pair enumeration ----------------------------------------


def semidirect_bruteforce(group, frame, break_bound: int):
    """(class count, sorted aut multiset) for G-torsors marked with the
    frame, by raw enumeration.

    A torsor is a pair (b, gamma) with b a cover vector over a window and
    gamma: X -> psi^{-1} X + c over s -> xi s a compatible twist
    (p-th-power condition checked directly); it counts when gamma^n is the
    identity map.  Pairs are identified through exhaustively searched
    conjugations by cover morphisms X -> X - h, and automorphisms counted
    the same way.
    """
    r, p, n = group.r, group.p, frame.n
    spec = frame.spec
    check_break_bound(break_bound)
    n_window = _capped_pow(spec.q, break_bound + 1)
    n_vectors = _capped_pow(n_window, r)
    # each cover vector has at most p^r twists, each tested against every h
    _check_scale(n_window, n_vectors, n_vectors * _capped_pow(p, r) * n_vectors)
    from .semidirect import mat_pow

    prec = 3 * break_bound + 12
    exps = list(range(-break_bound, 1))
    window = _window_series(spec, exps, prec)
    psi_inv = mat_pow(group.psi, n - 1, p) if r else ()
    xi = frame.xi
    comp = _Composition(p)

    def vec_key(vec):
        return tuple(_series_key(v) for v in vec)

    # precomputed tables over the window
    wp_of = {_series_key(w): w.wp() for w in window}
    c_by_wp = {}
    for w in window:
        c_by_wp.setdefault(_series_key(wp_of[_series_key(w)]), []).append(w)

    # collect valid pairs: c must satisfy c^p - c = sigma(b) - psi^{-1} b
    pairs = []
    for b_vec in itertools.product(window, repeat=r):
        sigma_b = comp.sigma(b_vec, xi)
        per_component = []
        for i in range(r):
            rhs = sigma_b[i]
            for j in range(r):
                if psi_inv[i][j]:
                    rhs = rhs - b_vec[j].scale_int(psi_inv[i][j])
            per_component.append(c_by_wp.get(_series_key(rhs), []))
        for c_vec in itertools.product(*per_component):
            gamma = (AffineMap(0, 0, psi_inv, tuple(c_vec), xi),)
            if _is_identity(comp.power(gamma, n)):
                pairs.append((b_vec, gamma))
    # quotient by conjugation with cover morphisms h over the same window,
    # each with the coboundary it adds to the cover
    h_vecs = list(itertools.product(window, repeat=r))
    shifts = _shifts([(h_vec,) for h_vec in h_vecs], r, p, spec.one())
    wp_hs = [tuple(wp_of[_series_key(h)] for h in h_vec) for h_vec in h_vecs]

    def conjugates(b_vec, gamma):
        for shift, wp_h in zip(shifts, wp_hs):
            b2 = tuple(x + w for x, w in zip(b_vec, wp_h))
            yield vec_key(b2), _map_key(comp.conjugate(gamma, shift))

    keys = [(vec_key(b), _map_key(g)) for b, g in pairs]
    return _quotient(keys, (conjugates(b, g) for b, g in pairs))


# -- the non-coprime frame (n, q_exp) = (2d, d): split components -------------


def double_frame_bruteforce(group, spec, break_bound: int):
    """(class count, sorted aut multiset) for G = H x| C_4 torsors marked
    with the split frame X^4 = t^2 over F_q((t)), enumerated from the
    frame's own two-component structure (no gcd reduction).

    The frame algebra splits as F_q((s1)) x F_q((s2)) with s1^2 = t,
    s2^2 = -t, and the C_4 generator crosses the components with the
    substitution s -> zeta4 * s.  Objects are component cover vectors
    (b1, b2) with crossing twists gamma12, gamma21 such that the full
    symbolic composite gamma^4 is the identity; isomorphism and
    automorphism search is exhaustive over componentwise cover morphisms.
    """
    from .artin_schreier import as_canonicalize, enumerate_as_classes
    from .semidirect import mat_pow, mat_vec_series

    if group.n != 4:
        raise DomainError("split-frame oracle models n = 4, q_exp = 2 only")
    r, p = group.r, group.p
    if (spec.q - 1) % 4:
        raise DomainError("need the 4th roots of unity in the base field")
    check_break_bound(break_bound)
    # p q^|S_m| AS classes per component, |S_m| = m - floor(m/p); each
    # cover vector has p^(2r) twists, each tested against p^(2r) morphisms
    n_classes = p * _capped_pow(spec.q, break_bound - break_bound // p)
    n_vectors = _capped_pow(n_classes, r)
    n_twists = _capped_pow(p, 2 * r)
    _check_scale(n_classes, n_vectors, n_vectors * n_twists * n_twists)
    prec = 3 * break_bound + 14
    zeta4 = spec.generator ** ((spec.q - 1) // 4)
    psi_inv = mat_pow(group.psi, group.n - 1, p)
    comp = _Composition(p)
    consts = [LaurentSeries.constant(spec.from_int(k), prec) for k in range(p)]

    def minus_mat_vec(m, vec):
        return tuple(v.scale_int(-1) for v in mat_vec_series(m, vec, p))

    def crossing_rhs(b_src, b_dst):
        """The series vector that p-Frobenius-minus-identity of the crossing
        translation must equal: tau(b_src) - psi^{-1} b_dst."""
        tau = comp.sigma(b_src, zeta4)
        mixed = minus_mat_vec(psi_inv, b_dst)
        return tuple(a + b for a, b in zip(tau, mixed))

    singles = enumerate_as_classes(spec, break_bound)
    vectors = [vec for vec in itertools.product(singles, repeat=r)]
    reps = {vec: tuple(c.to_series(prec) for c in vec) for vec in vectors}

    found = []
    for v1 in vectors:
        b1 = reps[v1]
        # the class of b2 is forced by solvability of the 1 -> 2 crossing
        target_cls = tuple(
            as_canonicalize(x)
            for x in mat_vec_series(group.psi, comp.sigma(b1, zeta4), p)
        )
        if target_cls not in reps:
            continue
        b2 = reps[target_cls]
        w12 = _solve_wp(crossing_rhs(b1, b2))
        w21 = _solve_wp(crossing_rhs(b2, b1))
        if w12 is None or w21 is None:
            continue
        for shift12 in itertools.product(range(p), repeat=r):
            c12 = tuple(w + consts[k] for w, k in zip(w12, shift12))
            for shift21 in itertools.product(range(p), repeat=r):
                c21 = tuple(w + consts[k] for w, k in zip(w21, shift21))
                gamma = (AffineMap(0, 1, psi_inv, c12, zeta4), AffineMap(1, 0, psi_inv, c21, zeta4))
                if _is_identity(comp.power(gamma, 4)):
                    found.append(((v1, target_cls), gamma))
    # quotient by componentwise morphisms with constant witnesses
    const_vectors = list(itertools.product(consts, repeat=r))
    shifts = _shifts(itertools.product(const_vectors, repeat=2), r, p, spec.one())
    keys = [(cls, _map_key(g)) for cls, g in found]
    images = ([(cls, _map_key(comp.conjugate(g, shift))) for shift in shifts] for cls, g in found)
    return _quotient(keys, images)


def _solve_wp(rhs_vec):
    """Componentwise u with u^p - u = rhs, via the canonicalisation
    witnesses; None when some component is not a coboundary."""
    from .artin_schreier import as_iso_witness

    out = []
    for rhs in rhs_vec:
        zero = LaurentSeries.zero(rhs.ring, rhs.prec)
        w = as_iso_witness(zero, rhs)
        if w is None:
            return None
        out.append(w.u)
    return tuple(out)
