"""Independent brute-force oracles for the classification paths.

Over F_q the paper's stack of torsors is counted as a groupoid: its
classes and their automorphism groups.  Each oracle computes exactly that
as an orbit quotient, ``_quotient`` (``_cover_orbits`` for cover windows,
which need no automorphism counts): its objects are raw data over an
explicit finite window, its moves are exhaustively searched witnesses,
and a class's automorphism count is the number of moves that fix its
first object.  The oracles share with the main path only the field (its
elements, their arithmetic and its generator), the F_p matrix helpers of
``semidirect`` and the library's one union-find
(``groupoids._union_classes``), not the series arithmetic and not the
canonicalisation logic.

The count oracles work on index-coded polar parts, ``_WindowCodec``: a
series with support in [lo, 0] is the tuple of the F_q indices of its
coefficients at lo .. 0, and the tuple is its key.  Sums, negatives, F_p
multiples, u^p - u and s -> lam s read index tables that the codec builds
from the field when an oracle builds it, once per call.

No oracle needs a window beyond t^0, because every vector it builds is a
polynomial in s^-1 of degree at most m.  The window vectors have support
in [-m, 0].  The witnesses have support in [-floor(m/p), 0], so u^p - u
lands in [-m, 0].  Sums, F_p multiples, s -> lam s, the rows of an F_p
matrix and the constant shifts keep the support.  So a window [-m, P)
with P > 1 would only append zeros that no operation reads, and the
polar part known mod t^1 is the oracles' exact data.

* Artin-Schreier class counts: the orbits of the window of series with
  support in [-m, 0] under adding coboundaries u^p - u, ``_cover_orbits``.
  The witnesses u searched are those that keep the window, with support
  in [-floor(m/p), 0]: a pole of u at -k puts u_k^p at -pk.
* Kummer class counts: enumerate monomial covers and quotient by
  exhaustively searched monomial witnesses (valuation additivity makes
  the monomial search complete for monomial covers).  A monomial is an
  (exponent, index) pair and products are symbolic,
  (i, c) (v t^k)^n = (i + nk, v^n c), so no product truncates.  Windowed
  all-coefficient searches over ``LaurentSeries`` back the targeted
  non-existence checks.
* Semidirect torsors, ``_frame_torsors``: a frame of d components
  F_q((s)), in which the C_n generator crosses component i to i + 1
  (mod d) through s -> lam s.  A torsor is a chain of cover vectors
  b_0 .. b_{d-1} with crossings X -> psi^{-1} X + c_i over s -> lam s,
  c_i^p - c_i = sigma_lam(b_i) - psi^{-1} b_{i+1}, whose composite gamma^n
  is the identity.  A frame map is a tuple of semilinear affine maps
  X -> M X + c, one per source component of the frame, composed
  symbolically.  The connected frame s^n = t has d = 1 and lam = xi
  (``semidirect_bruteforce``); the split frame X^4 = t^2 has d = 2 and
  lam = zeta_4 (``double_frame_bruteforce``), enumerated from its own two
  components, with no gcd reduction.

  The objects are the chains of orbit representatives, with every
  crossing read from the coboundary table, and the moves are the
  componentwise constant shifts X -> X + h.  The answer is that of all
  chains of window vectors under all window shifts, for two reasons.
  Every torsor is isomorphic to one on representatives: shift each
  component by the witness that takes it to its representative.  So the
  torsors on representatives form a full subgroupoid that meets every
  class.  And a morphism between two of them takes a representative to a
  representative, so its witness has h^p - h = 0: constants are the only
  such h.

Every table an oracle keeps lives in that call: nothing persists between
calls.  Oracles refuse work beyond desk scale instead of approximating:
an oracle builds at most ``_MAX_ENUMERATION`` = 2^18 series (or series
vectors), tests at most 2^18 (object, witness) pairs, and builds no
codec table larger than its q^2 sums, with q^2 <= 2^18 too.  The sizes
are counted from the arguments before anything is built, and a
refusal is a ``DomainError`` (CLI exit code 2).  Break bounds and the
Kummer degree n are checked by the same functions as the structured
paths check them, so both refuse with one message.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, check_break_bound, check_tame_order
from .fields import FieldSpec
from .groupoids import _rep_of, _union_classes
from .semidirect import mat_identity, mat_mul, mat_pow
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


def _window_series(spec, exponents, prec):
    """Every series supported on the given exponents, exact to prec."""
    out = []
    for values in itertools.product(range(spec.q), repeat=len(exponents)):
        d = {e: spec.from_index(v) for e, v in zip(exponents, values) if v}
        out.append(LaurentSeries.from_dict(spec, d, prec))
    return out


class _WindowCodec:
    """Polar parts over F_q with support in [lo, 0], coded as tuples of F_q
    indices.

    A series known mod t^1 is the tuple of the indices of its coefficients
    at lo, lo + 1, ..., 0, and that tuple is its key; every vector has the
    same length 1 - lo.  Addition, negation, scaling by F_p, u -> u^p - u
    and the substitution s -> lam s read index tables built from the
    field's own arithmetic when the codec is built: q^2 sums, p*q multiples
    by F_p and the q - 1 powers of the field's generator.  An oracle builds one codec per call,
    after its size check.  ``encode`` and ``decode`` convert from and to
    ``LaurentSeries`` known mod t^1; no oracle calls them, the tests do.
    """

    def __init__(self, spec, lo: int):
        p, q = spec.p, spec.q
        elems = spec.elements()
        self.spec, self.lo, self.p, self.elems = spec, lo, p, elems
        self.sums = [[(a + b).index for b in elems] for a in elems]
        self.multiples = [[a.scale(k).index for a in elems] for k in range(p)]
        self.antilog, x = [], spec.one()
        for _ in range(q - 1):
            self.antilog.append(x.index)
            x = x * spec.generator
        self.log = [0] * q
        for k, i in enumerate(self.antilog):
            self.log[i] = k
        self.frobenius = [0] + [self.antilog[p * self.log[i] % (q - 1)] for i in range(1, q)]

    def encode(self, s: LaurentSeries) -> tuple:
        if s.prec != 1 or not s.is_zero() and s.val < self.lo:
            raise DomainError(f"series outside the codec's window: val >= {self.lo}, prec = 1")
        return tuple(s.coeff(e).index for e in range(self.lo, 1))

    def decode(self, v: tuple) -> LaurentSeries:
        return LaurentSeries.make(self.spec, self.lo, 1, [self.elems[i] for i in v])

    def window(self, exponents) -> list:
        """Every vector supported on exponents, in the order of
        ``_window_series``."""
        slots = [e - self.lo for e in exponents]
        out = []
        for values in itertools.product(range(self.spec.q), repeat=len(slots)):
            v = [0] * (1 - self.lo)
            for j, x in zip(slots, values):
                v[j] = x
            out.append(tuple(v))
        return out

    def constant(self, k: int) -> tuple:
        """The constant k in F_p."""
        v = [0] * (1 - self.lo)
        v[-1] = k % self.p
        return tuple(v)

    def add(self, a: tuple, b: tuple) -> tuple:
        sums = self.sums
        return tuple([sums[x][y] for x, y in zip(a, b)])

    def scale(self, a: tuple, k: int) -> tuple:
        """k a for an integer k, read in F_p."""
        return tuple(map(self.multiples[k % self.p].__getitem__, a))

    def neg(self, a: tuple) -> tuple:
        return self.scale(a, -1)

    def sub(self, a: tuple, b: tuple) -> tuple:
        return self.add(a, self.neg(b))

    def wp(self, u: tuple) -> tuple:
        """u^p - u.  The coefficient at e <= 0 moves to pe <= e, which must
        stay at or above lo: the oracles' witnesses have support in
        [-floor(m/p), 0] on lo = -m."""
        lo, p = self.lo, self.p
        out = list(self.neg(u))
        for j, x in enumerate(u):
            if x:
                k = p * (lo + j) - lo
                if k < 0:
                    raise DomainError(f"u^p reaches below the codec's window at {lo}")
                out[k] = self.sums[out[k]][self.frobenius[x]]
        return tuple(out)

    def substitute(self, a: tuple, lam: int) -> tuple:
        """a(lam s) for lam a nonzero index: the coefficient at e picks up lam^e."""
        log, antilog, lo = self.log, self.antilog, self.lo
        order, step = len(antilog), log[lam]
        return tuple([antilog[(log[x] + step * (lo + j)) % order] if x else 0 for j, x in enumerate(a)])

    def mul(self, x: int, y: int) -> int:
        """x y for nonzero indices x, y."""
        return self.antilog[(self.log[x] + self.log[y]) % len(self.antilog)]

    def power(self, x: int, n: int) -> int:
        """x^n for a nonzero index x."""
        return self.antilog[self.log[x] * n % len(self.antilog)]

    def mat_vec(self, m, vec) -> tuple:
        """An F_p matrix applied to a vector of coded series."""
        out = []
        for row in m:
            acc = None
            for k, x in zip(row, vec):
                term = self.scale(x, k)
                acc = term if acc is None else self.add(acc, term)
            out.append(acc)
        return tuple(out)


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


def _cover_orbits(codec, m: int):
    """(coboundaries, orbits) for the covers with support in [-m, 0], on a
    codec with lo = -m.

    coboundaries maps each u^p - u to its witnesses u, over the witnesses
    that keep the window (support in [-floor(m/p), 0]); orbits are the
    window's classes under adding coboundaries, {representative: members}.
    The caller checks that window x witnesses is within the bound."""
    window = codec.window(range(-m, 1))
    coboundaries: dict = {}
    for u in codec.window(range(-(m // codec.p), 1)):
        coboundaries.setdefault(codec.wp(u), []).append(u)
    links = ((b, codec.add(b, w)) for b in window for w in coboundaries)
    return coboundaries, _union_classes(window, links)


def _cover_pairs(spec, m: int) -> int:
    """window series x witnesses for covers with support in [-m, 0]: the
    pairs ``_cover_orbits`` tests, and at least q^2, the codec's sums."""
    return _capped_pow(spec.q, m + 1) * _capped_pow(spec.q, m // spec.p + 1)


def as_bruteforce_class_count(spec: FieldSpec, m: int) -> int:
    """Orbit count of series with support in [-m, 0] under coboundaries,
    by exhaustive search over the witnesses that keep the window."""
    check_break_bound(m)
    _check_scale(_cover_pairs(spec, m))
    return len(_cover_orbits(_WindowCodec(spec, -m), m)[1])


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


def kummer_bruteforce_class_count(spec: FieldSpec, n: int) -> int:
    """Orbit count of the monomial covers c t^i (i in 0..2n-1) under
    multiplication by u^n, searching the monomial witnesses u = v t^k,
    |k| <= 2n, exhaustively.

    Monomial witnesses suffice for monomial covers because valuations add
    under multiplication over a field (checked separately in the tests).
    A monomial is the pair (exponent, F_q index), multiplied symbolically:
    (i, c) (v t^k)^n = (i + nk, v^n c), so no product truncates.
    """
    check_tame_order(spec.p, n)
    n_objects, n_witnesses = 2 * n * (spec.q - 1), (4 * n + 1) * (spec.q - 1)
    _check_scale(n_objects, n_witnesses, n_objects * n_witnesses)
    codec = _WindowCodec(spec, 0)
    objects = [(i, c) for i in range(2 * n) for c in range(1, spec.q)]
    powers = [codec.power(v, n) for v in range(1, spec.q)]
    shifts = [n * k for k in range(-2 * n, 2 * n + 1)]
    images = ([(i + nk, codec.mul(vn, c)) for nk in shifts for vn in powers] for i, c in objects)
    return _quotient(objects, images)[0]


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
    src = i; it is its own key.
    """

    src: int
    dst: int
    matrix: tuple  # r x r over F_p
    trans: tuple  # r series over the target component's field, codec vectors
    lam: int  # F_q index of the substitution factor

    def is_identity(self) -> bool:
        # index 0 is zero, 1 is one
        return (
            self.src == self.dst
            and self.lam == 1
            and self.matrix == mat_identity(len(self.matrix))
            and not any(map(any, self.trans))
        )


def _is_identity(f) -> bool:
    return all(part.is_identity() for part in f)


def _shifts(codec, translations, identity):
    """(X -> X + h, X -> X - h) for each h in translations, a tuple with
    one translation vector per frame component: the conjugating
    morphisms of ``_frame_torsors``."""

    def shift(hs):
        return tuple(AffineMap(i, i, identity, h, 1) for i, h in enumerate(hs))

    return [
        (shift(hs), shift(tuple(tuple(map(codec.neg, h)) for h in hs)))
        for hs in translations
    ]


class _Composition:
    """Composition of frame maps of rank r over one codec, within one
    oracle call.  sigma_lam(a)(s) = a(lam s) is a itself for lam = 1 and
    is otherwise computed at most once per (series, lam): the table lives
    as long as this object, and an oracle builds one per call."""

    def __init__(self, codec, r: int):
        self.codec = codec
        self.identity = mat_identity(r)
        self.table: dict = {}

    def sigma(self, vec, lam: int) -> tuple:
        if lam == 1:
            return tuple(vec)
        out = []
        for a in vec:
            s = self.table.get((a, lam))
            if s is None:
                s = self.table[a, lam] = self.codec.substitute(a, lam)
            out.append(s)
        return tuple(out)

    def then(self, f, g) -> tuple:
        """g o f: apply f first, then g; each part of f is followed by the
        part of g that leaves the component it lands on."""
        return tuple(self._affine_then(h, g[h.dst]) for h in f)

    def _affine_then(self, f: AffineMap, g: AffineMap) -> AffineMap:
        codec = self.codec
        # (g o f)(X) = M_f (M_g X + c_g) + sigma_{lam_g}(c_f)
        if f.matrix == self.identity:
            # M_f M_g is M_g, and M_f c_g is c_g
            m, mixed = g.matrix, g.trans
        else:
            m = mat_mul(f.matrix, g.matrix, codec.p)
            mixed = codec.mat_vec(f.matrix, g.trans)
        trans = tuple(map(codec.add, mixed, self.sigma(f.trans, g.lam)))
        return AffineMap(f.src, g.dst, m, trans, codec.mul(f.lam, g.lam))

    def power(self, f, n: int) -> tuple:
        out = f
        for _ in range(n - 1):
            out = self.then(out, f)
        return out

    def conjugate(self, gamma, shift) -> tuple:
        """h^-1 o gamma o h for shift = (X -> X + h, X -> X - h)."""
        plus, minus = shift
        return self.then(self.then(plus, gamma), minus)


# -- semidirect: torsors over a frame of d components -------------------------


def _frame_torsors(group, spec, n: int, d: int, lam_log: int, m: int):
    """(class count, sorted aut multiset) of the G-torsors with breaks <= m
    over a frame of d components, the C_n generator crossing component i
    to i + 1 (mod d) through s -> lam s, lam = g^lam_log for the field's
    generator g: the chains of orbit representatives under constant
    shifts (module docstring).  lam is read from the codec's powers of g,
    so nothing is built before the size check."""
    r, p = group.r, group.p
    check_break_bound(m)
    # an orbit has q^(floor(m/p)+1) / p members, so there are p q^|S_m|
    # representatives, |S_m| = m - floor(m/p); a chain is fixed by its
    # first vector up to coboundaries, and has at most p^(rd) crossings,
    # each tested against p^(rd) shifts
    n_chains = _capped_pow(p * _capped_pow(spec.q, m - m // p), r)
    n_twists = _capped_pow(p, r * d)
    _check_scale(_cover_pairs(spec, m), n_chains * n_twists * n_twists)
    codec = _WindowCodec(spec, -m)
    coboundaries, orbits = _cover_orbits(codec, m)
    lam = codec.antilog[lam_log % (spec.q - 1)]
    rep_of = _rep_of(orbits)
    psi, psi_inv = (group.psi, mat_pow(group.psi, n - 1, p)) if r else ((), ())
    comp = _Composition(codec, r)

    def crossings(b, b_next):
        """Every c with c^p - c = sigma_lam(b) - psi^{-1} b_next."""
        rhs = map(codec.sub, comp.sigma(b, lam), codec.mat_vec(psi_inv, b_next))
        return itertools.product(*[coboundaries.get(x, ()) for x in rhs])

    objects = []
    for b in itertools.product(orbits, repeat=r):
        chain = [b]
        for _ in range(d - 1):
            # the crossing out of b_i is solvable only into the orbit of
            # psi sigma_lam(b_i)
            chain.append(tuple(map(rep_of.__getitem__, codec.mat_vec(psi, comp.sigma(chain[-1], lam)))))
        steps = [crossings(chain[i], chain[(i + 1) % d]) for i in range(d)]
        for cs in itertools.product(*steps):
            gamma = tuple(AffineMap(i, (i + 1) % d, psi_inv, c, lam) for i, c in enumerate(cs))
            if _is_identity(comp.power(gamma, n)):
                objects.append((tuple(chain), gamma))
    consts = [codec.constant(k) for k in range(p)]
    shifts = _shifts(codec, itertools.product(itertools.product(consts, repeat=r), repeat=d), comp.identity)
    images = ([(chain, comp.conjugate(gamma, s)) for s in shifts] for chain, gamma in objects)
    return _quotient(objects, images)


def semidirect_bruteforce(group, frame, break_bound: int):
    """(class count, sorted aut multiset) for G-torsors marked with the
    connected frame F_q((s)), s^n = t, whose generator acts as s -> xi s:
    ``_frame_torsors`` with d = 1 and lam = xi = g^((q-1)/n beta)."""
    spec = frame.spec
    return _frame_torsors(group, spec, frame.n, 1, (spec.q - 1) // frame.n * frame.beta, break_bound)


def double_frame_bruteforce(group, spec, break_bound: int):
    """(class count, sorted aut multiset) for G = H x| C_4 torsors marked
    with the split frame X^4 = t^2 over F_q((t)): the frame algebra splits
    as F_q((s1)) x F_q((s2)) with s1^2 = t, s2^2 = -t, and the C_4
    generator crosses the components through s -> zeta_4 s.  So this is
    ``_frame_torsors`` with d = 2 and lam = zeta_4 = g^((q-1)/4), with no
    gcd reduction.
    """
    if group.n != 4:
        raise DomainError("split-frame oracle models n = 4, q_exp = 2 only")
    if (spec.q - 1) % 4:
        raise DomainError("need the 4th roots of unity in the base field")
    return _frame_torsors(group, spec, 4, 2, (spec.q - 1) // 4, break_bound)
