"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns (ok, detail).  run_all prints one PASS/FAIL line
per criterion and returns the overall verdict; the CLI selftest verb and
the pytest acceptance module both drive this.  Oracles are independent
exhaustive computations (see ftk.oracles), never re-runs of the path
under test; random checks are seeded and deterministic.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import oracles
from .artin_schreier import IndPoint, as_canonicalize, enumerate_as_classes, prime_to_p_support
from .fields import field, test_ring
from .groupoids import (
    CentralAutSubgroup,
    FinGroup,
    FiniteGroupoid,
    SetSystem,
    SystemMap,
    bg,
    colim_fiber_product_check,
    groupoid_fiber_product,
    product_groupoid,
    quotient_functor,
    rigidify,
    _table,
)
from .kummer import enumerate_kummer_classes, kummer_iso_witness
from .semidirect import (
    SemidirectGroup,
    TameFrame,
    enumerate_g_torsors,
    reduce_to_coprime,
    vn_check,
)
from .series import LaurentSeries


def _random_series(rng, spec, lo, hi, prec, density=0.6):
    d = {}
    for e in range(lo, hi):
        if rng.random() < density:
            idx = rng.randrange(1, spec.q)
            d[e] = spec.from_index(idx)
    return LaurentSeries.from_dict(spec, d, prec)


# -- criteria ----------------------------------------------------------------


def criterion_01_positive_part_solver():
    """solve_positive inverts u -> u^p - u on 200 random positive series."""
    rng = random.Random(101)
    t0 = time.monotonic()
    for trial in range(200):
        p = (2, 3, 5)[trial % 3]
        spec = field(p)
        b = _random_series(rng, spec, 1, 64, 64, density=0.4)
        u = b.solve_positive()
        if not (u.wp() - b).is_zero():
            return False, f"u^p - u != b at trial {trial}"
        if not u.is_zero() and u.val < 1:
            return False, "solution not supported in exponents >= 1"
    elapsed = time.monotonic() - t0
    if elapsed >= 2.0:
        return False, f"too slow: {elapsed:.2f}s"
    return True, f"200 trials, {elapsed:.2f}s"


def criterion_02_coboundary_invariance():
    """as_canonicalize(b + u^p - u) = as_canonicalize(b), 500 random pairs."""
    rng = random.Random(102)
    for trial in range(500):
        p, e = [(2, 1), (3, 1), (2, 2), (5, 1)][trial % 4]
        spec = field(p, e)
        prec = 40
        b = _random_series(rng, spec, -6, 5, prec)
        u = _random_series(rng, spec, -4, 4, prec)  # negative + constant + positive
        if as_canonicalize(b + u.wp()) != as_canonicalize(b):
            return False, f"trial {trial}: classes differ"
    return True, "500 trials"


def criterion_03_frobenius_invariance():
    """as_canonicalize(b^p) = as_canonicalize(b), 200 random series."""
    rng = random.Random(103)
    for trial in range(200):
        p, e = [(2, 1), (3, 1), (3, 2)][trial % 3]
        spec = field(p, e)
        b = _random_series(rng, spec, -6, 4, 40)
        if as_canonicalize(b.series_pth_power()) != as_canonicalize(b):
            return False, f"trial {trial}: Frobenius changed the class"
    return True, "200 trials"


def criterion_04_as_counts():
    """Class counts match p q^|S_m| and the brute-force orbit count."""
    cases = [(2, 1, 1, 4), (2, 1, 3, 8), (2, 1, 5, 16), (3, 1, 2, 27)]
    for p, e, m, expected in cases:
        spec = field(p, e)
        t0 = time.monotonic()
        structured = len(enumerate_as_classes(spec, m))
        brute = oracles.as_bruteforce_class_count(spec, m)
        elapsed = time.monotonic() - t0
        if structured != expected or brute != expected:
            return False, f"(p,q,m)=({p},{p**e},{m}): {structured}/{brute} != {expected}"
        if elapsed >= 30:
            return False, f"(p,q,m)=({p},{p**e},{m}) too slow: {elapsed:.1f}s"
    return True, "counts 4/8/16/27 confirmed by orbit quotient"


def criterion_05_kummer_counts():
    """Kummer class counts match n gcd(n, q-1) and the u^n-orbit quotient."""
    cases = [(5, 1, 4, 16), (7, 1, 3, 9), (2, 2, 3, 9)]
    for p, e, n, expected in cases:
        spec = field(p, e)
        t0 = time.monotonic()
        structured = len(enumerate_kummer_classes(spec, n))
        brute = oracles.kummer_bruteforce_class_count(spec, n)
        elapsed = time.monotonic() - t0
        if structured != expected or brute != expected:
            return False, f"(q,n)=({p**e},{n}): {structured}/{brute} != {expected}"
        if elapsed >= 30:
            return False, f"(q,n)=({p**e},{n}) too slow: {elapsed:.1f}s"
    return True, "counts 16/9/9 confirmed by orbit quotient"


def criterion_06_kummer_rigidity():
    """Witness success forces unit_ord congruence mod n; witnesses verify."""
    rng = random.Random(106)
    checked = 0
    for trial in range(200):
        p, e, n = [(5, 1, 4), (7, 1, 3), (3, 1, 2), (2, 2, 3)][trial % 4]
        spec = field(p, e)
        prec = 36
        i = rng.randrange(-5, 6)
        lead = spec.from_index(rng.randrange(1, spec.q))
        tail = _random_series(rng, spec, 1, 5, prec, density=0.5)
        b = (LaurentSeries.constant(lead, prec) + tail).shift(i)
        if trial % 2:
            u0 = LaurentSeries.constant(
                spec.from_index(rng.randrange(1, spec.q)), prec
            ).shift(rng.randrange(-2, 3))
            b2 = (u0**n) * b
        else:
            b2 = _random_series(rng, spec, 0, 4, prec, density=0.7) + LaurentSeries.constant(spec.one(), prec)
            b2 = b2.shift(rng.randrange(-5, 6))
        w = kummer_iso_witness(b, b2, n)
        if w is not None:
            checked += 1
            if (b.unit_ord() - b2.unit_ord()) % n:
                return False, f"trial {trial}: witness with incongruent orders"
            if not ((w**n) * b - b2).is_zero():
                return False, f"trial {trial}: witness fails u^n b = b'"
    return True, f"200 trials, {checked} witnesses verified"


def criterion_07_constancy_scans():
    """Exhaustive windowed scans find no non-constant torsion unit or
    idempotent over F_q (q <= 4) and F_q[x]/(x^2).

    Candidates carry a window generous enough that f^n is computed as an
    exact polynomial (no truncation artifacts); n ranges over the tame
    orders, since a wild n makes extra roots of unity appear.
    """
    rings = [
        (field(2), range(-2, 3)),
        (field(3), range(-2, 2)),
        (field(2, 2), range(-1, 2)),
        (test_ring(2, 1, 2), range(-2, 2)),
        (test_ring(3, 1, 2), range(-1, 2)),
        (test_ring(2, 2, 2), range(-1, 1)),
    ]
    prec = 48
    torsion_hits = idem_hits = 0
    for ring, window in rings:
        size = len(ring.elements())
        char = ring.p
        exps = list(window)
        one = LaurentSeries.constant(ring.one(), prec)
        for values in itertools.product(range(size), repeat=len(exps)):
            d = {e: ring.from_index(v) for e, v in zip(exps, values) if v}
            f = LaurentSeries.from_dict(ring, d, prec)
            for n in range(1, 7):
                if n % char == 0:
                    continue
                if (f**n - one).is_zero():
                    torsion_hits += 1
                    if not f.torsion_unit_is_constant(n):
                        return False, f"non-constant torsion unit {f} (n={n})"
            if (f * f - f).is_zero():
                idem_hits += 1
                if not f.idempotent_is_constant():
                    return False, f"non-constant idempotent {f}"
    return True, f"{torsion_hits} torsion units, {idem_hits} idempotents, all constant"


def _random_free_central_pair(rng):
    """A groupoid built from group-backed components sharing a central
    subgroup order, with its central automorphism subgroup."""
    h_order = rng.choice([2, 3])
    component_pool = {
        2: [
            (FinGroup.cyclic(4), [0, 2]),
            (FinGroup.cyclic(2), [0, 1]),
            (FinGroup.direct_product(FinGroup.cyclic(2), FinGroup.cyclic(2)), [(0, 0), (1, 0)]),
            (FinGroup.quaternion(), ["1", "-1"]),
            (FinGroup.cyclic(6), [0, 3]),
        ],
        3: [
            (FinGroup.cyclic(3), [0, 1, 2]),
            (FinGroup.cyclic(6), [0, 2, 4]),
            (FinGroup.cyclic(9), [0, 3, 6]),
        ],
    }[h_order]
    n_components = rng.randrange(1, 4)
    objects = []
    homs = {}
    group_of = {}
    subgroups = {}
    for ci in range(n_components):
        grp, sub = component_pool[rng.randrange(len(component_pool))]
        names = [f"c{ci}o{k}" for k in range(rng.randrange(1, 3))]
        objects.extend(names)
        # connected component with hom(x, y) = group elements
        for x in names:
            group_of[x] = grp
            subgroups[x] = frozenset(sub)
            homs.update({(x, y): grp.elements for y in names})
    compose = _table(homs, lambda x, y, z, f, g: group_of[x].mul(g, f))
    identities = {x: group_of[x].identity for x in objects}
    g = FiniteGroupoid.build(objects, homs, compose, identities)
    return g, CentralAutSubgroup(subgroups), h_order


def criterion_08_rigidification_laws():
    """rigidify(BG, G) is a point; mass scales by |H|; B(Z/4) // Z/2 = B(Z/2)."""
    for grp in [FinGroup.cyclic(4), FinGroup.cyclic(3), FinGroup.quaternion()]:
        g = bg(grp)
        full = CentralAutSubgroup({"*": frozenset(grp.elements)})
        r = rigidify(g, full)
        if len(r.objects) != 1 or r.arrow_count() != 1 or r.mass() != 1:
            return False, f"rigidify(B{grp!r}, full) is not a point"
    rng = random.Random(108)
    for trial in range(50):
        g, sub, h = _random_free_central_pair(rng)
        r = rigidify(g, sub)
        if r.mass() != h * g.mass():
            return False, f"trial {trial}: mass {r.mass()} != {h} * {g.mass()}"
    z4 = FinGroup.cyclic(4)
    r = rigidify(bg(z4), CentralAutSubgroup({"*": frozenset({0, 2})}))
    if r.aut_order("*") != 2 or r.mass() != Fraction(1, 2):
        return False, "B(Z/4) // Z/2 has the wrong size"
    arrows = r.hom("*", "*")
    ident = r.identities["*"]
    other = next(a for a in arrows if a != ident)
    if r.comp("*", "*", "*", other, other) != ident:
        return False, "B(Z/4) // Z/2 composition is not Z/2"
    return True, "point law, 50 mass scalings, B(Z/4)//Z/2 = B(Z/2)"


def criterion_09_central_fiber_products():
    """B(G) x_{B(G/H)} B(G) matches B(G) x B(H) for (Z/4, Z/2), (Q8, Z(Q8))."""
    cases = [
        (FinGroup.cyclic(4), [0, 2]),
        (FinGroup.quaternion(), ["1", "-1"]),
    ]
    for grp, sub_gens in cases:
        sub = grp.subgroup_closure(sub_gens)
        fun = quotient_functor(grp, sub)
        lhs = groupoid_fiber_product(fun, fun)
        sub_grp = FinGroup.from_table(
            sub, {(a, b): grp.mul(a, b) for a in sub for b in sub}, grp.identity
        )
        rhs = product_groupoid(bg(grp), bg(sub_grp))
        if len(lhs.iso_classes()) != len(rhs.iso_classes()):
            return False, "iso-class counts differ"
        if lhs.class_aut_orders() != rhs.class_aut_orders():
            return False, "per-class automorphism orders differ"
        if lhs.mass() != rhs.mass():
            return False, "masses differ"
    return True, "Z/4 and Q8 cases agree in classes, auts, mass"


def criterion_10_semidirect_desk_enumeration():
    """The S_3 model matches the independent frame oracle."""
    t0 = time.monotonic()
    spec = field(3)
    group = SemidirectGroup.make(3, 1, 2, [[-1]])
    frame = TameFrame(spec, 2, 1)
    classes = enumerate_g_torsors(group, frame, 4)
    for c in classes:
        if any(v != 0 for v in vn_check(group, frame, c.zphi)):
            return False, "enumerated class fails the twisted cocycle check"
    structured = (len(classes), sorted(c.aut_count for c in classes))
    brute = oracles.semidirect_bruteforce(group, frame, 4)
    elapsed = time.monotonic() - t0
    if structured != brute:
        return False, f"structured {structured} != brute force {brute}"
    if elapsed >= 300:
        return False, f"too slow: {elapsed:.0f}s"
    return True, f"{structured[0]} classes, aut multiset {structured[1]}, {elapsed:.0f}s"


def criterion_11_gcd_reduction():
    """(n, q_exp) = (4, 2) split-frame enumeration equals the reduced (2, 1).

    The left side is the split-frame oracle: torsors over the frame's two
    components, enumerated without the gcd reduction and without the
    Artin-Schreier path.  The right side is the census of the reduced
    system."""
    spec = field(3, 2)
    group4 = SemidirectGroup.make(3, 1, 4, [[-1]])
    lhs = oracles.double_frame_bruteforce(group4, spec, 2)
    n2, q2, group2 = reduce_to_coprime(group4, 2)
    if (n2, q2) != (2, 1):
        return False, f"reduce_to_coprime(4, 2) gave ({n2}, {q2})"
    classes = enumerate_g_torsors(group2, TameFrame(spec, n2, q2), 2)
    rhs = (len(classes), sorted(c.aut_count for c in classes))
    if lhs != rhs:
        return False, f"split frame {lhs} != reduced {rhs}"
    return True, f"both sides: {lhs[0]} classes, aut multiset {sorted(set(lhs[1]))}"


def criterion_12_indpoints_and_colimits():
    """Ind-point transition/equality laws on the level-<=3 lattices; colimit
    commutes with fiber products on 50 seeded random systems."""
    for spec in [field(2), field(2, 2)]:
        points = []
        for level in range(1, 4):
            slots = prime_to_p_support(spec.p, level)
            for values in itertools.product(range(spec.q), repeat=len(slots)):
                points.append(
                    IndPoint(spec, 1, level, tuple(spec.from_index(v) for v in values))
                )
        by_canonical: dict = {}
        for a in points:
            for M in range(a.level, a.level + 3):
                if not a.eq(a.transition(M)):
                    return False, "a != transition(a, M) in the colimit"
            c = a.canonical()
            key = (c.level, tuple(x.index for x in c.value))
            if not c.eq(a):
                return False, "canonical left the colimit class"
            c2 = c.canonical()
            if (c2.level, tuple(x.index for x in c2.value)) != key:
                return False, "canonical is not idempotent"
            by_canonical.setdefault(key, []).append(a)
        # distinct canonical representatives are pairwise inequivalent
        reps = [members[0] for members in by_canonical.values()]
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                if a.eq(b):
                    return False, "equivalent points with distinct canonicals"
    rng = random.Random(112)
    for trial in range(50):
        a, b = _random_system_pair(rng)
        if not colim_fiber_product_check(a, b):
            return False, f"colimit/fiber-product mismatch at trial {trial}"
    return True, "lattices over F_2 and F_4, 50 random systems"


def _random_system(rng, n_levels, y=None):
    """A random SetSystem; when y is given, the transitions are injective
    (Frobenius-style) so a commuting map to y can be pushed forward."""
    levels = []
    maps = []
    prev = None
    for i in range(n_levels):
        low = len(prev) if (y is not None and prev) else 1
        base = [f"x{i}_{k}" for k in range(max(low, rng.randrange(1, 7)))]
        levels.append(tuple(base))
        if prev is not None:
            if y is not None:
                images = rng.sample(base, len(prev))
                maps.append(dict(zip(prev, images)))
            else:
                maps.append({x: rng.choice(base) for x in prev})
        prev = base
    sys_ = SetSystem(tuple(levels), tuple(maps))
    if y is None:
        return sys_, None
    # commuting map: free at level 0, pushed along the injective transitions
    comps = [{x: rng.choice(y.levels[0]) for x in levels[0]}]
    for i in range(n_levels - 1):
        nxt = {}
        for x in levels[i]:
            nxt[maps[i][x]] = y.maps[i][comps[i][x]]
        for x in levels[i + 1]:
            if x not in nxt:
                nxt[x] = rng.choice(y.levels[i + 1])
        comps.append(nxt)
    return sys_, SystemMap(sys_, y, tuple(comps))


def _random_system_pair(rng):
    n_levels = rng.randrange(2, 5)
    y, _ = _random_system(rng, n_levels)
    _, a = _random_system(rng, n_levels, y)
    _, b = _random_system(rng, n_levels, y)
    return a, b


CRITERIA = [
    ("01 positive-part solver", criterion_01_positive_part_solver),
    ("02 coboundary invariance", criterion_02_coboundary_invariance),
    ("03 Frobenius class invariance", criterion_03_frobenius_invariance),
    ("04 AS class counts vs brute force", criterion_04_as_counts),
    ("05 Kummer counts vs brute force", criterion_05_kummer_counts),
    ("06 Kummer rigidity", criterion_06_kummer_rigidity),
    ("07 torsion-unit and idempotent constancy", criterion_07_constancy_scans),
    ("08 rigidification laws", criterion_08_rigidification_laws),
    ("09 central-subgroup 2-Cartesian check", criterion_09_central_fiber_products),
    ("10 semidirect desk enumeration", criterion_10_semidirect_desk_enumeration),
    ("11 gcd reduction", criterion_11_gcd_reduction),
    ("12 ind-point semantics and colimits", criterion_12_indpoints_and_colimits),
]


def run_all(out=None) -> bool:
    """Run every criterion, print one PASS/FAIL line each, return overall."""
    import sys

    out = out or sys.stdout
    all_ok = True
    for name, fn in CRITERIA:
        ok, detail = fn()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
    return all_ok
