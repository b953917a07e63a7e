"""The three workloads: fixed, seeded operation lists and their checkers.

Each workload builds a list of Op from the seed.  An Op's ``run`` makes
the ftk calls that are timed; its ``check`` compares the result with an
expectation computed by ``arith`` (the benchmark's own arithmetic) or with
a property the method must have, and raises CheckFailed on a wrong answer.
The structure of each list (fields, windows, break bounds, sizes) is fixed,
so every seed costs the same; the seed picks coefficients, witnesses,
argument spellings, group inputs and the order of the list.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import arith


class CheckFailed(Exception):
    """An output of ftk disagrees with the benchmark's expectation."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    fields: list  # (p, e) pairs whose ftk tables are built in set-up
    ops: list  # the fixed list, in run order
    warmup: list  # one untimed op of each kind
    processes: int  # worker processes per untraced run (set-up is timed in each)
    pass_s: float  # nominal seconds per pass, turning --seconds into traced passes


def _idx(field: arith.Field, elem) -> int:
    """An ftk field element's int code, read from its raw coordinates."""
    return field.from_digits(elem.coords)


def _own_series(field: arith.Field, s):
    """An ftk LaurentSeries as the benchmark's (val, prec, coeffs)."""
    if not s.coeffs:
        return (s.prec, s.prec, [])
    return (s.val, s.prec, [_idx(field, c) for c in s.coeffs])


# == classify ================================================================

# (p, e): three AS queries per field with break bounds about 5, 9, 13; the
# third query of each field pairs two non-isomorphic covers.
AS_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (2, 8)]
# (p, e, n, valuation of b, k with valuation of b' = valuation + n k, tail degree)
KUMMER_SPECS = [
    (5, 1, 4, -7, 1, 6),
    (7, 1, 3, -5, -1, 6),
    (3, 1, 2, -9, 1, 6),
    (2, 2, 3, -6, 1, 6),
    (2, 4, 5, -3, 1, 6),
    (2, 8, 5, -2, 1, 4),
]


def _coboundary(field: arith.Field, rng, exps) -> dict:
    """u^p - u for u = w + sum u_i t^i (i in exps), u_i, w in F_q, u_i != 0."""
    p, out = field.p, {}

    def put(k, c):
        out[k] = field.add(out.get(k, 0), c)

    for i in exps:
        u = rng.randrange(1, field.q)
        put(p * i, field.pow(u, p))
        put(i, field.neg(u))
    w = rng.randrange(field.q)
    put(0, field.sub(field.pow(w, p), w))
    return out


def _plus(field: arith.Field, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = field.add(out.get(k, 0), c)
    return {k: c for k, c in out.items() if c}


def as_query(ftk, field: arith.Field, rng, bound: int, variant: int, iso: bool) -> Op:
    """Parse two covers, canonicalise the first, find an isomorphism witness.

    b = canonical form + coboundary, so its canonical form is known; b' is
    another coboundary away from the same form, or from a form differing in
    constant class when ``iso`` is false.
    """
    p, q = field.p, field.q
    while bound % p == 0:
        bound -= 1
    slots = arith.prime_to_p_slots(p, bound)
    support = {s: rng.randrange(1, q) for s in slots}
    tau = rng.randrange(p)
    const = field.trace_rep(tau)
    canon = {-s: c for s, c in support.items()}
    canon[0] = const
    exps = list(range(-(variant + 1), 0)) + list(range(1, variant + 3))
    b = _plus(field, canon, _coboundary(field, rng, exps))
    other = dict(canon)
    if not iso:
        other[0] = field.trace_rep((tau + 1) % p)
    b2 = _plus(field, other, _coboundary(field, rng, exps))
    text, text2 = arith.render_series(field, b), arith.render_series(field, b2)
    spec = ftk.field(p, field.e)
    prec, prec2 = arith.default_prec(b), arith.default_prec(b2)

    def run():
        c = ftk.parse_series(text, spec)
        d = ftk.parse_series(text2, spec)
        return ftk.as_canonicalize(c), ftk.as_iso_witness(c, d)

    def check(result):
        got, witness = result
        got_support = {s: _idx(field, c) for s, c in got.support}
        require(got_support == support, f"AS support {got_support} != {support} for {text!r}")
        got_const = _idx(field, got.constant_class)
        require(got_const == const, f"AS constant class {got_const} != {const} for {text!r}")
        if not iso:
            require(witness is None, f"witness returned for non-isomorphic {text!r}, {text2!r}")
            return
        require(witness is not None, f"no witness for isomorphic {text!r}, {text2!r}")
        check_as_witness(field, _own_series(field, witness.u), b, prec, b2, prec2)

    return Op(f"as F_{q} B={bound}{'' if iso else ' non-iso'}", run, check)


def check_as_witness(field, u, b: dict, prec: int, b2: dict, prec2: int):
    """u^p - u + b = b' to the inputs' common precision."""
    top = min(prec, prec2)
    require(u[1] >= top, f"AS witness known mod t^{u[1]}, inputs mod t^{top}")
    lhs = arith.s_add(field, arith.s_wp(field, u), arith.series(field, b, prec))
    rhs = arith.series(field, b2, prec2)
    bad = arith.first_mismatch(lhs, rhs, min(lhs[0], rhs[0]), top)
    require(bad is None, f"u^p - u + b != b' at t^{bad}")


def kummer_query(ftk, field: arith.Field, rng, n: int, val: int, k: int, degree: int) -> Op:
    """Parse b = lam t^i (1 + t f) and b' = lam' t^(i + n k) (1 + t f') in
    the same class; canonicalise b and find u with u^n b = b'.

    The class is (i mod n, dlog lam mod d), d = gcd(n, q - 1).  The seed
    picks lam and lam'; the tails f, f' are fixed per list position, because
    the 1-units they make are what Newton iteration works on, and their
    sparsity sets its cost.
    """
    q = field.q
    d = math.gcd(n, q - 1)
    tails = random.Random(f"kummer-tail/{field.q}/{n}/{val}/{k}/{degree}")

    def cover(lam, i):
        out = {i: lam}
        for j in range(degree):
            out[i + 1 + j] = field.mul(lam, tails.randrange(1, q))
        return out

    lam = rng.randrange(1, q)
    lam2 = field.mul(lam, field.pow(field.gen, d * rng.randrange(q)))
    b, b2 = cover(lam, val), cover(lam2, val + n * k)
    text, text2 = arith.render_series(field, b), arith.render_series(field, b2)
    expected = (val % n, field.dlog(lam) % d)
    spec = ftk.field(field.p, field.e)
    prec, prec2 = arith.default_prec(b), arith.default_prec(b2)

    def run():
        c = ftk.parse_series(text, spec)
        c2 = ftk.parse_series(text2, spec)
        return ftk.kummer_canonicalize(c, n), ftk.kummer_iso_witness(c, c2, n)

    def check(result):
        cls, u = result
        got = (cls.q_exp, cls.unit_class)
        require(got == expected, f"Kummer class {got} != {expected} for {text!r}")
        require(u is not None, f"no Kummer witness for {text!r}, {text2!r}")
        check_kummer_witness(field, n, _own_series(field, u), b, prec, b2, prec2)

    return Op(f"kummer F_{q} n={n} i={val}", run, check)


def check_kummer_witness(field, n: int, u, b: dict, prec: int, b2: dict, prec2: int):
    """u^n b = b' to the relative precision both inputs carry."""
    v, v2 = min(b), min(b2)
    rel = min(prec - v, prec2 - v2)
    require(u[1] - arith.valuation(u) >= rel, f"Kummer witness carries under {rel} terms")
    lhs = arith.s_mul(field, arith.s_pow(field, u, n), arith.series(field, b, prec))
    rhs = arith.series(field, b2, prec2)
    top = v2 + rel
    require(lhs[1] >= top, f"u^n b known mod t^{lhs[1]}, need t^{top}")
    bad = arith.first_mismatch(lhs, rhs, min(lhs[0], v2), top)
    require(bad is None, f"u^n b != b' at t^{bad}")


def classify(ftk, seed: int) -> Workload:
    rng = random.Random(f"classify/{seed}")
    fields = {pe: arith.Field(*pe) for pe in AS_FIELDS + [s[:2] for s in KUMMER_SPECS]}
    ops = []
    for pe in AS_FIELDS:
        for variant, bound in enumerate((5, 9, 13)):
            ops.append(as_query(ftk, fields[pe], rng, bound, variant, iso=variant < 2))
    for p, e, n, val, k, degree in KUMMER_SPECS:
        ops.append(kummer_query(ftk, fields[(p, e)], rng, n, val, k, degree))
    rng.shuffle(ops)
    warm = random.Random(f"classify-warmup/{seed}")
    warmup = [
        as_query(ftk, fields[(2, 1)], warm, 5, 0, iso=True),
        kummer_query(ftk, fields[(5, 1)], warm, 2, 3, 1, 6),
    ]
    return Workload(sorted(fields), ops, warmup, processes=4, pass_s=1.5)


# == census ==================================================================

# (label, p, e, r, n, psi spellings, q_exp, break bounds).  The largest
# bound of the first four groups is the census a user would ask for; the
# small censuses make the operation count and put the median on a
# semidirect enumeration.
SEMIDIRECT_CENSUS = [
    ("S3/F3", 3, 1, 1, 2, ["[-1]", "[2]", "[[2]]"], 1, (0, 1, 2, 3, 7)),
    ("S3/F9", 3, 2, 1, 2, ["[-1]", "[2]", "[[-1]]"], 1, (0, 1, 3)),
    ("Z5xC4/F5", 5, 1, 1, 4, ["[2]", "[-3]", "[[2]]"], 1, (0, 1, 3)),
    ("A4/F4", 2, 2, 2, 3, ["[[0,1],[1,1]]", "[[0, 1], [1, 1]]", "[[0,-1],[1,1]]"], 1, (0, 2)),
    ("Z5xC2/F5", 5, 1, 1, 2, ["[-1]", "[4]", "[[4]]"], 1, (0, 1)),
    ("Z3xC4/F9", 3, 2, 1, 4, ["[-1]", "[2]", "[[2]]"], 1, (0, 1)),
    ("Z5xC4/F5 q_exp=3", 5, 1, 1, 4, ["[2]", "[-3]", "[[2]]"], 3, (1,)),
    ("Z7xC3/F7", 7, 1, 1, 3, ["[2]", "[-5]", "[[2]]"], 1, (0, 1)),
]
COUNT_AS_CENSUS = [(2, 1, 8), (2, 1, 16), (2, 2, 4), (2, 2, 8)]
COUNT_KUMMER_CENSUS = [(2, 8, 255)]


def _field_args(rng, p: int, e: int):
    if e == 1:
        return rng.choice([["--p", str(p)], ["--p", str(p), "--e", "1"]])
    return rng.choice([["--p", str(p), "--e", str(e)], ["--p", str(p), "--q", str(p**e)]])


def _cli(ftk, argv):
    """ftk.cli.main in this process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ftk.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ok(result, argv):
    code, out, err = result
    require(code == 0, f"{' '.join(argv)} exited {code}: {err.strip()}")
    return out


def _as_class(field: arith.Field, data: dict, bound: int):
    """(support dict, constant) of an AS class record, validated."""
    require((data["p"], data["q"]) == (field.p, field.q), f"class over the wrong field: {data}")
    support = {int(s): field.parse(c) for s, c in data["support"].items()}
    for s, c in support.items():
        require(1 <= s <= bound and s % field.p and c, f"bad support entry {s}: {c} in {data}")
    const = field.parse(data["constant_class"])
    require(const == field.trace_rep(field.trace(const)), f"constant {const} is no transversal rep")
    return support, const


def semidirect_op(ftk, rng, label, p, e, r, n, psis, q_exp, bound) -> Op:
    field = arith.Field(p, e)
    psi = json.loads(psis[0])
    expect = arith.SemidirectExpectation(field, r, n, psi if r > 1 else [psi], q_exp)
    bound_flag = rng.choice(["--max-break", "--break-bound"])
    argv = (
        ["semidirect-enum"] + _field_args(rng, p, e)
        + ["--r", str(r), "--n", str(n), "--psi", rng.choice(psis), "--q-exp", str(q_exp)]
        + [bound_flag, str(bound)]
    )

    def check(result):
        data = json.loads(_cli_ok(result, argv))
        count = expect.count(bound)
        require(data["count"] == count == len(data["classes"]), f"{label} m={bound}: {data['count']} classes, expected {count}")
        seen = set()
        for row in data["classes"]:
            require(row["aut_order"] == expect.aut, f"{label}: aut {row['aut_order']} != {expect.aut}")
            comps = [_as_class(field, c, bound) for c in row["class"]["b"]]
            slots = sorted({s for sup, _ in comps for s in sup})
            require(row["break"] == max(slots, default=0), f"{label}: break {row['break']} != {slots}")
            for s in slots:
                vec = [sup.get(s, 0) for sup, _ in comps]
                require(expect.is_fixed_vector(s, vec), f"{label}: slot {s} vector {vec} is not phi-fixed")
            taus = [field.trace(c) for _, c in comps]
            fixed = [sum(expect.psi[i][j] * taus[j] for j in range(r)) % p for i in range(r)]
            require(fixed == taus, f"{label}: constant classes {taus} are not psi-fixed")
            key = tuple((tuple(sorted(sup.items())), c) for sup, c in comps)
            require(key not in seen, f"{label}: class {key} listed twice")
            seen.add(key)

    return Op(f"{label} m={bound}", lambda: _cli(ftk, argv), check)


def _csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == ["break", "aut_order", "multiplicity", "class"], "bad CSV header")
    return [(int(b), int(a), int(m), json.loads(c)) for b, a, m, c in rows[1:]]


def count_as_op(ftk, rng, p, e, bound) -> Op:
    field = arith.Field(p, e)
    argv = ["count-as"] + _field_args(rng, p, e) + ["--max-break", str(bound), "--format", "csv"]
    count = arith.as_class_count(field, bound)

    def check(result):
        rows = _csv_rows(_cli_ok(result, argv))
        require(len(rows) == count, f"count-as F_{field.q} m={bound}: {len(rows)} rows, expected {count}")
        seen, last = set(), 0
        for brk, aut, mult, cls in rows:
            support, const = _as_class(field, cls, bound)
            require(brk == max(support, default=0) and brk >= last, f"count-as: bad break {brk} for {cls}")
            require((aut, mult) == (p, 1), f"count-as: aut/multiplicity {aut}/{mult}")
            key = (tuple(sorted(support.items())), const)
            require(key not in seen, f"count-as: class {cls} listed twice")
            seen.add(key)
            last = brk

    return Op(f"count-as F_{field.q} m={bound}", lambda: _cli(ftk, argv), check)


def count_kummer_op(ftk, rng, p, e, n) -> Op:
    field = arith.Field(p, e)
    argv = ["count-kummer"] + _field_args(rng, p, e) + ["--n", str(n), "--format", "csv"]
    d = math.gcd(n, field.q - 1)

    def check(result):
        rows = _csv_rows(_cli_ok(result, argv))
        count = arith.kummer_class_count(field, n)
        require(len(rows) == count, f"count-kummer: {len(rows)} rows, expected {count}")
        seen = set()
        for brk, aut, mult, cls in rows:
            key = (cls["q_exp"], cls["unit_class"])
            require(cls["n"] == n and 0 <= key[0] < n and 0 <= key[1] < d, f"count-kummer: bad class {cls}")
            require((brk, aut, mult) == (0, d, 1), f"count-kummer: row {brk},{aut},{mult}")
            require(key not in seen, f"count-kummer: class {cls} listed twice")
            seen.add(key)

    return Op(f"count-kummer F_{field.q} n={n}", lambda: _cli(ftk, argv), check)


def census(ftk, seed: int) -> Workload:
    rng = random.Random(f"census/{seed}")
    ops = []
    for label, p, e, r, n, psis, q_exp, bounds in SEMIDIRECT_CENSUS:
        ops += [semidirect_op(ftk, rng, label, p, e, r, n, psis, q_exp, m) for m in bounds]
    ops += [count_as_op(ftk, rng, p, e, m) for p, e, m in COUNT_AS_CENSUS]
    ops += [count_kummer_op(ftk, rng, p, e, n) for p, e, n in COUNT_KUMMER_CENSUS]
    rng.shuffle(ops)
    warmup = [
        semidirect_op(ftk, rng, *SEMIDIRECT_CENSUS[0][:7], 1),
        count_as_op(ftk, rng, 2, 1, 4),
        count_kummer_op(ftk, rng, 2, 2, 3),
    ]
    fields = sorted({(s[1], s[2]) for s in SEMIDIRECT_CENSUS} | {s[:2] for s in COUNT_AS_CENSUS + COUNT_KUMMER_CENSUS})
    return Workload(fields, ops, warmup, processes=4, pass_s=7.5)


# == verify ==================================================================

VERIFY_AS = [(2, 1, 1), (2, 1, 3), (3, 1, 1), (3, 1, 2), (2, 2, 1)]
VERIFY_KUMMER = [(5, 1, 4), (7, 1, 3), (2, 2, 3), (3, 1, 2), (5, 1, 2)]
# (label, p, e, r, n, psi, q_exp, break bound): the oracle's cost grows
# fast with the bound; these run in under a second each.
VERIFY_SEMIDIRECT = [
    ("S3/F3", 3, 1, 1, 2, [[-1]], 1, 1),
    ("S3/F3", 3, 1, 1, 2, [[-1]], 1, 2),
    ("Z5xC4/F5", 5, 1, 1, 4, [[2]], 1, 1),
    ("A4/F4", 2, 2, 2, 3, [[0, 1], [1, 1]], 1, 0),
]
# the split frame X^4 = t^2 over F_9 for Z/3 x| C_4, psi = -1
VERIFY_SPLIT_FRAME = [(3, 2, [[-1]], 1)]


def as_oracle_op(ftk, p, e, m) -> Op:
    field = arith.Field(p, e)
    count = arith.as_class_count(field, m)

    def check(got):
        require(got == count, f"AS oracle F_{field.q} m={m}: {got} != {count}")

    return Op(f"as-oracle F_{field.q} m={m}",
              lambda: ftk.oracles.as_bruteforce_class_count(ftk.field(p, e), m), check)


def kummer_oracle_op(ftk, p, e, n) -> Op:
    field = arith.Field(p, e)
    count = arith.kummer_class_count(field, n)

    def check(got):
        require(got == count, f"Kummer oracle F_{field.q} n={n}: {got} != {count}")

    return Op(f"kummer-oracle F_{field.q} n={n}",
              lambda: ftk.oracles.kummer_bruteforce_class_count(ftk.field(p, e), n), check)


def semidirect_oracle_op(ftk, label, p, e, r, n, psi, q_exp, m) -> Op:
    expect = arith.SemidirectExpectation(arith.Field(p, e), r, n, psi, q_exp)
    want = (expect.count(m), [expect.aut] * expect.count(m))

    def run():
        group = ftk.SemidirectGroup.make(p, r, n, psi)
        return ftk.oracles.semidirect_bruteforce(group, ftk.TameFrame(ftk.field(p, e), n, q_exp), m)

    def check(got):
        require(tuple(got) == tuple(want), f"semidirect oracle {label} m={m}: {got} != {want}")

    return Op(f"semidirect-oracle {label} m={m}", run, check)


def split_frame_op(ftk, p, e, psi, m) -> Op:
    """Criterion 11's oracle for n = 4, q_exp = 2; the expectation is the
    count of the reduced (n, q_exp) = (2, 1) system."""
    expect = arith.SemidirectExpectation(arith.Field(p, e), len(psi), 4, psi, 2)
    want = (expect.count(m), [expect.aut] * expect.count(m))

    def run():
        group = ftk.SemidirectGroup.make(p, len(psi), 4, psi)
        return ftk.oracles.double_frame_bruteforce(group, ftk.field(p, e), m)

    def check(got):
        require(tuple(got) == tuple(want), f"split-frame oracle F_{p**e} m={m}: {got} != {want}")

    return Op(f"split-frame-oracle F_{p**e} m={m}", run, check)


def _random_system_map(ftk, rng, levels_y, maps_y):
    """A direct system with injective transitions and a commuting map to Y."""
    g = ftk.groupoids
    levels, maps, prev = [], [], None
    for i in range(len(levels_y)):
        size = max(len(prev) if prev else 1, rng.randrange(1, 7))
        base = [f"x{i}_{k}" for k in range(size)]
        levels.append(tuple(base))
        if prev is not None:
            maps.append(dict(zip(prev, rng.sample(base, len(prev)))))
        prev = base
    comps = [{x: rng.choice(levels_y[0]) for x in levels[0]}]
    for i in range(len(levels) - 1):
        nxt = {maps[i][x]: maps_y[i][comps[i][x]] for x in levels[i]}
        for x in levels[i + 1]:
            nxt.setdefault(x, rng.choice(levels_y[i + 1]))
        comps.append(nxt)
    y = g.SetSystem(tuple(levels_y), tuple(maps_y))
    return g.SystemMap(g.SetSystem(tuple(levels), tuple(maps)), y, tuple(comps))


def colim_op(ftk, rng, trials: int) -> Op:
    """Colimits of direct systems commute with fiber products: every check
    must hold."""
    pairs = []
    for _ in range(trials):
        n_levels = rng.randrange(2, 5)
        levels_y = [tuple(f"y{i}_{k}" for k in range(rng.randrange(1, 7))) for i in range(n_levels)]
        maps_y = [{y: rng.choice(levels_y[i + 1]) for y in levels_y[i]} for i in range(n_levels - 1)]
        pairs.append(tuple(_random_system_map(ftk, rng, levels_y, maps_y) for _ in range(2)))

    def run():
        return [ftk.colim_fiber_product_check(a, b) for a, b in pairs]

    def check(got):
        require(all(got) and len(got) == trials, f"colimit/fiber-product check failed: {got}")

    return Op(f"colim x{trials}", run, check)


def _abelian_group(ftk, orders):
    """Z/o1 x Z/o2 x ... as an ftk FinGroup, with its order."""
    group = ftk.FinGroup.cyclic(orders[0])
    for o in orders[1:]:
        group = ftk.FinGroup.direct_product(group, ftk.FinGroup.cyclic(o))
    return group, math.prod(orders)


def rigidify_op(ftk, rng, shapes) -> Op:
    """mass(BG) = 1/|G|; rigidify(BG, G) is a point; for a cyclic subgroup
    H (central, G abelian) rigidify(BG, H) has mass |H|/|G|."""
    cases = []
    for orders in shapes:
        group, order = _abelian_group(ftk, list(orders))
        gen = rng.choice(group.elements)
        sub, x = {group.identity}, gen
        while x != group.identity:
            sub.add(x)
            x = group.mul(x, gen)
        cases.append((group, order, frozenset(sub)))

    def run():
        out = []
        for group, _, sub in cases:
            b = ftk.bg(group)
            point = ftk.rigidify(b, ftk.CentralAutSubgroup({"*": frozenset(group.elements)}))
            part = ftk.rigidify(b, ftk.CentralAutSubgroup({"*": sub}))
            out.append((ftk.groupoid_mass(b), len(point.objects), point.arrow_count(),
                        ftk.groupoid_mass(point), ftk.groupoid_mass(part)))
        return out

    def check(got):
        for (mass, n_obj, n_arrows, point_mass, part_mass), (_, order, sub) in zip(got, cases):
            require(mass == Fraction(1, order), f"mass(BG) = {mass}, |G| = {order}")
            require((n_obj, n_arrows, point_mass) == (1, 1, 1), "rigidify(BG, G) is not a point")
            require(part_mass == Fraction(len(sub), order), f"rigidify(BG, H) mass {part_mass}")

    return Op(f"rigidify {'/'.join('x'.join(map(str, s)) for s in shapes)}", run, check)


def verify(ftk, seed: int) -> Workload:
    rng = random.Random(f"verify/{seed}")
    ops = [as_oracle_op(ftk, *c) for c in VERIFY_AS]
    ops += [kummer_oracle_op(ftk, *c) for c in VERIFY_KUMMER]
    ops += [semidirect_oracle_op(ftk, *c) for c in VERIFY_SEMIDIRECT]
    ops += [split_frame_op(ftk, *c) for c in VERIFY_SPLIT_FRAME]
    ops += [colim_op(ftk, rng, 25) for _ in range(2)]
    shapes = [(2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6)]
    ops += [rigidify_op(ftk, rng, rng.sample(shapes, 4)) for _ in range(2)]
    rng.shuffle(ops)
    warmup = [
        as_oracle_op(ftk, 2, 1, 1),
        kummer_oracle_op(ftk, 3, 1, 2),
        semidirect_oracle_op(ftk, "S3/F3", 3, 1, 1, 2, [[-1]], 1, 0),
        split_frame_op(ftk, 3, 2, [[-1]], 0),
        colim_op(ftk, rng, 2),
        rigidify_op(ftk, rng, [(2,)]),
    ]
    fields = sorted({c[:2] for c in VERIFY_AS + VERIFY_KUMMER} | {c[1:3] for c in VERIFY_SEMIDIRECT} | {c[:2] for c in VERIFY_SPLIT_FRAME})
    return Workload(fields, ops, warmup, processes=3, pass_s=2.7)


WORKLOADS = {"classify": classify, "census": census, "verify": verify}
