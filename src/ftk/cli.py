"""Command-line surface.

Verbs: as-canon, as-iso, kummer-canon, kummer-iso, count-as, count-kummer,
semidirect-enum, mass, rigidify, check-colim, selftest.

Exit codes: 0 success, 1 parse error, 2 domain violation, 3 brute-force
oracle mismatch.  JSON output has sorted keys.  The census verbs (count-as,
count-kummer, semidirect-enum) also take --format csv; CSV census columns
are break, aut_order, multiplicity, class (in that order), rows sorted by
(break, class id).  All output is newline-terminated UTF-8.  Each verb
accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from . import oracles
from .acceptance import run_all
from .artin_schreier import as_canonicalize, as_iso_witness, enumerate_as_classes
from .errors import DomainError, FtkError, OracleMismatch, ParseError
from .fields import field
from .groupoids import CentralAutSubgroup, FiniteGroupoid, groupoid_mass, rigidify
from .kummer import enumerate_kummer_classes, kummer_canonicalize, kummer_iso_witness
from .parse import parse_series, render_series
from .semidirect import SemidirectGroup, TameFrame, enumerate_g_torsors, reduce_to_coprime


def _field_from_args(args):
    p = args.p
    e = args.e
    if getattr(args, "q", None) is not None:
        q = args.q
        if p is None:
            raise DomainError("--q requires --p")
        ee = 0
        qq = q
        while qq % p == 0 and qq > 1:
            qq //= p
            ee += 1
        if qq != 1 or ee < 1:
            raise DomainError(f"--q {q} is not a power of --p {p}")
        if e is not None and e != ee:
            raise DomainError("--e and --q disagree")
        e = ee
    if p is None:
        raise DomainError("--p is required")
    return field(p, e or 1)


def _emit(payload, fmt: str = "json", census=None):
    if fmt == "csv" and census is not None:
        print("break,aut_order,multiplicity,class")
        for row in census:
            cls = json.dumps(row["class"], sort_keys=True).replace('"', '""')
            print(f"{row['break']},{row['aut_order']},{row['multiplicity']},\"{cls}\"")
    else:
        print(json.dumps(payload, sort_keys=True))


def _as_census(spec, classes):
    rows = [
        {
            "class": c.to_json(),
            "break": c.break_ or 0,
            "aut_order": spec.p,
            "multiplicity": 1,
        }
        for c in classes
    ]
    rows.sort(key=lambda r: (r["break"], json.dumps(r["class"], sort_keys=True)))
    return rows


def _kummer_census(spec, n, classes):
    aut = math.gcd(n, spec.q - 1)
    rows = [
        {"class": c.to_json(), "break": 0, "aut_order": aut, "multiplicity": 1}
        for c in classes
    ]
    rows.sort(key=lambda r: (r["break"], json.dumps(r["class"], sort_keys=True)))
    return rows


def _load_groupoid(path: str) -> FiniteGroupoid:
    with open(path, encoding="utf-8") as fh:
        return FiniteGroupoid.from_json(json.load(fh))


def _cmd_as_canon(args):
    spec = _field_from_args(args)
    b = parse_series(args.series, spec, args.prec)
    _emit(as_canonicalize(b).to_json())
    return 0


def _cmd_as_iso(args):
    spec = _field_from_args(args)
    prec = args.prec
    c = parse_series(args.series, spec, prec)
    d = parse_series(args.series2, spec, prec)
    cap = min(c.prec, d.prec)
    w = as_iso_witness(c.truncate(cap), d.truncate(cap))
    payload = {
        "isomorphic": w is not None,
        "witness": None if w is None else render_series(w.u),
    }
    _emit(payload)
    return 0


def _cmd_kummer_canon(args):
    spec = _field_from_args(args)
    b = parse_series(args.series, spec, args.prec)
    _emit(kummer_canonicalize(b, args.n).to_json())
    return 0


def _cmd_kummer_iso(args):
    spec = _field_from_args(args)
    b = parse_series(args.series, spec, args.prec)
    d = parse_series(args.series2, spec, args.prec)
    cap = min(b.prec, d.prec)
    u = kummer_iso_witness(b.truncate(cap), d.truncate(cap), args.n)
    payload = {
        "isomorphic": u is not None,
        "witness": None if u is None else render_series(u),
    }
    _emit(payload)
    return 0


def _cmd_count_as(args):
    spec = _field_from_args(args)
    m = args.max_break
    classes = enumerate_as_classes(spec, m)
    payload = {
        "p": spec.p,
        "q": spec.q,
        "max_break": m,
        "count": len(classes),
        "brute_force": None,
    }
    if args.brute_force:
        brute = oracles.as_bruteforce_class_count(spec, m)
        payload["brute_force"] = brute
        if brute != len(classes):
            _emit(payload)
            raise OracleMismatch(f"structured {len(classes)} != oracle {brute}")
    _emit(payload, args.format, census=_as_census(spec, classes))
    return 0


def _cmd_count_kummer(args):
    spec = _field_from_args(args)
    n = args.n
    classes = enumerate_kummer_classes(spec, n)
    payload = {
        "q": spec.q,
        "n": n,
        "count": len(classes),
        "brute_force": None,
    }
    if args.brute_force:
        brute = oracles.kummer_bruteforce_class_count(spec, n)
        payload["brute_force"] = brute
        if brute != len(classes):
            _emit(payload)
            raise OracleMismatch(f"structured {len(classes)} != oracle {brute}")
    _emit(payload, args.format, census=_kummer_census(spec, n, classes))
    return 0


def _parse_psi(text: str, r: int):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--psi is not valid JSON: {exc}", exc.pos)
    if r >= 1 and data and not isinstance(data[0], list):
        data = [data] if r == 1 else data
    return data


def _cmd_semidirect_enum(args):
    spec = _field_from_args(args)
    psi = _parse_psi(args.psi, args.r) if args.r else []
    group = SemidirectGroup.make(args.p, args.r, args.n, psi)
    n2, q2, group2 = reduce_to_coprime(group, args.q_exp)
    frame = TameFrame(spec, n2, q2)
    bound = args.max_break
    classes = enumerate_g_torsors(group2, frame, bound, args.prec)
    rows = [
        {
            "class": c.class_id(),
            "break": c.break_,
            "aut_order": c.aut_count,
            "multiplicity": 1,
        }
        for c in classes
    ]
    rows.sort(key=lambda r: (r["break"], json.dumps(r["class"], sort_keys=True)))
    payload = {
        "group": group.to_json(),
        "q_exp": args.q_exp,
        "reduced": {"n": n2, "q_exp": q2},
        "max_break": bound,
        "count": len(classes),
        "classes": rows,
        "brute_force": None,
    }
    if args.brute_force:
        count, auts = oracles.semidirect_bruteforce(group2, frame, bound)
        payload["brute_force"] = {"count": count, "aut_orders": auts}
        if (count, auts) != (len(classes), sorted(c.aut_count for c in classes)):
            _emit(payload)
            raise OracleMismatch("semidirect enumeration disagrees with oracle")
    _emit(payload, args.format, census=rows)
    return 0


def _cmd_mass(args):
    g = _load_groupoid(args.groupoid)
    _emit({"mass": str(groupoid_mass(g))})
    return 0


def _cmd_rigidify(args):
    g = _load_groupoid(args.groupoid)
    with open(args.subgroup, encoding="utf-8") as fh:
        sub_data = json.load(fh)
    sub = CentralAutSubgroup({x: frozenset(v) for x, v in sub_data.items()})
    _emit(rigidify(g, sub).to_json())
    return 0


def _cmd_check_colim(args):
    from .acceptance import _random_system_pair
    from .groupoids import colim_fiber_product_check

    rng = random.Random(args.seed)
    results = []
    for _ in range(args.trials):
        a, b = _random_system_pair(rng)
        results.append(colim_fiber_product_check(a, b))
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "passed": sum(results),
        "all_passed": all(results),
    }
    _emit(payload)
    return 0 if all(results) else 2


def _cmd_selftest(args):
    if args.format == "json":
        import io

        buf = io.StringIO()
        ok = run_all(out=buf)
        lines = buf.getvalue().strip().splitlines()
        _emit({"passed": ok, "criteria": lines})
    else:
        ok = run_all()
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ftk",
        description="Classify and enumerate Galois covers of the formal punctured disk",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(sp, series=0, tame=False, group=False, prec=True, census=False):
        sp.add_argument("--p", type=int, help="characteristic")
        sp.add_argument("--e", type=int, help="extension degree (default 1)")
        sp.add_argument("--q", type=int, help="field size p^e (alternative to --e)")
        if prec:
            sp.add_argument("--prec", type=int, help="precision window override")
        if census:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if series >= 1:
            sp.add_argument("--series", required=True, help="series literal")
        if series >= 2:
            sp.add_argument("--series2", required=True, help="second series literal")
        if tame:
            sp.add_argument("--n", type=int, required=True, help="tame order")
        if group:
            sp.add_argument("--r", type=int, required=True, help="rank of H")
            sp.add_argument("--n", type=int, required=True, help="order of C_n")
            sp.add_argument("--psi", required=True, help="action matrix, JSON")
            sp.add_argument("--q-exp", dest="q_exp", type=int, required=True)

    sp = sub.add_parser("as-canon", help="canonical form of X^p - X = b")
    common(sp, series=1)
    sp.set_defaults(fn=_cmd_as_canon)

    sp = sub.add_parser("as-iso", help="isomorphism witness between two covers")
    common(sp, series=2)
    sp.set_defaults(fn=_cmd_as_iso)

    sp = sub.add_parser("kummer-canon", help="canonical class of Y^n = b")
    common(sp, series=1, tame=True)
    sp.set_defaults(fn=_cmd_kummer_canon)

    sp = sub.add_parser("kummer-iso", help="witness u with u^n b = b'")
    common(sp, series=2, tame=True)
    sp.set_defaults(fn=_cmd_kummer_iso)

    sp = sub.add_parser("count-as", help="census of Z/pZ-cover classes")
    common(sp, prec=False, census=True)
    sp.add_argument("--max-break", type=int, required=True)
    sp.add_argument("--brute-force", action="store_true")
    sp.set_defaults(fn=_cmd_count_as)

    sp = sub.add_parser("count-kummer", help="census of mu_n-cover classes")
    common(sp, tame=True, prec=False, census=True)
    sp.add_argument("--brute-force", action="store_true")
    sp.set_defaults(fn=_cmd_count_kummer)

    sp = sub.add_parser("semidirect-enum", help="enumerate H x| C_n torsor classes")
    common(sp, group=True, census=True)
    sp.add_argument("--max-break", "--break-bound", dest="max_break", type=int, required=True)
    sp.add_argument("--brute-force", action="store_true")
    sp.set_defaults(fn=_cmd_semidirect_enum)

    sp = sub.add_parser("mass", help="groupoid cardinality of a groupoid JSON file")
    sp.add_argument("--groupoid", required=True)
    sp.set_defaults(fn=_cmd_mass)

    sp = sub.add_parser("rigidify", help="quotient hom-sets by a central subgroup")
    sp.add_argument("--groupoid", required=True)
    sp.add_argument("--subgroup", required=True)
    sp.set_defaults(fn=_cmd_rigidify)

    sp = sub.add_parser("check-colim", help="colimit/fiber-product commutation harness")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=50)
    sp.set_defaults(fn=_cmd_check_colim)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_selftest)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses for every call in this process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except FtkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
