"""Command-line surface.

Verbs: as-canon, as-iso, kummer-canon, kummer-iso, count-as, count-kummer,
semidirect-enum, mass, rigidify, check-colim, selftest.

Exit codes: 0 success, 1 parse error, 2 domain violation, 3 brute-force
oracle mismatch, 141 the reader closed the output pipe.  JSON output has
sorted keys.  The census verbs (count-as, count-kummer, semidirect-enum)
also take --format csv; CSV census columns are break, aut_order,
multiplicity, class (in that order), rows sorted by (break, class JSON
text).  All output is newline-terminated UTF-8.  Each verb
accepts only the flags it reads.  With --brute-force a census verb runs the
oracle before it enumerates, so a size the oracle refuses costs no census.
The JSON forms of count-as and count-kummer print the closed-form count
and enumerate nothing (unless --brute-force asks for the check).  All
three census CSVs stream their rows in class-text order and hold none of
them: count-kummer from the (q_exp, unit_class) grid, one write per q_exp
head, count-as and semidirect-enum from one generator,
``artin_schreier.census_rows``, that writes each class text from per-slot
pieces (count-as is its census with the trivial twist).  semidirect-enum
builds only the classes it prints, generated from the per-slot kernels of
the twist, and prints each with witness 0 after one exact check that the
twist fixes its cover vector on the polar window; its JSON splices the
same texts into the payload.
Every census covers at most errors.MAX_CENSUS classes, counted in closed
form before any is built (for semidirect-enum, from the same slot
kernels): the library refuses a larger one, and the verb exits 2 before
it starts.  A reader that closes the pipe
early ends the verb quietly with exit 141, as a shell reports for
coreutils killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys

from . import oracles
from .acceptance import run_all
from .artin_schreier import as_canonicalize, as_census, as_class_count, as_iso_witness
from .errors import DomainError, FtkError, OracleMismatch, ParseError
from .fields import field
from .groupoids import CentralAutSubgroup, FiniteGroupoid, groupoid_mass, rigidify
from .kummer import kummer_canonicalize, kummer_class_count, kummer_class_grid, kummer_iso_witness
from .parse import parse_series
from .semidirect import SemidirectGroup, TameFrame, g_torsor_census, reduce_to_coprime

CSV_HEADER = "break,aut_order,multiplicity,class\n"
# CSV census rows per write of _emit_csv: 4096 rows of count-as F_2 m = 30
# are about 750 kB
CSV_BLOCK = 4096
# glibc's mallopt parameter number for the mmap threshold, and its default
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024
# the most trials check-colim runs: 10000 took 2.8 s on a 2-core host with
# CPython 3.11, about 0.3 ms a trial
MAX_TRIALS = 10**4
# the exit code of a verb whose reader closed the pipe: 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141


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
    return field(p, 1 if e is None else e)


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _emit_census_json(payload, rows):
    """The payload as _emit prints it, with "classes" listing the rows'
    (break, aut_order, class JSON text) in row order.  The texts are
    spliced in, not parsed: json.dumps writes a list of dicts as "[" then
    each dict's sorted items "key": value joined by ", ", then "]"."""
    classes = ", ".join(
        f'{{"aut_order": {aut}, "break": {brk}, "class": {text}, "multiplicity": 1}}' for brk, aut, text, *_ in rows
    )
    head, tail = json.dumps({**payload, "classes": []}, sort_keys=True).split('"classes": []')
    print(f'{head}"classes": [{classes}]{tail}')


def _csv_lines(rows) -> str:
    """The CSV lines of rows (break, aut_order, class JSON text, ...), from
    each row's first three fields: the class text is quoted, its quotes
    doubled."""
    return "".join([f'{row[0]},{row[1]},1,"' + row[2].replace('"', '""') + '"\n' for row in rows])


def _emit_csv(rows):
    """The census as CSV: the header, then one line per row, in the order
    given; CSV_BLOCK lines per write."""
    out = sys.stdout
    out.write(CSV_HEADER)
    rows = iter(rows)
    while block := _csv_lines(itertools.islice(rows, CSV_BLOCK)):
        out.write(block)


def _emit_csv_grid(brk, aut, heads, tails):
    """The census as CSV whose class texts are each head followed by each
    tail, in the order given, all with the same break and aut_order: the
    header, then one write per head.  A tail holds no quote, so a head's
    line up to its tail, as _csv_lines quotes it, joins its tails."""
    out = sys.stdout
    out.write(CSV_HEADER)
    for head in heads:
        start = _csv_lines([(brk, aut, head)])[:-2]  # less the closing '"\n'
        out.write(start + ('"\n' + start).join(tails) + '"\n')


def _load_json(path: str):
    """The JSON value a file holds; ParseError if its text is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path} is not JSON: {exc}") from None


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
        "witness": None if w is None else str(w.u),
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
        "witness": None if u is None else str(u),
    }
    _emit(payload)
    return 0


def _count_verb(args, payload, brute, count, write_csv):
    """Finish count-as or count-kummer: the count as JSON, or the census
    as CSV by write_csv().  count is the closed form or, with
    --brute-force, the number of classes the verb's census holds, which
    must equal the oracle's."""
    payload.update(count=count, brute_force=brute)
    if args.brute_force and brute != count:
        _emit(payload)
        raise OracleMismatch(f"structured {count} != oracle {brute}")
    if args.format == "csv":
        write_csv()
    else:
        _emit(payload)
    return 0


def _cmd_count_as(args):
    spec = _field_from_args(args)
    m = args.max_break
    brute = oracles.as_bruteforce_class_count(spec, m) if args.brute_force else None
    count = as_class_count(spec, m)
    if args.format == "csv" or args.brute_force:
        rows = as_census(spec, m)
        if args.brute_force:
            rows = list(rows)
            count = len(rows)
    payload = {"p": spec.p, "q": spec.q, "max_break": m}
    return _count_verb(args, payload, brute, count, lambda: _emit_csv(rows))


def _cmd_count_kummer(args):
    spec = _field_from_args(args)
    n = args.n
    brute = oracles.kummer_bruteforce_class_count(spec, n) if args.brute_force else None
    count = kummer_class_count(spec, n)
    if args.format == "csv" or args.brute_force:
        heads, tails = kummer_class_grid(spec, n)
        count = len(heads) * len(tails)
    payload = {"q": spec.q, "n": n}
    # every class has break 0 and aut order gcd(n, q - 1), one per tail
    return _count_verb(args, payload, brute, count, lambda: _emit_csv_grid(0, len(tails), heads, tails))


def _parse_psi(text: str, r: int):
    """The action matrix, a JSON list of integer rows; rank 1 also takes
    one flat row such as [-1]."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--psi is not valid JSON: {exc}", exc.pos)
    if r == 1 and isinstance(data, list) and data and not isinstance(data[0], list):
        data = [data]
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in data
    ):
        raise DomainError("--psi must be a JSON matrix of integers")
    return data


def _cmd_semidirect_enum(args):
    spec = _field_from_args(args)
    psi = _parse_psi(args.psi, args.r) if args.r else []
    group = SemidirectGroup.make(args.p, args.r, args.n, psi)
    n2, q2, group2 = reduce_to_coprime(group, args.q_exp)
    frame = TameFrame(spec, n2, q2)
    bound = args.max_break
    brute = oracles.semidirect_bruteforce(group2, frame, bound) if args.brute_force else None
    rows = g_torsor_census(group2, frame, bound)
    if args.format == "csv" and not args.brute_force:
        _emit_csv(rows)
        return 0
    rows = list(rows)
    payload = {
        "group": group.to_json(),
        "q_exp": args.q_exp,
        "reduced": {"n": n2, "q_exp": q2},
        "max_break": bound,
        "count": len(rows),
        "brute_force": None if brute is None else {"count": brute[0], "aut_orders": brute[1]},
    }
    # every class has aut order |ker(psi - 1)|, so the rows' list is sorted
    if brute is not None and brute != (len(rows), [row[1] for row in rows]):
        _emit_census_json(payload, rows)
        raise OracleMismatch("semidirect enumeration disagrees with oracle")
    if args.format == "csv":
        _emit_csv(rows)
    else:
        _emit_census_json(payload, rows)
    return 0


def _cmd_mass(args):
    g = FiniteGroupoid.from_json(_load_json(args.groupoid))
    _emit({"mass": str(groupoid_mass(g))})
    return 0


def _cmd_rigidify(args):
    g = FiniteGroupoid.from_json(_load_json(args.groupoid))
    sub_data = _load_json(args.subgroup)
    if not isinstance(sub_data, dict) or not all(
        isinstance(v, list) and all(isinstance(a, str) for a in v) for v in sub_data.values()
    ):
        raise DomainError("a subgroup file maps each object to a list of arrow labels")
    sub = CentralAutSubgroup({x: frozenset(v) for x, v in sub_data.items()})
    _emit(rigidify(g, sub).to_json())
    return 0


def _cmd_check_colim(args):
    from .acceptance import _random_system_pair
    from .groupoids import colim_fiber_product_check

    if not 0 <= args.trials <= MAX_TRIALS:
        raise DomainError(f"--trials must lie in 0..{MAX_TRIALS}, got {args.trials}")
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
    common(sp, group=True, prec=False, census=True)
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
def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default, once per process.

    Left dynamic, glibc raises the threshold to the size of each large
    block it frees.  Once one census has printed a multi-megabyte output
    and dropped it, the next census in the same process builds its large
    buffers on the brk heap, which glibc keeps.  Peak RSS then grows with
    the number of censuses run: a second count-kummer F_256 n = 255 whose
    CSV is read back into rows peaks at 82 MB against 64 MB for the first.
    A threshold set by mallopt stays fixed, and every run peaks alike.
    Without glibc's mallopt this does nothing.  ctypes is imported here,
    so a library import of ftk.cli does not load it.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses for every call in this process."""
    return build_parser()


def main(argv=None) -> int:
    _pin_mmap_threshold()
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
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device, so that the
        # flush at exit writes what is left there and raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
