"""The golden census: a fixed list of census commands and what each printed.

For every argv in ``CASES`` the fixture ``golden_census.json`` holds the
exit code, the class count, the multiset of aut orders as sorted
[aut order, classes] pairs (None when stdout lists no classes) and the sha256 of stdout.  ``test_golden_census.py``
replays the list through ``ftk.cli.main`` and requires every record to be
equal, so a change to the census code cannot change its output unnoticed.

Regenerate the fixture with

    PYTHONPATH=src python tests/golden_census.py

only when a census output is meant to change, and name that change where
the project records its changes.  It is never the way to make a census
change pass.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import json
import pathlib
import sys

FIXTURE = pathlib.Path(__file__).with_name("golden_census.json")


def _field(p: int, e: int):
    return ["--p", str(p)] if e == 1 else ["--p", str(p), "--e", str(e)]


def _count_as():
    cases = []
    for p, e, bounds, brute in [
        (2, 1, (0, 1, 2, 5, 8), (0, 1, 2)),
        (3, 1, (0, 1, 3, 6), (0, 1, 2)),
        (2, 2, (1, 2, 4), (1, 2)),
        (5, 1, (1, 2, 4), (1,)),
        (7, 1, (2,), ()),
        (2, 3, (1, 3), (1,)),
        (3, 2, (1, 2), (1,)),
        (2, 4, (2,), ()),
        (2, 8, (1,), ()),
    ]:
        for m in bounds:
            argv = ["count-as", *_field(p, e), "--max-break", str(m)]
            cases += [argv, argv + ["--format", "csv"]]
        cases += [["count-as", *_field(p, e), "--max-break", str(m), "--brute-force"] for m in brute]
    # the benchmark's largest count-as censuses
    for p, e, m in ((2, 1, 16), (2, 2, 8)):
        cases.append(["count-as", *_field(p, e), "--max-break", str(m), "--format", "csv"])
    # breaks with more classes than one CSV write holds (F_2 at m = 24 and
    # 30), and keys whose text order is not their numeric order (F_3 at
    # m = 12: "1" < "10" < "11" < "2")
    for p, e, m in ((2, 1, 24), (2, 1, 30), (3, 1, 12)):
        cases.append(["count-as", *_field(p, e), "--max-break", str(m), "--format", "csv"])
    return cases


def _count_kummer():
    cases = []
    for p, e, ns, brute in [
        (2, 1, (1,), (1,)),
        (3, 1, (2,), (2,)),
        (5, 1, (2, 4), (2, 4)),
        (7, 1, (3, 6), (3,)),
        (2, 2, (3,), (3,)),
        (3, 2, (4, 8), (4,)),
        (2, 3, (7,), ()),
        (2, 4, (5, 15), ()),
        (2, 8, (17, 255), ()),
    ]:
        for n in ns:
            argv = ["count-kummer", *_field(p, e), "--n", str(n)]
            cases += [argv, argv + ["--format", "csv"]]
        cases += [["count-kummer", *_field(p, e), "--n", str(n), "--brute-force"] for n in brute]
    return cases


# (p, e, r, n, psi, q_exp, break bounds, bounds also run with --brute-force);
# every bound runs in JSON and in CSV.  S_3/F_3 adds no class at m = 8, 9
# and 10, and adds some at 11 and 14
SEMIDIRECT = [
    (3, 1, 1, 2, "[-1]", 1, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14), (0, 1, 2)),  # S_3/F_3
    (3, 2, 1, 2, "[-1]", 1, (0, 1, 2, 3), (0, 1)),  # S_3/F_9
    (5, 1, 1, 4, "[2]", 1, (0, 1, 2, 3), (0, 1)),  # Z/5 x| C_4
    (5, 1, 1, 4, "[2]", 2, (0, 1, 2), ()),
    (5, 1, 1, 4, "[2]", 3, (0, 1, 2), ()),
    (5, 1, 1, 4, "[-1]", 1, (0, 1, 2), (1,)),
    (5, 1, 1, 4, "[-1]", 2, (0, 1, 2), ()),
    (5, 1, 1, 4, "[-1]", 3, (0, 1, 2), ()),
    (2, 2, 2, 3, "[[0,1],[1,1]]", 1, (0, 1, 2), (0,)),  # A_4/F_4
    (3, 2, 1, 4, "[-1]", 2, (0, 1), ()),  # Z/3 x| C_4 over F_9
    (3, 1, 2, 2, "[[-1,0],[0,-1]]", 1, (0, 1), (0,)),  # (Z/3)^2 x| C_2
    (3, 1, 2, 2, "[[1,0],[0,-1]]", 1, (0, 1), ()),
    (3, 1, 2, 2, "[[0,1],[1,0]]", 1, (0, 1), ()),
    (7, 1, 1, 3, "[2]", 1, (0, 1), (0,)),  # Z/7 x| C_3
    (7, 1, 1, 3, "[4]", 2, (0, 1), ()),
    (5, 1, 1, 2, "[-1]", 1, (0, 1), (0,)),  # D_5
    (3, 1, 1, 2, "[1]", 1, (0, 2), ()),  # Z/3 x C_2
    (2, 2, 1, 3, "[1]", 1, (0, 1), ()),  # Z/2 x C_3 over F_4
    (3, 1, 0, 2, "[]", 1, (0, 3), ()),  # H = 0
]


def _semidirect():
    cases = []
    for p, e, r, n, psi, q_exp, bounds, brute in SEMIDIRECT:
        head = ["semidirect-enum", *_field(p, e), "--r", str(r), "--n", str(n),
                "--psi", psi, "--q-exp", str(q_exp)]
        for m in bounds:
            cases.append(head + ["--max-break", str(m)])
            cases.append(head + ["--max-break", str(m), "--format", "csv"])
        cases += [head + ["--max-break", str(m), "--brute-force"] for m in brute]
    cases += [
        # psi^n is not the identity
        ["semidirect-enum", "--p", "5", "--r", "1", "--n", "2", "--psi", "[2]",
         "--q-exp", "1", "--max-break", "1"],
        # 2187^2 canonical vectors, more than the census once walked, but
        # 81 classes: admitted since the bound counts classes
        ["semidirect-enum", "--p", "3", "--e", "2", "--r", "2", "--n", "2",
         "--psi", "[[-1,0],[0,-1]]", "--q-exp", "1", "--max-break", "4"],
        ["semidirect-enum", "--p", "3", "--e", "2", "--r", "2", "--n", "2",
         "--psi", "[[-1,0],[0,-1]]", "--q-exp", "1", "--max-break", "4", "--format", "csv"],
        # 81^3 classes, more than the census emits
        ["semidirect-enum", "--p", "3", "--e", "2", "--r", "2", "--n", "2",
         "--psi", "[[-1,0],[0,-1]]", "--q-exp", "1", "--max-break", "7"],
    ]
    return cases


CASES = _count_as() + _count_kummer() + _semidirect()


def record(argv) -> dict:
    """What ``ftk.cli.main(argv)`` printed, in the fixture's terms."""
    from ftk import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    count, auts = None, None
    if "--format" in argv and code == 0:
        rows = list(csv.reader(io.StringIO(text)))[1:]
        count, auts = len(rows), [int(row[1]) for row in rows]
    elif text:
        payload = json.loads(text)
        count = payload["count"]
        if "classes" in payload:
            auts = [row["aut_order"] for row in payload["classes"]]
    if auts is not None:
        auts = [[a, k] for a, k in sorted(collections.Counter(auts).items())]
    return {
        "argv": list(argv),
        "exit": code,
        "count": count,
        "auts": auts,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main() -> int:
    records = [record(argv) for argv in CASES]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} records to {FIXTURE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
