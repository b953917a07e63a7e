"""The golden classify list: fixed as-canon, as-iso, kummer-canon and
kummer-iso commands and what each printed.

For every argv in ``CASES`` the fixture ``golden_classify.json`` holds the
exit code and the sha256 of stdout and of stderr.  ``test_golden_classify.py``
replays the list through ``ftk.cli.main`` and requires every record to be
equal, so a change to the classify paths cannot change their output
unnoticed.

The list runs over F_2 .. F_256.  Per field it has isomorphic and
non-isomorphic pairs; pairs whose two sides carry different windows (the
CLI takes one ``--prec``, so without it each side gets the default window
of its own poles and terms, and the verbs cut both to the smaller one);
explicit windows; and the error exits: a window too small to certify
anything, ``g`` over a prime field, p | n, and a few malformed texts.

Regenerate the fixture with

    PYTHONPATH=src python tests/golden_classify.py

only when a classify output is meant to change, and name that change where
the project records its changes.  It is never the way to make a classify
change pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

FIXTURE = pathlib.Path(__file__).with_name("golden_classify.json")

# (p, e, tame orders n, all prime to p)
FIELDS = [
    (2, 1, (3,)),
    (3, 1, (2, 4)),
    (5, 1, (4, 3)),
    (7, 1, (3, 6)),
    (2, 2, (3, 5)),
    (3, 2, (4, 8)),
    (2, 3, (7,)),
    (2, 4, (5, 15)),
    (5, 2, (3, 24)),
    (2, 8, (5, 17)),
]


def _field(p: int, e: int):
    return ["--p", str(p)] if e == 1 else ["--p", str(p), "--e", str(e)]


class _Coeffs:
    """Coefficient literals of F_q: ``c(k)`` is a nonzero element and
    ``cp(k)`` its p-th power, so that c(k) t^(pj) ... spells u^p - u."""

    def __init__(self, p: int, e: int):
        self.p, self.e = p, e

    def c(self, k: int) -> str:
        if self.e == 1:
            return str(k % (self.p - 1) + 1)
        return f"g^{k}"

    def cp(self, k: int) -> str:
        # an element of F_p is its own p-th power
        return self.c(k) if self.e == 1 else f"g^{k * self.p}"

    def mul_pow(self, a: int, k: int, n: int) -> str:
        """c(a) * c(k)^n."""
        if self.e == 1:
            return str((a % (self.p - 1) + 1) * pow(k % (self.p - 1) + 1, n, self.p) % self.p)
        return f"g^{a + k * n}"


def _coboundary(f: _Coeffs, k: int, j: int) -> str:
    """u^p - u for u = c(k) t^j (j = 0: the constant c(k))."""
    p = f.p
    if j == 0:
        return f"{f.cp(k)} - {f.c(k)}"
    return f"{f.cp(k)}*t^{p * j} - {f.c(k)}*t^{j}"


def _as_cases(p: int, e: int):
    f = _Coeffs(p, e)
    head = _field(p, e)
    s = p + 1  # prime to p
    simple = f"{f.c(1)}*t^-1 + {f.c(2)}"
    chains = f"{f.c(3)}*t^-{p} + {f.c(4)}*t^-{p * p} + t^-{s} + {f.c(5)} + {f.c(6)}*t^3"
    deep = f"t^-{2 * p * p + 1} + {f.c(7)}*t^-{p * p * p} + {f.c(8)}*t^5 + t^40"
    moved = " + ".join([chains, _coboundary(f, 1, -2), _coboundary(f, 2, 1), _coboundary(f, 3, 0)])
    moved_simple = " + ".join([simple, _coboundary(f, 4, -1), _coboundary(f, 5, 2)])
    deep_moved = " + ".join([deep, _coboundary(f, 6, -3), _coboundary(f, 7, 0)])
    other_const = f"{f.c(1)}*t^-1 + {f.c(2)} + 1"
    cases = [["as-canon", *head, "--series", text] for text in (simple, chains, deep, moved)]
    poles = f"{f.c(3)}*t^-{p} + {f.c(4)}*t^-{p * p} + t^-{s} + {f.c(5)}"
    cases += [
        ["as-canon", *head, "--prec", "1", "--series", poles],
        ["as-canon", *head, "--prec", "8", "--series", simple],
        ["as-canon", *head, "--prec", str(p + 4), "--series", moved],
    ]
    iso = ["as-iso", *head]
    cases += [
        iso + ["--series", chains, "--series2", moved],
        iso + ["--series", moved_simple, "--series2", simple],
        iso + ["--series", deep, "--series2", deep_moved],
        iso + ["--series", f"t^-{p}", "--series2", "t^-1"],
        iso + ["--series", simple, "--series2", chains],
        iso + ["--series", simple, "--series2", other_const],
        iso + ["--series", deep, "--series2", moved],
        # windows from each side's own poles: 2 * pole + 32 against 34
        iso + ["--series", deep_moved, "--series2", deep],
        iso + ["--series", moved_simple, "--series2", f"{simple} + t^60"],
        iso + ["--prec", str(p + 4), "--series", chains, "--series2", moved],
        iso + ["--prec", "1", "--series", poles, "--series2", f"{poles} + {_coboundary(f, 2, -1)}"],
        iso + ["--prec", "1", "--series", poles, "--series2", simple],
    ]
    return cases


def _kummer_cases(p: int, e: int, n: int):
    f = _Coeffs(p, e)
    head = [*_field(p, e), "--n", str(n)]

    def cover(lam: int, val: int, tail, scale=0):
        # sum over j of c(lam + tail_j) c(scale)^n t^(val + j), tail_0 = 0
        terms = [f"{f.mul_pow(lam + t, scale, n)}*t^{val + j}" for j, t in enumerate(tail)]
        return " + ".join(terms)

    tail = (0, 3, 1, 4, 1, 5)
    other_tail = (0, 2, 7, 1, 8)
    b = cover(1, -7, tail)
    cases = [
        ["kummer-canon", *head, "--series", b],
        ["kummer-canon", *head, "--series", cover(2, 3, other_tail)],
        ["kummer-canon", *head, "--prec", "2", "--series", cover(0, -1, tail[:3])],
    ]
    iso = ["kummer-iso", *head]
    cases += [
        # b' = (c t)^n b, one product away
        iso + ["--series", b, "--series2", cover(1, -7 + n, tail, scale=2)],
        # the same class with another tail: the ratio's root is a full Newton
        iso + ["--series", b, "--series2", cover(1, -7 - n, other_tail, scale=3)],
        iso + ["--series", cover(1, -2, tail), "--series2", cover(1, -2 + 2 * n, other_tail, scale=1)],
        # valuations apart by a non-multiple of n
        iso + ["--series", b, "--series2", cover(1, -6, other_tail)],
        # leading coefficients apart by a non-n-th power when gcd(n, q - 1) > 1
        iso + ["--series", b, "--series2", cover(2, -7, other_tail)],
        # windows from each side's own poles: 2 * 12 + 32 against a smaller one
        iso + ["--series", cover(1, -12, tail), "--series2", cover(1, -12 + n, other_tail, scale=2)],
        iso + ["--prec", "4", "--series", b, "--series2", cover(1, -7 - n, other_tail, scale=3)],
    ]
    return cases


def _errors():
    return [
        # a window too small to certify anything
        ["as-canon", "--p", "3", "--prec", "0", "--series", "t^-1"],
        ["as-canon", "--p", "2", "--e", "2", "--prec", "-2", "--series", "g*t^-3"],
        ["as-iso", "--p", "3", "--prec", "0", "--series", "t^-1", "--series2", "t^-1"],
        ["as-iso", "--p", "5", "--prec", "-2", "--series", "t^-3", "--series2", "2*t^-3"],
        ["as-canon", "--p", "5", "--prec", "2", "--series", "t^5"],
        ["kummer-canon", "--p", "5", "--n", "4", "--prec", "-2", "--series", "t^-1"],
        ["kummer-iso", "--p", "5", "--n", "4", "--prec", "0", "--series", "t^-1", "--series2", "t^-5"],
        ["kummer-iso", "--p", "7", "--n", "3", "--prec", "-4", "--series", "t^-5 + t^-4",
         "--series2", "t^-5"],
        ["kummer-canon", "--p", "5", "--n", "4", "--series", "0"],
        # g over a prime field
        ["as-canon", "--p", "5", "--series", "g*t^-1"],
        ["as-iso", "--p", "3", "--series", "t^-1", "--series2", "(g+1)*t^-1"],
        ["kummer-canon", "--p", "7", "--n", "3", "--series", "g^2*t^-1"],
        ["kummer-iso", "--p", "2", "--n", "3", "--series", "t^-1", "--series2", "g*t^2"],
        # p | n
        ["kummer-canon", "--p", "3", "--n", "3", "--series", "t^-1"],
        ["kummer-canon", "--p", "2", "--e", "2", "--n", "6", "--series", "g*t^-1"],
        ["kummer-iso", "--p", "5", "--n", "10", "--series", "t^-1", "--series2", "t^-11"],
        ["kummer-canon", "--p", "5", "--n", "0", "--series", "t^-1"],
        # malformed texts
        ["as-canon", "--p", "5", "--series", "t^"],
        ["as-iso", "--p", "5", "--series", "t^-1 +", "--series2", "t^-1"],
        ["kummer-canon", "--p", "5", "--n", "4", "--series", "2*t^-1 3"],
        ["as-canon", "--p", "4", "--series", "t^-1"],
        ["as-canon", "--p", "2", "--q", "6", "--series", "t^-1"],
    ]


def _cases():
    cases = []
    for p, e, ns in FIELDS:
        cases += _as_cases(p, e)
        for n in ns:
            cases += _kummer_cases(p, e, n)
    return cases + _errors()


CASES = _cases()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv) -> dict:
    """What ``ftk.cli.main(argv)`` printed, in the fixture's terms."""
    from ftk import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _digest(out.getvalue()),
        "stderr": _digest(err.getvalue()),
    }


def main() -> int:
    records = [record(argv) for argv in CASES]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} records to {FIXTURE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
