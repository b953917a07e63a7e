"""Re-confirm the benchmark's semidirect expectations against ftk's oracle.

    PYTHONPATH=src python3 benchmark/confirm.py

For each census group it compares the slot-by-slot count of
arith.SemidirectExpectation with oracles.semidirect_bruteforce (and, for
the split frame, oracles.double_frame_bruteforce) at break bounds the
oracle reaches in under a minute.  Exit code 1 on any disagreement.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import ftk  # noqa: E402
import ftk.oracles  # noqa: E402

import arith  # noqa: E402

# (label, p, e, r, n, psi, q_exp, break bounds)
CASES = [
    ("S3/F3", 3, 1, 1, 2, [[-1]], 1, (0, 1, 2, 3)),
    ("S3/F9", 3, 2, 1, 2, [[-1]], 1, (0, 1)),
    ("Z5xC4/F5", 5, 1, 1, 4, [[2]], 1, (0, 1)),
    ("A4/F4", 2, 2, 2, 3, [[0, 1], [1, 1]], 1, (0, 1)),
]
SPLIT_FRAME = ("Z3xC4/F9 (n, q_exp) = (4, 2)", 3, 2, [[-1]], (1, 2))


def main() -> int:
    ok = True
    for label, p, e, r, n, psi, q_exp, bounds in CASES:
        expect = arith.SemidirectExpectation(arith.Field(p, e), r, n, psi, q_exp)
        group = ftk.SemidirectGroup.make(p, r, n, psi)
        frame = ftk.TameFrame(ftk.field(p, e), n, q_exp)
        for m in bounds:
            t0 = time.perf_counter()
            got = ftk.oracles.semidirect_bruteforce(group, frame, m)
            want = (expect.count(m), [expect.aut] * expect.count(m))
            ok &= tuple(got) == want
            print(f"{label:10} m={m}: oracle {got[0]:3} classes aut {sorted(set(got[1]))}, "
                  f"expected {want[0]:3} aut [{expect.aut}]  {time.perf_counter() - t0:5.1f}s")
    label, p, e, psi, bounds = SPLIT_FRAME
    expect = arith.SemidirectExpectation(arith.Field(p, e), 1, 4, psi, 2)
    group = ftk.SemidirectGroup.make(p, 1, 4, psi)
    for m in bounds:
        t0 = time.perf_counter()
        got = ftk.oracles.double_frame_bruteforce(group, ftk.field(p, e), m)
        want = (expect.count(m), [expect.aut] * expect.count(m))
        ok &= tuple(got) == want
        print(f"{label} m={m}: oracle {got[0]} classes, expected {want[0]}  "
              f"{time.perf_counter() - t0:5.1f}s")
    print("all agree" if ok else "DISAGREEMENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
