"""Re-measure the baseline table of ROADMAP item 1.

    PYTHONPATH=src python3 benchmark/baseline.py

Prints the best of several timed repeats for field multiplication (F_3,
F_256), F_256 inversion, F_5 series mul / invert / nth_root_unit(4) at
precision 128, and enumerate_g_torsors for S_3 over F_3 at m = 4, 8, 10.
The enumeration at m = 10 alone takes tens of seconds.
"""

from __future__ import annotations

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import ftk  # noqa: E402


def best(fn, repeats: int, inner: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return min(times)


def main() -> int:
    rng = random.Random(0)
    rows = []
    for p, e in ((3, 1), (2, 8)):
        spec = ftk.field(p, e)
        spec.generator
        a, b = spec.from_index(spec.q - 1), spec.from_index(spec.q // 2 + 1)
        rows.append((f"F_{spec.q} mul", best(lambda: a * b, 5, 2000), "us"))
    f256 = ftk.field(2, 8)
    x = f256.from_index(200)
    rows.append(("F_256 inverse", best(x.inverse, 5, 50), "us"))
    f5 = ftk.field(5)
    coeffs = [f5.from_int(1)] + [f5.from_int(rng.randrange(5)) for _ in range(127)]
    s = ftk.LaurentSeries.make(f5, 0, 128, coeffs)
    rows.append(("F_5 series mul, prec 128", best(lambda: s * s, 3), "ms"))
    rows.append(("F_5 series invert, prec 128", best(s.invert, 3), "ms"))
    rows.append(("F_5 nth_root_unit(4), prec 128", best(lambda: s.nth_root_unit(4), 2), "s"))
    group = ftk.SemidirectGroup.make(3, 1, 2, [[-1]])
    frame = ftk.TameFrame(ftk.field(3), 2, 1)
    for m in (4, 8, 10):
        rows.append((f"enumerate_g_torsors S_3/F_3, m = {m}",
                     best(lambda: ftk.enumerate_g_torsors(group, frame, m), 2 if m < 10 else 1), "s"))
    scale = {"us": 1e6, "ms": 1e3, "s": 1.0}
    for label, seconds, unit in rows:
        print(f"| {label} | {seconds * scale[unit]:.3g} {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
