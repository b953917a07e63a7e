"""Tests of the benchmark's own checkers: a wrong answer must fail.

Run with ``PYTHONPATH=src python -m pytest -q benchmark`` from the root of
the repository.  Each test takes a genuine ftk output, checks that it
passes, then tampers with it and checks that it is rejected.  The last
test checks that scaling by the host probe cancels a slow host.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import ftk  # noqa: E402
import ftk.cli  # noqa: E402
import ftk.oracles  # noqa: E402

import arith  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def test_own_fields_follow_the_modulus_rule():
    assert arith.Field(2, 2).modulus == [1, 1, 1]  # x^2 + x + 1
    assert arith.Field(2, 3).modulus == [1, 1, 0, 1]  # x^3 + x + 1
    assert arith.Field(3, 2).modulus == [1, 0, 1]  # x^2 + 1
    assert arith.Field(2, 8).modulus == [1, 1, 0, 1, 1, 0, 0, 0, 1]
    f9 = arith.Field(3, 2)
    assert f9.parse(f9.render(7)) == 7
    assert sorted(f9.trace(a) for a in range(9)) == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_semidirect_expectations_match_known_counts():
    s3 = arith.SemidirectExpectation(arith.Field(3), 1, 2, [[-1]], 1)
    assert [s3.count(m) for m in (1, 4, 7)] == [3, 3, 27] and s3.aut == 1
    z5 = arith.SemidirectExpectation(arith.Field(5), 1, 4, [[2]], 1)
    assert [z5.count(m) for m in (1, 2, 3)] == [5, 5, 5]
    a4 = arith.SemidirectExpectation(arith.Field(2, 2), 2, 3, [[0, 1], [1, 1]], 1)
    assert (a4.count(0), a4.count(1), a4.aut) == (1, 4, 1)
    split = arith.SemidirectExpectation(arith.Field(3, 2), 1, 4, [[-1]], 2)
    assert (split.count(1), split.count(2), split.aut) == (3, 27, 3)


def _as_op(iso=True):
    return workloads.as_query(ftk, arith.Field(5), random.Random(1), 6, 1, iso=iso)


def test_tampered_canonical_form_is_rejected():
    op = _as_op()
    canon, witness = op.run()
    op.check((canon, witness))
    (s, c), *rest = canon.support
    tampered = ftk.ASCanonical(canon.spec, ((s, c + c.spec.one()),) + tuple(rest), canon.constant_class)
    with pytest.raises(CheckFailed, match="support"):
        op.check((tampered, witness))
    shifted = ftk.ASCanonical(canon.spec, canon.support, canon.constant_class + canon.spec.one())
    with pytest.raises(CheckFailed, match="constant class"):
        op.check((shifted, witness))


def test_broken_as_witness_is_rejected():
    op = _as_op()
    canon, witness = op.run()
    u = witness.u
    broken = ftk.ASWitness(u + ftk.LaurentSeries.monomial(u.ring.one(), 1, u.prec))
    with pytest.raises(CheckFailed, match="u\\^p - u"):
        op.check((canon, broken))
    with pytest.raises(CheckFailed, match="no witness"):
        op.check((canon, None))
    non_iso = _as_op(iso=False)
    canon2, none = non_iso.run()
    non_iso.check((canon2, none))
    with pytest.raises(CheckFailed, match="non-isomorphic"):
        non_iso.check((canon2, witness))


def test_broken_kummer_witness_and_class_are_rejected():
    op = workloads.kummer_query(ftk, arith.Field(7), random.Random(2), 3, -2, 1, 3)
    cls, u = op.run()
    op.check((cls, u))
    # 3 is not a cube in F_7, so 3 u is no witness
    with pytest.raises(CheckFailed, match="u\\^n b"):
        op.check((cls, u.scale(u.ring.from_int(3))))
    wrong = ftk.KummerClass(cls.spec, cls.n, cls.q_exp, (cls.unit_class + 1) % 3)
    with pytest.raises(CheckFailed, match="Kummer class"):
        op.check((wrong, u))


def test_wrong_census_counts_are_rejected():
    op = workloads.count_as_op(ftk, random.Random(3), 2, 2, 3)
    code, out, err = op.run()
    op.check((code, out, err))
    lines = out.splitlines()
    with pytest.raises(CheckFailed, match="rows"):
        op.check((code, "\n".join(lines[:-1]) + "\n", err))
    with pytest.raises(CheckFailed, match="twice"):
        op.check((code, "\n".join(lines[:-1] + lines[-2:-1]) + "\n", err))
    kop = workloads.count_kummer_op(ftk, random.Random(4), 5, 1, 4)
    code, out, err = kop.run()
    kop.check((code, out, err))
    klines = out.splitlines()
    with pytest.raises(CheckFailed, match="rows"):
        kop.check((code, out + klines[-1] + "\n", err))
    with pytest.raises(CheckFailed, match="twice"):
        kop.check((code, "\n".join(klines[:-1] + klines[-2:-1]) + "\n", err))


def test_wrong_semidirect_census_is_rejected():
    op = workloads.semidirect_op(ftk, random.Random(5), "S3/F3", 3, 1, 1, 2, ["[-1]"], 1, 5)
    code, out, err = op.run()
    op.check((code, out, err))
    data = json.loads(out)
    data["classes"] = data["classes"][:-1]
    data["count"] -= 1
    with pytest.raises(CheckFailed, match="classes, expected"):
        op.check((code, json.dumps(data), err))
    data = json.loads(out)
    data["classes"][0]["aut_order"] = 2
    with pytest.raises(CheckFailed, match="aut"):
        op.check((code, json.dumps(data), err))


def test_wrong_oracle_counts_are_rejected():
    op = workloads.as_oracle_op(ftk, 2, 1, 1)
    op.check(op.run())
    with pytest.raises(CheckFailed):
        op.check(5)
    sop = workloads.semidirect_oracle_op(ftk, "S3/F3", 3, 1, 1, 2, [[-1]], 1, 1)
    got = sop.run()
    sop.check(got)
    with pytest.raises(CheckFailed):
        sop.check((got[0] + 1, got[1] + [1]))
    gop = workloads.rigidify_op(ftk, random.Random(6), [(2, 2), (3,)])
    results = gop.run()
    gop.check(results)
    mass, *rest = results[0]
    with pytest.raises(CheckFailed, match="mass"):
        gop.check([(mass * 2, *rest)] + results[1:])


def test_scaled_times_cancel_a_slow_host():
    import calib
    import run

    fast = {"latencies": [[0.010, None]], "probes": [[[calib.REF_S] * 7, [calib.REF_S] * 6]],
            "setup_s": 0.2, "setup_probe": [calib.REF_S] * 6}
    slow = {"latencies": [[0.018, None]], "probes": [[[1.8 * calib.REF_S] * 7, [0.0] * 6]],
            "setup_s": 0.36, "setup_probe": [1.8 * calib.REF_S] * 6}
    for rec in run.scaled([fast, slow]):
        assert rec["latencies"][0][0] == pytest.approx(0.010)
        assert rec["latencies"][0][1] is None
        assert rec["setup_s"] == pytest.approx(0.2)
