"""Replay the golden census: every command of ``golden_census.CASES`` must
print what the fixture recorded (exit code, count, aut multiset and the
sha256 of stdout)."""

import json

from golden_census import CASES, FIXTURE, record


def test_golden_census_replays_byte_identical():
    want = json.loads(FIXTURE.read_text())
    assert [w["argv"] for w in want] == CASES
    got = [record(argv) for argv in CASES]
    changed = [" ".join(g["argv"]) for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} census outputs changed: {changed}"
