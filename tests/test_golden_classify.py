"""Replay the golden classify list: every command of ``golden_classify.CASES``
must print what the fixture recorded (exit code and the sha256 of stdout
and of stderr)."""

import json

from golden_classify import CASES, FIXTURE, record


def test_golden_classify_replays_byte_identical():
    want = json.loads(FIXTURE.read_text())
    assert [w["argv"] for w in want] == CASES
    got = [record(argv) for argv in CASES]
    changed = [" ".join(g["argv"]) for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} classify outputs changed: {changed}"
