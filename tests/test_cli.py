import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import ftk
import schoolbook
from ftk import artin_schreier, cli, semidirect
from ftk.artin_schreier import ASCanonical, as_class_count
from ftk.cli import build_parser, main
from ftk.fields import field
from ftk.groupoids import FinGroup, bg
from ftk.kummer import KummerClass
from ftk.semidirect import GTorsorClass, SemidirectGroup, TameFrame
from test_semidirect import census_systems, reduced_system, slot_class_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(verb, payload):
    schema_text = (
        resources.files("ftk") / "schemas" / f"{verb}.schema.json"
    ).read_text()
    jsonschema.validate(payload, json.loads(schema_text))


# the census generators, under each name the census verbs look them up by:
# count-as and semidirect-enum both walk artin_schreier.census_rows
CENSUS_GENERATORS = [
    (artin_schreier, "census_rows"),
    (semidirect, "census_rows"),
    (cli, "kummer_class_texts"),
]


def test_as_canon(capsys):
    code, out = run_cli(capsys, "as-canon", "--p", "2", "--series", "t^-4 + t^-3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "support": {"1": "1", "3": "1"},
        "constant_class": "0",
        "p": 2,
        "q": 2,
    }
    validate("as-canon", payload)


def test_as_iso(capsys):
    code, out = run_cli(
        capsys,
        "as-iso", "--p", "2",
        "--series", "t^-4+t^-3", "--series2", "t^-3+t^-1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["witness"] == "t^-2 + t^-1"
    validate("as-iso", payload)


def test_as_iso_negative(capsys):
    code, out = run_cli(
        capsys, "as-iso", "--p", "2", "--series", "t^-1", "--series2", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"isomorphic": False, "witness": None}


def test_kummer_canon(capsys):
    code, out = run_cli(
        capsys, "kummer-canon", "--p", "5", "--n", "4", "--series", "2*t^7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 4, "q_exp": 3, "unit_class": 1}
    validate("kummer-canon", payload)


def test_kummer_iso(capsys):
    code, out = run_cli(
        capsys,
        "kummer-iso", "--p", "5", "--n", "4",
        "--series", "t^4", "--series2", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == "t^-1"
    validate("kummer-iso", payload)


def test_count_as_with_oracle(capsys):
    code, out = run_cli(
        capsys, "count-as", "--p", "2", "--q", "2", "--max-break", "3", "--brute-force"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8 and payload["brute_force"] == 8
    validate("count-as", payload)


def test_count_as_csv(capsys):
    code, out = run_cli(
        capsys, "count-as", "--p", "2", "--max-break", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "break,aut_order,multiplicity,class"
    assert len(lines) == 5  # header + 4 classes


def test_count_kummer_csv_rows_in_class_text_order(capsys):
    code, out = run_cli(
        capsys, "count-kummer", "--p", "2", "--e", "4", "--n", "15", "--format", "csv"
    )
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["break", "aut_order", "multiplicity", "class"]
    assert len(rows) == 225
    assert all(row[:3] == ["0", "15", "1"] for row in rows)
    texts = [row[3] for row in rows]
    assert texts == sorted(texts)
    q_exps = [json.loads(text)["q_exp"] for text in texts]
    assert q_exps.index(10) < q_exps.index(2)  # JSON text order, not numeric


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def kummer_csv_argv(p, e, n, *extra):
    return ["count-kummer", "--p", str(p), "--e", str(e), "--n", str(n), "--format", "csv", *extra]


# fields whose q - 1 has many divisors, and a few primes
KUMMER_FIELDS = [(2, 1), (2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (3, 1), (3, 2), (3, 4), (5, 1),
                 (5, 2), (7, 1), (7, 2), (11, 1), (13, 1), (31, 1)]


@st.composite
def admitted_kummer(draw):
    """(p, e, n) with gcd(n, p) = 1 and n * gcd(n, q - 1) <= 4096.  n is a
    divisor of q - 1 times a cofactor, so large unit-class counts come up,
    then stepped down to the nearest admitted value."""
    p, e = draw(st.sampled_from(KUMMER_FIELDS))
    q = p**e
    g = draw(st.sampled_from([d for d in range(1, q) if (q - 1) % d == 0]))
    n = g * draw(st.integers(1, max(1, 4096 // (g * g))))
    while n % p == 0 or n * math.gcd(n, q - 1) > 4096:
        n -= 1
    return p, e, n


@settings(max_examples=60)
@given(admitted_kummer())
def test_kummer_csv_is_the_frozen_census(case):
    p, e, n = case
    assert cli_stdout(kummer_csv_argv(p, e, n)) == schoolbook.count_kummer_csv(field(p, e), n)


def test_kummer_csv_of_the_largest_census_is_the_frozen_one():
    assert cli_stdout(kummer_csv_argv(2, 8, 255)) == schoolbook.count_kummer_csv(field(2, 8), 255)


@pytest.mark.parametrize("p, e, n", [(5, 1, 4), (7, 1, 12)])
def test_kummer_csv_with_the_oracle_is_the_frozen_census(p, e, n):
    stdout = cli_stdout(kummer_csv_argv(p, e, n, "--brute-force"))
    assert stdout == schoolbook.count_kummer_csv(field(p, e), n)


def count_as_argv(p, e, m, *extra):
    return ["count-as", "--p", str(p), "--e", str(e), "--max-break", str(m), "--format", "csv", *extra]


AS_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]


@st.composite
def admitted_as(draw):
    """(p, e, m) with at most 4096 classes: m drawn, then stepped down to
    the nearest admitted value."""
    p, e = draw(st.sampled_from(AS_FIELDS))
    m = draw(st.integers(0, 24))
    while as_class_count(field(p, e), m) > 4096:
        m -= 1
    return p, e, m


@settings(max_examples=40)
@given(admitted_as())
@example((2, 1, 16))  # the benchmark's sizes
@example((2, 2, 8))
def test_count_as_csv_is_the_frozen_census(case):
    p, e, m = case
    assert cli_stdout(count_as_argv(p, e, m)) == schoolbook.count_as_csv(field(p, e), m)


@pytest.mark.parametrize("p, e, m", [(2, 1, 2), (3, 1, 2), (2, 2, 1)])
def test_count_as_csv_with_the_oracle_is_the_frozen_census(p, e, m):
    stdout = cli_stdout(count_as_argv(p, e, m, "--brute-force"))
    assert stdout == schoolbook.count_as_csv(field(p, e), m)


def semidirect_argv(group, frame, m, *extra):
    spec = frame.spec
    return [
        "semidirect-enum", "--p", str(spec.p), "--e", str(spec.e), "--r", str(group.r),
        "--n", str(frame.n), "--psi", json.dumps([list(row) for row in group.psi]),
        "--q-exp", str(frame.q_exp), "--max-break", str(m), *extra,
    ]


@settings(max_examples=30)
@given(census_systems())
@example(reduced_system(3, 1, 1, 2, [[-1]], 1, 3))  # S_3 over F_3
@example(reduced_system(2, 2, 2, 3, [[0, 1], [1, 1]], 1, 1))  # A_4 over F_4
@example(reduced_system(3, 1, 2, 2, [[0, 1], [1, 0]], 1, 1))  # r = 2, coupled components
def test_semidirect_stdout_is_the_frozen_census(case):
    for fmt in ("json", "csv"):
        assert cli_stdout(semidirect_argv(*case, "--format", fmt)) == schoolbook.semidirect_enum_stdout(*case, fmt)


S3_CSV = semidirect_argv(SemidirectGroup.make(3, 1, 2, [[-1]]), TameFrame(field(3), 2, 1), 14, "--format", "csv")
F9_RANK_2_CSV = semidirect_argv(
    SemidirectGroup.make(3, 2, 2, [[-1, 0], [0, -1]]), TameFrame(field(3, 2), 2, 1), 4, "--format", "csv"
)


@pytest.mark.parametrize(
    "argv, rows, q",
    [
        (count_as_argv(2, 1, 16), 512, 2),
        (count_as_argv(2, 2, 8), 512, 4),
        (S3_CSV, 243, 3),
        (F9_RANK_2_CSV, 81, 9),
    ],
    ids=["count-as F_2 m=16", "count-as F_4 m=8", "S_3/F_3 m=14", "(Z/3)^2 x| C_2/F_9 m=4"],
)
def test_census_csv_builds_no_class_and_no_json_text_per_row(monkeypatch, argv, rows, q):
    calls = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(json, "dumps", counting("json.dumps", json.dumps))
    monkeypatch.setattr(ASCanonical, "__post_init__", counting("ASCanonical", ASCanonical.__post_init__))
    monkeypatch.setattr(GTorsorClass, "__init__", counting("GTorsorClass", GTorsorClass.__init__))
    assert cli_stdout(argv).count("\n") == rows + 1
    # json.dumps quotes each field element once, whatever the row count
    assert calls["ASCanonical"] == calls["GTorsorClass"] == 0
    assert calls["json.dumps"] <= q
    # the counters see the frozen path, one class and one text per row,
    # and the object view, one class per row
    calls.clear()
    schoolbook.count_as_csv(field(2), 3)
    assert calls == Counter({"json.dumps": 8, "ASCanonical": 8})
    calls.clear()
    ftk.enumerate_g_torsors(SemidirectGroup.make(3, 1, 2, [[-1]]), TameFrame(field(3), 2, 1), 7)
    assert calls["ASCanonical"] == calls["GTorsorClass"] == 27


def test_kummer_csv_builds_no_class_and_no_json_text(monkeypatch):
    calls = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(json, "dumps", counting("json.dumps", json.dumps))
    monkeypatch.setattr(KummerClass, "__post_init__", counting("KummerClass", KummerClass.__post_init__))
    assert cli_stdout(kummer_csv_argv(2, 8, 255)).count("\n") == 65026
    assert calls == Counter()
    # the counters see the frozen path: one class and one text per row
    schoolbook.count_kummer_csv(field(2, 2), 3)
    assert calls == Counter({"json.dumps": 9, "KummerClass": 9})


# count-kummer F_256 n = 255 as CSV to /dev/null; prints the peak RSS in
# kB before and after the op, the field's tables built first
KUMMER_CENSUS_PEAK = """
import resource, sys
from ftk.cli import main
from ftk.fields import field
field(2, 8)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert main(["count-kummer", "--p", "2", "--e", "8", "--n", "255", "--format", "csv"]) == 0
sys.stdout.flush()
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in kB")
def test_the_kummer_csv_census_holds_no_rows():
    # holding every class, its text and the sorted rows raised the peak by
    # about 36 MB; streamed, the rows leave it within a few MB
    env = dict(os.environ, PYTHONPATH=str(Path(ftk.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", KUMMER_CENSUS_PEAK], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    before, after = map(int, done.stderr.split())
    assert after - before < 12 * 1024


# count-as F_2 m = 30, 65536 classes, as CSV to /dev/null; prints the peak
# RSS in kB before and after the op, and the op's wall time in seconds
AS_CENSUS_PEAK = """
import resource, sys, time
from ftk.cli import main
from ftk.fields import field
field(2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
assert main(["count-as", "--p", "2", "--max-break", "30", "--format", "csv"]) == 0
sys.stdout.flush()
wall = time.perf_counter() - start
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, wall, file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in kB")
def test_the_largest_count_as_csv_census_streams():
    # building, dumping and sorting every class raised the peak by about
    # 173 MB and took 2.0 s; streamed, the rows leave it within a few MB
    env = dict(os.environ, PYTHONPATH=str(Path(ftk.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", AS_CENSUS_PEAK], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    before, after, wall = done.stderr.split()
    assert int(after) - int(before) < 32 * 1024
    assert float(wall) < 1


def test_a_closed_pipe_ends_the_census_quietly():
    # as in `ftk count-kummer ... --format csv | head -c 100`: the reader
    # goes after a few bytes.  That printed "error: [Errno 32] Broken pipe"
    # and exited 2; now nothing is printed and the exit code is 128 + SIGPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(ftk.__file__).parents[1]))
    argv = ["count-kummer", "--p", "2", "--e", "8", "--n", "255", "--format", "csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "ftk.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.read(100).startswith(b"break,aut_order,multiplicity,class\n")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert err == b""
    assert code == cli.EXIT_BROKEN_PIPE == 141


@pytest.mark.parametrize(
    "argv, count",
    [
        (["count-as", "--p", "2", "--max-break", "3"], 8),
        (["count-kummer", "--p", "2", "--e", "4", "--n", "15"], 225),
    ],
    ids=["count-as", "count-kummer"],
)
def test_json_count_builds_no_census_rows(capsys, monkeypatch, argv, count):
    def refuse(*args):
        raise AssertionError("census rows built for JSON output")

    for owner, name in CENSUS_GENERATORS:
        monkeypatch.setattr(owner, name, refuse)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["count"] == count


def test_count_kummer(capsys):
    code, out = run_cli(
        capsys, "count-kummer", "--p", "5", "--n", "4", "--brute-force"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 16 and payload["brute_force"] == 16
    validate("count-kummer", payload)


def test_semidirect_enum(capsys):
    code, out = run_cli(
        capsys,
        "semidirect-enum", "--p", "3", "--r", "1", "--n", "2",
        "--psi", "[-1]", "--q-exp", "1", "--break-bound", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert [row["aut_order"] for row in payload["classes"]] == [1, 1, 1]
    validate("semidirect-enum", payload)


def test_mass(capsys, tmp_path):
    path = tmp_path / "bg3.json"
    path.write_text(json.dumps(bg(FinGroup.cyclic(3)).to_json()))
    code, out = run_cli(capsys, "mass", "--groupoid", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"mass": "1/3"}
    validate("mass", payload)


def test_rigidify(capsys, tmp_path):
    gpath = tmp_path / "bz4.json"
    gpath.write_text(json.dumps(bg(FinGroup.cyclic(4)).to_json()))
    spath = tmp_path / "sub.json"
    spath.write_text(json.dumps({"*": ["0", "2"]}))
    code, out = run_cli(
        capsys, "rigidify", "--groupoid", str(gpath), "--subgroup", str(spath)
    )
    assert code == 0
    payload = json.loads(out)
    validate("rigidify", payload)
    assert len(payload["homs"]["*|*"]) == 2


RIGIDIFY_STDOUT = {
    "Z/4 by {0, 2}": (FinGroup.cyclic(4), ["0", "2"], '{"compose": {"*|*|*": {"(\'0\', \'2\')|(\'0\', \'2\')": "(\'0\', \'2\')", "(\'0\', \'2\')|(\'1\', \'3\')": "(\'1\', \'3\')", "(\'1\', \'3\')|(\'0\', \'2\')": "(\'1\', \'3\')", "(\'1\', \'3\')|(\'1\', \'3\')": "(\'0\', \'2\')"}}, "homs": {"*|*": ["(\'0\', \'2\')", "(\'1\', \'3\')"]}, "identities": {"*": "(\'0\', \'2\')"}, "objects": ["*"]}\n'),
    "Q8 by its centre": (FinGroup.quaternion(), ["1", "-1"], '{"compose": {"*|*|*": {"(\'-1\', \'1\')|(\'-1\', \'1\')": "(\'-1\', \'1\')", "(\'-1\', \'1\')|(\'-i\', \'i\')": "(\'-i\', \'i\')", "(\'-1\', \'1\')|(\'-j\', \'j\')": "(\'-j\', \'j\')", "(\'-1\', \'1\')|(\'-k\', \'k\')": "(\'-k\', \'k\')", "(\'-i\', \'i\')|(\'-1\', \'1\')": "(\'-i\', \'i\')", "(\'-i\', \'i\')|(\'-i\', \'i\')": "(\'-1\', \'1\')", "(\'-i\', \'i\')|(\'-j\', \'j\')": "(\'-k\', \'k\')", "(\'-i\', \'i\')|(\'-k\', \'k\')": "(\'-j\', \'j\')", "(\'-j\', \'j\')|(\'-1\', \'1\')": "(\'-j\', \'j\')", "(\'-j\', \'j\')|(\'-i\', \'i\')": "(\'-k\', \'k\')", "(\'-j\', \'j\')|(\'-j\', \'j\')": "(\'-1\', \'1\')", "(\'-j\', \'j\')|(\'-k\', \'k\')": "(\'-i\', \'i\')", "(\'-k\', \'k\')|(\'-1\', \'1\')": "(\'-k\', \'k\')", "(\'-k\', \'k\')|(\'-i\', \'i\')": "(\'-j\', \'j\')", "(\'-k\', \'k\')|(\'-j\', \'j\')": "(\'-i\', \'i\')", "(\'-k\', \'k\')|(\'-k\', \'k\')": "(\'-1\', \'1\')"}}, "homs": {"*|*": ["(\'-1\', \'1\')", "(\'-i\', \'i\')", "(\'-j\', \'j\')", "(\'-k\', \'k\')"]}, "identities": {"*": "(\'-1\', \'1\')"}, "objects": ["*"]}\n'),
}


@pytest.mark.parametrize("case", list(RIGIDIFY_STDOUT))
def test_rigidify_stdout_is_pinned(capsys, tmp_path, case):
    group, sub, want = RIGIDIFY_STDOUT[case]
    gpath, spath = tmp_path / "g.json", tmp_path / "sub.json"
    gpath.write_text(json.dumps(bg(group).to_json()))
    spath.write_text(json.dumps({"*": sub}))
    code, out = run_cli(capsys, "rigidify", "--groupoid", str(gpath), "--subgroup", str(spath))
    assert code == 0 and out == want


def _spoil(record, how):
    """A B(Z/4) record spoiled one way, as file text."""
    if how == "not JSON":
        return "{not json"
    if how == "no homs":
        del record["homs"]
    elif how == "hom key without |":
        record["homs"] = {"*": record["homs"]["*|*"]}
    elif how == "compose label without |":
        table = record["compose"]["*|*|*"]
        table["01"] = table.pop("0|1")
    elif how == "hom to an unlisted object":
        record["homs"]["*|ghost"] = ["0"]
    elif how == "identity at an unlisted object":
        record["identities"]["ghost"] = "0"
    elif how == "repeated label":
        record["homs"]["*|*"].append("3")
    elif how == "objects a string":
        record["objects"] = "*"
    elif how == "labels a string":
        record["homs"]["*|*"] = "0123"
    elif how == "identities a list":
        record["identities"] = [["*", "0"]]
    return json.dumps(record)


@pytest.mark.parametrize(
    "verb, how, code",
    [
        ("mass", "not JSON", 1),
        ("mass", "no homs", 2),
        ("mass", "hom key without |", 2),
        ("mass", "compose label without |", 2),
        ("mass", "hom to an unlisted object", 2),
        ("mass", "identity at an unlisted object", 2),
        ("mass", "repeated label", 2),
        ("mass", "objects a string", 2),
        ("mass", "labels a string", 2),
        ("mass", "identities a list", 2),
        ("rigidify", "not JSON", 1),
        ("rigidify", "no homs", 2),
    ],
)
def test_malformed_groupoid_file(capsys, tmp_path, verb, how, code):
    gpath, spath = tmp_path / "g.json", tmp_path / "sub.json"
    gpath.write_text(_spoil(bg(FinGroup.cyclic(4)).to_json(), how))
    spath.write_text(json.dumps({"*": ["0", "2"]}))
    argv = [verb, "--groupoid", str(gpath)] + (["--subgroup", str(spath)] if verb == "rigidify" else [])
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text, code",
    [('["0", "2"]', 2), ('{"*": [0, 2]}', 2), ("*: 0, 2", 1), ('{"*": ["0", "2"], "ghost": ["0"]}', 2)],
    ids=["a list", "integer labels", "not JSON", "an unlisted object"],
)
def test_malformed_subgroup_file(capsys, tmp_path, text, code):
    gpath, spath = tmp_path / "g.json", tmp_path / "sub.json"
    gpath.write_text(json.dumps(bg(FinGroup.cyclic(4)).to_json()))
    spath.write_text(text)
    assert main(["rigidify", "--groupoid", str(gpath), "--subgroup", str(spath)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_check_colim(capsys):
    code, out = run_cli(capsys, "check-colim", "--seed", "3", "--trials", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True and payload["trials"] == 8
    validate("check-colim", payload)


@pytest.mark.parametrize("trials", ["-3", str(cli.MAX_TRIALS + 1)], ids=["negative", "past the cap"])
def test_check_colim_refuses_a_trial_count_out_of_range(capsys, trials):
    assert main(["check-colim", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: --trials must lie in")


WIDE_WINDOWS = [
    ("as-canon", "--p", "2", "--series", "t^-1", "--prec", "300000000"),
    ("kummer-canon", "--p", "5", "--n", "2", "--series", "t^-400000000"),
    ("as-iso", "--p", "2", "--series", "t^-1", "--series2", "t^-1+t^200000000"),
]


def _limit_memory():
    # 1.5 GB of address space: a window allocated before the check would
    # end in a MemoryError traceback, not in a grind
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.mark.parametrize("argv", WIDE_WINDOWS, ids=lambda argv: argv[0])
def test_a_wide_window_is_refused_before_it_is_built(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(ftk.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "ftk.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=_limit_memory, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: series window too wide") and done.stderr.count("\n") == 1
    assert elapsed < 1


HIGH_COVERS = [
    ("t^300000000", "t^300000000"),
    ("t^300000000", "t^300000000 + t^299999999"),
]


@pytest.mark.parametrize("series, series2", HIGH_COVERS, ids=["equal", "one term apart"])
def test_a_high_cover_witness_costs_its_terms(series, series2):
    # each window is one or two coefficients; the covers' difference has no
    # term at or below t^0, so its witness starts at its valuation
    env = dict(os.environ, PYTHONPATH=str(Path(ftk.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "ftk.cli", "as-iso", "--p", "2", "--series", series, "--series2", series2],
        capture_output=True, text=True, env=env, preexec_fn=_limit_memory, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0 and done.stderr == ""
    assert elapsed < 1
    payload = json.loads(done.stdout)
    assert payload["isomorphic"] is True
    # u^p - u + c = d mod t^prec, coefficient by coefficient on the supports
    F2 = ftk.field(2)
    c, d = ftk.parse_series(series, F2), ftk.parse_series(series2, F2)
    prec = min(c.prec, d.prec)
    lhs = {}
    for k, a in ftk.parse_series(payload["witness"], F2).support().items():
        lhs[2 * k] = lhs.get(2 * k, F2.zero()) + a.frobenius()
        lhs[k] = lhs.get(k, F2.zero()) - a
    for k, a in c.support().items():
        lhs[k] = lhs.get(k, F2.zero()) + a
    for k, a in d.support().items():
        lhs[k] = lhs.get(k, F2.zero()) - a
    assert all(a.is_zero() for k, a in lhs.items() if k < prec)


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(capsys, "as-canon", "--p", "5", "--series", "t^")
    assert code == 1


def test_dangling_sign_exit_code(capsys):
    code = main(["as-canon", "--p", "2", "--series", "t^-3 +"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "empty summand (at offset 6)" in captured.err


@pytest.mark.parametrize("series", ["3*", "t + 2*", "3*+t"])
def test_dangling_star_exit_code(capsys, series):
    code = main(["as-canon", "--p", "5", "--series", series])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "expected 't'" in captured.err


@pytest.mark.parametrize(
    "series, offset",
    [("t^-²", 3), ("3²*t", 0), ("t^" + "1" * 4301, 2)],
    ids=["superscript exponent", "superscript coefficient", "4301 digits"],
)
def test_unreadable_integer_exit_code(capsys, series, offset):
    # int() refuses these runs of digits; a parse error, not a traceback
    code = main(["as-canon", "--p", "5", "--series", series])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"parse error: expected an integer (at offset {offset})\n"


def test_coefficient_not_in_ring_exit_code(capsys):
    code, _ = run_cli(capsys, "as-canon", "--p", "5", "--series", "g*t")
    assert code == 1


def test_domain_error_exit_code(capsys):
    code, _ = run_cli(capsys, "count-kummer", "--p", "5", "--n", "5")
    assert code == 2


def test_oracle_mismatch_exit_code(capsys, monkeypatch):
    import ftk.cli as cli_mod

    monkeypatch.setattr(cli_mod.oracles, "as_bruteforce_class_count", lambda s, m: 99)
    code, _ = run_cli(
        capsys, "count-as", "--p", "2", "--max-break", "1", "--brute-force"
    )
    assert code == 3


def test_semidirect_oracle_mismatch_prints_the_census(capsys, monkeypatch):
    # the JSON payload with the listed classes and the oracle's answer,
    # whatever the format, then exit 3
    monkeypatch.setattr(cli.oracles, "semidirect_bruteforce", lambda group, frame, m: (99, [1] * 99))
    code = main(["semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--psi", "[-1]", "--q-exp", "1",
                 "--max-break", "4", "--brute-force", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 3
    payload = json.loads(captured.out)
    assert payload["brute_force"] == {"count": 99, "aut_orders": [1] * 99}
    assert payload["count"] == len(payload["classes"]) == 3
    assert captured.err == "oracle mismatch: semidirect enumeration disagrees with oracle\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count-kummer", "--p", "2", "--e", "8", "--n", "255", "--brute-force"),
        ("count-as", "--p", "2", "--e", "8", "--max-break", "3", "--brute-force"),
    ],
    ids=["kummer F_256 n=255", "AS F_256 m=3"],
)
def test_oracle_beyond_its_bound_exit_code(capsys, argv):
    # F_256 with m = 3 has 256^4 window series: refused, not ground through
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: oracle scale exceeded: more than 262144 series or pairs\n"


class Enumerated(Exception):
    pass


@pytest.fixture
def no_census(monkeypatch):
    """Make every census generator raise Enumerated once its call returns:
    the call checks the census bound, and no row is walked."""

    def refusing(real):
        def refuse(*args):
            real(*args)
            raise Enumerated

        return refuse

    for owner, name in CENSUS_GENERATORS:
        monkeypatch.setattr(owner, name, refusing(getattr(owner, name)))


@pytest.mark.parametrize(
    "argv",
    [
        ("count-as", "--p", "2", "--e", "8", "--max-break", "3", "--brute-force"),
        ("count-kummer", "--p", "2", "--e", "8", "--n", "255", "--brute-force"),
        ("semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--psi", "[-1]",
         "--q-exp", "1", "--break-bound", "8", "--brute-force"),
    ],
    ids=["count-as", "count-kummer", "semidirect-enum"],
)
def test_oracle_refuses_before_the_census(capsys, no_census, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: oracle scale exceeded")


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("count-as", "--p", "2", "--e", "8", "--max-break", "3"),
         '{"brute_force": null, "count": 131072, "max_break": 3, "p": 2, "q": 256}\n'),
        (("count-as", "--p", "3", "--max-break", "40"),
         '{"brute_force": null, "count": %d, "max_break": 40, "p": 3, "q": 3}\n' % 3**28),
        (("count-kummer", "--p", "2", "--e", "8", "--n", "255"),
         '{"brute_force": null, "count": 65025, "n": 255, "q": 256}\n'),
    ],
    ids=["count-as F_256 m=3", "count-as F_3 m=40", "count-kummer F_256 n=255"],
)
def test_json_count_is_the_closed_form(capsys, no_census, argv, stdout):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == stdout


# semidirect-enum is bounded by its class count, not by its candidate
# space: S_3/F_3 at m = 31 has 11 odd prime-to-3 slots, 3^11 classes, and
# A_4/F_4 at m = 25 has 9 slots prime to 6, 4^9 classes
CENSUS_REFUSED = [
    ("count-as", "--p", "2", "--e", "8", "--max-break", "3", "--format", "csv"),
    ("count-kummer", "--p", "2", "--e", "9", "--n", "511", "--format", "csv"),
    ("semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--psi", "[-1]",
     "--q-exp", "1", "--max-break", "31"),
    ("semidirect-enum", "--p", "2", "--e", "2", "--r", "2", "--n", "3", "--psi",
     "[[0,1],[1,1]]", "--q-exp", "1", "--max-break", "25", "--format", "csv"),
]


@pytest.mark.parametrize("argv", CENSUS_REFUSED, ids=lambda argv: " ".join(argv[:7]))
def test_census_past_its_bound_is_refused_before_the_walk(capsys, no_census, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: census scale exceeded: more than 65536 classes to walk\n"


# the largest census walks of the tests and the benchmark
CENSUS_ADMITTED = [
    ("count-kummer", "--p", "2", "--e", "8", "--n", "255", "--format", "csv"),
    ("count-as", "--p", "2", "--e", "2", "--max-break", "8", "--format", "csv"),
    ("semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--psi", "[-1]",
     "--q-exp", "1", "--max-break", "7"),
    ("semidirect-enum", "--p", "5", "--r", "1", "--n", "4", "--psi", "[2]",
     "--q-exp", "1", "--max-break", "3"),
]


@pytest.mark.parametrize("argv", CENSUS_ADMITTED, ids=lambda argv: " ".join(argv[:7]))
def test_census_bound_admits_the_largest_walks(no_census, argv):
    with pytest.raises(Enumerated):
        main(list(argv))


@pytest.mark.parametrize(
    "p, e, r, n, psi, m",
    [
        (3, 1, 1, 2, [[-1]], 14),  # 3^11 candidate vectors, 3^5 classes
        (2, 2, 2, 3, [[0, 1], [1, 1]], 10),  # 2^22 candidate vectors, 4^3 classes
    ],
    ids=["S_3/F_3 m=14", "A_4/F_4 m=10"],
)
def test_census_bound_admits_by_the_class_count(capsys, p, e, r, n, psi, m):
    # both were refused while the bound counted every candidate vector
    code, out = run_cli(
        capsys, "semidirect-enum", "--p", str(p), "--e", str(e), "--r", str(r), "--n", str(n),
        "--psi", json.dumps(psi), "--q-exp", "1", "--max-break", str(m),
    )
    assert code == 0
    group = SemidirectGroup.make(p, r, n, psi)
    count = slot_class_count(group, TameFrame(field(p, e), n, 1), m)
    payload = json.loads(out)
    assert payload["count"] == len(payload["classes"]) == count


@pytest.mark.parametrize(
    "argv",
    [
        ("count-as", "--p", "2", "--max-break", "-1"),
        ("count-kummer", "--p", "5", "--n", "5"),
        ("count-kummer", "--p", "5", "--n", "0"),
        ("semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--psi", "[-1]",
         "--q-exp", "1", "--max-break", "-1"),
        ("semidirect-enum", "--p", "3", "--r", "0", "--n", "2", "--psi", "[]",
         "--q-exp", "1", "--max-break", "-1"),
    ],
    ids=["negative break", "wild n", "n = 0", "semidirect negative break", "rank 0 negative break"],
)
def test_bad_argument_has_one_message_with_and_without_the_oracle(capsys, argv):
    assert main(list(argv)) == 2
    plain = capsys.readouterr()
    assert main([*argv, "--brute-force"]) == 2
    checked = capsys.readouterr()
    assert plain.out == checked.out == ""
    assert plain.err == checked.err and plain.err.count("\n") == 1


SEMIDIRECT = ("semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--q-exp", "1", "--max-break", "1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (SEMIDIRECT + ("--psi", psi), "--psi must be a JSON matrix of integers")
        for psi in ("5", '{"a":1}', '["x"]', "null", "[[1.5]]")
    ]
    + [(("count-as", "--p", "2", "--e", "0", "--max-break", "1"), "extension degree must be >= 1")],
    ids=["5", "object", "string row", "null", "float", "e = 0"],
)
def test_malformed_argument_is_one_error_line(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err


def test_field_tables_bound_exit_code(capsys):
    # F_32768 is past the table bound; count-kummer needs no tables
    code = main(["as-canon", "--p", "2", "--e", "15", "--series", "t^-1 + 1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: field tables are limited to q <= 16384, got q = 32768\n"
    code, out = run_cli(capsys, "count-kummer", "--p", "2", "--e", "15", "--n", "7")
    assert code == 0
    assert json.loads(out)["count"] == 49


@pytest.mark.parametrize(
    "argv",
    [
        ("count-as", "--p", "2", "--e", "30", "--max-break", "0", "--format", "csv"),
        ("semidirect-enum", "--p", "2", "--e", "30", "--r", "1", "--n", "1", "--psi", "[1]", "--q-exp", "1",
         "--max-break", "0"),
    ],
    ids=["count-as", "semidirect-enum"],
)
def test_enumeration_past_the_table_bound_fails_fast(capsys, argv):
    # both listed all 2^30 elements of F_(2^30) for the transversal before
    # the table bound was checked, and ran past a 20 s timeout
    t0 = time.perf_counter()
    code = main(list(argv))
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: field tables are limited to q <= 16384, got q = 1073741824\n"


def test_large_characteristic_fails_fast(capsys):
    # p = 10^18 + 3 is prime and passes the primality test at once; trial
    # division never finished it
    t0 = time.perf_counter()
    code = main(["as-canon", "--p", "1000000000000000003", "--series", "t^-1"])
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: field tables are limited to q <= 16384, got q = 1000000000000000003\n"
    code = main(["count-kummer", "--p", str(2**64 + 13), "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: characteristic is limited to p < 2^64, got a 65-bit p\n"


def test_field_degree_bound_exit_code(capsys, monkeypatch):
    # F_{2^60} is found at once; a degree past the bound is refused before
    # the modulus search, which is patched to fail here
    code, out = run_cli(capsys, "count-kummer", "--p", "2", "--e", "60", "--n", "3")
    assert code == 0 and json.loads(out)["count"] == 9

    def refuse(*args):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr("ftk.fields._smallest_irreducible", refuse)
    code = main(["count-kummer", "--p", "2", "--e", "65", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: extension degree is limited to e <= 64, got e = 65\n"


def test_q_flag_consistency(capsys):
    code, _ = run_cli(capsys, "count-as", "--p", "2", "--q", "6", "--max-break", "1")
    assert code == 2


def test_json_keys_sorted(capsys):
    _, out = run_cli(capsys, "kummer-canon", "--p", "5", "--n", "4", "--series", "1")
    keys = list(json.loads(out).keys())
    assert keys == sorted(keys)


def test_output_newline_terminated(capsys):
    _, out = run_cli(capsys, "as-canon", "--p", "2", "--series", "1")
    assert out.endswith("\n")


FIELD = {"--p", "--e", "--q"}
VERB_FLAGS = {
    "as-canon": FIELD | {"--prec", "--series"},
    "as-iso": FIELD | {"--prec", "--series", "--series2"},
    "kummer-canon": FIELD | {"--prec", "--series", "--n"},
    "kummer-iso": FIELD | {"--prec", "--series", "--series2", "--n"},
    "count-as": FIELD | {"--format", "--max-break", "--brute-force"},
    "count-kummer": FIELD | {"--format", "--n", "--brute-force"},
    "semidirect-enum": FIELD | {
        "--format", "--r", "--n", "--psi", "--q-exp",
        "--max-break", "--break-bound", "--brute-force",
    },
    "mass": {"--groupoid"},
    "rigidify": {"--groupoid", "--subgroup"},
    "check-colim": {"--seed", "--trials"},
    "selftest": {"--format"},
}


def test_each_verb_accepts_only_the_flags_it_reads():
    (verbs,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = {
        verb: {
            flag
            for action in sp._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        for verb, sp in verbs.choices.items()
    }
    assert found == VERB_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ["as-canon", "--p", "2", "--series", "t^-3", "--seed", "5"],
        ["as-canon", "--p", "2", "--series", "t^-3", "--format", "csv"],
        ["semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--psi", "[-1]",
         "--q-exp", "1", "--max-break", "1", "--prec", "40"],
    ],
    ids=["seed", "format", "semidirect-prec"],
)
def test_retired_flag_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err



# two count-kummer F_256 n = 255 censuses in one process, each read back
# into rows as a caller parsing the CSV would; prints the peak RSS in kB
# after each
REPEATED_CENSUS = """
import contextlib, csv, io, json, resource
from ftk.cli import main
argv = ["count-kummer", "--p", "2", "--e", "8", "--n", "255", "--format", "csv"]
for _ in range(2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    table = list(csv.reader(io.StringIO(out.getvalue())))
    rows = [(int(b), int(a), int(m), json.loads(c)) for b, a, m, c in table[1:]]
    assert len(rows) == 65025
    del out, table, rows
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(os.confstr("CS_GNU_LIBC_VERSION") is None, reason="pins glibc's malloc only")
def test_a_second_census_in_one_process_peaks_like_the_first():
    # with glibc's dynamic mmap threshold the second census built its
    # buffers on the brk heap and peaked about 18 MB higher
    env = dict(os.environ, PYTHONPATH=str(Path(ftk.__file__).parents[1]))
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    done = subprocess.run(
        [sys.executable, "-c", REPEATED_CENSUS], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    first, second = map(int, done.stdout.split())
    assert second - first < 4096
