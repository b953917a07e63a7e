import argparse
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import ftk
from ftk import cli
from ftk.cli import build_parser, main
from ftk.groupoids import FinGroup, bg


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(verb, payload):
    schema_text = (
        resources.files("ftk") / "schemas" / f"{verb}.schema.json"
    ).read_text()
    jsonschema.validate(payload, json.loads(schema_text))


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


@pytest.mark.parametrize(
    "argv, count",
    [
        (["count-as", "--p", "2", "--max-break", "3"], 8),
        (["count-kummer", "--p", "2", "--e", "4", "--n", "15"], 225),
    ],
    ids=["count-as", "count-kummer"],
)
def test_json_count_builds_no_census_rows(capsys, monkeypatch, argv, count):
    def refuse(entries):
        raise AssertionError("census rows built for JSON output")

    monkeypatch.setattr(cli, "_census_rows", refuse)
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
    """Make every census enumerator raise Enumerated."""

    def refuse(*args):
        raise Enumerated

    for name in ("enumerate_as_classes", "enumerate_kummer_classes", "enumerate_g_torsors"):
        monkeypatch.setattr(cli, name, refuse)


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


CENSUS_REFUSED = [
    ("count-as", "--p", "2", "--e", "8", "--max-break", "3", "--format", "csv"),
    ("count-kummer", "--p", "2", "--e", "9", "--n", "511", "--format", "csv"),
    ("semidirect-enum", "--p", "3", "--r", "1", "--n", "2", "--psi", "[-1]",
     "--q-exp", "1", "--max-break", "14"),
    ("semidirect-enum", "--p", "2", "--e", "2", "--r", "2", "--n", "3", "--psi",
     "[[0,1],[1,1]]", "--q-exp", "1", "--max-break", "10", "--format", "csv"),
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

