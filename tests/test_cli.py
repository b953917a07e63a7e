import argparse
import json
from importlib import resources

import jsonschema
import pytest

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


def test_check_colim(capsys):
    code, out = run_cli(capsys, "check-colim", "--seed", "3", "--trials", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True and payload["trials"] == 8
    validate("check-colim", payload)


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(capsys, "as-canon", "--p", "5", "--series", "t^")
    assert code == 1


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
        "--prec", "--format", "--r", "--n", "--psi", "--q-exp",
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
    "extra", [["--seed", "5"], ["--format", "csv"]], ids=["seed", "format"]
)
def test_retired_flag_is_refused(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["as-canon", "--p", "2", "--series", "t^-3", *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

