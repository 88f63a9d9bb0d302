"""The command-line interface: exit codes, report shape, determinism,
and the argv grammar."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
from loccat.cli import main, parse_args

SRC = Path(__file__).resolve().parent.parent / "src"

E2_FUN = corpus.fun_path("E2")
E6_FUN = corpus.fun_path("E6")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestValidate:
    def test_good_files_exit_zero(self, capsys):
        code, rep = run_json(capsys, "validate", corpus.cat_path("E1"),
                             corpus.fun_path("E7"))
        assert code == 0
        assert rep["schema"] == "loccat-report/1"
        assert rep["result"]["ok"] is True
        kinds = [f["kind"] for f in rep["result"]["files"]]
        assert kinds == ["category", "functor"]

    def test_invalid_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.cat.json"
        bad.write_text(json.dumps({
            "objects": ["a"],
            "generators": [{"name": "u", "src": "a", "dst": "zzz"}],
            "relations": [],
            "denominators": {"words": [], "include_identities": True,
                             "close_under_composition": False}}))
        code, rep = run_json(capsys, "validate", str(bad))
        assert code == 2
        assert rep["result"]["ok"] is False

    def test_unparseable_file_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "broken.cat.json"
        bad.write_text("{")
        code, rep = run_json(capsys, "validate", str(bad))
        assert code == 3
        assert rep["error"]["kind"] == "parse"


class TestLocalise:
    def test_report_shape(self, capsys):
        code, rep = run_json(capsys, "localise", corpus.cat_path("E2"))
        assert code == 0
        res = rep["result"]
        assert res["status"] == "complete"
        assert res["inverse_generators"] == {"d": "d^-1"}
        assert [g["name"] for g in res["localised"]["generators"]] == \
            ["d", "d^-1"]
        # every denominator is attested with a two-sided inverse
        assert [e["denominator"]["letters"] for e in res["denominators"]] == \
            [[], ["d"], []]

    def test_fresh_generators_reported(self, capsys):
        code, rep = run_json(capsys, "localise", corpus.cat_path("E8"))
        assert code == 0
        assert rep["result"]["fresh_generators"] == {"⟨d·e⟩": ["d", "e"]}


class TestHomset:
    def test_base_homset(self, capsys):
        code, rep = run_json(capsys, "homset", corpus.cat_path("E3C"),
                             "--src", "X0", "--dst", "X1")
        assert code == 0
        assert rep["result"]["words"] == [["f1"], ["f2"]]

    def test_localised_homset_has_zigzags(self, capsys):
        code, rep = run_json(capsys, "homset", corpus.cat_path("E2"),
                             "--src", "b", "--dst", "a", "--localised")
        assert code == 0
        assert rep["result"]["words"] == [["d^-1"]]
        assert rep["result"]["zigzags"] == ["(d)^-1"]

    def test_homset_cap_exits_four(self, capsys):
        code, rep = run_json(capsys, "homset", corpus.cat_path("E5"),
                             "--src", "•", "--dst", "•",
                             "--limits-homset", "1")
        assert code == 4
        assert rep["error"]["kind"] == "undecided"

    def test_unknown_object_exits_two(self, capsys):
        code, rep = run_json(capsys, "homset", corpus.cat_path("E5"),
                             "--src", "nope", "--dst", "•")
        assert code == 2


class TestCheck:
    def test_verdict_true_exits_zero(self, capsys):
        code, rep = run_json(capsys, "check", "s-dense", E2_FUN)
        assert code == 0
        assert rep["result"]["verdict"] is True

    def test_verdict_false_exits_one_with_witness(self, capsys):
        code, rep = run_json(capsys, "check", "s-faithful",
                             corpus.fun_path("E3"))
        assert code == 1
        w = rep["result"]["witness"]
        assert w["kind"] == "distinct-fills"
        assert w["first"]["letters"] == ["f1"]
        assert w["second"]["letters"] == ["f2"]

    def test_category_checks(self, capsys):
        code, rep = run_json(capsys, "check", "multiplicative",
                             corpus.cat_path("E6"))
        assert code == 1
        assert rep["result"]["witness"]["kind"] == "identity-not-denominator"
        code2, rep2 = run_json(capsys, "check", "isosaturated",
                               corpus.cat_path("E7D"))
        assert code2 == 0

    def test_kind_mismatch_exits_two(self, capsys):
        code, rep = run_json(capsys, "check", "s-dense",
                             corpus.cat_path("E2"))
        assert code == 2

    def test_seeded_inverse_decides_at_two_rules(self, capsys):
        # E5 is d.d = 1: with the seeded d^-1 = d its localisation
        # completes within two rules, so the verdict is decided
        code, rep = run_json(capsys, "check", "s-faithful", corpus.fun_path("E5"),
                             "--limits-rules", "2")
        assert code == 0
        assert rep["result"]["verdict"] is True
        assert rep["result"]["decidability_status"] == "complete"

    def test_bounds_recorded_in_report(self, capsys):
        code, rep = run_json(capsys, "check", "s-dense", E2_FUN,
                             "--limits-word-len", "12")
        assert code == 0
        assert rep["limits"]["max_word_len"] == 12
        assert rep["result"]["bounds_used"]["max_word_len"] == 12


def test_construction_error_is_a_report(capsys):
    # a rule bound of 3 leaves the target localisation without an inverse
    # of F(e); the failure is reported, never a traceback
    code, rep = run_json(capsys, "verify-approximation", E6_FUN,
                         "--limits-rules", "3")
    assert code == 2
    assert rep["error"] == {
        "kind": "construction",
        "message": "image of denominator 'e' has no inverse in the target "
                   "localisation"}
    assert "result" not in rep


class TestVerifyApproximation:
    def test_passing_run_exits_zero(self, capsys):
        for name in ("E2", "E5", "E7"):
            code, rep = run_json(capsys, "verify-approximation",
                                 corpus.fun_path(name))
            assert code == 0, name
            assert rep["result"]["ok"] is True
            assert rep["result"]["decidability_status"] == "complete"

    def test_non_multiplicative_exits_two_before_any_section(self, capsys):
        code, rep = run_json(capsys, "verify-approximation", E6_FUN)
        assert code == 2
        assert rep["error"]["kind"] == "precondition"
        assert rep["error"]["witness"] == {
            "kind": "identity-not-denominator", "object": "a",
            "word": {"src": "a", "dst": "a", "letters": []}}
        assert "result" not in rep

    def test_choice_from_file_adds_comparison(self, capsys):
        code, rep = run_json(capsys, "verify-approximation",
                             corpus.fun_path("E7b"),
                             "--choice", "from-file",
                             str(corpus.FIXTURES / "E7b-alt.choice.json"))
        assert code == 0
        names = [s["name"] for s in rep["result"]["sections"]]
        assert names[-1] == "choice_independence"

    def test_experimental_flag_changes_failure(self, capsys):
        code, rep = run_json(capsys, "verify-approximation", E6_FUN,
                             "--experimental-no-mult")
        assert code == 2
        assert rep["error"]["witness"]["kind"] == "object-without-replacement"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        outs = set()
        for _ in range(3):
            _, out = run_cli(capsys, "verify-approximation",
                             corpus.fun_path("E7"))
            outs.add(out)
        assert len(outs) == 1

    def test_reports_end_with_newline(self, capsys):
        _, out = run_cli(capsys, "localise", corpus.cat_path("E1"))
        assert out.endswith("}\n")

    def test_console_script_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "loccat.cli", "check", "s-full", E2_FUN],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["verdict"] is True

    @pytest.mark.parametrize("argv", [
        ("verify-approximation", corpus.fun_path("E7")),
        ("check", "s-faithful", corpus.fun_path("E3")),
        ("homset", corpus.cat_path("E7bD"), "--src", "tl", "--dst", "z"),
    ])
    def test_same_report_under_optimize_flag(self, argv):
        # no check may live in an assert, which -O strips
        runs = [subprocess.run([sys.executable, *flags, "-m", "loccat.cli", *argv],
                               capture_output=True)
                for flags in ((), ("-O",))]
        assert runs[0].stdout
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode

    def test_no_assert_statement_in_package(self):
        src = Path(__file__).resolve().parent.parent / "src" / "loccat"
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_deciders_built_only_by_the_accessor(self):
        # every other caller asks rewrite.denominators, which keeps the
        # decider on its system
        src = Path(__file__).resolve().parent.parent / "src" / "loccat"
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # ast.walk visits outer functions first, so the innermost wins
            owner = {id(node): fn.name for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)}
            found += [f"{path.name}:{owner.get(id(node))}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and "DenomDecider" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))]
        assert found == ["rewrite.py:denominators"]

    def test_limits_taken_only_where_systems_are_built(self):
        # every query and construction over a system reads rs.limits;
        # limits enter only where a system is completed
        src = Path(__file__).resolve().parent.parent / "src" / "loccat"
        found = sorted(
            f"{path.stem}.{node.name}"
            for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)
            and "limits" in [a.arg for a in node.args.args + node.args.kwonlyargs])
        assert found == [
            "approximation.verify_approximation",
            "cli._emit", "cli.cmd_check", "cli.cmd_homset", "cli.cmd_localise",
            "cli.cmd_validate", "cli.cmd_verify_approximation",
            "equivalence.check_s_dense", "equivalence.check_s_equivalence",
            "equivalence.check_s_faithful", "equivalence.check_s_full",
            "equivalence.prepare", "rewrite.complete"]


class TestLimitsProfile:
    def test_profile_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCCAT_LIMITS_PROFILE", "small")
        code, rep = run_json(capsys, "localise", corpus.cat_path("E1"))
        assert code == 0
        assert rep["limits"] == {"max_word_len": 8, "max_rules": 128,
                                 "max_homset": 256}

    def test_unknown_profile_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCCAT_LIMITS_PROFILE", "bogus")
        code, rep = run_json(capsys, "localise", corpus.cat_path("E1"))
        assert code == 2
        assert rep["error"]["kind"] == "validation"

    def test_flag_overrides_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCCAT_LIMITS_PROFILE", "small")
        code, rep = run_json(capsys, "localise", corpus.cat_path("E1"),
                             "--limits-rules", "99")
        assert code == 0
        assert rep["limits"]["max_rules"] == 99
        assert rep["limits"]["max_word_len"] == 8


class TestTextFormat:
    def test_flat_text_output(self, capsys):
        code, out = run_cli(capsys, "check", "s-dense", E2_FUN,
                            "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("result.verdict") for line in lines)


# Every spelling used by the README, the tests and the benchmark
# workloads, with the handler fields it must yield.
GRAMMAR_CASES = [
    (["validate", "a.cat.json"],
     {"command": "validate", "paths": ["a.cat.json"]}),
    (["validate", "a.cat.json", "b.fun.json", "--format", "text"],
     {"paths": ["a.cat.json", "b.fun.json"], "format": "text"}),
    (["localise", "E5.cat.json"],
     {"command": "localise", "path": "E5.cat.json", "format": "json",
      "limits_word_len": None, "limits_rules": None, "limits_homset": None}),
    (["localise", "E1.cat.json", "--limits-rules", "0"], {"limits_rules": 0}),
    (["homset", "E7D.cat.json", "--src", "bl", "--dst", "tr", "--localised"],
     {"command": "homset", "path": "E7D.cat.json", "src": "bl", "dst": "tr",
      "localised": True}),
    (["homset", "--src", "tl", "E7bD.cat.json", "--dst", "z",
      "--limits-rules", "1"],
     {"path": "E7bD.cat.json", "src": "tl", "dst": "z", "localised": False,
      "limits_rules": 1}),
    (["homset", "D8.cat.json", "--src", "o", "--dst", "o", "--localised",
      "--limits-word-len", "9"],
     {"localised": True, "limits_word_len": 9}),
    (["homset", "E5.cat.json", "--src=•", "--dst=•", "--limits-homset=1"],
     {"src": "•", "dst": "•", "limits_homset": 1}),
    (["check", "s-faithful", "E3.fun.json"],
     {"command": "check", "which": "s-faithful", "path": "E3.fun.json"}),
    (["check", "s-dense", "E2.fun.json", "--limits-word-len", "12"],
     {"which": "s-dense", "limits_word_len": 12}),
    (["check", "--format", "text", "axioms", "E6.cat.json"],
     {"which": "axioms", "path": "E6.cat.json", "format": "text"}),
    (["verify-approximation", "E7.fun.json"],
     {"command": "verify-approximation", "path": "E7.fun.json",
      "choice": None, "experimental_no_mult": False}),
    (["verify-approximation", "E7.fun.json", "--choice", "auto"],
     {"choice": ["auto"]}),
    (["verify-approximation", "E7b.fun.json", "--choice", "from-file",
      "E7b-alt.choice.json", "--limits-rules", "2"],
     {"path": "E7b.fun.json", "choice": ["from-file", "E7b-alt.choice.json"],
      "limits_rules": 2}),
    (["verify-approximation", "E6.fun.json", "--experimental-no-mult"],
     {"experimental_no_mult": True}),
]


@pytest.mark.parametrize("argv,fields", GRAMMAR_CASES)
def test_grammar_spellings(argv, fields):
    args = vars(parse_args(argv))
    assert {k: args[k] for k in fields} == fields


E5_CAT = corpus.cat_path("E5")
USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["bogus", E5_CAT],
    "unknown flag": ["localise", E5_CAT, "--bogus"],
    "abbreviated flag": ["localise", E5_CAT, "--limits-r", "3"],
    "missing --src": ["homset", E5_CAT, "--dst", "•"],
    "non-integer bound": ["localise", E5_CAT, "--limits-rules", "abc"],
    "negative bound": ["homset", E5_CAT, "--src", "•", "--dst", "•",
                       "--limits-rules", "-1"],
    "unknown check": ["check", "bogus", E5_CAT],
    "unknown format": ["localise", E5_CAT, "--format", "xml"],
    "validate without a path": ["validate"],
    "--choice without a value": ["verify-approximation", E6_FUN, "--choice"],
    "value on a flag": ["homset", E5_CAT, "--src", "•", "--dst", "•",
                        "--localised=yes"],
    "extra positional": ["localise", E5_CAT, E5_CAT],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: loccat ")
    assert [line for line in lines if line.startswith("loccat: error: ")] \
        == lines[1:2]
    assert len(lines) == 2


def test_zero_bound_is_allowed(capsys):
    code, rep = run_json(capsys, "homset", E5_CAT, "--src", "•", "--dst", "•",
                         "--limits-rules", "0")
    assert code == 4
    assert rep["limits"]["max_rules"] == 0


COMMON_FLAGS = ("--limits-word-len", "--limits-rules", "--limits-homset",
                "--format")
COMMAND_WORDS = {
    "validate": (),
    "localise": (),
    "homset": ("--src", "--dst", "--localised"),
    "check": ("multiplicative", "isosaturated", "axioms", "s-dense",
              "s-full", "s-faithful", "s-equivalence",
              "reflects-denominators"),
    "verify-approximation": ("--choice", "from-file",
                             "--experimental-no-mult"),
}


def _help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_help_names_every_command_and_option(capsys):
    out = _help_text(capsys, ["-h"])
    assert out == _help_text(capsys, ["--help"])
    for command, words in COMMAND_WORDS.items():
        for word in (command, *words, *COMMON_FLAGS):
            assert word in out


@pytest.mark.parametrize("command", COMMAND_WORDS)
def test_command_help(capsys, command):
    out = _help_text(capsys, [command, "-h"])
    assert out.startswith(f"usage: loccat {command} ")
    for word in (*COMMAND_WORDS[command], *COMMON_FLAGS, "--help"):
        assert word in out
    others = set(COMMAND_WORDS) - {command}
    assert not any(f"loccat {other} " in out for other in others)


def _run_module(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


MODULE_PROBE = """
import contextlib, io, json, sys
import loccat.cli
loaded = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [loccat.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "new": sorted(set(sys.modules) - loaded),
                  "argparse": "argparse" in loaded,
                  "gettext": "gettext" in loaded}))
"""


def test_commands_import_nothing():
    # a command that imports a module pays for it in every cold process
    argvs = [
        ["validate", corpus.cat_path("E1"), corpus.fun_path("E7")],
        ["localise", corpus.cat_path("E8")],
        ["homset", corpus.cat_path("E2"), "--src", "b", "--dst", "a",
         "--localised", "--format", "text"],
        ["check", "s-faithful", corpus.fun_path("E3")],
        ["verify-approximation", corpus.fun_path("E7")],
    ]
    proc = _run_module("-c", MODULE_PROBE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 1, 0], "new": [],
                                       "argparse": False, "gettext": False}


@pytest.mark.parametrize("argv,code", [
    (["check", "s-full", E2_FUN], 0),
    (["check", "s-faithful", corpus.fun_path("E3")], 1),
    (["verify-approximation", E6_FUN, "--limits-rules", "3"], 2),
    (["localise"], 2),
    (["validate", str(corpus.FIXTURES / "missing.cat.json")], 3),
    (["homset", E5_CAT, "--src", "•", "--dst", "•", "--limits-homset", "1"],
     4),
], ids=["holds", "fails", "construction", "usage", "unreadable", "undecided"])
def test_exit_code_through_module(argv, code):
    proc = _run_module("-m", "loccat.cli", *argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if argv == ["localise"]:
        assert proc.stdout == ""
    else:
        assert json.loads(proc.stdout)["schema"] == "loccat-report/1"
