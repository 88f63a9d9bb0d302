"""The command-line interface: exit codes, report shape, determinism,
and the argv grammar."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from loccat import cli, fileio, gz, rewrite
from loccat.cli import main, parse_args
from loccat.equivalence import prepare
from loccat.fileio import load_functor
from loccat.presentation import ConstructionError

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


def _run_module(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


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

    @staticmethod
    def validate_functor_file(capsys, tmp_path, object_map, generator_map):
        """``loccat validate`` on a functor from a category with objects
        ``a, b`` and one generator ``u: a -> b`` to itself."""
        (tmp_path / "c.cat.json").write_text(json.dumps({
            "objects": ["a", "b"],
            "generators": [{"name": "u", "src": "a", "dst": "b"}],
            "relations": [],
            "denominators": {"words": [], "include_identities": True,
                             "close_under_composition": True}}))
        (tmp_path / "f.fun.json").write_text(json.dumps({
            "source": "c.cat.json", "target": "c.cat.json",
            "object_map": object_map, "generator_map": generator_map}))
        code, rep = run_json(capsys, "validate", str(tmp_path / "f.fun.json"))
        row, = rep["result"]["files"]
        return code, [problem["kind"] for problem in row.get("problems", ())]

    @pytest.mark.parametrize("object_map,kind", [
        ({"a": "a"}, "object-not-mapped"),
        ({"a": "a", "b": "zzz"}, "object-image-unknown"),
        ({"a": "a", "b": "b", "c": "a"}, "object-map-extra-key"),
    ])
    def test_bad_object_map_is_a_problem(self, capsys, tmp_path, object_map,
                                         kind):
        code, kinds = self.validate_functor_file(
            capsys, tmp_path, object_map, {"u": ["u"]})
        assert code == 2
        # the generator touching the bad object is not reported again
        assert kinds == [kind]

    @pytest.mark.parametrize("image_of_b,code,kinds", [
        ("a", 0, []),           # u goes to the identity of a
        ("b", 2, ["invalid"]),  # an identity cannot run from a to b
    ])
    def test_empty_generator_image(self, capsys, tmp_path, image_of_b, code,
                                   kinds):
        assert self.validate_functor_file(
            capsys, tmp_path, {"a": "a", "b": image_of_b}, {"u": []}) \
            == (code, kinds)


@pytest.mark.parametrize("argv,names", [
    (("check", "axioms", corpus.cat_path("E1")), ["E1.cat.json"]),
    (("check", "s-equivalence", corpus.fun_path("E7")),
     ["E7.fun.json", "E7C.cat.json", "E7D.cat.json"]),
    (("validate", corpus.cat_path("E1"), corpus.fun_path("E7")),
     ["E1.cat.json", "E7.fun.json", "E7C.cat.json", "E7D.cat.json"]),
    (("verify-approximation", corpus.fun_path("E7b"), "--choice", "from-file",
      str(corpus.FIXTURES / "E7b-alt.choice.json")),
     ["E7b.fun.json", "E7C.cat.json", "E7bD.cat.json", "E7b-alt.choice.json"]),
])
def test_each_input_read_once(capsys, monkeypatch, argv, names):
    # a file is read once in each role it plays: the kind of a validated
    # or checked file is told from the object its loader reads
    read, read_json = [], fileio.read_json

    def counted(path):
        read.append(Path(path).name)
        return read_json(path)

    for module in (cli, fileio):
        monkeypatch.setattr(module, "read_json", counted)
    main(list(argv))
    capsys.readouterr()
    assert sorted(read) == sorted(names)


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

    def test_localised_status_is_the_listed_systems(self, capsys, tmp_path):
        # E2 beside a free loop on z: one rule completes the category,
        # but not its localisation, whose coset tables answer a -> b; the
        # loop leaves z infinitely many morphisms, so z's does not close
        path = tmp_path / "loop.cat.json"
        path.write_text(json.dumps({
            "objects": ["a", "b", "z"],
            "generators": [{"name": "d", "src": "a", "dst": "b"},
                           {"name": "l", "src": "z", "dst": "z"}],
            "relations": [],
            "denominators": {"words": [["d"]], "include_identities": True,
                             "close_under_composition": True}}), encoding="utf-8")
        query = ("homset", str(path), "--src", "a", "--dst", "b", "--limits-rules", "1")
        _, base = run_json(capsys, *query)
        code, rep = run_json(capsys, *query, "--localised")
        assert base["result"]["status"] == "complete"
        assert code == 0
        assert rep["result"]["status"] == "complete"
        assert rep["result"]["count"] == 1
        code, rep = run_json(capsys, "homset", str(path), "--src", "z", "--dst", "z",
                             "--limits-rules", "1", "--localised")
        assert code == 4
        assert rep["error"]["kind"] == "undecided"

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

    def test_unknown_object_is_rejected_before_completion(self, capsys,
                                                          monkeypatch):
        import loccat.cli
        calls, present = [], loccat.cli.present
        monkeypatch.setattr(loccat.cli, "present",
                            lambda *a: calls.append(a) or present(*a))
        code, rep = run_json(capsys, "homset", corpus.cat_path("E5"),
                             "--src", "•", "--dst", "nope")
        assert code == 2
        assert rep["error"]["kind"] == "validation"
        assert calls == []


class TestTruncatedRuns:
    """Finite categories whose completion a rule bound cuts short are
    answered by coset enumeration, as the default limits answer them."""

    @pytest.mark.parametrize("rules", range(7))
    def test_dihedral_six_has_twelve_elements(self, capsys, tmp_path, rules):
        # a^6 = 1, b.b = 1, b.a.b = a^5; bounds 0-4 were undecided, and 5
        # listed 13 normal forms
        path = tmp_path / "D6.cat.json"
        path.write_text(json.dumps(corpus.cat_data(
            ["o"], [("a", "o", "o"), ("b", "o", "o")],
            [("a" * 6, ""), ("bb", ""), ("bab", "a" * 5)])), encoding="utf-8")
        code, rep = run_json(capsys, "homset", str(path), "--src", "o", "--dst", "o",
                             "--limits-rules", str(rules))
        assert code == 0
        assert rep["result"]["count"] == 12
        assert rep["result"]["status"] == "complete"

    def test_one_rule_does_not_split_a_morphism(self, capsys):
        # one rule left two normal forms of E7bD's one morphism tl -> z
        code, rep = run_json(capsys, "homset", corpus.cat_path("E7bD"), "--src", "tl",
                             "--dst", "z", "--limits-rules", "1")
        assert code == 0
        assert rep["result"]["count"] == 1

    def test_four_rules_decide_s_full(self, capsys):
        code, rep = run_json(capsys, "check", "s-full", corpus.fun_path("E7b"),
                             "--limits-rules", "4")
        assert code == 0
        assert rep["result"]["verdict"] is True
        assert rep["result"]["decidability_status"] == "complete"

    def test_localise_reports_the_completion(self, capsys):
        # E2's localisation needs more than one rule: the truncated run
        # is discarded, the report gives the rules the coset tables read
        # off, those of the complete run, and the enumeration finds the
        # inverse of d
        code, rep = run_json(capsys, "localise", corpus.cat_path("E2"), "--limits-rules", "1")
        lc = gz.localise(rewrite.complete(corpus.cat("E2")))
        one_rule = rewrite.ResourceLimits(max_rules=1)
        assert not rewrite.complete(lc.presentation, one_rule).is_complete
        assert code == 0
        assert rep["result"]["status"] == "complete"
        spell = lc.presentation.codec[1].__getitem__
        assert rep["result"]["rules"] == [
            {"lhs": list(map(spell, lhs)), "rhs": list(map(spell, rhs))}
            for lhs, rhs in lc.rs.rules]
        inverses = {d["denominator"]["letters"][0]: d["inverse"]["letters"]
                    for d in rep["result"]["denominators"] if d["denominator"]["letters"]}
        assert inverses == {"d": ["d^-1"]}

    def test_localise_under_one_rule_reports_the_default_rules(self, capsys):
        # one rule cuts E7bD's localisation short; the report is the
        # default-limit one in all but its limits
        code, tight = run_json(capsys, "localise", corpus.cat_path("E7bD"),
                               "--limits-rules", "1")
        assert code == 0
        code, want = run_json(capsys, "localise", corpus.cat_path("E7bD"))
        assert code == 0
        assert tight["result"]["status"] == "complete"
        assert tight["result"] == want["result"]
        assert tight["limits"] != want["limits"]


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


def test_construction_error_is_a_report(capsys, monkeypatch):
    # no input is known to reach a ConstructionError: each one guards an
    # invariant of decided systems.  Raised inside a command, it is
    # reported, never a traceback
    def fail(*args, **kwargs):
        raise ConstructionError("image of denominator 'e' has no inverse in the "
                                "target localisation")

    monkeypatch.setattr(cli, "verify_approximation", fail)
    code, rep = run_json(capsys, "verify-approximation", E6_FUN)
    assert code == 2
    assert rep["error"] == {
        "kind": "construction",
        "message": "image of denominator 'e' has no inverse in the target "
                   "localisation"}
    assert "result" not in rep


def test_truncated_target_localisation_still_has_the_inverse(capsys):
    # a rule bound of 3 truncates the completion of E6's target
    # localisation; its enumeration finds the inverse of F(e), so the run
    # stops where the default limits stop it, at the precondition
    code, rep = run_json(capsys, "verify-approximation", E6_FUN,
                         "--limits-rules", "3")
    assert code == 2
    assert rep["error"]["kind"] == "precondition"
    assert rep["error"]["witness"]["kind"] == "identity-not-denominator"
    assert rep == run_json(capsys, "verify-approximation", E6_FUN)[1] | {
        "limits": rep["limits"]}


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

    def test_choice_from_file_completes_each_category_once(self, capsys,
                                                          monkeypatch):
        # the choice file is checked against the functor alone, so the
        # target is completed once, as without --choice: 4 calls on E7b,
        # the two categories and their localisations; the replacement
        # category and its localisation are answered through the target
        calls = []
        complete = rewrite.complete

        def counted(p, *args):
            calls.append(p)
            return complete(p, *args)

        # every system comes from rewrite.present, which completes first
        monkeypatch.setattr(rewrite, "complete", counted)
        for choice in ((), ("--choice", "from-file",
                            str(corpus.FIXTURES / "E7b-alt.choice.json"))):
            calls.clear()
            code, _ = run_cli(capsys, "verify-approximation",
                              corpus.fun_path("E7b"), *choice)
            assert code == 0
            assert len(calls) == 4, choice

    def test_experimental_flag_changes_failure(self, capsys):
        code, rep = run_json(capsys, "verify-approximation", E6_FUN,
                             "--experimental-no-mult")
        assert code == 2
        assert rep["error"]["witness"]["kind"] == "object-without-replacement"

    def test_experimental_flag_cannot_make_a_run_succeed(self, capsys, tmp_path):
        # d: a -> b and e: b -> c are denominators but d.e is not, so the
        # identity functor fails the gate; past it every later section
        # holds, yet the run fails on the multiplicativity verdict
        (tmp_path / "chain.cat.json").write_text(json.dumps({
            "objects": ["a", "b", "c"],
            "generators": [{"name": "d", "src": "a", "dst": "b"},
                           {"name": "e", "src": "b", "dst": "c"}],
            "relations": [],
            "denominators": {"words": [["d"], ["e"]], "include_identities": True,
                             "close_under_composition": False}}))
        fun = tmp_path / "chain.fun.json"
        fun.write_text(json.dumps({
            "source": "chain.cat.json", "target": "chain.cat.json",
            "object_map": {"a": "a", "b": "b", "c": "c"},
            "generator_map": {"d": ["d"], "e": ["e"]}}))
        code, rep = run_json(capsys, "verify-approximation", str(fun))
        assert code == 2
        assert rep["error"]["kind"] == "precondition"
        assert rep["error"]["witness"]["kind"] == "composite-not-denominator"
        code, rep = run_json(capsys, "verify-approximation", str(fun),
                             "--experimental-no-mult")
        assert code == 1
        assert rep["result"]["ok"] is False
        sections = {s["name"]: s["ok"] for s in rep["result"]["sections"]}
        assert sections.pop("preconditions") is False
        assert len(sections) == 11 and all(sections.values())

    def test_missing_trivial_triple_is_a_report(self, capsys, tmp_path):
        # d and s are mutually inverse denominators but no identity is
        # one, so no (F x, x, 1) is a replacement for the canonical lift
        cat = {"objects": ["a", "b"],
               "generators": [{"name": "d", "src": "a", "dst": "b"},
                              {"name": "s", "src": "b", "dst": "a"}],
               "relations": [{"lhs": ["d", "s"], "rhs": []},
                             {"lhs": ["s", "d"], "rhs": []}],
               "denominators": {"words": [["d"], ["s"]],
                                "include_identities": False,
                                "close_under_composition": False}}
        fun = {"source": "iso.cat.json", "target": "iso.cat.json",
               "object_map": {"a": "a", "b": "b"},
               "generator_map": {"d": ["d"], "s": ["s"]}}
        (tmp_path / "iso.cat.json").write_text(json.dumps(cat))
        (tmp_path / "iso.fun.json").write_text(json.dumps(fun))
        code, rep = run_json(capsys, "verify-approximation",
                             str(tmp_path / "iso.fun.json"),
                             "--experimental-no-mult")
        assert code == 2
        assert rep["error"]["kind"] == "precondition"
        assert rep["error"]["witness"] == {
            "kind": "identity-not-denominator", "object": "a",
            "identity_at": "a"}

    def test_choice_naming_an_unmapped_object_is_a_report(self, capsys,
                                                          tmp_path):
        # x1 is an object of the source the functor does not map
        fun = {"source": corpus.cat_path("E7C"),
               "target": corpus.cat_path("E7D"),
               "object_map": {"x0": "tl"}, "generator_map": {}}
        (tmp_path / "F.fun.json").write_text(json.dumps(fun))
        (tmp_path / "C.json").write_text(
            json.dumps({"tl": {"x": "x1", "q": []}}))
        code, out = run_cli(capsys, "verify-approximation",
                            str(tmp_path / "F.fun.json"), "--choice",
                            "from-file", str(tmp_path / "C.json"))
        assert code == 2
        assert out.count('"schema"') == 1
        rep = json.loads(out)
        assert rep["error"]["kind"] == "validation"
        assert "'x1'" in rep["error"]["message"]


    @pytest.mark.parametrize("entry,message", [
        ({"zz": {"x": "x0", "q": []}}, "unknown target object 'zz'"),
        ({"tl": {"x": "zz", "q": []}}, "unknown source object 'zz'"),
    ])
    def test_choice_naming_an_unknown_object_is_a_report(
            self, capsys, tmp_path, entry, message):
        (tmp_path / "C.json").write_text(json.dumps(entry))
        code, rep = run_json(capsys, "verify-approximation",
                             corpus.fun_path("E7b"), "--choice", "from-file",
                             str(tmp_path / "C.json"))
        assert code == 2
        assert rep["error"]["kind"] == "validation"
        assert message in rep["error"]["message"]

    def test_triples_named_alike_get_distinct_objects(self, capsys, tmp_path):
        # the triple with q = 1_Y and the one with q the generator "1"
        # would both be named (Y|X|1)
        (tmp_path / "C.cat.json").write_text(json.dumps({
            "objects": ["X"], "generators": [], "relations": [],
            "denominators": {"words": [], "include_identities": True,
                             "close_under_composition": True}}))
        (tmp_path / "D.cat.json").write_text(json.dumps({
            "objects": ["Y"],
            "generators": [{"name": "1", "src": "Y", "dst": "Y"}],
            "relations": [{"lhs": ["1", "1"], "rhs": ["1"]}],
            "denominators": {"words": [["1"]], "include_identities": True,
                             "close_under_composition": True}}))
        fun = tmp_path / "F.fun.json"
        fun.write_text(json.dumps({
            "source": "C.cat.json", "target": "D.cat.json",
            "object_map": {"X": "Y"}, "generator_map": {}}))
        code, rep = run_json(capsys, "verify-approximation", str(fun))
        assert code == 0
        assert rep["result"]["ok"] is True
        f = load_functor(str(fun))
        rc = prepare(f).rc
        assert len(rc.triples) == 2
        assert len(set(rc.obj_names)) == 2


E7_FUNCTOR = {"source": corpus.cat_path("E7C"), "target": corpus.cat_path("E7D"),
              "object_map": {"x0": "tl", "x1": "tr"}, "generator_map": {"f": ["h_top"]}}
ONE_OBJECT = {"objects": ["a"], "generators": [], "relations": [],
              "denominators": {"words": [], "include_identities": True,
                               "close_under_composition": True}}
# E7 with x1 sent to tl, where h_top does not end
E7_INVALID = dict(E7_FUNCTOR, object_map={"x0": "tl", "x1": "tl"})
INVALID_F = ("invalid functor: [{'kind': 'generator-image-endpoints', 'generator': "
             "'f', 'expected': ['tl', 'tl'], 'got': ['tl', 'tr']}]")
E7_UNKNOWN = dict(E7_FUNCTOR, generator_map={"f": ["h_top"], "g": []})
# F x0 is tl, not tr
EMPTY_Q = {"tr": {"x": "x0", "q": []}}
NAMELESS_OBJECT = dict(ONE_OBJECT, objects=["a", ""])
NAMELESS_GENERATOR = dict(ONE_OBJECT, generators=[{"name": "", "src": "a",
                                                    "dst": "a"}])


@pytest.mark.parametrize("files,argv,message", [
    ({"F.json": E7_INVALID}, ["check", "s-full", "F.json"], INVALID_F),
    ({"F.json": E7_INVALID}, ["verify-approximation", "F.json"], INVALID_F),
    ({"F.json": E7_UNKNOWN}, ["check", "s-dense", "F.json"],
     "F.json: generator_map names unknown generator 'g'"),
    ({"F.json": E7_FUNCTOR, "C.json": EMPTY_Q},
     ["verify-approximation", "F.json", "--choice", "from-file", "C.json"],
     "C.json: empty q for 'tr' needs F x == 'tr'"),
    ({"C.json": NAMELESS_OBJECT}, ["validate", "C.json"],
     "C.json: [{'kind': 'empty-object-name'}]"),
    ({"C.json": NAMELESS_OBJECT}, ["localise", "C.json"],
     "C.json: [{'kind': 'empty-object-name'}]"),
    ({"C.json": NAMELESS_GENERATOR}, ["validate", "C.json"],
     "C.json: [{'kind': 'empty-generator-name'}]"),
    ({"C.json": NAMELESS_GENERATOR}, ["localise", "C.json"],
     "C.json: [{'kind': 'empty-generator-name'}]"),
], ids=["invalid-functor-check", "invalid-functor-verify", "unknown-generator",
        "empty-q", "empty-object-validate", "empty-object-localise",
        "empty-generator-validate", "empty-generator-localise"])
def test_validation_error_report(capsys, tmp_path, monkeypatch, files, argv,
                                 message):
    # exit 2 with the message as validate's problem, or as a validation error
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, rep = run_json(capsys, *argv)
    assert code == 2
    if argv[0] == "validate":
        assert rep["result"]["files"] == [{
            "path": argv[1], "kind": "category", "ok": False,
            "problems": [{"kind": "invalid", "detail": message}]}]
    else:
        assert rep["error"] == {"kind": "validation", "message": message}


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
        proc = _run_module("-m", "loccat.cli", "check", "s-full", E2_FUN)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["verdict"] is True

    def test_import_skips_dataclasses(self):
        # every command starts a process, so what the import loads is
        # start-up time; -S stops site from importing any of it first
        code = ("import sys; before = set(sys.modules); import loccat.cli; "
                "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'}"
                " & (sys.modules.keys() - before)))")
        proc = _run_module("-S", "-c", code)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    @pytest.mark.parametrize("argv", [
        ("verify-approximation", corpus.fun_path("E7")),
        ("check", "s-faithful", corpus.fun_path("E3")),
        ("homset", corpus.cat_path("E7bD"), "--src", "tl", "--dst", "z"),
    ])
    def test_same_report_under_optimize_flag(self, argv):
        # no check may live in an assert, which -O strips
        runs = [_run_module(*flags, "-m", "loccat.cli", *argv)
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

    def test_no_unused_import(self):
        # every name an import binds is read somewhere in its module;
        # the package __init__ only re-exports, so it is left out
        root = Path(__file__).resolve().parent.parent
        paths = [p for p in sorted((root / "src" / "loccat").glob("*.py"))
                 if p.name != "__init__.py"]
        found = []
        for path in paths + sorted((root / "tests").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            found += [f"{path.name}:{node.lineno}:{bound}"
                      for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      and getattr(node, "module", None) != "__future__"
                      for alias in node.names
                      for bound in [alias.asname or alias.name.split(".")[0]]
                      if bound not in used]
        assert found == []

    def test_no_private_import_across_modules(self):
        # a name one module uses from another is public where it lives
        src = Path(__file__).resolve().parent.parent / "src" / "loccat"
        found = [f"{path.name}:{node.lineno}:{alias.name}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom)
                 and (node.level or (node.module or "").startswith("loccat"))
                 for alias in node.names if alias.name.startswith("_")]
        assert found == []

    def test_no_private_attribute_read_across_modules(self):
        # a module reads only the private attributes its own code defines:
        # those it assigns on an object, or names in one of its classes;
        # the namedtuple API is public despite its underscore
        public = {"_asdict", "_replace", "_fields", "_make"}

        def private(name):
            return name.startswith("_") and not name.endswith("__") \
                and name not in public

        found = []
        for path in sorted((SRC / "loccat").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            own = {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
            own |= {stmt.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for stmt in cls.body if hasattr(stmt, "name")}
            found += [f"{path.name}:{node.lineno}:{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and private(node.attr)
                      and node.attr not in own]
        assert found == []

    def test_deciders_built_only_by_the_accessor(self):
        # every other caller asks a system's denominators property,
        # which keeps the decider on its system
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

    def test_replacement_category_built_only_by_the_setting(self):
        # the setting keys its total values by positions among the triples
        # of setting.rc, so no other category may be built or passed in
        src = SRC / "loccat"
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            methods = {id(fn): f"{cls.name}.{fn.name}" for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef) for fn in cls.body
                       if isinstance(fn, ast.FunctionDef)}
            owner = {id(node): methods.get(id(fn), fn.name) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)}
            found += [f"{path.name}:{owner.get(id(node))}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and "build_replacement_category" in (
                          getattr(node.func, "id", None),
                          getattr(node.func, "attr", None))]
        assert found == ["equivalence.py:GzSetting.rc"]
        tree = ast.parse((src / "approximation.py").read_text(encoding="utf-8"))
        typed = [f"{fn.name}({arg.arg})" for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                 if arg.annotation is not None
                 and "ReplacementCategory" in ast.unparse(arg.annotation)]
        assert typed == []

    def test_replacement_category_completes_nothing(self):
        # rc and its localisation are answered through the target's
        # systems, so neither module names the completion
        found = [f"{name}:{node.lineno}" for name in ("replacement.py", "approximation.py")
                 for node in ast.walk(ast.parse((SRC / "loccat" / name).read_text(
                     encoding="utf-8")))
                 if "complete" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None))]
        assert found == []

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
            "equivalence.prepare", "rewrite.__init__", "rewrite.__init__",
            "rewrite.complete", "rewrite.present"]


class TestReplacementRich:
    """Fan_k has k replacements of one object: its replacement category
    and that category's localisation are answered through the target."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_fan_verifies_at_default_limits(self, capsys, tmp_path, k):
        fun = corpus.fan(k, tmp_path)
        code, rep = run_json(capsys, "verify-approximation", fun)
        assert code == 0
        assert rep["result"]["ok"] is True
        assert rep["result"]["decidability_status"] == "complete"
        code, rep = run_json(capsys, "check", "s-equivalence", fun)
        assert code == 0 and rep["result"]["verdict"] is True

    def test_fan_counts(self, capsys, tmp_path):
        code, rep = run_json(capsys, "verify-approximation", corpus.fan(3, tmp_path),
                             "--limits-rules", "4096", "--limits-homset", "100000")
        assert code == 0
        sections = {s["name"]: s for s in rep["result"]["sections"]}
        assert sections["total_functor"]["words_checked"] == 52
        assert sections["total_functor"]["composable_pairs_checked"] == 246
        assert sections["denominator_values"]["lifted_denominators_checked"] == 52
        assert sections["forgetful_section_pair"]["comparison_squares_checked"] == 86

    def test_tight_rule_bound_on_e5_decides(self, capsys):
        # the target and its localisation complete within five rules,
        # and nothing else is completed
        code, rep = run_json(capsys, "verify-approximation", corpus.fun_path("E5"),
                             "--limits-rules", "5")
        assert code == 0
        assert rep["result"]["ok"] is True
        assert rep["result"]["decidability_status"] == "complete"

    def test_object_without_replacement_is_a_precondition(self, capsys, tmp_path):
        code, rep = run_json(capsys, "verify-approximation", corpus.detour(tmp_path))
        assert code == 2
        assert rep["error"]["witness"] == {"kind": "object-without-replacement",
                                           "object": "m"}


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

    def test_lists_are_flattened_by_index(self, capsys):
        code, out = run_cli(capsys, "homset", corpus.cat_path("E7D"),
                            "--src", "tl", "--dst", "br", "--localised",
                            "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            'command = "homset"',
            "limits.max_homset = 1024",
            "limits.max_rules = 512",
            "limits.max_word_len = 16",
            "result.count = 1",
            'result.dst = "br"',
            "result.localised = true",
            'result.src = "tl"',
            'result.status = "complete"',
            'result.words[0][0] = "h_top"',
            'result.words[0][1] = "v_right"',
            'result.zigzags[0] = "h_top·v_right"',
            'schema = "loccat-report/1"',
        ]

    def test_empty_details_written_as_empty_object(self, capsys):
        code, out = run_cli(capsys, "check", "multiplicative",
                            corpus.cat_path("E1"), "--format", "text")
        assert code == 0
        assert "result.details = {}" in out.splitlines()

    def test_empty_word_list_written_as_empty_list(self, capsys):
        code, out = run_cli(capsys, "homset", corpus.cat_path("E1"),
                            "--src", "c", "--dst", "a", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert "result.words = []" in lines
        assert "result.count = 0" in lines


# strings of what json escapes and what it must leave alone: quotes,
# backslashes, every control character, non-ASCII and the line
# separators that JavaScript rejects
REPORT_TEXT = st.text("".join(map(chr, range(0x20))) + '"\\/ az\x7fé•\u2028\u2029\ufeff😀',
                      max_size=8)
REPORT_SCALARS = st.one_of(
    REPORT_TEXT, st.integers(-2**70, 2**70), st.booleans(), st.none())
REPORT_VALUES = st.recursive(REPORT_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(REPORT_TEXT, inner, max_size=4)), max_leaves=16)


def written(value) -> str:
    chunks: list = []
    cli._write_json(value, "", chunks)
    return "".join(chunks)


class TestReportWriter:
    @given(st.dictionaries(REPORT_TEXT, REPORT_VALUES, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_writes_what_json_dumps_writes(self, value):
        assert written(value) == json.dumps(value, sort_keys=True, indent=2,
                                              ensure_ascii=False)

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="float"):
            written({"a": [1.5]})

    def test_report_written_without_json_encoder(self, capsys, monkeypatch):
        # json.dumps with indent runs _make_iterencode, which is pure Python
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        code, out = run_cli(capsys, "verify-approximation", corpus.fun_path("E7"))
        assert code == 0
        assert json.loads(out)["result"]["ok"] is True


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
    # an option may come before the positional: --choice takes only the
    # words its form names
    (["verify-approximation", "--choice", "auto", "E7.fun.json"],
     {"path": "E7.fun.json", "choice": ["auto"]}),
    (["verify-approximation", "--choice", "from-file", "E7b-alt.choice.json",
      "E7b.fun.json"],
     {"path": "E7b.fun.json", "choice": ["from-file", "E7b-alt.choice.json"]}),
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
    "unknown --choice": ["verify-approximation", E6_FUN, "--choice", "bogus"],
    "from-file without a path": ["verify-approximation", E6_FUN, "--choice",
                                 "from-file"],
    "unknown --choice, missing functor": [
        "verify-approximation", str(corpus.FIXTURES / "missing.fun.json"),
        "--choice", "bogus"],
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
    # no rule at all: the enumeration still finds E5's two morphisms
    code, rep = run_json(capsys, "homset", E5_CAT, "--src", "•", "--dst", "•",
                         "--limits-rules", "0")
    assert code == 0
    assert rep["limits"]["max_rules"] == 0
    assert rep["result"]["count"] == 2


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


# ``python -m loccat.cli`` with the verifier raising a ConstructionError,
# which no known input reaches (see test_construction_error_is_a_report)
CONSTRUCTION_PROBE = """
import runpy, sys
import loccat.approximation
from loccat.presentation import ConstructionError
def fail(*args, **kwargs):
    raise ConstructionError("forced")
loccat.approximation.verify_approximation = fail
runpy.run_module("loccat.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv,code", [
    (["check", "s-full", E2_FUN], 0),
    (["check", "s-faithful", corpus.fun_path("E3")], 1),
    (["verify-approximation", E6_FUN], 2),
    (["localise"], 2),
    (["validate", str(corpus.FIXTURES / "missing.cat.json")], 3),
    (["homset", E5_CAT, "--src", "•", "--dst", "•", "--limits-homset", "1"],
     4),
], ids=["holds", "fails", "construction", "usage", "unreadable", "undecided"])
def test_exit_code_through_module(argv, code):
    entry = ("-c", CONSTRUCTION_PROBE) if argv[0] == "verify-approximation" \
        else ("-m", "loccat.cli")
    proc = _run_module(*entry, *argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if argv == ["localise"]:
        assert proc.stdout == ""
    else:
        assert json.loads(proc.stdout)["schema"] == "loccat-report/1"
    if entry[0] == "-c":
        assert json.loads(proc.stdout)["error"]["kind"] == "construction"
