"""Input parsing: error classification, path resolution, choice files."""

import json
from pathlib import Path

import pytest

import corpus
from loccat import (ParseError, ValidationError, fileio, load_cat, load_choice,
                    load_functor, verify_approximation)
from loccat.cli import main


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str)
                    else payload, encoding="utf-8")
    return str(path)


GOOD_CAT = {
    "objects": ["a", "b"],
    "generators": [{"name": "u", "src": "a", "dst": "b"}],
    "relations": [],
    "denominators": {"words": [], "include_identities": True,
                     "close_under_composition": False},
}


class TestLoadCat:
    def test_corpus_loads(self):
        for name in corpus.CAT_NAMES:
            c = corpus.cat(name)
            assert c.cat.objects

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = write(tmp_path, "bad.cat.json", "{nope")
        with pytest.raises(ParseError):
            load_cat(path)

    def test_missing_key_is_parse_error(self, tmp_path):
        payload = {k: v for k, v in GOOD_CAT.items() if k != "generators"}
        path = write(tmp_path, "nogen.cat.json", payload)
        with pytest.raises(ParseError):
            load_cat(path)

    def test_wrong_type_is_parse_error(self, tmp_path):
        payload = dict(GOOD_CAT, objects="ab")
        path = write(tmp_path, "badobj.cat.json", payload)
        with pytest.raises(ParseError):
            load_cat(path)

    def test_unknown_endpoint_is_validation_error(self, tmp_path):
        payload = dict(GOOD_CAT, generators=[
            {"name": "u", "src": "a", "dst": "zzz"}])
        path = write(tmp_path, "dangling.cat.json", payload)
        with pytest.raises(ValidationError):
            load_cat(path)

    def test_empty_denominator_word_rejected_with_hint(self, tmp_path):
        payload = dict(GOOD_CAT, denominators={
            "words": [[]], "include_identities": False,
            "close_under_composition": False})
        path = write(tmp_path, "emptyword.cat.json", payload)
        with pytest.raises(ValidationError, match="include_identities"):
            load_cat(path)

    def test_identity_relation_side(self, tmp_path):
        payload = dict(GOOD_CAT,
                       generators=[{"name": "t", "src": "a", "dst": "a"}],
                       relations=[{"lhs": ["t", "t"], "rhs": []}])
        c = load_cat(write(tmp_path, "endo.cat.json", payload))
        assert c.cat.relations[0][1] == ("a", "a", "")

    def test_two_empty_relation_sides_rejected(self, tmp_path):
        payload = dict(GOOD_CAT, relations=[{"lhs": [], "rhs": []}])
        path = write(tmp_path, "noop.cat.json", payload)
        with pytest.raises((ParseError, ValidationError)):
            load_cat(path)


# relation sides that are not words, or not parallel, and the exact text
# that reports them; "{path}" stands for the file's path
BAD_RELATIONS = [
    ([{"lhs": ["zz"], "rhs": ["u"]}], "unknown generator 'zz'"),
    ([{"lhs": ["u", "u"], "rhs": ["u"]}],
     "letters 'u' and 'u' do not compose: 'b' != 'a'"),
    ([{"lhs": ["u"], "rhs": ["t"]}], "{path}: relation 0 sides not parallel"),
    ([{"lhs": [], "rhs": []}], "relation 0 has two empty sides and no endpoints"),
    ([{"lhs": ["t"], "rhs": []}, {"lhs": ["u"], "rhs": []}],
     "relation 1 equates a non-endo word with an identity"),
]
# denominator words that are not words, and the text that reports them
BAD_DENOMINATORS = [
    ([["t"], ["zz"]], "unknown generator 'zz'"),
    ([["u", "u"]], "letters 'u' and 'u' do not compose: 'b' != 'a'"),
]


class TestMalformedText:
    @staticmethod
    def write_bad(tmp_path, relations, words=()):
        payload = dict(GOOD_CAT, relations=relations, generators=[
            {"name": "u", "src": "a", "dst": "b"},
            {"name": "t", "src": "a", "dst": "a"}])
        payload["denominators"] = dict(GOOD_CAT["denominators"], words=list(words))
        return write(tmp_path, "bad.cat.json", payload)

    @pytest.mark.parametrize("relations,message", BAD_RELATIONS)
    def test_load_cat(self, tmp_path, relations, message):
        path = self.write_bad(tmp_path, relations)
        with pytest.raises(ValidationError) as e:
            load_cat(path)
        assert str(e.value) == message.format(path=path)

    @pytest.mark.parametrize("relations,message", BAD_RELATIONS)
    def test_cli_reports(self, capsys, tmp_path, relations, message):
        self.assert_reported(capsys, self.write_bad(tmp_path, relations), message)

    @pytest.mark.parametrize("words,message", BAD_DENOMINATORS,
                             ids=["unknown-generator", "not-composable"])
    def test_load_cat_denominator_word(self, tmp_path, words, message):
        with pytest.raises(ValidationError) as e:
            load_cat(self.write_bad(tmp_path, [], words))
        assert str(e.value) == message

    @pytest.mark.parametrize("words,message", BAD_DENOMINATORS,
                             ids=["unknown-generator", "not-composable"])
    def test_cli_reports_denominator_word(self, capsys, tmp_path, words, message):
        self.assert_reported(capsys, self.write_bad(tmp_path, [], words), message)

    @staticmethod
    def assert_reported(capsys, path, message):
        """``validate`` and ``check axioms`` on ``path`` both report ``message``."""
        message = message.format(path=path)
        assert main(["validate", path]) == 2
        rows = json.loads(capsys.readouterr().out)["result"]["files"]
        assert rows == [{"path": path, "kind": "category", "ok": False,
                         "problems": [{"kind": "invalid", "detail": message}]}]
        assert main(["check", "axioms", path]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "validation", "message": message}

    def test_unreadable_path_named_as_pathlib_names_it(self, capsys, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (["validate", "nope/./x.json"], ["check", "axioms", "nope/./x.json"]):
            assert main(argv) == 3
            error = json.loads(capsys.readouterr().out)["error"]
            assert error == {"kind": "parse", "message": "cannot read nope/./x.json: "
                             "[Errno 2] No such file or directory: 'nope/x.json'"}

    def test_trailing_slash_read_as_pathlib_reads(self, capsys):
        assert main(["validate", corpus.cat_path("E1") + "/"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("content,message", [
        (b"\xff\xfe{", "{path} is not UTF-8 text: 'utf-8' codec can't decode byte "
                       "0xff in position 0: invalid start byte"),
        # the position counts bytes of the whole file, past any read buffer
        (b'{"a": "' + b"\r\n" * 5000 + b"\xff", "{path} is not UTF-8 text: 'utf-8' "
         "codec can't decode byte 0xff in position 10007: invalid start byte"),
        (b"[" * 200000, "{path} nests too deeply to read: maximum recursion depth "
                        "exceeded while decoding a JSON array from a unicode string"),
    ], ids=["not-utf-8", "not-utf-8-late", "nested"])
    @pytest.mark.parametrize("argv", [
        ["validate", "FILE"], ["check", "axioms", "FILE"],
        ["homset", "FILE", "--src", "a", "--dst", "a"],
        ["verify-approximation", corpus.fun_path("E7"), "--choice", "from-file", "FILE"],
    ], ids=["validate", "check", "homset", "choice"])
    def test_unreadable_text_is_a_parse_error(self, capsys, tmp_path, argv, content,
                                              message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([str(path) if a == "FILE" else a for a in argv]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "parse", "message": message.format(path=path)}


    @pytest.mark.parametrize("escape,char", [
        ("\\ud800", "\ud800"), ("\\udc80", "\udc80"), ("\\uDBFF", "\udbff")],
        ids=["high", "low", "upper-case"])
    @pytest.mark.parametrize("argv", [
        ["validate", "FILE"], ["localise", "FILE"],
        ["homset", "FILE", "--src", "a", "--dst", "a"],
    ], ids=["validate", "localise", "homset"])
    def test_lone_surrogate_is_a_parse_error(self, capsys, tmp_path, argv, escape,
                                             char):
        # no report could write the name out as UTF-8
        path = tmp_path / "lone.cat.json"
        path.write_text(json.dumps(dict(GOOD_CAT, objects=["a", "b", "x"]))
                        .replace('"x"', f'"{escape}"'), encoding="ascii")
        assert main([str(path) if a == "FILE" else a for a in argv]) == 3
        out = capsys.readouterr().out
        out.encode("utf-8")
        assert json.loads(out)["error"] == {
            "kind": "parse",
            "message": f"{path} holds a lone surrogate escape: {char!r}"}

    def test_surrogate_pair_is_one_character(self, capsys, tmp_path):
        path = write(tmp_path, "pair.cat.json", json.dumps(
            dict(GOOD_CAT, objects=["a", "b", "x"])).replace('"x"', '"\\ud83d\\ude00"'))
        assert load_cat(path).cat.objects == ("a", "b", "\U0001f600")
        assert main(["localise", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["result"]["base"]["objects"] == ["a", "b", "\U0001f600"]

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_read_as_text_mode_reads_them(self, capsys, tmp_path,
                                                    newline):
        original = corpus.cat_path("E7D")
        copy = tmp_path / "E7D.cat.json"
        copy.write_bytes(Path(original).read_bytes().replace(b"\n", newline))
        assert b"\r" in copy.read_bytes()
        assert main(["localise", original]) == 0
        expected = capsys.readouterr().out
        assert main(["localise", str(copy)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("content,message", [
        # "\r\n" is one character, as text mode reads it
        (b'{\r\n  "objects": ["a",\r\n  ]\r\n}\r\n',
         "Expecting value: line 3 column 3 (char 23)"),
        (b'{\r  "objects": ["a",\r  ]\r}\r',
         "Expecting value: line 3 column 3 (char 23)"),
        (b"\xef\xbb\xbf" + json.dumps(GOOD_CAT).encode(),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["crlf", "cr", "bom"])
    def test_json_error_positions(self, tmp_path, content, message):
        path = tmp_path / "bad.cat.json"
        path.write_bytes(content)
        with pytest.raises(ParseError) as caught:
            load_cat(str(path))
        assert str(caught.value) == f"{path} is not valid JSON: {message}"


class TestLoadFunctor:
    def test_paths_resolve_relative_to_functor_file(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        cat_path = write(sub, "c.cat.json", GOOD_CAT)
        fun_path = write(sub, "f.fun.json", {
            "source": "c.cat.json", "target": "c.cat.json",
            "object_map": {"a": "a", "b": "b"},
            "generator_map": {"u": ["u"]}})
        f = load_functor(fun_path)
        assert f.object_map == {"a": "a", "b": "b"}

    @pytest.mark.parametrize("fun_path", ["f.fun.json", "./f.fun.json",
                                          "f.fun.json/"])
    @pytest.mark.parametrize("source,target,message", [
        ("./c.cat.json", "sub//x.cat.json",
         "cannot read sub/x.cat.json: [Errno 2] No such file or directory: "
         "'sub/x.cat.json'"),
        (".//sub/./bad.cat.json", "c.cat.json",
         "sub/bad.cat.json: missing key 'generators'"),
    ], ids=["missing-target", "bad-source"])
    def test_paths_named_as_pathlib_names_them(self, capsys, tmp_path, monkeypatch,
                                               fun_path, source, target, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        write(tmp_path, "c.cat.json", GOOD_CAT)
        write(tmp_path / "sub", "bad.cat.json", {"objects": []})
        write(tmp_path, "f.fun.json", {
            "source": source, "target": target,
            "object_map": {"a": "a", "b": "b"}, "generator_map": {"u": ["u"]}})
        assert main(["check", "s-dense", fun_path]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "parse", "message": message}

    def test_functor_loads_without_pathlib(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pathlib used")

        monkeypatch.setattr(fileio, "Path", refuse)
        f = load_functor(corpus.fun_path("E7"))
        assert f.source.cat.objects and f.target.cat.objects

    def test_empty_generator_image_needs_matching_endpoints(self, tmp_path):
        cat_path = write(tmp_path, "c.cat.json", GOOD_CAT)
        fun_path = write(tmp_path, "collapse.fun.json", {
            "source": "c.cat.json", "target": "c.cat.json",
            "object_map": {"a": "a", "b": "b"},
            "generator_map": {"u": []}})
        with pytest.raises(ValidationError):
            load_functor(fun_path)

    def test_unknown_generator_image_letters(self, tmp_path):
        cat_path = write(tmp_path, "c.cat.json", GOOD_CAT)
        fun_path = write(tmp_path, "bad.fun.json", {
            "source": "c.cat.json", "target": "c.cat.json",
            "object_map": {"a": "a", "b": "b"},
            "generator_map": {"u": ["nope"]}})
        with pytest.raises(ValidationError):
            load_functor(fun_path)


class TestLoadChoice:
    def test_alt_choice_loads(self):
        f = corpus.fun("E7b")
        choice = load_choice(str(corpus.FIXTURES / "E7b-alt.choice.json"), f)
        q = f.target.cat.decode(("tl", "bl", choice.get("bl").q))
        assert q.letters == ("v_left2",)

    def test_choice_with_wrong_source_object_rejected(self, tmp_path):
        f = corpus.fun("E7b")
        raw = json.loads((corpus.FIXTURES / "E7b-alt.choice.json").read_text())
        raw["bl"]["x"] = "x1"  # v_left2 does not start at F x1
        path = write(tmp_path, "bad.choice.json", raw)
        with pytest.raises(ValidationError):
            load_choice(path, f)

    def test_choice_q_normalized(self, tmp_path):
        # the file's q is kept as written and normalised by the verifier
        f = corpus.fun("E5")
        path = write(tmp_path, "e5.choice.json",
                     {"•": {"x": "•", "q": ["d", "d", "d"]}})
        choice = load_choice(path, f)
        q = f.target.cat.decode(("•", "•", choice.get("•").q))
        assert q.letters == ("d", "d", "d")
        report = verify_approximation(f, choice=choice)
        section = next(x for x in report.sections if x["name"] == "choice")
        assert [c["q"]["letters"] for c in section["chosen"]] == [["d"]]
        assert report.ok
