"""Density/fullness/faithfulness checkers and the classical cross-check."""

import pytest

import corpus
from loccat import (DEFAULT_LIMITS, ResourceLimits, RewriteSystem,
                    check_s_dense, check_s_equivalence, check_s_faithful,
                    check_s_full, classical_equivalence,
                    enumerate_s_two_arrows, prepare, solve_fill)
from loccat import equivalence
from loccat.fileio import load_functor
from test_approximation import ladder


class TestSDense:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": True, "E4": False, "E5": True,
                    "E7": True, "E7b": True}
        for name, want in expected.items():
            report = check_s_dense(prepare(corpus.fun(name), DEFAULT_LIMITS))
            assert report.verdict == want, name
            assert report.decidability_status == "complete"

    def test_e4_witness(self):
        report = check_s_dense(prepare(corpus.fun("E4"), DEFAULT_LIMITS))
        assert report.witness == {"kind": "object-without-replacement",
                                  "object": "Z"}


class TestSFull:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": True, "E4": True, "E5": True,
                    "E7": True, "E7b": True, "E5term": False}
        for name, want in expected.items():
            report = check_s_full(prepare(corpus.fun(name), DEFAULT_LIMITS))
            assert report.verdict == want, name

    def test_no_fill_witness(self):
        # terminal -> E5: the 2-arrow (identity, d) admits no fill because
        # the only candidate is the identity and loc(d) != loc(1)
        report = check_s_full(prepare(corpus.fun("E5term"), DEFAULT_LIMITS))
        assert report.witness["kind"] == "no-fill"
        assert report.witness["arrow"]["g"]["letters"] == []
        assert report.witness["arrow"]["b"]["letters"] == ["d"]


class TestSFaithful:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": False, "E4": True, "E5": True,
                    "E7": True, "E7b": True}
        for name, want in expected.items():
            report = check_s_faithful(prepare(corpus.fun(name), DEFAULT_LIMITS))
            assert report.verdict == want, name

    def test_e3_witness_shows_both_fills(self):
        report = check_s_faithful(prepare(corpus.fun("E3"), DEFAULT_LIMITS))
        w = report.witness
        assert w["kind"] == "distinct-fills"
        assert w["first"]["letters"] == ["f1"]
        assert w["second"]["letters"] == ["f2"]


class TestFills:
    def test_two_arrow_enumeration_is_deterministic(self):
        s = corpus.setting("E7")
        first = list(enumerate_s_two_arrows(s))
        second = list(enumerate_s_two_arrows(s))
        assert first == second

    def test_every_e2_arrow_has_exactly_one_fill(self):
        s = corpus.setting("E2")
        arrows = list(enumerate_s_two_arrows(s))
        assert arrows
        for arrow in arrows:
            assert len(solve_fill(s, arrow)) == 1

    @pytest.mark.parametrize("name,decodes", [("L4", 0), ("E3", 4)])
    def test_survey_decodes_only_witnesses(self, monkeypatch, name, decodes):
        # the survey runs on codes: E3's distinct-fills witness decodes
        # its arrow's g and b and its two fills, L4 has no witness
        setting = prepare(ladder(4) if name == "L4" else corpus.fun(name), DEFAULT_LIMITS)
        calls = []
        decode = RewriteSystem.decode

        def counted(rs, word):
            calls.append(word)
            return decode(rs, word)

        monkeypatch.setattr(RewriteSystem, "decode", counted)
        no_fill, ambiguous, _ = setting.fill_survey
        assert no_fill is None and (ambiguous is None) == (name == "L4")
        assert len(calls) == decodes

    def test_e3_collapsed_arrow_has_two_fills(self):
        s = corpus.setting("E3")
        fills_by_arrow = [solve_fill(s, a) for a in enumerate_s_two_arrows(s)]
        assert max(len(f) for f in fills_by_arrow) == 2


class TestSEquivalence:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": False, "E4": False, "E5": True,
                    "E7": True, "E7b": True, "E5term": False,
                    "E1": True, "E1incl": False}
        for name, want in expected.items():
            report = check_s_equivalence(prepare(corpus.fun(name), DEFAULT_LIMITS))
            assert report.verdict == want, name

    def test_multiplicative_details_include_characterisation(self):
        report = check_s_equivalence(prepare(corpus.fun("E7"), DEFAULT_LIMITS))
        d = report.details
        assert d["target_multiplicative"] is True
        assert d["s_full"] is True and d["s_faithful"] is True
        assert d["characterisation_agrees"] is True

    def test_survey_takes_no_part_in_equality(self):
        # like the setting's other tables, the survey is a cache
        first, second = (prepare(load_functor(corpus.fun_path("E7"))) for _ in range(2))
        assert first == second
        assert first.fill_survey is first.fill_survey
        assert first == second

    def test_fill_survey_runs_once_per_setting(self, monkeypatch):
        runs = []
        survey = equivalence._fill_survey

        def counted(setting):
            runs.append(setting)
            return survey(setting)

        monkeypatch.setattr(equivalence, "_fill_survey", counted)
        setting = prepare(corpus.fun("E7"), DEFAULT_LIMITS)
        report = check_s_equivalence(setting)
        assert report.details["s_full"] and report.details["s_faithful"]
        assert check_s_full(setting).verdict
        assert len(runs) == 1

    @pytest.mark.parametrize("check", [check_s_dense, check_s_full,
                                       check_s_faithful, check_s_equivalence])
    def test_bounds_used_are_the_setting_limits(self, check):
        # the check reports the limits its setting was prepared under
        limits = ResourceLimits(max_word_len=12)
        report = check(prepare(corpus.fun("E7"), limits))
        assert report.bounds_used == limits._asdict()

    def test_gz_details_present(self):
        report = check_s_equivalence(prepare(corpus.fun("E2"), DEFAULT_LIMITS))
        assert report.details["gz_details"]["full"] is True
        assert report.details["gz_details"]["faithful"] is True
        assert report.details["gz_details"]["dense"] is True


class TestClassicalCriterion:
    # On these variants the denominators are exactly the isomorphisms on
    # both sides, so relative equivalence must agree with the classical
    # dense+full+faithful enumeration of the functor itself.
    VARIANTS = ("E1", "E1incl", "E5", "E5term")

    def test_denominators_are_the_isomorphisms(self):
        from loccat import DenomDecider, find_inverse, homset
        for name in self.VARIANTS:
            s = corpus.setting(name)
            for cwd, rs in ((s.f.source, s.rs_src), (s.f.target, s.rs_tgt)):
                dec = DenomDecider(cwd, rs)
                for x in cwd.cat.objects:
                    for y in cwd.cat.objects:
                        for w in homset(rs, x, y):
                            is_iso = find_inverse(rs, w) is not None
                            assert dec.is_denominator(w) == is_iso, (name, w)

    def test_agreement(self):
        expected = {"E1": True, "E1incl": False, "E5": True, "E5term": False}
        for name in self.VARIANTS:
            s = corpus.setting(name)
            rel = check_s_equivalence(prepare(corpus.fun(name), DEFAULT_LIMITS))
            cls, _ = classical_equivalence(s.f, s.rs_src, s.rs_tgt)
            assert rel.verdict == cls == expected[name], name

    def test_each_source_homset_is_listed_once(self, monkeypatch):
        # one pass maps each source word once, for both fullness and
        # faithfulness
        s = corpus.setting("E7")
        calls = []
        listed = equivalence.words

        def counted(rs, x, y):
            if rs is s.lc_src.rs:
                calls.append((x, y))
            return listed(rs, x, y)

        monkeypatch.setattr(equivalence, "words", counted)
        ok, _ = classical_equivalence(s.gz_f, s.lc_src.rs, s.lc_tgt.rs)
        objects = s.lc_src.presentation.objects
        assert ok
        assert calls == [(x, y) for x in objects for y in objects]

    @pytest.mark.parametrize("objects", [("a", "b"), ("b", "a")])
    def test_witnesses_at_different_pairs(self, objects):
        # F sends the idempotent u to the identity of B, so (b, b) is not
        # faithful, misses the idempotent t at (a, a), and reaches no
        # morphism into Z; either pair may come first
        from loccat import FunctorData, complete, load_cat
        src = load_cat("C", corpus.cat_data(objects, [("u", "b", "b")], [("uu", "u")]))
        tgt = load_cat("D", corpus.cat_data(["A", "B", "Z"], [("t", "A", "A")], [("tt", "t")]))
        f = FunctorData(src, tgt, {"a": "A", "b": "B"}, {"u": ("B", "B", "")})
        ok, details = classical_equivalence(f, complete(src.cat), complete(tgt.cat))
        assert not ok
        assert details == {
            "full": False, "faithful": False, "dense": False,
            "full_witness": {"kind": "not-full", "x": "a", "x_prime": "a",
                             "morphism": {"src": "A", "dst": "A", "letters": ["t"]}},
            "faithful_witness": {"kind": "not-faithful",
                                 "first": {"src": "b", "dst": "b", "letters": []},
                                 "second": {"src": "b", "dst": "b", "letters": ["u"]}},
            "dense_witness": {"kind": "not-essentially-surjective", "object": "Z"}}
