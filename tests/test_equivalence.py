"""Density/fullness/faithfulness checkers and the classical cross-check."""

from dataclasses import asdict

import pytest

import corpus
from loccat import (DEFAULT_LIMITS, ResourceLimits, check_s_dense,
                    check_s_equivalence, check_s_faithful, check_s_full,
                    classical_equivalence, enumerate_s_two_arrows, prepare,
                    solve_fill)
from loccat import equivalence


class TestSDense:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": True, "E4": False, "E5": True,
                    "E7": True, "E7b": True}
        for name, want in expected.items():
            report = check_s_dense(corpus.fun(name), DEFAULT_LIMITS)
            assert report.verdict == want, name
            assert report.decidability_status == "complete"

    def test_e4_witness(self):
        report = check_s_dense(corpus.fun("E4"), DEFAULT_LIMITS)
        assert report.witness == {"kind": "object-without-replacement",
                                  "object": "Z"}


class TestSFull:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": True, "E4": True, "E5": True,
                    "E7": True, "E7b": True, "E5term": False}
        for name, want in expected.items():
            report = check_s_full(corpus.fun(name), DEFAULT_LIMITS)
            assert report.verdict == want, name

    def test_no_fill_witness(self):
        # terminal -> E5: the 2-arrow (identity, d) admits no fill because
        # the only candidate is the identity and loc(d) != loc(1)
        report = check_s_full(corpus.fun("E5term"), DEFAULT_LIMITS)
        assert report.witness["kind"] == "no-fill"
        assert report.witness["arrow"]["g"]["letters"] == []
        assert report.witness["arrow"]["b"]["letters"] == ["d"]


class TestSFaithful:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": False, "E4": True, "E5": True,
                    "E7": True, "E7b": True}
        for name, want in expected.items():
            report = check_s_faithful(corpus.fun(name), DEFAULT_LIMITS)
            assert report.verdict == want, name

    def test_e3_witness_shows_both_fills(self):
        report = check_s_faithful(corpus.fun("E3"), DEFAULT_LIMITS)
        w = report.witness
        assert w["kind"] == "distinct-fills"
        assert w["first"]["letters"] == ["f1"]
        assert w["second"]["letters"] == ["f2"]


class TestFills:
    def test_two_arrow_enumeration_is_deterministic(self):
        s = corpus.setting("E7")
        first = [a.to_json() for a in enumerate_s_two_arrows(s)]
        second = [a.to_json() for a in enumerate_s_two_arrows(s)]
        assert first == second

    def test_every_e2_arrow_has_exactly_one_fill(self):
        s = corpus.setting("E2")
        arrows = list(enumerate_s_two_arrows(s))
        assert arrows
        for arrow in arrows:
            assert len(solve_fill(s, arrow)) == 1

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
            report = check_s_equivalence(corpus.fun(name), DEFAULT_LIMITS)
            assert report.verdict == want, name

    def test_multiplicative_details_include_characterisation(self):
        report = check_s_equivalence(corpus.fun("E7"), DEFAULT_LIMITS)
        d = report.details
        assert d["target_multiplicative"] is True
        assert d["s_full"] is True and d["s_faithful"] is True
        assert d["characterisation_agrees"] is True

    def test_fill_survey_runs_once_per_setting(self, monkeypatch):
        runs = []
        survey = equivalence._fill_survey

        def counted(setting):
            runs.append(setting)
            return survey(setting)

        monkeypatch.setattr(equivalence, "_fill_survey", counted)
        setting = prepare(corpus.fun("E7"), DEFAULT_LIMITS)
        report = check_s_equivalence(setting.f, DEFAULT_LIMITS, setting)
        assert report.details["s_full"] and report.details["s_faithful"]
        assert check_s_full(setting.f, DEFAULT_LIMITS, setting).verdict
        assert len(runs) == 1

    @pytest.mark.parametrize("check", [check_s_dense, check_s_full,
                                       check_s_faithful, check_s_equivalence])
    def test_bounds_used_are_the_setting_limits(self, check):
        # a given setting was completed under the default limits; other
        # limits passed alongside it are not the ones the check ran under
        f = corpus.fun("E7")
        report = check(f, ResourceLimits(max_word_len=12), corpus.setting("E7"))
        assert report.bounds_used == asdict(DEFAULT_LIMITS)

    def test_gz_details_present(self):
        report = check_s_equivalence(corpus.fun("E2"), DEFAULT_LIMITS)
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
            rel = check_s_equivalence(corpus.fun(name), DEFAULT_LIMITS)
            cls, _ = classical_equivalence(s.f, s.rs_src, s.rs_tgt)
            assert rel.verdict == cls == expected[name], name
