"""The componentwise approximation-theorem verifier."""

import gc
import time
import weakref
from collections import Counter

import pytest

import corpus
from loccat import (DEFAULT_LIMITS, CatPresentation, CatWithDenoms,
                    ConstructionError, DenomDecider, DenomSet, FunctorData,
                    GenArrow, LocValuedFunctor, PathWord, PreconditionError,
                    Relation, ResourceLimits, auto_choice,
                    build_replacement_category, check_s_equivalence,
                    choice_independence, complete, homset, load_choice,
                    loc_map, localise, prepare, total_replacement_functor,
                    total_value, verify_approximation)
from loccat import approximation, equivalence

SECTION_NAMES = ["preconditions", "total_functor", "shortening",
                 "denominator_values", "choice", "choice_functor",
                 "induced_functor", "alpha", "beta", "symmetric_relations",
                 "canonical_lift", "forgetful_section_pair"]


def rc_for(name):
    s = corpus.setting(name)
    return s, build_replacement_category(s.f, s.rs_src, s.rs_tgt)


def section(report, name):
    return next(sec for sec in report.sections if sec["name"] == name)


class TestTotalFunctor:
    # counts frozen from a verified run; the booleans are the substance
    FROZEN = {
        "E2": {"arrows_surveyed": 2, "words_checked": 3,
               "composable_pairs_checked": 4},
        "E5": {"arrows_surveyed": 4, "words_checked": 8,
               "composable_pairs_checked": 32},
        "E7": {"arrows_surveyed": 6, "words_checked": 9,
               "composable_pairs_checked": 16},
    }

    def test_reports(self):
        for name, frozen in self.FROZEN.items():
            _, report = total_replacement_functor(*rc_for(name))
            assert report["ok"], name
            assert report["fill_cardinality_one"], name
            assert report["identities_ok"], name
            assert report["letterwise_agreement_ok"], name
            assert report["functoriality_ok"], name
            for key, val in frozen.items():
                assert report[key] == val, (name, key)

    def test_total_value_unique_fill(self):
        s, rc = rc_for("E2")
        tgt = s.f.target.cat
        val = total_value(s, rc, 0, 1, tgt.word(["d"]))
        assert val == s.lc_src.presentation.identity("•")

    def test_total_value_is_deterministic(self):
        s, rc = rc_for("E7")
        tgt = s.f.target.cat
        w = tgt.word(["v_left", "h_bot"])
        assert total_value(s, rc, 0, 3, w) == total_value(s, rc, 0, 3, w)


def ladder(n):
    """E7 made longer: the free top row ``x0 -> .. -> xn`` included in the
    grid ``[n] x [1]`` with squares ``h_i . v_i = v_{i-1} . k_i`` and the
    verticals ``v_i`` as denominators."""
    t = [f"t{i}" for i in range(n + 1)]
    b = [f"b{i}" for i in range(n + 1)]
    x = [f"x{i}" for i in range(n + 1)]
    steps = range(1, n + 1)
    gens = ([GenArrow(f"h{i}", t[i - 1], t[i]) for i in steps]
            + [GenArrow(f"v{i}", t[i], b[i]) for i in range(n + 1)]
            + [GenArrow(f"k{i}", b[i - 1], b[i]) for i in steps])
    squares = [Relation(PathWord(t[i - 1], b[i], (f"h{i}", f"v{i}")),
                        PathWord(t[i - 1], b[i], (f"v{i - 1}", f"k{i}")))
               for i in steps]
    verticals = tuple(PathWord(t[i], b[i], (f"v{i}",)) for i in range(n + 1))
    target = CatWithDenoms(
        CatPresentation(tuple(t + b), tuple(gens), tuple(squares)),
        DenomSet(verticals, True, True))
    source = CatWithDenoms(
        CatPresentation(tuple(x), tuple(GenArrow(f"f{i}", x[i - 1], x[i])
                                        for i in steps), ()),
        DenomSet((), True, False))
    return FunctorData(source, target, dict(zip(x, t)),
                       {f"f{i}": PathWord(t[i - 1], t[i], (f"h{i}",))
                        for i in steps})


class TestFillTables:
    @pytest.mark.parametrize("f", [corpus.fun("E7"), ladder(3)],
                             ids=["E7", "L3"])
    def test_candidates_tried_once_per_arrow(self, monkeypatch, f):
        # every candidate fill of a 2-arrow costs one gz_compose in
        # solve_fill; a whole run must pay it once per distinct arrow
        candidates: dict = {}
        calls = []
        solve, compose = equivalence.solve_fill, equivalence.gz_compose

        def counted_solve(setting, arrow):
            candidates[arrow] = len(homset(setting.lc_src.rs, arrow.x,
                                           arrow.x_prime))
            return solve(setting, arrow)

        def counted_compose(*args):
            calls.append(args)
            return compose(*args)

        monkeypatch.setattr(equivalence, "solve_fill", counted_solve)
        monkeypatch.setattr(approximation, "solve_fill", counted_solve)
        monkeypatch.setattr(equivalence, "gz_compose", counted_compose)
        assert verify_approximation(f, DEFAULT_LIMITS).ok
        assert candidates
        assert len(calls) == sum(candidates.values())

    def test_failed_total_value_raises_again(self):
        # E3 sends f1 and f2 both to g, so the value at g has two fills
        s = prepare(corpus.fun("E3"), DEFAULT_LIMITS)
        rc = build_replacement_category(s.f, s.rs_src, s.rs_tgt)
        g = s.f.target.cat.word(["g"])
        for _ in range(2):
            with pytest.raises(ConstructionError, match="got 2"):
                total_value(s, rc, 0, 1, g)

    def test_setting_freed_after_verify(self, monkeypatch):
        refs = []

        def recorded(*args):
            setting = prepare(*args)
            refs.append(weakref.ref(setting))
            return setting

        monkeypatch.setattr(approximation, "prepare", recorded)
        assert verify_approximation(corpus.fun("E7"), DEFAULT_LIMITS).ok
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None


class TestFunctorChecks:
    def test_wrong_shared_composite_fails(self):
        # D3 into its localisation; b.a.b is not a normal form, and it is
        # the composite of both (b, a.b) and (b.a, b).  A value wrong there
        # alone must fail functoriality, with every pair still counted.
        def word(letters):
            return PathWord("o", "o", tuple(letters))

        cat = CatPresentation(("o",), (GenArrow("a", "o", "o"),
                                       GenArrow("b", "o", "o")),
                              tuple(Relation(word(lhs), word(rhs)) for lhs, rhs
                                    in (("aaa", ""), ("bb", ""), ("bab", "aa"))))
        c = CatWithDenoms(cat, DenomSet((word("a"),), True, True))
        rs = complete(cat, ResourceLimits(max_word_len=4))
        lc = localise(c, rs)
        words = homset(rs, "o", "o")
        shared = word("bab")
        assert shared not in words
        assert Counter(cat.concat(w1, w2) for w1 in words
                       for w2 in words)[shared] == 2

        def checks(value):
            functor = LocValuedFunctor(
                source=c, target_lc=lc, object_map={"o": "o"},
                gen_values={g: loc_map(lc, word(g)) for g in "ab"})
            return approximation._functor_checks(functor, rs, value)

        def right(w):
            return loc_map(lc, w)

        def wrong(w):
            return lc.presentation.identity("o") if w == shared else right(w)

        assert right(shared) != wrong(shared)
        assert checks(right) == (6, True, 36, True)
        assert checks(wrong) == (6, True, 36, False)

    def test_ladder_counts(self):
        # counted when every pair still computed its own composite
        report = verify_approximation(ladder(4), DEFAULT_LIMITS)
        assert report.ok
        counts = {(name, key): section(report, name)[key]
                  for name, key in (
                      ("total_functor", "words_checked"),
                      ("total_functor", "composable_pairs_checked"),
                      ("shortening", "quadruples_checked"),
                      ("choice_functor", "composable_pairs_checked"),
                      ("induced_functor", "description_pairs_checked"))}
        assert list(counts.values()) == [45, 140, 90, 140, 60]


class TestDeciders:
    @pytest.mark.parametrize("run", [
        lambda f: verify_approximation(f, DEFAULT_LIMITS).ok,
        lambda f: check_s_equivalence(f, DEFAULT_LIMITS).verdict,
    ], ids=["verify-approximation", "s-equivalence"])
    def test_one_build_per_denominators_and_system(self, monkeypatch, run):
        # each system keeps its deciders, so no (denoms, system) is
        # decided twice in one run
        builds = []
        init = DenomDecider.__init__

        def counted(self, c, rs):
            builds.append((c.denoms, rs))
            init(self, c, rs)

        monkeypatch.setattr(DenomDecider, "__init__", counted)
        assert run(corpus.fun("E7"))
        keys = [(denoms, id(rs)) for denoms, rs in builds]
        assert len(keys) > 1
        assert len(keys) == len(set(keys))


class TestShortening:
    def test_corpus(self):
        for name in ("E2", "E5", "E7", "E7b"):
            s, rc = rc_for(name)
            from loccat import verify_shortening
            report = verify_shortening(s, rc)
            assert report["ok"], name
            assert report["quadruples_checked"] > 0, name


class TestDenominatorValues:
    def test_corpus(self):
        for name in ("E2", "E5", "E7", "E7b"):
            s, rc = rc_for(name)
            from loccat import verify_denominator_values
            report = verify_denominator_values(s, rc)
            assert report["ok"], name
            assert report["lifted_denominators_checked"] == \
                len(rc.cwd.denoms.explicit), name


class TestVerifyApproximation:
    def test_end_to_end_under_thirty_seconds(self):
        for name in ("E2", "E5", "E7"):
            start = time.monotonic()
            report = verify_approximation(corpus.fun(name), DEFAULT_LIMITS)
            elapsed = time.monotonic() - start
            assert report.ok, name
            assert elapsed < 30.0, (name, elapsed)
            assert report.decidability_status == "complete"
            assert [sec["name"] for sec in report.sections] == SECTION_NAMES

    def test_alpha_components(self):
        report = verify_approximation(corpus.fun("E2"), DEFAULT_LIMITS)
        alpha = section(report, "alpha")
        assert alpha["components"] == [
            {"object": "•",
             "component": {"src": "•", "dst": "•", "letters": []},
             "invertible": True}]

    def test_beta_components(self):
        report = verify_approximation(corpus.fun("E2"), DEFAULT_LIMITS)
        beta = section(report, "beta")
        by_obj = {c["object"]: c["component"] for c in beta["components"]}
        assert by_obj["a"]["letters"] == []
        assert by_obj["b"]["letters"] == ["d"]
        assert all(c["invertible"] for c in beta["components"])

    def test_e7_component_counts(self):
        report = verify_approximation(corpus.fun("E7"), DEFAULT_LIMITS)
        # alpha is indexed by source objects, beta by target objects
        assert len(section(report, "alpha")["components"]) == 2
        assert len(section(report, "beta")["components"]) == 4
        beta = {c["object"]: c["component"]["letters"]
                for c in section(report, "beta")["components"]}
        assert beta == {"tl": [], "tr": [], "bl": ["v_left"],
                        "br": ["v_right"]}

    def test_symmetric_relations_section(self):
        for name in ("E2", "E5", "E7"):
            report = verify_approximation(corpus.fun(name), DEFAULT_LIMITS)
            sym = section(report, "symmetric_relations")
            assert sym["ok"], name

    def test_canonical_lift_and_section_pair(self):
        for name in ("E2", "E5", "E7"):
            report = verify_approximation(corpus.fun(name), DEFAULT_LIMITS)
            lift = section(report, "canonical_lift")
            pair = section(report, "forgetful_section_pair")
            assert lift["ok"] and lift["retract_exact_ok"], name
            assert pair["ok"] and pair["section_then_forgetful_identity_ok"], \
                name

    def test_report_json_is_stable(self):
        import json
        r1 = verify_approximation(corpus.fun("E7"), DEFAULT_LIMITS)
        r2 = verify_approximation(corpus.fun("E7"), DEFAULT_LIMITS)
        assert json.dumps(r1.to_json(), sort_keys=True) == \
            json.dumps(r2.to_json(), sort_keys=True)


class TestPreconditions:
    def test_non_multiplicative_target_rejected(self):
        with pytest.raises(PreconditionError) as exc:
            verify_approximation(corpus.fun("E6"), DEFAULT_LIMITS)
        assert exc.value.witness == {
            "kind": "identity-not-denominator", "object": "a",
            "word": {"src": "a", "dst": "a", "letters": []}}

    def test_not_enough_replacements_rejected(self):
        with pytest.raises(PreconditionError) as exc:
            verify_approximation(corpus.fun("E4"), DEFAULT_LIMITS)
        assert exc.value.witness["kind"] == "object-without-replacement"

    def test_experimental_flag_bypasses_only_multiplicativity(self):
        # with the gate open, E6 now fails on density instead
        with pytest.raises(PreconditionError) as exc:
            verify_approximation(corpus.fun("E6"), DEFAULT_LIMITS,
                                 experimental_no_mult=True)
        assert exc.value.witness["kind"] == "object-without-replacement"


class TestChoiceIndependence:
    def alt_choice(self, rc):
        s = corpus.setting("E7b")
        return load_choice(str(corpus.FIXTURES / "E7b-alt.choice.json"),
                           s.f, s.rs_tgt)

    def test_two_choices_differ(self):
        _, rc = rc_for("E7b")
        auto = auto_choice(rc)
        alt = self.alt_choice(rc)
        assert auto.get("bl") != alt.get("bl")
        assert auto.get("tl") == alt.get("tl")

    def test_comparison_isomorphism(self):
        s, rc = rc_for("E7b")
        auto = auto_choice(rc)
        alt = self.alt_choice(rc)
        report = choice_independence(s, rc, auto, alt)
        assert report["ok"]
        assert report["isomorphism_ok"] and report["naturality_ok"]
        # the parallel denominators coincide in the localisation, so the
        # comparison components are identities
        for comp in report["components"]:
            assert comp["component"]["letters"] == []

    def test_comparison_inverse_is_the_swap(self):
        s, rc = rc_for("E7b")
        auto = auto_choice(rc)
        alt = self.alt_choice(rc)
        fwd = choice_independence(s, rc, auto, alt)
        bwd = choice_independence(s, rc, alt, auto)
        for c_f, c_b in zip(fwd["components"], bwd["components"]):
            assert c_f["inverse"] == c_b["component"]
            assert c_f["component"] == c_b["inverse"]

    def test_full_run_with_compare(self):
        s, rc = rc_for("E7b")
        alt = self.alt_choice(rc)
        report = verify_approximation(corpus.fun("E7b"), DEFAULT_LIMITS,
                                      choice=alt, compare_choice="auto")
        assert report.ok
        names = [sec["name"] for sec in report.sections]
        assert names == SECTION_NAMES + ["choice_independence"]
        indep = section(report, "choice_independence")
        assert indep["ok"]
