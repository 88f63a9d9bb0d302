"""The componentwise approximation-theorem verifier."""

import gc
import hashlib
import json
import time
import weakref
from collections import Counter

import pytest

import corpus
from loccat import (DEFAULT_LIMITS, CatPresentation,
                    ConstructionError, DenomDecider, FunctorData,
                    PathWord, PreconditionError,
                    ReplacementChoice, ResourceLimits,
                    SReplacement, ValidationError, auto_choice,
                    check_s_equivalence, check_s_full,
                    choice_independence, complete, homset,
                    load_cat, load_choice, localise, normalize, prepare,
                    total_replacement_functor, total_value,
                    verify_approximation)
from loccat import approximation, equivalence, gz, replacement
from loccat.cli import main
from loccat.replacement import positions

SECTION_NAMES = ["preconditions", "total_functor", "shortening",
                 "denominator_values", "choice", "choice_functor",
                 "induced_functor", "alpha", "beta", "symmetric_relations",
                 "canonical_lift", "forgetful_section_pair"]


def rc_for(name):
    s = corpus.setting(name)
    return s, s.rc


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
            _, report = total_replacement_functor(corpus.setting(name))
            assert report["ok"], name
            assert report["fill_cardinality_one"], name
            assert report["identities_ok"], name
            assert report["letterwise_agreement_ok"], name
            assert report["functoriality_ok"], name
            for key, val in frozen.items():
                assert report[key] == val, (name, key)

    def test_total_value_unique_fill(self):
        s, rc = rc_for("E2")
        tgt = s.f.target
        val = s.lc_src.rs.decode(total_value(s, 0, 1, s.rs_tgt.encode(tgt.word(["d"]))))
        assert val == s.lc_src.presentation.identity("•")

    def test_total_value_checks_both_ends(self):
        # triple 0 lies over tl: h_top starts there but ends at tr, and
        # v_right starts at tr
        s, _ = rc_for("E7")
        tgt = s.f.target
        with pytest.raises(ValidationError, match="to 'tr' does not run"):
            total_value(s, 0, 0, s.rs_tgt.encode(tgt.word(["h_top"])))
        with pytest.raises(ValidationError, match="from 'tr' to 'br'"):
            total_value(s, 0, 0, s.rs_tgt.encode(tgt.word(["v_right"])))

    def test_total_value_is_deterministic(self):
        s, rc = rc_for("E7")
        tgt = s.f.target
        w = s.rs_tgt.encode(tgt.word(["v_left", "h_bot"]))
        assert total_value(s, 0, 3, w) == total_value(s, 0, 3, w)


def ladder(n):
    """E7 made longer: the free top row ``x0 -> .. -> xn`` included in the
    grid ``[n] x [1]`` with squares ``h_i . v_i = v_{i-1} . k_i`` and the
    verticals ``v_i`` as denominators."""
    t = [f"t{i}" for i in range(n + 1)]
    b = [f"b{i}" for i in range(n + 1)]
    x = [f"x{i}" for i in range(n + 1)]
    steps = range(1, n + 1)
    gens = ([(f"h{i}", t[i - 1], t[i]) for i in steps]
            + [(f"v{i}", t[i], b[i]) for i in range(n + 1)]
            + [(f"k{i}", b[i - 1], b[i]) for i in steps])
    squares = [((f"h{i}", f"v{i}"), (f"v{i - 1}", f"k{i}")) for i in steps]
    target = load_cat(f"L{n} grid", corpus.cat_data(
        t + b, gens, squares, [f"v{i}" for i in range(n + 1)]))
    source = load_cat(f"L{n} row", corpus.cat_data(
        x, [(f"f{i}", x[i - 1], x[i]) for i in steps], close_under_composition=False))
    return FunctorData(source, target, dict(zip(x, t)),
                       {f"f{i}": target.encode(target.word([f"h{i}"])) for i in steps})


class TestLadderBytes:
    """Report bytes of the ladder family at the default limits: SHA-256
    of ``json.dumps(report._asdict(), sort_keys=True)``, recorded before
    words were encoded inside each system."""

    DIGESTS = [
        (2, "1cb387b360c6088655b24dd7972ebeb645bccf834414fc87a1079d0c30801c53",
         "fddd1c64136fa5cac3aee4de9135849c3aa0b9bef304e16b0ba7339d816a33fe"),
        (3, "008fba68eb1a4bb1150b9324a4962fc38748a7618a7014b03de4e12c268113d7",
         "fddd1c64136fa5cac3aee4de9135849c3aa0b9bef304e16b0ba7339d816a33fe"),
        (4, "305eb0cd3e184ce1900e81f0a5d28d4830cc2074687d43f92aa96cb984da55d4",
         "fddd1c64136fa5cac3aee4de9135849c3aa0b9bef304e16b0ba7339d816a33fe"),
        (5, "fc2d6d9581a67f55672d35c3e55d8117f023b5bd8165133575403a8e280a5fcf",
         "fddd1c64136fa5cac3aee4de9135849c3aa0b9bef304e16b0ba7339d816a33fe"),
    ]

    @staticmethod
    def digest(report):
        text = json.dumps(report._asdict(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("n,verify,s_equivalence", DIGESTS,
                             ids=[f"L{n}" for n, _, _ in DIGESTS])
    def test_reports_unchanged(self, n, verify, s_equivalence):
        f = ladder(n)
        assert self.digest(verify_approximation(f, DEFAULT_LIMITS)) == verify
        assert self.digest(check_s_equivalence(prepare(f, DEFAULT_LIMITS))) == \
            s_equivalence


class TestFillTables:
    @pytest.mark.parametrize("f", [corpus.fun("E7"), ladder(3)],
                             ids=["E7", "L3"])
    def test_candidates_tried_once_per_arrow(self, monkeypatch, f):
        # solve_fill lists the candidate fills of a 2-arrow, the hom-set of
        # the localised source, and tries each one; a whole run must list
        # them once per distinct arrow
        arrows, sources, listed = set(), set(), []
        solve, words = equivalence.solve_fill, equivalence.words

        def counted_solve(setting, arrow):
            arrows.add(arrow)
            sources.add(id(setting.lc_src.rs))
            return solve(setting, arrow)

        def counted_words(rs, x, y):
            listed.append(rs)
            return words(rs, x, y)

        monkeypatch.setattr(equivalence, "solve_fill", counted_solve)
        monkeypatch.setattr(equivalence, "words", counted_words)
        assert verify_approximation(f, DEFAULT_LIMITS).ok
        assert arrows
        assert len([rs for rs in listed if id(rs) in sources]) == len(arrows)

    def test_failed_total_value_raises_again(self):
        # E3 sends f1 and f2 both to g, so the value at g has two fills
        s = prepare(corpus.fun("E3"), DEFAULT_LIMITS)
        g = s.rs_tgt.encode(s.f.target.word(["g"]))
        for _ in range(2):
            with pytest.raises(ConstructionError, match="got 2"):
                total_value(s, 0, 1, g)

    def test_identities_keep_their_endpoints(self):
        # the empty code is the identity of every object: the normal-form
        # table and the total-value table must not hand one object's
        # identity to another, nor any value to another pair of triples
        for name in ("E2", "E5", "E7", "E7b"):
            s, rc = rc_for(name)
            p = s.f.target
            for y in p.objects:
                assert normalize(s.rs_tgt, p.identity(y)) == p.identity(y)
            sources = [t.source for t in rc.triples]
            assert name != "E7" or len(set(sources)) > 1
            for i, t in enumerate(rc.triples):
                assert s.lc_src.rs.decode(total_value(
                    s, i, i, s.rs_tgt.encode(p.identity(t.target)))) == \
                    s.lc_src.presentation.identity(t.source)
                for j, t2 in enumerate(rc.triples):
                    for w in homset(s.rs_tgt, t.target, t2.target):
                        value = s.lc_src.rs.decode(total_value(s, i, j, s.rs_tgt.encode(w)))
                        assert (value.src, value.dst) == (t.source, t2.source), \
                            (name, i, j, w)

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

        c = load_cat("D3", corpus.cat_data(
            ["o"], [("a", "o", "o"), ("b", "o", "o")],
            [("aaa", ""), ("bb", ""), ("bab", "aa")], ["a"]))
        rs = complete(c, ResourceLimits(max_word_len=4))
        lc = localise(rs)
        words = homset(rs, "o", "o")
        shared = word("bab")
        assert shared not in words
        assert Counter(w1.letters + w2.letters for w1 in words
                       for w2 in words)[shared.letters] == 2

        def checks(value):
            functor = FunctorData(
                source=c, target=lc.presentation, object_map={"o": "o"},
                images={g: lc.rs.encode(normalize(lc.rs, word(g))) for g in "ab"})
            return approximation._functor_checks(functor, lc, rs, value)

        # values take and give encoded words (src, dst, code)
        def right(w):
            return lc.rs.encode(normalize(lc.rs, rs.decode(w)))

        def wrong(w):
            return ("o", "o", "") if w == rs.encode(shared) else right(w)

        assert right(rs.encode(shared)) != wrong(rs.encode(shared))
        assert checks(right) == (6, True, 36, True)
        assert checks(wrong) == (6, True, 36, False)

    def test_ladder_counts(self):
        # every counter of the report, counted when every pair still
        # computed its own composite and every loop ran over all objects,
        # empty hom-sets included
        f = ladder(4)
        report = verify_approximation(f, DEFAULT_LIMITS)
        assert report.ok
        counts = {(sec["name"], key): value for sec in report.sections
                  for key, value in sec.items() if type(value) is int}
        assert counts == {
            ("preconditions", "arrows_surveyed"): 30,
            ("total_functor", "arrows_surveyed"): 30,
            ("total_functor", "words_checked"): 45,
            ("total_functor", "composable_pairs_checked"): 140,
            ("shortening", "quadruples_checked"): 90,
            ("denominator_values", "lifted_denominators_checked"): 15,
            ("choice_functor", "composable_pairs_checked"): 140,
            ("choice_functor", "denominators_checked"): 15,
            ("choice_functor", "comparison_isos_checked"): 10,
            ("induced_functor", "description_pairs_checked"): 60,
            ("alpha", "squares_checked"): 4,
            ("beta", "squares_checked"): 18,
            ("symmetric_relations", "objects_checked"): 15,
            ("canonical_lift", "comparison_to_forgetful_squares"): 13,
            ("canonical_lift", "localised_comparison_squares"): 13,
            ("forgetful_section_pair", "comparison_squares_checked"): 18}
        full = check_s_full(prepare(f, DEFAULT_LIMITS))
        assert full.verdict and full.details == {"arrows_checked": 30}

    def test_localised_forgetful_built_once(self, monkeypatch):
        # the localisation of the replacement category is answered through
        # the localised forgetful functor, and the forgetful_section_pair
        # section validates that one: built twice before
        settings, bases = [], []

        def recorded(*args):
            settings.append(prepare(*args))
            return settings[-1]

        def counted(lc_src, lc_tgt, base, fresh_value):
            bases.append(base)
            return extend(lc_src, lc_tgt, base, fresh_value)

        extend = gz.extend_to_localisation
        monkeypatch.setattr(approximation, "prepare", recorded)
        for module in (gz, approximation, replacement):
            monkeypatch.setattr(module, "extend_to_localisation", counted)
        assert verify_approximation(corpus.fun("E7"), DEFAULT_LIMITS).ok
        forgetful = settings[0].rc.forgetful
        assert sum(base is forgetful for base in bases) == 1

    def test_invalid_localised_functor_raises(self):
        s = corpus.setting("E7")
        lc_rc, gz_u = s.rc.localised(s.lc_tgt)
        assert gz.checked(gz_u, lc_rc, s.lc_tgt) is gz_u
        name = next(iter(lc_rc.inv_of))
        broken = FunctorData(gz_u.source, gz_u.target, gz_u.object_map,
                             {**gz_u.images,
                              name: s.lc_tgt.presentation.encode(
                                  s.lc_tgt.presentation.identity(gz_u.images[name][0]))})
        with pytest.raises(ConstructionError, match="^induced functor invalid: "):
            gz.checked(broken, lc_rc, s.lc_tgt)


class TestDeciders:
    @pytest.mark.parametrize("run", [
        lambda f: verify_approximation(f, DEFAULT_LIMITS).ok,
        lambda f: check_s_equivalence(prepare(f, DEFAULT_LIMITS)).verdict,
    ], ids=["verify-approximation", "s-equivalence"])
    def test_one_build_per_denominators_and_system(self, monkeypatch, run):
        # each system keeps its decider, so no system's denominators
        # are decided twice in one run
        builds = []
        init = DenomDecider.__init__

        def counted(self, rs):
            builds.append(rs)
            init(self, rs)

        monkeypatch.setattr(DenomDecider, "__init__", counted)
        assert run(corpus.fun("E7"))
        keys = list(map(id, builds))
        assert len(keys) > 1
        assert len(keys) == len(set(keys))


def corrupt(monkeypatch, setting, key, wrong):
    """Make ``setting`` answer ``wrong`` as its value at ``key``."""
    right = setting.value
    monkeypatch.setattr(setting, "value",
                        lambda i, j, s: wrong if (i, j, s) == key else right(i, j, s))


def word_of(src, dst, *letters):
    return {"src": src, "dst": dst, "letters": list(letters)}


class TestShortening:
    def test_corpus(self):
        for name in ("E2", "E5", "E7", "E7b"):
            s, rc = rc_for(name)
            from loccat import verify_shortening
            report = verify_shortening(s)
            assert report["ok"], name
            assert report["quadruples_checked"] > 0, name

    def test_wrong_value_has_witness(self, monkeypatch):
        # E7's square h_top . v_right = v_left . h_bot: the value at h_bot
        # between the lengthened triples must be the value at h_top
        from loccat import verify_shortening
        s = prepare(corpus.fun("E7"), DEFAULT_LIMITS)
        code = s.rs_tgt.encode
        tgt, rc = s.f.target, s.rc
        i = rc.position("bl", "x0", code(tgt.word(["v_left"]))[2])
        j = rc.position("br", "x1", code(tgt.word(["v_right"]))[2])
        corrupt(monkeypatch, s, (i, j, code(tgt.word(["h_bot"]))[2]), ("x0", "x0", ""))
        assert verify_shortening(s) == {
            "quadruples_checked": 18, "ok": False,
            "witness": {"g": word_of("tl", "tr", "h_top"),
                        "g_shortened": word_of("bl", "br", "h_bot"),
                        "e": word_of("tl", "bl", "v_left"),
                        "e_prime": word_of("tr", "br", "v_right")}}


class TestDenominatorValues:
    def test_corpus(self):
        for name in ("E2", "E5", "E7", "E7b"):
            s, rc = rc_for(name)
            from loccat import verify_denominator_values
            report = verify_denominator_values(s)
            assert report["ok"], name
            assert report["lifted_denominators_checked"] == \
                len(rc.rs.presentation.denoms.explicit), name

    def test_wrong_value_has_witness(self, monkeypatch):
        # the identity functor of an idempotent u: the one lifted
        # denominator, the identity of (x|x|1), given the value u, which
        # has no inverse
        from loccat import verify_denominator_values
        c = load_cat("idempotent", corpus.cat_data(["x"], [("u", "x", "x")],
                                                   [(("u", "u"), ("u",))]))
        u = c.encode(c.word(["u"]))
        s = prepare(FunctorData(c, c, {"x": "x"}, {"u": u}), DEFAULT_LIMITS)
        corrupt(monkeypatch, s, (0, 0, ""), u)
        assert verify_denominator_values(s) == {
            "lifted_denominators_checked": 1, "ok": False,
            "witness": {"lifted_word": word_of("(x|x|1)", "(x|x|1)"),
                        "value": word_of("x", "x", "u")}}


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
        assert json.dumps(r1._asdict(), sort_keys=True) == \
            json.dumps(r2._asdict(), sort_keys=True)


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
        """The positions of the triples the alternative choice file names."""
        return positions(rc, load_choice(str(corpus.FIXTURES / "E7b-alt.choice.json"),
                                         corpus.fun("E7b")))

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
        report = choice_independence(s, auto, alt)
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
        fwd = choice_independence(s, auto, alt)
        bwd = choice_independence(s, alt, auto)
        for c_f, c_b in zip(fwd["components"], bwd["components"]):
            assert c_f["inverse"] == c_b["component"]
            assert c_f["component"] == c_b["inverse"]

    def test_choice_naming_no_triple_is_rejected(self):
        # q_bl runs from F x0, so (bl, x1, q_bl) is no replacement triple
        s, rc = rc_for("E7b")
        auto = {y: rc.triples[i] for y, i in auto_choice(rc).items()}
        stray = SReplacement("bl", "x1", auto["bl"].q)
        assert stray not in rc.triples
        bad = ReplacementChoice(tuple((y, stray if y == "bl" else rep)
                                      for y, rep in auto.items()))
        with pytest.raises(ValidationError, match="'bl' is not a valid replacement"):
            positions(rc, bad)
        with pytest.raises(ValidationError, match="'bl' is not a valid replacement"):
            verify_approximation(s.f, DEFAULT_LIMITS, choice=bad)
        # a triple over another object is no choice for this one
        foreign = dict(auto, bl=auto["z"])
        with pytest.raises(ValidationError, match="choice for 'bl' replaces 'z'"):
            verify_approximation(s.f, DEFAULT_LIMITS, choice=foreign)

    def test_full_run_with_compare(self):
        alt = load_choice(str(corpus.FIXTURES / "E7b-alt.choice.json"), corpus.fun("E7b"))
        report = verify_approximation(corpus.fun("E7b"), DEFAULT_LIMITS,
                                      choice=alt)
        assert report.ok
        names = [sec["name"] for sec in report.sections]
        assert names == SECTION_NAMES + ["choice_independence"]
        indep = section(report, "choice_independence")
        assert indep["ok"]


class TestRoundTrips:
    """A run keeps its words encoded from the loaded functor to the
    report: presentations, systems and deciders hold codes, so it encodes
    nothing and decodes only what the report prints.

    The decodes that stay, on E7 and on L4: the report's alpha and beta
    component rows (6 and 15) and its ``choice`` rows (4 and 10).  They
    are counted at :class:`CatPresentation`, to which the
    ``RewriteSystem`` methods delegate.
    """

    @pytest.mark.parametrize("make,decodes,encodes", [
        (lambda: corpus.fun("E7"), 10, 0),
        (lambda: ladder(4), 25, 0),
    ], ids=["E7", "L4"])
    def test_words_cross_the_edge_once(self, monkeypatch, make, decodes, encodes):
        f = make()
        calls = Counter()
        for method in ("decode", "encode"):
            def counted(p, w, _method=method, _real=getattr(CatPresentation, method)):
                calls[_method] += 1
                return _real(p, w)

            monkeypatch.setattr(CatPresentation, method, counted)
        assert verify_approximation(f, DEFAULT_LIMITS).ok
        assert (calls["decode"], calls["encode"]) == (decodes, encodes)


@pytest.mark.parametrize("extra,calls", [
    ([], 0),
    (["--choice", "from-file", str(corpus.FIXTURES / "E7b-alt.choice.json")], 1),
], ids=["auto", "from-file"])
def test_choice_checked_once(monkeypatch, capsys, extra, calls):
    # a given choice is checked once, at the entry of verify_approximation;
    # past it, and for the automatic choice, the triples are read by position
    counted = []

    def counting(rc, choice):
        counted.append(choice)
        return positions(rc, choice)

    for module in (approximation, replacement):
        monkeypatch.setattr(module, "positions", counting)
    assert main(["verify-approximation", corpus.fun_path("E7b"), *extra]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["ok"]
    assert len(counted) == calls


def test_replacements_listed_once(monkeypatch, capsys):
    # has_enough and the replacement category read one listing per
    # setting: one find_s_replacements call per target object, in order
    counted = []
    find = replacement.find_s_replacements

    def counting(f, rs_tgt, y):
        counted.append(y)
        return find(f, rs_tgt, y)

    for module in (equivalence, replacement):
        monkeypatch.setattr(module, "find_s_replacements", counting, raising=False)
    assert main(["verify-approximation", corpus.fun_path("E7b")]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["ok"]
    assert counted == ["tl", "tr", "bl", "br", "z"]
