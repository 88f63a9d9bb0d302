"""Acceptance gate: one test per shipped guarantee.

Each test here restates one of the package's headline guarantees and
verifies it end to end on the fixture corpus, so `pytest -v` prints one
pass/fail line per guarantee.  Supporting detail lives in the focused
module tests; this file is intentionally self-contained and re-derives
every verdict it asserts.
"""

import json
import time

import corpus
import test_oracle_agreement as agree
from loccat import (DEFAULT_LIMITS, DenomDecider, auto_choice,
                    check_s_dense,
                    check_s_equivalence, check_s_faithful, check_s_full,
                    choice_independence, classical_equivalence,
                    enumerate_s_two_arrows, equal, find_inverse,
                    has_enough, homset, induced_functor, load_choice, normalize,
                    prepare, solve_fill, structure_choice_functor,
                    verify_approximation)
from loccat.cli import main
from loccat.gz import through
from loccat.replacement import positions


def rc_for(name):
    s = corpus.setting(name)
    return s, s.rc


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def section(report, name):
    return next(sec for sec in report.sections if sec["name"] == name)


def test_criterion_01_rewrite_kernel_matches_bruteforce_oracle():
    """equal() agrees with congruence saturation on every fixture, base and
    localised, for words of length <= 8, in under ten seconds total."""
    t0 = time.monotonic()
    for name in corpus.CAT_NAMES:
        c = corpus.cat(name)
        agree.assert_engine_agreement(c.cat, corpus.rs(name))
        lp = corpus.lc(name).presentation
        agree.assert_engine_agreement(lp, corpus.lc(name).rs)
        agree.assert_construction_agreement(name)
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_localisation_invariants():
    """Every denominator becomes two-sided invertible, objects are
    preserved, and identity-only denominators leave hom-sets unchanged."""
    for name in corpus.CAT_NAMES:
        c, lc = corpus.cat(name), corpus.lc(name)
        assert lc.presentation.objects == c.cat.objects, name
        dec = DenomDecider(c, corpus.rs(name))
        for w in dec.materialized:
            image = normalize(lc.rs, w)
            inv = find_inverse(lc.rs, image)
            assert inv is not None, (name, w)
            image, inv = lc.rs.encode(image), lc.rs.encode(inv)
            assert lc.rs.decode(lc.rs.compose(image, inv)) == lc.presentation.identity(w.src)
            assert lc.rs.decode(lc.rs.compose(inv, image)) == lc.presentation.identity(w.dst)
    base, loc = corpus.rs("E1"), corpus.lc("E1")
    for x in corpus.cat("E1").cat.objects:
        for y in corpus.cat("E1").cat.objects:
            assert len(homset(base, x, y)) == len(homset(loc.rs, x, y))


def test_criterion_03_induced_functor_square_on_all_generators():
    """For every fixture functor, localising after applying the functor
    equals applying the induced functor after localising — checked on
    every generator of every source category."""
    for name in corpus.FUN_NAMES:
        s = corpus.setting(name)
        ind = induced_functor(s.f, s.lc_src, s.lc_tgt)
        for g in s.f.source.cat.generators:
            w = s.f.source.cat.encode(s.f.source.cat.word([g.name]))
            via_src = s.lc_tgt.rs.decode(through(s.lc_tgt, ind)(s.lc_src.rs.compose(w)))
            via_tgt = s.lc_tgt.rs.decode(through(s.lc_tgt, s.f)(w))
            assert equal(s.lc_tgt.rs, via_src, via_tgt), (name, g.name)


def test_criterion_04_replacement_category_suite():
    """The forgetful functor composed with any structure choice section is
    the identity, it preserves and reflects denominators exhaustively, and
    it is surjective on objects exactly when every object has a
    replacement."""
    from loccat import check_reflects_denominators, validate_functor
    for name in [n for n in corpus.FUN_NAMES if n != "E6"]:
        # E6's target is not multiplicative, so its replacement category
        # is rejected by the precondition gate (criterion 10 covers it).
        s, rc = rc_for(name)
        u = rc.forgetful
        assert validate_functor(u, rc.rs, s.rs_tgt) == [], name
        ok, _ = check_reflects_denominators(u, rc.rs, s.rs_tgt)
        assert ok, name
        hit = set(u.object_map.values())
        enough, _ = has_enough(s.replacements)
        assert (hit == set(s.f.target.cat.objects)) == enough, name
        if enough:
            c_r, _ = structure_choice_functor(rc, auto_choice(rc))
            round_trip = c_r.then(u)
            tgt = s.f.target.cat
            assert round_trip.object_map == {y: y for y in tgt.objects}
            for g in tgt.generators:
                assert tgt.decode(round_trip.images[g.name]).letters == (g.name,), name


def test_criterion_05_checker_verdicts_match_ground_truth():
    """Density/fullness/faithfulness verdicts match hand-verified truth on
    the fixture functors, with the expected witnesses, all decided."""
    expected = {  # (dense, full, faithful)
        "E2": (True, True, True),
        "E3": (True, True, False),
        "E4": (False, None, None),
        "E7": (True, True, True),
    }
    for name, (dense, full, faithful) in expected.items():
        f = corpus.fun(name)
        rep_d = check_s_dense(prepare(f, DEFAULT_LIMITS))
        assert rep_d.verdict == dense and \
            rep_d.decidability_status == "complete", name
        if full is not None:
            rep_fu = check_s_full(prepare(f, DEFAULT_LIMITS))
            assert rep_fu.verdict == full and \
                rep_fu.decidability_status == "complete", name
        if faithful is not None:
            rep_fa = check_s_faithful(prepare(f, DEFAULT_LIMITS))
            assert rep_fa.verdict == faithful and \
                rep_fa.decidability_status == "complete", name
    assert check_s_dense(prepare(corpus.fun("E4"), DEFAULT_LIMITS)).witness[
        "object"] == "Z"
    w = check_s_faithful(prepare(corpus.fun("E3"), DEFAULT_LIMITS)).witness
    assert {tuple(w["first"]["letters"]), tuple(w["second"]["letters"])} == \
        {("f1",), ("f2",)}


def test_criterion_06_total_functor_unique_fills_and_functoriality():
    """On E2/E5/E7 every fill is unique, the choice-free functor respects
    identities and all composable pairs, the shortening identity holds on
    all applicable quadruples, and every lifted denominator's value is
    invertible."""
    for name in ("E2", "E5", "E7"):
        s, _ = rc_for(name)
        for arrow in enumerate_s_two_arrows(s):
            assert len(solve_fill(s, arrow)) == 1, name
        report = verify_approximation(corpus.fun(name), DEFAULT_LIMITS)
        tf = section(report, "total_functor")
        assert tf["ok"] and tf["fill_cardinality_one"], name
        assert tf["functoriality_ok"] and tf["composable_pairs_checked"] > 0
        assert section(report, "shortening")["ok"], name
        dv = section(report, "denominator_values")
        assert dv["ok"] and dv["lifted_denominators_checked"] > 0, name


def test_criterion_07_approximation_theorem_end_to_end(capsys):
    """The componentwise verification passes on E2, E5 and E7: invertible
    natural components in both directions, commuting naturality squares,
    both symmetric relations, CLI exit 0, under 30 seconds each."""
    for name in ("E2", "E5", "E7"):
        t0 = time.monotonic()
        report = verify_approximation(corpus.fun(name), DEFAULT_LIMITS)
        assert report.ok and report.decidability_status == "complete", name
        for sec_name in ("alpha", "beta", "induced_functor",
                         "symmetric_relations"):
            assert section(report, sec_name)["ok"], (name, sec_name)
        for comp in section(report, "alpha")["components"]:
            assert comp["invertible"], name
        for comp in section(report, "beta")["components"]:
            assert comp["invertible"], name
        code, _ = run_cli(capsys, "verify-approximation",
                          corpus.fun_path(name))
        assert code == 0, name
        assert time.monotonic() - t0 < 30.0, name


def test_criterion_08_choice_independence():
    """Two genuinely different choices on the E7 variant with a parallel
    denominator induce an isotransformation whose inverse is the reversed
    comparison, componentwise and wordwise."""
    s, rc = rc_for("E7b")
    auto = auto_choice(rc)
    alt = positions(rc, load_choice(str(corpus.FIXTURES / "E7b-alt.choice.json"), s.f))
    assert auto.get("bl") != alt.get("bl")
    fwd = choice_independence(s, auto, alt)
    bwd = choice_independence(s, alt, auto)
    assert fwd["ok"] and fwd["isomorphism_ok"] and fwd["naturality_ok"]
    assert bwd["ok"]
    for c_f, c_b in zip(fwd["components"], bwd["components"]):
        assert c_f["inverse"] == c_b["component"]
        assert c_f["component"] == c_b["inverse"]


def test_criterion_09_classical_criterion_consistency():
    """Where denominators are exactly the isomorphisms on both sides, the
    relative-equivalence verdict coincides with a direct dense+full+faithful
    enumeration of the functor."""
    expected = {"E1": True, "E1incl": False, "E5": True, "E5term": False}
    for name, want in expected.items():
        s = corpus.setting(name)
        rel = check_s_equivalence(prepare(corpus.fun(name), DEFAULT_LIMITS))
        cls, _ = classical_equivalence(s.f, s.rs_src, s.rs_tgt)
        assert rel.verdict == cls == want, name


def test_criterion_10_precondition_discipline(capsys):
    """A non-multiplicative input fails fast with exit 2 and the named
    witness; no verification sections are computed."""
    code, out = run_cli(capsys, "verify-approximation", corpus.fun_path("E6"))
    assert code == 2
    rep = json.loads(out)
    assert rep["error"]["kind"] == "precondition"
    assert rep["error"]["witness"] == {
        "kind": "identity-not-denominator", "object": "a",
        "word": {"src": "a", "dst": "a", "letters": []}}
    assert "result" not in rep


def test_criterion_11_deterministic_reports(capsys):
    """Any command run twice on identical inputs emits byte-identical
    reports."""
    commands = [
        ("localise", corpus.cat_path("E7bD")),
        ("homset", corpus.cat_path("E2"), "--src", "b", "--dst", "a",
         "--localised"),
        ("check", "s-faithful", corpus.fun_path("E3")),
        ("verify-approximation", corpus.fun_path("E7")),
    ]
    for argv in commands:
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first.encode() == second.encode(), argv[0]
