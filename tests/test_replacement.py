"""Replacements, the replacement category, choices, forgetful and lifts."""

import pytest

import corpus
from loccat import (ConstructionError, PreconditionError, ReplacementChoice,
                    SReplacement, ValidationError, auto_choice,
                    build_replacement_category, canonical_lift,
                    check_reflects_denominators, complete, find_s_replacements,
                    has_enough, load_functor, localise, prepare,
                    structure_choice_functor, validate_functor)
from loccat.replacement import positions
from loccat.rewrite import Inflation, words


def rc_for(name):
    s = corpus.setting(name)
    return s, build_replacement_category(s.f, s.rs_tgt, s.replacements)


def q_word(f, rep):
    """The word ``q: F x -> y`` of the replacement ``rep`` along ``f``."""
    return f.target.decode((f.object_map[rep.source], rep.target, rep.q))


def settings(tmp_path, names):
    """The settings of the named fixtures, then of ``Fan_2``."""
    yield from map(corpus.setting, names)
    yield prepare(load_functor(corpus.fan(2, tmp_path)))


class TestFindReplacements:
    def test_e2_replacements(self):
        s = corpus.setting("E2")
        tgt = s.f.target
        reps_a = find_s_replacements(s.f, s.rs_tgt, "a")
        reps_b = find_s_replacements(s.f, s.rs_tgt, "b")
        assert reps_a == (SReplacement("a", "•", tgt.encode(tgt.identity("a"))[2]),)
        assert reps_b == (SReplacement("b", "•", tgt.encode(tgt.word(["d"]))[2]),)

    def test_e7b_bottom_left_has_two(self):
        s = corpus.setting("E7b")
        reps = find_s_replacements(s.f, s.rs_tgt, "bl")
        assert [(r.source, q_word(s.f, r).letters) for r in reps] == \
            [("x0", ("v_left",)), ("x0", ("v_left2",))]

    def test_e4_isolated_object_has_none(self):
        s = corpus.setting("E4")
        assert find_s_replacements(s.f, s.rs_tgt, "Z") == ()


class TestEnough:
    def test_corpus_verdicts(self):
        expected = {"E2": True, "E3": True, "E4": False, "E5": True,
                    "E7": True, "E7b": True, "E1incl": False}
        for name, want in expected.items():
            s = corpus.setting(name)
            got, witness = has_enough(s.replacements)
            assert got == want, name
            if not want:
                assert witness["kind"] == "object-without-replacement"

    def test_e4_witness_is_the_isolated_object(self):
        s = corpus.setting("E4")
        _, witness = has_enough(s.replacements)
        assert witness["object"] == "Z"

    def test_trivial_replacements(self):
        # (F x, x, 1) is a triple exactly when the identity at F x is a
        # denominator: on every functor, and E6 has none
        for name, every in (("E2", True), ("E5", True), ("E7b", True), ("E6", False)):
            s, rc = rc_for(name)
            closure = s.rs_tgt.denominators.closure
            for x in s.f.source.objects:
                fx = s.f.object_map[x]
                assert (rc.position(fx, x, "") is not None) == \
                    ((fx, fx, "") in closure) == every, (name, x)


class TestReplacementCategory:
    def test_e2_shape(self):
        _, rc = rc_for("E2")
        assert rc.obj_names == ("(a|•|1)", "(b|•|d)")
        assert [g.name for g in rc.rs.presentation.generators] == ["d@0-1"]
        assert rc.rs.presentation.relations == ()

    def test_e7_shape(self):
        _, rc = rc_for("E7")
        assert rc.obj_names == ("(tl|x0|1)", "(tr|x1|1)", "(bl|x0|v_left)",
                                "(br|x1|v_right)")
        p = rc.rs.presentation
        rels = [tuple(p.decode(w).letters for w in r) for r in p.relations]
        assert rels == [(("h_top@0-1", "v_right@1-3"),
                         ("v_left@0-2", "h_bot@2-3"))]

    def test_e5_identity_lifts(self):
        _, rc = rc_for("E5")
        names = [g.name for g in rc.rs.presentation.generators]
        assert names == ["d@0-0", "d@0-1", "d@1-0", "d@1-1", "1@0-1", "1@1-0"]

    def test_e7b_parallel_triples_over_one_object(self):
        _, rc = rc_for("E7b")
        assert rc.obj_names == (
            "(tl|x0|1)", "(tr|x1|1)", "(bl|x0|v_left)", "(bl|x0|v_left2)",
            "(br|x1|v_right)", "(z|x0|v_left·s)")
        assert rc.triples_over("bl") == (2, 3)

    def test_lookups_match_positions(self):
        s, rc = rc_for("E7b")
        for i, (t, name) in enumerate(zip(rc.triples, rc.obj_names)):
            assert rc.position(t.target, t.source, t.q) == i
            assert rc.object_index(name) == i
        for y in s.f.target.objects:
            assert rc.triples_over(y) == tuple(
                i for i, t in enumerate(rc.triples) if t.target == y)
        tgt = s.f.target
        missing = SReplacement("bl", "x1", tgt.encode(tgt.identity("bl"))[2])
        assert rc.position(missing.target, missing.source, missing.q) is None

    def test_status_is_the_targets(self):
        # rc is answered through the target's system, whose status it has
        for name in ("E2", "E5", "E7", "E7b"):
            _, rc = rc_for(name)
            assert rc.rs.status == "complete", name

    def test_hom_bijection_with_target(self):
        # U restricted to each hom-set is a bijection onto D(Y, Y')
        s, rc = rc_for("E5")
        u = rc.forgetful
        for i in range(len(rc.triples)):
            for j in range(len(rc.triples)):
                lifted = words(rc.rs, rc.obj_names[i], rc.obj_names[j])
                images = {s.rs_tgt.index[w.translate(u.translation)] for w in lifted}
                below = set(words(s.rs_tgt, rc.triples[i].target,
                                  rc.triples[j].target))
                assert images == below and len(images) == len(lifted)

    def test_more_triples_than_max_homset(self):
        # E7 has 4 triples; a target system bounded at 3 refuses them
        from loccat import LimitExceeded
        s = corpus.setting("E7")
        rs_tgt = complete(s.f.target, s.rs_tgt.limits._replace(max_homset=3))
        with pytest.raises(LimitExceeded) as exc:
            build_replacement_category(s.f, rs_tgt, s.replacements)
        assert exc.value.bound == "max_homset"

    def test_lifted_denominators_are_explicit(self):
        _, rc = rc_for("E7")
        assert not rc.rs.presentation.denoms.include_identities
        assert not rc.rs.presentation.denoms.close_under_composition
        assert len(rc.rs.presentation.denoms.explicit) == 6


class TestInflation:
    """rc is the target inflated: no completion of its own, and the
    completion of its presentation, kept here as the reference, agrees."""

    def test_answered_through_the_target(self):
        s, rc = rc_for("E7b")
        assert isinstance(rc.rs, Inflation) and rc.rs.rules == ()
        assert rc.rs.base is s.rs_tgt and rc.rs.limits == s.rs_tgt.limits

    def test_construction_lists_no_hom_set(self, monkeypatch, tmp_path):
        # the lifted denominators are the lifts of the target's; they are
        # the words over a denominator that the hom-sets, listed once
        # each and only by the queries after, hold
        calls = []
        listing = Inflation.normal_forms_out
        monkeypatch.setattr(Inflation, "normal_forms_out",
                            lambda rs, x: calls.append(x) or listing(rs, x))
        for s in settings(tmp_path, ("E2", "E5", "E7", "E7b")):
            rc = build_replacement_category(s.f, s.rs_tgt, s.replacements)
            assert calls == []
            under, closure = rc.forgetful.object_map, s.rs_tgt.denominators.closure
            assert rc.rs.presentation.denoms.explicit == tuple(
                (a, b, w) for a in rc.obj_names for b in rc.obj_names
                for w in words(rc.rs, a, b)
                if (under[a], under[b], w.translate(rc.rs.down)) in closure)
            assert calls == list(rc.obj_names)
            calls.clear()

    def test_completion_lists_the_same_words(self, tmp_path):
        # so rc.rs.presentation presents the category rc.rs answers
        for s in settings(tmp_path, ("E2", "E5", "E7", "E7b")):
            rc = s.rc
            rs = complete(rc.rs.presentation, rc.rs.limits)
            assert rs.status == "complete"
            for a in rc.obj_names:
                for b in rc.obj_names:
                    assert words(rs, a, b) == words(rc.rs, a, b), (a, b)

    def test_localisation_has_the_completed_hom_set_sizes(self, tmp_path):
        # its representatives may differ from the shortlex ones, and no
        # report prints them, so only the sizes are compared
        for s in settings(tmp_path, ("E2", "E5", "E7", "E7b")):
            rc = s.rc
            lc = localise(complete(rc.rs.presentation, rc.rs.limits))
            lc_rc, _ = rc.localised(s.lc_tgt)
            assert lc.rs.status == lc_rc.rs.status == "complete"
            assert lc_rc.presentation == lc.presentation
            for a in rc.obj_names:
                for b in rc.obj_names:
                    assert len(words(lc.rs, a, b)) == len(words(lc_rc.rs, a, b)), (a, b)

    def test_route_through_an_object_without_replacements(self, tmp_path):
        # f·g: a -> b passes through m, which no triple lies over
        s = prepare(load_functor(corpus.detour(tmp_path)))
        with pytest.raises(ConstructionError, match=r"no lift from '\(a\|x\|1\)' "
                                                    r"to '\(b\|y\|1\)'"):
            rc = build_replacement_category(s.f, s.rs_tgt, s.replacements)
            for a in rc.obj_names:
                for b in rc.obj_names:
                    words(rc.rs, a, b)


class TestForgetful:
    def test_forgetful_is_a_valid_functor(self):
        for name in ("E2", "E5", "E7", "E7b"):
            s, rc = rc_for(name)
            u = rc.forgetful
            assert validate_functor(u, rc.rs, s.rs_tgt) == [], name

    def test_forgetful_reflects_denominators(self):
        for name in ("E2", "E5", "E7"):
            s, rc = rc_for(name)
            u = rc.forgetful
            ok, _ = check_reflects_denominators(u, rc.rs, s.rs_tgt)
            assert ok, name

    def test_surjective_on_objects_iff_enough(self):
        for name in ("E2", "E5", "E7", "E7b", "E4"):
            s, rc = rc_for(name)
            u = rc.forgetful
            hit = set(u.object_map.values())
            enough, _ = has_enough(s.replacements)
            assert (hit == set(s.f.target.objects)) == enough, name


class TestChoice:
    def test_auto_choice_is_first_triple(self):
        _, rc = rc_for("E7b")
        chosen = auto_choice(rc)
        assert chosen == {y: rc.triples_over(y)[0] for y in rc.functor.target.objects}
        picked = {y: (rc.triples[i].source, q_word(rc.functor, rc.triples[i]).letters)
                  for y, i in chosen.items()}
        assert picked == {"tl": ("x0", ()), "tr": ("x1", ()),
                          "bl": ("x0", ("v_left",)),
                          "br": ("x1", ("v_right",)),
                          "z": ("x0", ("v_left", "s"))}

    def test_auto_choice_needs_enough(self):
        _, rc = rc_for("E4")
        with pytest.raises(PreconditionError):
            auto_choice(rc)

    def test_validate_choice_rejects_partial_assignments(self):
        _, rc = rc_for("E2")
        partial = ReplacementChoice(tuple(
            (y, rc.triples[i]) for y, i in auto_choice(rc).items() if y == "a"))
        with pytest.raises(ValidationError):
            positions(rc, partial)

    def test_validate_choice_rejects_foreign_triples(self):
        s, rc = rc_for("E2")
        tgt = s.f.target
        bogus = ReplacementChoice((
            ("a", SReplacement("a", "•", tgt.encode(tgt.identity("a"))[2])),
            ("b", SReplacement("b", "•", tgt.encode(tgt.identity("b"))[2]))))
        with pytest.raises(ValidationError):
            positions(rc, bogus)


class TestStructureChoiceFunctor:
    def test_section_roundtrip_identity(self):
        for name in ("E2", "E5", "E7", "E7b"):
            _, rc = rc_for(name)
            c_r, _ = structure_choice_functor(rc, auto_choice(rc))
            u = rc.forgetful
            round_trip = c_r.then(u)
            tgt = rc.functor.target
            assert round_trip.object_map == {y: y for y in tgt.objects}
            for g in tgt.generators:
                assert tgt.decode(round_trip.images[g.name]).letters == (g.name,)

    def test_comparison_components_are_lifted_identities(self):
        _, rc = rc_for("E7b")
        _, components = structure_choice_functor(rc, auto_choice(rc))
        assert list(components) == list(rc.obj_names)
        # the component at the chosen triple is the genuine identity
        assert rc.rs.decode(components["(bl|x0|v_left)"]).letters == ()
        # at the parallel triple it is the identity lift between the two
        assert rc.rs.decode(components["(bl|x0|v_left2)"]).letters == ("1@2-3",)


class TestCanonicalLift:
    def test_lift_retracts_to_the_functor(self):
        for name in ("E2", "E5", "E7", "E7b"):
            s, rc = rc_for(name)
            lift = canonical_lift(rc)
            u = rc.forgetful
            back = lift.then(u)
            assert back.object_map == s.f.object_map
            for g, img in back.images.items():
                assert s.rs_tgt.compose(img) == s.rs_tgt.compose(s.f.images[g])

    def test_lift_objects_are_trivial_triples(self):
        s, rc = rc_for("E7")
        lift = canonical_lift(rc)
        assert lift.object_map == {"x0": "(tl|x0|1)", "x1": "(tr|x1|1)"}

    def test_lift_requires_trivial_replacements(self):
        # E6 has no identity denominators at all: its first source object
        # has no trivial triple
        _, rc = rc_for("E6")
        with pytest.raises(PreconditionError) as e:
            canonical_lift(rc)
        assert e.value.witness == {"kind": "identity-not-denominator",
                                   "object": "a", "identity_at": "a"}
