"""Multiplicativity, isosaturation, functor validation and naturality."""

import pytest

import corpus
from loccat import (DEFAULT_LIMITS, FunctorData, ValidationError,
                    check_isosaturated, check_multiplicative,
                    check_reflects_denominators, complete, present, squares,
                    validate_functor)


class TestMultiplicative:
    def test_corpus_verdicts(self):
        expected = {
            "terminal": True, "E1": True, "E1sub": True, "E2": True,
            "E3C": True, "E3D": True, "E4": True, "E5": True,
            "E6": False, "E7C": True, "E7D": True, "E7bD": True, "E8": True,
        }
        for name, want in expected.items():
            got, _ = check_multiplicative(corpus.rs(name))
            assert got == want, name

    def test_witness_names_missing_identity(self):
        ok, witness = check_multiplicative(corpus.rs("E6"))
        assert not ok
        assert witness == {
            "kind": "identity-not-denominator", "object": "a",
            "word": {"src": "a", "dst": "a", "letters": []}}

    def test_composite_witness(self, tmp_path):
        # identities included but composites not closed: d.e escapes
        import json
        from pathlib import Path
        from loccat.fileio import load_cat
        raw = json.loads(Path(corpus.cat_path("E6")).read_text(encoding="utf-8"))
        raw["denominators"]["include_identities"] = True
        path = tmp_path / "E6ids.cat.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        c = load_cat(path)
        from loccat import complete
        rs = complete(c)
        ok, witness = check_multiplicative(rs)
        assert not ok and witness["kind"] == "composite-not-denominator"
        assert witness["first"]["letters"] == ["d"]
        assert witness["second"]["letters"] == ["e"]


class TestIsosaturated:
    def test_corpus_verdicts(self):
        # E6 lacks identity denominators, and identities are isomorphisms
        expected = {name: True for name in corpus.CAT_NAMES}
        expected["E6"] = False
        for name, want in expected.items():
            got, _ = check_isosaturated(corpus.rs(name))
            assert got == want, name

    def test_witness_is_an_isomorphism(self):
        ok, witness = check_isosaturated(corpus.rs("E6"))
        assert not ok
        assert witness["kind"] == "isomorphism-not-denominator"
        assert witness["word"]["letters"] == []


class TestValidateFunctor:
    def test_corpus_functors_valid(self):
        for name in corpus.FUN_NAMES:
            f = corpus.fun(name)
            s = corpus.setting(name)
            assert validate_functor(f, s.rs_src, s.rs_tgt) == []

    def test_missing_generator_image(self):
        f = corpus.fun("E3")
        bad = FunctorData(source=f.source, target=f.target,
                          object_map=f.object_map,
                          images={"f1": f.images["f1"]})
        s = corpus.setting("E3")
        problems = validate_functor(bad, s.rs_src, s.rs_tgt)
        assert any(p["kind"] == "generator-not-mapped" for p in problems)

    def test_endpoint_mismatch(self):
        f = corpus.fun("E7")
        tgt = f.target
        bad = FunctorData(source=f.source, target=f.target,
                          object_map=f.object_map,
                          images={"f": tgt.encode(tgt.word(["v_left"]))})
        s = corpus.setting("E7")
        problems = validate_functor(bad, s.rs_src, s.rs_tgt)
        assert any(p["kind"] == "generator-image-endpoints" for p in problems)

    def test_image_of_unknown_generator(self):
        f = corpus.fun("E7")
        bad = FunctorData(source=f.source, target=f.target,
                          object_map=f.object_map,
                          images={**f.images, "ghost": f.images["f"]})
        s = corpus.setting("E7")
        assert validate_functor(bad, s.rs_src, s.rs_tgt) == [
            {"kind": "gen-map-extra-key", "generator": "ghost"}]

    def test_relation_violation_detected(self):
        # E5 requires d.d = 1; a free loop target cannot satisfy that
        from loccat import CatPresentation, DenomSet, GenArrow, complete
        c5 = corpus.cat("E5")
        loop = CatPresentation(("x",), (GenArrow("t", "x", "x"),), (), DenomSet((), True, False))
        rs_loop = complete(loop)
        f = FunctorData(source=c5, target=loop,
                        object_map={"•": "x"},
                        images={"d": loop.encode(loop.word(["t"]))})
        problems = validate_functor(f, corpus.rs("E5"), rs_loop)
        assert any(p["kind"] == "relation-not-preserved" for p in problems)

    def test_denominator_preservation_checked(self):
        # E2's d is a denominator; send it somewhere non-denominator
        c2 = corpus.cat("E2")
        c3 = corpus.cat("E3C")
        f = FunctorData(source=c2, target=c3,
                        object_map={"a": "X0", "b": "X1"},
                        images={"d": c3.encode(c3.word(["f1"]))})
        problems = validate_functor(f, corpus.rs("E2"), corpus.rs("E3C"))
        assert any(p["kind"] == "denominator-not-preserved" for p in problems)


class TestReflectsDenominators:
    def test_identity_functor_reflects(self):
        f = corpus.fun("E7")
        s = corpus.setting("E7")
        ok, _ = check_reflects_denominators(f, s.rs_src, s.rs_tgt)
        assert ok

    def test_collapse_does_not_reflect(self):
        # E3C -> E3D sends the non-denominator f1 to the denominator... g is
        # not a denominator in E3D either, so build one that fails honestly:
        # E2 -> E2 localisation-like self map is fine; instead send E3C's f1
        # into E5's denominator d.
        c3 = corpus.cat("E3C")
        c5 = corpus.cat("E5")
        d = c5.encode(c5.word(["d"]))
        f = FunctorData(source=c3, target=c5,
                        object_map={"X0": "•", "X1": "•"},
                        images={"f1": d, "f2": d})
        ok, witness = check_reflects_denominators(f, corpus.rs("E3C"),
                                                  corpus.rs("E5"))
        assert not ok
        assert witness["kind"] == "denominator-not-reflected"


def image(f):
    """``f`` on encoded words, unnormalised."""
    omap, table = f.object_map, f.translation
    return lambda w: (omap[w[0]], omap[w[1]], w[2].translate(table))


def generators(c):
    """The encoded one-letter words of the generators of ``c``."""
    code = c.codec[0]
    return [(g.src, g.dst, code[g.name]) for g in c.generators]


class TestTransformation:
    def test_natural_transformation_accepted(self):
        # identity transformation on the E7 functor
        f = corpus.fun("E7")
        tgt = f.target
        components = {"x0": tgt.encode(tgt.identity("tl")),
                      "x1": tgt.encode(tgt.identity("tr"))}
        assert squares(corpus.setting("E7").rs_tgt, generators(f.source), image(f),
                       components, image(f)) == (1, True)

    def test_component_endpoints_checked(self):
        # the component at x0 sits at bl, where no image of f starts
        f = corpus.fun("E7")
        tgt = f.target
        components = {"x0": tgt.encode(tgt.identity("bl")),
                      "x1": tgt.encode(tgt.identity("tr"))}
        with pytest.raises(ValidationError):
            squares(corpus.setting("E7").rs_tgt, generators(f.source), image(f),
                    components, image(f))

    def test_unnatural_components_rejected(self):
        # two embeddings of the free arrow into the parallel pair disagree:
        # the only well-typed components are identities, and naturality would
        # force f1 = f2
        arrow = corpus.cat("E1sub")
        pair = corpus.cat("E3C")
        pick1, pick2 = (FunctorData(source=arrow, target=pair,
                                    object_map={"a": "X0", "b": "X1"},
                                    images={"u": pair.encode(pair.word([g]))})
                        for g in ("f1", "f2"))
        components = {"a": pair.encode(pair.identity("X0")),
                      "b": pair.encode(pair.identity("X1"))}
        assert squares(corpus.rs("E3C"), generators(arrow), image(pick1),
                       components, image(pick2)) == (1, False)

    def test_truncated_run_decides_through_present(self):
        # in E5, d·d = 1, so d·d·d = d; with no rule completed, the normal
        # forms of the truncated run differ, and the coset tables that
        # present builds instead make the square commute
        c = corpus.cat("E5")
        d, identity = c.encode(c.word(["d"])), {"•": c.encode(c.identity("•"))}

        def cubed(w):
            return w[0], w[1], w[2] * 3

        assert squares(corpus.rs("E5"), [d], cubed, identity) == (1, True)
        tight = DEFAULT_LIMITS._replace(max_rules=0)
        assert squares(complete(c, tight), [d], cubed, identity) == (1, False)
        assert squares(present(c, tight), [d], cubed, identity) == (1, True)
