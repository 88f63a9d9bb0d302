"""Localisation: inverse generators, fresh composites, induced maps, zigzags."""

import pytest

import corpus
from loccat import (COMPLETE, CatPresentation, DenomDecider,
                    DenomSet, GenArrow, PathWord, RewriteSystem, complete, equal,
                    find_inverse, homset, induced_functor, localise, normalize)
from loccat.gz import through, zigzag_view
from test_approximation import ladder

# Localised hom-set cardinalities frozen from the brute-force oracle
# (its own inverse-per-denominator-class presentation, margin <= 4).
LOC_HOM_COUNTS = {
    "E2": {("a", "a"): 1, ("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1},
    "E4": {("Y", "Y"): 1, ("Y", "W"): 1, ("W", "Y"): 1, ("W", "W"): 1,
           ("Z", "Z"): 1},
    "E5": {("•", "•"): 2},
    "E8": {("a", "a"): 1, ("a", "b"): 1, ("a", "c"): 1, ("b", "a"): 1,
           ("b", "b"): 2, ("b", "c"): 1, ("c", "a"): 1, ("c", "b"): 1,
           ("c", "c"): 1},
}


class TestLocalise:
    def test_objects_preserved(self):
        for name in corpus.CAT_NAMES:
            assert corpus.lc(name).presentation.objects == \
                corpus.cat(name).objects

    def test_corpus_localisations_complete(self):
        for name in corpus.CAT_NAMES:
            assert corpus.lc(name).rs.status == COMPLETE, name

    def test_every_denominator_becomes_invertible(self):
        for name in corpus.CAT_NAMES:
            c = corpus.cat(name)
            lc = corpus.lc(name)
            dec = DenomDecider(corpus.rs(name))
            for w in dec.materialized:
                image = normalize(lc.rs, w)
                inv = find_inverse(lc.rs, image)
                assert inv is not None, (name, w)
                image, inv = lc.rs.encode(image), lc.rs.encode(inv)
                assert lc.rs.compose(image, inv) == (w.src, w.src, "")
                assert lc.rs.compose(inv, image) == (w.dst, w.dst, "")

    def test_identity_denominators_add_nothing(self):
        # E1 has only identity denominators, so localising adds no
        # generator or relation; only the denominators become identities
        lc = corpus.lc("E1")
        assert lc.presentation[:3] == corpus.cat("E1")[:3]
        assert lc.inv_of == {}
        assert lc.fresh_defs == {}

    def test_inverse_table_matches_the_inverse_letters(self):
        # each inverse letter inverts its partner's word: the partner
        # itself, or the base word a fresh composite names
        for name in corpus.CAT_NAMES:
            lc = corpus.lc(name)
            assert set(lc.inverted) == set(lc.inv_of.values()), name
            for n, inv in lc.inv_of.items():
                want = lc.rs.decode(lc.fresh_defs[n]) if n in lc.fresh_defs \
                    else lc.presentation.word([n])
                assert lc.rs.decode(lc.inverted[inv]) == want, (name, n)

    def test_inverse_generator_naming(self):
        lc = corpus.lc("E2")
        assert [g.name for g in lc.presentation.generators] == ["d", "d^-1"]
        assert lc.inv_of == {"d": "d^-1"}

    def test_self_inverse_involution(self):
        lc = corpus.lc("E5")
        d = lc.presentation.word(["d"])
        dinv = lc.presentation.word(["d^-1"])
        assert equal(lc.rs, dinv, d)

    def test_fresh_generator_for_composite_denominator(self):
        lc = corpus.lc("E8")
        names = [g.name for g in lc.presentation.generators]
        assert names == ["d", "e", "⟨d·e⟩", "⟨d·e⟩^-1"]
        assert lc.rs.decode(lc.fresh_defs["⟨d·e⟩"]).letters == ("d", "e")
        # the defining relation identifies the composite with the fresh letter
        comp = lc.presentation.word(["d", "e"])
        assert normalize(lc.rs, comp).letters == ("⟨d·e⟩",)

    def test_closure_composites_need_no_fresh_generators(self):
        # E7bD's v_left.s is a denominator only via the closure flag
        lc = corpus.lc("E7bD")
        assert lc.fresh_defs == {}
        names = [g.name for g in lc.presentation.generators]
        assert names == ["h_top", "v_left", "v_left2", "v_right", "h_bot",
                         "s", "v_left^-1", "v_left2^-1", "v_right^-1", "s^-1"]
        # yet the composite is invertible in the localisation
        w = normalize(lc.rs, corpus.cat("E7bD").word(["v_left", "s"]))
        assert find_inverse(lc.rs, w) is not None

    def test_parallel_denominators_identified(self):
        # v_left.s = v_left2.s with s invertible forces loc equality
        lc = corpus.lc("E7bD")
        c = corpus.cat("E7bD")
        assert equal(lc.rs, normalize(lc.rs, c.word(["v_left"])),
                     normalize(lc.rs, c.word(["v_left2"])))
        # but they stay distinct in the base category
        assert not equal(corpus.rs("E7bD"), c.word(["v_left"]),
                         c.word(["v_left2"]))

    def test_frozen_localised_hom_counts(self):
        for name, table in LOC_HOM_COUNTS.items():
            lc = corpus.lc(name)
            objects = lc.presentation.objects
            for x in objects:
                for y in objects:
                    got = len(homset(lc.rs, x, y))
                    assert got == table.get((x, y), 0), (name, x, y, got)

    def test_localisation_new_endomorphism(self):
        # inverting only d.e creates the idempotent e.(d.e)^-1.d at b
        lc = corpus.lc("E8")
        e_inv_d = lc.presentation.word(["e", "⟨d·e⟩^-1", "d"])
        nf = normalize(lc.rs, e_inv_d)
        assert nf == e_inv_d
        code = lc.rs.encode(nf)
        assert lc.rs.compose(code, code) == code
        assert nf != lc.presentation.identity("b")

    def test_overflowing_inverse_search_seeds_nothing(self):
        # b -> a holds r, e.r, e.e.r, ...: the search for a base inverse
        # of d exceeds max_homset, so only d.d^-1 = 1 and d^-1.d = 1 remain
        from loccat import LimitExceeded, load_cat
        c = load_cat("C", corpus.cat_data(
            ["a", "b"], [("d", "a", "b"), ("r", "b", "a"), ("e", "b", "b")],
            denominators=["d"]))
        rs = complete(c)
        with pytest.raises(LimitExceeded, match="max_homset"):
            find_inverse(rs, c.word(["d"]))
        lc = localise(rs)
        assert lc.rs.status == COMPLETE
        assert len(lc.rs.rules) == 2


class TestGzOperations:
    def test_compose_and_identity(self):
        lc = corpus.lc("E2")
        d = normalize(lc.rs, corpus.cat("E2").word(["d"]))
        code = lc.rs.encode(d)
        assert lc.rs.compose(("a", "a", ""), code) == code
        round_trip = lc.rs.compose(code, lc.rs.encode(find_inverse(lc.rs, d)))
        assert lc.rs.decode(round_trip) == lc.presentation.identity("a")

    def test_inverse_of_non_invertible_is_none(self):
        lc = corpus.lc("E3C")
        f1 = normalize(lc.rs, corpus.cat("E3C").word(["f1"]))
        assert find_inverse(lc.rs, f1) is None


class TestInducedFunctor:
    def test_square_commutes_on_generators(self):
        for name in corpus.FUN_NAMES:
            s = corpus.setting(name)
            f = s.f
            ind = induced_functor(f, s.lc_src, s.lc_tgt)
            for g in f.source.generators:
                w = f.source.encode(f.source.word([g.name]))
                via_src = through(s.lc_tgt, ind)(s.lc_src.rs.compose(w))
                via_tgt = through(s.lc_tgt, f)(w)
                assert equal(s.lc_tgt.rs, *map(s.lc_tgt.rs.decode, (via_src, via_tgt))), \
                    (name, g.name)

    def test_induced_functor_maps_inverses(self):
        s = corpus.setting("E7")
        ind = s.gz_f
        # v_left is not in the image of F, but F's own denominators must map
        for name, img in ind.images.items():
            assert img[0] in s.lc_tgt.presentation.obj_index


class TestZigzag:
    def test_plain_word_is_single_segment(self):
        lc = corpus.lc("E7D")
        w = normalize(lc.rs, corpus.cat("E7D").word(["h_top", "v_right"]))
        zv = zigzag_view(lc, lc.rs.encode(w))
        assert zv.render() == "h_top·v_right"

    def test_inverse_letter_renders_inverted(self):
        lc = corpus.lc("E2")
        zv = zigzag_view(lc, lc.rs.encode(lc.presentation.word(["d^-1"])))
        assert zv.render() == "(d)^-1"

    def test_fresh_letters_expand_in_render(self):
        lc = corpus.lc("E8")
        zv = zigzag_view(lc, lc.rs.encode(PathWord("c", "a", ("⟨d·e⟩^-1",))))
        assert zv.render() == "(d·e)^-1"
        zv2 = zigzag_view(lc, lc.rs.encode(PathWord("b", "b", ("e", "⟨d·e⟩^-1", "d"))))
        assert zv2.render() == "e · (d·e)^-1 · d"

    def test_fresh_letter_before_inverse_letter(self):
        # the forward segment before an inverse letter may hold a fresh
        # letter, which is no base generator
        p = CatPresentation(("a", "b", "c"), (
            GenArrow("d", "a", "b"), GenArrow("e", "b", "c"),
            GenArrow("s", "a", "c")), (), DenomSet())
        p = p._replace(denoms=DenomSet((p.encode(PathWord("a", "c", ("d", "e"))),
                                        p.encode(PathWord("a", "c", ("s",)))), True, True))
        lc = localise(complete(p))
        zv = zigzag_view(lc, lc.rs.encode(PathWord("a", "a", ("⟨d·e⟩", "s^-1"))))
        assert zv.render() == "d·e · (s)^-1"
        zv2 = zigzag_view(lc, lc.rs.encode(PathWord("c", "c", ("s^-1", "⟨d·e⟩"))))
        assert zv2.render() == "(s)^-1 · d·e"

    def test_segments_recompose_to_every_localised_word(self):
        # recompose by a route of the test's own: each forward word, then
        # the inverse letter of what its segment inverts, found through
        # inv_of and fresh_defs
        for name in corpus.CAT_NAMES:
            lc = corpus.lc(name)
            fresh_of = {lc.rs.decode(w): n for n, w in lc.fresh_defs.items()}
            objects = lc.presentation.objects
            for m in (m for x in objects for y in objects
                      for m in homset(lc.rs, x, y)):
                letters: list[str] = []
                for seg in zigzag_view(lc, lc.rs.encode(m)).segments:
                    letters += seg.forward.letters
                    w = seg.inverted
                    if w is not None:
                        partner = w.letters[0] if len(w.letters) == 1 \
                            else fresh_of[w]
                        letters.append(lc.inv_of[partner])
                assert normalize(lc.rs, PathWord(
                    m.src, m.dst, tuple(letters))) == m, (name, m)

    def test_each_word_is_encoded_once(self, monkeypatch):
        # the view normalises, splits and checks the code it is given, and
        # encodes nothing: E8's every localised word, and an L4 word with
        # an inverse letter
        lc8 = corpus.lc("E8")
        words = [(lc8, lc8.rs.encode(m))
                 for x in "abc" for y in "abc" for m in homset(lc8.rs, x, y)]
        target = ladder(4).target
        lc4 = localise(complete(target))
        words.append((lc4, lc4.rs.encode(lc4.presentation.word(["k1", "v1^-1"]))))
        calls = []
        encode = RewriteSystem.encode

        def counted(rs, w):
            calls.append(w)
            return encode(rs, w)

        monkeypatch.setattr(RewriteSystem, "encode", counted)
        for lc, m in words:
            calls.clear()
            zigzag_view(lc, m)
            assert calls == [], m

    def test_identity_renders_as_identity(self):
        lc = corpus.lc("E5")
        zv = zigzag_view(lc, lc.rs.encode(lc.presentation.identity("•")))
        assert zv.render() == "1_•"

    def test_segment_endpoints_chain(self):
        lc = corpus.lc("E8")
        zv = zigzag_view(lc, lc.rs.encode(PathWord("b", "b", ("e", "⟨d·e⟩^-1", "d"))))
        assert zv.src == "b" and zv.dst == "b"
        cursor = zv.src
        for seg in zv.segments:
            assert seg.forward.src == cursor
            if seg.inverted is not None:
                assert seg.inverted.dst == seg.forward.dst
                cursor = seg.inverted.src
            else:
                cursor = seg.forward.dst
        assert cursor == zv.dst
