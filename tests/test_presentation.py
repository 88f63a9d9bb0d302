"""Core data types: words, relations, presentations, validation, opposite."""

import copy
import pickle

import pytest

import corpus
from loccat import (CatPresentation, GenArrow, PathWord, ValidationError,
                    identity_functor, load_cat, opposite, validate_presentation)
from loccat.equivalence import prepare
from loccat.rewrite import DEFAULT_LIMITS, complete, homset, normalize, words
from test_approximation import ladder


def chain():
    return CatPresentation(
        objects=("a", "b", "c"),
        generators=(GenArrow("u", "a", "b"), GenArrow("v", "b", "c")),
        relations=())


class TestPathWord:
    def test_identity_word(self):
        w = PathWord("a", "a", ())
        assert w.letters == () and len(w) == 0

    def test_empty_word_needs_matching_endpoints(self):
        with pytest.raises(ValidationError):
            PathWord("a", "b", ())

    def test_repr(self):
        assert repr(PathWord("a", "b", ("u",))) == \
            "PathWord(src='a', dst='b', letters=('u',))"

    def test_hash_is_that_of_the_field_tuple(self):
        w = PathWord("a", "b", ("u", "v"))
        assert hash(w) == hash((w.src, w.dst, w.letters))

    def test_equal_words_compare_equal(self):
        w = PathWord("a", "b", ("u",))
        assert w == PathWord(src="a", dst="b", letters=("u",))
        assert w != PathWord("a", "b", ("v",))
        assert len({w, PathWord("a", "b", ("u",))}) == 1

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_round_trip(self, clone):
        for w in (PathWord("a", "b", ("u",)), PathWord("a", "a", ())):
            twin = clone(w)
            assert type(twin) is PathWord
            assert twin == w and hash(twin) == hash(w)
            assert (twin.src, twin.dst, twin.letters) == (w.src, w.dst, w.letters)

    def test_fields_are_read_only(self):
        w = PathWord("a", "b", ("u",))
        with pytest.raises(AttributeError):
            w.src = "c"

    def test_word_endpoint_inference(self):
        c = chain()
        w = c.word(["u", "v"])
        assert (w.src, w.dst) == ("a", "c")

    def test_word_rejects_noncomposable(self):
        c = chain()
        with pytest.raises(ValidationError):
            c.word(["v", "u"])

    def test_word_rejects_unknown_letter(self):
        c = chain()
        with pytest.raises(ValidationError):
            c.word(["w"])

    def test_empty_word_is_the_identity(self):
        c = chain()
        with pytest.raises(ValidationError, match="identity"):
            c.word([])
        assert c.identity("a") == PathWord("a", "a", ())

    def test_identity_of_unknown_object_rejected(self):
        with pytest.raises(ValidationError):
            chain().identity("nope")


class TestShortlex:
    """Words order by length, then by the declaration order of their
    letters: the codec's characters ascend in declaration order, so
    ``RewriteSystem.sort_key`` compares codes."""

    @staticmethod
    def later_earlier():
        c = load_cat("x", corpus.cat_data(["x"], [("later", "x", "x"), ("earlier", "x", "x")]))
        return c.cat, complete(c.cat)

    def test_length_dominates(self):
        c, rs = self.later_earlier()
        key = rs.sort_key
        assert key(c.encode(c.word(["earlier"]))) < key(c.encode(c.word(["later", "later"])))

    def test_declaration_order_breaks_ties(self):
        c, rs = self.later_earlier()
        # "later" is declared first, so it sorts first despite the names
        code = c.codec[0]
        assert code["later"] < code["earlier"]
        assert rs.sort_key(c.encode(c.word(["later"]))) < \
            rs.sort_key(c.encode(c.word(["earlier"])))


class TestFromNames:
    def test_relations_are_encoded(self):
        c = load_cat("parallel pair", corpus.cat_data(
            ["a", "b"], [("u", "a", "b"), ("v", "a", "b")], [(["v"], ["u"])])).cat
        assert c.relations == (tuple(map(c.encode, (PathWord("a", "b", ("v",)),
                                                    PathWord("a", "b", ("u",))))),)
        assert validate_presentation(c) == []


class TestArrows:
    def test_tables_follow_declaration_order(self):
        # tl has three generators out, tr one, bl two; br and z none
        p = corpus.cat("E7bD").cat
        code = p.codec[0]
        names = ["h_top", "v_left", "v_left2", "v_right", "h_bot", "s"]
        assert [g.name for g in p.generators] == names
        assert list(p.arrows) == [code[n] for n in names]
        assert list(p.arrows.values()) == [
            ("tl", "tr", code["h_top"]), ("tl", "bl", code["v_left"]),
            ("tl", "bl", code["v_left2"]), ("tr", "br", code["v_right"]),
            ("bl", "br", code["h_bot"]), ("bl", "z", code["s"])]
        arrow = p.arrows.__getitem__
        assert p.out_arrows == {
            "tl": [arrow(code["h_top"]), arrow(code["v_left"]), arrow(code["v_left2"])],
            "tr": [arrow(code["v_right"])],
            "bl": [arrow(code["h_bot"]), arrow(code["s"])]}
        assert list(p.out_arrows) == ["tl", "tr", "bl"]
        assert "br" not in p.out_arrows and "z" not in p.out_arrows


class TestValidation:
    def test_valid_presentation_has_no_problems(self):
        for name in corpus.CAT_NAMES:
            assert validate_presentation(corpus.cat(name).cat) == []

    def test_duplicate_object_reported(self):
        c = CatPresentation(objects=("a", "a"), generators=(), relations=())
        kinds = {p["kind"] for p in validate_presentation(c)}
        assert "duplicate-object" in kinds

    def test_duplicate_generator_reported(self):
        c = CatPresentation(
            objects=("a",),
            generators=(GenArrow("u", "a", "a"), GenArrow("u", "a", "a")),
            relations=())
        kinds = {p["kind"] for p in validate_presentation(c)}
        assert "duplicate-generator" in kinds

    def test_dangling_generator_endpoint_reported(self):
        c = CatPresentation(
            objects=("a",), generators=(GenArrow("u", "a", "b"),), relations=())
        kinds = {p["kind"] for p in validate_presentation(c)}
        assert "unknown-object" in kinds


class TestOpposite:
    def test_opposite_reverses_generators(self):
        c = corpus.cat("E1")
        op = opposite(c)
        g = op.cat.gen_by_name["u"]
        assert (g.src, g.dst) == ("b", "a")

    def test_opposite_involution(self):
        for name in corpus.CAT_NAMES:
            c = corpus.cat(name)
            assert opposite(opposite(c)) == c

    def test_opposite_reverses_relation_words(self):
        c = corpus.cat("E7D")
        op = opposite(c)
        lhs, rhs = map(op.cat.decode, op.cat.relations[0])
        assert lhs.letters == ("v_right", "h_top")
        assert rhs.letters == ("h_bot", "v_left")


class TestIdentityFunctor:
    def test_identity_functor_roundtrip(self):
        c = corpus.cat("E7D")
        f = identity_functor(c)
        w = c.cat.encode(c.cat.word(["h_top", "v_right"]))
        assert w[2].translate(f.translation) == w[2]
        assert w[2].translate(f.then(f).translation) == w[2]
        assert f.then(f).object_map == f.object_map == {x: x for x in c.cat.objects}

    def test_then_rejects_mismatched_functors(self):
        f = identity_functor(corpus.cat("E7D"))
        g = identity_functor(corpus.cat("E1"))
        with pytest.raises(ValidationError):
            f.then(g)


def letterwise(f, s):
    """The code of the image of the code ``s``, one generator image at a time."""
    name = f.source.cat.codec[1]
    return "".join(f.images[name[c]][2] for c in s)


@pytest.mark.parametrize("name", corpus.FUN_NAMES)
def test_apply_word_equals_letterwise_images(name):
    # applying the functor to a word is one str.translate of its code
    f = corpus.fun(name)
    rs = complete(f.source.cat, DEFAULT_LIMITS)
    objects = f.source.cat.objects
    codes = [s for x in objects for y in objects for s in words(rs, x, y)]
    assert codes
    for s in codes:
        assert s.translate(f.translation) == letterwise(f, s)


def translated(f, rs_src, rs_tgt, w):
    """The image of ``w`` by ``f.translation``, normalised on codes in
    ``rs_tgt`` and then decoded."""
    src, dst, s = rs_src.encode(w)
    return rs_tgt.decode((f.object_map[src], f.object_map[dst],
                          rs_tgt.index[s.translate(f.translation)]))


def functor_and_systems(name, induced):
    """A fixture functor or ``L3``, with its source and target systems;
    with ``induced``, the induced functor of its setting instead."""
    f = ladder(3) if name == "L3" else corpus.fun(name)
    if induced:
        s = prepare(f, DEFAULT_LIMITS)
        return s.gz_f, s.lc_src.rs, s.lc_tgt.rs
    return f, complete(f.source.cat, DEFAULT_LIMITS), complete(f.target.cat, DEFAULT_LIMITS)


@pytest.mark.parametrize("induced", [False, True], ids=["functor", "gz_f"])
@pytest.mark.parametrize("name", [*corpus.FUN_NAMES, "L3"])
def test_translation_equals_normalised_image(name, induced):
    f, rs_src, rs_tgt = functor_and_systems(name, induced)
    objects = rs_src.presentation.objects
    homs = [w for x in objects for y in objects for w in homset(rs_src, x, y)]
    assert homs
    for w in homs:
        src, dst, s = rs_src.encode(w)
        image = rs_tgt.decode((f.object_map[src], f.object_map[dst], letterwise(f, s)))
        assert translated(f, rs_src, rs_tgt, w) == normalize(rs_tgt, image)
