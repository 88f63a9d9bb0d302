"""Core data types: words, relations, presentations, validation, opposite."""

import copy
import pickle

import pytest

import corpus
from loccat import (CatPresentation, CatWithDenoms, DenomSet, GenArrow,
                    PathWord, ValidationError, identity_functor,
                    opposite, validate_cat_with_denoms, validate_presentation)
from loccat.equivalence import prepare
from loccat.rewrite import DEFAULT_LIMITS, complete, homset, normalize
from test_approximation import ladder


def chain():
    return CatPresentation(
        objects=("a", "b", "c"),
        generators=(GenArrow("u", "a", "b"), GenArrow("v", "b", "c")),
        relations=())


class TestPathWord:
    def test_identity_word(self):
        w = PathWord("a", "a", ())
        assert w.is_identity_word and len(w) == 0

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

    def test_explicit_endpoints_checked(self):
        c = chain()
        with pytest.raises(ValidationError):
            c.word(["u"], src="b")

    def test_concat(self):
        c = chain()
        w = c.concat(c.word(["u"]), c.word(["v"]))
        assert w.letters == ("u", "v")
        with pytest.raises(ValidationError):
            c.concat(c.word(["v"]), c.word(["u"]))

    def test_concat_identity_neutral(self):
        c = chain()
        u = c.word(["u"])
        assert c.concat(c.identity("a"), u) == u
        assert c.concat(u, c.identity("b")) == u

    def test_identity_of_unknown_object_rejected(self):
        with pytest.raises(ValidationError):
            chain().identity("nope")


class TestShortlex:
    def test_length_dominates(self):
        c = chain()
        assert c.shortlex_key(c.word(["u"])) < c.shortlex_key(c.word(["u", "v"]))

    def test_declaration_order_breaks_ties(self):
        c = CatPresentation(
            objects=("x",),
            generators=(GenArrow("later", "x", "x"), GenArrow("earlier", "x", "x")),
            relations=())
        # "later" is declared first, so it sorts first despite the names
        assert c.shortlex_key(c.word(["later"])) < c.shortlex_key(c.word(["earlier"]))


class TestFromWords:
    def test_relations_are_encoded(self):
        c = CatPresentation.from_words(
            ("a", "b"), (GenArrow("u", "a", "b"), GenArrow("v", "a", "b")),
            [(PathWord("a", "b", ("v",)), PathWord("a", "b", ("u",)))])
        assert c.relations == (tuple(map(c.encode, (PathWord("a", "b", ("v",)),
                                                    PathWord("a", "b", ("u",))))),)
        assert validate_presentation(c) == []

    def test_relation_must_be_parallel(self):
        c = chain()
        with pytest.raises(ValidationError, match="parallel"):
            CatPresentation.from_words(c.objects, c.generators,
                                       [(c.word(["u"]), c.identity("a"))])

    @pytest.mark.parametrize("side", [
        PathWord("a", "b", ("w",)),
        PathWord("a", "c", ("v", "u")),
        PathWord("a", "c", ("u",)),
    ], ids=["unknown-letter", "not-composable", "wrong-endpoints"])
    def test_sides_must_be_words(self, side):
        c = chain()
        with pytest.raises(ValidationError, match="^relation 0: "):
            CatPresentation.from_words(c.objects, c.generators, [(side, side)])


def with_relation(lhs, rhs) -> CatPresentation:
    """``chain()`` with one relation between the encoded ``lhs`` and ``rhs``."""
    c = chain()
    return CatPresentation(c.objects, c.generators, ((lhs, rhs),))


class TestValidation:
    def test_valid_presentation_has_no_problems(self):
        for name in corpus.CAT_NAMES:
            assert validate_presentation(corpus.cat(name).cat) == []
            assert validate_cat_with_denoms(corpus.cat(name)) == []

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

    def test_denominator_word_endpoint_checked(self):
        base = chain()
        bad = CatWithDenoms(base, DenomSet(
            explicit=(("a", "a", base.codec[0]["u"]),),
            include_identities=True, close_under_composition=False))
        assert [p["kind"] for p in validate_cat_with_denoms(bad)] == \
            ["ill-formed-denominator"]

    def test_unknown_code_is_ill_formed(self):
        u = chain().codec[0]["u"]
        problems = validate_presentation(with_relation(("a", "b", u), ("a", "b", "?")))
        assert problems == [{"kind": "ill-formed-word", "relation": 0, "side": "rhs",
                             "detail": "unknown generator code '?'"}]

    def test_letters_that_do_not_compose_are_ill_formed(self):
        code = chain().codec[0]
        vu = ("a", "c", code["v"] + code["u"])
        problems = validate_presentation(with_relation(vu, vu))
        assert [(p["kind"], p["side"]) for p in problems] == \
            [("ill-formed-word", "lhs"), ("ill-formed-word", "rhs")]
        assert "do not compose" in problems[0]["detail"]

    def test_sides_not_parallel_reported(self):
        code = chain().codec[0]
        problems = validate_presentation(
            with_relation(("a", "b", code["u"]), ("a", "a", "")))
        assert problems == [{"kind": "relation-not-parallel", "relation": 0}]


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
        w = c.cat.word(["h_top", "v_right"])
        assert f.apply_word(w) == w
        assert f.then(f).apply_word(w) == w

    def test_then_rejects_mismatched_functors(self):
        f = identity_functor(corpus.cat("E7D"))
        g = identity_functor(corpus.cat("E1"))
        with pytest.raises(ValidationError):
            f.then(g)


def letterwise(f, w):
    """The image of ``w`` built one generator image at a time."""
    out = f.target.cat.identity(f.object_map[w.src])
    for letter in w.letters:
        out = f.target.cat.concat(out, f.gen_map[letter])
    return out


@pytest.mark.parametrize("name", corpus.FUN_NAMES)
def test_apply_word_equals_letterwise_images(name):
    f = corpus.fun(name)
    rs = complete(f.source.cat, DEFAULT_LIMITS)
    objects = f.source.cat.objects
    words = [w for x in objects for y in objects for w in homset(rs, x, y)]
    assert words
    for w in words:
        assert f.apply_word(w) == letterwise(f, w)


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
    words = [w for x in objects for y in objects for w in homset(rs_src, x, y)]
    assert words
    for w in words:
        assert translated(f, rs_src, rs_tgt, w) == normalize(rs_tgt, f.apply_word(w))
