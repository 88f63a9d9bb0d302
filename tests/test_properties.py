"""Randomised invariant checks over the fixture corpus (hypothesis)."""

from hypothesis import given, settings, strategies as st

import corpus
from loccat.presentation import PathWord, opposite
from loccat.rewrite import equal, normalize

# Presentations whose rewrite systems complete at default limits and that
# have at least one generator.
NAMES = ("E1", "E3C", "E4", "E5", "E7D", "E7bD", "E8")


@st.composite
def composable_word(draw, name=None):
    """A well-typed word: start anywhere, repeatedly follow generators."""
    if name is None:
        name = draw(st.sampled_from(NAMES))
    p = corpus.cat(name)
    src = draw(st.sampled_from(sorted(p.objects)))
    letters = []
    at = src
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        outgoing = [g for g in p.generators if g.src == at]
        if not outgoing:
            break
        g = draw(st.sampled_from(outgoing))
        letters.append(g.name)
        at = g.dst
    return name, PathWord(src, at, tuple(letters))


@st.composite
def word_pair(draw):
    """Two words over the same presentation with the same endpoints, built
    by normal-form collision so that equality holds by construction only
    sometimes."""
    name, w1 = draw(composable_word())
    _, w2 = draw(composable_word(name=name))
    return name, w1, w2


class TestNormalize:
    @given(composable_word())
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, nw):
        name, w = nw
        rs = corpus.rs(name)
        nf = normalize(rs, w)
        assert normalize(rs, nf) == nf

    @given(composable_word())
    @settings(max_examples=200, deadline=None)
    def test_preserves_endpoints(self, nw):
        name, w = nw
        nf = normalize(corpus.rs(name), w)
        assert (nf.src, nf.dst) == (w.src, w.dst)

    @given(composable_word())
    @settings(max_examples=200, deadline=None)
    def test_shortlex_non_increasing(self, nw):
        name, w = nw
        rs = corpus.rs(name)
        nf = normalize(rs, w)
        assert rs.sort_key(rs.encode(nf)) <= rs.sort_key(rs.encode(w))

    @given(composable_word())
    @settings(max_examples=200, deadline=None)
    def test_normal_form_equal_to_input(self, nw):
        name, w = nw
        rs = corpus.rs(name)
        assert equal(rs, w, normalize(rs, w))


class TestEqual:
    @given(composable_word())
    @settings(max_examples=100, deadline=None)
    def test_reflexive(self, nw):
        name, w = nw
        assert equal(corpus.rs(name), w, w)

    @given(word_pair())
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, nwp):
        name, w1, w2 = nwp
        rs = corpus.rs(name)
        if (w1.src, w1.dst) != (w2.src, w2.dst):
            return
        assert equal(rs, w1, w2) == equal(rs, w2, w1)

    @given(word_pair(), composable_word())
    @settings(max_examples=200, deadline=None)
    def test_transitive_via_normal_forms(self, nwp, nw3):
        name, w1, w2 = nwp
        name3, w3 = nw3
        if name3 != name:
            return
        rs = corpus.rs(name)
        ends = {(w.src, w.dst) for w in (w1, w2, w3)}
        if len(ends) != 1:
            return
        if equal(rs, w1, w2) and equal(rs, w2, w3):
            assert equal(rs, w1, w3)


class TestWordAlgebra:
    @given(composable_word())
    @settings(max_examples=100, deadline=None)
    def test_identity_concat_units(self, nw):
        name, w = nw
        rs = corpus.rs(name)
        code = rs.encode(w)
        assert rs.compose((w.src, w.src, ""), code) == rs.compose(code)
        assert rs.compose(code, (w.dst, w.dst, "")) == rs.compose(code)

    @given(st.sampled_from(NAMES))
    @settings(max_examples=20, deadline=None)
    def test_opposite_is_an_involution(self, name):
        c = corpus.cat(name)
        assert opposite(opposite(c)) == c

    @given(composable_word())
    @settings(max_examples=100, deadline=None)
    def test_opposite_reverses_words(self, nw):
        name, w = nw
        op = opposite(corpus.cat(name))
        letters = tuple(reversed(w.letters))
        rev = op.word(letters) if letters else op.identity(w.src)
        assert rev == PathWord(w.dst, w.src, letters)


class TestNormalFormsPartition:
    @given(word_pair())
    @settings(max_examples=200, deadline=None)
    def test_equal_iff_same_normal_form(self, nwp):
        name, w1, w2 = nwp
        rs = corpus.rs(name)
        if (w1.src, w1.dst) != (w2.src, w2.dst):
            return
        same_nf = normalize(rs, w1) == normalize(rs, w2)
        assert equal(rs, w1, w2) == same_nf
