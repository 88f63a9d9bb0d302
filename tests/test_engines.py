"""Completion and coset enumeration agree wherever both decide.

Two engines decide a presented category: Knuth-Bendix completion
(:func:`~loccat.rewrite.complete`) and coset enumeration
(:class:`~loccat.rewrite.Enumerated`).  On each drawn presentation,
whenever completion under :data:`LIMITS` ends ``complete``, each object
out of which the enumeration closes must list the same hom-sets, and
random words of up to twelve letters out of those objects must have the
same normal forms.  Where every object's enumeration closes, the rules
read off the tables must be the completed ones.  The enumeration must
close where the relations have at most four letters a side and the
completed system lists at most 16 morphisms out of the object: a merge
that loses a clash still answers right where it closes, but needs far
more classes.
The draws are the quotient draws of ``tests/test_quotient_draws.py``
(either category of each), random monoids (one object, two to four
generators, one to four relations with a left side of two to eight
random letters and a right side of up to five) and presentations on two
objects whose relations are random parallel walks.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import corpus
from loccat import LimitExceeded, ResourceLimits, complete, load_cat
from loccat.rewrite import Enumerated, words
from test_quotient_draws import _walks, quotient_draw

LIMITS = ResourceLimits(max_word_len=12, max_rules=64, max_homset=256)


@st.composite
def quotient_side(draw):
    spec = draw(quotient_draw())
    side = draw(st.sampled_from("cd"))
    return corpus.cat_data(spec["objects"], spec["gens"], spec[side])


@st.composite
def random_monoid(draw):
    letters = "abcd"[:draw(st.integers(2, 4))]
    relations = [(draw(st.text(letters, min_size=2, max_size=8)),
                  draw(st.text(letters, max_size=5)))
                 for _ in range(draw(st.integers(1, 4)))]
    return corpus.cat_data(["o"], [(g, "o", "o") for g in letters], relations)


@st.composite
def two_objects(draw):
    objects = ["o0", "o1"]
    gens = [(f"g{i}", draw(st.sampled_from(objects)), draw(st.sampled_from(objects)))
            for i in range(draw(st.integers(2, 4)))]
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        walks = _walks(gens, draw(st.sampled_from(objects)), 4)
        left, dst = draw(st.sampled_from(walks[1:] or walks))
        right = [w for w, d in walks if d == dst and w != left]
        if right:
            relations.append((left, draw(st.sampled_from(right))))
    return corpus.cat_data(objects, gens, relations)


def listing(rs, x: str):
    """The hom-sets out of ``x`` in object order, or None where listing
    them raises :class:`LimitExceeded`."""
    try:
        return [words(rs, x, y) for y in rs.presentation.objects]
    except LimitExceeded:
        return None


def random_word(data, p, sources) -> str:
    """An encoded typed walk of up to twelve letters out of one of ``sources``."""
    at = data.draw(st.sampled_from(sources))
    code = ""
    for _ in range(data.draw(st.integers(0, 12))):
        out = p.out_arrows.get(at)
        if not out:
            break
        _, at, g = data.draw(st.sampled_from(out))
        code += g
    return code


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.one_of(quotient_side(), random_monoid(), two_objects()), st.data())
def test_completion_and_enumeration_agree(cat_data, data):
    p = load_cat("drawn", cat_data)
    rs = complete(p, LIMITS)
    if not rs.is_complete:
        return
    enumerated = Enumerated(p, LIMITS)
    short = all(len(s) <= 4 for pair in p.relations for _, _, s in pair)
    closed = []
    for x in p.objects:
        want, got = listing(rs, x), listing(enumerated, x)
        if got is None:
            # the clash queue keeps a small category with short relations
            # well inside the class budget
            assert not (short and want is not None and sum(map(len, want)) <= 16), x
        else:
            assert got == want, x
            closed.append(x)
    for _ in range(8 if closed else 0):
        s = random_word(data, p, closed)
        assert enumerated.index[s] == rs.index[s], s
    if len(closed) == len(p.objects):
        assert enumerated.rules == rs.rules
