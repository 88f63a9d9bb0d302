"""Completion, normalization, hom-set enumeration, denominator decisions."""

import ast
import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import reference_rewrite
from loccat import (BOUNDED_INCOMPLETE, COMPLETE, CatPresentation,
                    CatWithDenoms, DenomDecider, DenomSet, GenArrow,
                    LimitExceeded, PathWord, Relation, DEFAULT_LIMITS,
                    ResourceLimits, RewriteRule, ValidationError,
                    build_replacement_category, complete, denominators, equal,
                    find_inverse, homset, localise, normalize)
from loccat import rewrite
from loccat.rewrite import RuleIndex
from test_approximation import ladder

TIGHT = ResourceLimits(max_word_len=4, max_rules=3, max_homset=4)


def monoid(gens: str, relations) -> CatPresentation:
    """One object ``o``, one generator per character of ``gens``."""
    def w(letters):
        return PathWord("o", "o", tuple(letters))
    return CatPresentation(
        objects=("o",), generators=tuple(GenArrow(g, "o", "o") for g in gens),
        relations=tuple(Relation(w(lhs), w(rhs)) for lhs, rhs in relations))


def dihedral(n: int) -> CatPresentation:
    """``D_n``: ``a^n = 1``, ``b.b = 1``, ``b.a.b = a^(n-1)``."""
    return monoid("ab", [("a" * n, ""), ("bb", ""), ("bab", "a" * (n - 1))])


def dihedral_denoms(n: int) -> CatWithDenoms:
    """``D_n`` with ``a`` its denominator generator."""
    return CatWithDenoms(dihedral(n), DenomSet((PathWord("o", "o", ("a",)),),
                                               True, True))


def localised_dihedral(n: int) -> CatPresentation:
    """``D_n`` with ``a`` inverted."""
    c = dihedral_denoms(n)
    return localise(c, complete(c.cat)).presentation


def localised_ladder(n: int) -> CatPresentation:
    """The grid of ``L_n`` with its verticals inverted."""
    c = ladder(n).target
    return localise(c, complete(c.cat)).presentation


def count_normal_forms(monkeypatch) -> list:
    """From now on, every ``RuleIndex.normal_form`` call's argument."""
    calls = []
    normal_form = RuleIndex.normal_form

    def counted(index, s):
        calls.append(s)
        return normal_form(index, s)

    monkeypatch.setattr(RuleIndex, "normal_form", counted)
    return calls


# the completions of the braid and the partially commutative monoid do
# not terminate, so every bound is hit; L4 has thirteen generators
FAMILIES = {"D5": dihedral(5), "D12": dihedral(12), "D33": dihedral(33),
            "L4": ladder(4).target.cat,
            "braid": monoid("ab", [("aba", "bab")]),
            "partially-commutative": monoid("abc", [("ab", "ba"), ("bc", "cb")])}

# Hom-set cardinalities computed by the brute-force oracle (congruence
# saturation over words of length <= 8) and frozen here.
BASE_HOM_COUNTS = {
    "E1": {("a", "a"): 1, ("a", "b"): 1, ("a", "c"): 1,
           ("b", "b"): 1, ("b", "c"): 1, ("c", "c"): 1},
    "E3C": {("X0", "X0"): 1, ("X0", "X1"): 2, ("X1", "X1"): 1},
    "E5": {("•", "•"): 2},
    "E7D": {("tl", "tl"): 1, ("tl", "tr"): 1, ("tl", "bl"): 1,
            ("tl", "br"): 1, ("tr", "tr"): 1, ("tr", "br"): 1,
            ("bl", "bl"): 1, ("bl", "br"): 1, ("br", "br"): 1},
    "E7bD": {("tl", "tl"): 1, ("tl", "tr"): 1, ("tl", "bl"): 2,
             ("tl", "br"): 2, ("tl", "z"): 1, ("tr", "tr"): 1,
             ("tr", "br"): 1, ("bl", "bl"): 1, ("bl", "br"): 1,
             ("bl", "z"): 1, ("br", "br"): 1, ("z", "z"): 1},
}


class TestCompletion:
    def test_corpus_systems_complete(self):
        for name in corpus.CAT_NAMES:
            assert corpus.rs(name).status == COMPLETE, name

    def test_rules_oriented_by_shortlex(self):
        for name in corpus.CAT_NAMES:
            rs = corpus.rs(name)
            c = corpus.cat(name).cat
            for rule in rs.rules:
                assert c.shortlex_key(rule.rhs) < c.shortlex_key(rule.lhs)

    def test_square_relation_oriented(self):
        rs = corpus.rs("E7D")
        # declaration order h_top < v_left, so h_top.v_right is the normal form
        assert [(r.lhs.letters, r.rhs.letters) for r in rs.rules] == \
            [(("v_left", "h_bot"), ("h_top", "v_right"))]

    def test_involution_completes(self):
        rs = corpus.rs("E5")
        assert [(r.lhs.letters, r.rhs.letters) for r in rs.rules] == \
            [(("d", "d"), ())]

    @pytest.mark.parametrize("n", [5, 12, 33])
    def test_dihedral_family(self, n):
        limits = ResourceLimits(max_word_len=n + 1)
        rs = complete(dihedral(n), limits)
        assert rs.status == COMPLETE
        assert len(rs.rules) == 6
        assert len(homset(rs, "o", "o")) == 2 * n

    @pytest.mark.parametrize("name", [*corpus.CAT_NAMES, *FAMILIES])
    def test_same_rules_as_reference(self, name):
        p = FAMILIES[name] if name in FAMILIES else corpus.cat(name).cat
        for word_len in (4, 8, 16):
            for max_rules in (1, 3, 8, 512):
                limits = ResourceLimits(max_word_len=word_len, max_rules=max_rules)
                got = complete(p, limits)
                want = reference_rewrite.complete(p, limits)
                assert (got.rules, got.status) == (want.rules, want.status), limits

    @pytest.mark.parametrize("name", [*corpus.CAT_NAMES, "D3", "D4", "D5", "D8",
                                      "L4"])
    def test_localised_same_rules_as_reference(self, name):
        if name in corpus.CAT_NAMES:
            p = corpus.lc(name).presentation
        elif name.startswith("L"):
            p = localised_ladder(int(name[1:]))
        else:
            p = localised_dihedral(int(name[1:]))
        for word_len in (4, 8, 16):
            limits = ResourceLimits(max_word_len=word_len, max_rules=512)
            got = complete(p, limits)
            want = reference_rewrite.complete(p, limits)
            assert (got.rules, got.status) == (want.rules, want.status), limits

    def test_dead_pairs_not_normalised(self, monkeypatch):
        # a critical pair is dropped unread once one of its rules has
        # left the system: 2,083 normalisations here instead of 5,361
        calls = count_normal_forms(monkeypatch)
        rs = complete(dihedral(33), ResourceLimits(max_word_len=34))
        assert rs.status == COMPLETE
        assert len(calls) < 2500

    def test_disjoint_rules_not_paired(self, monkeypatch):
        # a critical pair needs one left side's first letter inside the
        # other; localised L8 has 34 rules over 34 letters, and most
        # pairs share none: 147 calls here instead of 1,636
        p = localised_ladder(8)
        calls = []
        critical_pairs = rewrite._critical_pairs

        def counted(r1, r2):
            calls.append((r1, r2))
            return critical_pairs(r1, r2)

        monkeypatch.setattr(rewrite, "_critical_pairs", counted)
        rs = complete(p)
        assert rs.status == COMPLETE and len(rs.rules) == 34
        assert len(calls) < 300

    @pytest.mark.parametrize("name", [*corpus.CAT_NAMES,
                                      *(f"D{n}" for n in range(3, 17))])
    def test_seeded_localisation_same_rules(self, name):
        # a seeded w^-1 = v follows from the other relations, so the
        # localisation completes to the system of the unseeded presentation
        if name in corpus.CAT_NAMES:
            c, bounds = corpus.cat(name), {4, 8, 16}
        else:
            n = int(name[1:])
            c, bounds = dihedral_denoms(n), {4, 8, 16, n + 1}
        compared = 0
        for word_len in sorted(bounds):
            limits = ResourceLimits(max_word_len=word_len, max_rules=512)
            try:
                lc = localise(c, complete(c.cat, limits))
            except LimitExceeded:
                continue
            want = complete(lc.presentation, limits)
            assert (lc.rs.rules, lc.rs.status) == (want.rules, want.status), limits
            assert lc.rs.presentation == lc.presentation
            compared += 1
        assert compared

    def test_seeded_inverse_not_rediscovered(self, monkeypatch):
        # localised D16 starts from a^-1 = a^15: 745 normalisations
        # instead of 7,544 without the seed
        c = dihedral_denoms(16)
        limits = ResourceLimits(max_word_len=17)
        rs = complete(c.cat, limits)
        calls = count_normal_forms(monkeypatch)
        assert localise(c, rs).rs.status == COMPLETE
        assert len(calls) < 1500

    def test_no_inverse_search_without_a_way_back(self, monkeypatch):
        # no morphism leads from a bottom object of a ladder back up, so
        # no vertical has an inverse to find and no hom-set is enumerated
        f = ladder(4)
        rs = complete(f.target.cat)
        starts = []
        reachable = rewrite._reachable_normal_forms

        def recorded(rs, x):
            starts.append(x)
            return reachable(rs, x)

        monkeypatch.setattr(rewrite, "_reachable_normal_forms", recorded)
        assert localise(f.target, rs).rs.status == COMPLETE
        assert starts == []

    @pytest.mark.parametrize("name", ["D6", *corpus.CAT_NAMES])
    def test_truncated_rules_hold(self, name):
        # a run stopped by max_rules may keep other rules than the
        # tuple kernel did, but each one must be an equation of the theory
        if name == "D6":
            p, bounds = dihedral(6), (5,)
        else:
            p, bounds = corpus.lc(name).presentation, (1, 3)
        full = complete(p)
        assert full.status == COMPLETE
        for max_rules in bounds:
            rs = complete(p, ResourceLimits(max_rules=max_rules))
            if name == "D6":
                assert rs.status == BOUNDED_INCOMPLETE
            for rule in rs.rules:
                assert normalize(full, rule.lhs) == normalize(full, rule.rhs), rule

    def test_bounded_incomplete_flagged(self):
        # the localised E7bD presentation needs 10 rules; stop early
        p = corpus.lc("E7bD").presentation
        rs = complete(p, ResourceLimits(max_word_len=16, max_rules=4,
                                        max_homset=64))
        assert rs.status == BOUNDED_INCOMPLETE


class TestNormalize:
    def test_idempotent_on_corpus_words(self):
        rs = corpus.rs("E7D")
        c = corpus.cat("E7D").cat
        w = c.word(["v_left", "h_bot"])
        nf = normalize(rs, w)
        assert nf.letters == ("h_top", "v_right")
        assert normalize(rs, nf) == nf

    def test_preserves_endpoints(self):
        rs = corpus.rs("E5")
        c = corpus.cat("E5").cat
        w = c.word(["d", "d", "d"])
        nf = normalize(rs, w)
        assert (nf.src, nf.dst) == (w.src, w.dst)
        assert nf.letters == ("d",)

    def test_identity_normalizes_to_itself(self):
        # normal forms are memoised by letters; endpoints come from the word
        rs = corpus.rs("E1")
        c = corpus.cat("E1").cat
        for x in c.objects:
            assert normalize(rs, c.identity(x)) == c.identity(x)


@st.composite
def rules_and_word(draw):
    """Shortlex-decreasing rules over two or three letters, and a word.

    Left sides come from a small pool, so duplicates and overlaps are
    common; right sides may be empty.
    """
    alphabet = "abc"[:draw(st.integers(2, 3))]
    pool = draw(st.lists(st.text(alphabet, min_size=1, max_size=4),
                         min_size=1, max_size=4))
    rules = []
    for lhs in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)):
        rhs = draw(st.text(alphabet, max_size=4))
        if (len(rhs), rhs) >= (len(lhs), lhs):
            rhs = rhs[:len(lhs) - 1]
        rules.append((lhs, rhs))
    return rules, draw(st.text(alphabet, max_size=12))


class TestRuleIndex:
    @given(rules_and_word())
    @settings(max_examples=300, deadline=None)
    def test_both_scans_match_reference(self, case):
        rules, word = case
        ref_rules = [RewriteRule(PathWord("o", "o", tuple(lhs)),
                                 PathWord("o", "o", tuple(rhs)))
                     for lhs, rhs in rules]
        want = "".join(reference_rewrite.normalize_letters(ref_rules, tuple(word)))
        index = RuleIndex(rules)
        assert index.normal_form_by_scan(word) == want
        assert index.normal_form_by_regex(word) == want

    def test_no_rules_keeps_word(self):
        index = RuleIndex(())
        for _ in range(3):
            assert index.normal_form("abcab") == "abcab"
        assert index.normal_form_by_regex("abcab") == "abcab"


class TestEqual:
    def test_equal_words(self):
        rs = corpus.rs("E7D")
        c = corpus.cat("E7D").cat
        assert equal(rs, c.word(["h_top", "v_right"]), c.word(["v_left", "h_bot"]))

    def test_unequal_words_decided_when_complete(self):
        rs = corpus.rs("E3C")
        c = corpus.cat("E3C").cat
        assert not equal(rs, c.word(["f1"]), c.word(["f2"]))

    def test_non_parallel_words_rejected(self):
        rs = corpus.rs("E1")
        c = corpus.cat("E1").cat
        with pytest.raises(Exception):
            equal(rs, c.word(["u"]), c.word(["v"]))

    def test_incomplete_difference_is_undecided(self):
        from loccat import RewriteSystem
        c = corpus.cat("E3C").cat
        rs = RewriteSystem(c, (), BOUNDED_INCOMPLETE)
        # joinability still certifies equality
        assert equal(rs, c.word(["f1"]), c.word(["f1"]))
        # but differing normal forms prove nothing without confluence
        with pytest.raises(LimitExceeded):
            equal(rs, c.word(["f1"]), c.word(["f2"]))


class TestHomset:
    def test_frozen_counts(self):
        for name, table in BASE_HOM_COUNTS.items():
            rs = corpus.rs(name)
            c = corpus.cat(name).cat
            for x in c.objects:
                for y in c.objects:
                    got = len(homset(rs, x, y))
                    assert got == table.get((x, y), 0), (name, x, y, got)

    def test_returned_words_are_normal_forms(self):
        rs = corpus.rs("E7bD")
        for w in homset(rs, "tl", "br"):
            assert normalize(rs, w) == w

    def test_shortlex_sorted(self):
        rs = corpus.rs("E3C")
        c = corpus.cat("E3C").cat
        words = homset(rs, "X0", "X1")
        keys = [c.shortlex_key(w) for w in words]
        assert keys == sorted(keys)

    def test_unknown_object_rejected(self):
        rs = corpus.rs("E1")
        with pytest.raises(Exception):
            homset(rs, "a", "nope")

    def test_infinite_homset_hits_cap(self):
        free_loop = CatPresentation(
            objects=("x",), generators=(GenArrow("t", "x", "x"),), relations=())
        rs = complete(free_loop, TIGHT)
        with pytest.raises(LimitExceeded):
            homset(rs, "x", "x")


class TestInverses:
    def test_involution_is_self_inverse(self):
        rs = corpus.rs("E5")
        c = corpus.cat("E5").cat
        d = c.word(["d"])
        assert find_inverse(rs, d) == d
        assert find_inverse(rs, d) is not None

    def test_non_isomorphism_has_no_inverse(self):
        rs = corpus.rs("E2")
        c = corpus.cat("E2").cat
        assert find_inverse(rs, c.word(["d"])) is None

    def test_identity_is_isomorphism(self):
        rs = corpus.rs("E1")
        c = corpus.cat("E1").cat
        assert find_inverse(rs, c.identity("a")) == c.identity("a")


class TestDenomDecider:
    def test_explicit_membership(self):
        c = corpus.cat("E2")
        dec = DenomDecider(c, corpus.rs("E2"))
        assert dec.is_denominator(c.cat.word(["d"]))
        assert dec.is_denominator(c.cat.identity("a"))

    def test_non_denominator(self):
        c = corpus.cat("E3C")
        dec = DenomDecider(c, corpus.rs("E3C"))
        assert not dec.is_denominator(c.cat.word(["f1"]))

    def test_closure_adds_composites(self):
        c = corpus.cat("E7bD")
        dec = DenomDecider(c, corpus.rs("E7bD"))
        assert dec.is_denominator(c.cat.word(["v_left", "s"]))
        assert dec.is_denominator(c.cat.word(["v_left2", "s"]))

    def test_flags_off_means_explicit_only(self):
        c = corpus.cat("E6")
        dec = DenomDecider(c, corpus.rs("E6"))
        assert dec.is_denominator(c.cat.word(["d"]))
        assert not dec.is_denominator(c.cat.identity("a"))
        assert not dec.is_denominator(c.cat.word(["d", "e"]))

    def test_membership_is_up_to_equality(self):
        c = corpus.cat("E5")
        dec = DenomDecider(c, corpus.rs("E5"))
        assert dec.is_denominator(c.cat.word(["d", "d", "d"]))

    def test_materialized_sorted_and_deduped(self):
        c = corpus.cat("E7bD")
        dec = DenomDecider(c, corpus.rs("E7bD"))
        mats = dec.materialized
        assert len(mats) == len(set(mats))
        key = c.cat.word_sort_key
        assert list(mats) == sorted(mats, key=key)
        # v_left.s and v_left2.s are equal in the base, so one class
        assert sum(1 for w in mats if (w.src, w.dst) == ("tl", "z")) == 1

    def test_denominators_between(self):
        c = corpus.cat("E7bD")
        dec = DenomDecider(c, corpus.rs("E7bD"))
        between = dec.denominators_between("tl", "bl")
        assert [w.letters for w in between] == [("v_left",), ("v_left2",)]


class TestDeciderTable:
    """Each system builds the decider of a denominator set once."""

    def test_same_decider_per_system(self):
        c = corpus.cat("E7bD")
        rs = complete(c.cat, DEFAULT_LIMITS)
        dec = denominators(c, rs)
        assert denominators(c, rs) is dec
        rs_tight = complete(c.cat, ResourceLimits(max_word_len=12))
        tight = denominators(c, rs_tight)
        assert tight is not dec
        assert denominators(c, rs_tight) is tight
        assert tight.materialized == dec.materialized
        # a system of the same presentation keeps its own table
        assert denominators(c, complete(c.cat, DEFAULT_LIMITS)) is not dec

    def test_failed_closure_raises_again(self, monkeypatch):
        # a free monoid: the composites of a never end
        c = CatWithDenoms(monoid("a", []),
                          DenomSet((PathWord("o", "o", ("a",)),), True, True))
        rs = complete(c.cat, DEFAULT_LIMITS)
        builds = []
        init = DenomDecider.__init__

        def counted(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(DenomDecider, "__init__", counted)
        for _ in range(2):
            with pytest.raises(LimitExceeded, match="max_word_len"):
                denominators(c, rs)
        assert len(builds) == 2


class TestSystemTables:
    """Each system owns its query tables; nothing outlives it."""

    def test_system_freed_after_queries(self):
        # a presentation no other test completes, so no equal system is
        # held anywhere else
        p = CatPresentation(objects=("p", "q"), generators=(
            GenArrow("s", "p", "q"), GenArrow("t", "p", "q")), relations=(
            Relation(PathWord("p", "q", ("s",)), PathWord("p", "q", ("t",))),))
        rs = complete(p, DEFAULT_LIMITS)
        assert len(homset(rs, "p", "q")) == 1
        ref = weakref.ref(rs)
        del rs
        gc.collect()
        assert ref() is None

    def test_no_module_level_cache_decorator(self):
        src = Path(__file__).resolve().parent.parent / "src" / "loccat"
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for dec in node.decorator_list:
                        target = dec.func if isinstance(dec, ast.Call) else dec
                        name = getattr(target, "attr", getattr(target, "id", None))
                        if name in ("lru_cache", "cache"):
                            found.append(f"{path.name}:{node.name}")
        assert found == []

    def test_queries_under_the_system_limits(self):
        p = corpus.cat("E7bD").cat
        # seven morphisms leave tl, so a bound of two cannot enumerate them
        tight = complete(p, ResourceLimits(max_homset=2))
        for _ in range(2):
            with pytest.raises(LimitExceeded):
                homset(tight, "tl", "bl")
        rs = complete(p, DEFAULT_LIMITS)
        words = homset(rs, "tl", "bl")
        assert words == homset(complete(p, DEFAULT_LIMITS), "tl", "bl")
        assert homset(rs, "tl", "bl") is words
        # the same rules, but each system answers under its own limits
        assert tight.rules == rs.rules and tight != rs
        with pytest.raises(LimitExceeded):
            homset(tight, "tl", "bl")
        with pytest.raises(ValidationError):
            homset(rs, "tl", "nope")
        with pytest.raises(ValidationError):
            homset(rs, "nope", "bl")


class TestDerivedLimits:
    """A system derived from another is completed under its limits."""

    BOUND = ResourceLimits(max_word_len=12)

    def test_localisation_inherits(self):
        c = corpus.cat("E7bD")
        rs = complete(c.cat, self.BOUND)
        assert localise(c, rs).rs.limits == rs.limits == self.BOUND

    def test_replacement_category_inherits(self):
        f = corpus.fun("E7")
        rs_src = complete(f.source.cat, self.BOUND)
        rs_tgt = complete(f.target.cat, self.BOUND)
        rc = build_replacement_category(f, rs_src, rs_tgt)
        assert rc.rs.limits == rs_tgt.limits == self.BOUND

    def test_inverse_search_under_the_system_limits(self):
        # hom(•, •) of E5 is {1, d}: a bound of one cannot enumerate it
        p = corpus.cat("E5").cat
        d = p.word(["d"])
        with pytest.raises(LimitExceeded, match="max_homset"):
            find_inverse(complete(p, ResourceLimits(max_homset=1)), d)
        assert find_inverse(complete(p), d) == d
