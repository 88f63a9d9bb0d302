"""Completion, normalization, hom-set enumeration, denominator decisions."""

import ast
import gc
import hashlib
import heapq
import itertools
import random
import re
import tracemalloc
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import reference_rewrite
from loccat import (BOUNDED_INCOMPLETE, COMPLETE, CatPresentation,
                    DenomDecider, DenomSet, GenArrow,
                    LimitExceeded, PathWord, DEFAULT_LIMITS,
                    ResourceLimits, RewriteSystem, ValidationError,
                    check_multiplicative, complete, equal,
                    find_inverse, homset, load_cat, localise, normalize, prepare,
                    present)
from loccat import gz, rewrite
from loccat.cli import main
from loccat.rewrite import RuleIndex
from reference_rewrite import RewriteRule
from test_approximation import ladder

TIGHT = ResourceLimits(max_word_len=4, max_rules=3, max_homset=4)


def monoid(gens: str, relations) -> CatPresentation:
    """One object ``o``, one generator per character of ``gens``."""
    return load_cat("monoid", corpus.cat_data(
        ["o"], [(g, "o", "o") for g in gens], relations))


def dihedral(n: int) -> CatPresentation:
    """``D_n``: ``a^n = 1``, ``b.b = 1``, ``b.a.b = a^(n-1)``."""
    return monoid("ab", [("a" * n, ""), ("bb", ""), ("bab", "a" * (n - 1))])


def with_denominator_a(p: CatPresentation) -> CatPresentation:
    """``p`` with the closure of its generator ``a`` as denominators."""
    return p._replace(denoms=DenomSet((p.encode(PathWord("o", "o", ("a",))),), True, True))


def dihedral_denoms(n: int) -> CatPresentation:
    """``D_n`` with ``a`` its denominator generator."""
    return with_denominator_a(dihedral(n))


def spelled(rs: RewriteSystem) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The rules of ``rs`` as pairs of letter tuples."""
    name = rs.presentation.codec[1]
    return [(tuple(map(name.__getitem__, lhs)), tuple(map(name.__getitem__, rhs)))
            for lhs, rhs in rs.rules]


def random_monoids(seed: int):
    """Monoids drawn from ``random.Random(seed)``, without end: each has
    the one object ``o``, two to four generators, and one to four
    relations with a left side of two to eight random letters and a
    right side of up to five."""
    rng = random.Random(seed)
    while True:
        letters = "abcd"[:rng.randint(2, 4)]
        yield monoid(letters, [("".join(rng.choices(letters, k=rng.randint(2, 8))),
                                "".join(rng.choices(letters, k=rng.randint(0, 5))))
                               for _ in range(rng.randint(1, 4))])


def summary(rs: RewriteSystem) -> tuple:
    """What describes a system: its type, rules, status and limits;
    systems themselves compare by identity."""
    return type(rs), rs.rules, rs.status, rs.limits


def localised_dihedral(n: int) -> CatPresentation:
    """``D_n`` with ``a`` inverted."""
    c = dihedral_denoms(n)
    return localise(complete(c)).presentation


def localised_ladder(n: int) -> CatPresentation:
    """The grid of ``L_n`` with its verticals inverted."""
    c = ladder(n).target
    return localise(complete(c)).presentation


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
FAMILIES = {"D5": dihedral(5), "D12": dihedral(12), "D24": dihedral(24),
            "D33": dihedral(33), "D12 localised": localised_dihedral(12),
            "L4": ladder(4).target,
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
            c = corpus.cat(name)
            for lhs, rhs in rs.rules:
                assert (len(rhs), rhs) < (len(lhs), lhs)

    def test_square_relation_oriented(self):
        rs = corpus.rs("E7D")
        # declaration order h_top < v_left, so h_top.v_right is the normal form
        assert spelled(rs) == [(("v_left", "h_bot"), ("h_top", "v_right"))]

    def test_involution_completes(self):
        rs = corpus.rs("E5")
        assert spelled(rs) == [(("d", "d"), ())]

    @pytest.mark.parametrize("n", [5, 12, 33])
    def test_dihedral_family(self, n):
        limits = ResourceLimits(max_word_len=n + 1)
        rs = complete(dihedral(n), limits)
        assert rs.status == COMPLETE
        assert len(rs.rules) == 6
        assert len(homset(rs, "o", "o")) == 2 * n

    @pytest.mark.parametrize("name", [*corpus.CAT_NAMES, *FAMILIES])
    def test_same_rules_as_reference(self, name):
        p = FAMILIES[name] if name in FAMILIES else corpus.cat(name)
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
        # left the system: 1,183 normalisations here instead of 4,511
        calls = count_normal_forms(monkeypatch)
        rs = complete(dihedral(33), ResourceLimits(max_word_len=34))
        assert rs.status == COMPLETE
        assert len(calls) < 2500

    def test_composite_pairs_not_normalised(self, monkeypatch):
        # a live pair whose overlap word is reducible inside its first
        # and last letters is joined by smaller pairs and skipped unread:
        # 1,183 normalisations here instead of 2,083
        calls = count_normal_forms(monkeypatch)
        rs = complete(dihedral(33), ResourceLimits(max_word_len=34))
        assert rs.status == COMPLETE and len(rs.rules) == 6
        assert len(calls) < 1300

    def test_one_rule_index_per_run(self, monkeypatch):
        # completion updates one index as rules come and go, and the
        # system builds its own: 2 indexes here instead of 93
        builds = []
        init = RuleIndex.__init__

        def counted(index, *args):
            builds.append(args)
            init(index, *args)

        monkeypatch.setattr(RuleIndex, "__init__", counted)
        rs = complete(dihedral(33), ResourceLimits(max_word_len=34))
        assert rs.status == COMPLETE
        assert len(builds) <= 2

    def test_dead_pairs_swept(self, monkeypatch):
        # dead pairs leave the heap each time it has doubled: it holds
        # at most 835 entries here instead of 1,299
        sizes = []

        def counted(heap, item):
            heapq.heappush(heap, item)
            sizes.append(len(heap))

        monkeypatch.setattr(rewrite, "heapq", types.SimpleNamespace(
            heappush=counted, heappop=heapq.heappop, heapify=heapq.heapify))
        rs = complete(dihedral(33), ResourceLimits(max_word_len=34))
        assert rs.status == COMPLETE
        assert max(sizes) <= 1000

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
                lc = localise(complete(c, limits))
            except LimitExceeded:
                continue
            want = complete(lc.presentation, limits)
            assert (lc.rs.rules, lc.rs.status) == (want.rules, want.status), limits
            assert lc.rs.presentation == lc.presentation
            compared += 1
        assert compared

    def test_seeded_inverse_not_rediscovered(self, monkeypatch):
        # localised D16 starts from a^-1 = a^15: 275 normalisations
        # instead of 2,134 without the seed
        c = dihedral_denoms(16)
        limits = ResourceLimits(max_word_len=17)
        rs = complete(c, limits)
        calls = count_normal_forms(monkeypatch)
        assert localise(rs).rs.status == COMPLETE
        assert len(calls) < 1500

    def test_localise_builds_one_system(self, monkeypatch):
        # the seeds go to completion beside the presentation, so the
        # system completion returns is the localisation's, not rebuilt
        c = dihedral_denoms(6)
        rs = complete(c)
        built = []
        init = RewriteSystem.__init__

        def counted(system, *args, **kwargs):
            built.append(system)
            init(system, *args, **kwargs)

        monkeypatch.setattr(RewriteSystem, "__init__", counted)
        lc = localise(rs)
        assert len(built) == 1 and built[0] is lc.rs

    @pytest.mark.parametrize("max_rules", [1, 3, 512])
    def test_seeds_follow_the_relations(self, max_rules):
        # seeds are pushed after the presentation's relations, so a bound
        # truncates the run where it truncates one on both lists at once
        c = dihedral_denoms(6)
        rs = complete(c)
        lc = gz.extension(rs)
        seeds = gz._base_inverses(rs, lc)
        assert seeds
        p, limits = lc.presentation, ResourceLimits(max_rules=max_rules)
        seeded = complete(p, limits, seeds)
        joined = complete(p._replace(relations=p.relations + seeds), limits)
        assert (seeded.rules, seeded.status) == (joined.rules, joined.status)
        assert seeded.presentation == p

    def test_no_inverse_search_without_a_way_back(self, monkeypatch):
        # no morphism leads from a bottom object of a ladder back up, so
        # no vertical has an inverse to find and no hom-set is enumerated
        f = ladder(4)
        rs = complete(f.target)
        starts = []
        reachable = RewriteSystem.normal_forms_out

        def recorded(rs, x):
            starts.append(x)
            return reachable(rs, x)

        monkeypatch.setattr(RewriteSystem, "normal_forms_out", recorded)
        assert localise(rs).rs.status == COMPLETE
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
            for lhs, rhs in rs.rules:
                assert full.index[lhs] == full.index[rhs], spelled(rs)

    def test_bounded_incomplete_flagged(self):
        # the localised E7bD presentation needs 10 rules; stop early
        p = corpus.lc("E7bD").presentation
        rs = complete(p, ResourceLimits(max_word_len=16, max_rules=4,
                                        max_homset=64))
        assert rs.status == BOUNDED_INCOMPLETE

    def test_long_equations_that_join_leave_the_run_complete(self):
        # the run sets aside equations longer than five letters, but each
        # joins under a -> 1, b -> 1, c -> 1, so nothing is left to enumerate
        p = monoid("abc", [("cacaa", "c"), ("cccc", ""), ("acc", "bccb"), ("ba", "bbac")])
        limits = ResourceLimits(max_word_len=5)
        rs = complete(p, limits)
        assert rs.status == COMPLETE
        assert spelled(rs) == [(("a",), ()), (("b",), ()), (("c",), ())]
        assert type(present(p, limits)) is RewriteSystem

    def test_long_equations_that_do_not_join_leave_the_run_incomplete(self):
        # a^5 = 1 is set aside under a word bound of 4 and no rule is left
        # to join it: the run may not claim the free monoid on a
        rs = complete(monoid("a", [("aaaaa", "")]), ResourceLimits(max_word_len=4))
        assert rs.rules == () and rs.status == BOUNDED_INCOMPLETE

    def test_pending_pairs_stay_small(self):
        # one flat tuple per pending pair: a peak of 535 KB here, where a
        # nested sort key and a counter per pair peaked at 680 KB.  The
        # pattern cache is emptied so the run compiles as a fresh one does
        p = dihedral(33)
        re.purge()
        tracemalloc.start()
        try:
            rs = complete(p, ResourceLimits(max_word_len=34))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rs.status == COMPLETE
        assert peak < 600 * 1024

    def test_truncated_runs_pinned(self):
        # truncated runs have no reference to agree with: the rules a
        # bound leaves depend on the order pairs pop in, which
        # reference_rewrite does not share.  200 monoids drawn as
        # test_engines.random_monoid draws them, each completed under two
        # bounds: 188 of the 400 runs end bounded-incomplete
        digest = hashlib.sha256()
        for p in itertools.islice(random_monoids(2), 200):
            for max_rules in (8, 40):
                rs = complete(p, ResourceLimits(max_word_len=8, max_rules=max_rules))
                digest.update(repr((rs.status, rs.rules)).encode())
        assert digest.hexdigest() == (
            "1bb7f5fb4721df60bf41e1a39f21098d19a5056e4c9c8596d7ee7fbbe163b84c")


class TestPresent:
    """``present`` returns the completion, or coset tables where a bound
    cut the completion short; a query on an object whose enumeration
    does not close raises."""

    FINITE = {"D5": dihedral(5), "D6": dihedral(6), "D12": dihedral(12),
              "D12 localised": localised_dihedral(12), "L4": ladder(4).target,
              **{name: corpus.cat(name) for name in corpus.CAT_NAMES},
              **{f"{name} localised": corpus.lc(name).presentation
                 for name in corpus.CAT_NAMES}}

    @pytest.mark.parametrize("name", FINITE)
    def test_same_words_and_normal_forms_as_completion(self, name):
        # the enumerated names are the complete system's normal forms
        p = self.FINITE[name]
        want = complete(p)
        assert want.is_complete
        for rules in (0, 1, 3):
            rs = present(p, DEFAULT_LIMITS._replace(max_rules=rules))
            assert rs.is_complete, rules
            for x in p.objects:
                for y in p.objects:
                    assert rewrite.words(rs, x, y) == rewrite.words(want, x, y)
                    for u in rewrite.words(want, x, y):
                        for z in p.objects:
                            for v in rewrite.words(want, y, z):
                                assert rs.index[u + v] == want.index[u + v]

    def test_complete_runs_are_returned(self):
        # the tables read off the rules of the complete run, and the run
        # that two rules cut short is not kept
        p = dihedral(6)
        want = complete(p)
        assert type(present(p)) is RewriteSystem
        assert summary(present(p)) == summary(want)
        tight = DEFAULT_LIMITS._replace(max_rules=2)
        assert not complete(p, tight).is_complete
        rs = present(p, tight)
        assert summary(rs) == (rewrite.Enumerated, want.rules, COMPLETE, tight)
        assert rs.rules is rs.rules
        assert not hasattr(rs, "completion")

    @pytest.mark.parametrize("name", ["braid", "partially-commutative"])
    def test_infinite_monoids_read_no_rules(self, name):
        # the enumeration does not close, so neither the rules nor the
        # hom-set are read, on any call; the truncated run is discarded
        p = FAMILIES[name]
        assert complete(p).status == BOUNDED_INCOMPLETE
        rs = present(p)
        assert type(rs) is rewrite.Enumerated
        for _ in range(2):
            with pytest.raises(LimitExceeded, match="max_homset.*coset enumeration"):
                rs.rules
            with pytest.raises(LimitExceeded, match="max_homset.*coset enumeration"):
                rewrite.words(rs, "o", "o")

    def test_gives_up_past_max_homset(self):
        # seven morphisms leave tl: two live classes cannot hold them,
        # but z has only its identity
        p = corpus.cat("E7bD")
        rs = present(p, ResourceLimits(max_rules=1, max_homset=2))
        assert type(rs) is rewrite.Enumerated
        for _ in range(2):
            with pytest.raises(LimitExceeded, match="max_homset"):
                rewrite.words(rs, "tl", "z")
        assert rewrite.words(rs, "z", "z") == ("",)

    def test_max_homset_bounds_morphisms_not_live_classes(self):
        # E5 has two endomorphisms, 1 and d: its enumeration needs more
        # short-lived classes than that before they merge
        p = corpus.cat("E5")
        d = p.codec[0]["d"]
        rs = present(p, ResourceLimits(max_rules=0, max_homset=2))
        assert rewrite.words(rs, "•", "•") == ("", d)
        rs = present(p, ResourceLimits(max_rules=0, max_homset=1))
        with pytest.raises(LimitExceeded, match="more than 1 morphisms"):
            rewrite.words(rs, "•", "•")

    def test_cyclic_group_fills_max_homset(self):
        # a·a·a = 1 on one object: exactly three morphisms
        p = load_cat("c3", corpus.cat_data(["o"], [("a", "o", "o")],
                                           [(("a", "a", "a"), ())]))
        rs = present(p, ResourceLimits(max_rules=0, max_homset=3))
        a = p.codec[0]["a"]
        assert rewrite.words(rs, "o", "o") == ("", a, a + a)

    @pytest.mark.parametrize("max_rules", [0, 1])
    def test_closed_objects_answer_beside_one_that_does_not_close(self, max_rules):
        # g0 = g0·g0 and g0·g0 = 1, so g0 = 1; the free loop g1 leaves o0
        # infinitely many morphisms.  One rule, g0·g0 -> 1, leaves g0
        # irreducible, and the truncated run listed 1 and g0
        p = load_cat("two", corpus.cat_data(
            ["o0", "o1"], [("g0", "o1", "o1"), ("g1", "o0", "o0")],
            [(("g0",), ("g0", "g0")), (("g0", "g0"), ())]))
        limits = ResourceLimits(max_word_len=8, max_rules=max_rules, max_homset=128)
        rs = present(p, limits)
        assert rewrite.words(rs, "o1", "o1") == ("",)
        with pytest.raises(LimitExceeded):
            rewrite.words(rs, "o0", "o0")

    def test_long_normal_form_is_undecided(self):
        # D6 closes without a rule, but a·a·a·a has four letters
        rs = present(dihedral(6), ResourceLimits(max_word_len=3, max_rules=0))
        assert rs.is_complete
        with pytest.raises(LimitExceeded, match="max_word_len"):
            homset(rs, "o", "o")

    def test_seeded_localisation_gives_the_completed_words(self):
        # the seeds w^-1 = v of a localisation follow from its relations,
        # so tracing them too leaves the enumerated category unchanged
        c = dihedral_denoms(6)
        rs = complete(c)
        lc = gz.extension(rs)
        seeds = gz._base_inverses(rs, lc)
        assert seeds
        tight = DEFAULT_LIMITS._replace(max_rules=0)
        enumerated = present(lc.presentation, tight, seeds)
        want = complete(lc.presentation)
        assert enumerated.is_complete
        assert rewrite.words(enumerated, "o", "o") == rewrite.words(want, "o", "o")

    def test_enumeration_that_gives_up_stays_small(self):
        # the free monoid on a, b: 4,096 classes, each a row of four list
        # slots and an int, before the enumeration gives up; a dict per
        # class peaked at about 1 MB
        p = load_cat("free", corpus.cat_data(["o"], [("a", "o", "o"), ("b", "o", "o")]))
        rs = rewrite.Enumerated(p, DEFAULT_LIMITS)
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceeded, match="coset enumeration"):
                rewrite.words(rs, "o", "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 1024

    # the finite monoids among the first 150 drawn from each of seeds 1
    # and 2 that coset enumeration alone does not close, by draw number
    # (counted from 0), each with its order
    UNCLOSED_BY_ENUMERATION = {1: {32: 1, 85: 21, 130: 8, 140: 16},
                               2: {21: 1, 86: 6, 106: 2}}

    @pytest.mark.parametrize("seed", UNCLOSED_BY_ENUMERATION)
    def test_decides_monoids_that_enumeration_does_not_close(self, seed):
        # plain enumeration of each needs more than the 4 * max_homset =
        # 4,096 classes it may define, one of them over 262,144;
        # completion decides all seven in about 0.2 s in total
        orders = self.UNCLOSED_BY_ENUMERATION[seed]
        drawn = list(itertools.islice(random_monoids(seed), max(orders) + 1))
        for i, order in orders.items():
            rs = present(drawn[i], DEFAULT_LIMITS)
            assert rs.is_complete and len(rewrite.words(rs, "o", "o")) == order, i
            with pytest.raises(LimitExceeded, match="coset enumeration"):
                rewrite.words(rewrite.Enumerated(drawn[i], DEFAULT_LIMITS), "o", "o")

    def test_every_system_comes_from_present(self):
        src = Path(__file__).resolve().parent.parent / "src" / "loccat"
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    found += [f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                              if isinstance(node, ast.Call)
                              and getattr(node.func, "id", None) == "complete"]
        assert found == ["rewrite.present"]


class TestNormalize:
    def test_idempotent_on_corpus_words(self):
        rs = corpus.rs("E7D")
        c = corpus.cat("E7D")
        w = c.word(["v_left", "h_bot"])
        nf = normalize(rs, w)
        assert nf.letters == ("h_top", "v_right")
        assert normalize(rs, nf) == nf

    def test_preserves_endpoints(self):
        rs = corpus.rs("E5")
        c = corpus.cat("E5")
        w = c.word(["d", "d", "d"])
        nf = normalize(rs, w)
        assert (nf.src, nf.dst) == (w.src, w.dst)
        assert nf.letters == ("d",)

    def test_identity_normalizes_to_itself(self):
        # normal forms are memoised by letters; endpoints come from the word
        rs = corpus.rs("E1")
        c = corpus.cat("E1")
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


def critical_pairs_by_length(r1: tuple, r2: tuple):
    """``rewrite._critical_pairs`` as it was, trying each overlap length."""
    a, a_rhs = r1
    b, b_rhs = r2
    for k in range(1, min(len(a), len(b))):
        if a.endswith(b[:k]):
            yield a_rhs + b[k:], a[:len(a) - k] + b_rhs
    i = a.find(b)
    while i >= 0:
        yield a_rhs, a[:i] + b_rhs + a[i + len(b):]
        i = a.find(b, i + 1)


@st.composite
def letter_runs(draw):
    """A word of 1 to 5 runs, each of 1 to 5 equal letters, some of them
    regex metacharacters."""
    runs = draw(st.lists(st.tuples(st.sampled_from("ab.*+?{}()[]\\|^$-\u0100"),
                                   st.integers(1, 5)), min_size=1, max_size=5))
    return "".join(letter * n for letter, n in runs)


class TestRuleIndex:
    @given(rules_and_word(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_changed_in_place_matches_reference(self, case, data):
        # after each add, remove or set_rhs both scans give the normal
        # form of the current rules in insertion order; each check
        # compiles the regex, so a change that left it stale would show
        rules, word = case
        index, current = RuleIndex(), {}
        for lhs, rhs in rules:
            change = data.draw(st.sampled_from(["add", "remove", "set_rhs"]))
            if change != "add" and current:
                lhs = data.draw(st.sampled_from(list(current)))
            if change == "add" or not current:
                index.add(lhs, rhs)
                current.setdefault(lhs, rhs)
            elif change == "remove":
                index.remove(lhs)
                del current[lhs]
            else:
                if (len(rhs), rhs) >= (len(lhs), lhs):
                    rhs = rhs[:len(lhs) - 1]
                index.set_rhs(lhs, rhs)
                current[lhs] = rhs
            ref_rules = [RewriteRule(PathWord("o", "o", tuple(lhs)),
                                     PathWord("o", "o", tuple(rhs)))
                         for lhs, rhs in current.items()]
            want = "".join(reference_rewrite.normalize_letters(ref_rules, tuple(word)))
            assert index.normal_form_by_scan(word) == want
            assert index.normal_form_by_regex(word) == want

    @given(letter_runs(), letter_runs())
    @settings(max_examples=100, deadline=None)
    def test_literal_pattern_matches_its_word_only(self, word, other):
        pattern = re.compile(rewrite._literal_pattern(word))
        assert pattern.fullmatch(word)
        assert bool(pattern.fullmatch(other)) == (other == word)
        for i in range(len(word)):
            assert not pattern.fullmatch(word[:i] + word[i + 1:])
            assert not pattern.fullmatch(word[:i + 1] + word[i:])

    def test_literal_pattern_counts_runs(self):
        assert rewrite._literal_pattern("aaaaaaab") == "a{7}b"
        assert rewrite._literal_pattern("aab**") == "aab\\*\\*"
        assert rewrite._literal_pattern("...") == "\\.{3}"

    @given(st.text("abc", min_size=1, max_size=8), st.text("abc", min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_overlaps_by_rfind(self, a, b):
        r1, r2 = (a, "x"), (b, "yy")
        for x, y in ((r1, r2), (r2, r1), (r1, r1)):
            assert list(rewrite._critical_pairs(x, y)) == \
                list(critical_pairs_by_length(x, y))

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

    def test_pattern_groups_by_first_letter(self):
        index = RuleIndex([("ab", "a"), ("ba", "b"), ("aaaa", "")])
        assert index.normal_form_by_regex("abab") == "aa"
        assert index._regex.pattern == "a(?:b|a{3})|b(?:a)"

    def test_list_order_inside_a_group(self):
        # "ab" and "a" both match at 0: the one added first rewrites
        for rules in ([("ab", "c"), ("a", "d")], [("a", "d"), ("ab", "c")]):
            ref_rules = [RewriteRule(PathWord("o", "o", tuple(lhs)),
                                     PathWord("o", "o", tuple(rhs)))
                         for lhs, rhs in rules]
            want = "".join(reference_rewrite.normalize_letters(ref_rules, ("a", "b")))
            index = RuleIndex(rules)
            assert index.normal_form_by_scan("ab") == want
            assert index.normal_form_by_regex("ab") == want

    def test_tail_patterns_built_once(self, monkeypatch):
        # each left side's tail pattern is built the first time a compile
        # needs it: 62 builds here for 90 left sides, against 574 when
        # every compile built every rule's
        built, added = [], set()
        literal_pattern, add = rewrite._literal_pattern, RuleIndex.add

        def counted_pattern(word):
            built.append(word)
            return literal_pattern(word)

        def counted_add(index, lhs, rhs):
            added.add(lhs)
            add(index, lhs, rhs)

        monkeypatch.setattr(rewrite, "_literal_pattern", counted_pattern)
        monkeypatch.setattr(RuleIndex, "add", counted_add)
        rs = complete(dihedral(33), ResourceLimits(max_word_len=34))
        assert rs.status == COMPLETE
        assert 0 < len(built) <= len(added)

    def test_first_compile_waits_for_the_budget(self):
        # each normal form of "a" compares one candidate, "ab"; the first
        # regex waits 2,048 candidates beyond the left sides' letters, a
        # recompile after a change waits for none
        index = RuleIndex([("ab", "")])
        for _ in range(index._lhs_letters + 2048 + 1):
            index.normal_form("a")
        assert index._regex is None
        index.normal_form("a")
        assert index._regex is not None
        index.add("ba", "")
        for _ in range(index._lhs_letters + 1):
            index.normal_form("a")
        assert index._regex is None
        index.normal_form("a")
        assert index._regex is not None

    def test_small_systems_compile_nothing(self, capsys, monkeypatch):
        patterns = []
        compile_ = re.compile

        def counted(pattern, *args):
            patterns.append(pattern)
            return compile_(pattern, *args)

        monkeypatch.setattr(rewrite.re, "compile", counted)
        assert main(["verify-approximation", corpus.fun_path("E7")]) == 0
        capsys.readouterr()
        assert patterns == []

    def test_large_completion_still_compiles(self, monkeypatch):
        # D48 outgrows the budget; its rules are those of the scan alone
        compiled = []
        pattern = RuleIndex._pattern

        def counted(index):
            compiled.append(index)
            return pattern(index)

        monkeypatch.setattr(RuleIndex, "_pattern", counted)
        rs = complete(dihedral(48), ResourceLimits(max_word_len=49))
        assert compiled
        assert rs.status == COMPLETE
        assert [("".join(lhs), "".join(rhs)) for lhs, rhs in spelled(rs)] == [
            ("bb", ""), ("aba", "b"), ("b" + "a" * 24, "a" * 24 + "b"),
            ("b" + "a" * 23 + "b", "a" * 25), ("a" * 26, "b" + "a" * 22 + "b"),
            ("a" * 25 + "b", "b" + "a" * 23)]

    def test_no_rules_keeps_word(self):
        index = RuleIndex(())
        for _ in range(3):
            assert index.normal_form("abcab") == "abcab"
        assert index.normal_form_by_regex("abcab") == "abcab"


class TestEqual:
    def test_equal_words(self):
        rs = corpus.rs("E7D")
        c = corpus.cat("E7D")
        assert equal(rs, c.word(["h_top", "v_right"]), c.word(["v_left", "h_bot"]))

    def test_unequal_words_decided_when_complete(self):
        rs = corpus.rs("E3C")
        c = corpus.cat("E3C")
        assert not equal(rs, c.word(["f1"]), c.word(["f2"]))

    def test_non_parallel_words_rejected(self):
        rs = corpus.rs("E1")
        c = corpus.cat("E1")
        with pytest.raises(Exception):
            equal(rs, c.word(["u"]), c.word(["v"]))

    def test_truncated_run_decides_through_present(self):
        # in E5, d·d = 1, so d·d·d = d: with no rule completed the two
        # normal forms of the truncated run differ, and the coset tables
        # that present builds instead decide the equation
        c = corpus.cat("E5")
        d, ddd = c.word(["d"]), c.word(["d", "d", "d"])
        tight = DEFAULT_LIMITS._replace(max_rules=0)
        truncated = complete(c, tight)
        assert normalize(truncated, ddd) != normalize(truncated, d)
        rs = present(c, tight)
        assert equal(rs, ddd, d)
        assert not equal(rs, d, c.identity("•"))


# the bounds of TestCompletion.test_same_rules_as_reference, then every
# hom-set bound up to 16 and every word bound up to 4
HOMSET_BOUNDS = (
    [ResourceLimits(max_word_len=n, max_rules=r)
     for n in (4, 8, 16) for r in (1, 3, 8, 512)]
    + [ResourceLimits(max_homset=h) for h in range(17)]
    + [ResourceLimits(max_word_len=n) for n in range(5)])


def homset_outcome(enumerate_homset, rs, x: str, y: str):
    """The words ``enumerate_homset`` lists, or the bound it raises at."""
    try:
        return enumerate_homset(rs, x, y)
    except LimitExceeded as e:
        return e.bound, str(e)


class TestHomset:
    @pytest.mark.parametrize("name", [
        *corpus.CAT_NAMES, *(f"{n} localised" for n in corpus.CAT_NAMES),
        "D6", "L4", "braid", "partially-commutative"])
    def test_same_words_as_reference(self, name):
        # the search lists the normal forms the old normalise-and-collect
        # enumeration found, in the same order, or raises at the same bound
        if name.endswith(" localised"):
            p = corpus.lc(name.split()[0]).presentation
        elif name in corpus.CAT_NAMES:
            p = corpus.cat(name)
        else:
            p = dihedral(6) if name == "D6" else FAMILIES[name]
        for limits in HOMSET_BOUNDS:
            rs = complete(p, limits)
            for x in p.objects:
                for y in p.objects:
                    assert homset_outcome(homset, rs, x, y) == homset_outcome(
                        reference_rewrite.homset, rs, x, y), (limits, x, y)

    @pytest.mark.parametrize("localised", [False, True])
    def test_matcher_stays_idle(self, monkeypatch, localised):
        # listing the irreducible words reads the left sides only: the
        # matcher rewrites nothing and counts nothing toward its regex
        p = corpus.lc("E4").presentation if localised else corpus.cat("E4")
        rs = complete(p, ResourceLimits(max_rules=4))
        calls = count_normal_forms(monkeypatch)
        for x in p.objects:
            for y in p.objects:
                homset(rs, x, y)
        assert calls == []
        assert rs.index._compared == 0 and rs.index._regex is None

    def test_frozen_counts(self):
        for name, table in BASE_HOM_COUNTS.items():
            rs = corpus.rs(name)
            c = corpus.cat(name)
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
        c = corpus.cat("E3C")
        words = homset(rs, "X0", "X1")
        keys = [rs.sort_key(c.encode(w)) for w in words]
        assert keys == sorted(keys)

    def test_unknown_object_rejected(self):
        rs = corpus.rs("E1")
        with pytest.raises(Exception):
            homset(rs, "a", "nope")

    def test_infinite_homset_hits_cap(self):
        free_loop = CatPresentation(
            objects=("x",), generators=(GenArrow("t", "x", "x"),), relations=(),
            denoms=DenomSet())
        rs = complete(free_loop, TIGHT)
        with pytest.raises(LimitExceeded):
            homset(rs, "x", "x")


class TestInverses:
    def test_involution_is_self_inverse(self):
        rs = corpus.rs("E5")
        c = corpus.cat("E5")
        d = c.word(["d"])
        assert find_inverse(rs, d) == d
        assert find_inverse(rs, d) is not None

    def test_non_isomorphism_has_no_inverse(self):
        rs = corpus.rs("E2")
        c = corpus.cat("E2")
        assert find_inverse(rs, c.word(["d"])) is None

    def test_identity_is_isomorphism(self):
        rs = corpus.rs("E1")
        c = corpus.cat("E1")
        assert find_inverse(rs, c.identity("a")) == c.identity("a")


class TestDenomDecider:
    def test_explicit_membership(self):
        c = corpus.cat("E2")
        dec = DenomDecider(corpus.rs("E2"))
        assert dec.is_denominator(c.word(["d"]))
        assert dec.is_denominator(c.identity("a"))

    def test_non_denominator(self):
        c = corpus.cat("E3C")
        dec = DenomDecider(corpus.rs("E3C"))
        assert not dec.is_denominator(c.word(["f1"]))

    def test_closure_adds_composites(self):
        c = corpus.cat("E7bD")
        dec = DenomDecider(corpus.rs("E7bD"))
        assert dec.is_denominator(c.word(["v_left", "s"]))
        assert dec.is_denominator(c.word(["v_left2", "s"]))

    def test_flags_off_means_explicit_only(self):
        c = corpus.cat("E6")
        dec = DenomDecider(corpus.rs("E6"))
        assert dec.is_denominator(c.word(["d"]))
        assert not dec.is_denominator(c.identity("a"))
        assert not dec.is_denominator(c.word(["d", "e"]))

    def test_membership_is_up_to_equality(self):
        c = corpus.cat("E5")
        dec = DenomDecider(corpus.rs("E5"))
        assert dec.is_denominator(c.word(["d", "d", "d"]))

    def test_materialized_sorted_and_deduped(self):
        c, rs = corpus.cat("E7bD"), corpus.rs("E7bD")
        dec = DenomDecider(rs)
        mats = dec.materialized
        assert len(mats) == len(set(mats))
        codes = list(map(rs.encode, mats))
        assert codes == sorted(codes, key=rs.sort_key)
        # v_left.s and v_left2.s are equal in the base, so one class
        assert sum(1 for w in mats if (w.src, w.dst) == ("tl", "z")) == 1

    def test_denominators_between(self):
        c = corpus.cat("E7bD")
        rs = corpus.rs("E7bD")
        dec = DenomDecider(rs)
        between = [rs.decode(("tl", "bl", s)) for s in dec.denominators_between("tl", "bl")]
        assert [w.letters for w in between] == [("v_left",), ("v_left2",)]

    @pytest.mark.parametrize("name", [*corpus.CAT_NAMES, "L4", "D6"])
    def test_closure_kept_in_word_order(self, name):
        # the codes are kept once, in sort_key order; the first
        # witnesses of check multiplicative, validate and localise follow it
        c = {"L4": ladder(4).target, "D6": dihedral_denoms(6)}.get(name) \
            or corpus.cat(name)
        rs = complete(c)
        lc = localise(rs)
        for system in (rs, lc.rs):
            closure = list(DenomDecider(system).closure)
            assert closure == sorted(closure, key=system.sort_key)

    @pytest.mark.parametrize("name", [*corpus.CAT_NAMES, "L4", "D6", "D33",
                                      "D6 truncated"])
    def test_closure_matches_pairwise_saturation(self, name):
        # the closure grows by its generating words; on truncated D6 the
        # coset tables that present builds make its normal forms canonical
        if name in corpus.CAT_NAMES:
            c, limits = corpus.cat(name), DEFAULT_LIMITS
        elif name == "L4":
            c, limits = ladder(4).target, DEFAULT_LIMITS
        else:
            n = int(name.split()[0][1:])
            c, limits = dihedral_denoms(n), ResourceLimits(max_word_len=n + 1)
        if name.endswith("truncated"):
            limits = ResourceLimits(max_rules=5)
        rs = present(c, limits)
        systems = [rs]
        if name != "D33":
            systems.append(localise(rs).rs)
        for system in systems:
            assert set(DenomDecider(system).closure) == reference_rewrite.closure(system)
        if name.endswith("truncated"):
            assert type(rs) is rewrite.Enumerated
            assert complete(c, limits).status == BOUNDED_INCOMPLETE
            assert len(rs.denominators.closure) == 6

    def test_closure_grows_by_generating_words(self, monkeypatch):
        # each new denominator is multiplied by the generating words, not
        # by the whole closure, and the multiplicativity check multiplies
        # each denominator by them once: 67 and 33 compositions here
        # instead of 1,435 and 1,089
        c = dihedral_denoms(33)
        rs = complete(c, ResourceLimits(max_word_len=34))
        assert rs.status == COMPLETE
        calls = []
        compose = RewriteSystem.compose

        def counted(system, *words):
            calls.append(words)
            return compose(system, *words)

        monkeypatch.setattr(RewriteSystem, "compose", counted)
        assert len(rs.denominators.closure) == 33
        assert len(calls) < 100
        calls.clear()
        assert check_multiplicative(rs) == (True, None)
        assert len(calls) < 100


class TestDeciderTable:
    """Each system builds the decider of its denominators once."""

    def test_same_decider_per_system(self):
        c = corpus.cat("E7bD")
        rs = complete(c, DEFAULT_LIMITS)
        dec = rs.denominators
        assert rs.denominators is dec
        rs_tight = complete(c, ResourceLimits(max_word_len=12))
        tight = rs_tight.denominators
        assert tight is not dec
        assert rs_tight.denominators is tight
        assert tight.materialized == dec.materialized
        # a system of the same presentation keeps its own decider
        assert complete(c, DEFAULT_LIMITS).denominators is not dec

    def test_failed_closure_raises_again(self, monkeypatch):
        # a free monoid: the composites of a never end
        c = with_denominator_a(monoid("a", []))
        rs = complete(c, DEFAULT_LIMITS)
        builds = []
        init = DenomDecider.__init__

        def counted(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(DenomDecider, "__init__", counted)
        for _ in range(2):
            with pytest.raises(LimitExceeded, match="max_word_len"):
                rs.denominators
        assert len(builds) == 2


class TestSystemTables:
    """Each system owns its query tables; nothing outlives it."""

    def test_system_freed_after_queries(self):
        # a presentation no other test completes, so no equal system is
        # held anywhere else
        p = load_cat("parallel pair", corpus.cat_data(
            ["p", "q"], [("s", "p", "q"), ("t", "p", "q")], [("s", "t")]))
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
        p = corpus.cat("E7bD")
        # seven morphisms leave tl, so a bound of two cannot enumerate them
        tight = complete(p, ResourceLimits(max_homset=2))
        for _ in range(2):
            with pytest.raises(LimitExceeded):
                homset(tight, "tl", "bl")
        rs = complete(p, DEFAULT_LIMITS)
        words = homset(rs, "tl", "bl")
        assert words == homset(complete(p, DEFAULT_LIMITS), "tl", "bl")
        assert rewrite.words(rs, "tl", "bl") is rewrite.words(rs, "tl", "bl")
        # the same rules, but each system answers under its own limits
        assert tight.rules == rs.rules and summary(tight) != summary(rs)
        assert summary(complete(p, DEFAULT_LIMITS)) == summary(rs)
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
        rs = complete(c, self.BOUND)
        assert localise(rs).rs.limits == rs.limits == self.BOUND

    def test_replacement_category_inherits(self):
        f = corpus.fun("E7")
        s = prepare(f, self.BOUND)
        assert s.rc.rs.limits == s.rs_tgt.limits == self.BOUND

    def test_inverse_search_under_the_system_limits(self):
        # hom(•, •) of E5 is {1, d}: a bound of one cannot enumerate it
        p = corpus.cat("E5")
        d = p.word(["d"])
        with pytest.raises(LimitExceeded, match="max_homset"):
            find_inverse(complete(p, ResourceLimits(max_homset=1)), d)
        assert find_inverse(complete(p), d) == d
