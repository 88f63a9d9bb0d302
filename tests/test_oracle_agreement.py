"""Cross-checks against the brute-force congruence oracle.

Two independent directions, both over every corpus category:

* engine agreement — same presentation, different algorithms: the rewrite
  engine's equality partition must match the oracle's congruence classes;
* construction agreement — different presentations of the localisation:
  the oracle builds its own (inverse generator per denominator class) and
  per-hom-set class counts must match the package's normal-form counts.
"""

import time

import corpus
import oracle as orc_mod
from loccat import PathWord, homset, normalize

MARGIN = orc_mod.DEFAULT_MAX_LEN // 2


def oracle_from_presentation(p, max_len=orc_mod.DEFAULT_MAX_LEN):
    return orc_mod.Oracle(
        p.objects,
        [(g.name, g.src, g.dst) for g in p.generators],
        [(p.decode(lhs).letters, p.decode(rhs).letters) for lhs, rhs in p.relations],
        max_len)


def assert_engine_agreement(p, rs, max_len=orc_mod.DEFAULT_MAX_LEN):
    """The engine's normal forms on ``rs`` partition the words of ``p`` up
    to ``max_len`` letters as the oracle's classes do."""
    orc = oracle_from_presentation(p, max_len)
    nf_of = {}
    for (src, letters), dst in orc.words.items():
        nf_of[(src, letters)] = normalize(rs, PathWord(src, dst, letters))

    # every oracle merge is a true equality, so the engine must agree on
    # the full universe: one normal form per oracle class
    fibers = {}
    for key in orc.words:
        fibers.setdefault(orc.uf.find(key), set()).add(nf_of[key])
    split = {k: v for k, v in fibers.items() if len(v) > 1}
    assert not split, f"oracle class with several normal forms: {split}"

    # inside the margin the oracle sees every joining derivation for this
    # corpus, so engine-equal words must be oracle-equal as well
    groups = {}
    for key in orc.words:
        if len(key[1]) <= max_len // 2:
            groups.setdefault(nf_of[key], set()).add(orc.uf.find(key))
    unmerged = {k: v for k, v in groups.items() if len(v) > 1}
    assert not unmerged, f"engine-equal words in distinct oracle classes: {unmerged}"


def assert_construction_agreement(name):
    c = corpus.cat(name)
    lc = corpus.lc(name)
    orc_loc = orc_mod.localised_oracle(corpus.cat_path(name))
    for x in c.cat.objects:
        for y in c.cat.objects:
            n_orc = len({orc_loc.uf.find(k)
                         for k, dst in orc_loc.words.items()
                         if k[0] == x and dst == y and len(k[1]) <= MARGIN})
            n_pkg = len([w for w in homset(lc.rs, x, y)
                         if len(w.letters) <= MARGIN])
            assert n_orc == n_pkg, (name, x, y, n_orc, n_pkg)


class TestEngineAgreement:
    def test_base_presentations(self):
        for name in corpus.CAT_NAMES:
            assert_engine_agreement(corpus.cat(name).cat, corpus.rs(name))

    def test_localised_presentations(self):
        for name in corpus.CAT_NAMES:
            lc = corpus.lc(name)
            assert_engine_agreement(lc.presentation, lc.rs)

    def test_replacement_categories(self):
        # rc.rs completes nothing: it lifts the target's normal forms
        for name, max_len in (("E2", 8), ("E7", 8), ("E7b", 8), ("E5", 6)):
            rc = corpus.setting(name).rc
            assert_engine_agreement(rc.cwd.cat, rc.rs, max_len)

    def test_localised_replacement_categories(self):
        for name in ("E2", "E7"):
            s = corpus.setting(name)
            lc_rc, _ = s.rc.localised(s.lc_tgt)
            assert_engine_agreement(lc_rc.presentation, lc_rc.rs)


class TestConstructionAgreement:
    def test_localised_hom_counts_match_oracle(self):
        for name in corpus.CAT_NAMES:
            assert_construction_agreement(name)

    def test_base_hom_counts_match_oracle(self):
        for name in corpus.CAT_NAMES:
            c = corpus.cat(name)
            rs = corpus.rs(name)
            orc = orc_mod.oracle_for(corpus.cat_path(name))
            for x in c.cat.objects:
                for y in c.cat.objects:
                    n_orc = len({orc.uf.find(k)
                                 for k, dst in orc.words.items()
                                 if k[0] == x and dst == y
                                 and len(k[1]) <= MARGIN})
                    n_pkg = len([w for w in homset(rs, x, y)
                                 if len(w.letters) <= MARGIN])
                    assert n_orc == n_pkg, (name, x, y)


class TestBudget:
    def test_whole_corpus_under_ten_seconds(self):
        start = time.monotonic()
        for name in corpus.CAT_NAMES:
            assert_engine_agreement(corpus.cat(name).cat, corpus.rs(name))
            lc = corpus.lc(name)
            assert_engine_agreement(lc.presentation, lc.rs)
            assert_construction_agreement(name)
        assert time.monotonic() - start < 10.0
