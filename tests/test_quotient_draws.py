"""Tight answers equal generous ones on small drawn presentations.

A draw is a quotient functor ``F: C -> D``: C has one or two objects,
two or three generators with drawn endpoints and up to two relations
between drawn typed walks; each endo generator is an involution or an
idempotent with probability 0.8, and two endo generators on one object
commute with probability 0.7.  D is C with up to two more relations,
and F is the identity on objects and generators.  C's denominators are
each generator with probability 0.4, D's are those plus each other
generator with probability 0.3, both closed under identities and
composition.

Under the generous limits (words of 8 letters, 64 rules, 128
morphisms) completion decides most draws.  Where it completes, the
S-full, S-faithful and S-equivalence verdicts under a rule bound of 0
to 4 must be the same, or the tight run raises :class:`LimitExceeded`,
and so must, on every system :func:`~loccat.rewrite.present` builds,
the base's and its localisation's, the hom-sets, and on the base the
inverse of each generator and the denominator membership of each
listed word.  Every such system must be complete.  A
:class:`ConstructionError` fails the property.  The generous counts are
cross-checked with the brute-force oracle of ``tests/oracle.py``.

The CLI leg writes each draw's C, D and F to files and runs every
command on them through :func:`loccat.cli.main`, under the generous
limits and under a rule bound of 0, 2 and 4: no exception may escape,
exit 1 must come with a false verdict or ``ok``, exit 2 only from
``verify-approximation`` with a failed precondition, and a tight report
must equal the generous one, apart from the limits it echoes, unless
the command exits 4.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import corpus
import oracle
from loccat import (FunctorData, LimitExceeded, ResourceLimits, check_s_equivalence,
                    check_s_faithful, check_s_full, cli, complete, load_cat, localise,
                    prepare, present)
from loccat.rewrite import inverse, words

GENEROUS = ResourceLimits(max_word_len=8, max_rules=64, max_homset=128)
TIGHT = [GENEROUS._replace(max_rules=r) for r in range(5)]
CHECKS = (check_s_full, check_s_faithful, check_s_equivalence)


def limit_flags(limits: ResourceLimits) -> tuple[str, ...]:
    return ("--limits-word-len", str(limits.max_word_len), "--limits-rules",
            str(limits.max_rules), "--limits-homset", str(limits.max_homset))


CLI_TIGHT = [limit_flags(TIGHT[r]) for r in (0, 2, 4)]


def _walks(gens, src, most):
    """Every typed walk out of ``src`` of at most ``most`` letters, with
    its end, shortest first."""
    level, found = [((), src)], [((), src)]
    for _ in range(most):
        level = [(w + (name,), d) for w, at in level for name, s, d in gens if s == at]
        found += level
    return found


@st.composite
def relation(draw, objects, gens):
    src = draw(st.sampled_from(objects))
    lhs = [(w, d) for w, d in _walks(gens, src, 3) if w]
    if not lhs:
        return None
    left, dst = draw(st.sampled_from(lhs))
    right = [w for w, d in _walks(gens, src, 3) if d == dst and w != left]
    return (left, draw(st.sampled_from(right))) if right else None


def _chance(draw, tenths: int) -> bool:
    return draw(st.integers(0, 9)) < tenths


@st.composite
def quotient_draw(draw):
    objects = [f"o{i}" for i in range(draw(st.integers(1, 2)))]
    gens = [(f"g{i}", draw(st.sampled_from(objects)), draw(st.sampled_from(objects)))
            for i in range(draw(st.integers(2, 3)))]
    rels = [r for r in (draw(relation(objects, gens)) for _ in range(draw(st.integers(0, 2))))
            if r is not None]
    endo = [(g, s) for g, s, d in gens if s == d]
    for g, _ in endo:
        if _chance(draw, 8):
            rels.append(((g, g), () if draw(st.booleans()) else (g,)))
    for i, (g, s) in enumerate(endo):
        for h, t in endo[i + 1:]:
            if s == t and _chance(draw, 7):
                rels.append(((g, h), (h, g)))
    more = [r for r in (draw(relation(objects, gens)) for _ in range(draw(st.integers(0, 2))))
            if r is not None]
    c_denoms = [g for g, _, _ in gens if _chance(draw, 4)]
    d_denoms = c_denoms + [g for g, _, _ in gens if g not in c_denoms and _chance(draw, 3)]
    return {"objects": objects, "gens": gens, "c": rels, "d": rels + more,
            "c_denoms": c_denoms, "d_denoms": d_denoms}


def functor(spec) -> FunctorData:
    c, d = (load_cat(side, corpus.cat_data(spec["objects"], spec["gens"], spec[side],
                                           spec[f"{side}_denoms"]))
            for side in ("c", "d"))
    code = d.codec[0]
    return FunctorData(c, d, {x: x for x in spec["objects"]},
                       {g: (s, t, code[g]) for g, s, t in spec["gens"]})


def listing(rs):
    """Each hom-set's words, or None where listing it raises."""
    found = {}
    for x in rs.presentation.objects:
        for y in rs.presentation.objects:
            try:
                found[x, y] = words(rs, x, y)
            except LimitExceeded:
                found[x, y] = None
    return found


def answer(query, *args):
    """``query(*args)`` in a one-tuple, or None where it raises
    :class:`LimitExceeded`."""
    try:
        return (query(*args),)
    except LimitExceeded:
        return None


def is_denominator(rs, word) -> bool:
    return rs.denominators.is_denominator(rs.decode(word))


def inverses_and_denominators(rs, listed):
    """The inverse of each generator, then the denominator membership of
    each word ``listed`` by hom-set, each as :func:`answer` gives it."""
    return ([answer(inverse, rs, w) for w in rs.presentation.arrows.values()]
            + [answer(is_denominator, rs, (x, y, s))
               for (x, y), ws in listed.items() for s in ws or ()])


def verdicts(f, limits):
    """Each check's verdict, or None where it is undecided."""
    try:
        setting = prepare(f, limits)
    except LimitExceeded:
        return [None] * len(CHECKS)
    out = []
    for check in CHECKS:
        try:
            out.append(check(setting).verdict)
        except LimitExceeded:
            out.append(None)
    return out


def assert_oracle_counts(p, rs, found):
    """Each class of the brute-force oracle (words of at most six letters)
    has one normal form in ``rs``, and each listed hom-set's words are
    the normal forms its oracle classes reach: so the oracle counts at
    least as many classes as are listed, and as many where it has joined
    every word with its normal form."""
    orc = oracle.Oracle(p.objects, [(g.name, g.src, g.dst) for g in p.generators],
                        [(p.decode(lhs).letters, p.decode(rhs).letters)
                         for lhs, rhs in p.relations], max_len=6)
    code = p.codec[0]
    nf_of = {}
    for (x, letters), y in orc.words.items():
        nf = rs.index["".join(map(code.__getitem__, letters))]
        assert nf_of.setdefault(orc.uf.find((x, letters)), nf) == nf, (x, letters)
    reached = {}
    for (x, letters), y in orc.words.items():
        reached.setdefault((x, y), set()).add(nf_of[orc.uf.find((x, letters))])
    for (x, y), listed in found.items():
        if listed is not None and all(len(w) <= 6 for w in listed):
            assert reached.get((x, y), set()) == set(listed), (x, y)


def agree(want, got):
    """``got`` answers where ``want`` does, with the same answers, or is
    undecided."""
    return all(g is None or (w is not None and g == w)
               for w, g in zip(want, got, strict=True))


# completion under max_rules 3 raised ConstructionError here, and under 4
# answered s-faithful and s-equivalence false; all three hold
TWO_OBJECTS = {
    "objects": ["o0", "o1"], "gens": [("g0", "o1", "o0"), ("g1", "o0", "o1")],
    "c": [(("g0", "g1", "g0"), ("g0",)), (("g1",), ("g1", "g0", "g1"))],
    "d": [(("g0", "g1", "g0"), ("g0",)), (("g1",), ("g1", "g0", "g1")),
          (("g1", "g0"), ()), (("g0", "g1"), ())],
    "c_denoms": ["g1"], "d_denoms": ["g1", "g0"]}

# g0 = 1 on o1 and a free loop on o0, whose enumeration does not close:
# under max_rules 1 the truncated completion listed 1 and g0 as o1 -> o1
CLOSED_BESIDE_OPEN = {
    "objects": ["o0", "o1"], "gens": [("g0", "o1", "o1"), ("g1", "o0", "o0")],
    "c": [(("g0",), ("g0", "g0")), (("g0", "g0"), ())],
    "d": [(("g0",), ("g0", "g0")), (("g0", "g0"), ())],
    "c_denoms": [], "d_denoms": []}


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(quotient_draw())
@example(TWO_OBJECTS)
@example(CLOSED_BESIDE_OPEN)
def test_tight_answers_equal_generous_ones(spec):
    f = functor(spec)
    systems = []
    for p in (f.source, f.target):
        rs = complete(p, GENEROUS)
        try:
            lc = localise(rs)
        except LimitExceeded:
            return
        if not (rs.is_complete and lc.rs.is_complete):
            return
        systems.append((p, rs, lc))
    for p, rs, lc in systems:
        want, want_lc = listing(rs), listing(lc.rs)
        want_more = inverses_and_denominators(rs, want)
        assert_oracle_counts(p, rs, want)
        for limits in TIGHT:
            tight = present(p, limits)
            assert tight.is_complete, limits
            assert agree(want.values(), listing(tight).values()), limits
            assert agree(want_more, inverses_and_denominators(tight, want)), limits
            try:
                tight_lc = localise(tight).rs
            except LimitExceeded:
                continue
            assert tight_lc.is_complete, limits
            assert agree(want_lc.values(), listing(tight_lc).values()), limits
    want = verdicts(f, GENEROUS)
    for limits in TIGHT:
        assert agree(want, verdicts(f, limits)), limits


def test_two_objects_hold_under_generous_limits():
    assert verdicts(functor(TWO_OBJECTS), GENEROUS) == [True, True, True]


def write_draw(spec, directory: str) -> tuple[str, tuple[str, ...]]:
    """Write C, D and F to ``directory``; the functor's path and both
    categories' paths."""
    sides = [corpus.cat_data(spec["objects"], spec["gens"], spec[side], spec[f"{side}_denoms"])
             for side in ("c", "d")]
    fun = corpus._write(Path(directory), "q", *sides,
                        {"object_map": {x: x for x in spec["objects"]},
                         "generator_map": {g: [g] for g, _, _ in spec["gens"]}})
    return fun, tuple(str(Path(directory) / f"q{side}.cat.json") for side in "CD")


def cli_commands(spec, directory: str):
    """Every command on the draw's files: the three functor checks,
    ``verify-approximation``, and on C and D ``localise`` and each
    hom-set, base and localised."""
    fun, cats = write_draw(spec, directory)
    objects = spec["objects"]
    yield from (("check", which, fun) for which in ("s-full", "s-faithful", "s-equivalence"))
    yield "verify-approximation", fun
    for cat in cats:
        yield "localise", cat
        for x in objects:
            for y in objects:
                yield "homset", cat, "--src", x, "--dst", y
                yield "homset", cat, "--src", x, "--dst", y, "--localised"


def cli_outcome(argv) -> tuple[int, dict]:
    """The exit code of ``cli.main(argv)`` and its report without the
    limits it echoes, or the completion run that ``localise`` describes;
    exit 1 must mean a property fails, and exit 2 a failed precondition
    of ``verify-approximation``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    report = json.loads(out.getvalue())
    report.pop("limits")
    result = report.get("result", {})
    result.pop("bounds_used", None)
    assert code in (0, 1, 2, 4), (argv, report)
    if code == 1:
        assert result.get("verdict", result.get("ok")) is False, (argv, report)
    if code == 2:
        assert argv[0] == "verify-approximation", (argv, report)
        assert report["error"]["kind"] == "precondition", (argv, report)
    if argv[0] == "localise" and code == 0:
        del result["rules"], result["status"]
    return code, report


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(quotient_draw())
@example(TWO_OBJECTS)
@example(CLOSED_BESIDE_OPEN)
def test_cli_tight_reports_equal_generous_ones(spec):
    with tempfile.TemporaryDirectory() as directory:
        for argv in cli_commands(spec, directory):
            want = cli_outcome(argv + limit_flags(GENEROUS))
            for flags in CLI_TIGHT:
                got = cli_outcome(argv + flags)
                assert got[0] == 4 or got == want, (argv, flags, got, want)
