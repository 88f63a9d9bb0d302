"""The three workloads, as operations with hand-written known answers.

An operation is one CLI invocation.  Its known answer is the exit code
plus the decided fields of the report (verdict, count, ``ok``, status,
error kind); it is written down here from the README, the acceptance
and module tests, or the mathematics of the family, never captured from
the program's output.  ``undecided`` lists the outcomes that are correct
but not definite: exit 4 under tight limits, or a ``bounded-incomplete``
presentation.  Anything else is a failed operation.

Workloads (sizes fixed; the seed only respells names and shuffles the
order inside a pass, so every run attempts the same commands):

* ``ladder``: ``verify-approximation``, ``check s-equivalence`` and
  ``homset --localised`` on ``L_n`` under the ``large`` profile.  The
  hom-set, normalisation and fill layers carry the time; completion
  does almost nothing.
* ``dihedral``: base completion on ``D_n`` (``homset`` and
  ``check axioms``) and ``localise``.  Completion carries the time;
  the hom-set, fill and verify layers do almost nothing.
* ``corpus``: every command on every fixture at the default limits, the
  same commands under each kind of tight limit with the bound turning
  from command to command, the three known wrong-answer repros, and two presentations whose
  completion does not terminate.  Commands of about 10 ms measure
  per-command cost; the non-converging ones use completion differently
  from ``dihedral``; this is the only workload where wrong answers at
  the limits occur.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import families

UNDECIDED = ((4, {"error.kind": "undecided"}),)
INCOMPLETE = ((0, {"result.status": "bounded-incomplete"}),)


@dataclass(frozen=True)
class Expect:
    """A known answer: the definite outcome and the correct undecided ones."""

    exit: int | None
    fields: dict = field(default_factory=dict)
    undecided: tuple = ()

    def tight(self, localise: bool = False) -> "Expect":
        extra = INCOMPLETE if localise else ()
        return Expect(self.exit, self.fields, self.undecided + UNDECIDED + extra)


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple
    expect: Expect
    env: tuple = ()          # (name, value) pairs set in the child
    digest: bool = False     # stdout checked against bench/digests.json


_MISSING = object()


def _lookup(report: dict, dotted: str):
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def _matches(exit_code, report, outcome) -> bool:
    code, fields = outcome
    return exit_code == code and report is not None and all(
        _lookup(report, k) == v for k, v in fields.items())


def classify(expect: Expect, exit_code, exception, report) -> str:
    """``decided``, ``undecided`` or ``failed: <reason>``."""
    if exception is not None and exception != "SystemExit":
        return f"failed: {exception} escaped cli.main"
    if expect.exit is not None and _matches(exit_code, report,
                                            (expect.exit, expect.fields)):
        return "decided"
    if any(_matches(exit_code, report, o) for o in expect.undecided):
        return "undecided"
    if report is None:
        return f"failed: exit {exit_code}, report unreadable"
    got = {k: _lookup(report, k) for k in expect.fields}
    got = {k: v for k, v in got.items() if v is not _MISSING}
    return f"failed: exit {exit_code} {got or ''}".rstrip()


# ---------------------------------------------------------------- corpus

# Category fixtures: (src, dst) of the hom-set asked for, its size in the
# category and in its localisation, then multiplicative, isosaturated.
# Sizes: tests/test_rewrite.py and tests/test_gz.py (frozen from the
# brute-force oracle) where they cover the pair, otherwise counted by
# hand (paths in a free category; E7D/E7bD are equivalent to one arrow
# once the verticals are inverted; E4's Z is isolated).  Verdicts:
# tests/test_axioms.py (only E6, lacking identity denominators, fails).
CATEGORIES = {
    "terminal": ("•", "•", 1, 1, True, True),
    "E1": ("a", "c", 1, 1, True, True),
    "E1sub": ("a", "b", 1, 1, True, True),
    "E2": ("a", "b", 1, 1, True, True),
    "E3C": ("X0", "X1", 2, 2, True, True),
    "E3D": ("Y0", "Y1", 1, 1, True, True),
    "E4": ("Y", "Z", 0, 0, True, True),
    "E5": ("•", "•", 2, 2, True, True),
    "E6": ("a", "c", 1, 1, False, False),
    "E7C": ("x0", "x1", 1, 1, True, True),
    "E7D": ("tl", "br", 1, 1, True, True),
    "E7bD": ("tl", "z", 1, 1, True, True),
    "E8": ("a", "c", 1, 1, True, True),
}

# Functor fixtures: s-dense, s-full, s-faithful, s-equivalence,
# reflects-denominators, and the verify-approximation outcome (True, or
# the kind of the precondition witness).  Sources: tests/test_equivalence.py
# and test_acceptance.py criteria 05, 07, 09, 10.  By hand: E1 is the
# identity of a free category; E1incl misses object c, which has no
# replacement since only identities are denominators; E5term admits at
# most one fill per 2-arrow (the only candidate is the identity); E6's
# localisation is the indiscrete groupoid on three objects, so every
# 2-arrow has exactly one fill, but object a receives no denominator.
# Every fixture functor reflects denominators: only identities of the
# sources are sent to denominators.  verify-approximation checks, in
# order, multiplicativity, replacements, fullness, faithfulness.
FUNCTORS = {
    "E1": (True, True, True, True, True, True),
    "E1incl": (False, True, True, False, True, "object-without-replacement"),
    "E2": (True, True, True, True, True, True),
    "E3": (True, True, False, False, True, "distinct-fills"),
    "E4": (False, True, True, False, True, "object-without-replacement"),
    "E5": (True, True, True, True, True, True),
    "E5term": (True, False, True, False, True, "no-fill"),
    "E6": (False, True, True, False, True, "identity-not-denominator"),
    "E7": (True, True, True, True, True, True),
    "E7b": (True, True, True, True, True, True),
}

# The three wrong definite answers under tight limits known at the time
# this benchmark was written (ROADMAP item 3).  They stay in every draw.
REPROS = (
    ("check s-full fixtures/E7b.fun.json", "--limits-rules", "4"),
    ("verify-approximation fixtures/E7b.fun.json", "--limits-rules", "1"),
    ("homset fixtures/E7bD.cat.json --src tl --dst z", "--limits-rules", "1"),
)


def _verdict(value: bool) -> Expect:
    return Expect(0 if value else 1, {"result.verdict": value})


def _verify(outcome) -> Expect:
    if outcome is True:
        return Expect(0, {"result.ok": True})
    return Expect(2, {"error.kind": "precondition",
                      "error.witness.kind": outcome})


def fixture_ops() -> list[Op]:
    """Every command on every fixture file, at the default limits."""
    ops = []

    def add(argv, expect):
        ops.append(Op(" ".join(argv), tuple(argv), expect, digest=True))

    for name, (src, dst, base, loc, mult, iso) in CATEGORIES.items():
        path = f"fixtures/{name}.cat.json"
        add(["validate", path], Expect(0, {"result.ok": True}))
        add(["localise", path], Expect(0, {"result.status": "complete"}))
        query = ["--src", src, "--dst", dst]
        add(["homset", path, *query], Expect(0, {"result.count": base}))
        add(["homset", path, *query, "--localised"],
            Expect(0, {"result.count": loc}))
        add(["check", "multiplicative", path], _verdict(mult))
        add(["check", "isosaturated", path], _verdict(iso))
        add(["check", "axioms", path], _verdict(mult and iso))
    for name, answers in FUNCTORS.items():
        path = f"fixtures/{name}.fun.json"
        add(["validate", path], Expect(0, {"result.ok": True}))
        checks = ("s-dense", "s-full", "s-faithful", "s-equivalence",
                  "reflects-denominators")
        for which, value in zip(checks, answers):
            add(["check", which, path], _verdict(value))
        add(["verify-approximation", path], _verify(answers[5]))
    # criterion 08 / tests/test_cli.py: a second valid choice also verifies
    add(["verify-approximation", "fixtures/E7b.fun.json", "--choice",
         "from-file", "fixtures/E7b-alt.choice.json"], _verify(True))
    return ops


def _tighten(op: Op, flags: tuple, env: tuple) -> Op:
    label = " ".join(f"{k}={v}" for k, v in env)
    return Op(" ".join(filter(None, (label, op.id, *flags))), op.argv + flags,
              op.expect.tight(localise=op.argv[0] == "localise"), env=env)


SMALL = (("LOCCAT_LIMITS_PROFILE", "small"),)
# The tight limits, by kind: the small profile, a rule bound of 1-8, a
# hom-set bound of 1-16.
TIGHT_LIMITS = (
    (((), SMALL),),
    tuple(((("--limits-rules", str(r)), ()) for r in range(1, 9))),
    tuple(((("--limits-homset", str(h)), ()) for h in range(1, 17))),
)


def tight_space(base: list[Op]) -> list[Op]:
    """Every command of ``base`` under every tight limit a draw can pick."""
    return [_tighten(op, flags, env) for op in base
            for kind in TIGHT_LIMITS for flags, env in kind]


def tight_ops(base: list[Op]) -> list[Op]:
    """The repros, then every command of ``base`` once under each kind of
    tight limit, the i-th command under the kind's i-th bound (cyclically),
    so every bound is used.  The slice is the same for every seed: each
    run meets the same known wrong answers, and the count of failed
    commands changes only when the program does."""
    by_id = {op.id: op for op in base}
    ops = [_tighten(by_id[head], tuple(flags), ()) for head, *flags in REPROS]
    for i, op in enumerate(base):
        for kind in TIGHT_LIMITS:
            flags, env = kind[i % len(kind)]
            ops.append(_tighten(op, flags, env))
    return ops


def non_converging_ops(work: Path, name: families.Namer) -> list[Op]:
    """Infinite monoids: hom-sets are never enumerable, so exit 4 is the
    only correct hom-set answer.  Relations preserve length, so the only
    isomorphism is the identity: isosaturated, and multiplicative by the
    flags; ``check axioms`` is true if decided."""
    ops = []
    for stem, build in (("braid", families.braid),
                        ("pcomm", families.partially_commutative)):
        spec = families.write_cat(work, stem, build(name))
        cat, o = _rel(spec["cat"]), spec["object"]
        ops.append(Op(f"homset {stem} --src o --dst o",
                      ("homset", cat, "--src", o, "--dst", o),
                      Expect(None, undecided=UNDECIDED)))
        ops.append(Op(f"check axioms {stem}", ("check", "axioms", cat),
                      Expect(0, {"result.verdict": True}, UNDECIDED)))
        ops.append(Op(f"localise {stem}", ("localise", cat),
                      Expect(None, undecided=UNDECIDED + INCOMPLETE)))
    return ops


# ---------------------------------------------------------------- families

LADDER_VERIFY = (8, 12, 16)
LADDER_HOMSET = (8, 12, 16, 20)
DIHEDRAL_HOMSET = (32, 40, 48)
DIHEDRAL_AXIOMS = (32, 40)
DIHEDRAL_LOCALISE = (12, 16)
DIHEDRAL_LOCALISED_HOMSET = (12,)
LARGE = (("LOCCAT_LIMITS_PROFILE", "large"),)


def _rel(path: str) -> str:
    return str(Path(path).relative_to(Path.cwd()))


def ladder_ops(work: Path, name: families.Namer) -> list[Op]:
    """L_n verifies (``ok``), is an S-equivalence (the top row reaches
    every bottom object through its vertical), and the localised hom-set
    t0 -> tn is exactly the top path: any zigzag through the bottom row
    equals it once the verticals are inverted."""
    ops = []
    for n in sorted(set(LADDER_VERIFY) | set(LADDER_HOMSET)):
        lad = families.write_ladder(work, n, name)
        fun, cat = _rel(lad["fun"]), _rel(lad["cat"])
        if n in LADDER_VERIFY:
            ops.append(Op(f"verify-approximation L{n}",
                          ("verify-approximation", fun),
                          Expect(0, {"result.ok": True}), LARGE))
            ops.append(Op(f"check s-equivalence L{n}",
                          ("check", "s-equivalence", fun),
                          _verdict(True), LARGE))
        if n in LADDER_HOMSET:
            ops.append(Op(f"homset --localised L{n} t0 t{n}",
                          ("homset", cat, "--src", lad["first"], "--dst",
                           lad["last"], "--localised"),
                          Expect(0, {"result.count": 1}), LARGE))
    return ops


def dihedral_ops(work: Path, name: families.Namer) -> list[Op]:
    """|D_n| = 2n, base and localised (inverting an element of a group
    changes nothing).  D_n is multiplicative by its flags but not
    isosaturated: b is an isomorphism (b.b = 1) outside the denominators,
    which are the powers of a.  The word bound is raised above n so that
    a^n = 1 itself can be oriented."""
    ops = []
    for n in sorted(set(DIHEDRAL_HOMSET) | set(DIHEDRAL_LOCALISE)
                    | set(DIHEDRAL_LOCALISED_HOMSET)):
        spec = families.write_cat(work, f"D{n}", families.dihedral(n, name))
        cat, o = _rel(spec["cat"]), spec["object"]
        bound = ("--limits-word-len", str(n + 1))
        if n in DIHEDRAL_HOMSET:
            ops.append(Op(f"homset D{n}", ("homset", cat, "--src", o, "--dst", o,
                                          *bound),
                          Expect(0, {"result.count": 2 * n})))
        if n in DIHEDRAL_AXIOMS:
            ops.append(Op(f"check axioms D{n}", ("check", "axioms", cat, *bound),
                          Expect(1, {"result.verdict": False,
                                     "result.details.multiplicative": True,
                                     "result.details.isosaturated": False})))
        if n in DIHEDRAL_LOCALISE:
            ops.append(Op(f"localise D{n}", ("localise", cat, *bound),
                          Expect(0, {"result.status": "complete"})))
        if n in DIHEDRAL_LOCALISED_HOMSET:
            ops.append(Op(f"homset --localised D{n}",
                          ("homset", cat, "--src", o, "--dst", o, "--localised",
                           *bound),
                          Expect(0, {"result.count": 2 * n})))
    return ops


def build(workload: str, work: Path, seed: int) -> list[Op]:
    """The operations of one pass, in a seed-shuffled order."""
    rng = random.Random(seed)
    name = families.Namer(seed)
    if workload == "ladder":
        ops = ladder_ops(work, name)
    elif workload == "dihedral":
        ops = dihedral_ops(work, name)
    elif workload == "corpus":
        base = fixture_ops()
        ops = base + tight_ops(base) + \
            non_converging_ops(work, name)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


WORKLOADS = ("ladder", "dihedral", "corpus")
