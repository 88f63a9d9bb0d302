"""Knuth-Bendix completion and decision procedures on path words.

Words are ordered by shortlex: length first, then letterwise by
generator declaration order.  Completion orients every derived
equation so the larger side rewrites to the smaller one, computes
critical pairs (overlaps and containments of left hand sides) and
interreduces until no pair remains or a resource bound is hit.

On a ``COMPLETE`` system ``normalize`` computes canonical forms, so
word equality, hom-set enumeration and invertibility are decidable.
On a ``BOUNDED_INCOMPLETE`` system equal normal forms still certify
equality, but differing ones are inconclusive and queries raise
:class:`LimitExceeded` instead of guessing.

The kernel rewrites encoded strings, not letter tuples: each generator
is one character, with code points that increase in declaration order,
so ``(len(s), s)`` orders encoded words exactly as shortlex orders their
letters.  Completion runs on encoded words from end to end and decodes
only the final rules.

Completion keeps a lazy pair queue: a critical pair is dropped before
its sides are normalised once one of its two rules has left the system
(interreduction sent the rule back to the queue as an equation).  Only
the critical pairs of rules that stay are needed (Huet, *A complete
proof of correctness of the Knuth-Bendix completion algorithm*, 1981),
so a run that completes yields the same unique reduced system.

Completion and :class:`RewriteSystem` rewrite with one matcher,
:class:`RuleIndex`.  Its strategy is fixed: the leftmost position and,
there, the first rule in list order.  Since completion's path depends
on that strategy, the matcher has two scans that give the same answer:
a first-letter dict with ``str.startswith``, which costs nothing to
build, and one ``re`` alternation of the left sides in list order, which
is fast on long words but costs a compile that grows with the pattern.
A matcher starts with the first and switches to the second once the
letters it has scanned exceed the total length of its left sides, so
the compile is paid only after scanning has cost about as much.

Each :class:`RewriteSystem` keeps the limits it was completed under,
and every query on it reads them: a system answers under one set of
limits, so no caller passes them again.  It owns its matcher and its
normal-form, hom-set and decider tables and frees them with itself;
nothing is cached at module level.  The tables hold only results that
were computed without raising, so a query that exceeds its limits
raises on every call.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass, field

from .presentation import (
    CatPresentation,
    CatWithDenoms,
    LimitExceeded,
    PathWord,
    ValidationError,
)

COMPLETE = "complete"
BOUNDED_INCOMPLETE = "bounded-incomplete"


@dataclass(frozen=True)
class ResourceLimits:
    """Bounds that keep every query a finite computation."""

    max_word_len: int = 16
    max_rules: int = 512
    max_homset: int = 1024


DEFAULT_LIMITS = ResourceLimits()


@dataclass(frozen=True)
class RewriteRule:
    """A length-nonincreasing oriented equation ``lhs -> rhs``."""

    lhs: PathWord
    rhs: PathWord


class RuleIndex:
    """Rewrites encoded words with a list of ``(lhs, rhs)`` rules.

    Keeps the first rule for each left side.  Every step rewrites at
    the leftmost position and, there, with the first rule in list
    order; both scans below implement that one strategy.
    ``normal_form`` uses the scan until the letters it has scanned
    exceed the total length of the left sides, then the regex.
    """

    def __init__(self, rules):
        self._rhs: dict[str, str] = {}
        for lhs, rhs in rules:
            self._rhs.setdefault(lhs, rhs)
        self._by_first: dict[str, list[str]] = {}
        for lhs in self._rhs:
            self._by_first.setdefault(lhs[0], []).append(lhs)
        self._back = max(map(len, self._rhs), default=1) - 1
        self._lhs_letters = sum(map(len, self._rhs))
        self._scanned = 0
        self._regex = None

    def normal_form(self, s: str) -> str:
        if self._regex is None and self._scanned <= self._lhs_letters:
            return self.normal_form_by_scan(s)
        return self.normal_form_by_regex(s)

    # After a rewrite at i the scan resumes at i - (longest lhs - 1): no
    # match started before i, and the letters before i did not change,
    # so a new match must reach into the rewritten part.

    def normal_form_by_scan(self, s: str) -> str:
        by_first, rhs, back = self._by_first, self._rhs, self._back
        i = scanned = 0
        while i < len(s):
            scanned += 1
            for lhs in by_first.get(s[i], ()):
                if s.startswith(lhs, i):
                    s = s[:i] + rhs[lhs] + s[i + len(lhs):]
                    i = max(0, i - back)
                    break
            else:
                i += 1
        self._scanned += scanned
        return s

    def normal_form_by_regex(self, s: str) -> str:
        if not self._rhs:
            return s
        if self._regex is None:
            # re takes the leftmost match and, there, the first alternative
            self._regex = re.compile("|".join(map(re.escape, self._rhs)))
        search, rhs, back = self._regex.search, self._rhs, self._back
        m = search(s)
        while m:
            i = m.start()
            s = s[:i] + rhs[m.group()] + s[m.end():]
            m = search(s, max(0, i - back))
        return s


def _alphabet(p: CatPresentation) -> tuple[dict[str, str], dict[str, str]]:
    """Letter-to-character and character-to-letter tables of ``p``."""
    code = {g.name: chr(0x100 + i) for i, g in enumerate(p.generators)}
    return code, {c: x for x, c in code.items()}


def _encode(code: dict[str, str], letters: tuple[str, ...]) -> str:
    return "".join(map(code.__getitem__, letters))


def _decode(names: dict[str, str], s: str) -> tuple[str, ...]:
    return tuple(map(names.__getitem__, s))


@dataclass(frozen=True)
class RewriteSystem:
    """A completed (or bound-truncated) rewriting system.

    ``limits`` are the bounds :func:`complete` ran under; every query on
    the system, and every system derived from it, uses them.  Besides
    its rules the system carries its encoding, its matcher and the
    tables its queries fill: normal forms by letter tuple, the normal
    forms reachable from each object, the sorted hom-set per object
    pair and the denominator decider per denominator set (see
    :func:`denominators`).  None of the tables takes part in equality,
    hashing or ``repr``.
    """

    presentation: CatPresentation
    rules: tuple[RewriteRule, ...]
    status: str
    limits: ResourceLimits = DEFAULT_LIMITS
    _codec: tuple = field(init=False, repr=False, compare=False)
    _index: RuleIndex = field(init=False, repr=False, compare=False)
    _normal_forms: dict = field(init=False, repr=False, compare=False)
    _reachable: dict = field(init=False, repr=False, compare=False)
    _homsets: dict = field(init=False, repr=False, compare=False)
    _deciders: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        code, names = _alphabet(self.presentation)
        object.__setattr__(self, "_codec", (code, names))
        object.__setattr__(self, "_index", RuleIndex(
            (_encode(code, r.lhs.letters), _encode(code, r.rhs.letters))
            for r in self.rules))
        object.__setattr__(self, "_normal_forms", {})
        object.__setattr__(self, "_reachable", {})
        object.__setattr__(self, "_homsets", {})
        object.__setattr__(self, "_deciders", {})

    @property
    def is_complete(self) -> bool:
        return self.status == COMPLETE


def _normal_letters(rs: RewriteSystem, letters: tuple[str, ...]) -> tuple[str, ...]:
    nf = rs._normal_forms.get(letters)
    if nf is None:
        code, names = rs._codec
        nf = rs._normal_forms[letters] = _decode(
            names, rs._index.normal_form(_encode(code, letters)))
    return nf


def normalize(rs: RewriteSystem, w: PathWord) -> PathWord:
    """Leftmost-innermost normal form of ``w``; canonical iff complete."""
    return PathWord(w.src, w.dst, _normal_letters(rs, w.letters))


def equal(rs: RewriteSystem, w1: PathWord, w2: PathWord) -> bool:
    """Decide ``w1 == w2`` in the presented category.

    Raises :class:`LimitExceeded` when the system is incomplete and the
    normal forms differ, since that outcome is inconclusive.
    """
    if (w1.src, w1.dst) != (w2.src, w2.dst):
        raise ValidationError("equal() needs parallel words")
    same = normalize(rs, w1) == normalize(rs, w2)
    if not same and not rs.is_complete:
        raise LimitExceeded("completion", "normal forms differ on an incomplete system")
    return same


def _critical_pairs(r1: tuple, r2: tuple):
    """Peaks where the left hand sides of ``r1`` and ``r2`` overlap.

    Rules are encoded ``(lhs, rhs, src, dst, id)``.  Yields
    ``(left, right, src, dst)``: the peak runs from ``src`` to ``dst``
    and rewrites to ``left`` via ``r1`` and to ``right`` via ``r2``.
    """
    a, a_rhs, src, dst, _ = r1
    b, b_rhs, _, b_dst, _ = r2
    # nonempty proper suffix of a equals prefix of b: the peak a + b[k:]
    # starts where a starts and ends where b ends
    for k in range(1, min(len(a), len(b))):
        if a.endswith(b[:k]):
            yield a_rhs + b[k:], a[:len(a) - k] + b_rhs, src, b_dst
    # b contained in a: the peak is a
    i = a.find(b)
    while i >= 0:
        yield a_rhs, a[:i] + b_rhs + a[i + len(b):], src, dst
        i = a.find(b, i + 1)


def complete(p: CatPresentation, limits: ResourceLimits = DEFAULT_LIMITS) -> RewriteSystem:
    """Run Knuth-Bendix completion on the relations of ``p``.

    Each rule gets an id when it is added.  A critical pair carries the
    ids of its two rules and is dropped, unnormalised, once either rule
    has left the system.  That is sound: a rule leaves only when a newer
    rule rewrites its left side, its own equation goes back to the
    queue, and only the critical pairs of rules that stay are needed
    (Huet 1981).  For a fixed order the reduced complete system is
    unique, so a run that completes yields the same rules either way;
    a run stopped by ``max_rules`` may stop at another rule set.
    """
    code, names = _alphabet(p)
    counter = itertools.count()
    heap: list = []

    # relations and requeued rules carry rule ids -1 and are never dropped
    def push(u: str, v: str, src: str, dst: str, id1: int = -1, id2: int = -1):
        ku, kv = (len(u), u), (len(v), v)
        heapq.heappush(heap, ((max(ku, kv), min(ku, kv)), next(counter),
                              u, v, src, dst, id1, id2))

    for rel in p.relations:
        push(_encode(code, rel.lhs.letters), _encode(code, rel.rhs.letters),
             rel.lhs.src, rel.lhs.dst)

    # encoded (lhs, rhs, src, dst, id); endpoints carried explicitly since
    # rewriting preserves them
    rules: list[tuple] = []
    rule_ids = itertools.count()
    live: set[int] = set()
    index = RuleIndex(())
    status = COMPLETE

    while heap:
        _, _, u, v, src, dst, id1, id2 = heapq.heappop(heap)
        if id1 >= 0 and (id1 not in live or id2 not in live):
            continue
        u = index.normal_form(u)
        v = index.normal_form(v)
        if u == v:
            continue
        if (len(u), u) < (len(v), v):
            u, v = v, u
        if len(u) > limits.max_word_len:
            status = BOUNDED_INCOMPLETE
            continue
        if len(rules) >= limits.max_rules:
            status = BOUNDED_INCOMPLETE
            break
        new_id = next(rule_ids)
        live.add(new_id)
        new_rule = (u, v, src, dst, new_id)

        # interreduce: rules whose lhs contains u go back to the queue,
        # right hand sides are kept normal (a rule keeps its id, as its
        # lhs is unchanged).  Each one is normal for the rules before u
        # came, so only one that contains u can reduce.
        kept = [new_rule]
        requeued = []
        for old in rules:
            (requeued if u in old[0] else kept).append(old)
        if any(u in rhs for _, rhs, *_ in kept):
            kept_index = RuleIndex((lhs, rhs) for lhs, rhs, *_ in kept)
            rules = [(lhs, kept_index.normal_form(rhs) if u in rhs else rhs,
                      s, d, i) for lhs, rhs, s, d, i in kept]
        else:
            rules = kept
        index = RuleIndex((lhs, rhs) for lhs, rhs, *_ in rules)
        for lhs, rhs, s, d, i in requeued:
            live.remove(i)
            push(lhs, rhs, s, d)

        # every overlap of u with b, and b inside u, contains b's first
        # letter in u; the other way round, u's first letter in b
        for i, other in enumerate(rules):
            b = other[0]
            pairs = _critical_pairs(new_rule, other) if b[0] in u else ()
            if i and u[0] in b:
                pairs = itertools.chain(pairs, _critical_pairs(other, new_rule))
            for left, right, s, d in pairs:
                if left != right:
                    push(left, right, s, d, new_id, other[4])

    rules.sort(key=lambda r: ((len(r[0]), r[0]), (len(r[1]), r[1])))
    return RewriteSystem(presentation=p, status=status, limits=limits, rules=tuple(
        RewriteRule(PathWord(s, d, _decode(names, lhs)), PathWord(s, d, _decode(names, rhs)))
        for lhs, rhs, s, d, _ in rules))


def _reachable_normal_forms(rs: RewriteSystem, x: str) -> frozenset[PathWord]:
    """All normal forms with source ``x``, by breadth-first extension.

    A prefix of an irreducible word is irreducible, so extending known
    normal forms one generator at a time and normalizing reaches every
    normal form out of ``x``.
    """
    found = rs._reachable.get(x)
    if found is not None:
        return found
    p, limits = rs.presentation, rs.limits
    out_gens: dict[str, list] = {}
    for g in p.generators:
        out_gens.setdefault(g.src, []).append(g)
    seen: set[PathWord] = {p.identity(x)}
    frontier: list[PathWord] = [p.identity(x)]
    while frontier:
        nxt: list[PathWord] = []
        for w in frontier:
            for g in out_gens.get(w.dst, ()):
                letters = _normal_letters(rs, w.letters + (g.name,))
                if len(letters) > limits.max_word_len:
                    raise LimitExceeded(
                        "max_word_len",
                        f"normal form out of {x!r} longer than {limits.max_word_len}")
                cand = PathWord(x, g.dst, letters)
                if cand not in seen:
                    seen.add(cand)
                    if len(seen) > limits.max_homset:
                        raise LimitExceeded(
                            "max_homset",
                            f"more than {limits.max_homset} morphisms out of {x!r}")
                    nxt.append(cand)
        frontier = nxt
    found = rs._reachable[x] = frozenset(seen)
    return found


def homset(rs: RewriteSystem, x: str, y: str) -> tuple[PathWord, ...]:
    """All morphisms ``x -> y`` as normal forms, in shortlex order."""
    words = rs._homsets.get((x, y))
    if words is not None:
        return words
    p = rs.presentation
    if x not in p.obj_index or y not in p.obj_index:
        raise ValidationError(f"unknown object in homset query: {x!r}, {y!r}")
    words = rs._homsets[(x, y)] = tuple(sorted(
        (w for w in _reachable_normal_forms(rs, x) if w.dst == y),
        key=p.shortlex_key))
    return words


def find_inverse(rs: RewriteSystem, w: PathWord) -> PathWord | None:
    """Shortlex-least two-sided inverse of ``w``, or None."""
    p = rs.presentation
    for v in homset(rs, w.dst, w.src):
        if (normalize(rs, p.concat(w, v)).is_identity_word
                and normalize(rs, p.concat(v, w)).is_identity_word):
            return v
    return None


class DenomDecider:
    """Decides denominator membership for a category with denominators.

    The explicit words are normalized, identities are added when the
    flag says so, and the composition flag saturates the set under
    binary composition up to the resource bounds.  Membership of an
    arbitrary word is then a normal form lookup.  :func:`denominators`
    builds one per system and keeps it.
    """

    def __init__(self, c: CatWithDenoms, rs: RewriteSystem):
        self.cwd = c
        self.rs = rs
        limits = rs.limits
        closure: set[PathWord] = set()
        for w in c.denoms.explicit:
            closure.add(normalize(rs, w))
        if c.denoms.include_identities:
            for x in c.cat.objects:
                closure.add(c.cat.identity(x))
        if c.denoms.close_under_composition:
            frontier = set(closure)
            while frontier:
                fresh: set[PathWord] = set()
                for u in frontier:
                    for v in closure:
                        for a, b in ((u, v), (v, u)):
                            if a.dst != b.src:
                                continue
                            comp = normalize(rs, c.cat.concat(a, b))
                            if len(comp.letters) > limits.max_word_len:
                                raise LimitExceeded(
                                    "max_word_len",
                                    "denominator closure produced a word over the bound")
                            if comp not in closure and comp not in fresh:
                                fresh.add(comp)
                if len(closure) + len(fresh) > limits.max_homset:
                    raise LimitExceeded(
                        "max_homset", "denominator closure larger than the bound")
                closure |= fresh
                frontier = fresh
        self._closure = frozenset(closure)
        self._between: dict[tuple[str, str], tuple[PathWord, ...]] = {}

    def is_denominator(self, w: PathWord) -> bool:
        return normalize(self.rs, w) in self._closure

    @property
    def materialized(self) -> tuple[PathWord, ...]:
        """The denominator normal forms, globally sorted."""
        return tuple(sorted(self._closure, key=self.cwd.cat.word_sort_key))

    def denominators_between(self, x: str, y: str) -> tuple[PathWord, ...]:
        """Denominators ``x -> y`` among the enumerated hom-set."""
        between = self._between.get((x, y))
        if between is None:
            between = self._between[(x, y)] = tuple(
                w for w in homset(self.rs, x, y)
                if self.is_denominator(w))
        return between


def denominators(c: CatWithDenoms, rs: RewriteSystem) -> DenomDecider:
    """The decider for the denominators of ``c``, built once per system.

    ``rs`` is the system of ``c.cat``; it keeps the decider per
    ``c.denoms``.  A closure that exceeded ``rs.limits`` is not stored,
    so it raises again on the next call.
    """
    dec = rs._deciders.get(c.denoms)
    if dec is None:
        dec = rs._deciders[c.denoms] = DenomDecider(c, rs)
    return dec
