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

Hom-sets are listed without rewriting.  A prefix of an irreducible word
is irreducible (Book and Otto, *String-Rewriting Systems*, 1993), so one
search per source object lists its normal forms by length, each an
extension ``w·g`` of a shorter one that no left side is a suffix of.

Completion keeps a lazy pair queue: a critical pair is dropped before
its sides are normalised once one of its two rules has left the system
(interreduction sent the rule back to the queue as an equation).  Only
the critical pairs of rules that stay are needed (Huet, *A complete
proof of correctness of the Knuth-Bendix completion algorithm*, 1981),
so a run that completes yields the same unique reduced system.  Each
time the queue has doubled since it was last swept, the pairs of rules
that have left are swept out of it, so it holds about the live pairs.

Completion and :class:`RewriteSystem` rewrite with one matcher,
:class:`RuleIndex`.  Its strategy is fixed: the leftmost position and,
there, the first rule in list order.  Since completion's path depends
on that strategy, the matcher has two scans that give the same answer:
a first-letter dict with ``str.startswith``, which costs nothing to
build, and one ``re`` pattern built from the same dict, which is fast on
long words but costs a compile that grows with the pattern.  The
pattern has one group per first letter, ``a(?:b|a{3})``, holding the
tails of that letter's left sides in list order: at each position the
engine enters only the group of the letter there.  In a tail a run of
three or more equal letters is one counted repeat (``a{25}``), which
shortens the pattern and its compile, and each tail is built once.  A
matcher starts with the first scan and switches to the second once the
candidate left sides it has compared exceed their total length, so the
compile is paid only after scanning has cost about as much.
Completion keeps one matcher for the whole run and changes it in place
as rules come, go and have their right sides reduced (Sims,
*Computation with Finitely Presented Groups*, 1994); a change of the
left sides drops the compiled pattern and starts the count again.

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

    Keeps the first rule for each left side, in the order added.  Every
    step rewrites at the leftmost position and, there, with the first
    rule in list order; both scans below implement that one strategy.
    :meth:`add`, :meth:`remove` and :meth:`set_rhs` change the rules in
    place, so completion keeps one index for a whole run.
    ``normal_form`` uses the scan until the candidate left sides it has
    compared since the left sides last changed exceed their total
    length, then the regex, compiled once per set of left sides from
    the first-letter table the scan uses: one group per first letter,
    with the tails of its left sides in list order.  Each tail pattern
    is built the first time a compile needs it and kept until its rule
    is removed.
    """

    def __init__(self, rules=()):
        self._rhs: dict[str, str] = {}
        self._tails: dict[str, str] = {}
        self._by_first: dict[str, list[str]] = {}
        self._back = 0
        self._lhs_letters = 0
        self._compared = 0
        self._regex = None
        for lhs, rhs in rules:
            self.add(lhs, rhs)

    def add(self, lhs: str, rhs: str):
        """Append ``lhs -> rhs`` unless a rule for ``lhs`` is already here."""
        if lhs not in self._rhs:
            self._rhs[lhs] = rhs
            self._by_first.setdefault(lhs[0], []).append(lhs)
            self._back = max(self._back, len(lhs) - 1)
            self._lhs_changed(len(lhs))

    def remove(self, lhs: str):
        """Drop the rule for ``lhs``, which must be here."""
        del self._rhs[lhs]
        self._tails.pop(lhs, None)
        first = self._by_first[lhs[0]]
        first.remove(lhs)
        if not first:
            del self._by_first[lhs[0]]
        if len(lhs) - 1 == self._back:
            self._back = max(map(len, self._rhs), default=1) - 1
        self._lhs_changed(-len(lhs))

    def set_rhs(self, lhs: str, rhs: str):
        """Rewrite ``lhs`` to ``rhs`` from now on; its place in the list
        and the compiled regex, which matches left sides only, stay."""
        self._rhs[lhs] = rhs

    def _lhs_changed(self, letters: int):
        self._lhs_letters += letters
        self._compared = 0
        self._regex = None

    def normal_form(self, s: str) -> str:
        if self._regex is None and self._compared <= self._lhs_letters:
            return self.normal_form_by_scan(s)
        return self.normal_form_by_regex(s)

    # After a rewrite at i the scan resumes at i - (longest lhs - 1): no
    # match started before i, and the letters before i did not change,
    # so a new match must reach into the rewritten part.

    def normal_form_by_scan(self, s: str) -> str:
        by_first, rhs, back = self._by_first, self._rhs, self._back
        i = compared = 0
        while i < len(s):
            candidates = by_first.get(s[i], ())
            compared += len(candidates)
            for lhs in candidates:
                if s.startswith(lhs, i):
                    s = s[:i] + rhs[lhs] + s[i + len(lhs):]
                    i = i - back if i > back else 0
                    break
            else:
                i += 1
        self._compared += compared
        return s

    def normal_form_by_regex(self, s: str) -> str:
        if not self._rhs:
            return s
        if self._regex is None:
            self._regex = re.compile(self._pattern())
        search, rhs, back = self._regex.search, self._rhs, self._back
        m = search(s)
        while m:
            i, j = m.span()
            s = s[:i] + rhs[m.group()] + s[j:]
            m = search(s, i - back if i > back else 0)
        return s

    def _pattern(self) -> str:
        # one group per first letter, its tails in list order: re takes
        # the leftmost match and, there, the first alternative that
        # matches, and at a position only the group of its letter can
        tails = self._tails
        for lhs in self._rhs:
            if lhs not in tails:
                tails[lhs] = _literal_pattern(lhs[1:])
        return "|".join(
            re.escape(c) + "(?:" + "|".join(map(tails.__getitem__, group)) + ")"
            for c, group in self._by_first.items())


def _literal_pattern(word: str) -> str:
    """A regex that matches ``word`` and nothing else.

    A run of three or more equal letters is one counted repeat, so
    ``a^25`` is ``a{25}``: shorter patterns compile faster.
    """
    parts = []
    for letter, run in itertools.groupby(word):
        n = sum(1 for _ in run)
        letter = re.escape(letter)
        parts.append(f"{letter}{{{n}}}" if n >= 3 else letter * n)
    return "".join(parts)


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
    tables its queries fill: normal forms by letter tuple, the non-empty
    hom-sets out of each object by target (the one hom-set table) and
    the denominator decider per denominator set (see
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
    _deciders: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        code, names = _alphabet(self.presentation)
        object.__setattr__(self, "_codec", (code, names))
        object.__setattr__(self, "_index", RuleIndex(
            (_encode(code, r.lhs.letters), _encode(code, r.rhs.letters))
            for r in self.rules))
        object.__setattr__(self, "_normal_forms", {})
        object.__setattr__(self, "_reachable", {})
        object.__setattr__(self, "_deciders", {})

    @property
    def is_complete(self) -> bool:
        return self.status == COMPLETE


def normalize(rs: RewriteSystem, w: PathWord) -> PathWord:
    """Leftmost-innermost normal form of ``w``; canonical iff complete."""
    nf = rs._normal_forms.get(w.letters)
    if nf is None:
        code, names = rs._codec
        nf = rs._normal_forms[w.letters] = _decode(
            names, rs._index.normal_form(_encode(code, w.letters)))
    return PathWord(w.src, w.dst, nf)


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
    # nonempty proper suffix a[j:] of a equals prefix of b: the peak
    # a + b[len(a) - j:] starts where a starts and ends where b ends.
    # Each such suffix starts with b[0]; from the right, so the shortest
    # overlap comes first.
    lo = max(1, len(a) - len(b) + 1)
    j = a.rfind(b[0], lo)
    while j >= 0:
        if b.startswith(a[j:]):
            yield a_rhs + b[len(a) - j:], a[:j] + b_rhs, src, b_dst
        j = a.rfind(b[0], lo, j)
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
    # ``rules`` as one matcher, kept current in place; no left side
    # contains another, so at most one matches at a position and the
    # order of the index need not follow ``rules``
    index = RuleIndex()
    swept = len(heap)
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
        # came, so only one that contains u can reduce.  All of them are
        # reduced before the index takes any new right side.
        kept = [new_rule]
        requeued = []
        for old in rules:
            (requeued if u in old[0] else kept).append(old)
        for lhs, *_ in requeued:
            index.remove(lhs)
        index.add(u, v)
        reduced = {lhs: index.normal_form(rhs) for lhs, rhs, *_ in kept if u in rhs}
        for lhs, rhs in reduced.items():
            index.set_rhs(lhs, rhs)
        rules = [(lhs, reduced.get(lhs, rhs), s, d, i) for lhs, rhs, s, d, i in kept]
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

        # a pair whose rule has left stays dead, and (priority, counter)
        # orders the entries totally, so dropping the dead ones each time
        # the heap has doubled leaves every pop unchanged
        if len(heap) > 2 * swept:
            heap[:] = [e for e in heap if e[6] < 0 or (e[6] in live and e[7] in live)]
            heapq.heapify(heap)
            swept = len(heap)

    rules.sort(key=lambda r: ((len(r[0]), r[0]), (len(r[1]), r[1])))
    return RewriteSystem(presentation=p, status=status, limits=limits, rules=tuple(
        RewriteRule(PathWord(s, d, _decode(names, lhs)), PathWord(s, d, _decode(names, rhs)))
        for lhs, rhs, s, d, _ in rules))


def _reachable_normal_forms(rs: RewriteSystem, x: str) -> dict[str, tuple[PathWord, ...]]:
    """List the normal forms out of ``x`` (see the module docstring): store
    and return the non-empty hom-sets by target, in object order, in
    ``rs._reachable[x]``.  Each word extends one shorter word, by
    generators in declaration order, so each length comes out in
    shortlex order."""
    p, limits, lhs = rs.presentation, rs.limits, rs._index._rhs
    code, lengths = rs._codec[0], sorted(set(map(len, lhs)))
    by_dst = {x: [p.identity(x)]}
    level, count = [("", by_dst[x][0])], 1
    while level:
        nxt = []
        for s, w in level:
            for g in p.out_gens.get(w.dst, ()):
                t = s + code[g.name]
                # s is irreducible, so only a suffix of t can be a left side
                if any(t[-k:] in lhs for k in lengths):
                    continue
                if len(t) > limits.max_word_len:
                    raise LimitExceeded(
                        "max_word_len",
                        f"normal form out of {x!r} longer than {limits.max_word_len}")
                count += 1
                if count > limits.max_homset:
                    raise LimitExceeded(
                        "max_homset",
                        f"more than {limits.max_homset} morphisms out of {x!r}")
                v = PathWord(x, g.dst, w.letters + (g.name,))
                by_dst.setdefault(g.dst, []).append(v)
                nxt.append((t, v))
        level = nxt
    found = rs._reachable[x] = {y: tuple(by_dst[y]) for y in p.objects if y in by_dst}
    return found


def homsets_from(rs: RewriteSystem, x: str) -> dict[str, tuple[PathWord, ...]]:
    """The non-empty hom-sets out of ``x``, by target in object order."""
    found = rs._reachable.get(x)
    return found if found is not None else _reachable_normal_forms(rs, x)


def homset(rs: RewriteSystem, x: str, y: str) -> tuple[PathWord, ...]:
    """All morphisms ``x -> y`` as normal forms, in shortlex order."""
    found = rs._reachable.get(x)
    if found is None or y not in found:
        p = rs.presentation
        if x not in p.obj_index or y not in p.obj_index:
            raise ValidationError(f"unknown object in homset query: {x!r}, {y!r}")
        found = homsets_from(rs, x)
    return found.get(y, ())


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
