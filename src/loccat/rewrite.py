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

Each :class:`RewriteSystem` owns its rule index, hom-set and normal-form
tables and frees them with itself; nothing is cached at module level.
The tables hold only results that were computed without raising, so a
query that exceeds its limits raises on every call.
"""

from __future__ import annotations

import heapq
import itertools
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


@dataclass(frozen=True)
class RewriteSystem:
    """A completed (or bound-truncated) rewriting system.

    Besides its rules the system carries the tables its queries fill:
    the rules indexed by first letter, normal forms by letter tuple
    (they depend on the letters only), the normal forms reachable from
    an object per ``(x, limits)`` and the sorted hom-sets per
    ``(x, y, limits)``.  The tables take no part in equality, hashing or
    ``repr``.
    """

    presentation: CatPresentation
    rules: tuple[RewriteRule, ...]
    status: str
    _rules_by_first: dict = field(init=False, repr=False, compare=False)
    _normal_forms: dict = field(init=False, repr=False, compare=False)
    _reachable: dict = field(init=False, repr=False, compare=False)
    _homsets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rules_by_first", _index_rules(self.rules))
        object.__setattr__(self, "_normal_forms", {})
        object.__setattr__(self, "_reachable", {})
        object.__setattr__(self, "_homsets", {})

    @property
    def is_complete(self) -> bool:
        return self.status == COMPLETE


def _reduce_once(rules_by_first: dict, letters: list[str]) -> bool:
    # leftmost position, first matching rule in list order
    n = len(letters)
    for i in range(n):
        for rule in rules_by_first.get(letters[i], ()):
            pat = rule.lhs.letters
            k = len(pat)
            if i + k <= n and tuple(letters[i:i + k]) == pat:
                letters[i:i + k] = rule.rhs.letters
                return True
    return False


def _index_rules(rules) -> dict:
    by_first: dict[str, list[RewriteRule]] = {}
    for r in rules:
        by_first.setdefault(r.lhs.letters[0], []).append(r)
    return by_first


def _normalize_letters(rules_by_first: dict, letters: tuple[str, ...]) -> tuple[str, ...]:
    buf = list(letters)
    while _reduce_once(rules_by_first, buf):
        pass
    return tuple(buf)


def _normal_letters(rs: RewriteSystem, letters: tuple[str, ...]) -> tuple[str, ...]:
    nf = rs._normal_forms.get(letters)
    if nf is None:
        nf = rs._normal_forms[letters] = _normalize_letters(rs._rules_by_first, letters)
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


def _critical_pairs(r1: RewriteRule, r2: RewriteRule):
    """Peaks where the left hand sides of ``r1`` and ``r2`` overlap.

    Yields ``(peak, left, right)`` letter tuples: ``peak`` rewrites to
    ``left`` via ``r1`` and to ``right`` via ``r2``.
    """
    a, b = r1.lhs.letters, r2.lhs.letters
    # nonempty proper suffix of a equals prefix of b
    for k in range(1, min(len(a), len(b))):
        if a[len(a) - k:] == b[:k]:
            peak = a + b[k:]
            yield peak, r1.rhs.letters + b[k:], a[:len(a) - k] + r2.rhs.letters
    # b contained in a
    for i in range(len(a) - len(b) + 1):
        if a[i:i + len(b)] == b:
            yield a, r1.rhs.letters, a[:i] + r2.rhs.letters + a[i + len(b):]


def complete(p: CatPresentation, limits: ResourceLimits = DEFAULT_LIMITS) -> RewriteSystem:
    """Run Knuth-Bendix completion on the relations of ``p``."""

    def key(letters: tuple[str, ...]) -> tuple:
        return (len(letters), tuple(p.gen_index[x] for x in letters))

    counter = itertools.count()
    heap: list = []

    def push(u: tuple, v: tuple, src: str, dst: str):
        ku, kv = key(u), key(v)
        prio = (max(ku, kv), min(ku, kv))
        heapq.heappush(heap, (prio, next(counter), u, v, src, dst))

    for rel in p.relations:
        push(rel.lhs.letters, rel.rhs.letters, rel.lhs.src, rel.lhs.dst)

    rules: list[RewriteRule] = []
    status = COMPLETE

    while heap:
        _, _, u, v, src, dst = heapq.heappop(heap)
        by_first = _index_rules(rules)
        u = _normalize_letters(by_first, u)
        v = _normalize_letters(by_first, v)
        if u == v:
            continue
        if key(u) < key(v):
            u, v = v, u
        if len(u) > limits.max_word_len:
            status = BOUNDED_INCOMPLETE
            continue
        if len(rules) >= limits.max_rules:
            status = BOUNDED_INCOMPLETE
            break
        # endpoints carried explicitly: rewriting preserves them
        new_rule = RewriteRule(PathWord(src, dst, u), PathWord(src, dst, v))

        # interreduce: rules whose lhs now reduces go back to the queue,
        # right hand sides are kept normal
        kept: list[RewriteRule] = [new_rule]
        requeued: list[RewriteRule] = []
        for old in rules:
            if _normalize_letters(_index_rules([new_rule]), old.lhs.letters) != old.lhs.letters:
                requeued.append(old)
            else:
                kept.append(old)
        by_first = _index_rules(kept)
        reduced_kept = []
        for r in kept:
            nf_rhs = _normalize_letters(by_first, r.rhs.letters)
            if nf_rhs != r.rhs.letters:
                r = RewriteRule(r.lhs, PathWord(r.lhs.src, r.lhs.dst, nf_rhs))
            reduced_kept.append(r)
        rules = reduced_kept
        for old in requeued:
            push(old.lhs.letters, old.rhs.letters, old.lhs.src, old.lhs.dst)

        for other in rules:
            for peak, left, right in itertools.chain(
                    _critical_pairs(new_rule, other),
                    _critical_pairs(other, new_rule) if other is not new_rule else ()):
                if left != right:
                    s, d = _peak_endpoints(p, peak)
                    push(left, right, s, d)

    rules.sort(key=lambda r: (key(r.lhs.letters), key(r.rhs.letters)))
    return RewriteSystem(presentation=p, rules=tuple(rules), status=status)


def _peak_endpoints(p: CatPresentation, letters: tuple[str, ...]) -> tuple[str, str]:
    return p.gen_by_name[letters[0]].src, p.gen_by_name[letters[-1]].dst


def _reachable_normal_forms(rs: RewriteSystem, x: str,
                            limits: ResourceLimits) -> frozenset[PathWord]:
    """All normal forms with source ``x``, by breadth-first extension.

    A prefix of an irreducible word is irreducible, so extending known
    normal forms one generator at a time and normalizing reaches every
    normal form out of ``x``.
    """
    found = rs._reachable.get((x, limits))
    if found is not None:
        return found
    p = rs.presentation
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
    found = rs._reachable[(x, limits)] = frozenset(seen)
    return found


def homset(rs: RewriteSystem, x: str, y: str,
           limits: ResourceLimits = DEFAULT_LIMITS) -> tuple[PathWord, ...]:
    """All morphisms ``x -> y`` as normal forms, in shortlex order."""
    words = rs._homsets.get((x, y, limits))
    if words is not None:
        return words
    p = rs.presentation
    if x not in p.obj_index or y not in p.obj_index:
        raise ValidationError(f"unknown object in homset query: {x!r}, {y!r}")
    words = rs._homsets[(x, y, limits)] = tuple(sorted(
        (w for w in _reachable_normal_forms(rs, x, limits) if w.dst == y),
        key=p.shortlex_key))
    return words


def find_inverse(rs: RewriteSystem, w: PathWord,
                 limits: ResourceLimits = DEFAULT_LIMITS) -> PathWord | None:
    """Shortlex-least two-sided inverse of ``w``, or None."""
    p = rs.presentation
    for v in homset(rs, w.dst, w.src, limits):
        if (normalize(rs, p.concat(w, v)).is_identity_word
                and normalize(rs, p.concat(v, w)).is_identity_word):
            return v
    return None


def is_isomorphism(rs: RewriteSystem, w: PathWord,
                   limits: ResourceLimits = DEFAULT_LIMITS) -> bool:
    return find_inverse(rs, w, limits) is not None


class DenomDecider:
    """Decides denominator membership for a category with denominators.

    The explicit words are normalized, identities are added when the
    flag says so, and the composition flag saturates the set under
    binary composition up to the resource bounds.  Membership of an
    arbitrary word is then a normal form lookup.
    """

    def __init__(self, c: CatWithDenoms, rs: RewriteSystem,
                 limits: ResourceLimits = DEFAULT_LIMITS):
        self.cwd = c
        self.rs = rs
        self.limits = limits
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
                w for w in homset(self.rs, x, y, self.limits)
                if self.is_denominator(w))
        return between
