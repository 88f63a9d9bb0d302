"""Reference tuple-based rewriting kernel, kept for equivalence tests.

This is the letter-tuple normaliser and Knuth-Bendix completion that
``loccat.rewrite`` used before it moved to encoded strings and a
rule-index matcher.  It is kept unchanged so tests can check that the
fast kernel takes the same rewriting steps: the same normal form for
every word and rule list, and the same completed rules and status for
every presentation and bound.  Only its edges follow the package: it
decodes a presentation's relations on the way in, returns its rules as
``(lhs, rhs)`` codes as ``loccat.rewrite.complete`` does, and keeps the
letter-tuple ``RewriteRule`` the package used to export as its own.

``closure`` is the denominator closure, from the explicit codes, that
``loccat.rewrite.DenomDecider`` built before it grew the set by its
generating words on a complete system: it composes each new element
with the whole set, both ways, round by round, and raises at the same
bounds with the same messages.

``homset`` is the hom-set enumeration ``loccat.rewrite`` used before it
listed irreducible words: it decodes the system's rules, normalises
every extension of a known normal form by a generator, with this
normaliser, and raises at the same bounds with the same messages.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from loccat.presentation import CatPresentation, LimitExceeded, PathWord
from loccat.rewrite import (BOUNDED_INCOMPLETE, COMPLETE, DEFAULT_LIMITS,
                            ResourceLimits, RewriteSystem)


@dataclass(frozen=True)
class RewriteRule:
    """A length-nonincreasing oriented equation ``lhs -> rhs``."""

    lhs: PathWord
    rhs: PathWord


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


def normalize_letters(rules, letters: tuple[str, ...]) -> tuple[str, ...]:
    """Normal form of ``letters`` under ``rules`` (a list of ``RewriteRule``)."""
    return _normalize_letters(_index_rules(rules), letters)


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


def _shortlex(p: CatPresentation):
    """Shortlex on letter tuples: length, then generator declaration
    order letter by letter."""
    rank = {g.name: i for i, g in enumerate(p.generators)}
    return lambda letters: (len(letters), tuple(map(rank.__getitem__, letters)))


def complete(p: CatPresentation, limits: ResourceLimits = DEFAULT_LIMITS) -> RewriteSystem:
    """Run Knuth-Bendix completion on the relations of ``p``."""
    key = _shortlex(p)

    counter = itertools.count()
    heap: list = []

    def push(u: tuple, v: tuple, src: str, dst: str):
        ku, kv = key(u), key(v)
        prio = (max(ku, kv), min(ku, kv))
        heapq.heappush(heap, (prio, next(counter), u, v, src, dst))

    for rel in p.relations:
        lhs, rhs = map(p.decode, rel)
        push(lhs.letters, rhs.letters, lhs.src, lhs.dst)

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
    return RewriteSystem(presentation=p, status=status, rules=tuple(
        (p.encode(r.lhs)[2], p.encode(r.rhs)[2]) for r in rules))


def _peak_endpoints(p: CatPresentation, letters: tuple[str, ...]) -> tuple[str, str]:
    return p.gen_by_name[letters[0]].src, p.gen_by_name[letters[-1]].dst


def homset(rs: RewriteSystem, x: str, y: str) -> tuple[PathWord, ...]:
    """All morphisms ``x -> y`` as normal forms under ``rs.rules``, in
    shortlex order, by breadth-first extension and normalisation.

    Collects every normal form out of ``x`` whatever its target, under
    ``rs.limits``, then keeps those ending at ``y`` and sorts them.
    """
    p, limits = rs.presentation, rs.limits
    rules = []
    for lhs, rhs in rs.rules:
        src, dst = _peak_endpoints(p, [p.codec[1][lhs[0]], p.codec[1][lhs[-1]]])
        rules.append(RewriteRule(p.decode((src, dst, lhs)), p.decode((src, dst, rhs))))
    by_first = _index_rules(rules)
    out_gens: dict[str, list] = {}
    for g in p.generators:
        out_gens.setdefault(g.src, []).append(g)
    seen: set[PathWord] = {p.identity(x)}
    frontier: list[PathWord] = [p.identity(x)]
    while frontier:
        nxt: list[PathWord] = []
        for w in frontier:
            for g in out_gens.get(w.dst, ()):
                letters = _normalize_letters(by_first, w.letters + (g.name,))
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
    key = _shortlex(p)
    return tuple(sorted((w for w in seen if w.dst == y), key=lambda w: key(w.letters)))


def closure(rs: RewriteSystem) -> set[tuple[str, str, str]]:
    """The denominators of ``rs.presentation`` as encoded normal forms of
    ``rs``: the explicit words and identities as the flags say, saturated
    pairwise under composition when the flag says so, under ``rs.limits``."""
    limits, c = rs.limits, rs.presentation
    found = set(map(rs.compose, c.denoms.explicit))
    if c.denoms.include_identities:
        found.update((x, x, "") for x in c.objects)
    frontier = set(found) if c.denoms.close_under_composition else set()
    while frontier:
        fresh: set[tuple[str, str, str]] = set()
        for u in frontier:
            for v in found:
                for a, b in ((u, v), (v, u)):
                    if a[1] != b[0]:
                        continue
                    comp = rs.compose(a, b)
                    if len(comp[2]) > limits.max_word_len:
                        raise LimitExceeded(
                            "max_word_len",
                            "denominator closure produced a word over the bound")
                    if comp not in found:
                        fresh.add(comp)
        if len(found) + len(fresh) > limits.max_homset:
            raise LimitExceeded("max_homset", "denominator closure larger than the bound")
        found |= fresh
        frontier = fresh
    return found
