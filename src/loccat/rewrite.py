"""Knuth-Bendix completion and decision procedures on path words.

Words are ordered by shortlex: length first, then letterwise by
generator declaration order.  Completion orients every derived
equation so the larger side rewrites to the smaller one, computes
critical pairs (overlaps and containments of left hand sides) and
interreduces until no pair remains or a resource bound is hit.

Every system the package queries is complete: its normal forms are
canonical, so word equality, hom-set enumeration and invertibility are
decided by comparing them.

Words are encoded inside a system and decoded at the edge.  Each
generator is one character, with code points that increase in
declaration order (``CatPresentation.codec``), so ``(len(s), s)`` orders
encoded words exactly as shortlex orders their letters.  A morphism is
its endpoints and its code, ``(src, dst, code)``: a presentation's
relations and explicit denominators, a system's rules and its
normal-form, hom-set and denominator tables hold codes, a functor maps
codes with one ``str.translate`` (``FunctorData.translation``), and
completion reads and returns codes, decoding nothing.  Inside the
package every query runs on codes (:func:`words`, :func:`inverse`,
:meth:`RewriteSystem.compose`, ``index`` and a decider's ``closure``);
:func:`normalize`, :func:`equal`, :func:`homset`, :func:`find_inverse`,
``is_denominator`` and ``materialized`` are each one encode or decode
around them, for reports, witnesses and the public API.

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
A live pair whose overlap word is reducible inside its first and last
letters is composite and is skipped too (see :func:`complete`).

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
limits, so no caller passes them again.  It owns its matcher, its
normal-form and hom-set tables and the decider of its presentation's
denominators, and frees them with itself;
nothing is cached at module level.  The tables hold only results that
were computed without raising, so a query that exceeds its limits
raises on every call.

An :class:`Inflation` is a system with no rules of its own: its
category is a base system's with each object repeated, so each query
maps a word down to the base, answers it there and lifts the answer
back.  Every function above takes it as it takes a completed system.

The package builds every system with :func:`present`.  It completes,
and where a bound cut the completion short it discards that run and
enumerates the morphisms out of each object, on the first query that
needs them (:class:`Enumerated`, coset tables that read their own
rules); a query on an object whose enumeration does not close within
the limits raises :class:`LimitExceeded`.  :func:`complete` stays the
Knuth-Bendix kernel alone, and the systems it returns are
``bounded-incomplete`` when a bound cut it short.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import namedtuple
from functools import cached_property

from .presentation import (
    CatPresentation,
    ConstructionError,
    LimitExceeded,
    PathWord,
    ValidationError,
)

COMPLETE = "complete"
BOUNDED_INCOMPLETE = "bounded-incomplete"


class ResourceLimits(namedtuple("ResourceLimits", "max_word_len max_rules max_homset",
                                defaults=(16, 512, 1024))):
    """Bounds that keep every query a finite computation."""

    __slots__ = ()


DEFAULT_LIMITS = ResourceLimits()


class RuleIndex(dict):
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
    is removed.  The first compile waits for 2,048 candidates more
    (``_budget``), whose scan took 0.3 to 0.8 ms where a first compile
    in a fresh process took 0.5 ms and a later one 0.12 ms (Python 3.11,
    2-core shared VM).  As a mapping, a system's index is its normal-form
    table: ``index[s]`` normalises ``s`` on the first lookup and keeps
    the result.
    """

    def __init__(self, rules=()):
        self._rhs: dict[str, str] = {}
        self._tails: dict[str, str] = {}
        self._by_first: dict[str, list[str]] = {}
        self._back = 0
        self._lhs_letters = 0
        self._compared = 0
        self._budget = 2048
        self._regex = None
        for lhs, rhs in rules:
            self.add(lhs, rhs)

    def __missing__(self, s: str) -> str:
        nf = self[s] = self.normal_form(s)
        return nf

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

    def reducible(self, s: str) -> bool:
        """Whether a left side occurs in ``s``: one search, no rewriting."""
        if self._regex is not None:
            return self._regex.search(s) is not None
        return any(lhs in s for lhs in self._rhs)

    def _lhs_changed(self, letters: int):
        self._lhs_letters += letters
        self._compared = 0
        self._regex = None

    def normal_form(self, s: str) -> str:
        if self._regex is None and self._compared <= self._lhs_letters + self._budget:
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
            self._budget = 0
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


class RewriteSystem:
    """A completed rewriting system, or a run that a bound cut short.

    ``rules`` are the codes ``(lhs, rhs)`` of its oriented equations,
    sorted shortlex.  ``limits`` are the bounds :func:`complete` ran
    under; every query on the system, and every system derived from it,
    uses them.  Besides its rules the system carries its matcher
    ``index``, built from them, also its one normal-form table
    (``index[s]``), and what its queries build:
    the encoded hom-sets out of each object by target (the one hom-set
    table, see :func:`words`) and the decider of its presentation's
    denominators (:attr:`denominators`).  Systems compare by identity.

    Every query reads a system through five members, and an
    :class:`Inflation` or an :class:`Enumerated` provides the same:
    ``index``, a mapping from a code to its normal form; ``normal_forms_out(x)``,
    the hom-sets out of ``x``; ``status``, ``complete`` for every system
    :func:`present` builds; ``limits``; and ``rules``, which only
    ``loccat localise`` reports.
    """

    def __init__(self, presentation: CatPresentation, rules: tuple[tuple[str, str], ...],
                 status: str, limits: ResourceLimits = DEFAULT_LIMITS):
        self.presentation, self.rules, self.status, self.limits = \
            presentation, rules, status, limits
        self.index = RuleIndex(rules)
        self._reachable: dict = {}

    @property
    def is_complete(self) -> bool:
        return self.status == COMPLETE

    def encode(self, w: PathWord) -> tuple[str, str, str]:
        return self.presentation.encode(w)

    def decode(self, word: tuple[str, str, str]) -> PathWord:
        return self.presentation.decode(word)

    def compose(self, *words: tuple) -> tuple[str, str, str]:
        """The encoded normal form of encoded ``words`` composed in turn."""
        code = words[0][2]
        for a, b in zip(words, words[1:]):
            if a[1] != b[0]:
                raise ValidationError(f"words do not compose: {a[1]!r} != {b[0]!r}")
            code += b[2]
        return words[0][0], words[-1][1], self.index[code]

    def sort_key(self, word: tuple[str, str, str]) -> tuple:
        """Object order of the endpoints, then shortlex on the code: codes
        ascend in generator declaration order, so this orders the words
        by their letters' declaration order."""
        obj = self.presentation.obj_index
        return obj[word[0]], obj[word[1]], len(word[2]), word[2]

    def normal_forms_out(self, x: str) -> dict[str, tuple[str, ...]]:
        """The encoded hom-sets out of ``x`` by target, in object order,
        each in shortlex order: the listing :func:`words` keeps.  Each
        normal form extends a shorter one (see the module docstring) by
        a generator, in declaration order, so each length comes out in
        shortlex order."""
        p, limits, lhs = self.presentation, self.limits, self.index._rhs
        lengths = sorted(set(map(len, lhs)))
        by_dst = {x: [""]}
        level, count = [("", x)], 1
        while level:
            nxt = []
            for s, at in level:
                for _, dst, g in p.out_arrows.get(at, ()):
                    t = s + g
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
                    by_dst.setdefault(dst, []).append(t)
                    nxt.append((t, dst))
            level = nxt
        return {y: tuple(by_dst.get(y, ())) for y in p.objects}

    @cached_property
    def denominators(self) -> DenomDecider:
        """The decider for the denominators of :attr:`presentation`, built
        on first use and kept.  A closure that exceeds :attr:`limits` is
        not kept, so it raises again on the next use."""
        return DenomDecider(self)


class _Lifts(dict):
    """An inflation's normal-form table, filled like a :class:`RuleIndex`."""

    __missing__ = RuleIndex.__missing__

    def __init__(self, normal_form):
        self.normal_form = normal_form


class Inflation(RewriteSystem):
    """A system answered through ``base``, whose category it repeats.

    Each object is a copy of the base object ``under`` it, and
    ``down``, a ``str.translate`` table, sends each letter to a base
    code; a morphism between two copies is a base morphism between the
    objects under them.  The normal form of a word is the lift
    (:meth:`lift`) of the base normal form of its image, and the
    hom-sets are the lifts of the base's.  There are no rules: the
    status and limits are the base's.
    """

    def __init__(self, presentation: CatPresentation, base: RewriteSystem,
                 under: dict[str, str], down: dict[int, str]):
        super().__init__(presentation, (), base.status, base.limits)
        first: dict[str, str] = {}
        for x in presentation.objects:
            first.setdefault(under[x], x)
        # up: the first letter over each base letter, or over "", between
        # two copies; via: the copy a route takes after each base letter
        up = {}
        for src, dst, c in presentation.arrows.values():
            if len(image := c.translate(down)) <= 1:
                up.setdefault((src, dst, image), c)
        via = {c: first[dst] for _, dst, c in base.presentation.arrows.values() if dst in first}
        self.base, self.under, self.down, self.index = base, under, down, _Lifts(self.normal_form)
        self._up, self._via = up, via

    def lift(self, src: str, dst: str, s: str) -> str:
        """The base code ``s`` lifted from the copy ``src`` to the copy
        ``dst``, letter by letter, through the first copy of each object
        it passes; :class:`ConstructionError` if a letter has no lift."""
        try:
            if not s:
                return "" if src == dst else self._up[src, dst, ""]
            stations = [src, *map(self._via.__getitem__, s[:-1]), dst]
            return "".join(map(self._up.__getitem__, zip(stations, stations[1:], s)))
        except KeyError:
            raise ConstructionError(f"no lift from {src!r} to {dst!r}") from None

    def normal_form(self, s: str) -> str:
        """The lift of the base normal form of the image of ``s``."""
        arrows = self.presentation.arrows
        return s and self.lift(arrows[s[0]][0], arrows[s[-1]][1],
                               self.base.index[s.translate(self.down)])

    def normal_forms_out(self, x: str) -> dict[str, tuple[str, ...]]:
        """The lifts of the base hom-sets, each sorted shortlex; the total
        out of ``x`` is bounded by ``max_homset``, as a search bounds it."""
        under, limits = self.under, self.limits
        found = {y: words(self.base, under[x], under[y]) for y in self.presentation.objects}
        if sum(map(len, found.values())) > limits.max_homset:
            raise LimitExceeded("max_homset",
                                f"more than {limits.max_homset} morphisms out of {x!r}")
        return {y: tuple(sorted((self.lift(x, y, s) for s in ws), key=lambda t: (len(t), t)))
                for y, ws in found.items()}


class Enumerated(RewriteSystem):
    """The system of ``presentation`` answered by coset tables, for
    ``limits`` under which :func:`complete` is cut short; ``seeds`` are
    traced beside the relations, as :func:`complete` takes them.

    Out of each object ``x`` the morphisms are enumerated as the classes
    of the right action of the free category on ``x`` (Todd and Coxeter,
    1936; for monoids, Ruškuc, PhD thesis, St Andrews, 1995): class 0 is
    the identity of ``x``.  Each pass visits the live classes in order,
    defines every generator out of each, then traces from it every
    relation (and every seed) that starts at its object, defining the
    classes the trace needs; a relation whose two sides end in different
    classes merges them in a union-find, and the survivor takes over the
    loser's table entries, queueing the pairs that clash.  A pass that
    defines and merges nothing ends it: the table is then a right action
    in which every relation holds, and every merge followed from the
    relations, so the classes are the morphisms out of ``x``.  The
    enumeration gives up, raising :class:`LimitExceeded`, past
    ``4 * max_homset`` classes defined, live or merged: a merge may need
    more classes than the morphisms it leaves.  A table that closes with
    more than ``max_homset`` classes raises as the search of a complete
    system would.  Each object is enumerated on the first query that
    needs it, and its table is kept only if the enumeration closed, so a
    query on an object that does not close raises on every call while
    the other objects answer.

    The table is one flat list of integers, as coset enumerators keep it
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005, ch. 5).  Each class has a row: its parent in the union-find,
    its object's index, then one slot per generator out of that object,
    in declaration order, ``-1`` until defined.  A class is the offset of
    its row, so classes compare in the order they were defined, and a
    class costs two slots plus its object's out-degree, not one per
    generator of the presentation.  Relations and seeds are encoded once
    as tuples of slot offsets, so a trace, a merge and the renumbering
    index the list directly, and the closed table keeps the same layout
    with the class number in place of the parent.  On a monoid with two
    generators a class costs about 60 bytes, with its row and its one
    ``int``: an enumeration that gives up at the default limits (4,096
    classes) peaks at about 0.25 MB (``tracemalloc``), and at the
    ``large`` profile (32,768 classes) at about 1.9 MB, against 1.1 and
    8.6 MB with a dict per class (Python 3.11).  An ``array('l')`` of the
    same rows takes about half the memory of the list, but defining
    200,000 classes of the braid monoid took longer with it than with a
    dict per class, and about a third less time with the list.

    A breadth-first search in generator declaration order names each
    class by the word it first reaches it with, its shortlex-least word,
    since a prefix of a least word is least in its own class: so the
    names are the normal forms of the complete shortlex system.
    ``index[s]`` traces ``s`` from its source's table, the hom-sets are
    the names, the status is ``complete``, and the :attr:`rules` are
    those of that complete system, read off the tables.
    """

    def __init__(self, presentation: CatPresentation, limits: ResourceLimits,
                 seeds: tuple = ()):
        p = self.presentation = presentation
        self.status, self.limits, self.index = COMPLETE, limits, _Lifts(self.normal_form)
        self._reachable: dict = {}
        obj = p.obj_index
        self._out = [p.out_arrows.get(x, ()) for x in p.objects]
        # a row is a parent, an object, then a slot for each generator out
        # of the object, in declaration order: a generator is its slot
        self._slot = {g: k for arrows in self._out for k, (_, _, g) in enumerate(arrows, 2)}
        self._ends = [tuple(obj[dst] for _, dst, _ in arrows) for arrows in self._out]
        self._rels: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = \
            [[] for _ in p.objects]
        slot = self._slot.__getitem__
        for (src, _, lhs), (_, _, rhs) in p.relations + seeds:
            self._rels[obj[src]].append((tuple(map(slot, lhs)), tuple(map(slot, rhs))))
        self._tables: dict = {}

    @cached_property
    def rules(self) -> tuple[tuple[str, str], ...]:
        """The rules of the reduced complete shortlex system, which is
        unique for a fixed order (Métivier, *IPL* 16, 1983), sorted as
        :func:`complete` sorts them.  Its left sides are the reducible
        words whose proper subwords are irreducible: each is ``u·g``,
        for a class named ``u`` and a generator ``g``, that is no class
        name while ``(u·g)[1:]`` is its own normal form.  Read off the
        closed table of every object; until all close, each read raises
        :class:`LimitExceeded`."""
        nf, out, found = self.index, self.presentation.out_arrows, []
        for x in self.presentation.objects:
            _, names, objects = self._table(x)
            for u, y in zip(names, objects):
                for _, _, g in out.get(y, ()):
                    lhs = u + g
                    if nf[lhs] != lhs and nf[lhs[1:]] == lhs[1:]:
                        found.append((lhs, nf[lhs]))
        return tuple(sorted(found, key=lambda r: (len(r[0]), r[0])))

    def _table(self, x: str) -> tuple[list[int], list[str], list[str]]:
        """The closed table out of ``x``, then the name and the object of
        each class in search order; enumerated once.  Each row of the
        table is its class's number, its object's index and, in each
        slot, the offset of the row the generator leads to."""
        table = self._tables.get(x)
        if table is None:
            table = self._tables[x] = self._enumerate(x)
        return table

    def _enumerate(self, x: str) -> tuple[list[int], list[str], list[str]]:
        ends, rels, most = self._ends, self._rels, self.limits.max_homset
        width = [2 + len(e) for e in ends]
        blank = [(o, *[-1] * len(e)) for o, e in enumerate(ends)]
        gens = [tuple((k,) for k in range(2, w)) for w in width]
        # the rows, one flat list: a class is the offset of its row, so
        # classes compare in the order they were defined
        t = [0, *blank[self.presentation.obj_index[x]]]
        classes = 1

        def find(c: int) -> int:
            while t[c] != c:
                t[c] = c = t[t[c]]
            return c

        def follow(c: int, word: tuple[int, ...]) -> int:
            nonlocal classes
            for k in word:
                d = t[c + k]
                if d < 0:
                    if classes >= 4 * most:
                        raise LimitExceeded(
                            "max_homset", f"coset enumeration out of {x!r} did not close")
                    classes += 1
                    d = t[c + k] = len(t)
                    t.append(d)
                    t.extend(blank[ends[t[c + 1]][k - 2]])
                elif t[d] != d:
                    d = t[c + k] = find(d)
                c = d
            return c

        def merge(a: int, b: int):
            todo = [(a, b)]
            while todo:
                a, b = todo.pop()
                a, b = find(a), find(b)
                if a > b:
                    a, b = b, a
                if a != b:
                    t[b] = a
                    for k in range(2, width[t[b + 1]]):
                        u = t[b + k]
                        if u >= 0:
                            v = t[a + k]
                            if v >= 0:
                                todo.append((v, u))
                            else:
                                t[a + k] = u

        changed = True
        while changed:
            changed, defined, c = False, classes, 0
            while c < len(t):
                o = t[c + 1]
                if t[c] == c:
                    for g in gens[o]:
                        follow(c, g)
                    for lhs, rhs in rels[o]:
                        a, b = follow(c, lhs), follow(c, rhs)
                        if a != b:
                            merge(a, b)
                            changed = True
                            if t[c] != c:
                                break
                c += width[o]
            changed = changed or classes != defined

        number, order, names = {0: 0}, [0], [""]
        for c, name in zip(order, names):
            for k, (_, _, g) in enumerate(self._out[t[c + 1]], 2):
                u = find(t[c + k])
                if u not in number:
                    number[u] = len(order)
                    order.append(u)
                    names.append(name + g)
        if len(order) > most:
            raise LimitExceeded("max_homset", f"more than {most} morphisms out of {x!r}")
        # the closed rows, renumbered: each at the offset the rows of the
        # classes before it end at
        at = list(itertools.accumulate((width[t[c + 1]] for c in order), initial=0))
        table: list[int] = []
        for i, c in enumerate(order):
            o = t[c + 1]
            table += (i, o, *(at[number[find(t[c + k])]] for k in range(2, width[o])))
        objects = self.presentation.objects
        return table, names, [objects[t[c + 1]] for c in order]

    def normal_form(self, s: str) -> str:
        """The name of the class ``s`` reaches from its source's identity."""
        if not s:
            return s
        table, names, _ = self._table(self.presentation.arrows[s[0]][0])
        c, slot = 0, self._slot
        for g in s:
            c = table[c + slot[g]]
        return names[table[c]]

    def normal_forms_out(self, x: str) -> dict[str, tuple[str, ...]]:
        """The names of the classes out of ``x`` by object, in search
        order, which is shortlex; a name longer than ``max_word_len``
        raises as the search of a complete system would."""
        _, names, objects = self._table(x)
        bound = self.limits.max_word_len
        if len(names[-1]) > bound:
            raise LimitExceeded("max_word_len", f"normal form out of {x!r} longer than {bound}")
        by_dst: dict[str, list[str]] = {}
        for name, y in zip(names, objects):
            by_dst.setdefault(y, []).append(name)
        return {y: tuple(by_dst.get(y, ())) for y in self.presentation.objects}


def normalize(rs: RewriteSystem, w: PathWord) -> PathWord:
    """Leftmost-innermost normal form of ``w``; canonical iff complete."""
    return rs.decode((w.src, w.dst, rs.index[rs.encode(w)[2]]))


def equal(rs: RewriteSystem, w1: PathWord, w2: PathWord) -> bool:
    """Decide ``w1 == w2`` in the presented category."""
    if (w1.src, w1.dst) != (w2.src, w2.dst):
        raise ValidationError("equal() needs parallel words")
    return rs.compose(rs.encode(w1)) == rs.compose(rs.encode(w2))


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


def complete(p: CatPresentation, limits: ResourceLimits = DEFAULT_LIMITS,
             seeds: tuple = ()) -> RewriteSystem:
    """Run Knuth-Bendix completion on the relations of ``p``, then on
    ``seeds``: encoded relations that the caller knows to follow from
    them, so the result is the system of ``p`` and presents ``p``.

    Each rule gets an id when it is added.  A critical pair carries the
    ids of its two rules and is dropped, unnormalised, once either rule
    has left the system.  That is sound: a rule leaves only when a newer
    rule rewrites its left side, its own equation goes back to the
    queue, and only the critical pairs of rules that stay are needed
    (Huet 1981).

    A live pair is also dropped unnormalised when it is composite: its
    overlap word ``w``, rebuilt from the two left sides and the overlap
    length the pair carries, is reducible once its first and last
    letters are removed (Kapur, Musser and Narendran, "Only prime
    superpositions need be considered in the Knuth-Bendix completion
    procedure", *J. Symbolic Computation* 6, 1988; Bachmair and
    Dershowitz, "Critical pair criteria for completion", same volume).
    No left side contains another, so the rule ``l`` found inside ``w``
    is neither of the pair's: each of the pair's rules meets ``l`` in a
    proper subword of ``w``, or not at all, so the peak at ``w`` is
    joined below ``w`` through ``l`` once the pairs of shorter overlaps
    are, and by induction on overlap length (after Newman) the pairs
    that are not composite suffice.  The argument holds for the final
    system too: a rule leaves only when a newer left side lies inside
    its own, so a word's reducibility only grows as rules are replaced.

    An equation whose normal forms are longer than ``max_word_len`` is
    set aside, not oriented.  The run is ``complete`` when it did not
    stop at ``max_rules`` and each equation set aside joins under the
    final rules: those equations then lie in the final rules'
    congruence, so the rules present ``p``, and every other critical
    pair was joined, oriented or dropped by one of the two criteria.
    Otherwise it is ``bounded-incomplete``.

    For a fixed order the reduced complete system is unique, so a run
    that completes yields the same rules with or without either
    criterion; a run stopped by ``max_rules``, or with an equation set
    aside that does not join, may stop at another rule set, or stop
    where the other would not.
    """
    counter = itertools.count()
    heap: list = []

    # relations and requeued rules carry rule ids -1 and are never
    # dropped; a critical pair carries its rules' ids and the length of
    # the word they overlap in, not the word
    def push(u: str, v: str, src: str, dst: str, id1: int = -1, id2: int = -1,
             span: int = 0):
        ku, kv = (len(u), u), (len(v), v)
        heapq.heappush(heap, ((max(ku, kv), min(ku, kv)), next(counter),
                              u, v, src, dst, id1, id2, span))

    for (src, dst, lhs), (_, _, rhs) in p.relations + seeds:
        push(lhs, rhs, src, dst)

    # encoded (lhs, rhs, src, dst, id); endpoints carried explicitly since
    # rewriting preserves them
    rules: list[tuple] = []
    rule_ids = itertools.count()
    # the left side of each rule in the system, by id
    live: dict[int, str] = {}
    # ``rules`` as one matcher, kept current in place; no left side
    # contains another, so at most one matches at a position and the
    # order of the index need not follow ``rules``
    index = RuleIndex()
    swept = len(heap)
    status = COMPLETE
    # the equations set aside as longer than max_word_len, normalised
    too_long = []

    while heap:
        _, _, u, v, src, dst, id1, id2, span = heapq.heappop(heap)
        if id1 >= 0:
            if id1 not in live or id2 not in live:
                continue
            # no live left side contains another, so the pair overlaps
            # in a·b[k:]; a composite one needs no normal forms
            a, b = live[id1], live[id2]
            if index.reducible((a + b[len(a) + len(b) - span:])[1:-1]):
                continue
        u = index.normal_form(u)
        v = index.normal_form(v)
        if u == v:
            continue
        if (len(u), u) < (len(v), v):
            u, v = v, u
        if len(u) > limits.max_word_len:
            too_long.append((u, v))
            continue
        if len(rules) >= limits.max_rules:
            status = BOUNDED_INCOMPLETE
            break
        new_id = next(rule_ids)
        live[new_id] = u
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
            del live[i]
            push(lhs, rhs, s, d)

        # every overlap of u with b, and b inside u, contains b's first
        # letter in u; the other way round, u's first letter in b.  A
        # pair's left side is a's right side followed by the letters of b
        # past the overlap, so it gives the overlap's length
        for i, other in enumerate(rules):
            peaks = [(new_rule, other)] if other[0][0] in u else []
            if i and u[0] in other[0]:
                peaks.append((other, new_rule))
            for r1, r2 in peaks:
                a, a_rhs = r1[0], r1[1]
                for left, right, s, d in _critical_pairs(r1, r2):
                    if left != right:
                        push(left, right, s, d, r1[4], r2[4], len(a) + len(left) - len(a_rhs))

        # a pair whose rule has left stays dead, and (priority, counter)
        # orders the entries totally, so dropping the dead ones each time
        # the heap has doubled leaves every pop unchanged
        if len(heap) > 2 * swept:
            heap[:] = [e for e in heap if e[6] < 0 or (e[6] in live and e[7] in live)]
            heapq.heapify(heap)
            swept = len(heap)

    if status == COMPLETE and any(index.normal_form(u) != index.normal_form(v)
                                  for u, v in too_long):
        status = BOUNDED_INCOMPLETE
    rules.sort(key=lambda r: ((len(r[0]), r[0]), (len(r[1]), r[1])))
    return RewriteSystem(presentation=p, status=status, limits=limits,
                         rules=tuple((lhs, rhs) for lhs, rhs, *_ in rules))


def present(p: CatPresentation, limits: ResourceLimits = DEFAULT_LIMITS,
            seeds: tuple = ()) -> RewriteSystem:
    """The system of ``p``: its completion (see :func:`complete`) or, if
    the limits cut that short, its coset tables (:class:`Enumerated`);
    the cut-short run is discarded.  The package builds every system here."""
    rs = complete(p, limits, seeds)
    return rs if rs.is_complete else Enumerated(p, limits, seeds)


def words(rs: RewriteSystem, x: str, y: str) -> tuple[str, ...]:
    """The morphisms ``x -> y`` as encoded normal forms, in shortlex order;
    the hom-sets out of ``x`` are listed once (``rs.normal_forms_out``)."""
    found = rs._reachable.get(x)
    if found is None or y not in found:
        p = rs.presentation
        if x not in p.obj_index or y not in p.obj_index:
            raise ValidationError(f"unknown object in homset query: {x!r}, {y!r}")
        if found is None:
            found = rs._reachable[x] = rs.normal_forms_out(x)
    return found[y]


def homset(rs: RewriteSystem, x: str, y: str) -> tuple[PathWord, ...]:
    """All morphisms ``x -> y`` as normal forms, in shortlex order."""
    return tuple(rs.decode((x, y, s)) for s in words(rs, x, y))


def inverse(rs: RewriteSystem, word: tuple[str, str, str]) -> tuple[str, str, str] | None:
    """Shortlex-least two-sided inverse of the encoded ``word``, encoded, or None."""
    src, dst, s = word
    nf = rs.index.__getitem__
    for v in words(rs, dst, src):
        if not nf(s + v) and not nf(v + s):
            return dst, src, v
    return None


def find_inverse(rs: RewriteSystem, w: PathWord) -> PathWord | None:
    """Shortlex-least two-sided inverse of ``w``, or None."""
    v = inverse(rs, rs.encode(w))
    return None if v is None else rs.decode(v)


class DenomDecider:
    """Decides membership in the denominators of the presentation of ``rs``.

    The explicit words, codes, are normalized into the generating words
    ``generators``, identities are added when
    the flag says so, and the composition flag saturates the set under
    binary composition up to the resource bounds, as encoded normal
    forms ``(src, dst, code)`` in ``closure``, kept in
    :meth:`RewriteSystem.sort_key` order.
    Membership of an arbitrary word is then a normal form lookup.
    Each system builds one, :attr:`RewriteSystem.denominators`, and keeps it.

    Each new element is composed on both sides with the generating
    words only: normal forms are canonical, so a set closed under those
    products is closed under composition.
    """

    def __init__(self, rs: RewriteSystem):
        self.rs = rs
        p, limits = rs.presentation, rs.limits
        self.generators = set(map(rs.compose, p.denoms.explicit))
        closure = set(self.generators)
        if p.denoms.include_identities:
            for x in p.objects:
                closure.add((x, x, ""))
        if p.denoms.close_under_composition:
            frontier = set(closure)
            while frontier:
                fresh: set[tuple[str, str, str]] = set()
                for u in frontier:
                    for v in self.generators:
                        for a, b in ((u, v), (v, u)):
                            if a[1] != b[0]:
                                continue
                            comp = rs.compose(a, b)
                            if len(comp[2]) > limits.max_word_len:
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
        # a dict as an ordered set: ``sort_key`` order, membership in O(1)
        self.closure = dict.fromkeys(sorted(closure, key=rs.sort_key))
        self._between: dict[tuple[str, str], tuple[str, ...]] = {}

    def is_denominator(self, w: PathWord) -> bool:
        return self.rs.compose(self.rs.encode(w)) in self.closure

    @property
    def materialized(self) -> tuple[PathWord, ...]:
        """The denominator normal forms, globally sorted."""
        return tuple(map(self.rs.decode, self.closure))

    def denominators_between(self, x: str, y: str) -> tuple[str, ...]:
        """The codes of the denominators ``x -> y`` among the enumerated
        hom-set, in shortlex order."""
        between = self._between.get((x, y))
        if between is None:
            between = self._between[(x, y)] = tuple(
                s for s in words(self.rs, x, y) if (x, y, s) in self.closure)
        return between

