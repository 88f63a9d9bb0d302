"""Replacement triples along a functor and the category they form.

Given ``F: C -> D``, a replacement of an object ``Y`` of ``D`` is a
pair ``(X, q)`` with ``X`` an object of ``C`` and ``q: F X -> Y`` a
denominator of ``D``.  The triples ``(Y, X, q)`` are the objects of
the replacement category; a morphism ``(Y, X, q) -> (Y', X', q')`` is
just a morphism ``Y -> Y'`` of ``D``, composition and identities being
those of ``D``.

So the replacement category is ``D`` inflated: each object repeated
once per triple over it.  It is materialized as a finite presentation,
since the verifier checks functors on its generators: one lifted
generator per generator of ``D`` and pair of triples over its
endpoints, plus lifted identity generators connecting distinct triples
over the same object.  It completes nothing: its system is the
:class:`~loccat.rewrite.Inflation` of the target's along the forgetful
functor, whose hom-sets are those of ``D`` by construction, and its
localisation is the inflation of the target's localisation
(:meth:`ReplacementCategory.localised`).  :class:`ReplacementCategory`
builds it from the triples in its constructor, with the lifted
denominators and the forgetful functor.
:func:`build_replacement_category` collects the triples.  A choice is
read by the positions of its triples, which :func:`auto_choice` picks
and :func:`positions` finds while it checks a :data:`ReplacementChoice`.
"""

from __future__ import annotations

from collections import namedtuple

from .axioms import squares
from .gz import LocalisedCategory, extend_to_localisation, extension, fresh_name, through
from .presentation import (
    CatPresentation,
    ConstructionError,
    DenomSet,
    FunctorData,
    GenArrow,
    PreconditionError,
    ValidationError,
    identity_functor,
)
from .rewrite import (
    Inflation,
    LimitExceeded,
    RewriteSystem,
)


class SReplacement(namedtuple("SReplacement", "target source q")):
    """A replacement ``(target, source, q)`` with ``q: F source -> target``,
    given as the code of a target word (:meth:`CatPresentation.encode`);
    it equals that plain tuple."""

    __slots__ = ()


# One chosen replacement per object of the target category, by object.
ReplacementChoice = dict[str, SReplacement]


def find_s_replacements(f: FunctorData, rs_tgt: RewriteSystem,
                        y: str) -> tuple[SReplacement, ...]:
    """All replacements of ``y`` along ``f``, deterministically ordered.

    Ordering: source object declaration order first, then shortlex on
    ``q`` in the target category.
    """
    dec = rs_tgt.denominators
    return tuple(SReplacement(y, x, q) for x in f.source.objects
                 for q in dec.denominators_between(f.object_map[x], y))


def has_enough(replacements: dict[str, tuple[SReplacement, ...]]
               ) -> tuple[bool, dict | None]:
    """Does every object of the target have a replacement?  ``replacements``
    lists each object's in object order, as
    :attr:`~loccat.equivalence.GzSetting.replacements` does."""
    for y, reps in replacements.items():
        if not reps:
            return False, {"kind": "object-without-replacement", "object": y}
    return True, None


class ReplacementCategory:
    """The materialized replacement category of a functor.

    Built from the triples in one pass: one lifted generator per
    generator of the target and pair of triples over its endpoints,
    lifted identities between distinct triples over one object, the
    relations making them behave, the target relations lifted along
    canonical routes, the functor ``forgetful`` sending ``(Y, X, q)``
    to ``Y``, and as denominators every lifted word over a denominator.
    Its system ``rs`` is the :class:`~loccat.rewrite.Inflation` of
    ``rs_tgt`` along the forgetful functor, so it shares the target's
    limits and status.  Its presentation, ``rs.presentation``, lists
    its relations and the lifted denominators as codes of ``rs``, as
    every presentation does.
    """

    def __init__(self, functor: FunctorData, rs_tgt: RewriteSystem,
                 triples: tuple[SReplacement, ...]):
        self.functor, self.rs_tgt, self.triples = functor, rs_tgt, triples
        tgt_cat = functor.target
        spell = tgt_cat.codec[1].__getitem__
        # a name can repeat (q = 1 beside a generator "1"): prime the later
        taken_objs: set[str] = set()
        self.obj_names = names = tuple(
            fresh_name(f"({t.target}|{t.source}|{'·'.join(map(spell, t.q)) or '1'})",
                       taken_objs)
            for t in triples)
        self._triple_pos: dict[tuple[str, str, str], int] = {}
        over: dict[str, list[int]] = {}
        for idx, t in enumerate(triples):
            self._triple_pos.setdefault(t, idx)
            over.setdefault(t.target, []).append(idx)
        self._by_target = over = {y: tuple(idxs) for y, idxs in over.items()}

        # target generator first, then triple pair, identity lifts last:
        # so the first lift of each target word routes through first triples
        lifts = [(g_name, w, i, j)
                 for g_name, w in zip(tgt_cat.codec[0], tgt_cat.arrows.values())
                 for i in over.get(w[0], ()) for j in over.get(w[1], ())]
        lifts += [("1", (y, y, ""), i, j) for y in tgt_cat.objects
                  for i in over.get(y, ()) for j in over.get(y, ()) if i != j]
        taken: set[str] = set()
        gens: list[GenArrow] = []
        under_of: dict[str, tuple[str, str, str]] = {}
        for g_name, under, i, j in lifts:
            name = fresh_name(f"{g_name}@{i}-{j}", taken)
            gens.append(GenArrow(name, names[i], names[j]))
            under_of[name] = under
        bare = CatPresentation(names, tuple(gens), (), DenomSet((), False, False))
        code = bare.codec[0]
        # the forgetful functor on encoded words: one str.translate
        down = {ord(code[name]): w[2] for name, w in under_of.items()}
        objects_under = {name: t.target for name, t in zip(names, triples)}
        self.rs = rs = Inflation(bare, base=rs_tgt, under=objects_under, down=down)

        # each composable pair of letters with a lifted identity in it
        # equals the lift of its image; each target relation is lifted
        # between every two triples over its ends, but where a side has
        # no lift, as no target word through an object without triples has
        relations = [
            ((src, dst, a + b), (src, dst, rs.lift(src, dst, (a + b).translate(down))))
            for src, mid, a in bare.arrows.values() for _, dst, b in bare.out_arrows.get(mid, ())
            if not (down[ord(a)] and down[ord(b)])]
        for lhs, rhs in tgt_cat.relations:
            for i in over.get(lhs[0], ()):
                for j in over.get(lhs[1], ()):
                    try:
                        relations.append((self.lift_word(lhs[2], i, j),
                                          self.lift_word(rhs[2], i, j)))
                    except ConstructionError:
                        continue
        # lifted denominators: the lifts of the target's, in the shortlex
        # order an inflation lists them in; no hom-set is listed
        between = rs_tgt.denominators.denominators_between
        lifted = [(a, b, w) for a in names for b in names for w in sorted(
            (rs.lift(a, b, s) for s in between(objects_under[a], objects_under[b])),
            key=lambda t: (len(t), t))]
        # a lift reads only the arrows, which these leave, and rs has
        # answered no query yet
        rs.presentation = bare._replace(relations=tuple(relations),
                                        denoms=DenomSet(tuple(lifted), False, False))
        self.forgetful = FunctorData(rs.presentation, functor.target, objects_under, under_of)

    def position(self, y: str, x: str, q: str) -> int | None:
        """Position of the triple ``(y, x, q)``, ``q`` encoded, or None."""
        return self._triple_pos.get((y, x, q))

    def object_index(self, name: str) -> int:
        """Position of the object named ``name`` among the triples."""
        return self.rs.presentation.obj_index[name]

    def triples_over(self, y: str) -> tuple[int, ...]:
        return self._by_target.get(y, ())

    def lift_word(self, s: str, i: int, j: int) -> tuple[str, str, str]:
        """The target word of code ``s``, unnormalised, lifted from triple ``i``
        to triple ``j`` as an encoded word (:meth:`~loccat.rewrite.Inflation.lift`);
        :class:`ConstructionError` if it has no lift."""
        src, dst = self.obj_names[i], self.obj_names[j]
        return src, dst, self.rs.lift(src, dst, s)

    def localised(self, lc_tgt: LocalisedCategory
                  ) -> tuple[LocalisedCategory, FunctorData]:
        """The localisation of this category, answered through ``lc_tgt``,
        the localisation of the target, and the localised forgetful
        functor into ``lc_tgt``, not yet validated (:func:`~loccat.gz.checked`).

        It is the presentation :func:`~loccat.gz.extension` gives, with
        the :class:`~loccat.rewrite.Inflation` of ``lc_tgt.rs`` along the
        localised forgetful functor as its system.  When every target
        object has a replacement, the forgetful functor is an
        equivalence that creates the denominators, so it induces an
        equivalence of localisations (Gabriel and Zisman, *Calculus of
        Fractions*, 1967, ch. I); a word through an object without one
        has no lift and raises :class:`ConstructionError`.
        """
        lc = extension(self.rs)
        gz_u = extend_to_localisation(lc, lc_tgt, self.forgetful,
                                      through(lc_tgt, self.forgetful))
        return lc._replace(rs=Inflation(lc.presentation, base=lc_tgt.rs,
                                        under=gz_u.object_map, down=gz_u.translation)), gz_u


def build_replacement_category(f: FunctorData, rs_tgt: RewriteSystem,
                               replacements: dict[str, tuple[SReplacement, ...]]
                               ) -> ReplacementCategory:
    """The replacement category of ``f``, answered through ``rs_tgt``
    under its limits, on the triples ``replacements`` lists by object
    (see :func:`has_enough`); more than ``max_homset`` raise
    :class:`LimitExceeded`."""
    triples: list[SReplacement] = []
    for reps in replacements.values():
        triples.extend(reps)
        if len(triples) > rs_tgt.limits.max_homset:
            raise LimitExceeded("max_homset",
                                "replacement category has too many objects")
    return ReplacementCategory(f, rs_tgt, tuple(triples))


def auto_choice(rc: ReplacementCategory) -> dict[str, int]:
    """The position of the first triple over each object, in object order."""
    chosen = {}
    for y in rc.functor.target.objects:
        over = rc.triples_over(y)
        if not over:
            raise PreconditionError(
                "not enough replacements for a choice",
                witness={"kind": "object-without-replacement", "object": y})
        chosen[y] = over[0]
    return chosen


def positions(rc: ReplacementCategory, choice: ReplacementChoice) -> dict[str, int]:
    """The position of each object's chosen triple, its ``q`` the code of any
    target word, normalised here; :class:`ValidationError` at the first
    object, in ``choice`` order, not given one of its triples."""
    if sorted(choice) != sorted(rc.functor.target.objects):
        raise ValidationError(
            "choice must assign exactly one replacement to every object")
    found = {}
    for y, rep in choice.items():
        if rep.target != y:
            raise ValidationError(f"choice for {y!r} replaces {rep.target!r}")
        found[y] = rc.position(y, rep.source, rc.rs_tgt.index[rep.q])
        if found[y] is None:
            raise ValidationError(f"choice for {y!r} is not a valid replacement triple")
    return found


def structure_choice_functor(rc: ReplacementCategory, chosen: dict[str, int]
                             ) -> tuple[FunctorData, dict[str, tuple]]:
    """The section of the forgetful functor picking the triples at ``chosen``.

    Returns the functor ``C_R`` from the target category into the
    replacement category, together with the encoded components, by
    object, of the comparison transformation from ``C_R`` after the
    forgetful functor to the identity: lifted identities, natural on
    every generator (:func:`~loccat.axioms.squares`).  The forgetful
    functor after ``C_R`` is the identity of the target on the nose.
    Both are checked here.
    """
    tgt_cat = rc.functor.target
    c_r = FunctorData(
        source=tgt_cat, target=rc.rs.presentation,
        object_map={y: rc.obj_names[chosen[y]] for y in tgt_cat.objects},
        images={name: rc.lift_word(c, chosen[src], chosen[dst])
                for name, (src, dst, c) in zip(tgt_cat.codec[0], tgt_cat.arrows.values())})

    if c_r.then(rc.forgetful) != identity_functor(rc.functor.target):
        raise ConstructionError("U after C_R is not the identity")

    components = {rc.obj_names[i]: rc.lift_word("", chosen[t.target], i)
                  for i, t in enumerate(rc.triples)}
    _, natural = squares(rc.rs, rc.rs.presentation.arrows.values(),
                         through(rc, rc.forgetful, c_r), components)
    if not natural:
        raise ConstructionError("choice comparison transformation not natural")
    return c_r, components


def canonical_lift(rc: ReplacementCategory) -> FunctorData:
    """The lift ``X`` to ``(F X, X, identity)`` into the replacement category.

    Requires every identity at an image object to be a denominator, so
    that each trivial triple ``(F X, X, 1)`` is one of ``rc.triples``;
    the first ``X`` without one raises :class:`PreconditionError`.  The
    forgetful functor after the lift equals ``F = rc.functor``, checked here.
    """
    f, rs_tgt = rc.functor, rc.rs_tgt
    src_cat = f.source
    trivial_idx = {x: rc.position(f.object_map[x], x, "") for x in src_cat.objects}
    for x, i in trivial_idx.items():
        if i is None:
            raise PreconditionError("canonical lift needs trivial replacements", witness={
                "kind": "identity-not-denominator", "object": x,
                "identity_at": f.object_map[x]})
    lift = FunctorData(
        source=src_cat, target=rc.rs.presentation,
        object_map={x: rc.obj_names[trivial_idx[x]] for x in src_cat.objects},
        images={g.name: rc.lift_word(rs_tgt.index[f.images[g.name][2]],
                                     trivial_idx[g.src], trivial_idx[g.dst])
                for g in src_cat.generators})
    round_trip = lift.then(rc.forgetful)
    if not (all(round_trip.object_map[x] == f.object_map[x] for x in src_cat.objects)
            and all(rs_tgt.index[round_trip.images[g.name][2]] == rs_tgt.index[f.images[g.name][2]]
                    for g in src_cat.generators)):
        raise ConstructionError("forgetful after canonical lift differs from the functor")
    return lift
