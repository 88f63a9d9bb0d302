"""Localisation of a category with denominators by formal inverses.

The localised category is the base presentation extended with one
inverse generator per denominator generator, and one fresh generator
plus inverse per explicit composite denominator word.  Composite
denominators that only arise from the composition closure flag need no
generators of their own: their inverses are composites of the factor
inverses.  Words whose normal form is an identity are already
invertible and are elided.

Completion also gets one seeded relation ``w^-1 = v`` for each inverted
word ``w`` that already has an inverse ``v`` in the base, as every
element of a group does.  It follows from the others
(``w^-1 = v·w·w^-1 = v``), so the congruence is unchanged, and for a
fixed order the reduced complete system is unique (Book and Otto,
*String-Rewriting Systems*, 1993): a run that completes yields the same
rules, without rediscovering ``v`` through critical pairs.  The seeds
are for completion only; ``lc.cwd`` and ``lc.rs.presentation`` hold the
unseeded presentation.

Every morphism of the localised category is a zigzag: an alternating
composite of forward base words and inverted denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .axioms import validate_functor
from .presentation import (
    CatPresentation,
    CatWithDenoms,
    ConstructionError,
    DenomSet,
    FunctorData,
    GenArrow,
    LimitExceeded,
    PathWord,
    Relation,
)
from .rewrite import (
    RewriteSystem,
    complete,
    denominators,
    find_inverse,
    normalize,
)

# Morphisms of a localised category are plain normal-form words over
# the extended presentation.
GzMorphism = PathWord


@dataclass(frozen=True)
class LocalisedCategory:
    """A completed presentation of the localisation of a category with
    denominators, kept as ``cwd`` and completed as ``rs``.

    ``inv_of`` maps each inverted generator (a denominator generator or
    a fresh composite) to its inverse letter, ``fresh_defs`` each fresh
    composite to its base word, and ``inverted`` each inverse letter to
    the base word it inverts.
    """

    cwd: CatWithDenoms
    rs: RewriteSystem
    inv_of: dict[str, str]
    fresh_defs: dict[str, PathWord]
    inverted: dict[str, PathWord]

    @property
    def presentation(self) -> CatPresentation:
        return self.cwd.cat

    def expand_fresh(self, w: PathWord) -> PathWord:
        """Rewrite fresh composite letters back to base letters."""
        letters: list[str] = []
        for x in w.letters:
            if x in self.fresh_defs:
                letters.extend(self.fresh_defs[x].letters)
            else:
                letters.append(x)
        return PathWord(w.src, w.dst, tuple(letters))


def fresh_name(stem: str, taken: set[str]) -> str:
    """``stem``, primed until it is not in ``taken``; the name is taken."""
    name = stem
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _base_inverses(rs_base: RewriteSystem,
                   inverted: dict[str, PathWord]) -> tuple[Relation, ...]:
    """``w^-1 = v`` for each inverted base word ``w`` with a base inverse ``v``.

    ``inverted`` maps inverse letters to the words they invert.  A word
    whose source cannot be reached from its target in the generator
    graph has an empty hom-set back, so its search is skipped; a search
    that exceeds the limits of ``rs_base`` seeds nothing.
    """
    out_gens = rs_base.presentation.out_gens
    reach: dict[str, set[str]] = {}
    seeded: list[Relation] = []
    for inv_name, w in inverted.items():
        if w.dst not in reach:
            seen, todo = {w.dst}, [w.dst]
            while todo:
                for g in out_gens.get(todo.pop(), ()):
                    if g.dst not in seen:
                        seen.add(g.dst)
                        todo.append(g.dst)
            reach[w.dst] = seen
        if w.src not in reach[w.dst]:
            continue
        try:
            v = find_inverse(rs_base, w)
        except LimitExceeded:
            continue
        if v is not None:
            seeded.append(Relation(PathWord(w.dst, w.src, (inv_name,)), v))
    return tuple(seeded)


def localise(c: CatWithDenoms, rs_base: RewriteSystem) -> LocalisedCategory:
    """Present the localisation of ``c`` and complete its rewriting system.

    Completion runs under the limits of ``rs_base``, on the presentation
    plus one seeded relation ``w^-1 = v`` for each inverted word ``w``
    with an inverse ``v`` in the base (``_base_inverses``).  It follows
    from ``w·w^-1 = 1`` and ``v·w = 1``, so the congruence, and for a
    completed run the unique reduced system, are those of the unseeded
    presentation, which ``lc.cwd`` and ``lc.rs.presentation`` hold.
    """
    cat = c.cat
    decider = denominators(c, rs_base)
    taken = {g.name for g in cat.generators}

    inv_of: dict[str, str] = {}
    inverted: dict[str, PathWord] = {}
    fresh_defs: dict[str, PathWord] = {}
    inverse_gens: list[GenArrow] = []
    fresh_gens: list[GenArrow] = []
    fresh_relations: list[Relation] = []
    invert_relations: list[Relation] = []

    def add_inverse(name: str, w: PathWord):
        src, dst = w.src, w.dst
        inv_name = fresh_name(f"{name}^-1", taken)
        inv_of[name] = inv_name
        inverted[inv_name] = w
        inverse_gens.append(GenArrow(inv_name, dst, src))
        invert_relations.append(Relation(
            PathWord(src, src, (name, inv_name)), PathWord(src, src, ())))
        invert_relations.append(Relation(
            PathWord(dst, dst, (inv_name, name)), PathWord(dst, dst, ())))

    for g in cat.generators:
        w = PathWord(g.src, g.dst, (g.name,))
        if decider.is_denominator(w) and not normalize(rs_base, w).is_identity_word:
            add_inverse(g.name, w)

    # one fresh generator per distinct composite explicit denominator
    composite_nfs: list[PathWord] = []
    seen_nfs: set[PathWord] = set()
    for w in c.denoms.explicit:
        nf = normalize(rs_base, w)
        if len(nf.letters) >= 2 and nf not in seen_nfs:
            seen_nfs.add(nf)
            composite_nfs.append(nf)
    composite_nfs.sort(key=cat.word_sort_key)
    for nf in composite_nfs:
        name = fresh_name("⟨" + "·".join(nf.letters) + "⟩", taken)
        fresh_defs[name] = nf
        fresh_gens.append(GenArrow(name, nf.src, nf.dst))
        fresh_relations.append(Relation(nf, PathWord(nf.src, nf.dst, (name,))))
        add_inverse(name, nf)

    ext = CatPresentation(
        objects=cat.objects,
        generators=cat.generators + tuple(fresh_gens) + tuple(inverse_gens),
        relations=cat.relations + tuple(fresh_relations) + tuple(invert_relations),
    )
    seeded = _base_inverses(rs_base, inverted)
    rs = complete(replace(ext, relations=ext.relations + seeded), rs_base.limits)
    rs = replace(rs, presentation=ext)
    cwd = CatWithDenoms(ext, DenomSet((), True, True))
    return LocalisedCategory(cwd=cwd, rs=rs, inv_of=inv_of,
                             fresh_defs=fresh_defs, inverted=inverted)


def loc_map(lc: LocalisedCategory, w: PathWord) -> GzMorphism:
    """Image of a base word under the localisation functor, normalized."""
    return normalize(lc.rs, w)


def gz_identity(lc: LocalisedCategory, obj: str) -> GzMorphism:
    return lc.presentation.identity(obj)


def gz_compose(lc: LocalisedCategory, *morphisms: GzMorphism) -> GzMorphism:
    return lc.rs.decode(lc.rs.compose(*map(lc.rs.encode, morphisms)))


def gz_inverse(lc: LocalisedCategory, m: GzMorphism) -> GzMorphism | None:
    """Shortlex-least two-sided inverse of ``m`` in the localisation."""
    return find_inverse(lc.rs, normalize(lc.rs, m))


def extend_to_localisation(lc_src: LocalisedCategory, lc_tgt: LocalisedCategory,
                           object_map: dict[str, str],
                           base_values: dict[str, GzMorphism],
                           fresh_value) -> FunctorData:
    """The functor ``lc_src -> lc_tgt`` fixed by its values on the base.

    Base generators go to ``base_values``, each fresh generator to
    ``fresh_value`` of the base word it names, and each inverse
    generator to the shortlex-least inverse of the image of what it
    inverts.  The images must be normal forms of ``lc_tgt``.  The
    caller validates the result.
    """
    gen_map = dict(base_values)
    for name, base_word in lc_src.fresh_defs.items():
        gen_map[name] = fresh_value(base_word)
    for name, inv_name in lc_src.inv_of.items():
        inverse = find_inverse(lc_tgt.rs, gen_map[name])
        if inverse is None:
            raise ConstructionError(
                f"image of denominator {name!r} has no inverse in the target "
                "localisation")
        gen_map[inv_name] = inverse
    return FunctorData(source=lc_src.cwd, target=lc_tgt.cwd,
                       object_map=dict(object_map), gen_map=gen_map)


def induced_functor(f: FunctorData, lc_src: LocalisedCategory,
                    lc_tgt: LocalisedCategory) -> FunctorData:
    """The functor between localisations induced by ``f``.

    Base generators and fresh ones go to the localised image of their
    ``f`` image (:func:`extend_to_localisation`), so the square with the
    localisation functors commutes on every generator by construction.
    """
    def image(w: PathWord) -> GzMorphism:
        return normalize(lc_tgt.rs, f.apply_word(w))

    ind = extend_to_localisation(
        lc_src, lc_tgt, f.object_map,
        {g.name: loc_map(lc_tgt, f.gen_map[g.name]) for g in f.source.cat.generators},
        image)
    problems = validate_functor(ind, lc_src.rs, lc_tgt.rs)
    if problems:
        raise ConstructionError(f"induced functor invalid: {problems[0]}")
    return ind


@dataclass(frozen=True)
class ZigzagSegment:
    """A forward base word followed by one inverted denominator.

    The segment is traversed as ``forward`` then ``inverted`` backwards,
    so ``forward.dst == inverted.dst`` and the traversal continues at
    ``inverted.src``.  The final segment of a zigzag has no inversion.
    """

    forward: PathWord
    inverted: PathWord | None


@dataclass(frozen=True)
class ZigzagView:
    """A localised morphism split into forward words and inverted denominators."""

    src: str
    dst: str
    segments: tuple[ZigzagSegment, ...]

    def render(self) -> str:
        parts: list[str] = []
        for seg in self.segments:
            if seg.forward.letters:
                parts.append("·".join(seg.forward.letters))
            if seg.inverted is not None:
                body = "·".join(seg.inverted.letters)
                parts.append(f"({body})^-1")
        if not parts:
            parts.append(f"1_{self.src}")
        return " · ".join(parts)


def zigzag_view(lc: LocalisedCategory, m: GzMorphism) -> ZigzagView:
    """Split a localised morphism into its zigzag of base words.

    Fresh composite letters are expanded back to base letters, inverse
    letters become inverted denominator words.  Recomposing the view
    recovers a word equal to ``m``, which is checked.
    """
    m = normalize(lc.rs, m)
    segments: list[ZigzagSegment] = []
    forward: list[str] = []
    fwd_src = m.src
    for letter in m.letters:
        inverted = lc.inverted.get(letter)
        if inverted is None:
            forward.append(letter)
            continue
        fwd_word = lc.expand_fresh(PathWord(fwd_src, inverted.dst,
                                            tuple(forward)))
        segments.append(ZigzagSegment(forward=fwd_word, inverted=inverted))
        forward = []
        fwd_src = inverted.src
    tail = PathWord(fwd_src, m.dst, tuple(forward))
    segments.append(ZigzagSegment(forward=lc.expand_fresh(tail), inverted=None))
    # the segments recompose to m with fresh letters expanded
    if normalize(lc.rs, lc.expand_fresh(m)) != m:
        raise ConstructionError("zigzag recomposition broken")
    return ZigzagView(src=m.src, dst=m.dst, segments=tuple(segments))
