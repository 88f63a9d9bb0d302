"""Localisation of a category with denominators by formal inverses.

The localised category is the base presentation extended with one
inverse generator per denominator generator, and one fresh generator
plus inverse per explicit composite denominator word.  Composite
denominators that only arise from the composition closure flag need no
generators of their own: their inverses are composites of the factor
inverses.  Words whose normal form is an identity are already
invertible and are elided.  :func:`extension` builds that presentation
and its letter tables, and :func:`localise` builds its system.

Completion also gets one seeded relation ``w^-1 = v`` for each inverted
word ``w`` that already has an inverse ``v`` in the base, as every
element of a group does.  It follows from the others
(``w^-1 = v·w·w^-1 = v``), so the congruence is unchanged, and for a
fixed order the reduced complete system is unique (Book and Otto,
*String-Rewriting Systems*, 1993): a run that completes yields the same
rules, without rediscovering ``v`` through critical pairs.  The seeds
go to the system alone, which traces them where it enumerates;
``lc.presentation`` holds the unseeded presentation.

Every morphism of the localised category is a zigzag: an alternating
composite of forward base words and inverted denominators.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce

from .axioms import validate_functor
from .presentation import (
    CatPresentation,
    ConstructionError,
    DenomSet,
    FunctorData,
    GenArrow,
    LimitExceeded,
)
from .rewrite import (
    RewriteSystem,
    inverse,
    present,
)


class LocalisedCategory(namedtuple("LocalisedCategory",
                                   "presentation rs inv_of fresh_defs inverted")):
    """A presentation of the localisation of a category with
    denominators, kept as ``presentation`` and answered by ``rs``: its
    system (:func:`localise`), or an inflation of another localisation
    (:meth:`~loccat.replacement.ReplacementCategory.localised`).  Its
    denominators are the identities, closed under composition.

    ``inv_of`` maps each inverted generator (a denominator generator or
    a fresh composite) to its inverse letter, ``fresh_defs`` each fresh
    composite to its base word, and ``inverted`` each inverse letter to
    the base word it inverts.  The base words are encoded normal forms
    ``(src, dst, code)`` of the base system; the extension declares its
    generators after the base ones, so they are words of ``rs`` too.
    """

    @cached_property
    def zigzag_tables(self) -> tuple[dict[int, str], dict[str, tuple[str, str, str]]]:
        """For :func:`zigzag_view`: fresh letters to base codes, for
        ``str.translate``, and inverse letters to the words they invert."""
        code = self.presentation.codec[0]
        return (str.maketrans({code[n]: w[2] for n, w in self.fresh_defs.items()}),
                {code[n]: w for n, w in self.inverted.items()})


def fresh_name(stem: str, taken: set[str]) -> str:
    """``stem``, primed until it is not in ``taken``; the name is taken."""
    name = stem
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _base_inverses(rs_base: RewriteSystem, lc: LocalisedCategory) -> tuple[tuple, ...]:
    """``w^-1 = v``, encoded, for each word ``w`` that ``lc`` inverts
    with an inverse ``v`` in the base.

    A word whose source cannot be reached from its target in the
    generator graph has an empty hom-set back, so its search is skipped;
    a search that exceeds the limits of ``rs_base`` seeds nothing.
    """
    out, code = rs_base.presentation.out_arrows, lc.presentation.codec[0]
    reach: dict[str, set[str]] = {}
    seeded: list[tuple] = []
    for inv_name, w in lc.inverted.items():
        src, dst, _ = w
        if dst not in reach:
            seen, todo = {dst}, [dst]
            while todo:
                for _, y, _ in out.get(todo.pop(), ()):
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            reach[dst] = seen
        if src not in reach[dst]:
            continue
        try:
            v = inverse(rs_base, w)
        except LimitExceeded:
            continue
        if v is not None:
            seeded.append(((dst, src, code[inv_name]), v))
    return tuple(seeded)


def extension(rs_base: RewriteSystem) -> LocalisedCategory:
    """The presentation of the localisation of the presentation of
    ``rs_base`` at its denominators, and its letter tables.

    The result's ``rs`` is None: :func:`localise` completes the
    presentation, and
    :meth:`~loccat.replacement.ReplacementCategory.localised` answers it
    through the localised target.
    """
    cat, dec = rs_base.presentation, rs_base.denominators
    taken = {g.name for g in cat.generators}

    inv_of: dict[str, str] = {}
    inverted: dict[str, tuple] = {}
    fresh_defs: dict[str, tuple] = {}
    inverse_gens: list[GenArrow] = []
    fresh_gens: list[GenArrow] = []

    def add_inverse(name: str, word: tuple):
        src, dst, _ = word
        inv_name = fresh_name(f"{name}^-1", taken)
        inv_of[name] = inv_name
        inverted[inv_name] = word
        inverse_gens.append(GenArrow(inv_name, dst, src))

    code, spell = cat.codec
    for name, w in zip(code, cat.arrows.values()):
        nf = rs_base.compose(w)
        if nf[2] and nf in dec.closure:
            add_inverse(name, w)

    # one fresh generator per distinct composite explicit denominator
    composites = [nf for nf in dec.generators if len(nf[2]) >= 2]
    for word in sorted(composites, key=rs_base.sort_key):
        name = fresh_name("⟨" + "·".join(map(spell.__getitem__, word[2])) + "⟩", taken)
        fresh_defs[name] = word
        fresh_gens.append(GenArrow(name, word[0], word[1]))
        add_inverse(name, word)

    # the base generators come first, so base codes are codes here too
    bare = CatPresentation(cat.objects, cat.generators + tuple(fresh_gens) + tuple(inverse_gens),
                           (), DenomSet((), True, True))
    code = bare.codec[0]
    relations = [(w, (w[0], w[1], code[name])) for name, w in fresh_defs.items()]
    for name, inv_name in inv_of.items():
        src, dst, _ = inverted[inv_name]
        relations += [((src, src, code[name] + code[inv_name]), (src, src, "")),
                      ((dst, dst, code[inv_name] + code[name]), (dst, dst, ""))]
    ext = bare._replace(relations=cat.relations + tuple(relations))
    return LocalisedCategory(presentation=ext, rs=None,
                             inv_of=inv_of, fresh_defs=fresh_defs, inverted=inverted)


def localise(rs_base: RewriteSystem) -> LocalisedCategory:
    """Present the localisation of the presentation of ``rs_base`` and
    build its system (:func:`present`).

    Completion runs under the limits of ``rs_base``, on the presentation
    of :func:`extension`, seeded with one relation ``w^-1 = v`` for each
    inverted word ``w`` with an inverse ``v`` in the base
    (``_base_inverses``).  It follows from ``w·w^-1 = 1`` and
    ``v·w = 1``, so the congruence, and for a completed run the unique
    reduced system, are those of the unseeded presentation, which
    ``lc.presentation`` holds.
    """
    lc = extension(rs_base)
    rs = present(lc.presentation, rs_base.limits, _base_inverses(rs_base, lc))
    return lc._replace(rs=rs)


def through(lc: LocalisedCategory, *functors: FunctorData):
    """An encoded word sent through ``functors`` in turn, normalised in
    ``lc.rs``; ``lc`` may also be a replacement category."""
    functor = reduce(FunctorData.then, functors)
    omap, table, nf = functor.object_map, functor.translation, lc.rs.index.__getitem__
    return lambda w: (omap[w[0]], omap[w[1]], nf(w[2].translate(table)))


def extend_to_localisation(lc_src: LocalisedCategory, lc_tgt: LocalisedCategory,
                           base: FunctorData, fresh_value) -> FunctorData:
    """The functor ``lc_src -> lc_tgt`` that agrees with ``base`` on the base.

    ``base`` runs from the base of ``lc_src`` into ``lc_tgt``.  Base
    generators go to their images under it, each fresh generator to
    ``fresh_value`` of the encoded base word it names, and each inverse
    generator to the shortlex-least inverse of the image of what it
    inverts.  The images are encoded normal forms of ``lc_tgt``.  The
    caller validates the result.
    """
    p, image = base.source, through(lc_tgt, base)
    values = dict(zip(p.codec[0], map(image, p.arrows.values())))
    for name, base_word in lc_src.fresh_defs.items():
        values[name] = fresh_value(base_word)
    for name, inv_name in lc_src.inv_of.items():
        values[inv_name] = inverse(lc_tgt.rs, values[name])
        if values[inv_name] is None:
            raise ConstructionError(
                f"image of denominator {name!r} has no inverse in the target "
                "localisation")
    return FunctorData(source=lc_src.presentation, target=lc_tgt.presentation,
                       object_map=dict(base.object_map), images=values)


def induced_functor(f: FunctorData, lc_src: LocalisedCategory,
                    lc_tgt: LocalisedCategory) -> FunctorData:
    """The functor between localisations induced by ``f``.

    Base generators and fresh ones go to the localised image of their
    ``f`` image (:func:`extend_to_localisation`), so the square with the
    localisation functors commutes on every generator by construction.
    """
    return checked(extend_to_localisation(lc_src, lc_tgt, f, through(lc_tgt, f)),
                   lc_src, lc_tgt)


def checked(functor: FunctorData, lc_src: LocalisedCategory,
            lc_tgt: LocalisedCategory) -> FunctorData:
    """``functor`` between two localisations, if it is valid; else
    :class:`ConstructionError` with its first problem."""
    problems = validate_functor(functor, lc_src.rs, lc_tgt.rs)
    if problems:
        raise ConstructionError(f"induced functor invalid: {problems[0]}")
    return functor


class ZigzagSegment(namedtuple("ZigzagSegment", "forward inverted")):
    """A forward base word followed by one inverted denominator.

    The segment is traversed as ``forward`` then ``inverted`` backwards,
    so ``forward.dst == inverted.dst`` and the traversal continues at
    ``inverted.src``.  The final segment of a zigzag has no inversion.
    """

    __slots__ = ()


class ZigzagView(namedtuple("ZigzagView", "src dst segments")):
    """A localised morphism split into forward words and inverted denominators."""

    __slots__ = ()

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


def zigzag_view(lc: LocalisedCategory, m: tuple[str, str, str]) -> ZigzagView:
    """Split a localised morphism, the encoded word ``m``, into its zigzag.

    Fresh composite letters are expanded back to base letters, inverse
    letters become inverted denominator words, and only the segments
    returned are decoded.  Recomposing the view recovers a word equal
    to ``m``, which is checked.
    """
    rs, (expand, inverted) = lc.rs, lc.zigzag_tables
    src, dst, s = rs.compose(m)
    segments: list[ZigzagSegment] = []
    start, fwd_src = 0, src
    for i, letter in enumerate(s):
        w = inverted.get(letter)
        if w is not None:
            forward = (fwd_src, w[1], s[start:i].translate(expand))
            segments.append(ZigzagSegment(rs.decode(forward), rs.decode(w)))
            start, fwd_src = i + 1, w[0]
    tail = (fwd_src, dst, s[start:].translate(expand))
    segments.append(ZigzagSegment(rs.decode(tail), None))
    # the segments recompose to m with fresh letters expanded
    if rs.index[s.translate(expand)] != s:
        raise ConstructionError("zigzag recomposition broken")
    return ZigzagView(src=src, dst=dst, segments=tuple(segments))
