"""Finite presentations of categories with denominators.

A category is presented by a finite list of objects, a finite list of
generating arrows and a finite list of relations between parallel
encoded words ``(src, dst, code)``, one character per generator
(:meth:`CatPresentation.encode`).  Words are written in diagrammatic
order: the word ``[f, g]`` means "f then g", so it requires
``dst(f) == src(g)``.  :class:`PathWord` spells a word by generator
names.  Words spelled by names enter only through the loaders of
:mod:`loccat.fileio`, which check and encode them in one pass
(:meth:`CatPresentation.word`, then :meth:`~CatPresentation.encode`);
codes are decoded only for reports and the public queries.

A category with denominators additionally carries a distinguished set
of morphisms, described intensionally by explicit encoded words plus
two closure flags (identities, composition).  Membership is decided in
:mod:`loccat.rewrite` relative to a completed rewriting system.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import count
from operator import attrgetter


class LoccatError(Exception):
    """Base class for all library errors."""


class ValidationError(LoccatError):
    """Structural validation of an input object failed."""


class PreconditionError(LoccatError):
    """A mathematical precondition of the requested operation fails.

    Carries a machine-readable ``witness`` describing the failure.
    """

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class LimitExceeded(LoccatError):
    """A resource bound was hit before the computation could finish.

    The result of the enclosing query is *undecided*, not false.
    """

    def __init__(self, bound: str, detail: str = ""):
        super().__init__(f"resource bound exceeded: {bound}"
                         + (f" ({detail})" if detail else ""))
        self.bound = bound
        self.detail = detail


class ConstructionError(LoccatError):
    """A derived presentation could not be realised within this encoding."""


class GenArrow(namedtuple("GenArrow", "name src dst")):
    """A generating arrow ``name: src -> dst``."""

    __slots__ = ()


class PathWord(namedtuple("PathWord", "src dst letters")):
    """A typed word of generator names from ``src`` to ``dst``.

    The empty word is the identity of ``src`` (== ``dst``).  A word is
    the tuple ``(src, dst, letters)``, so building, hashing and
    comparing one runs in C; it equals that plain tuple and orders
    like it.
    """

    __slots__ = ()

    def __new__(cls, src: str, dst: str, letters: tuple[str, ...] = ()):
        if not letters and src != dst:
            raise ValidationError("empty word must be an endo word")
        return tuple.__new__(cls, (src, dst, letters))

    def __len__(self) -> int:
        return len(self[2])


class CatPresentation(namedtuple("CatPresentation", "objects generators relations")):
    """A finite category presentation: ``objects``, ``generators`` (each a
    :class:`GenArrow`) and ``relations``.

    Objects and generators are ordered; the declaration order fixes the
    shortlex word order used by the rewriting kernel, so it is part of
    the presentation data.  Each relation is a pair of parallel encoded
    words ``(src, dst, code)`` (:meth:`encode`).  The cached tables live
    in the instance ``__dict__`` and take no part in equality.
    """

    @cached_property
    def obj_index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.objects)}

    @cached_property
    def gen_by_name(self) -> dict[str, GenArrow]:
        return {g.name: g for g in self.generators}

    @cached_property
    def codec(self) -> tuple[dict[str, str], dict[str, str]]:
        """Generator to code character and back; see :mod:`loccat.rewrite`."""
        code = dict(zip(map(attrgetter("name"), self.generators), map(chr, count(0x100))))
        return code, dict(zip(code.values(), code))

    def encode(self, w: PathWord) -> tuple[str, str, str]:
        """``w`` as ``(src, dst, code)``: its endpoints and encoded letters."""
        return w.src, w.dst, "".join(map(self.codec[0].__getitem__, w.letters))

    def decode(self, word: tuple[str, str, str]) -> PathWord:
        """The :class:`PathWord` of an encoded ``(src, dst, code)``."""
        src, dst, s = word
        return PathWord(src, dst, tuple(map(self.codec[1].__getitem__, s)))

    @cached_property
    def arrows(self) -> dict[str, tuple[str, str, str]]:
        """Each generator's code to its encoded one-letter word
        ``(src, dst, code)``, in declaration order."""
        return {c: (g.src, g.dst, c) for g, c in zip(self.generators, self.codec[1])}

    @cached_property
    def out_arrows(self) -> dict[str, list[tuple[str, str, str]]]:
        """The words of :attr:`arrows` by source object, in declaration order."""
        out: dict[str, list[tuple[str, str, str]]] = {}
        for w in self.arrows.values():
            out.setdefault(w[0], []).append(w)
        return out

    def identity(self, obj: str) -> PathWord:
        if obj not in self.obj_index:
            raise ValidationError(f"unknown object {obj!r}")
        return PathWord(obj, obj, ())

    def word(self, letters) -> PathWord:
        """The word of one or more generator names, its endpoints read off
        them; the empty word of ``x`` is :meth:`identity`."""
        letters = tuple(letters)
        if not letters:
            raise ValidationError("a word needs a letter; the empty word is identity(x)")
        gens = []
        for name in letters:
            g = self.gen_by_name.get(name)
            if g is None:
                raise ValidationError(f"unknown generator {name!r}")
            gens.append(g)
        for a, b in zip(gens, gens[1:]):
            if a.dst != b.src:
                raise ValidationError(
                    f"letters {a.name!r} and {b.name!r} do not compose: "
                    f"{a.dst!r} != {b.src!r}")
        return PathWord(gens[0].src, gens[-1].dst, letters)


class DenomSet(namedtuple("DenomSet", "explicit include_identities close_under_composition",
                          defaults=((), True, True))):
    """Intensional description of the denominators of a presentation.

    ``explicit`` lists the encoded words (:meth:`CatPresentation.encode`)
    that are denominators outright.  The flags close the set under
    identities and under binary composition of composable members.
    """

    __slots__ = ()


class CatWithDenoms(namedtuple("CatWithDenoms", "cat denoms")):
    """A presented category together with its denominator set."""

    __slots__ = ()


class FunctorData:
    """A functor between presented categories, given on generators:
    ``images`` maps each to an encoded word ``(src, dst, code)`` of the
    target (:meth:`CatPresentation.encode`); ``translation`` maps the
    code of a source word to the code of its image.  Two functors are
    equal when their categories, object maps and images are."""

    def __init__(self, source: CatWithDenoms, target: CatWithDenoms,
                 object_map: dict[str, str], images: dict[str, tuple[str, str, str]]):
        self.source, self.target = source, target
        self.object_map, self.images = object_map, images

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self.source, self.target, self.object_map, self.images)
            == (other.source, other.target, other.object_map, other.images))

    @cached_property
    def translation(self) -> dict[int, str]:
        """For ``str.translate``: each source code to the code of its image."""
        return {ord(c): self.images[x][2] for x, c in self.source.cat.codec[0].items()}

    def then(self, other: "FunctorData") -> "FunctorData":
        """Composite functor, ``self`` applied first."""
        if self.target is not other.source and self.target != other.source:
            raise ValidationError("functors do not compose: target != source")
        omap, table = other.object_map, other.translation
        return FunctorData(
            source=self.source,
            target=other.target,
            object_map={x: omap[y] for x, y in self.object_map.items()},
            images={g: (omap[src], omap[dst], s.translate(table))
                    for g, (src, dst, s) in self.images.items()},
        )


def validate_presentation(p: CatPresentation) -> list[dict]:
    """The structural violations among the objects and generators of ``p``,
    empty when well formed; the loaders check relation and denominator
    words as they encode them (:meth:`CatPresentation.word`)."""
    problems: list[dict] = []
    seen_objs: set[str] = set()
    for x in p.objects:
        if not x:
            problems.append({"kind": "empty-object-name"})
        if x in seen_objs:
            problems.append({"kind": "duplicate-object", "object": x})
        seen_objs.add(x)
    seen_gens: set[str] = set()
    for g in p.generators:
        if not g.name:
            problems.append({"kind": "empty-generator-name"})
        if g.name in seen_gens:
            problems.append({"kind": "duplicate-generator", "generator": g.name})
        seen_gens.add(g.name)
        for end, label in ((g.src, "src"), (g.dst, "dst")):
            if end not in seen_objs:
                problems.append({"kind": "unknown-object", "generator": g.name,
                                 "end": label, "object": end})
    return problems


def opposite(c: CatWithDenoms) -> CatWithDenoms:
    """The opposite category with denominators, codes reversed."""

    def rev(w: tuple[str, str, str]) -> tuple[str, str, str]:
        return w[1], w[0], w[2][::-1]

    cat = CatPresentation(
        objects=c.cat.objects,
        generators=tuple(GenArrow(g.name, g.dst, g.src) for g in c.cat.generators),
        relations=tuple((rev(lhs), rev(rhs)) for lhs, rhs in c.cat.relations),
    )
    denoms = c.denoms._replace(explicit=tuple(map(rev, c.denoms.explicit)))
    return CatWithDenoms(cat, denoms)


def identity_functor(c: CatWithDenoms) -> FunctorData:
    return FunctorData(
        source=c,
        target=c,
        object_map={x: x for x in c.cat.objects},
        images=dict(zip(c.cat.codec[0], c.cat.arrows.values())),
    )
