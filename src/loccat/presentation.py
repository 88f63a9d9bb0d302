"""Finite presentations of categories with denominators.

A category is presented by a finite list of objects, a finite list of
generating arrows and a finite list of relations between parallel
encoded words ``(src, dst, code)``, one character per generator
(:meth:`CatPresentation.encode`).  Words are written in diagrammatic
order: the word ``[f, g]`` means "f then g", so it requires
``dst(f) == src(g)``.  :class:`PathWord` spells a word by generator
names; :meth:`CatPresentation.from_words` builds a presentation from
relations so spelled.

A category with denominators additionally carries a distinguished set
of morphisms, described intensionally by explicit encoded words plus
two closure flags (identities, composition).  Membership is decided in
:mod:`loccat.rewrite` relative to a completed rewriting system.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class GenArrow:
    """A generating arrow ``name: src -> dst``."""

    name: str
    src: str
    dst: str


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

    @property
    def is_identity_word(self) -> bool:
        return not self[2]

    def __len__(self) -> int:
        return len(self[2])


@dataclass(frozen=True)
class CatPresentation:
    """A finite category presentation.

    Objects and generators are ordered; the declaration order fixes the
    shortlex word order used by the rewriting kernel, so it is part of
    the presentation data.  Each relation is a pair of parallel encoded
    words ``(src, dst, code)`` (:meth:`encode`); :meth:`from_words`
    builds a presentation from :class:`PathWord` sides.
    """

    objects: tuple[str, ...]
    generators: tuple[GenArrow, ...]
    relations: tuple[tuple[tuple[str, str, str], tuple[str, str, str]], ...]

    @classmethod
    def from_words(cls, objects, generators, relations) -> "CatPresentation":
        """The presentation with the relations ``relations``, pairs of
        :class:`PathWord` sides; :class:`ValidationError` unless each side
        is a word of it and the two are parallel."""
        bare = cls(tuple(objects), tuple(generators), ())
        coded = []
        for i, sides in enumerate(relations):
            lhs, rhs = (_checked_code(bare, w, f"relation {i}") for w in sides)
            if lhs[:2] != rhs[:2]:
                raise ValidationError(f"relation {i}: sides must be parallel")
            coded.append((lhs, rhs))
        return replace(bare, relations=tuple(coded))

    @cached_property
    def obj_index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.objects)}

    @cached_property
    def gen_by_name(self) -> dict[str, GenArrow]:
        return {g.name: g for g in self.generators}

    @cached_property
    def gen_index(self) -> dict[str, int]:
        return {g.name: i for i, g in enumerate(self.generators)}

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
    def out_gens(self) -> dict[str, list[GenArrow]]:
        out: dict[str, list[GenArrow]] = {}
        for g in self.generators:
            out.setdefault(g.src, []).append(g)
        return out

    def identity(self, obj: str) -> PathWord:
        if obj not in self.obj_index:
            raise ValidationError(f"unknown object {obj!r}")
        return PathWord(obj, obj, ())

    def word(self, letters, src: str | None = None, dst: str | None = None) -> PathWord:
        """Build a validated word from generator names.

        Endpoints are inferred from the letters; for the empty word they
        must be supplied explicitly.
        """
        letters = tuple(letters)
        if not letters:
            if src is None or dst is None or src != dst:
                raise ValidationError("empty word needs matching explicit endpoints")
            return self.identity(src)
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
        w = PathWord(gens[0].src, gens[-1].dst, letters)
        if src is not None and src != w.src:
            raise ValidationError(f"word source {w.src!r} != declared {src!r}")
        if dst is not None and dst != w.dst:
            raise ValidationError(f"word target {w.dst!r} != declared {dst!r}")
        return w

    def concat(self, first: PathWord, second: PathWord) -> PathWord:
        if first.dst != second.src:
            raise ValidationError(
                f"words do not compose: {first.dst!r} != {second.src!r}")
        if not first.letters:
            return second
        if not second.letters:
            return first
        return PathWord(first.src, second.dst, first.letters + second.letters)

    def shortlex_key(self, w: PathWord) -> tuple:
        # length first, then generator declaration order letter by letter
        return (len(w.letters), tuple(self.gen_index[x] for x in w.letters))

    def word_sort_key(self, w: PathWord) -> tuple:
        # global deterministic order across hom-sets
        return (self.obj_index[w.src], self.obj_index[w.dst],
                self.shortlex_key(w))


@dataclass(frozen=True)
class DenomSet:
    """Intensional description of the denominators of a presentation.

    ``explicit`` lists the encoded words (:meth:`CatPresentation.encode`)
    that are denominators outright.  The flags close the set under
    identities and under binary composition of composable members.
    """

    explicit: tuple[tuple[str, str, str], ...] = ()
    include_identities: bool = True
    close_under_composition: bool = True


@dataclass(frozen=True)
class CatWithDenoms:
    """A presented category together with its denominator set."""

    cat: CatPresentation
    denoms: DenomSet


@dataclass
class FunctorData:
    """A functor between presented categories, given on generators:
    ``images`` maps each to an encoded word ``(src, dst, code)`` of the
    target (:meth:`CatPresentation.encode`).  :meth:`from_words` builds
    one from :class:`PathWord` images, and ``gen_map`` decodes them."""

    source: CatWithDenoms
    target: CatWithDenoms
    object_map: dict[str, str]
    images: dict[str, tuple[str, str, str]]

    @classmethod
    def from_words(cls, source: CatWithDenoms, target: CatWithDenoms,
                   object_map: dict[str, str], gen_map: dict[str, PathWord]) -> "FunctorData":
        """The functor with the images ``gen_map``; :class:`ValidationError`
        unless each is a word of the target."""
        return cls(source, target, object_map, {
            g: _checked_code(target.cat, w, f"image of {g!r}") for g, w in gen_map.items()})

    @cached_property
    def gen_map(self) -> dict[str, PathWord]:
        """The images as :class:`PathWord` objects, decoded on first read."""
        return {g: self.target.cat.decode(w) for g, w in self.images.items()}

    def apply_word(self, w: PathWord) -> PathWord:
        """The image of ``w``, unnormalised and unchecked, as a word:
        :func:`~loccat.axioms.validate_functor`, which ``prepare`` and
        ``loccat validate`` run first, rejects ill-typed images."""
        s = self.source.cat.encode(w)[2].translate(self.translation)
        return self.target.cat.decode((self.object_map[w.src], self.object_map[w.dst], s))

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


@dataclass
class TransformationData:
    """A transformation between parallel functors, one encoded component per object."""

    frm: FunctorData
    to: FunctorData
    components: dict[str, tuple[str, str, str]]


def validate_presentation(p: CatPresentation) -> list[dict]:
    """Return a list of structural violations, empty when well formed."""
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
    for i, (lhs, rhs) in enumerate(p.relations):
        for side, label in ((lhs, "lhs"), (rhs, "rhs")):
            issue = _word_issue(p, side)
            if issue is not None:
                problems.append({"kind": "ill-formed-word", "relation": i,
                                 "side": label, **issue})
        if lhs[:2] != rhs[:2]:
            problems.append({"kind": "relation-not-parallel", "relation": i})
    return problems


def validate_cat_with_denoms(c: CatWithDenoms) -> list[dict]:
    problems = validate_presentation(c.cat)
    for i, w in enumerate(c.denoms.explicit):
        issue = _word_issue(c.cat, w)
        if issue is not None:
            problems.append({"kind": "ill-formed-denominator", "index": i, **issue})
    return problems


def _word_issue(p: CatPresentation, w: tuple[str, str, str]) -> dict | None:
    """Why the encoded ``w`` is not a word of ``p``, or None."""
    src, dst, s = w
    if not s:
        if src not in p.obj_index:
            return {"detail": f"unknown object {src!r}"}
        return None if src == dst else {"detail": "empty word must be an endo word"}
    names = p.codec[1]
    unknown = next((c for c in s if c not in names), None)
    if unknown is not None:
        return {"detail": f"unknown generator code {unknown!r}"}
    gens = [p.gen_by_name[names[c]] for c in s]
    for a, b in zip(gens, gens[1:]):
        if a.dst != b.src:
            return {"detail": f"letters {a.name!r} and {b.name!r} do not compose: "
                              f"{a.dst!r} != {b.src!r}"}
    if (gens[0].src, gens[-1].dst) != (src, dst):
        return {"detail": "declared endpoints do not match letters"}
    return None


def _checked_code(p: CatPresentation, w: PathWord, what: str) -> tuple[str, str, str]:
    """``w`` encoded; :class:`ValidationError` naming ``what`` unless it is a word of ``p``."""
    unknown = next((x for x in w.letters if x not in p.gen_by_name), None)
    issue = ({"detail": f"unknown generator {unknown!r}"} if unknown is not None
             else _word_issue(p, code := p.encode(w)))
    if issue is not None:
        raise ValidationError(f"{what}: {issue['detail']}")
    return code


def opposite(c: CatWithDenoms) -> CatWithDenoms:
    """The opposite category with denominators, codes reversed."""

    def rev(w: tuple[str, str, str]) -> tuple[str, str, str]:
        return w[1], w[0], w[2][::-1]

    cat = CatPresentation(
        objects=c.cat.objects,
        generators=tuple(GenArrow(g.name, g.dst, g.src) for g in c.cat.generators),
        relations=tuple((rev(lhs), rev(rhs)) for lhs, rhs in c.cat.relations),
    )
    denoms = replace(c.denoms, explicit=tuple(map(rev, c.denoms.explicit)))
    return CatWithDenoms(cat, denoms)


def identity_functor(c: CatWithDenoms) -> FunctorData:
    return FunctorData(
        source=c,
        target=c,
        object_map={x: x for x in c.cat.objects},
        images={g.name: (g.src, g.dst, c.cat.codec[0][g.name]) for g in c.cat.generators},
    )
