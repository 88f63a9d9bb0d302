"""Finite presentations of categories with denominators.

A category is presented by a finite list of objects, a finite list of
generating arrows and a finite list of relations between parallel path
words.  Words are written in diagrammatic order: the word ``[f, g]``
means "f then g", so it requires ``dst(f) == src(g)``.

A category with denominators additionally carries a distinguished set
of morphisms, described intensionally by explicit words plus two
closure flags (identities, composition).  Membership is decided in
:mod:`loccat.rewrite` relative to a completed rewriting system.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property


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
class Relation:
    """An equation ``lhs == rhs`` between parallel words."""

    lhs: PathWord
    rhs: PathWord

    def __post_init__(self):
        if self.lhs.src != self.rhs.src or self.lhs.dst != self.rhs.dst:
            raise ValidationError("relation sides must be parallel")


@dataclass(frozen=True)
class CatPresentation:
    """A finite category presentation.

    Objects and generators are ordered; the declaration order fixes the
    shortlex word order used by the rewriting kernel, so it is part of
    the presentation data.
    """

    objects: tuple[str, ...]
    generators: tuple[GenArrow, ...]
    relations: tuple[Relation, ...]

    @cached_property
    def obj_index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.objects)}

    @cached_property
    def gen_by_name(self) -> dict[str, GenArrow]:
        return {g.name: g for g in self.generators}

    @cached_property
    def gen_index(self) -> dict[str, int]:
        return {g.name: i for i, g in enumerate(self.generators)}

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

    ``explicit`` lists words that are denominators outright.  The flags
    close the set under identities and under binary composition of
    composable members.
    """

    explicit: tuple[PathWord, ...] = ()
    include_identities: bool = True
    close_under_composition: bool = True


@dataclass(frozen=True)
class CatWithDenoms:
    """A presented category together with its denominator set."""

    cat: CatPresentation
    denoms: DenomSet


@dataclass
class FunctorData:
    """A functor between presented categories, given on generators."""

    source: CatWithDenoms
    target: CatWithDenoms
    object_map: dict[str, str]
    gen_map: dict[str, PathWord]

    def apply_word(self, w: PathWord) -> PathWord:
        out = self.target.cat.identity(self.object_map[w.src])
        for letter in w.letters:
            out = self.target.cat.concat(out, self.gen_map[letter])
        return out

    def then(self, other: "FunctorData") -> "FunctorData":
        """Composite functor, ``self`` applied first."""
        if self.target is not other.source and self.target != other.source:
            raise ValidationError("functors do not compose: target != source")
        return FunctorData(
            source=self.source,
            target=other.target,
            object_map={x: other.object_map[y]
                        for x, y in self.object_map.items()},
            gen_map={g: other.apply_word(w) for g, w in self.gen_map.items()},
        )


@dataclass
class TransformationData:
    """A transformation between parallel functors, one component per object."""

    frm: FunctorData
    to: FunctorData
    components: dict[str, PathWord]


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
    for i, rel in enumerate(p.relations):
        for side, label in ((rel.lhs, "lhs"), (rel.rhs, "rhs")):
            issue = _word_issue(p, side)
            if issue is not None:
                problems.append({"kind": "ill-formed-word", "relation": i,
                                 "side": label, **issue})
        if (rel.lhs.src, rel.lhs.dst) != (rel.rhs.src, rel.rhs.dst):
            problems.append({"kind": "relation-not-parallel", "relation": i})
    return problems


def validate_cat_with_denoms(c: CatWithDenoms) -> list[dict]:
    problems = validate_presentation(c.cat)
    for i, w in enumerate(c.denoms.explicit):
        issue = _word_issue(c.cat, w)
        if issue is not None:
            problems.append({"kind": "ill-formed-denominator", "index": i, **issue})
    return problems


def _word_issue(p: CatPresentation, w: PathWord) -> dict | None:
    if not w.letters:
        if w.src not in p.obj_index:
            return {"detail": f"unknown object {w.src!r}"}
        return None
    try:
        rebuilt = p.word(w.letters)
    except ValidationError as e:
        return {"detail": str(e)}
    if (rebuilt.src, rebuilt.dst) != (w.src, w.dst):
        return {"detail": "declared endpoints do not match letters"}
    return None


def opposite(c: CatWithDenoms) -> CatWithDenoms:
    """The opposite category with denominators, words reversed."""

    def rev(w: PathWord) -> PathWord:
        return PathWord(w.dst, w.src, tuple(reversed(w.letters)))

    cat = CatPresentation(
        objects=c.cat.objects,
        generators=tuple(GenArrow(g.name, g.dst, g.src) for g in c.cat.generators),
        relations=tuple(Relation(rev(r.lhs), rev(r.rhs)) for r in c.cat.relations),
    )
    denoms = replace(c.denoms, explicit=tuple(rev(w) for w in c.denoms.explicit))
    return CatWithDenoms(cat, denoms)


def identity_functor(c: CatWithDenoms) -> FunctorData:
    return FunctorData(
        source=c,
        target=c,
        object_map={x: x for x in c.cat.objects},
        gen_map={g.name: c.cat.word([g.name]) for g in c.cat.generators},
    )
