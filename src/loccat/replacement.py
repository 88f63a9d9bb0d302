"""Replacement triples along a functor and the category they form.

Given ``F: C -> D``, a replacement of an object ``Y`` of ``D`` is a
pair ``(X, q)`` with ``X`` an object of ``C`` and ``q: F X -> Y`` a
denominator of ``D``.  The triples ``(Y, X, q)`` are the objects of
the replacement category; a morphism ``(Y, X, q) -> (Y', X', q')`` is
just a morphism ``Y -> Y'`` of ``D``, composition and identities being
those of ``D``.

The replacement category is materialized as a finite presentation:
one lifted generator per generator of ``D`` and pair of triples over
its endpoints, plus lifted identity generators connecting distinct
triples over the same object.  After completion the hom-sets of the
materialization are checked to biject with the hom-sets of ``D``; the
construction refuses to hand out a presentation for which this fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axioms import check_transformation
from .gz import _fresh_name
from .presentation import (
    CatPresentation,
    CatWithDenoms,
    ConstructionError,
    DenomSet,
    FunctorData,
    GenArrow,
    PathWord,
    PreconditionError,
    Relation,
    TransformationData,
    ValidationError,
    identity_functor,
)
from .rewrite import (
    LimitExceeded,
    RewriteSystem,
    complete,
    denominators,
    equal,
    homset,
    normalize,
)


@dataclass(frozen=True)
class SReplacement:
    """A replacement ``(target, source, q)`` with ``q: F source -> target``."""

    target: str
    source: str
    q: PathWord


@dataclass(frozen=True)
class ReplacementChoice:
    """One chosen replacement per object of the target category."""

    assignment: tuple[tuple[str, SReplacement], ...]

    def get(self, y: str) -> SReplacement:
        for key, rep in self.assignment:
            if key == y:
                return rep
        raise KeyError(y)


def find_s_replacements(f: FunctorData, rs_tgt: RewriteSystem,
                        y: str) -> tuple[SReplacement, ...]:
    """All replacements of ``y`` along ``f``, deterministically ordered.

    Ordering: source object declaration order first, then shortlex on
    ``q`` in the target category.
    """
    dec = denominators(f.target, rs_tgt)
    out: list[SReplacement] = []
    for x in f.source.cat.objects:
        fx = f.object_map[x]
        for q in dec.denominators_between(fx, y):
            out.append(SReplacement(target=y, source=x, q=q))
    return tuple(out)


def has_enough(f: FunctorData, rs_tgt: RewriteSystem) -> tuple[bool, dict | None]:
    """Does every object of the target have a replacement along ``f``?"""
    for y in f.target.cat.objects:
        if not find_s_replacements(f, rs_tgt, y):
            return False, {"kind": "object-without-replacement", "object": y}
    return True, None


def has_all_trivial(f: FunctorData,
                    rs_tgt: RewriteSystem) -> tuple[bool, dict | None]:
    """Is ``(F X, X, identity)`` a replacement for every source object ``X``?"""
    dec = denominators(f.target, rs_tgt)
    for x in f.source.cat.objects:
        fx = f.object_map[x]
        if not dec.is_denominator(f.target.cat.identity(fx)):
            return False, {"kind": "identity-not-denominator",
                           "object": x, "identity_at": fx}
    return True, None


def compose_replacement(g: FunctorData, outer: SReplacement, inner: SReplacement,
                        rs_outer_tgt: RewriteSystem) -> SReplacement:
    """Replacement for a composite of functors.

    ``inner = (Y, X, q)`` replaces ``Y`` along the inner functor and
    ``outer = (Z, Y, r)`` replaces ``Z`` along ``g``; the result
    ``(Z, X, (g q) . r)`` replaces ``Z`` along the composite.
    """
    if outer.source != inner.target:
        raise ValidationError("replacements do not stack: outer source "
                              f"{outer.source!r} != inner target {inner.target!r}")
    composite_q = g.target.cat.concat(g.apply_word(inner.q), outer.q)
    dec = denominators(g.target, rs_outer_tgt)
    if not dec.is_denominator(composite_q):
        raise PreconditionError(
            "composite of the two denominators is not a denominator",
            witness={"word": {"src": composite_q.src, "dst": composite_q.dst,
                              "letters": list(composite_q.letters)}})
    return SReplacement(target=outer.target, source=inner.source,
                        q=normalize(rs_outer_tgt, composite_q))


def _route_lift(tgt_cat: CatPresentation, obj_names: tuple[str, ...],
                lookup: dict, canonical: dict[str, int],
                w: PathWord, i: int, j: int) -> PathWord:
    """Lift a target word to a word from triple ``i`` to triple ``j``.

    Intermediate objects route through their first triple; a word
    passing through an object without replacements has no lift in this
    materialization and raises :class:`ConstructionError`.
    """
    if not w.letters:
        if i == j:
            return PathWord(obj_names[i], obj_names[i], ())
        name = lookup.get((None, i, j))
        if name is None:
            raise ConstructionError(
                f"no lifted identity between triples {i} and {j}")
        return PathWord(obj_names[i], obj_names[j], (name,))
    gens = [tgt_cat.gen_by_name[x] for x in w.letters]
    stations = [i]
    for g in gens[:-1]:
        station = canonical.get(g.dst)
        if station is None:
            raise ConstructionError(
                f"object {g.dst!r} has no replacement triple to route through")
        stations.append(station)
    stations.append(j)
    letters = []
    for g, a, b in zip(gens, stations, stations[1:]):
        name = lookup.get((g.name, a, b))
        if name is None:
            raise ConstructionError(
                f"generator {g.name!r} has no lift between triples {a} and {b}")
        letters.append(name)
    return PathWord(obj_names[i], obj_names[j], tuple(letters))


def _over(triples) -> dict[str, tuple[int, ...]]:
    """The positions of the triples over each object, in triple order."""
    over: dict[str, list[int]] = {}
    for idx, t in enumerate(triples):
        over.setdefault(t.target, []).append(idx)
    return {y: tuple(idxs) for y, idxs in over.items()}


@dataclass
class ReplacementCategory:
    """The materialized replacement category of a functor."""

    functor: FunctorData
    rs_tgt: RewriteSystem
    triples: tuple[SReplacement, ...]
    obj_names: tuple[str, ...]
    cwd: CatWithDenoms
    rs: RewriteSystem
    lifted_underlying: dict[str, PathWord]
    lift_meta: dict[str, tuple]
    _lookup: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._lookup = {meta: name for name, meta in self.lift_meta.items()}
        self._triple_pos: dict[SReplacement, int] = {}
        for idx, t in enumerate(self.triples):
            self._triple_pos.setdefault(t, idx)
        self._over = _over(self.triples)
        self._canonical = {y: idxs[0] for y, idxs in self._over.items()}
        self._obj_pos = {name: idx for idx, name in enumerate(self.obj_names)}

    def index_of(self, rep: SReplacement) -> int:
        """Position of ``rep`` among the triples; ``ValueError`` if absent."""
        idx = self._triple_pos.get(rep)
        if idx is None:
            raise ValueError(f"{rep!r} is not a replacement triple")
        return idx

    def object_index(self, name: str) -> int:
        """Position of the object named ``name`` among the triples."""
        return self._obj_pos[name]

    def triples_over(self, y: str) -> tuple[int, ...]:
        return self._over.get(y, ())

    def underlying_word(self, w: PathWord) -> PathWord:
        """The word of the target category under a lifted word."""
        y_src = self.triples[self._obj_pos[w.src]].target
        y_dst = self.triples[self._obj_pos[w.dst]].target
        letters: list[str] = []
        for letter in w.letters:
            letters.extend(self.lifted_underlying[letter].letters)
        return PathWord(y_src, y_dst, tuple(letters))

    def lift_word(self, w: PathWord, i: int, j: int) -> PathWord:
        if self.triples[i].target != w.src or self.triples[j].target != w.dst:
            raise ConstructionError(
                f"word does not run between the objects under triples {i} and {j}")
        return _route_lift(self.functor.target.cat, self.obj_names,
                           self._lookup, self._canonical, w, i, j)


def build_replacement_category(f: FunctorData, rs_src: RewriteSystem,
                               rs_tgt: RewriteSystem) -> ReplacementCategory:
    """Materialize the replacement category of ``f`` as a presentation,
    completed under the limits of ``rs_tgt``."""
    dec = denominators(f.target, rs_tgt)
    tgt_cat = f.target.cat

    triples: list[SReplacement] = []
    for y in tgt_cat.objects:
        triples.extend(find_s_replacements(f, rs_tgt, y))
        if len(triples) > rs_tgt.limits.max_homset:
            raise LimitExceeded("max_homset",
                                "replacement category has too many objects")
    obj_names = tuple(
        f"({t.target}|{t.source}|{'·'.join(t.q.letters) or '1'})" for t in triples)
    over = _over(triples)
    canonical = {y: idxs[0] for y, idxs in over.items()}

    taken: set[str] = set()
    gens: list[GenArrow] = []
    lift_meta: dict[str, tuple] = {}
    lifted_underlying: dict[str, PathWord] = {}
    for g in tgt_cat.generators:
        for i in over.get(g.src, ()):
            for j in over.get(g.dst, ()):
                name = _fresh_name(f"{g.name}@{i}-{j}", taken)
                gens.append(GenArrow(name, obj_names[i], obj_names[j]))
                lift_meta[name] = (g.name, i, j)
                lifted_underlying[name] = tgt_cat.word([g.name])
    for y in tgt_cat.objects:
        idxs = over.get(y, ())
        for i in idxs:
            for j in idxs:
                if i != j:
                    name = _fresh_name(f"1@{i}-{j}", taken)
                    gens.append(GenArrow(name, obj_names[i], obj_names[j]))
                    lift_meta[name] = (None, i, j)
                    lifted_underlying[name] = tgt_cat.identity(y)

    lookup = {meta: name for name, meta in lift_meta.items()}

    def idw(i: int, j: int) -> PathWord:
        if i == j:
            return PathWord(obj_names[i], obj_names[i], ())
        return PathWord(obj_names[i], obj_names[j], (lookup[(None, i, j)],))

    relations: list[Relation] = []
    # lifted identities compose like identities
    for y in tgt_cat.objects:
        idxs = over.get(y, ())
        for i in idxs:
            for j in idxs:
                for k in idxs:
                    if i != j and j != k:
                        lhs = PathWord(obj_names[i], obj_names[k],
                                       idw(i, j).letters + idw(j, k).letters)
                        relations.append(Relation(lhs, idw(i, k)))
    # lifted identities absorb into lifted generators
    for name, (g_name, i, j) in lift_meta.items():
        if g_name is None:
            continue
        g = tgt_cat.gen_by_name[g_name]
        for i2 in over.get(g.src, ()):
            if i2 != i:
                lhs = PathWord(obj_names[i2], obj_names[j],
                               idw(i2, i).letters + (name,))
                relations.append(Relation(lhs, PathWord(
                    obj_names[i2], obj_names[j], (lookup[(g_name, i2, j)],))))
        for j2 in over.get(g.dst, ()):
            if j2 != j:
                lhs = PathWord(obj_names[i], obj_names[j2],
                               (name,) + idw(j, j2).letters)
                relations.append(Relation(lhs, PathWord(
                    obj_names[i], obj_names[j2], (lookup[(g_name, i, j2)],))))
    # relations of the target category, lifted along canonical routes;
    # unroutable instances are skipped, the hom-set check below is the
    # backstop that decides whether the materialization is faithful
    for rel in tgt_cat.relations:
        for i in over.get(rel.lhs.src, ()):
            for j in over.get(rel.lhs.dst, ()):
                try:
                    relations.append(Relation(
                        _route_lift(tgt_cat, obj_names, lookup, canonical,
                                    rel.lhs, i, j),
                        _route_lift(tgt_cat, obj_names, lookup, canonical,
                                    rel.rhs, i, j)))
                except ConstructionError:
                    continue

    pres = CatPresentation(objects=obj_names, generators=tuple(gens),
                           relations=tuple(relations))
    rs = complete(pres, rs_tgt.limits)

    # lifted denominators: every materialized word over a denominator
    explicit: list[PathWord] = []
    for i in range(len(triples)):
        for j in range(len(triples)):
            for w in homset(rs, obj_names[i], obj_names[j]):
                under = PathWord(triples[i].target, triples[j].target, tuple(
                    letter for x in w.letters
                    for letter in lifted_underlying[x].letters))
                if dec.is_denominator(under):
                    explicit.append(w)

    rc = ReplacementCategory(
        functor=f, rs_tgt=rs_tgt, triples=tuple(triples),
        obj_names=obj_names,
        cwd=CatWithDenoms(pres, DenomSet(tuple(explicit), False, False)),
        rs=rs, lifted_underlying=lifted_underlying, lift_meta=lift_meta)
    _verify_hom_bijection(rc)
    return rc


def _verify_hom_bijection(rc: ReplacementCategory):
    """Hom-sets of the materialization must biject with those of the target."""
    n = len(rc.triples)
    for i in range(n):
        for j in range(n):
            lifted = homset(rc.rs, rc.obj_names[i], rc.obj_names[j])
            base = homset(rc.rs_tgt, rc.triples[i].target, rc.triples[j].target)
            images = {normalize(rc.rs_tgt, rc.underlying_word(w))
                      for w in lifted}
            if len(images) != len(lifted) or images != set(base):
                raise ConstructionError(
                    "materialized replacement category does not match the "
                    f"target hom-set between triples {i} and {j}")


def forgetful(rc: ReplacementCategory) -> FunctorData:
    """The functor sending ``(Y, X, q)`` to ``Y`` and lifted words down."""
    return FunctorData(
        source=rc.cwd,
        target=rc.functor.target,
        object_map={rc.obj_names[i]: rc.triples[i].target
                    for i in range(len(rc.triples))},
        gen_map=dict(rc.lifted_underlying),
    )


def auto_choice(rc: ReplacementCategory) -> ReplacementChoice:
    """The first replacement of each object, in triple order."""
    assignment: list[tuple[str, SReplacement]] = []
    for y in rc.functor.target.cat.objects:
        over = rc.triples_over(y)
        if not over:
            raise PreconditionError(
                "not enough replacements for a choice",
                witness={"kind": "object-without-replacement", "object": y})
        assignment.append((y, rc.triples[over[0]]))
    return ReplacementChoice(tuple(assignment))


def validate_choice(rc: ReplacementCategory, choice: ReplacementChoice) -> None:
    tgt_objects = rc.functor.target.cat.objects
    keys = [y for y, _ in choice.assignment]
    if sorted(keys) != sorted(tgt_objects):
        raise ValidationError(
            "choice must assign exactly one replacement to every object")
    for y, rep in choice.assignment:
        if rep.target != y:
            raise ValidationError(f"choice for {y!r} replaces {rep.target!r}")
        if rep not in rc.triples:
            raise ValidationError(
                f"choice for {y!r} is not a valid replacement triple")


def structure_choice_functor(rc: ReplacementCategory, choice: ReplacementChoice
                             ) -> tuple[FunctorData, TransformationData]:
    """The section of the forgetful functor picked by a choice.

    Returns the functor ``C_R`` from the target category into the
    replacement category, together with the comparison transformation
    from ``C_R`` after the forgetful functor to the identity, whose
    components are lifted identities.  The forgetful functor after
    ``C_R`` is the identity of the target on the nose, checked here.
    """
    validate_choice(rc, choice)
    tgt_cat = rc.functor.target.cat
    chosen_idx = {y: rc.index_of(choice.get(y)) for y in tgt_cat.objects}
    gen_map: dict[str, PathWord] = {}
    for g in tgt_cat.generators:
        gen_map[g.name] = rc.lift_word(tgt_cat.word([g.name]),
                                       chosen_idx[g.src], chosen_idx[g.dst])
    c_r = FunctorData(
        source=rc.functor.target, target=rc.cwd,
        object_map={y: rc.obj_names[chosen_idx[y]] for y in tgt_cat.objects},
        gen_map=gen_map)

    u = forgetful(rc)
    round_trip = c_r.then(u)
    ident = identity_functor(rc.functor.target)
    if round_trip.object_map != ident.object_map:
        raise ConstructionError("U after C_R moves objects")
    for g in tgt_cat.generators:
        if round_trip.gen_map[g.name].letters != (g.name,):
            raise ConstructionError(
                "U after C_R is not the identity on generators")

    components: dict[str, PathWord] = {}
    for i, t in enumerate(rc.triples):
        j = chosen_idx[t.target]
        components[rc.obj_names[i]] = rc.lift_word(
            tgt_cat.identity(t.target), j, i)
    abar = TransformationData(frm=u.then(c_r), to=identity_functor(rc.cwd),
                              components=components)
    problems = check_transformation(abar, rc.rs)
    if problems:
        raise ConstructionError(
            f"choice comparison transformation not natural: {problems[0]}")
    return c_r, abar


def canonical_lift(f: FunctorData, rc: ReplacementCategory,
                   rs_tgt: RewriteSystem) -> FunctorData:
    """The lift ``X`` to ``(F X, X, identity)`` into the replacement category.

    Requires every identity at an image object to be a denominator.
    The forgetful functor after the lift equals ``f``, checked here.
    """
    ok, witness = has_all_trivial(f, rs_tgt)
    if not ok:
        raise PreconditionError("canonical lift needs trivial replacements",
                                witness=witness)
    src_cat = f.source.cat
    tgt_cat = f.target.cat
    trivial_idx: dict[str, int] = {}
    for x in src_cat.objects:
        fx = f.object_map[x]
        rep = SReplacement(target=fx, source=x, q=tgt_cat.identity(fx))
        trivial_idx[x] = rc.index_of(rep)
    gen_map: dict[str, PathWord] = {}
    for g in src_cat.generators:
        image = normalize(rs_tgt, f.apply_word(src_cat.word([g.name])))
        gen_map[g.name] = rc.lift_word(image, trivial_idx[g.src],
                                       trivial_idx[g.dst])
    lift = FunctorData(
        source=f.source, target=rc.cwd,
        object_map={x: rc.obj_names[trivial_idx[x]] for x in src_cat.objects},
        gen_map=gen_map)
    round_trip = lift.then(forgetful(rc))
    for x in src_cat.objects:
        if round_trip.object_map[x] != f.object_map[x]:
            raise ConstructionError(
                f"forgetful after canonical lift moves object {x!r}")
    for g in src_cat.generators:
        if not equal(rs_tgt, round_trip.gen_map[g.name],
                     f.apply_word(src_cat.word([g.name]))):
            raise ConstructionError(
                "forgetful after canonical lift differs from the functor")
    return lift
