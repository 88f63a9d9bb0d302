"""Checks on categories with denominators and on functors between them.

Multiplicativity asks that identities are denominators and that
composable denominators compose to denominators.  Isosaturation asks
that every isomorphism is a denominator.  Both are decided exactly on
the materialized denominator set, which represents every denominator
up to equality in the category.
"""

from __future__ import annotations

from .presentation import (
    CatWithDenoms,
    FunctorData,
    PathWord,
    TransformationData,
    ValidationError,
)
from .rewrite import (
    RewriteSystem,
    denominators,
    equal,
    find_inverse,
    homset,
    normalize,
)


def word_json(w: PathWord) -> dict:
    return {"src": w.src, "dst": w.dst, "letters": list(w.letters)}


def check_multiplicative(c: CatWithDenoms, rs: RewriteSystem
                         ) -> tuple[bool, dict | None]:
    """Identities and composites of denominators are denominators."""
    dec = denominators(c, rs)
    for x in c.cat.objects:
        if not dec.is_denominator(c.cat.identity(x)):
            return False, {"kind": "identity-not-denominator", "object": x,
                           "word": word_json(c.cat.identity(x))}
    mats = dec.materialized
    for u in mats:
        for v in mats:
            if u.dst == v.src and not dec.is_denominator(c.cat.concat(u, v)):
                return False, {"kind": "composite-not-denominator",
                               "first": word_json(u), "second": word_json(v)}
    return True, None


def check_isosaturated(c: CatWithDenoms, rs: RewriteSystem
                       ) -> tuple[bool, dict | None]:
    """Every isomorphism is a denominator."""
    dec = denominators(c, rs)
    for x in c.cat.objects:
        for y in c.cat.objects:
            for w in homset(rs, x, y):
                if find_inverse(rs, w) is not None and not dec.is_denominator(w):
                    return False, {"kind": "isomorphism-not-denominator",
                                   "word": word_json(w)}
    return True, None


def validate_functor(f: FunctorData, rs_src: RewriteSystem,
                     rs_tgt: RewriteSystem) -> list[dict]:
    """Structural and equational validity of a functor presentation.

    Checks totality of the maps, well-typedness of generator images,
    preservation of every relation and preservation of denominators.
    """
    problems: list[dict] = []
    src_cat, tgt_cat = f.source.cat, f.target.cat
    for x in src_cat.objects:
        if x not in f.object_map:
            problems.append({"kind": "object-not-mapped", "object": x})
        elif f.object_map[x] not in tgt_cat.obj_index:
            problems.append({"kind": "object-image-unknown", "object": x,
                             "image": f.object_map[x]})
    for name in f.object_map:
        if name not in src_cat.obj_index:
            problems.append({"kind": "object-map-extra-key", "object": name})
    for g in src_cat.generators:
        if g.name not in f.gen_map:
            problems.append({"kind": "generator-not-mapped", "generator": g.name})
            continue
        img = f.gen_map[g.name]
        try:
            rebuilt = tgt_cat.word(img.letters, src=img.src, dst=img.dst) \
                if img.letters else tgt_cat.identity(img.src)
        except ValidationError as e:
            problems.append({"kind": "generator-image-ill-formed",
                             "generator": g.name, "detail": str(e)})
            continue
        want = (f.object_map.get(g.src), f.object_map.get(g.dst))
        if (rebuilt.src, rebuilt.dst) != want:
            problems.append({"kind": "generator-image-endpoints",
                             "generator": g.name,
                             "expected": list(want),
                             "got": [rebuilt.src, rebuilt.dst]})
    for name in f.gen_map:
        if name not in src_cat.gen_by_name:
            problems.append({"kind": "gen-map-extra-key", "generator": name})
    if problems:
        return problems

    for i, rel in enumerate(src_cat.relations):
        if not equal(rs_tgt, f.apply_word(rel.lhs), f.apply_word(rel.rhs)):
            problems.append({"kind": "relation-not-preserved", "relation": i,
                             "lhs": word_json(rel.lhs), "rhs": word_json(rel.rhs)})
    dec_src = denominators(f.source, rs_src)
    dec_tgt = denominators(f.target, rs_tgt)
    for w in dec_src.materialized:
        if not dec_tgt.is_denominator(f.apply_word(w)):
            problems.append({"kind": "denominator-not-preserved",
                             "word": word_json(w),
                             "image": word_json(f.apply_word(w))})
    return problems


def check_reflects_denominators(f: FunctorData, rs_src: RewriteSystem,
                                rs_tgt: RewriteSystem
                                ) -> tuple[bool, dict | None]:
    """Does ``F w`` denominator imply ``w`` denominator, over all hom-sets?"""
    dec_src = denominators(f.source, rs_src)
    dec_tgt = denominators(f.target, rs_tgt)
    src_cat = f.source.cat
    for x in src_cat.objects:
        for y in src_cat.objects:
            for w in homset(rs_src, x, y):
                if dec_tgt.is_denominator(f.apply_word(w)) and not dec_src.is_denominator(w):
                    return False, {"kind": "denominator-not-reflected",
                                   "word": word_json(w),
                                   "image": word_json(f.apply_word(w))}
    return True, None


def check_transformation(t: TransformationData,
                         rs_tgt: RewriteSystem) -> list[dict]:
    """Naturality of ``t`` on every source generator."""
    problems: list[dict] = []
    src_cat = t.frm.source.cat
    tgt_cat = t.frm.target.cat
    for x in src_cat.objects:
        if x not in t.components:
            problems.append({"kind": "component-missing", "object": x})
            continue
        comp = t.components[x]
        want = (t.frm.object_map[x], t.to.object_map[x])
        if (comp.src, comp.dst) != want:
            problems.append({"kind": "component-endpoints", "object": x,
                             "expected": list(want), "got": [comp.src, comp.dst]})
    if problems:
        return problems
    for g in src_cat.generators:
        lhs = tgt_cat.concat(t.frm.apply_word(src_cat.word([g.name])),
                             t.components[g.dst])
        rhs = tgt_cat.concat(t.components[g.src],
                             t.to.apply_word(src_cat.word([g.name])))
        if not equal(rs_tgt, lhs, rhs):
            problems.append({"kind": "naturality-fails", "generator": g.name,
                             "lhs": word_json(normalize(rs_tgt, lhs)),
                             "rhs": word_json(normalize(rs_tgt, rhs))})
    return problems
