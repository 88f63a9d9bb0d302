"""Checks on categories with denominators and on functors between them.

Multiplicativity asks that identities are denominators and that
composable denominators compose to denominators.  Isosaturation asks
that every isomorphism is a denominator.  Both are decided exactly on
the materialized denominator set, which represents every denominator
up to equality in the category.  :func:`squares` is the one naturality
check, for the section's comparison and for every transformation the
verifier recomputes.
"""

from __future__ import annotations

from .presentation import FunctorData, PathWord
from .rewrite import (
    RewriteSystem,
    inverse,
    words,
)


def word_json(w: PathWord) -> dict:
    return {"src": w.src, "dst": w.dst, "letters": list(w.letters)}


def check_multiplicative(rs: RewriteSystem) -> tuple[bool, dict | None]:
    """Identities and composites of denominators are denominators, in
    the presentation of ``rs``.

    Every element of the closure is a composite of generating words, so
    the closure is closed under composition if it holds each of its
    elements times each generating word; that test runs first.  Only
    when it fails are all pairs scanned, in closure order, so the
    witness is the first failing pair.
    """
    dec = rs.denominators
    closure = dec.closure
    for x in rs.presentation.objects:
        if (x, x, "") not in closure:
            return False, {"kind": "identity-not-denominator", "object": x,
                           "word": word_json(rs.presentation.identity(x))}
    if all(rs.compose(u, g) in closure
           for u in closure for g in dec.generators if u[1] == g[0]):
        return True, None
    for u in closure:
        for v in closure:
            if u[1] == v[0] and rs.compose(u, v) not in closure:
                return False, {"kind": "composite-not-denominator",
                               "first": word_json(rs.decode(u)),
                               "second": word_json(rs.decode(v))}
    return True, None


def check_isosaturated(rs: RewriteSystem) -> tuple[bool, dict | None]:
    """Every isomorphism is a denominator, in the presentation of ``rs``."""
    closure, objects = rs.denominators.closure, rs.presentation.objects
    for x in objects:
        for y in objects:
            for s in words(rs, x, y):
                if inverse(rs, (x, y, s)) is not None and (x, y, s) not in closure:
                    return False, {"kind": "isomorphism-not-denominator",
                                   "word": word_json(rs.decode((x, y, s)))}
    return True, None


def validate_functor(f: FunctorData, rs_src: RewriteSystem,
                     rs_tgt: RewriteSystem) -> list[dict]:
    """Structural and equational validity of a functor presentation.

    Checks totality of the maps, the endpoints of the generator images,
    preservation of every relation and preservation of denominators, on
    codes (``load_functor`` checks that word images are words); only a
    witness is decoded.
    """
    problems: list[dict] = []
    src_cat, tgt_cat = f.source, f.target
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
        if g.name not in f.images:
            problems.append({"kind": "generator-not-mapped", "generator": g.name})
            continue
        got = list(f.images[g.name][:2])
        want = [f.object_map.get(g.src), f.object_map.get(g.dst)]
        # an unmapped or unknown endpoint is reported above, once
        if set(want) <= tgt_cat.obj_index.keys() and got != want:
            problems.append({"kind": "generator-image-endpoints",
                             "generator": g.name, "expected": want, "got": got})
    for name in f.images:
        if name not in src_cat.gen_by_name:
            problems.append({"kind": "gen-map-extra-key", "generator": name})
    if problems:
        return problems

    omap, table, nf = f.object_map, f.translation, rs_tgt.index
    for i, (lhs, rhs) in enumerate(src_cat.relations):
        if nf[lhs[2].translate(table)] != nf[rhs[2].translate(table)]:
            problems.append({"kind": "relation-not-preserved", "relation": i,
                             "lhs": word_json(src_cat.decode(lhs)),
                             "rhs": word_json(src_cat.decode(rhs))})
    tgt_closure = rs_tgt.denominators.closure
    for x, y, s in rs_src.denominators.closure:
        image = (omap[x], omap[y], s.translate(table))
        if rs_tgt.compose(image) not in tgt_closure:
            problems.append({"kind": "denominator-not-preserved",
                             "word": word_json(rs_src.decode((x, y, s))),
                             "image": word_json(rs_tgt.decode(image))})
    return problems


def check_reflects_denominators(f: FunctorData, rs_src: RewriteSystem,
                                rs_tgt: RewriteSystem
                                ) -> tuple[bool, dict | None]:
    """Does ``F w`` denominator imply ``w`` denominator, over all hom-sets?"""
    src_closure, tgt_closure = rs_src.denominators.closure, rs_tgt.denominators.closure
    objects, omap = f.source.objects, f.object_map
    for x in objects:
        for y in objects:
            for s in words(rs_src, x, y):
                # s is irreducible, so it is its own normal form
                image = (omap[x], omap[y], s.translate(f.translation))
                if rs_tgt.compose(image) in tgt_closure and (x, y, s) not in src_closure:
                    return False, {"kind": "denominator-not-reflected",
                                   "word": word_json(rs_src.decode((x, y, s))),
                                   "image": word_json(rs_tgt.decode(image))}
    return True, None


def squares(rs: RewriteSystem, ws, frm, comps: dict[str, tuple],
            to=None) -> tuple[int, bool]:
    """Naturality of ``comps`` from ``frm`` to ``to`` on each encoded word.

    The square at ``w`` is ``frm(w) . comps[dst w] = comps[src w] . to(w)``
    in ``rs``; ``to`` defaults to the identity.  It commutes when both
    sides have the same normal form.  Returns the squares checked and
    whether all commute; each is evaluated.
    """
    commute = []
    for w in ws:
        lhs = rs.compose(frm(w), comps[w[1]])
        rhs = rs.compose(comps[w[0]], w if to is None else to(w))
        commute.append(lhs == rhs)
    return len(commute), all(commute)
