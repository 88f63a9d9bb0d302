"""Replacement functors and the approximation theorem, verified pointwise.

Given ``F: C -> D`` relatively full and faithful with multiplicative
target denominators, every lifted morphism of the replacement category
has a unique fill, and those fills assemble into a functor from the
replacement category to the localisation of ``C``.  A choice of
replacements turns it into a functor on ``D`` itself, which factors
uniquely through the localisation of ``D``.  The resulting functor and
the induced localised functor are mutually inverse equivalences, with
explicit comparison transformations:

* ``alpha`` at a source object ``X'`` is the unique fill from the
  chosen replacement of ``F X'`` to the trivial one ``(F X', X', 1)``;
* ``beta`` at a target object ``Y`` is the localised chosen
  denominator ``q_Y``.

``verify_approximation`` recomputes every component, inverts it, and
checks every naturality square and compatibility stated above on the
generators of the relevant presentations.  Each function takes the
setting alone; its values are keyed by positions in ``setting.rc``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .axioms import (
    check_multiplicative,
    check_reflects_denominators,
    squares,
    validate_functor,
    word_json,
)
from .equivalence import GzSetting, prepare
from .gz import (
    LocalisedCategory,
    checked,
    extend_to_localisation,
    induced_functor,
    through,
)
from .presentation import (
    CatPresentation,
    FunctorData,
    PreconditionError,
    ValidationError,
)
from .replacement import (
    ReplacementChoice,
    auto_choice,
    canonical_lift,
    has_enough,
    positions,
    structure_choice_functor,
)
from .rewrite import (
    COMPLETE,
    DEFAULT_LIMITS,
    ResourceLimits,
    RewriteSystem,
    inverse,
    words,
)


def total_value(setting: GzSetting, i: int, j: int, w: tuple) -> tuple:
    """The unique fill giving the value of the total functor on ``w``.

    ``w`` is an encoded target-category word from the object under
    triple ``i`` of ``setting.rc`` to the one under triple ``j``; the
    value, an encoded word of ``setting.lc_src``, solves
    ``loc(q_i . w) = (GZ F)(phi) . loc(q_j)``.  See
    :meth:`~loccat.equivalence.GzSetting.value`.
    """
    triples = setting.rc.triples
    if w[:2] != (triples[i].target, triples[j].target):
        raise ValidationError(f"word from {w[0]!r} to {w[1]!r} does not run "
                              f"between the objects under triples {i} and {j}")
    return setting.value(i, j, w[2])


def _fill_functor(setting: GzSetting, chosen: dict[str, int] | None):
    """The total functor on ``setting.rc`` if ``chosen`` is None, else the
    choice functor on the target, into the localised source, with its
    value map on encoded words.

    Each object goes to the source of its triple: itself in ``rc``, the
    one at ``chosen[Y]`` for a target object ``Y``.  A word goes to the
    unique fill between the triples at its ends
    (:meth:`~loccat.equivalence.GzSetting.value_of`).
    """
    rc = setting.rc
    if chosen is None:
        source, at, under = rc.rs.presentation, rc.object_index, rc.forgetful.translation
    else:
        source, at, under = setting.f.target, chosen.__getitem__, {}

    def value(w: tuple) -> tuple[str, str, str]:
        return setting.value_of(at, under, w)

    functor = FunctorData(
        source=source, target=setting.lc_src.presentation,
        object_map={x: rc.triples[at(x)].source for x in source.objects},
        images=dict(zip(source.codec[0], map(value, source.arrows.values()))))
    return functor, value


def _loc_q(setting: GzSetting, i: int) -> tuple:
    """The denominator ``q`` of triple ``i`` of ``setting.rc``, normalised in ``lc_tgt``."""
    t = setting.rc.triples[i]
    return setting.lc_tgt.rs.compose((setting.f.object_map[t.source], t.target, t.q))


def _require_fills(setting: GzSetting) -> int:
    """The number of 2-arrows surveyed; :class:`PreconditionError` with a
    witness unless each has exactly one fill."""
    no_fill, ambiguous, arrows = setting.fill_survey
    if no_fill is not None:
        raise PreconditionError("functor is not relatively full",
                                witness=no_fill)
    if ambiguous is not None:
        raise PreconditionError("functor is not relatively faithful",
                                witness=ambiguous)
    return arrows


def _functor_checks(functor: FunctorData, lc: LocalisedCategory,
                    rs: RewriteSystem, value) -> tuple[int, bool, int, bool]:
    """Direct values ``value(w)`` against ``functor`` into ``lc``, on every word.

    Each word of each hom-set of the source (completed as ``rs``) must
    agree with its image under ``functor``, and each composable pair must
    compose; words and values are encoded ``(src, dst, code)``.  Returns
    the words checked, whether they agree, the pairs checked and whether
    all compose; every check is evaluated.  Many pairs share a composite
    word, so ``value`` runs once per composite.
    """
    cat, image, nf = functor.source, through(lc, functor), lc.rs.index.__getitem__
    outs = {a: {b: ws for b in cat.objects if (ws := words(rs, a, b))} for a in cat.objects}
    values = {(w := (a, b, s)): value(w) for a, out in outs.items()
              for b, ws in out.items() for s in ws}
    agreement_ok = all([image(w) == v for w, v in values.items()])
    composites: dict[tuple, tuple] = {}
    pairs = 0
    functorial_ok = True
    for a, out in outs.items():
        for b, firsts in out.items():
            for c, seconds in outs[b].items():
                for s1 in firsts:
                    v1 = values[a, b, s1][2]
                    for s2 in seconds:
                        w = (a, c, s1 + s2)
                        lhs = composites.get(w)
                        if lhs is None:
                            lhs = composites[w] = value(w)
                        if lhs[2] != nf(v1 + values[b, c, s2][2]):
                            functorial_ok = False
                        pairs += 1
    return len(values), agreement_ok, pairs, functorial_ok


def _mutually_inverse(lc: LocalisedCategory, fwd: tuple, bwd: tuple) -> bool:
    """Do both composites of encoded ``fwd`` and ``bwd`` reduce to identities?"""
    return not any([lc.rs.compose(fwd, bwd)[2], lc.rs.compose(bwd, fwd)[2]])


def _rows(lc: LocalisedCategory, comps: dict[str, tuple]) -> tuple[list[dict], bool]:
    """One report row per encoded component of ``comps``, by object, and
    whether all are invertible in ``lc``; each is evaluated."""
    rows = [{"object": x, "component": word_json(lc.rs.decode(comp)),
             "invertible": inverse(lc.rs, comp) is not None} for x, comp in comps.items()]
    return rows, all(row["invertible"] for row in rows)


def _comparison(lc: LocalisedCategory, ws, frm, comps: dict[str, tuple],
                to=None) -> tuple[bool, int, bool]:
    """Whether every encoded component of ``comps`` has an inverse in
    ``lc``, stopping at the first that has none, then :func:`squares`."""
    invertible = all(inverse(lc.rs, comp) is not None for comp in comps.values())
    return (invertible, *squares(lc.rs, ws, frm, comps, to))


def _identity_on(lc: LocalisedCategory, p: CatPresentation, image) -> bool:
    """Does ``image`` send each generator of ``p`` to its normal form in
    ``lc``?  Stops at the first that it moves."""
    return all(image(w) == lc.rs.compose(w) for w in p.arrows.values())


def total_replacement_functor(setting: GzSetting) -> tuple[FunctorData, dict]:
    """The fill-valued functor on the replacement category, verified.

    It is a functor into the localised source; a lifted generator goes
    to the fill between the triples it joins.  Requires relative
    fullness and faithfulness; raises :class:`PreconditionError` with a
    witness otherwise.  The report confirms unit fill cardinality,
    agreement of direct values with letterwise composition on every
    materialized word, and functoriality on every composable pair of
    materialized words.
    """
    arrows, rc = _require_fills(setting), setting.rc
    functor, value = _fill_functor(setting, None)
    identities_ok = not any([setting.value(i, i, "")[2] for i in range(len(rc.triples))])
    checked, agreement_ok, pairs, functorial_ok = _functor_checks(
        functor, setting.lc_src, rc.rs, value)
    report = {
        "arrows_surveyed": arrows,
        "fill_cardinality_one": True,
        "identities_ok": identities_ok,
        "words_checked": checked,
        "letterwise_agreement_ok": agreement_ok,
        "composable_pairs_checked": pairs,
        "functoriality_ok": functorial_ok,
        "ok": identities_ok and agreement_ok and functorial_ok,
    }
    return functor, report


def verify_shortening(setting: GzSetting) -> dict:
    """Shortening invariance of the fills.

    Whenever ``g . e' = e . g~`` with ``e, e'`` denominators, the value
    between ``(X, q), (X', q')`` at ``g`` equals the value between the
    lengthened triples ``(X, q.e), (X', q'.e')`` at ``g~``.
    """
    rs, rc = setting.rs_tgt, setting.rc

    def lengthened(y: str, y_bar: str, e: str):
        """Positions of each triple ``(X, q)`` and of its lengthening ``(X, q.e)``."""
        for i in rc.triples_over(y):
            i2 = rc.position(y_bar, rc.triples[i].source, rs.index[rc.triples[i].q + e])
            if i2 is not None:
                yield i, i2

    # the object pairs joined by a denominator, row-major, with their lengthenings
    objects = setting.f.target.objects
    spans = [(y, y_bar, [(e, list(lengthened(y, y_bar, e))) for e in es])
             for y in objects for y_bar in objects
             if (es := rs.denominators.denominators_between(y, y_bar))]
    quadruples = 0
    mismatch = None
    for (y, y_bar, es), (y2, y2_bar, e2s) in product(spans, spans):
        gs, gts = words(rs, y, y2), words(rs, y_bar, y2_bar)
        for (e, e_long), (e2, e2_long) in product(es, e2s):
            for g, gt in product(gs, gts):
                if rs.index[g + e2] != rs.index[e + gt]:
                    continue
                for (i, i2), (j, j2) in product(e_long, e2_long):
                    a = setting.value(i, j, g)
                    b = setting.value(i2, j2, gt)
                    quadruples += 1
                    if a != b and mismatch is None:
                        mismatch = {"g": word_json(rs.decode((y, y2, g))),
                                    "g_shortened": word_json(rs.decode((y_bar, y2_bar, gt))),
                                    "e": word_json(rs.decode((y, y_bar, e))),
                                    "e_prime": word_json(rs.decode((y2, y2_bar, e2)))}
    out = {"quadruples_checked": quadruples, "ok": mismatch is None}
    if mismatch is not None:
        out["witness"] = mismatch
    return out


def verify_denominator_values(setting: GzSetting) -> dict:
    """Values of lifted denominators must be invertible in the localisation.

    This is the one step that uses closure of the target denominators
    under composition.
    """
    failure, rs, rc = None, setting.lc_src.rs, setting.rc
    _, lifted = _fill_functor(setting, None)
    closure = rc.rs.denominators.closure
    for w in closure:
        value = lifted(w)
        if inverse(rs, value) is None and failure is None:
            failure = {"lifted_word": word_json(rc.rs.decode(w)),
                       "value": word_json(rs.decode(value))}
    out = {"lifted_denominators_checked": len(closure), "ok": failure is None}
    if failure is not None:
        out["witness"] = failure
    return out


def replacement_functor(setting: GzSetting, chosen: dict[str, int]
                        ) -> tuple[FunctorData, dict]:
    """The choice-dependent functor on the target category, verified.

    Sends ``Y`` to the source ``X_Y`` of its triple at ``chosen[Y]`` in
    ``setting.rc`` and a morphism to the unique fill between the chosen
    triples.  The report confirms
    functoriality on all composable pairs, agreement with the total
    functor along the chosen section, invertibility of denominator
    values, and that all comparison fills between coexisting triples
    are mutually inverse isomorphisms.
    """
    tgt_cat, lc_src, rc = setting.f.target, setting.lc_src, setting.rc
    functor, direct = _fill_functor(setting, chosen)
    _, agreement_ok, pairs, functorial_ok = _functor_checks(
        functor, lc_src, setting.rs_tgt, direct)
    denom_isos = [inverse(lc_src.rs, direct(w)) is not None for w in setting.rs_tgt.denominators.closure]
    comparisons = [
        _mutually_inverse(lc_src, setting.value(chosen[y], t, ""),
                          setting.value(t, chosen[y], ""))
        for y in tgt_cat.objects for t in rc.triples_over(y)]
    report = {
        "letterwise_agreement_ok": agreement_ok,
        "composable_pairs_checked": pairs,
        "functoriality_ok": functorial_ok,
        "denominators_checked": len(denom_isos),
        "denominators_to_isomorphisms_ok": all(denom_isos),
        "comparison_isos_checked": len(comparisons),
        "comparison_isos_ok": all(comparisons),
        "ok": agreement_ok and functorial_ok and all(denom_isos + comparisons),
    }
    return functor, report


def choice_independence(setting: GzSetting, first: dict[str, int],
                        second: dict[str, int]) -> dict:
    """The functors of two choices, each the positions of its triples in
    ``setting.rc``, are isomorphic via unit-indexed fills."""
    tgt_cat, lc_src = setting.f.target, setting.lc_src
    fwds: dict[str, tuple] = {}
    components = []
    for y in tgt_cat.objects:
        fwd = fwds[y] = setting.value(first[y], second[y], "")
        bwd = setting.value(second[y], first[y], "")
        components.append({"object": y,
                           "component": word_json(lc_src.rs.decode(fwd)),
                           "inverse": word_json(lc_src.rs.decode(bwd)),
                           "invertible": _mutually_inverse(lc_src, fwd, bwd)})
    iso_ok = all(row["invertible"] for row in components)
    checks, naturality_ok = squares(
        lc_src.rs, tgt_cat.arrows.values(),
        lambda w: setting.value(first[w[0]], first[w[1]], w[2]),
        fwds, lambda w: setting.value(second[w[0]], second[w[1]], w[2]))
    return {"components": components, "isomorphism_ok": iso_ok,
            "squares_checked": checks, "naturality_ok": naturality_ok,
            "ok": iso_ok and naturality_ok}


def induced_replacement_functor(setting: GzSetting, chosen: dict[str, int]
                                ) -> tuple[FunctorData, dict]:
    """The functor on the localised target induced by the choice functor
    of the triples at ``chosen``.

    It is the unique functor through which the choice functor factors;
    uniqueness is certified by checking the defining equation
    ``loc(q_Y) . psi = (GZ F)(phi) . loc(q_Y')`` on every materialized
    localised morphism ``psi``.
    """
    lc_tgt, lc_src, gz_f = setting.lc_tgt, setting.lc_src, setting.gz_f
    tgt_cat = setting.f.target
    r_choice, direct = _fill_functor(setting, chosen)
    functor = checked(extend_to_localisation(lc_tgt, lc_src, r_choice, direct),
                      lc_tgt, lc_src)

    image, r_image = through(lc_src, functor), through(lc_src, r_choice)
    factorization_ok = all(image(lc_tgt.rs.compose(w)) == r_image(w)
                           for w in tgt_cat.arrows.values())

    objects = tgt_cat.objects
    pairs, description_ok = squares(
        lc_tgt.rs, ((y, y2, psi) for y in objects for y2 in objects
                 for psi in words(lc_tgt.rs, y, y2)),
        through(lc_tgt, functor, gz_f), {y: _loc_q(setting, chosen[y]) for y in objects})
    report = {"factorization_on_generators_ok": factorization_ok,
              "description_pairs_checked": pairs,
              "description_ok": description_ok,
              "ok": factorization_ok and description_ok}
    return functor, report


class ApproximationReport(namedtuple("ApproximationReport",
                                     "ok sections decidability_status bounds_used")):
    """Full outcome of the componentwise theorem verification."""

    __slots__ = ()


def verify_approximation(f: FunctorData,
                         limits: ResourceLimits = DEFAULT_LIMITS,
                         choice: ReplacementChoice | None = None,
                         experimental_no_mult: bool = False
                         ) -> ApproximationReport:
    """Recompute and check every statement of the approximation theorem.

    Preconditions (multiplicative target denominators, enough
    replacements, relative fullness and faithfulness) raise
    :class:`PreconditionError` with a witness; the multiplicativity
    gate alone can be bypassed with ``experimental_no_mult``, in which
    case the report carries the failure and downstream sections run as
    far as they can.

    ``choice`` defaults to the first replacement of every object
    (:func:`~loccat.replacement.auto_choice`); a given choice is
    compared with that one in a choice-independence section.  The ``q``
    of a given choice may be the code of any word; it is normalised in
    the target, then checked once, as the positions of its triples
    (:func:`~loccat.replacement.positions`), which every section reads.
    """
    setting = prepare(f, limits)
    mult, mult_wit = check_multiplicative(setting.rs_tgt)
    if not mult and not experimental_no_mult:
        raise PreconditionError("target denominators are not multiplicative",
                                witness=mult_wit)
    enough, enough_wit = has_enough(setting.replacements)
    if not enough:
        raise PreconditionError("not enough replacements along the functor",
                                witness=enough_wit)
    arrows = _require_fills(setting)

    rc = setting.rc
    chosen = auto_choice(rc) if choice is None else positions(rc, choice)

    src_cat, tgt_cat = f.source, f.target
    lc_src, lc_tgt = setting.lc_src, setting.lc_tgt
    gz_f = setting.gz_f
    sections: list[dict] = []

    pre = {"name": "preconditions", "multiplicative": mult, "s_dense": True,
           "s_full": True, "s_faithful": True, "arrows_surveyed": arrows,
           "ok": mult}
    if not mult:
        pre["witness"] = mult_wit
        pre["experimental_no_mult"] = True
    sections.append(pre)

    total, total_report = total_replacement_functor(setting)
    sections.append({"name": "total_functor", **total_report})
    sections.append({"name": "shortening", **verify_shortening(setting)})
    sections.append({"name": "denominator_values",
                     **verify_denominator_values(setting)})

    c_r, abar = structure_choice_functor(rc, chosen)
    u = rc.forgetful
    u_problems = validate_functor(u, rc.rs, setting.rs_tgt)
    u_reflects, _ = check_reflects_denominators(u, rc.rs, setting.rs_tgt)
    sections.append({
        "name": "choice",
        "chosen": [{"object": t.target, "source": t.source, "q": word_json(
            setting.rs_tgt.decode((f.object_map[t.source], t.target, t.q)))}
                   for t in map(rc.triples.__getitem__, chosen.values())],
        "forgetful_valid": not u_problems,
        "forgetful_reflects_denominators": u_reflects,
        # structure_choice_functor raised ConstructionError unless U after
        # C_R is the identity and its comparison transformation is natural
        "section_roundtrip_identity": True,
        "comparison_natural": True,
        "ok": not u_problems and u_reflects})

    _, r_report = replacement_functor(setting, chosen)
    sections.append({"name": "choice_functor", **r_report})

    induced, induced_report = induced_replacement_functor(setting, chosen)
    sections.append({"name": "induced_functor", **induced_report})

    # the canonical lift sends X' to its trivial triple (F X', X', 1)
    lift = canonical_lift(rc)
    trivial_idx = {x: rc.object_index(name) for x, name in lift.object_map.items()}

    # alpha: chosen replacement of F X' compared with the trivial one
    p_src, p_tgt = lc_src.presentation, lc_tgt.presentation
    alpha = {x: setting.value(chosen[f.object_map[x]], trivial_idx[x], "")
             for x in src_cat.objects}
    alpha_rows, alpha_iso = _rows(lc_src, alpha)
    alpha_squares, alpha_natural = squares(
        lc_src.rs, p_src.arrows.values(), through(lc_src, gz_f, induced), alpha)
    objects_match = all(
        induced.object_map[gz_f.object_map[x]]
        == rc.triples[chosen[f.object_map[x]]].source
        for x in src_cat.objects)
    sections.append({"name": "alpha", "components": alpha_rows,
                     "squares_checked": alpha_squares,
                     "round_trip_objects_ok": objects_match,
                     "ok": alpha_iso and alpha_natural})

    # beta: localised chosen denominators
    gz_f_image, induced_image = through(lc_tgt, gz_f), through(lc_src, induced)
    beta = {y: _loc_q(setting, chosen[y]) for y in tgt_cat.objects}
    beta_rows, beta_iso = _rows(lc_tgt, beta)
    beta_squares, beta_natural = squares(
        lc_tgt.rs, p_tgt.arrows.values(), through(lc_tgt, induced, gz_f), beta)
    sections.append({"name": "beta", "components": beta_rows,
                     "squares_checked": beta_squares,
                     "ok": beta_iso and beta_natural})

    # whiskering compatibilities linking alpha and beta
    sym_ok = all(
        [gz_f_image(alpha[x]) == beta[f.object_map[x]] for x in src_cat.objects]
        + [induced_image(beta[y]) == alpha[rc.triples[chosen[y]].source]
           for y in tgt_cat.objects])
    sections.append({"name": "symmetric_relations",
                     "objects_checked": len(src_cat.objects) + len(tgt_cat.objects),
                     "ok": sym_ok})

    # canonical lift: the lift itself, its exact retraction, and the
    # comparison transformations at base and localised level
    part_a_ok = _identity_on(lc_src, src_cat, through(lc_src, lift, total)) \
        and all(total.object_map[lift.object_map[x]] == x for x in src_cat.objects)

    rc_gens = rc.rs.presentation.arrows.values()
    beta_bar = {name: _loc_q(setting, i) for i, name in enumerate(rc.obj_names)}
    b_iso, b_squares, b_natural = _comparison(
        lc_tgt, rc_gens, through(lc_tgt, total, gz_f), beta_bar, through(lc_tgt, u))

    lc_rc, gz_u = rc.localised(lc_tgt)
    gz_lift = induced_functor(lift, lc_src, lc_rc)
    beta_bar_c = {rc.obj_names[i]: lc_rc.rs.compose(rc.lift_word(t.q, trivial_idx[t.source], i))
                  for i, t in enumerate(rc.triples)}
    c_iso, c_squares, c_natural = _comparison(
        lc_rc, rc_gens, through(lc_rc, total, gz_lift), beta_bar_c, lc_rc.rs.compose)

    # the total functor through the localised replacement category
    _, lifted = _fill_functor(setting, None)
    rf_hat = extend_to_localisation(lc_rc, lc_src, total, lifted)
    rf_hat_problems = validate_functor(rf_hat, lc_rc.rs, lc_src.rs)
    retraction_ok = not rf_hat_problems and _identity_on(
        lc_src, p_src, through(lc_src, gz_lift, rf_hat))
    part_b_ok, part_c_ok = b_iso and b_natural, c_iso and c_natural
    sections.append({
        "name": "canonical_lift",
        "retract_exact_ok": part_a_ok,
        "comparison_to_forgetful_squares": b_squares,
        "comparison_to_forgetful_ok": part_b_ok,
        "localised_comparison_squares": c_squares,
        "localised_comparison_ok": part_c_ok,
        "localised_retraction_ok": retraction_ok,
        "ok": part_a_ok and part_b_ok and part_c_ok and retraction_ok})

    # localised forgetful and section functors are mutually inverse
    gz_u = checked(gz_u, lc_rc, lc_tgt)
    gz_cr = induced_functor(c_r, lc_tgt, lc_rc)
    pair_exact_ok = _identity_on(lc_tgt, p_tgt, through(lc_tgt, gz_cr, gz_u))
    loc_abar = {t: lc_rc.rs.compose(comp) for t, comp in abar.items()}
    pair_iso_ok, pair_squares, pair_nat_ok = _comparison(
        lc_rc, lc_rc.presentation.arrows.values(), through(lc_rc, gz_u, gz_cr), loc_abar)
    sections.append({
        "name": "forgetful_section_pair",
        "section_then_forgetful_identity_ok": pair_exact_ok,
        "comparison_invertible_ok": pair_iso_ok,
        "comparison_squares_checked": pair_squares,
        "comparison_natural_ok": pair_nat_ok,
        "ok": pair_exact_ok and pair_iso_ok and pair_nat_ok})

    if choice is not None:
        indep = choice_independence(setting, chosen, auto_choice(rc))
        sections.append({"name": "choice_independence", **indep})

    return ApproximationReport(
        ok=all(section["ok"] for section in sections),
        sections=sections,
        decidability_status=COMPLETE,
        bounds_used=limits._asdict())
