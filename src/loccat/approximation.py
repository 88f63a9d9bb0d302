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
generators of the relevant presentations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .axioms import (
    check_multiplicative,
    check_reflects_denominators,
    validate_functor,
    word_json,
)
from .equivalence import (
    GzSetting,
    STwoArrow,
    prepare,
    solve_fill,
)
from .gz import (
    GzMorphism,
    LocalisedCategory,
    extend_to_localisation,
    gz_compose,
    gz_inverse,
    induced_functor,
    loc_map,
    localise,
)
from .presentation import (
    CatWithDenoms,
    ConstructionError,
    FunctorData,
    PathWord,
    PreconditionError,
)
from .replacement import (
    ReplacementCategory,
    ReplacementChoice,
    SReplacement,
    auto_choice,
    build_replacement_category,
    canonical_lift,
    forgetful,
    has_enough,
    structure_choice_functor,
    validate_choice,
)
from .rewrite import (
    COMPLETE,
    DEFAULT_LIMITS,
    ResourceLimits,
    RewriteSystem,
    equal,
    homset,
    normalize,
)


@dataclass
class LocValuedFunctor:
    """A functor from a presented category into a localisation.

    The value of a word is composed letter by letter from the identity,
    and the value of each nonempty prefix is kept, by ``(src, letters)``,
    so a word extending a word seen before costs one ``gz_compose``.
    """

    source: CatWithDenoms
    target_lc: LocalisedCategory
    object_map: dict[str, str]
    gen_values: dict[str, GzMorphism]
    _values: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def value_word(self, w: PathWord) -> GzMorphism:
        values, src, letters = self._values, w.src, w.letters
        k = len(letters)
        while k and (src, letters[:k]) not in values:
            k -= 1
        out = (values[(src, letters[:k])] if k else
               self.target_lc.presentation.identity(self.object_map[src]))
        for k in range(k, len(letters)):
            out = values[(src, letters[:k + 1])] = gz_compose(
                self.target_lc, out, self.gen_values[letters[k]])
        return out


def total_value(setting: GzSetting, rc: ReplacementCategory,
                i: int, j: int, w: PathWord) -> GzMorphism:
    """The unique fill giving the value of the total functor on ``w``.

    ``w`` is a target-category word from the object under triple ``i``
    to the one under triple ``j``; the value solves
    ``loc(q_i . w) = (GZ F)(phi) . loc(q_j)``.  Found once per setting
    and ``(triple, triple, w)``; later calls read the setting's table.
    """
    ti, tj = rc.triples[i], rc.triples[j]
    key = (ti, tj, w)
    value = setting._total_values.get(key)
    if value is not None:
        return value
    tgt_cat = setting.f.target.cat
    g = normalize(setting.rs_tgt, tgt_cat.concat(ti.q, w))
    fills = solve_fill(setting, STwoArrow(x=ti.source, x_prime=tj.source,
                                          g=g, b=tj.q))
    if len(fills) != 1:
        raise ConstructionError(
            f"expected exactly one fill between triples {i} and {j}, "
            f"got {len(fills)}")
    setting._total_values[key] = fills[0]
    return fills[0]


def _lifted_value(setting: GzSetting, rc: ReplacementCategory,
                  w: PathWord) -> GzMorphism:
    """:func:`total_value` of a lifted word, between its endpoint triples."""
    return total_value(setting, rc, rc.object_index(w.src),
                       rc.object_index(w.dst),
                       normalize(setting.rs_tgt, rc.underlying_word(w)))


def _require_fills(setting: GzSetting) -> int:
    """The number of 2-arrows surveyed; :class:`PreconditionError` with a
    witness unless each has exactly one fill."""
    no_fill, ambiguous, arrows = setting.fill_survey()
    if no_fill is not None:
        raise PreconditionError("functor is not relatively full",
                                witness=no_fill)
    if ambiguous is not None:
        raise PreconditionError("functor is not relatively faithful",
                                witness=ambiguous)
    return arrows


def _functor_checks(functor: LocValuedFunctor, rs: RewriteSystem,
                    limits: ResourceLimits, value) -> tuple[int, bool, int, bool]:
    """Direct values ``value(w)`` against ``functor``, on every word.

    Each word of each hom-set of the source (completed as ``rs``) must
    agree with its letterwise composite, and each composable pair must
    compose.  Returns the words checked, whether they agree, the pairs
    checked and whether all compose; every check is evaluated.  Many
    pairs share a composite word and many share their two values, so
    ``value`` runs once per composite and ``gz_compose`` once per pair
    of values.
    """
    cat, lc = functor.source.cat, functor.target_lc
    words = {(a, b): homset(rs, a, b, limits)
             for a in cat.objects for b in cat.objects}
    values: dict[PathWord, GzMorphism] = {}
    agreement_ok = True
    for ws in words.values():
        for w in ws:
            values[w] = value(w)
            if functor.value_word(w) != values[w]:
                agreement_ok = False
    composites: dict[PathWord, GzMorphism] = {}
    composed: dict[tuple, GzMorphism] = {}
    pairs = 0
    functorial_ok = True
    for (a, b), firsts in words.items():
        for c in cat.objects:
            for w1 in firsts:
                for w2 in words[(b, c)]:
                    w = cat.concat(w1, w2)
                    lhs = composites.get(w)
                    if lhs is None:
                        lhs = composites[w] = value(w)
                    key = (values[w1], values[w2])
                    rhs = composed.get(key)
                    if rhs is None:
                        rhs = composed[key] = gz_compose(lc, *key)
                    if lhs != rhs:
                        functorial_ok = False
                    pairs += 1
    return len(values), agreement_ok, pairs, functorial_ok


def _mutually_inverse(lc: LocalisedCategory, fwd: GzMorphism,
                      bwd: GzMorphism) -> bool:
    """Do both composites of ``fwd`` and ``bwd`` reduce to identities?"""
    composites = gz_compose(lc, fwd, bwd), gz_compose(lc, bwd, fwd)
    return all(w.is_identity_word for w in composites)


def _components(lc: LocalisedCategory, objects, component
                ) -> tuple[dict[str, GzMorphism], list[dict], bool]:
    """The components ``component(x)`` of a comparison transformation, by
    object, with one report row each and whether all are invertible."""
    comps: dict[str, GzMorphism] = {}
    rows = []
    for x in objects:
        comps[x] = comp = component(x)
        rows.append({"object": x, "component": word_json(comp),
                     "invertible": gz_inverse(lc, comp) is not None})
    return comps, rows, all(row["invertible"] for row in rows)


def _squares(lc: LocalisedCategory, arrows, frm, to,
             comps: dict[str, GzMorphism]) -> tuple[int, bool]:
    """Naturality of ``comps`` from ``frm`` to ``to`` on each arrow.

    The square at ``a`` (a generator or a word) is
    ``frm(a) . comps[dst a] = comps[src a] . to(a)`` in ``lc``.  Returns
    the squares checked and whether all commute; each is evaluated.
    """
    count = 0
    ok = True
    for a in arrows:
        lhs = gz_compose(lc, frm(a), comps[a.dst])
        if lhs != gz_compose(lc, comps[a.src], to(a)):
            ok = False
        count += 1
    return count, ok


def total_replacement_functor(setting: GzSetting, rc: ReplacementCategory
                              ) -> tuple[LocValuedFunctor, dict]:
    """The fill-valued functor on the replacement category, verified.

    Requires relative fullness and faithfulness; raises
    :class:`PreconditionError` with a witness otherwise.  The report
    confirms unit fill cardinality, agreement of direct values with
    letterwise composition on every materialized word, and
    functoriality on every composable pair of materialized words.
    """
    arrows = _require_fills(setting)
    gen_values = {name: total_value(setting, rc, i, j, rc.lifted_underlying[name])
                  for name, (_, i, j) in rc.lift_meta.items()}
    functor = LocValuedFunctor(
        source=rc.cwd, target_lc=setting.lc_src,
        object_map={name: t.source for name, t in zip(rc.obj_names, rc.triples)},
        gen_values=gen_values)

    identities = [total_value(setting, rc, i, i,
                              setting.f.target.cat.identity(t.target))
                  for i, t in enumerate(rc.triples)]
    identities_ok = all(w.is_identity_word for w in identities)

    words, agreement_ok, pairs, functorial_ok = _functor_checks(
        functor, rc.rs, setting.limits,
        lambda w: _lifted_value(setting, rc, w))
    report = {
        "arrows_surveyed": arrows,
        "fill_cardinality_one": True,
        "identities_ok": identities_ok,
        "words_checked": words,
        "letterwise_agreement_ok": agreement_ok,
        "composable_pairs_checked": pairs,
        "functoriality_ok": functorial_ok,
        "ok": identities_ok and agreement_ok and functorial_ok,
    }
    return functor, report


def verify_shortening(setting: GzSetting, rc: ReplacementCategory) -> dict:
    """Shortening invariance of the fills.

    Whenever ``g . e' = e . g~`` with ``e, e'`` denominators, the value
    between ``(X, q), (X', q')`` at ``g`` equals the value between the
    lengthened triples ``(X, q.e), (X', q'.e')`` at ``g~``.
    """
    tgt_cat = setting.f.target.cat
    dec = setting.dec_tgt
    rs = setting.rs_tgt
    objects = tgt_cat.objects
    # the object pairs joined by a denominator, in row-major order
    spans = [(y, y_bar, es) for y in objects for y_bar in objects
             if (es := dec.denominators_between(y, y_bar))]
    quadruples = 0
    mismatch = None
    for y, y_bar, es in spans:
        for y2, y2_bar, e2s in spans:
            gs = homset(rs, y, y2, setting.limits)
            gts = homset(rs, y_bar, y2_bar, setting.limits)
            for e in es:
                for e2 in e2s:
                    for g in gs:
                        for gt in gts:
                            if not equal(rs, tgt_cat.concat(g, e2),
                                         tgt_cat.concat(e, gt)):
                                continue
                            for i in rc.triples_over(y):
                                qe = normalize(rs, tgt_cat.concat(
                                    rc.triples[i].q, e))
                                try:
                                    i2 = rc.index_of(SReplacement(
                                        y_bar, rc.triples[i].source, qe))
                                except ValueError:
                                    continue
                                for j in rc.triples_over(y2):
                                    q2e = normalize(rs, tgt_cat.concat(
                                        rc.triples[j].q, e2))
                                    try:
                                        j2 = rc.index_of(SReplacement(
                                            y2_bar, rc.triples[j].source, q2e))
                                    except ValueError:
                                        continue
                                    a = total_value(setting, rc, i, j, g)
                                    b = total_value(setting, rc, i2, j2, gt)
                                    quadruples += 1
                                    if a != b and mismatch is None:
                                        mismatch = {
                                            "g": word_json(g),
                                            "g_shortened": word_json(gt),
                                            "e": word_json(e),
                                            "e_prime": word_json(e2)}
    out = {"quadruples_checked": quadruples, "ok": mismatch is None}
    if mismatch is not None:
        out["witness"] = mismatch
    return out


def verify_denominator_values(setting: GzSetting, rc: ReplacementCategory) -> dict:
    """Values of lifted denominators must be invertible in the localisation.

    This is the one step that uses closure of the target denominators
    under composition.
    """
    checked = 0
    failure = None
    for w in rc.cwd.denoms.explicit:
        value = _lifted_value(setting, rc, w)
        checked += 1
        if gz_inverse(setting.lc_src, value) is None and failure is None:
            failure = {"lifted_word": word_json(w), "value": word_json(value)}
    out = {"lifted_denominators_checked": checked, "ok": failure is None}
    if failure is not None:
        out["witness"] = failure
    return out


def replacement_functor(setting: GzSetting, rc: ReplacementCategory,
                        choice: ReplacementChoice
                        ) -> tuple[LocValuedFunctor, dict]:
    """The choice-dependent functor on the target category, verified.

    Sends ``Y`` to the chosen source ``X_Y`` and a morphism to the
    unique fill between the chosen triples.  The report confirms
    functoriality on all composable pairs, agreement with the total
    functor along the chosen section, invertibility of denominator
    values, and that all comparison fills between coexisting triples
    are mutually inverse isomorphisms.
    """
    validate_choice(rc, choice)
    tgt_cat = setting.f.target.cat
    chosen = {y: rc.index_of(choice.get(y)) for y in tgt_cat.objects}

    gen_values = {
        g.name: total_value(setting, rc, chosen[g.src], chosen[g.dst],
                            tgt_cat.word([g.name]))
        for g in tgt_cat.generators}
    functor = LocValuedFunctor(
        source=setting.f.target, target_lc=setting.lc_src,
        object_map={y: rc.triples[chosen[y]].source for y in tgt_cat.objects},
        gen_values=gen_values)

    def direct(w: PathWord) -> GzMorphism:
        return total_value(setting, rc, chosen[w.src], chosen[w.dst],
                           normalize(setting.rs_tgt, w))

    _, agreement_ok, pairs, functorial_ok = _functor_checks(
        functor, setting.rs_tgt, setting.limits, direct)

    denom_iso_ok = True
    denoms_checked = 0
    for w in setting.dec_tgt.materialized:
        value = direct(w)
        denoms_checked += 1
        if gz_inverse(setting.lc_src, value) is None:
            denom_iso_ok = False

    comparison_ok = True
    comparisons = 0
    for y in tgt_cat.objects:
        cy = chosen[y]
        for t in rc.triples_over(y):
            fwd = total_value(setting, rc, cy, t, tgt_cat.identity(y))
            bwd = total_value(setting, rc, t, cy, tgt_cat.identity(y))
            comparisons += 1
            if not _mutually_inverse(setting.lc_src, fwd, bwd):
                comparison_ok = False

    report = {
        "letterwise_agreement_ok": agreement_ok,
        "composable_pairs_checked": pairs,
        "functoriality_ok": functorial_ok,
        "denominators_checked": denoms_checked,
        "denominators_to_isomorphisms_ok": denom_iso_ok,
        "comparison_isos_checked": comparisons,
        "comparison_isos_ok": comparison_ok,
        "ok": (agreement_ok and functorial_ok and denom_iso_ok
               and comparison_ok),
    }
    return functor, report


def choice_independence(setting: GzSetting, rc: ReplacementCategory,
                        first: ReplacementChoice, second: ReplacementChoice
                        ) -> dict:
    """The two choice functors are isomorphic via unit-indexed fills."""
    tgt_cat = setting.f.target.cat
    idx1 = {y: rc.index_of(first.get(y)) for y in tgt_cat.objects}
    idx2 = {y: rc.index_of(second.get(y)) for y in tgt_cat.objects}
    fwds: dict[str, GzMorphism] = {}
    components = []
    for y in tgt_cat.objects:
        fwd = fwds[y] = total_value(setting, rc, idx1[y], idx2[y],
                                    tgt_cat.identity(y))
        bwd = total_value(setting, rc, idx2[y], idx1[y], tgt_cat.identity(y))
        components.append({"object": y, "component": word_json(fwd),
                           "inverse": word_json(bwd),
                           "invertible": _mutually_inverse(setting.lc_src,
                                                           fwd, bwd)})
    iso_ok = all(row["invertible"] for row in components)
    squares, naturality_ok = _squares(
        setting.lc_src, tgt_cat.generators,
        lambda g: total_value(setting, rc, idx1[g.src], idx1[g.dst],
                              tgt_cat.word([g.name])),
        lambda g: total_value(setting, rc, idx2[g.src], idx2[g.dst],
                              tgt_cat.word([g.name])),
        fwds)
    return {"components": components, "isomorphism_ok": iso_ok,
            "squares_checked": squares, "naturality_ok": naturality_ok,
            "ok": iso_ok and naturality_ok}


def induced_replacement_functor(setting: GzSetting, rc: ReplacementCategory,
                                choice: ReplacementChoice,
                                r_choice: LocValuedFunctor
                                ) -> tuple[FunctorData, dict]:
    """The functor on the localised target induced by the choice functor.

    It is the unique functor through which the choice functor factors;
    uniqueness is certified by checking the defining equation
    ``loc(q_Y) . psi = (GZ F)(phi) . loc(q_Y')`` on every materialized
    localised morphism ``psi``.
    """
    lc_tgt, lc_src = setting.lc_tgt, setting.lc_src
    tgt_cat = setting.f.target.cat
    chosen = {y: rc.index_of(choice.get(y)) for y in tgt_cat.objects}

    functor = extend_to_localisation(
        lc_tgt, lc_src, r_choice.object_map, r_choice.gen_values,
        lambda w: total_value(setting, rc, chosen[w.src], chosen[w.dst],
                              normalize(setting.rs_tgt, w)),
        setting.limits)
    problems = validate_functor(functor, lc_tgt.rs, lc_src.rs, setting.limits)
    if problems:
        raise ConstructionError(f"induced replacement functor invalid: "
                                f"{problems[0]}")

    factorization_ok = all(
        normalize(lc_src.rs, functor.apply_word(
            loc_map(lc_tgt, tgt_cat.word([g.name]))))
        == r_choice.gen_values[g.name]
        for g in tgt_cat.generators)

    objects = tgt_cat.objects
    checked, description_ok = _squares(
        lc_tgt, (psi for y in objects for y2 in objects
                 for psi in homset(lc_tgt.rs, y, y2, setting.limits)),
        lambda psi: setting.gz_f.apply_word(
            normalize(lc_src.rs, functor.apply_word(psi))),
        lambda psi: psi, {y: loc_map(lc_tgt, choice.get(y).q) for y in objects})
    report = {"factorization_on_generators_ok": factorization_ok,
              "description_pairs_checked": checked,
              "description_ok": description_ok,
              "ok": factorization_ok and description_ok}
    return functor, report


@dataclass
class ApproximationReport:
    """Full outcome of the componentwise theorem verification."""

    ok: bool
    sections: list[dict]
    decidability_status: str
    bounds_used: dict

    def to_json(self) -> dict:
        return asdict(self)


def verify_approximation(f: FunctorData,
                         limits: ResourceLimits = DEFAULT_LIMITS,
                         choice: ReplacementChoice | None = None,
                         compare_choice: ReplacementChoice | str | None = None,
                         experimental_no_mult: bool = False
                         ) -> ApproximationReport:
    """Recompute and check every statement of the approximation theorem.

    Preconditions (multiplicative target denominators, enough
    replacements, relative fullness and faithfulness) raise
    :class:`PreconditionError` with a witness; the multiplicativity
    gate alone can be bypassed with ``experimental_no_mult``, in which
    case the report carries the failure and downstream sections run as
    far as they can.

    ``choice`` defaults to the first replacement of every object;
    ``compare_choice`` (a second choice, or the string ``"auto"``)
    adds a choice-independence section.
    """
    setting = prepare(f, limits)
    mult, mult_wit = check_multiplicative(f.target, setting.rs_tgt, limits)
    if not mult and not experimental_no_mult:
        raise PreconditionError("target denominators are not multiplicative",
                                witness=mult_wit)
    enough, enough_wit = has_enough(f, setting.rs_tgt, limits)
    if not enough:
        raise PreconditionError("not enough replacements along the functor",
                                witness=enough_wit)
    arrows = _require_fills(setting)

    rc = build_replacement_category(f, setting.rs_src, setting.rs_tgt, limits)
    chosen_choice = choice or auto_choice(rc)
    validate_choice(rc, chosen_choice)
    if compare_choice == "auto":
        compare_choice = auto_choice(rc)
    if compare_choice is not None:
        validate_choice(rc, compare_choice)

    src_cat, tgt_cat = f.source.cat, f.target.cat
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

    total, total_report = total_replacement_functor(setting, rc)
    sections.append({"name": "total_functor", **total_report})
    sections.append({"name": "shortening", **verify_shortening(setting, rc)})
    sections.append({"name": "denominator_values",
                     **verify_denominator_values(setting, rc)})

    c_r, abar = structure_choice_functor(rc, chosen_choice)
    u = forgetful(rc)
    u_problems = validate_functor(u, rc.rs, setting.rs_tgt, limits)
    u_reflects, _ = check_reflects_denominators(u, rc.rs, setting.rs_tgt,
                                                limits)
    sections.append({
        "name": "choice",
        "chosen": [{"object": y, "source": rep.source, "q": word_json(rep.q)}
                   for y, rep in chosen_choice.assignment],
        "forgetful_valid": not u_problems,
        "forgetful_reflects_denominators": u_reflects,
        # structure_choice_functor raised ConstructionError unless U after
        # C_R is the identity and its comparison transformation is natural
        "section_roundtrip_identity": True,
        "comparison_natural": True,
        "ok": not u_problems and u_reflects})

    r_choice, r_report = replacement_functor(setting, rc, chosen_choice)
    sections.append({"name": "choice_functor", **r_report})

    induced, induced_report = induced_replacement_functor(
        setting, rc, chosen_choice, r_choice)
    sections.append({"name": "induced_functor", **induced_report})

    chosen_idx = {y: rc.index_of(chosen_choice.get(y))
                  for y in tgt_cat.objects}
    trivial_idx = {
        x: rc.index_of(SReplacement(f.object_map[x], x,
                                    tgt_cat.identity(f.object_map[x])))
        for x in src_cat.objects}

    # alpha: chosen replacement of F X' compared with the trivial one
    p_src, p_tgt = lc_src.presentation, lc_tgt.presentation
    alpha, alpha_rows, alpha_iso = _components(
        lc_src, src_cat.objects,
        lambda x: total_value(setting, rc, chosen_idx[f.object_map[x]],
                              trivial_idx[x], tgt_cat.identity(f.object_map[x])))
    alpha_squares, alpha_natural = _squares(
        lc_src, p_src.generators,
        lambda g: normalize(lc_src.rs, induced.apply_word(
            gz_f.apply_word(p_src.word([g.name])))),
        lambda g: p_src.word([g.name]), alpha)
    objects_match = all(
        induced.object_map[gz_f.object_map[x]]
        == rc.triples[chosen_idx[f.object_map[x]]].source
        for x in src_cat.objects)
    sections.append({"name": "alpha", "components": alpha_rows,
                     "squares_checked": alpha_squares,
                     "round_trip_objects_ok": objects_match,
                     "ok": alpha_iso and alpha_natural})

    # beta: localised chosen denominators
    beta, beta_rows, beta_iso = _components(
        lc_tgt, tgt_cat.objects,
        lambda y: loc_map(lc_tgt, chosen_choice.get(y).q))
    beta_squares, beta_natural = _squares(
        lc_tgt, p_tgt.generators,
        lambda g: normalize(lc_tgt.rs, gz_f.apply_word(normalize(
            lc_src.rs, induced.apply_word(p_tgt.word([g.name]))))),
        lambda g: p_tgt.word([g.name]), beta)
    sections.append({"name": "beta", "components": beta_rows,
                     "squares_checked": beta_squares,
                     "ok": beta_iso and beta_natural})

    # whiskering compatibilities linking alpha and beta
    sym_ok = True
    for x in src_cat.objects:
        image = normalize(lc_tgt.rs, gz_f.apply_word(alpha[x]))
        if image != beta[f.object_map[x]]:
            sym_ok = False
    for y in tgt_cat.objects:
        image = normalize(lc_src.rs, induced.apply_word(beta[y]))
        if image != alpha[chosen_choice.get(y).source]:
            sym_ok = False
    sections.append({"name": "symmetric_relations",
                     "objects_checked": len(src_cat.objects) + len(tgt_cat.objects),
                     "ok": sym_ok})

    # canonical lift: the lift itself, its exact retraction, and the
    # comparison transformations at base and localised level
    lift = canonical_lift(f, rc, setting.rs_tgt, limits)
    part_a_ok = all(
        total.value_word(lift.apply_word(src_cat.word([g.name])))
        == loc_map(lc_src, src_cat.word([g.name]))
        for g in src_cat.generators) and all(
        total.object_map[lift.object_map[x]] == x for x in src_cat.objects)

    rc_gens = rc.cwd.cat.generators
    beta_bar = {rc.obj_names[i]: loc_map(lc_tgt, rc.triples[i].q)
                for i in range(len(rc.triples))}
    part_b_ok = all(gz_inverse(lc_tgt, comp) is not None
                    for comp in beta_bar.values())
    b_squares, b_natural = _squares(
        lc_tgt, rc_gens,
        lambda g: normalize(lc_tgt.rs, gz_f.apply_word(total.gen_values[g.name])),
        lambda g: loc_map(lc_tgt, rc.lifted_underlying[g.name]), beta_bar)

    lc_rc = localise(rc.cwd, rc.rs, limits)
    gz_lift = induced_functor(lift, lc_src, lc_rc, limits)
    beta_bar_c = {rc.obj_names[i]: loc_map(lc_rc, rc.lift_word(
        t.q, trivial_idx[t.source], i)) for i, t in enumerate(rc.triples)}
    part_c_ok = all(gz_inverse(lc_rc, comp) is not None
                    for comp in beta_bar_c.values())
    c_squares, c_natural = _squares(
        lc_rc, rc_gens,
        lambda g: normalize(lc_rc.rs, gz_lift.apply_word(total.gen_values[g.name])),
        lambda g: loc_map(lc_rc, rc.cwd.cat.word([g.name])), beta_bar_c)

    # the total functor through the localised replacement category
    rf_hat = extend_to_localisation(
        lc_rc, lc_src, total.object_map, total.gen_values,
        lambda w: _lifted_value(setting, rc, w), limits)
    rf_hat_problems = validate_functor(rf_hat, lc_rc.rs, lc_src.rs, limits)
    retraction_ok = not rf_hat_problems and all(
        normalize(lc_src.rs, rf_hat.apply_word(gz_lift.apply_word(
            p_src.word([g.name]))))
        == normalize(lc_src.rs, p_src.word([g.name]))
        for g in p_src.generators)

    part_b_ok = part_b_ok and b_natural
    part_c_ok = part_c_ok and c_natural
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
    gz_u = induced_functor(u, lc_rc, lc_tgt, limits)
    gz_cr = induced_functor(c_r, lc_tgt, lc_rc, limits)
    pair_exact_ok = all(
        normalize(lc_tgt.rs, gz_u.apply_word(gz_cr.apply_word(
            p_tgt.word([g.name]))))
        == normalize(lc_tgt.rs, p_tgt.word([g.name]))
        for g in p_tgt.generators)
    p_rc = lc_rc.presentation
    loc_abar = {t: loc_map(lc_rc, abar.components[t]) for t in rc.obj_names}
    pair_iso_ok = all(gz_inverse(lc_rc, comp) is not None
                      for comp in loc_abar.values())
    pair_squares, pair_nat_ok = _squares(
        lc_rc, p_rc.generators,
        lambda g: normalize(lc_rc.rs, gz_cr.apply_word(gz_u.apply_word(
            p_rc.word([g.name])))),
        lambda g: p_rc.word([g.name]), loc_abar)
    sections.append({
        "name": "forgetful_section_pair",
        "section_then_forgetful_identity_ok": pair_exact_ok,
        "comparison_invertible_ok": pair_iso_ok,
        "comparison_squares_checked": pair_squares,
        "comparison_natural_ok": pair_nat_ok,
        "ok": pair_exact_ok and pair_iso_ok and pair_nat_ok})

    if compare_choice is not None:
        indep = choice_independence(setting, rc, chosen_choice, compare_choice)
        sections.append({"name": "choice_independence", **indep})

    statuses = [setting.decidability_status, rc.rs.status, lc_rc.rs.status]
    decidability = COMPLETE if all(s == COMPLETE for s in statuses) \
        else "bounded-incomplete"
    return ApproximationReport(
        ok=all(section["ok"] for section in sections),
        sections=sections,
        decidability_status=decidability,
        bounds_used=asdict(limits))
