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

from dataclasses import asdict, dataclass

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
    structure_choice_functor,
    validate_choice,
)
from .rewrite import (
    COMPLETE,
    DEFAULT_LIMITS,
    ResourceLimits,
    equal,
    homset,
    normalize,
)


@dataclass
class LocValuedFunctor:
    """A functor from a presented category into a localisation."""

    source: CatWithDenoms
    target_lc: LocalisedCategory
    object_map: dict[str, str]
    gen_values: dict[str, GzMorphism]

    def value_word(self, w: PathWord) -> GzMorphism:
        out = self.target_lc.presentation.identity(self.object_map[w.src])
        for letter in w.letters:
            out = gz_compose(self.target_lc, out, self.gen_values[letter])
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


def total_replacement_functor(f: FunctorData,
                              limits: ResourceLimits = DEFAULT_LIMITS,
                              setting: GzSetting | None = None,
                              rc: ReplacementCategory | None = None
                              ) -> tuple[LocValuedFunctor, dict]:
    """The fill-valued functor on the replacement category, verified.

    Requires relative fullness and faithfulness; raises
    :class:`PreconditionError` with a witness otherwise.  The report
    confirms unit fill cardinality, agreement of direct values with
    letterwise composition on every materialized word, and
    functoriality on every composable pair of materialized words.
    """
    setting = setting or prepare(f, limits)
    no_fill, ambiguous, arrows = setting.fill_survey()
    if no_fill is not None:
        raise PreconditionError("functor is not relatively full",
                                witness=no_fill)
    if ambiguous is not None:
        raise PreconditionError("functor is not relatively faithful",
                                witness=ambiguous)
    rc = rc or build_replacement_category(f, setting.rs_src, setting.rs_tgt,
                                          setting.limits)

    object_map = {rc.obj_names[i]: rc.triples[i].source
                  for i in range(len(rc.triples))}
    gen_values: dict[str, GzMorphism] = {}
    for g in rc.cwd.cat.generators:
        g_name, i, j = rc.lift_meta[g.name]
        gen_values[g.name] = total_value(setting, rc, i, j,
                                         rc.lifted_underlying[g.name])
    functor = LocValuedFunctor(source=rc.cwd, target_lc=setting.lc_src,
                               object_map=object_map, gen_values=gen_values)

    identities_ok = True
    for i in range(len(rc.triples)):
        value = total_value(setting, rc, i, i,
                            setting.f.target.cat.identity(rc.triples[i].target))
        if not value.is_identity_word:
            identities_ok = False

    n = len(rc.triples)
    words: dict[tuple[int, int], tuple[PathWord, ...]] = {}
    for i in range(n):
        for j in range(n):
            words[(i, j)] = homset(rc.rs, rc.obj_names[i], rc.obj_names[j],
                                   setting.limits)
    agreement = 0
    agreement_ok = True
    values: dict[PathWord, GzMorphism] = {}
    for ws in words.values():
        for w in ws:
            values[w] = _lifted_value(setting, rc, w)
            if functor.value_word(w) != values[w]:
                agreement_ok = False
            agreement += 1
    pairs = 0
    functorial_ok = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for w1 in words[(i, j)]:
                    for w2 in words[(j, k)]:
                        comp = rc.cwd.cat.concat(w1, w2)
                        lhs = _lifted_value(setting, rc, comp)
                        rhs = gz_compose(setting.lc_src, values[w1], values[w2])
                        if lhs != rhs:
                            functorial_ok = False
                        pairs += 1
    report = {
        "arrows_surveyed": arrows,
        "fill_cardinality_one": True,
        "identities_ok": identities_ok,
        "words_checked": agreement,
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
    quadruples = 0
    mismatch = None
    for y in tgt_cat.objects:
        for y_bar in tgt_cat.objects:
            es = dec.denominators_between(y, y_bar)
            if not es:
                continue
            for y2 in tgt_cat.objects:
                for y2_bar in tgt_cat.objects:
                    e2s = dec.denominators_between(y2, y2_bar)
                    if not e2s:
                        continue
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
                                                    y2_bar, rc.triples[j].source,
                                                    q2e))
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


def replacement_functor(f: FunctorData,
                        limits: ResourceLimits = DEFAULT_LIMITS,
                        setting: GzSetting | None = None,
                        rc: ReplacementCategory | None = None,
                        choice: ReplacementChoice | None = None
                        ) -> tuple[LocValuedFunctor, dict]:
    """The choice-dependent functor on the target category, verified.

    Sends ``Y`` to the chosen source ``X_Y`` and a morphism to the
    unique fill between the chosen triples.  The report confirms
    functoriality on all composable pairs, agreement with the total
    functor along the chosen section, invertibility of denominator
    values, and that all comparison fills between coexisting triples
    are mutually inverse isomorphisms.
    """
    setting = setting or prepare(f, limits)
    rc = rc or build_replacement_category(f, setting.rs_src, setting.rs_tgt,
                                          setting.limits)
    choice = choice or auto_choice(rc)
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

    words = {(a, b): homset(setting.rs_tgt, a, b, setting.limits)
             for a in tgt_cat.objects for b in tgt_cat.objects}
    values = {w: direct(w) for ws in words.values() for w in ws}
    agreement_ok = all(functor.value_word(w) == value
                       for w, value in values.items())
    pairs = 0
    functorial_ok = True
    for a in tgt_cat.objects:
        for b in tgt_cat.objects:
            for c in tgt_cat.objects:
                for w1 in words[(a, b)]:
                    for w2 in words[(b, c)]:
                        lhs = direct(tgt_cat.concat(w1, w2))
                        rhs = gz_compose(setting.lc_src, values[w1], values[w2])
                        if lhs != rhs:
                            functorial_ok = False
                        pairs += 1

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
            if not gz_compose(setting.lc_src, fwd, bwd).is_identity_word:
                comparison_ok = False
            if not gz_compose(setting.lc_src, bwd, fwd).is_identity_word:
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
    components = []
    iso_ok = True
    for y in tgt_cat.objects:
        fwd = total_value(setting, rc, idx1[y], idx2[y], tgt_cat.identity(y))
        bwd = total_value(setting, rc, idx2[y], idx1[y], tgt_cat.identity(y))
        invertible = (gz_compose(setting.lc_src, fwd, bwd).is_identity_word
                      and gz_compose(setting.lc_src, bwd, fwd).is_identity_word)
        if not invertible:
            iso_ok = False
        components.append({"object": y, "component": word_json(fwd),
                           "inverse": word_json(bwd),
                           "invertible": invertible})
    naturality_ok = True
    squares = 0
    for g in tgt_cat.generators:
        lhs = gz_compose(
            setting.lc_src,
            total_value(setting, rc, idx1[g.src], idx1[g.dst],
                        tgt_cat.word([g.name])),
            total_value(setting, rc, idx1[g.dst], idx2[g.dst],
                        tgt_cat.identity(g.dst)))
        rhs = gz_compose(
            setting.lc_src,
            total_value(setting, rc, idx1[g.src], idx2[g.src],
                        tgt_cat.identity(g.src)),
            total_value(setting, rc, idx2[g.src], idx2[g.dst],
                        tgt_cat.word([g.name])))
        squares += 1
        if lhs != rhs:
            naturality_ok = False
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

    gen_map: dict[str, PathWord] = {}
    for g in tgt_cat.generators:
        gen_map[g.name] = r_choice.gen_values[g.name]
    for name, base_word in lc_tgt.fresh_defs.items():
        gen_map[name] = total_value(setting, rc, chosen[base_word.src],
                                    chosen[base_word.dst],
                                    normalize(setting.rs_tgt, base_word))
    for name, inv_name in lc_tgt.inv_of.items():
        image = gen_map[name]
        inverse = gz_inverse(lc_src, image)
        if inverse is None:
            raise ConstructionError(
                f"value of denominator {name!r} is not invertible")
        gen_map[inv_name] = inverse
    functor = FunctorData(source=lc_tgt.cwd, target=lc_src.cwd,
                          object_map=dict(r_choice.object_map),
                          gen_map=gen_map)
    problems = validate_functor(functor, lc_tgt.rs, lc_src.rs, setting.limits)
    if problems:
        raise ConstructionError(f"induced replacement functor invalid: "
                                f"{problems[0]}")

    factorization_ok = all(
        normalize(lc_src.rs, functor.apply_word(
            loc_map(lc_tgt, tgt_cat.word([g.name]))))
        == r_choice.gen_values[g.name]
        for g in tgt_cat.generators)

    description_ok = True
    checked = 0
    for y in tgt_cat.objects:
        for y2 in tgt_cat.objects:
            q_y = loc_map(lc_tgt, choice.get(y).q)
            q_y2 = loc_map(lc_tgt, choice.get(y2).q)
            for psi in homset(lc_tgt.rs, y, y2, setting.limits):
                phi = normalize(lc_src.rs, functor.apply_word(psi))
                lhs = gz_compose(lc_tgt, q_y, psi)
                rhs = gz_compose(lc_tgt, setting.gz_f.apply_word(phi), q_y2)
                checked += 1
                if lhs != rhs:
                    description_ok = False
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
        return {"ok": self.ok, "sections": self.sections,
                "decidability_status": self.decidability_status,
                "bounds_used": self.bounds_used}


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
    mult, mult_wit = check_multiplicative(f.target, setting.rs_tgt, limits,
                                          setting.dec_tgt)
    if not mult and not experimental_no_mult:
        raise PreconditionError("target denominators are not multiplicative",
                                witness=mult_wit)
    from .replacement import has_enough
    enough, enough_wit = has_enough(f, setting.rs_tgt, limits)
    if not enough:
        raise PreconditionError("not enough replacements along the functor",
                                witness=enough_wit)
    no_fill, ambiguous, arrows = setting.fill_survey()
    if no_fill is not None:
        raise PreconditionError("functor is not relatively full",
                                witness=no_fill)
    if ambiguous is not None:
        raise PreconditionError("functor is not relatively faithful",
                                witness=ambiguous)

    rc = build_replacement_category(f, setting.rs_src, setting.rs_tgt, limits)
    chosen_choice = choice or auto_choice(rc)
    validate_choice(rc, chosen_choice)
    if compare_choice == "auto":
        compare_choice = auto_choice(rc)
    if compare_choice is not None:
        validate_choice(rc, compare_choice)

    src_cat, tgt_cat = f.source.cat, f.target.cat
    lc_src, lc_tgt = setting.lc_src, setting.lc_tgt
    sections: list[dict] = []

    pre = {"name": "preconditions", "multiplicative": mult, "s_dense": True,
           "s_full": True, "s_faithful": True, "arrows_surveyed": arrows,
           "ok": mult}
    if not mult:
        pre["witness"] = mult_wit
        pre["experimental_no_mult"] = True
    sections.append(pre)

    total, total_report = total_replacement_functor(f, limits, setting, rc)
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
        "section_roundtrip_identity": True,
        "comparison_natural": True,
        "ok": not u_problems and u_reflects})

    r_choice, r_report = replacement_functor(f, limits, setting, rc,
                                             chosen_choice)
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
    alpha: dict[str, GzMorphism] = {}
    alpha_rows = []
    alpha_ok = True
    for x in src_cat.objects:
        fx = f.object_map[x]
        comp = total_value(setting, rc, chosen_idx[fx], trivial_idx[x],
                           tgt_cat.identity(fx))
        alpha[x] = comp
        invertible = gz_inverse(lc_src, comp) is not None
        if not invertible:
            alpha_ok = False
        alpha_rows.append({"object": x, "component": word_json(comp),
                           "invertible": invertible})
    alpha_squares = 0
    for g in lc_src.presentation.generators:
        phi = lc_src.presentation.word([g.name])
        round_trip = normalize(lc_src.rs, induced.apply_word(
            setting.gz_f.apply_word(phi)))
        lhs = gz_compose(lc_src, round_trip, alpha[g.dst])
        rhs = gz_compose(lc_src, alpha[g.src], phi)
        alpha_squares += 1
        if lhs != rhs:
            alpha_ok = False
    objects_match = all(
        induced.object_map[setting.gz_f.object_map[x]]
        == rc.triples[chosen_idx[f.object_map[x]]].source
        for x in src_cat.objects)
    sections.append({"name": "alpha", "components": alpha_rows,
                     "squares_checked": alpha_squares,
                     "round_trip_objects_ok": objects_match, "ok": alpha_ok})

    # beta: localised chosen denominators
    beta: dict[str, GzMorphism] = {}
    beta_rows = []
    beta_ok = True
    for y in tgt_cat.objects:
        comp = loc_map(lc_tgt, chosen_choice.get(y).q)
        beta[y] = comp
        invertible = gz_inverse(lc_tgt, comp) is not None
        if not invertible:
            beta_ok = False
        beta_rows.append({"object": y, "component": word_json(comp),
                          "invertible": invertible})
    beta_squares = 0
    for g in lc_tgt.presentation.generators:
        psi = lc_tgt.presentation.word([g.name])
        round_trip = normalize(lc_tgt.rs, setting.gz_f.apply_word(
            normalize(lc_src.rs, induced.apply_word(psi))))
        lhs = gz_compose(lc_tgt, round_trip, beta[g.dst])
        rhs = gz_compose(lc_tgt, beta[g.src], psi)
        beta_squares += 1
        if lhs != rhs:
            beta_ok = False
    sections.append({"name": "beta", "components": beta_rows,
                     "squares_checked": beta_squares, "ok": beta_ok})

    # whiskering compatibilities linking alpha and beta
    sym_ok = True
    for x in src_cat.objects:
        image = normalize(lc_tgt.rs, setting.gz_f.apply_word(alpha[x]))
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

    beta_bar = {rc.obj_names[i]: loc_map(lc_tgt, rc.triples[i].q)
                for i in range(len(rc.triples))}
    part_b_ok = all(gz_inverse(lc_tgt, comp) is not None
                    for comp in beta_bar.values())
    b_squares = 0
    for g in rc.cwd.cat.generators:
        lhs = gz_compose(lc_tgt, normalize(lc_tgt.rs, setting.gz_f.apply_word(
            total.gen_values[g.name])), beta_bar[g.dst])
        rhs = gz_compose(lc_tgt, beta_bar[g.src],
                         loc_map(lc_tgt, rc.lifted_underlying[g.name]))
        b_squares += 1
        if lhs != rhs:
            part_b_ok = False

    lc_rc = localise(rc.cwd, rc.rs, limits)
    gz_lift = induced_functor(lift, lc_src, lc_rc, limits)
    beta_bar_c = {}
    for i, t in enumerate(rc.triples):
        lifted_q = rc.lift_word(t.q, trivial_idx[t.source], i)
        beta_bar_c[rc.obj_names[i]] = loc_map(lc_rc, lifted_q)
    part_c_ok = all(gz_inverse(lc_rc, comp) is not None
                    for comp in beta_bar_c.values())
    c_squares = 0
    for g in rc.cwd.cat.generators:
        lhs = gz_compose(lc_rc, normalize(lc_rc.rs, gz_lift.apply_word(
            total.gen_values[g.name])), beta_bar_c[g.dst])
        rhs = gz_compose(lc_rc, beta_bar_c[g.src],
                         loc_map(lc_rc, rc.cwd.cat.word([g.name])))
        c_squares += 1
        if lhs != rhs:
            part_c_ok = False

    # the total functor through the localised replacement category
    rf_hat_gen_map: dict[str, PathWord] = {}
    for g in rc.cwd.cat.generators:
        rf_hat_gen_map[g.name] = total.gen_values[g.name]
    for name, base_word in lc_rc.fresh_defs.items():
        rf_hat_gen_map[name] = _lifted_value(setting, rc, base_word)
    for name, inv_name in lc_rc.inv_of.items():
        image = rf_hat_gen_map[name]
        inverse = gz_inverse(lc_src, image)
        if inverse is None:
            raise ConstructionError(
                f"total value of lifted denominator {name!r} not invertible")
        rf_hat_gen_map[inv_name] = inverse
    rf_hat = FunctorData(source=lc_rc.cwd, target=lc_src.cwd,
                         object_map=dict(total.object_map),
                         gen_map=rf_hat_gen_map)
    rf_hat_problems = validate_functor(rf_hat, lc_rc.rs, lc_src.rs, limits)
    retraction_ok = not rf_hat_problems and all(
        normalize(lc_src.rs, rf_hat.apply_word(gz_lift.apply_word(
            lc_src.presentation.word([g.name]))))
        == normalize(lc_src.rs, lc_src.presentation.word([g.name]))
        for g in lc_src.presentation.generators)

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
            lc_tgt.presentation.word([g.name]))))
        == normalize(lc_tgt.rs, lc_tgt.presentation.word([g.name]))
        for g in lc_tgt.presentation.generators)
    loc_abar = {t: loc_map(lc_rc, abar.components[t]) for t in rc.obj_names}
    pair_iso_ok = all(gz_inverse(lc_rc, comp) is not None
                      for comp in loc_abar.values())
    pair_squares = 0
    pair_nat_ok = True
    for g in lc_rc.presentation.generators:
        w = lc_rc.presentation.word([g.name])
        lhs = gz_compose(lc_rc, normalize(lc_rc.rs, gz_cr.apply_word(
            gz_u.apply_word(w))), loc_abar[g.dst])
        rhs = gz_compose(lc_rc, loc_abar[g.src], w)
        pair_squares += 1
        if lhs != rhs:
            pair_nat_ok = False
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
