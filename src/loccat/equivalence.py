"""Density, fullness and faithfulness of a functor relative to denominators.

All three checks quantify over 2-arrows ``(g, b)`` with ``g: F x -> y``
arbitrary and ``b: F x' -> y`` a denominator of the target.  A fill for
such a 2-arrow is a localised morphism ``phi: x -> x'`` of the source
with ``loc(g) = (GZ F)(phi) . loc(b)``; since ``loc(b)`` is invertible
this says exactly ``loc(g) . loc(b)^{-1} = (GZ F)(phi)``.

Relative fullness asks every 2-arrow to have a fill, relative
faithfulness asks for at most one, relative density asks every target
object to admit a replacement.  All three are decided by bounded
enumeration of the finitely presented hom-sets.

Each check takes ``limits`` only to prepare a :class:`GzSetting` when
the caller gives none; the ``bounds_used`` it reports are the limits
the setting's systems were completed under.

Each :class:`GzSetting` keeps a fill table: :func:`solve_fill` solves a
2-arrow once and answers it from the table after that, so the fill
survey and every later value of the replacement functors share one
solution per arrow.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .axioms import check_multiplicative, validate_functor, word_json
from .gz import LocalisedCategory, gz_compose, induced_functor, loc_map, localise
from .presentation import (
    FunctorData,
    PathWord,
    ValidationError,
)
from .replacement import has_enough
from .rewrite import (
    COMPLETE,
    DEFAULT_LIMITS,
    BOUNDED_INCOMPLETE,
    DenomDecider,
    ResourceLimits,
    RewriteSystem,
    complete,
    denominators,
    find_inverse,
    homset,
    normalize,
)


@dataclass(frozen=True)
class STwoArrow:
    """A 2-arrow ``(g, b)`` from ``x`` to ``x_prime`` over some wedge object.

    ``g: F x -> y`` and ``b: F x_prime -> y`` with ``b`` a denominator.
    """

    x: str
    x_prime: str
    g: PathWord
    b: PathWord

    def to_json(self) -> dict:
        return {"x": self.x, "x_prime": self.x_prime,
                "g": word_json(self.g), "b": word_json(self.b)}


@dataclass
class CheckReport:
    """Outcome of a decidable check with provenance of the bounds used."""

    check: str
    verdict: bool
    witness: dict | None
    bounds_used: dict
    decidability_status: str
    details: dict

    def to_json(self) -> dict:
        return {"check": self.check, "verdict": self.verdict,
                "witness": self.witness, "bounds_used": self.bounds_used,
                "decidability_status": self.decidability_status,
                "details": self.details}


@dataclass
class GzSetting:
    """Completed and localised data for one functor, built once.

    It also owns the tables its queries fill: the fill table maps each
    solved :class:`STwoArrow` to its fills (see :func:`solve_fill`),
    and the total values map ``(triple, triple, word)`` to the unique
    fill :func:`loccat.approximation.total_value` found.  Only results
    are stored, so a query that raised raises again on every call.
    None of them takes part in equality or ``repr``.  The target
    decider is the one the target system keeps.  All four systems were
    completed under the limits given to :func:`prepare`.
    """

    f: FunctorData
    rs_src: RewriteSystem
    rs_tgt: RewriteSystem
    lc_src: LocalisedCategory
    lc_tgt: LocalisedCategory
    gz_f: FunctorData
    _survey: tuple | None = field(default=None, init=False, repr=False)
    _fills: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _total_values: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    @property
    def decidability_status(self) -> str:
        systems = (self.rs_src, self.rs_tgt, self.lc_src.rs, self.lc_tgt.rs)
        return COMPLETE if all(rs.status == COMPLETE for rs in systems) \
            else BOUNDED_INCOMPLETE

    @property
    def dec_tgt(self) -> DenomDecider:
        return denominators(self.f.target, self.rs_tgt)

    def fill_survey(self) -> tuple[dict | None, dict | None, int]:
        """:func:`_fill_survey` of this setting, run once on first use."""
        if self._survey is None:
            self._survey = _fill_survey(self)
        return self._survey


def prepare(f: FunctorData, limits: ResourceLimits = DEFAULT_LIMITS) -> GzSetting:
    """Complete, localise and induce; raises on an invalid functor."""
    rs_src = complete(f.source.cat, limits)
    rs_tgt = complete(f.target.cat, limits)
    problems = validate_functor(f, rs_src, rs_tgt)
    if problems:
        raise ValidationError(f"invalid functor: {problems}")
    lc_src = localise(f.source, rs_src)
    lc_tgt = localise(f.target, rs_tgt)
    gz_f = induced_functor(f, lc_src, lc_tgt)
    return GzSetting(f=f, rs_src=rs_src, rs_tgt=rs_tgt,
                     lc_src=lc_src, lc_tgt=lc_tgt, gz_f=gz_f)


def enumerate_s_two_arrows(setting: GzSetting):
    """All 2-arrows between materialized hom-sets, in a fixed order."""
    f, dec = setting.f, setting.dec_tgt
    src_objects = f.source.cat.objects
    tgt_objects = f.target.cat.objects
    for x in src_objects:
        for x_prime in src_objects:
            fx, fx_prime = f.object_map[x], f.object_map[x_prime]
            for y in tgt_objects:
                for g in homset(setting.rs_tgt, fx, y):
                    for b in dec.denominators_between(fx_prime, y):
                        yield STwoArrow(x=x, x_prime=x_prime, g=g, b=b)


def solve_fill(setting: GzSetting, arrow: STwoArrow) -> tuple[PathWord, ...]:
    """All localised ``phi: x -> x_prime`` with ``loc g = (GZ F) phi . loc b``.

    Returned in shortlex order of the localised source presentation.
    Solved once per setting; later calls read the setting's fill table.
    """
    fills = setting._fills.get(arrow)
    if fills is not None:
        return fills
    lhs = loc_map(setting.lc_tgt, arrow.g)
    loc_b = loc_map(setting.lc_tgt, arrow.b)
    fills = tuple(
        phi for phi in homset(setting.lc_src.rs, arrow.x, arrow.x_prime)
        if gz_compose(setting.lc_tgt, setting.gz_f.apply_word(phi), loc_b) == lhs)
    setting._fills[arrow] = fills
    return fills


def check_s_dense(f: FunctorData, limits: ResourceLimits = DEFAULT_LIMITS,
                  setting: GzSetting | None = None) -> CheckReport:
    """Does every target object admit a replacement along ``f``?"""
    setting = setting or prepare(f, limits)
    ok, witness = has_enough(f, setting.rs_tgt)
    return CheckReport(
        check="s-dense", verdict=ok, witness=witness,
        bounds_used=asdict(setting.rs_src.limits),
        decidability_status=setting.decidability_status,
        details={"objects_checked": len(f.target.cat.objects)})


def _fill_survey(setting: GzSetting) -> tuple[dict | None, dict | None, int]:
    """One pass over all 2-arrows, returning fullness and faithfulness
    witnesses (or None) and the number of arrows surveyed."""
    no_fill_witness = None
    ambiguous_witness = None
    count = 0
    for arrow in enumerate_s_two_arrows(setting):
        count += 1
        fills = solve_fill(setting, arrow)
        if not fills and no_fill_witness is None:
            no_fill_witness = {"kind": "no-fill", "arrow": arrow.to_json()}
        if len(fills) > 1 and ambiguous_witness is None:
            ambiguous_witness = {
                "kind": "distinct-fills", "arrow": arrow.to_json(),
                "first": word_json(fills[0]), "second": word_json(fills[1])}
    return no_fill_witness, ambiguous_witness, count


def check_s_full(f: FunctorData, limits: ResourceLimits = DEFAULT_LIMITS,
                 setting: GzSetting | None = None) -> CheckReport:
    """Does every 2-arrow admit a fill?"""
    setting = setting or prepare(f, limits)
    no_fill, _, count = setting.fill_survey()
    return CheckReport(
        check="s-full", verdict=no_fill is None, witness=no_fill,
        bounds_used=asdict(setting.rs_src.limits),
        decidability_status=setting.decidability_status,
        details={"arrows_checked": count})


def check_s_faithful(f: FunctorData, limits: ResourceLimits = DEFAULT_LIMITS,
                     setting: GzSetting | None = None) -> CheckReport:
    """Does every 2-arrow admit at most one fill?"""
    setting = setting or prepare(f, limits)
    _, ambiguous, count = setting.fill_survey()
    return CheckReport(
        check="s-faithful", verdict=ambiguous is None, witness=ambiguous,
        bounds_used=asdict(setting.rs_src.limits),
        decidability_status=setting.decidability_status,
        details={"arrows_checked": count})


def classical_full(f: FunctorData, rs_src: RewriteSystem,
                   rs_tgt: RewriteSystem) -> tuple[bool, dict | None]:
    for x in f.source.cat.objects:
        for x_prime in f.source.cat.objects:
            images = {normalize(rs_tgt, f.apply_word(w))
                      for w in homset(rs_src, x, x_prime)}
            for h in homset(rs_tgt, f.object_map[x], f.object_map[x_prime]):
                if h not in images:
                    return False, {"kind": "not-full", "x": x, "x_prime": x_prime,
                                   "morphism": word_json(h)}
    return True, None


def classical_faithful(f: FunctorData, rs_src: RewriteSystem,
                       rs_tgt: RewriteSystem) -> tuple[bool, dict | None]:
    for x in f.source.cat.objects:
        for x_prime in f.source.cat.objects:
            seen: dict[PathWord, PathWord] = {}
            for w in homset(rs_src, x, x_prime):
                image = normalize(rs_tgt, f.apply_word(w))
                if image in seen:
                    return False, {"kind": "not-faithful",
                                   "first": word_json(seen[image]),
                                   "second": word_json(w)}
                seen[image] = w
    return True, None


def classical_dense(f: FunctorData, rs_src: RewriteSystem,
                    rs_tgt: RewriteSystem) -> tuple[bool, dict | None]:
    """Essential surjectivity on objects."""
    for y in f.target.cat.objects:
        if not any(find_inverse(rs_tgt, w) is not None
                   for x in f.source.cat.objects
                   for w in homset(rs_tgt, f.object_map[x], y)):
            return False, {"kind": "not-essentially-surjective", "object": y}
    return True, None


def classical_equivalence(f: FunctorData, rs_src: RewriteSystem,
                          rs_tgt: RewriteSystem) -> tuple[bool, dict]:
    """Fullness, faithfulness and essential surjectivity of ``f`` itself."""
    full, w_full = classical_full(f, rs_src, rs_tgt)
    faithful, w_faithful = classical_faithful(f, rs_src, rs_tgt)
    dense, w_dense = classical_dense(f, rs_src, rs_tgt)
    details = {"full": full, "faithful": faithful, "dense": dense}
    for key, witness in (("full_witness", w_full),
                         ("faithful_witness", w_faithful),
                         ("dense_witness", w_dense)):
        if witness is not None:
            details[key] = witness
    return full and faithful and dense, details


def check_s_equivalence(f: FunctorData, limits: ResourceLimits = DEFAULT_LIMITS,
                        setting: GzSetting | None = None) -> CheckReport:
    """Relative density plus equivalence of the induced localised functor.

    When the target denominators are multiplicative this is also
    equivalent to relative density, fullness and faithfulness together;
    the agreement of the two routes is recorded in the details.
    """
    setting = setting or prepare(f, limits)
    dense = check_s_dense(f, setting=setting)
    gz_ok, gz_details = classical_equivalence(
        setting.gz_f, setting.lc_src.rs, setting.lc_tgt.rs)
    verdict = dense.verdict and gz_ok
    witness = None
    if not dense.verdict:
        witness = dense.witness
    elif not gz_ok:
        witness = {k: v for k, v in gz_details.items() if k.endswith("_witness")}
    details: dict = {"s_dense": dense.verdict, "gz_equivalence": gz_ok,
                     "gz_details": gz_details}

    mult, _ = check_multiplicative(setting.f.target, setting.rs_tgt)
    details["target_multiplicative"] = mult
    if mult:
        full = check_s_full(f, setting=setting)
        faithful = check_s_faithful(f, setting=setting)
        threefold = dense.verdict and full.verdict and faithful.verdict
        details["s_full"] = full.verdict
        details["s_faithful"] = faithful.verdict
        details["characterisation_agrees"] = threefold == verdict
    return CheckReport(
        check="s-equivalence", verdict=verdict, witness=witness,
        bounds_used=asdict(setting.rs_src.limits),
        decidability_status=setting.decidability_status,
        details=details)
