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

Each check takes a :class:`GzSetting` from :func:`prepare`, which holds
the functor and its completed and localised systems; the
``bounds_used`` it reports are the limits those systems were completed
under.

Each :class:`GzSetting` keeps a fill table: :func:`solve_fill` solves a
2-arrow once and answers it from the table after that, so the fill
survey and every later value of the replacement functors
(:meth:`GzSetting.value`) share one solution per arrow.  A 2-arrow is
the tuple ``(x, x_prime, y, g, b)`` with ``g`` and ``b`` encoded normal
forms of the target, and its fills are codes of the localised source:
the survey decodes only the arrows and fills its witnesses print.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import product

from .axioms import check_multiplicative, validate_functor, word_json
from .gz import LocalisedCategory, induced_functor, localise
from .presentation import ConstructionError, FunctorData, ValidationError
from .replacement import (
    ReplacementCategory,
    SReplacement,
    build_replacement_category,
    find_s_replacements,
    has_enough,
)
from .rewrite import (
    COMPLETE,
    DEFAULT_LIMITS,
    BOUNDED_INCOMPLETE,
    DenomDecider,
    ResourceLimits,
    RewriteSystem,
    complete,
    denominators,
    inverse,
    words,
)


class CheckReport(namedtuple("CheckReport", "check verdict witness bounds_used "
                                           "decidability_status details")):
    """Outcome of a decidable check with provenance of the bounds used."""

    __slots__ = ()


class GzSetting:
    """Completed and localised data for one functor, built once.

    It also owns what its queries build: the ``replacements`` of each
    target object, the replacement category ``rc`` of the functor built
    on them, its ``fill_survey``, the fill table mapping
    each solved 2-arrow ``(x, x_prime, y, g, b)`` to its fills (see
    :func:`solve_fill`), and the value table mapping ``(i, j, code)``,
    two positions among the triples of ``rc`` and a target code, to the
    unique encoded fill :meth:`value` found.  Only results are stored,
    so a query that raised raises again on every call.
    None of them takes part in equality: two settings are equal when
    their functors, systems and localisations are.  The target
    decider is the one the target system keeps.  All four systems were
    completed under the limits given to :func:`prepare`, and the
    decidability status of every system built on them is theirs.
    """

    def __init__(self, f: FunctorData, rs_src: RewriteSystem, rs_tgt: RewriteSystem,
                 lc_src: LocalisedCategory, lc_tgt: LocalisedCategory, gz_f: FunctorData):
        self.f, self.rs_src, self.rs_tgt = f, rs_src, rs_tgt
        self.lc_src, self.lc_tgt, self.gz_f = lc_src, lc_tgt, gz_f
        self._fills: dict = {}
        self._total_values: dict = {}

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self.f, self.rs_src, self.rs_tgt, self.lc_src, self.lc_tgt, self.gz_f)
            == (other.f, other.rs_src, other.rs_tgt, other.lc_src, other.lc_tgt, other.gz_f))

    @property
    def decidability_status(self) -> str:
        systems = (self.rs_src, self.rs_tgt, self.lc_src.rs, self.lc_tgt.rs)
        return COMPLETE if all(rs.status == COMPLETE for rs in systems) \
            else BOUNDED_INCOMPLETE

    @property
    def dec_tgt(self) -> DenomDecider:
        return denominators(self.f.target, self.rs_tgt)

    @cached_property
    def replacements(self) -> dict[str, tuple[SReplacement, ...]]:
        """:func:`find_s_replacements` of each target object, in object
        order, listed once for :func:`has_enough` and ``rc``."""
        return {y: find_s_replacements(self.f, self.rs_tgt, y) for y in self.f.target.cat.objects}

    @cached_property
    def rc(self) -> ReplacementCategory:
        """The replacement category of ``f``, built on first use; it is
        answered through ``rs_tgt`` and completes nothing."""
        return build_replacement_category(self.f, self.rs_tgt, self.replacements)

    def value(self, i: int, j: int, s: str) -> tuple[str, str, str]:
        """The value between triples ``i`` and ``j`` of ``rc`` at the
        target code ``s``: the unique fill ``phi`` with ``loc(q_i . s) =
        (GZ F)(phi) . loc(q_j)``, an encoded word of ``lc_src``.  Found once
        per ``(i, j, s)``; :class:`ConstructionError` unless exactly one
        fill exists."""
        key = (i, j, s)
        value = self._total_values.get(key)
        if value is None:
            ti, tj = self.rc.triples[i], self.rc.triples[j]
            g = self.rs_tgt.index[ti.q + s]
            fills = solve_fill(self, (ti.source, tj.source, tj.target, g, tj.q))
            if len(fills) != 1:
                raise ConstructionError(f"expected exactly one fill between triples {i} "
                                        f"and {j}, got {len(fills)}")
            value = self._total_values[key] = (ti.source, tj.source, fills[0])
        return value

    def value_of(self, at, under: dict, w: tuple) -> tuple[str, str, str]:
        """:meth:`value` of the encoded word ``w`` between the triples
        ``at(src)`` and ``at(dst)``; ``under`` maps its letters to target
        codes, or is ``{}`` for a target word."""
        return self.value(at(w[0]), at(w[1]), self.rs_tgt.index[w[2].translate(under)])

    @cached_property
    def fill_survey(self) -> tuple[dict | None, dict | None, int]:
        """:func:`_fill_survey` of this setting, run once on first use."""
        return _fill_survey(self)


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
    """All 2-arrows ``(x, x_prime, y, g, b)`` between materialized hom-sets,
    in a fixed order: ``g: F x -> y`` and the denominator ``b: F x_prime
    -> y`` are the codes of normal forms of the target."""
    f, dec, rs = setting.f, setting.dec_tgt, setting.rs_tgt
    src_objects = f.source.cat.objects
    for x in src_objects:
        fx = f.object_map[x]
        out = [(y, gs) for y in f.target.cat.objects if (gs := words(rs, fx, y))]
        for x_prime in src_objects:
            for y, gs in out:
                bs = dec.denominators_between(f.object_map[x_prime], y)
                for g in gs if bs else ():
                    for b in bs:
                        yield x, x_prime, y, g, b


def solve_fill(setting: GzSetting, arrow: tuple) -> tuple[str, ...]:
    """The codes of all localised ``phi: x -> x_prime`` with
    ``loc g = (GZ F) phi . loc b``, for ``arrow = (x, x_prime, y, g, b)``.

    Returned in shortlex order of the localised source presentation.
    Solved once per setting; later calls read the setting's fill table.
    """
    fills = setting._fills.get(arrow)
    if fills is None:
        x, x_prime, _, g, b = arrow
        nf, table = setting.lc_tgt.rs.index.__getitem__, setting.gz_f.translation
        lhs, loc_b = nf(g), nf(b)
        fills = setting._fills[arrow] = tuple(
            phi for phi in words(setting.lc_src.rs, x, x_prime)
            if nf(phi.translate(table) + loc_b) == lhs)
    return fills


def _arrow_json(setting: GzSetting, arrow: tuple) -> dict:
    """The witness JSON of a 2-arrow, its words decoded."""
    x, x_prime, y, g, b = arrow
    omap, decode = setting.f.object_map, setting.rs_tgt.decode
    return {"x": x, "x_prime": x_prime, "g": word_json(decode((omap[x], y, g))),
            "b": word_json(decode((omap[x_prime], y, b)))}


def check_report(setting: GzSetting, check: str, verdict: bool,
                 witness: dict | None, details: dict) -> CheckReport:
    """A report under the limits and status of ``setting``'s systems."""
    return CheckReport(check, verdict, witness, setting.rs_src.limits._asdict(),
                       setting.decidability_status, details)


def check_s_dense(setting: GzSetting) -> CheckReport:
    """Does every target object admit a replacement along the functor?"""
    ok, witness = has_enough(setting.replacements)
    return check_report(setting, "s-dense", ok, witness,
                        {"objects_checked": len(setting.f.target.cat.objects)})


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
            no_fill_witness = {"kind": "no-fill", "arrow": _arrow_json(setting, arrow)}
        if len(fills) > 1 and ambiguous_witness is None:
            first, second = (setting.lc_src.rs.decode(arrow[:2] + (phi,)) for phi in fills[:2])
            ambiguous_witness = {
                "kind": "distinct-fills", "arrow": _arrow_json(setting, arrow),
                "first": word_json(first), "second": word_json(second)}
    return no_fill_witness, ambiguous_witness, count


def check_s_full(setting: GzSetting) -> CheckReport:
    """Does every 2-arrow admit a fill?"""
    no_fill, _, count = setting.fill_survey
    return check_report(setting, "s-full", no_fill is None, no_fill,
                        {"arrows_checked": count})


def check_s_faithful(setting: GzSetting) -> CheckReport:
    """Does every 2-arrow admit at most one fill?"""
    _, ambiguous, count = setting.fill_survey
    return check_report(setting, "s-faithful", ambiguous is None, ambiguous,
                        {"arrows_checked": count})


def classical_equivalence(f: FunctorData, rs_src: RewriteSystem,
                          rs_tgt: RewriteSystem) -> tuple[bool, dict]:
    """Fullness, faithfulness and essential surjectivity of ``f`` itself.

    One pass over the pairs ``(x, x')`` maps each word ``x -> x'`` once.
    The fullness and faithfulness witnesses are each the first in pair
    order: the target hom-set is listed until fullness has a witness,
    and the pass stops once both have one.  Density asks each target
    object ``y`` for some ``F x -> y`` with an inverse.
    """
    objects, omap, table = f.source.cat.objects, f.object_map, f.translation
    witnesses: dict[str, dict] = {}
    for x, x_prime in product(objects, repeat=2):
        images: dict[str, str] = {}
        for w in words(rs_src, x, x_prime):
            first = images.setdefault(rs_tgt.index[w.translate(table)], w)
            if first != w and "faithful_witness" not in witnesses:
                a, b = (word_json(rs_src.decode((x, x_prime, v))) for v in (first, w))
                witnesses["faithful_witness"] = {"kind": "not-faithful",
                                                 "first": a, "second": b}
        if "full_witness" not in witnesses:
            fx, fy = omap[x], omap[x_prime]
            h = next((h for h in words(rs_tgt, fx, fy) if h not in images), None)
            if h is not None:
                witnesses["full_witness"] = {"kind": "not-full", "x": x, "x_prime": x_prime,
                                             "morphism": word_json(rs_tgt.decode((fx, fy, h)))}
        if len(witnesses) == 2:
            break
    for y in f.target.cat.objects:
        if not any(inverse(rs_tgt, (omap[x], y, s)) is not None
                   for x in objects for s in words(rs_tgt, omap[x], y)):
            witnesses["dense_witness"] = {"kind": "not-essentially-surjective", "object": y}
            break
    details = {key: f"{key}_witness" not in witnesses for key in ("full", "faithful", "dense")}
    return not witnesses, {**details, **witnesses}


def check_s_equivalence(setting: GzSetting) -> CheckReport:
    """Relative density plus equivalence of the induced localised functor.

    When the target denominators are multiplicative this is also
    equivalent to relative density, fullness and faithfulness together;
    the agreement of the two routes is recorded in the details.
    """
    dense = check_s_dense(setting)
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
        full = check_s_full(setting)
        faithful = check_s_faithful(setting)
        threefold = dense.verdict and full.verdict and faithful.verdict
        details["s_full"] = full.verdict
        details["s_faithful"] = faithful.verdict
        details["characterisation_agrees"] = threefold == verdict
    return check_report(setting, "s-equivalence", verdict, witness, details)
