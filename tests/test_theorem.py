"""The characterisation and the approximation theorem as a property
over random functors.

Two shapes are drawn: the quotient functors of
``tests/test_quotient_draws.py`` under its generous limits, and
``Fan_k`` (``corpus.fan_data``) for ``k`` up to 4 with the generators
of both categories declared in a drawn order, under the default
limits.  Wherever every system of :func:`~loccat.equivalence.prepare`
answers within the limits, ``characterisation_agrees`` is never false:
for multiplicative target denominators, S-dense, S-full and S-faithful
together hold exactly when the functor is an S-equivalence.
:func:`~loccat.approximation.verify_approximation` returns ``ok`` true,
or raises :class:`PreconditionError` or :class:`LimitExceeded`; it
never returns ``ok`` false and never raises
:class:`ConstructionError`.  Every fan verifies.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import corpus
from loccat import (DEFAULT_LIMITS, FunctorData, LimitExceeded, PreconditionError,
                    check_s_equivalence, load_cat, prepare, verify_approximation)
from test_quotient_draws import GENEROUS, functor, quotient_draw

PROFILE = settings(deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.filter_too_much])


def verified(f: FunctorData, limits) -> bool | None:
    """Check the characterisation of ``f`` wherever it is decided, and
    return ``verify_approximation``'s ``ok``, or None where a
    precondition fails or a bound is hit."""
    try:
        report = check_s_equivalence(prepare(f, limits))
    except LimitExceeded:
        pass
    else:
        assert report.details.get("characterisation_agrees") is not False, report
    try:
        return verify_approximation(f, limits).ok
    except (PreconditionError, LimitExceeded):
        return None


@st.composite
def shuffled_fan(draw) -> FunctorData:
    source, target, maps = corpus.fan_data(draw(st.integers(1, 4)))
    for data in (source, target):
        data["generators"] = draw(st.permutations(data["generators"]))
    c, d = load_cat("FanC", source), load_cat("FanD", target)
    return FunctorData(c, d, maps["object_map"],
                       {g: d.encode(d.word(w)) for g, w in maps["generator_map"].items()})


@settings(PROFILE, max_examples=400)
@given(quotient_draw())
def test_theorem_on_quotient_draws(spec):
    assert verified(functor(spec), GENEROUS) is not False


@settings(PROFILE, max_examples=36)
@given(shuffled_fan())
def test_theorem_on_shuffled_fans(f):
    assert verified(f, DEFAULT_LIMITS) is True
