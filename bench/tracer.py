"""Outside-in layer trace: wrap loccat's public functions at every binding.

Modules import each other with ``from .rewrite import normalize``, so a
function is reachable under several module globals.  ``install`` swaps
the wrapper into every loccat module that binds the original, which
catches calls made through any of those names.  Each wrapper records
calls and self time (its duration minus the time spent in wrapped
callees), plus a few counters read off return values.

A function missing from its module (renamed or removed by a refactor)
is reported as absent; its metrics read zero.  ``presentation`` is not
wrapped: its helpers are too small to time from outside without
distorting the run, so their cost shows in their callers' self time.

Install only in a child process that runs one command and exits: the
patches are never undone.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, label).  Several attributes may share a label; a
# dotted attribute names a method, wrapped on its class.
TARGETS = (
    ("rewrite", "complete", "complete"),
    ("rewrite", "normalize", "normalize"),
    ("rewrite", "homset", "homset"),
    ("rewrite", "find_inverse", "find_inverse"),
    ("rewrite", "DenomDecider.__init__", "DenomDecider"),
    ("equivalence", "prepare", "prepare"),
    ("equivalence", "solve_fill", "solve_fill"),
    ("equivalence", "_fill_survey", "fill_survey"),
    ("approximation", "total_value", "total_value"),
    ("approximation", "total_replacement_functor", "total_replacement_functor"),
    ("approximation", "verify_shortening", "verify_shortening"),
    ("approximation", "verify_denominator_values", "verify_denominator_values"),
    ("approximation", "replacement_functor", "replacement_functor"),
    ("approximation", "induced_replacement_functor", "induced_replacement_functor"),
    ("approximation", "choice_independence", "choice_independence"),
    ("approximation", "verify_approximation", "verify_approximation"),
    ("replacement", "build_replacement_category", "build_replacement_category"),
    ("replacement", "structure_choice_functor", "structure_choice_functor"),
    ("replacement", "canonical_lift", "canonical_lift"),
    ("gz", "localise", "localise"),
    ("gz", "induced_functor", "induced_functor"),
    ("gz", "gz_compose", "gz_compose"),
    ("gz", "loc_map", "loc_map"),
    ("gz", "gz_inverse", "gz_inverse"),
    ("gz", "zigzag_view", "zigzag_view"),
    ("axioms", "validate_functor", "validate_functor"),
    ("axioms", "check_multiplicative", "check_multiplicative"),
    ("axioms", "check_isosaturated", "check_isosaturated"),
    ("axioms", "check_reflects_denominators", "check_reflects_denominators"),
    ("fileio", "load_cat", "load"),
    ("fileio", "load_functor", "load"),
    ("fileio", "load_choice", "load"),
    ("cli", "_emit", "emit"),
    ("cli", "main", "main"),
)

LABELS = tuple(dict.fromkeys(f"{m}.{label}" for m, _, label in TARGETS))

# Counters taken from return values, and arguments whose repeats a
# per-category memo would serve.  Keys use object identity for the
# category-level argument; the recorder pins those objects so an id is
# never reused within the process.
RESULT_COUNTERS = {
    "rewrite.complete": (
        ("rewrite.complete.rules_out", lambda rs: len(rs.rules)),
        ("rewrite.complete.incomplete",
         lambda rs: int(rs.status == "bounded-incomplete"))),
    "rewrite.homset": (("rewrite.homset.words_out", len),),
    "replacement.build_replacement_category": (
        ("replacement.triples_out", lambda rc: len(rc.triples)),),
}
# Each entry: the number of leading positional arguments keyed by
# identity (and pinned), then the rest keyed by value.
REPEAT_KEYS = {
    "rewrite.normalize": 1,          # (rs, w)
    "equivalence.solve_fill": 1,     # (setting, arrow)
    "approximation.total_value": 2,  # (setting, rc, i, j, w)
}
COUNTER_NAMES = tuple(name for pairs in RESULT_COUNTERS.values()
                      for name, _ in pairs)


class Recorder:
    """Per-label calls and self time, for one command in one process."""

    def __init__(self):
        self.calls = dict.fromkeys(LABELS, 0)
        self.self_s = dict.fromkeys(LABELS, 0.0)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.distinct = {label: set() for label in REPEAT_KEYS}
        self.pinned: dict[int, object] = {}
        self.absent: list[str] = []
        self._child_time = [0.0]  # stack of time spent in wrapped callees

    def wrap(self, label: str, fn):
        clock = time.perf_counter
        stack = self._child_time
        calls, self_s = self.calls, self.self_s
        counters = RESULT_COUNTERS.get(label, ())
        by_identity = REPEAT_KEYS.get(label)
        seen = self.distinct.get(label)
        pinned = self.pinned

        def traced(*args, **kwargs):
            if by_identity is not None:
                for obj in args[:by_identity]:
                    pinned.setdefault(id(obj), obj)
                try:
                    seen.add((tuple(map(id, args[:by_identity])),
                              args[by_identity:], tuple(sorted(kwargs.items()))))
                except TypeError:  # an argument became unhashable
                    seen.add(object())
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = stack.pop()
                stack[-1] += duration
                calls[label] += 1
                self_s[label] += duration - inner
            for name, measure in counters:
                try:
                    self.counters[name] += measure(result)
                except (AttributeError, TypeError):  # result type changed
                    self.absent.append(name)
            return result

        return functools.wraps(fn)(traced)

    def snapshot(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counters": self.counters,
                "distinct": {k: len(v) for k, v in self.distinct.items()},
                "absent": sorted(set(self.absent))}


def install() -> Recorder:
    """Wrap every target in the loaded loccat modules; returns the recorder."""
    rec = Recorder()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "loccat" or name.startswith("loccat."))]
    for module_name, attr, label in TARGETS:
        module = sys.modules.get(f"loccat.{module_name}")
        key = f"{module_name}.{label}"
        owner_name, _, method = attr.partition(".")
        original = getattr(module, owner_name, None) if module else None
        if method:
            owner = original
            original = owner.__dict__.get(method) if isinstance(owner, type) else None
        if not callable(original):
            rec.absent.append(f"{module_name}.{attr}")
            continue
        wrapper = rec.wrap(key, original)
        if method:
            setattr(owner, method, wrapper)
            continue
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)
    return rec
