"""Shared fixture loading with per-session caching.

Tests import from here so each fixture is parsed, completed, and
localised once per test run regardless of how many modules touch it.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from loccat.fileio import load_cat, load_functor
from loccat.gz import localise
from loccat.equivalence import prepare
from loccat.rewrite import DEFAULT_LIMITS, complete

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CAT_NAMES = ("terminal", "E1", "E1sub", "E2", "E3C", "E3D", "E4", "E5",
             "E6", "E7C", "E7D", "E7bD", "E8")
FUN_NAMES = ("E1", "E1incl", "E2", "E3", "E4", "E5", "E5term", "E6",
             "E7", "E7b")


def cat_path(name: str) -> str:
    return str(FIXTURES / f"{name}.cat.json")


def fun_path(name: str) -> str:
    return str(FIXTURES / f"{name}.fun.json")


@lru_cache(maxsize=None)
def cat(name: str):
    return load_cat(cat_path(name))


@lru_cache(maxsize=None)
def rs(name: str):
    return complete(cat(name), DEFAULT_LIMITS)


@lru_cache(maxsize=None)
def lc(name: str):
    return localise(rs(name))


@lru_cache(maxsize=None)
def fun(name: str):
    return load_functor(fun_path(name))


@lru_cache(maxsize=None)
def setting(name: str):
    return prepare(fun(name), DEFAULT_LIMITS)



def cat_data(objects, gens, relations=(), denominators=(),
             close_under_composition=True) -> dict:
    """A category file's data, for ``load_cat(label, data)``: generators
    ``(name, src, dst)``, relations ``(lhs, rhs)`` of generator names and
    the generators ``denominators``; identities are denominators too,
    and so are composites unless ``close_under_composition`` is false."""
    return {"objects": list(objects),
            "generators": [{"name": g, "src": s, "dst": d} for g, s, d in gens],
            "relations": [{"lhs": list(lhs), "rhs": list(rhs)} for lhs, rhs in relations],
            "denominators": {"words": [[g] for g in denominators],
                             "include_identities": True,
                             "close_under_composition": close_under_composition}}


def _write(directory: Path, stem: str, source: dict, target: dict, functor: dict) -> str:
    """Write ``<stem>C``, ``<stem>D`` and the functor ``<stem>`` between
    them to ``directory``; returns the functor's path."""
    files = {f"{stem}C.cat.json": source, f"{stem}D.cat.json": target,
             f"{stem}.fun.json": {"source": f"{stem}C.cat.json",
                                  "target": f"{stem}D.cat.json", **functor}}
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data), encoding="utf-8")
    return str(directory / f"{stem}.fun.json")


def fan_data(k: int) -> tuple[dict, dict, dict]:
    """``Fan_k``: the data of its source and target category files and
    its functor's maps.

    D has objects ``x_0 … x_{k-1}`` and ``y``, generators ``q_i: x_i -> y``
    then ``c_i: x_i -> x_{i+1}``, and relations ``c_i·q_{i+1} = q_i``;
    every generator is a denominator.  C is the full subcategory on the
    ``x_i`` with the ``c_i`` as denominators, and F is the inclusion, so
    ``y`` has ``k`` replacements.
    """
    xs = [f"x{i}" for i in range(k)]
    qs = [(f"q{i}", xs[i], "y") for i in range(k)]
    cs = [(f"c{i}", xs[i], xs[i + 1]) for i in range(k - 1)]
    relations = [((f"c{i}", f"q{i + 1}"), (f"q{i}",)) for i in range(k - 1)]
    return (cat_data(xs, cs, (), [c for c, _, _ in cs]),
            cat_data(xs + ["y"], qs + cs, relations, [g for g, _, _ in qs + cs]),
            {"object_map": {x: x for x in xs}, "generator_map": {c: [c] for c, _, _ in cs}})


def fan(k: int, directory: Path) -> str:
    """Write ``Fan_k`` (:func:`fan_data`) to ``directory``; returns the
    functor's path."""
    return _write(directory, f"Fan{k}", *fan_data(k))


def detour(directory: Path) -> str:
    """Write a functor whose one target word ``f·g`` passes through an
    object ``m`` without replacements; returns the functor's path.

    D is ``f: a -> m``, ``g: m -> b``, C is ``h: x -> y`` with
    ``h ↦ f·g``, and only identities are denominators.
    """
    return _write(directory, "detour", cat_data(["x", "y"], [("h", "x", "y")]),
                  cat_data(["a", "m", "b"], [("f", "a", "m"), ("g", "m", "b")]),
                  {"object_map": {"x": "a", "y": "b"}, "generator_map": {"h": ["f", "g"]}})
