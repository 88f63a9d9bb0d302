"""Shared fixture loading with per-session caching.

Tests import from here so each fixture is parsed, completed, and
localised once per test run regardless of how many modules touch it.
"""

from __future__ import annotations

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
    return complete(cat(name).cat, DEFAULT_LIMITS)


@lru_cache(maxsize=None)
def lc(name: str):
    return localise(cat(name), rs(name))


@lru_cache(maxsize=None)
def fun(name: str):
    return load_functor(fun_path(name))


@lru_cache(maxsize=None)
def setting(name: str):
    return prepare(fun(name), DEFAULT_LIMITS)
