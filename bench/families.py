"""Deterministic generators for the scaling families the benchmark runs.

Every generator returns plain JSON-ready dicts in the repository's file
formats (see README.md).  Names come from a ``Namer`` seeded by the
workload seed: the seed changes spellings only, never declaration order,
so the shortlex order, the completion path and the cost of each command
are the same for every seed while the report bytes differ.

* ``ladder(n)``: the grid ``[n] x [1]``.  Top row ``t0 .. tn`` with
  ``h_i: t_{i-1} -> t_i``, bottom row ``b0 .. bn`` with
  ``k_i: b_{i-1} -> b_i``, verticals ``v_i: t_i -> b_i`` as denominators
  (identities included, closed under composition) and one square
  ``h_i . v_i = v_{i-1} . k_i`` per step.  The functor includes the free
  top row ``x0 -> .. -> xn`` (identity denominators only).  ``ladder(1)``
  is ``fixtures/E7.fun.json`` up to renaming.
* ``dihedral(n)``: one object, ``a^n = 1``, ``b.b = 1``,
  ``b.a.b = a^(n-1)``, with ``a`` a denominator.  ``|D_n| = 2n``.
* ``braid()``: the positive braid monoid ``a.b.a = b.a.b``.
* ``partially_commutative()``: ``a.b = b.a`` and ``b.c = c.b`` with ``a``
  and ``c`` free.

The shortlex completions of the last two do not terminate: their rules
keep growing up to the word bound (``c.a.b -> b.c.a``, then
``c.a.a.b -> b.c.a.a``, and so on for the second).

Both non-converging monoids are infinite, so no hom-set of theirs can
be enumerated and the only correct answer for one is "undecided".
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class Namer:
    """Seeded, collision-free spellings that keep a fixed role prefix."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._taken: set[str] = set()

    def __call__(self, role: str) -> str:
        while True:
            tag = "".join(self._rng.choice(ALPHABET) for _ in range(3))
            name = f"{role}{tag}"
            if name not in self._taken:
                self._taken.add(name)
                return name


def _cat(objects, generators, relations, denom_words, ids, closed) -> dict:
    return {
        "objects": list(objects),
        "generators": [{"name": g, "src": s, "dst": d} for g, s, d in generators],
        "relations": [{"lhs": list(l), "rhs": list(r)} for l, r in relations],
        "denominators": {"words": [[w] for w in denom_words],
                         "include_identities": ids,
                         "close_under_composition": closed},
    }


def ladder(n: int, name: Namer) -> dict:
    """Category, source, functor and the names the known answers use."""
    t = [name(f"t{i}_") for i in range(n + 1)]
    b = [name(f"b{i}_") for i in range(n + 1)]
    h = [None] + [name(f"h{i}_") for i in range(1, n + 1)]
    v = [name(f"v{i}_") for i in range(n + 1)]
    k = [None] + [name(f"k{i}_") for i in range(1, n + 1)]
    x = [name(f"x{i}_") for i in range(n + 1)]
    f = [None] + [name(f"f{i}_") for i in range(1, n + 1)]
    # declaration order tops, verticals, bottoms, as in E7D
    gens = ([(h[i], t[i - 1], t[i]) for i in range(1, n + 1)]
            + [(v[i], t[i], b[i]) for i in range(n + 1)]
            + [(k[i], b[i - 1], b[i]) for i in range(1, n + 1)])
    squares = [((h[i], v[i]), (v[i - 1], k[i])) for i in range(1, n + 1)]
    target = _cat(t + b, gens, squares, v, True, True)
    source = _cat(x, [(f[i], x[i - 1], x[i]) for i in range(1, n + 1)], [],
                  [], True, False)
    functor = {"object_map": {x[i]: t[i] for i in range(n + 1)},
               "generator_map": {f[i]: [h[i]] for i in range(1, n + 1)}}
    return {"target": target, "source": source, "functor": functor,
            "first": t[0], "last": t[n]}


def dihedral(n: int, name: Namer) -> dict:
    o, a, b = name("o_"), name("a_"), name("b_")
    rels = [([a] * n, []), ([b, b], []), ([b, a, b], [a] * (n - 1))]
    return {"cat": _cat([o], [(a, o, o), (b, o, o)], rels, [a], True, True),
            "object": o}


def braid(name: Namer) -> dict:
    o, a, b = name("o_"), name("a_"), name("b_")
    return {"cat": _cat([o], [(a, o, o), (b, o, o)],
                        [([a, b, a], [b, a, b])], [], True, True),
            "object": o}


def partially_commutative(name: Namer) -> dict:
    o, a, b, c = name("o_"), name("a_"), name("b_"), name("c_")
    return {"cat": _cat([o], [(a, o, o), (b, o, o), (c, o, o)],
                        [([a, b], [b, a]), ([b, c], [c, b])], [], True, True),
            "object": o}


def write_json(path: Path, data: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    return str(path)


def write_ladder(directory: Path, n: int, name: Namer) -> dict:
    """Write ``L_n`` as three files; returns their paths and endpoints."""
    lad = ladder(n, name)
    cat = write_json(directory / f"L{n}D.cat.json", lad["target"])
    write_json(directory / f"L{n}C.cat.json", lad["source"])
    fun = write_json(directory / f"L{n}.fun.json",
                     {"source": f"L{n}C.cat.json", "target": f"L{n}D.cat.json",
                      **lad["functor"]})
    return {"cat": cat, "fun": fun, "first": lad["first"], "last": lad["last"]}


def write_cat(directory: Path, stem: str, built: dict) -> dict:
    return {"cat": write_json(directory / f"{stem}.cat.json", built["cat"]),
            "object": built["object"]}
