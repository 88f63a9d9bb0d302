"""A fixed pure-Python kernel that gauges how fast the machine runs now.

On a shared machine the speed at which one core runs Python changes by a
third or more over minutes, with the load of other tenants, and a whole
run can fall in a slow stretch.  ``run.py`` runs this kernel at intervals
through a run, on the CPU the commands run on, and scales command times
by ``NOMINAL_S`` over the kernel's mean time: a change of machine speed
moves both alike, a change of the program moves only the commands.

The kernel imports nothing from ``loccat``, so no change to the program
changes it.  Its work is the kind the program does most: rewriting words
(tuples of generator names) to normal form with a dictionary of rules,
and counting the normal forms in a dictionary.
"""

from __future__ import annotations

import random
import time

# seconds one chunk takes on an unloaded core of a 2-core shared VM
NOMINAL_S = 0.04
WORDS = 800
RULES = {("b", "a"): ("a", "b"), ("c", "a"): ("a", "c"),
         ("c", "b"): ("b", "c"), ("b", "b", "b"): (), ("c", "c"): ("a",)}


def normal_form(word: tuple) -> tuple:
    changed = True
    while changed:
        changed = False
        for lhs, rhs in RULES.items():
            k = len(lhs)
            for i in range(len(word) - k + 1):
                if word[i:i + k] == lhs:
                    word = word[:i] + rhs + word[i + k:]
                    changed = True
                    break
    return word


def chunk() -> float:
    """Seconds to normalise a fixed set of words."""
    rng = random.Random(0)
    words = [tuple(rng.choice("abc") for _ in range(14)) for _ in range(WORDS)]
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    for word in words:
        nf = normal_form(word)
        counts[nf] = counts.get(nf, 0) + 1
    seconds = time.perf_counter() - start
    assert sum(counts.values()) == WORDS
    return seconds
