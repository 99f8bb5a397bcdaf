"""In-process cost of `localization.localize` on Z/30, per subset.

Run as `PYTHONPATH=src python scripts/localize_timing.py [--rounds R]`.
A miss localizes every subset of one or two elements of Z/30 (465
subsets) right after `sheafspec.clear_caches()`; a hit localizes them
again with the caches warm.  As in a session query, each pass builds a
fresh `ModularRing` and fresh elements, before the clock starts, so a hit
compares its key by value.  Each round prints the microseconds per
subset of both, and the last line is their medians over the rounds as
JSON.
"""

import argparse
import json
import statistics
import time
from itertools import combinations

from ncspec import localization, sheafspec
from ncspec import rings as rg

N = 30


def subsets():
    """A fresh Z/30 and its subsets of one or two elements."""
    r = rg.ModularRing(N)
    elems = [rg.element(r, a) for a in range(N)]
    return r, [(a,) for a in elems] + list(combinations(elems, 2))


def per_subset_us(r, subs):
    t0 = time.perf_counter()
    for E in subs:
        localization.localize(r, E)
    return (time.perf_counter() - t0) / len(subs) * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args()
    miss, hit = [], []
    for i in range(args.rounds):
        sheafspec.clear_caches()
        miss.append(per_subset_us(*subsets()))
        hit.append(per_subset_us(*subsets()))
        print(f"round {i}: miss {miss[-1]:.2f} us, hit {hit[-1]:.2f} us per subset")
    print(json.dumps({"miss_us": round(statistics.median(miss), 2),
                      "hit_us": round(statistics.median(hit), 2)}))


if __name__ == "__main__":
    main()
