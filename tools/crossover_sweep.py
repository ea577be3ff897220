"""Per-row cost of the discrete kernel's two counting paths, the data that
``citests._bitset_path`` is fitted to.

    python3 tools/crossover_sweep.py [--rounds 5] [--json FILE]

Run from the root of a checkout; the package is imported from ``src/``.
Each point is a sample size n, an arity and a level: uniform random codes
of 12 variables of that arity, and random (i, j, s) rows of that level.
Both paths are forced in turn by replacing ``_bitset_path``, and each is
timed through ``GSquaredTest.pvalues``, which counts and sums the tables:
batched, ``rows`` rows in one call, and one row per call.  A point's time
is the minimum over ``--rounds`` rounds, the two paths alternating which
goes first.  ``rule`` is what ``_bitset_path`` picks for the point.  One
line per point goes to standard output; ``--json`` also writes the points
as a JSON record.  With the default rounds a sweep takes a few minutes on
a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stablepc import citests  # noqa: E402
from stablepc.data import DiscreteSuffStat  # noqa: E402

SAMPLE_SIZES = (100, 200, 500, 1000, 2000, 4000, 10000, 20000)
# (arity, levels): the sizes where the two paths come close, from four cells
# up to tables of a few hundred cells, and the wide pairs of level 0 that
# decide which arities keep bitsets at all
SHAPES = ((2, range(6)), (3, range(5)), (4, range(3)), (5, range(2)), (6, range(2)),
          (7, range(1)), (8, range(1)), (10, range(1)), (12, range(1)), (16, range(1)))
VARIABLES = 12
ONE_ROW_CALLS = 20
WHAT = ("Per-row time of the two counting paths, each forced through _bitset_path, in "
        "GSquaredTest.pvalues on uniform random codes of 12 variables: `rows` random "
        "(i, j, s) rows of one level in one call (us_per_row) and one row per call "
        f"({ONE_ROW_CALLS} calls, us_one_row); minimum over the rounds, the paths alternating "
        "which goes first. `rule` is what _bitset_path picks for (cells, words).")


def draw_rows(rng: np.random.Generator, level: int, m: int):
    """m random (i, j, s) rows over VARIABLES variables with |s| = level."""
    picks = np.array([rng.choice(VARIABLES, level + 2, replace=False) for _ in range(m)])
    return picks[:, 0], picks[:, 1], picks[:, 2:]


def timed(test, rows, one_row: bool) -> float:
    """Seconds per row of one pass over ``rows``, batched or a row a call."""
    i, j, s = rows
    started = time.perf_counter()
    if one_row:
        for k in range(ONE_ROW_CALLS):
            test.pvalues(i[k:k + 1], j[k:k + 1], s[k:k + 1])
        return (time.perf_counter() - started) / ONE_ROW_CALLS
    test.pvalues(i, j, s)
    return (time.perf_counter() - started) / len(i)


def sweep_point(n: int, arity: int, level: int, rounds: int) -> dict:
    rng = np.random.default_rng(n * 100 + arity * 10 + level)
    stat = DiscreteSuffStat(rng.integers(0, arity, (n, VARIABLES)), [arity] * VARIABLES)
    test = citests.GSquaredTest(stat)
    m = min(1000, 10 ** 6 // (n * (level + 2)))
    rows = draw_rows(rng, level, max(m, ONE_ROW_CALLS))
    cells, words = arity ** (level + 2), -(-n // 64)
    rule = citests._bitset_path(cells, words)
    best = {}
    real = citests._bitset_path
    try:
        for r in range(rounds):
            for bits in ((True, False) if r % 2 == 0 else (False, True)):
                citests._bitset_path = lambda *size, bits=bits: bits
                for one_row in (False, True):
                    key = ("bits" if bits else "bincount", one_row)
                    best[key] = min(best.get(key, np.inf), timed(test, rows, one_row))
    finally:
        citests._bitset_path = real
    return {"n": n, "arity": arity, "level": level, "cells": cells, "words": words,
            "rows": m,
            "bits_us_per_row": round(best["bits", False] * 1e6, 2),
            "bincount_us_per_row": round(best["bincount", False] * 1e6, 2),
            "bits_us_one_row": round(best["bits", True] * 1e6, 2),
            "bincount_us_one_row": round(best["bincount", True] * 1e6, 2),
            "rule": rule}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--json", type=Path, help="also write the points to this file")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    points = []
    print(f"{'n':>6} {'arity':>5} {'level':>5} {'cells':>6} {'words':>5}  "
          f"{'bits':>7} {'bincount':>8}  {'bits/1':>7} {'bincnt/1':>8}  rule  (us per row)")
    for n in SAMPLE_SIZES:
        for arity, levels in SHAPES:
            for level in levels:
                point = sweep_point(n, arity, level, args.rounds)
                points.append(point)
                faster = point["bits_us_per_row"] < point["bincount_us_per_row"]
                print(f"{n:>6} {arity:>5} {level:>5} {point['cells']:>6} {point['words']:>5}  "
                      f"{point['bits_us_per_row']:>7.2f} {point['bincount_us_per_row']:>8.2f}  "
                      f"{point['bits_us_one_row']:>7.2f} {point['bincount_us_one_row']:>8.2f}  "
                      f"{'bits' if point['rule'] else 'keys':>4}"
                      f"{'' if faster == point['rule'] else '  (other path faster)'}",
                      flush=True)
    if args.json is not None:
        record = {"what": WHAT, "command": f"python3 tools/crossover_sweep.py --rounds {args.rounds}",
                  "points": points}
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
