"""Margin sweep of the curtain linking engine over the family.

Computes lk_of_family for m in {+-1/2, +-1, +-3/2, +-2} and for the
large-|m| set {10, -12, 25/2, 20} at config seeds 0-9 (120 cases) and
counts the converged Newton rows behind every curtain crossing, by
wrapping numtopo._dedupe.  A crossing that few rows reach is one that
slightly different seeds could miss, so the fewest rows behind any
crossing is the margin of the seeds.

    PYTHONPATH=src python tests/curtain_margin_sweep.py

Prints one line per case, then the number of cases with lk = -4m and the
fewest rows behind a crossing.  Exits 1 when some lk differs from -4m or
when the fewest rows fall below MIN_ROWS.  The name has no test_ prefix,
so pytest does not collect it; it takes about 40 s on 2 cores.
"""

import sys

from scipy.spatial import cKDTree

from genimm import numtopo
from genimm.config import Config
from genimm.geometry import HalfInteger
from genimm.invariants import lk_of_family

MIN_ROWS = 5
MEMBERS = ("1/2", "-1/2", "1", "-1", "3/2", "-3/2", "2", "-2",
           "10", "-12", "25/2", "20")
SEEDS = range(10)

_dedupe = numtopo._dedupe
rows_behind: list[int] = []


def _counting_dedupe(points, radius):
    keep = _dedupe(points, radius)
    tree = cKDTree(points)
    rows_behind.extend(len(tree.query_ball_point(points[k], radius))
                       for k in keep)
    return keep


def main() -> int:
    numtopo._dedupe = _counting_dedupe
    right, fewest = 0, None
    for m in MEMBERS:
        want = -2 * HalfInteger.parse(m).twice
        for seed in SEEDS:
            rows_behind.clear()
            lk = lk_of_family(m, Config(seed=seed))
            least = min(rows_behind, default=None)
            right += lk == want
            if least is not None:
                fewest = least if fewest is None else min(fewest, least)
            print(f"m = {m:>4}  seed = {seed}  lk = {lk:3d}  (-4m = {want:3d})"
                  f"  fewest rows behind a crossing: {least}", flush=True)
    cases = len(MEMBERS) * len(SEEDS)
    print(f"lk = -4m in {right} of {cases} cases; fewest converged rows "
          f"behind a crossing: {fewest} (gate: at least {MIN_ROWS})")
    ok = right == cases and fewest is not None and fewest >= MIN_ROWS
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
