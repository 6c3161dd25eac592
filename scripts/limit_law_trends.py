#!/usr/bin/env python3
"""Sweep sup-distances between exact statistic laws and their limits.

For every implemented (family, statistic) cell this prints one CSV row per
requested size with the sup-distance and total-variation distance after the
limit law's centering/scaling, e.g.

    python3 scripts/limit_law_trends.py --sizes 15,30,60 > trends.csv

The output is plot-ready: feed it to any CSV grapher to see the laws tighten.
"""

import argparse
import csv
import sys

import mpmath as mp

from fishburn import compare, distribution, limit_law_for
from fishburn.checks import TREND_CELLS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="15,30,60",
                        help="comma list of matrix sizes (default 15,30,60)")
    args = parser.parse_args()
    sizes = sorted({int(s) for s in args.sizes.split(",") if s.strip()})

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family", "stat", "entries", "n",
                     "sup_distance", "total_variation"])
    for family, stat, lam in TREND_CELLS:
        for n in sizes:
            dist = distribution(family, stat, lam, n)
            law = limit_law_for(family, stat, lam, n)
            metrics = compare(dist, law)
            writer.writerow([
                family, stat, lam.describe(), n,
                mp.nstr(metrics.sup_distance, 8),
                mp.nstr(metrics.total_variation, 8),
            ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
