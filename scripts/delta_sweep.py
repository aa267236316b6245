#!/usr/bin/env python3
"""Sweep the validation error bound and record test error per seed.

A wrapper over :func:`selcon.scenarios.delta_trend`: runs the selection
driver on the corrupted pool at each bound of a descending grid and writes
the long-format CSV consumed by the plotting of choice.

Usage:
    python scripts/delta_sweep.py --n 400 --k 40 --seeds 10 --out sweep.csv
"""

import argparse

import numpy as np

from selcon.metrics import sweep_rows_to_csv
from selcon.scenarios import delta_trend


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--k", type=int, default=40)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--scales", default="8,4,1,0.25", help="descending multiples of the auto bound")
    ap.add_argument("--lambda", dest="lam", type=float, default=0.3)
    ap.add_argument("--C", type=float, default=10.0)
    ap.add_argument("--out", default="delta_sweep.csv")
    args = ap.parse_args()

    scales = [float(s) for s in args.scales.split(",")]
    rows = delta_trend(args.seeds, scales, args.n, args.d, args.k, args.lam, args.C)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(sweep_rows_to_csv(rows))
    medians = {s: round(float(np.median([r["value"] for r in rows if r["scale"] == s])), 4) for s in scales}
    print("medians by scale:", medians)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
