#!/usr/bin/env python3
"""Compare per-group fairness of driver-selected vs random subsets.

A wrapper over :func:`selcon.scenarios.fairness_study`: on four-group data
whose training fold carries heavy label corruption, enforces per-group
validation error bounds over a descending grid and reports the cross-group
fairness violation of both methods on the held-out test fold.

Usage:
    python scripts/fairness_demo.py --seeds 10 --out fairness.json
"""

import argparse
import json

from selcon.scenarios import fairness_study


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--k", type=int, default=12)
    ap.add_argument("--C", type=float, default=20.0)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.1)
    ap.add_argument("--scales", default="1,0.5,0.25")
    ap.add_argument("--out", default="fairness.json")
    args = ap.parse_args()

    scales = [float(s) for s in args.scales.split(",")]
    rows = fairness_study(args.seeds, scales, args.k, args.lam, args.C)
    for row in rows:
        print(row)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"k": args.k, "C": args.C, "rows": rows}, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
