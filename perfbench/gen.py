"""Seeded input generators for the benchmark workloads.

The benchmark, not the program, makes its inputs: each generator takes the
workload seed and writes a CSV that ``selcon`` then loads.  The structure of
every pool (true weights, group biases, noise levels) comes from a fixed
constant, and the seed only draws the rows and the noise.  Different seeds
therefore give statistically identical problems, so a run-to-run spread in
the measured times is sampling noise and not a different problem.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Fixed structure shared by every seed (the arXiv number of the paper).
STRUCTURE_SEED = 2106_12491


def _structure(d: int, groups: int) -> tuple[np.ndarray, np.ndarray]:
    fixed = np.random.default_rng(STRUCTURE_SEED)
    return fixed.uniform(-1.0, 1.0, size=d), fixed.uniform(-0.5, 0.5, size=groups)


def write_csv(path: Path, X: np.ndarray, y: np.ndarray, groups: np.ndarray) -> None:
    """Feature columns f0..f{d-1}, target ``y`` and label ``group`` (g0, g1, ...)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(X.shape[1])] + ["y", "group"])
        for row, target, g in zip(X, y, groups):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target)), f"g{g}"])


def binding_pool(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool whose singleton duals have interior multipliers at C = 10.

    d = 8 uniform features plus a constant column, four cyclic groups.
    Groups 0 and 1 sit at bias 0 and carry the heavy tail: 60% of their rows
    (30% of all targets) get Laplace(1) noise, the rest N(0, 0.1).  Groups 2
    and 3 are clean (N(0, 0.3)) but sit 0.8 above the others.  The shared
    intercept then serves the clean groups only partly: with every
    multiplier at C their error is below the 30% rule's delta, and with their
    own multiplier at 0 it is above, so their multipliers settle inside
    (0, C) and the exact solver runs its whole ascent budget and fallbacks.
    """
    w_true, _ = _structure(8, 4)
    bias = np.array([0.0, 0.0, 0.8, 0.8])
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 8))
    groups = np.arange(n) % 4
    noisy = groups < 2
    noise = np.where(noisy, rng.normal(0.0, 0.1, size=n), rng.normal(0.0, 0.3, size=n))
    heavy = noisy & (rng.random(n) < 0.6)
    noise[heavy] = rng.laplace(0.0, 1.0, size=int(heavy.sum()))
    y = X @ w_true + bias[groups] + noise + 1.0
    return np.hstack([X, np.ones((n, 1))]), y, groups


def gen_pool(n: int, seed: int, d: int = 8, groups: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data shaped like ``selcon gen``: uniform features, a linear signal,
    cyclic group biases and N(0, 0.1) noise, shifted so that y > 0.

    The shift is the structure's worst case (plus five noise deviations),
    not the sample minimum ``selcon gen`` uses, so it does not vary by seed.
    """
    w_true, bias = _structure(d, groups)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    g = np.arange(n) % groups
    raw = X @ w_true + bias[g] + rng.normal(0.0, 0.1, size=n)
    shift = 0.25 + float(np.abs(w_true).sum() + np.abs(bias).max()) + 0.5
    return X, raw + shift, g
