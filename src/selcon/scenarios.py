"""Seeded scenarios behind the paper's two experiments.

Two corrupted training pools with clean validation and test folds, and the
studies run on them: test error as the per-group bound tightens
(:func:`delta_trend`) and cross-group fairness against the constrained
random baseline (:func:`fairness_study`).  Each study sets its base bound by
the 30% rule from a C = 0 fit on the full pool and runs the driver with
alpha fixed at 1.  ``scripts/`` and the acceptance checks C12 and C13 call
these functions.
"""

from __future__ import annotations

import numpy as np

from .baselines import random_with_constraints
from .dataset import Dataset, partition_validation
from .metrics import auto_delta, fairness_violation, mse
from .selection import SelconConfig, run_selcon
from .setfn import SetFnContext

__all__ = ["corrupted_pool", "four_group_pool", "delta_trend", "fairness_study"]


def corrupted_pool(seed: int, n: int = 400, d: int = 4) -> tuple[Dataset, Dataset, Dataset]:
    """Linear targets split 80/10/10; a quarter of the training rows get
    N(0, 1.5^2) label noise."""
    r = np.random.default_rng(seed)
    X = r.uniform(-1, 1, (n, d))
    y = X @ r.uniform(-1, 1, d)
    y = y - y.min() + 0.25
    idx = r.permutation(n)
    tr, va, te = np.split(idx, [int(n * 0.8), int(n * 0.9)])
    y_tr = y.copy()
    bad = r.choice(tr, size=len(tr) // 4, replace=False)
    y_tr[bad] += r.normal(0, 1.5, size=len(bad))
    return (
        Dataset(features=X[tr], targets=y_tr[tr], ids=tr),
        Dataset(features=X[va], targets=y[va], ids=va),
        Dataset(features=X[te], targets=y[te], ids=te),
    )


def four_group_pool(seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """200 rows in four groups (one-hot features, group offsets 1.0-1.15)
    split 70/15/15; 35% of the training rows get N(0, 2.5^2) label noise."""
    n, d_cont = 200, 3
    r = np.random.default_rng(seed)
    Xc = r.uniform(-1, 1, (n, d_cont))
    groups = np.arange(n) % 4
    X = np.hstack([Xc, np.eye(4)[groups]])
    y = Xc @ r.uniform(-1, 1, d_cont) + (1.0 + 0.05 * np.arange(4))[groups]
    y = y + r.normal(0, 0.1, n)
    y = y - y.min() + 0.25
    idx = r.permutation(n)
    tr, va, te = np.split(idx, [int(n * 0.7), int(n * 0.85)])
    y_tr = y.copy()
    bad = r.choice(tr, size=int(len(tr) * 0.35), replace=False)
    y_tr[bad] += r.normal(0, 2.5, len(bad))
    return (
        Dataset(features=X[tr], targets=y_tr[tr], groups=groups[tr], ids=tr),
        Dataset(features=X[va], targets=y[va], groups=groups[va], ids=va),
        Dataset(features=X[te], targets=y[te], groups=groups[te], ids=te),
    )


def delta_trend(seeds: int, scales: list[float], n: int, d: int, k: int,
                lam: float, C: float) -> list[dict]:
    """Test MSE of the driver (L = 6) at each multiple of the base bound.

    Seeds 0..seeds-1 on :func:`corrupted_pool`, scales in the given
    (descending) order within each seed.  Rows carry the columns of
    :func:`selcon.metrics.sweep_rows_to_csv` plus the ``scale`` they ran at.
    """
    if list(scales) != sorted(scales, reverse=True):
        raise ValueError("scales must be sorted descending")
    rows = []
    for seed in range(seeds):
        train, val, test = corrupted_pool(seed, n, d)
        probe = partition_validation(val, "single", 0.0)
        base = auto_delta(train, probe, lam)
        for s in scales:
            ctx = SetFnContext(train=train, valpart=probe.with_delta(base * s), lam=lam, C=C)
            res = run_selcon(ctx, SelconConfig(k=k, seed=seed, L=6, alpha_mode="fixed", alpha_value=1.0))
            rows.append({"method": res.method, "k": k, "delta": base * s, "seed": seed,
                         "metric": "test_mse", "value": mse(res.state.model, test), "scale": s})
    return rows


def fairness_study(seeds: int, scales: list[float], k: int, lam: float, C: float) -> list[dict]:
    """Test-fold fairness violation of the driver (L = 4) against constrained
    random, per multiple of the base bound, over seeds 0..seeds-1 of
    :func:`four_group_pool`.  ``wins`` counts the seeds where the driver's
    violation is at most the baseline's."""
    sel_vals = [[] for _ in scales]
    rnd_vals = [[] for _ in scales]
    for seed in range(seeds):
        train, val, test = four_group_pool(seed)
        probe = partition_validation(val, "by_group", 0.0)
        base = auto_delta(train, probe, lam)
        for j, s in enumerate(scales):
            delta = base * s
            ctx = SetFnContext(train=train, valpart=probe.with_delta(delta), lam=lam, C=C)
            sel = run_selcon(ctx, SelconConfig(k=k, seed=seed, L=4, alpha_mode="fixed", alpha_value=1.0))
            rnd = random_with_constraints(ctx, k, seed)
            part = partition_validation(test, "by_group", delta)
            sel_vals[j].append(fairness_violation(sel.state.model, test, part))
            rnd_vals[j].append(fairness_violation(rnd.state.model, test, part))
    return [{"delta_scale": s, "selcon_median": float(np.median(sv)),
             "random_median": float(np.median(rv)), "wins": sum(a <= b for a, b in zip(sv, rv)),
             "seeds": seeds} for s, sv, rv in zip(scales, sel_vals, rnd_vals)]
