"""The problem builder and the seeded scenarios of the paper's two experiments.

:func:`build_context` partitions the validation rows, sets their bound and
returns the context; the CLI, the studies and the tests build through it.
Two corrupted training pools with clean validation and test folds, and the
studies run on them: test error as the per-group bound tightens
(:func:`delta_trend`) and cross-group fairness against the constrained
random baseline (:func:`fairness_study`).  Each study builds one context per
seed at the 30% rule, moves its bound by multiples of it and runs the driver
with alpha fixed at 1.  ``scripts/`` and the checks C12 and C13 call them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import baselines, dataset, metrics
from .dataset import Dataset
from .selection import SelconConfig, run_selcon
from .setfn import SetFnContext

__all__ = ["build_context", "corrupted_pool", "four_group_pool", "delta_trend", "fairness_study"]


def build_context(train: Dataset, val: Dataset, partition: str = "single", lam: float = 1.0,
                  C: float = 1.0, delta: float | str = 0.5, **fields) -> SetFnContext:
    """The problem on ``train`` with ``val`` partitioned by ``partition`` at
    bound ``delta``; ``fields`` (backend, trainer, model_kind) go to the context.
    ``delta="auto"`` is the 30% rule: :func:`~selcon.metrics.default_delta` of
    the exact C = 0 fit on the whole pool, over a probe partition at bound 0
    whose Gram blocks carry over.  Any other ``delta`` is read as a number."""
    valpart = dataset.partition_validation(val, partition, 0.0 if delta == "auto" else delta)
    if delta == "auto":
        full = baselines.full_selection(SetFnContext(train=train, valpart=valpart, lam=lam, C=0.0))
        valpart = valpart.with_delta(metrics.default_delta(full.state, val, valpart))
    return SetFnContext(train=train, valpart=valpart, lam=lam, C=C, **fields)


def _split_and_corrupt(r: np.random.Generator, pool: Dataset, cuts: tuple[float, float],
                       bad_frac: float, noise_sd: float) -> tuple[Dataset, Dataset, Dataset]:
    """Train, validation and test folds of ``pool``, shuffled and cut at the
    fractions ``cuts``; ``bad_frac`` of the training rows get N(0, noise_sd^2)
    label noise."""
    tr, va, te = np.split(r.permutation(pool.n), [int(pool.n * c) for c in cuts])
    y = pool.targets.copy()
    bad = r.choice(tr, size=int(len(tr) * bad_frac), replace=False)
    y[bad] += r.normal(0, noise_sd, len(bad))
    return replace(pool, targets=y).take(tr), pool.take(va), pool.take(te)


def corrupted_pool(seed: int, n: int = 400, d: int = 4) -> tuple[Dataset, Dataset, Dataset]:
    """Linear targets split 80/10/10; a quarter of the training rows get
    N(0, 1.5^2) label noise."""
    r = np.random.default_rng(seed)
    X = r.uniform(-1, 1, (n, d))
    y = X @ r.uniform(-1, 1, d)
    return _split_and_corrupt(r, Dataset(features=X, targets=y - y.min() + 0.25), (0.8, 0.9), 0.25, 1.5)


def four_group_pool(seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """200 rows in four groups (one-hot features, group offsets 1.0-1.15)
    split 70/15/15; 35% of the training rows get N(0, 2.5^2) label noise."""
    n, d_cont = 200, 3
    r = np.random.default_rng(seed)
    Xc = r.uniform(-1, 1, (n, d_cont))
    groups = np.arange(n) % 4
    y = Xc @ r.uniform(-1, 1, d_cont) + (1.0 + 0.05 * np.arange(4))[groups] + r.normal(0, 0.1, n)
    pool = Dataset(features=np.hstack([Xc, np.eye(4)[groups]]), targets=y - y.min() + 0.25, groups=groups)
    return _split_and_corrupt(r, pool, (0.7, 0.85), 0.35, 2.5)


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
        ctx = build_context(train, val, lam=lam, C=C, delta="auto")
        base = ctx.valpart.delta
        for s in scales:
            s_ctx = replace(ctx, valpart=ctx.valpart.with_delta(base * s))
            res = run_selcon(s_ctx, SelconConfig(k=k, seed=seed, L=6, alpha_mode="fixed", alpha_value=1.0))
            rows.append({"method": res.method, "k": k, "delta": base * s, "seed": seed,
                         "metric": "test_mse", "value": metrics.mse(res.state.model, test), "scale": s})
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
        ctx = build_context(train, val, "by_group", lam, C, "auto")
        base = ctx.valpart.delta
        part = dataset.partition_validation(test, "by_group", 0.0)  # fairness reads no bound
        for j, s in enumerate(scales):
            s_ctx = replace(ctx, valpart=ctx.valpart.with_delta(base * s))
            sel = run_selcon(s_ctx, SelconConfig(k=k, seed=seed, L=4, alpha_mode="fixed", alpha_value=1.0))
            rnd = baselines.random_with_constraints(s_ctx, k, seed)
            sel_vals[j].append(metrics.fairness_violation(sel.state.model, test, part))
            rnd_vals[j].append(metrics.fairness_violation(rnd.state.model, test, part))
    return [{"delta_scale": s, "selcon_median": float(np.median(sv)),
             "random_median": float(np.median(rv)), "wins": sum(a <= b for a, b in zip(sv, rv)),
             "seeds": seeds} for s, sv, rv in zip(scales, sel_vals, rnd_vals)]
