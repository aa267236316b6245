"""Evaluation metrics: test error, per-group validation errors, fairness
violation, the 30% bound rule (applied by
:func:`selcon.scenarios.build_context`) and the long-format sweep CSV.

All means use numpy's pairwise (tree) summation, which keeps accumulation
error near 1e-16 relative and makes row order immaterial to ~1e-12, so
cross-language reimplementations agree to that level.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, ValidationPartition
from .dual import TrainedState
from .errors import EmptyDataset, NeedTwoGroups
from .models import Model, predict_many

__all__ = [
    "mse",
    "group_errors",
    "fairness_violation",
    "default_delta",
    "sweep_rows_to_csv",
]


def mse(model: Model, data: Dataset) -> float:
    if data.n == 0:
        raise EmptyDataset("cannot average over zero rows")
    resid = data.targets - predict_many(model, data.features)
    return float(np.mean(resid**2))


def group_errors(model: Model, val: Dataset, valpart: ValidationPartition) -> tuple[np.ndarray, np.ndarray]:
    """Per-group mean squared validation error and satisfaction flags."""
    resid = val.targets - predict_many(model, val.features)
    errs = valpart.errors(resid)
    return errs, errs <= valpart.delta


def _abs_pair_sum(values: np.ndarray) -> float:
    """Sum of |v_i - v_j| over unordered pairs, from the sorted gaps.

    The gap between the k-th and (k+1)-th smallest values lies between
    (k + 1) * (n - k - 1) pairs, and every term of the sum is non-negative.
    """
    n = len(values)
    k = np.arange(1, n)
    return float(np.sum(np.diff(np.sort(values)) * (k * (n - k))))


def fairness_violation(model: Model, val: Dataset, valpart: ValidationPartition) -> float:
    """Mean absolute squared-residual gap over all cross-group pairs.

    Averages |r_i^2 - r_j^2| uniformly over the ordered pairs (i in V_q,
    j outside V_q).  The cross-group sum is the sum over all pairs minus the
    within-group sums, each computed in O(n log n) by sorting.
    """
    if valpart.q < 2:
        raise NeedTwoGroups("fairness violation needs at least two validation groups")
    resid2 = (val.targets - predict_many(model, val.features)) ** 2
    n = sum(len(rows) for rows in valpart.subsets)
    within = sum(_abs_pair_sum(resid2[rows]) for rows in valpart.subsets)
    cross = max(_abs_pair_sum(resid2[np.concatenate(valpart.subsets)]) - within, 0.0)
    pairs = sum(len(rows) * (n - len(rows)) for rows in valpart.subsets)
    # Each unordered cross pair is counted once from either side.
    return 2.0 * cross / pairs


def default_delta(full_state: TrainedState, val: Dataset, valpart: ValidationPartition) -> float:
    """30% of the mean per-group validation error of the full-data model."""
    errs, _ = group_errors(full_state.model, val, valpart)
    return 0.30 * float(np.mean(errs))


def sweep_rows_to_csv(rows: list[dict]) -> str:
    """Long-format CSV with the fixed header (method, k, delta, seed, metric, value)."""
    lines = ["method,k,delta,seed,metric,value"]
    for r in rows:
        lines.append(
            f"{r['method']},{r['k']},{r['delta']!r},{r['seed']},{r['metric']},{r['value']!r}"
        )
    return "\n".join(lines) + "\n"
