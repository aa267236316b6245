"""Comparison methods sharing the SelectionResult schema with the driver.

Full-data training with and without constraints, and uniform random subsets
with and without constraints.  The random subsets are
:func:`selection.random_subset`, the draw the selection driver starts from,
so at equal k and seed the driver and the random baselines begin alike.
Each returns the same result type as the selection driver so the metrics
layer is method-agnostic; the ``method`` slot also leaves room for merging
externally computed numbers into reports.
"""

from __future__ import annotations

from dataclasses import replace

from .selection import SelectionResult, _digest, random_subset
from .setfn import SetFnContext

__all__ = [
    "full_selection",
    "full_with_constraints",
    "random_with_constraints",
]


def _train_fixed(ctx: SetFnContext, subset: tuple[int, ...], method: str) -> SelectionResult:
    f_value, state = ctx.f_of(subset)
    return SelectionResult(
        selected=subset,
        f_value=f_value,
        trace=[(0, f_value, _digest(subset))],
        state=state,
        method=method,
    )


def full_selection(ctx: SetFnContext) -> SelectionResult:
    """Train on all of D with the constraints disabled (C = 0)."""
    everything = tuple(range(ctx.train.n))
    return _train_fixed(replace(ctx, C=0.0), everything, "full")


def full_with_constraints(ctx: SetFnContext) -> SelectionResult:
    """Train on all of D with the configured C and delta."""
    everything = tuple(range(ctx.train.n))
    return _train_fixed(ctx, everything, "full-constrained")


def random_with_constraints(ctx: SetFnContext, k: int, seed: int) -> SelectionResult:
    """Random subset trained with the configured constraints."""
    return _train_fixed(ctx, random_subset(ctx.train.n, k, seed), "random-constrained")


def random_selection(ctx: SetFnContext, k: int, seed: int) -> SelectionResult:
    """Random subset trained without constraints."""
    return _train_fixed(replace(ctx, C=0.0), random_subset(ctx.train.n, k, seed), "random")
