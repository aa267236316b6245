"""Majorization-minimization driver for the k-subset selection problem.

Each iteration builds a modular upper bound of f that is tight at the current
subset S_hat: in-set elements are scored by alpha times their leave-one-out
marginal, out-of-set elements by their empty-set marginal divided by alpha.
Minimizing the bound over k-subsets is then just picking the k smallest
scores.  With exact training the objective value never increases from one
iteration to the next when alpha is at most the instance's submodularity
ratio, since only then is the bound a true upper bound.  A larger alpha,
such as a fixed 1, can make the trace rise and the result end above the
best iterate; the ROADMAP's guarded step is the planned fix.  The driver
starts from :func:`random_subset`, the seeded draw the random baselines
train on, so at equal k and seed both start from one subset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import alpha_hat_linear, data_constants
from .dual import TrainedState
from .errors import InvalidAlpha, InvalidK, ZeroTarget
from .setfn import SetFnContext

__all__ = ["SelconConfig", "SelectionResult", "modular_scores", "random_subset", "run_selcon",
           "run_selcon_unconstrained"]


# The certified alpha is clamped up to this floor, since the certificate can
# be non-positive below the lam threshold.
ALPHA_FLOOR = 0.05


@dataclass(frozen=True)
class SelconConfig:
    """Driver settings.

    ``alpha_mode`` picks the submodularity ratio the bound is built with:

    * ``certified`` — the closed-form linear certificate, clamped to
      [ALPHA_FLOOR, 1] because it can be non-positive below the lam threshold;
    * ``empirical`` — the exhaustively measured ratio of the instance
      (desk-scale only, enumerates all subsets);
    * ``fixed`` — ``alpha_value`` as given.
    """

    k: int
    L: int = 10
    alpha_mode: str = "certified"
    alpha_value: float | None = None
    seed: int = 0
    warm_loo_epochs: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.alpha_mode not in ("certified", "empirical", "fixed"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.alpha_mode == "fixed" and (self.alpha_value is None or self.alpha_value <= 0):
            raise ValueError("fixed alpha_mode needs a positive alpha_value")


@dataclass
class SelectionResult:
    selected: tuple[int, ...]
    f_value: float
    trace: list[tuple[int, float, str]]
    state: TrainedState
    method: str = "selcon"
    alpha_used: float | None = None

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "selected": list(self.selected),
            "f_value": float(self.f_value),
            "trace": [
                {"iteration": it, "f_value": float(v), "subset": digest}
                for it, v, digest in self.trace
            ],
            "alpha_used": None if self.alpha_used is None else float(self.alpha_used),
        }


def _digest(key: tuple[int, ...]) -> str:
    return hashlib.sha1(",".join(map(str, key)).encode()).hexdigest()[:12]


def random_subset(n: int, k: int, seed: int) -> tuple[int, ...]:
    """Uniform k-subset without replacement, sorted, deterministic per seed."""
    if not (1 <= k <= n):
        raise InvalidK(f"k = {k} is outside [1, {n}]")
    rng = np.random.default_rng(seed)
    return tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))


def resolve_alpha(ctx: SetFnContext, cfg: SelconConfig) -> float:
    """Alpha actually fed to the bound, per ``cfg.alpha_mode``."""
    if cfg.alpha_mode == "fixed":
        return float(cfg.alpha_value)
    if cfg.alpha_mode == "empirical":
        from .oracle import empirical_alpha

        alpha = empirical_alpha(ctx)
        if alpha <= 0:
            raise InvalidAlpha(f"measured alpha {alpha} is not positive")
        return min(alpha, 1.0)
    try:
        consts = data_constants(ctx.train, ctx.valpart.data, q=ctx.valpart.q)
        a_hat = alpha_hat_linear(ctx.lam, ctx.C, ctx.valpart.q, consts)
    except ZeroTarget:
        a_hat = -float("inf")  # certificate undefined; fall back to the floor
    return min(max(a_hat, ALPHA_FLOOR), 1.0)


def modular_scores(ctx: SetFnContext, s_hat: Sequence[int], alpha: float,
                   warm_loo_epochs: int | None = None) -> np.ndarray:
    """Per-element scores whose k smallest minimize the modular bound.

    In-set:   alpha * (f(S_hat) - f(S_hat minus i))
    Out-set:  (f({i}) - f(empty)) / alpha

    The leave-one-out values come from one uncached
    :meth:`SetFnContext.leave_one_out` sweep, which the sgd backend
    warm-starts from S_hat's state when ``warm_loo_epochs`` is set.
    """
    if alpha <= 0:
        raise InvalidAlpha("the modular bound needs alpha > 0")
    s_hat = np.sort(np.asarray(s_hat, dtype=np.intp))
    if not len(s_hat):
        raise ValueError("the reference subset must be non-empty")
    f_hat = ctx.f_of(s_hat)[0]
    scores = (ctx.singletons() - ctx.f_empty()) / alpha
    scores[s_hat] = alpha * (f_hat - ctx.leave_one_out(s_hat, warm_loo_epochs))
    return scores


def _k_smallest(scores: np.ndarray, k: int) -> tuple[int, ...]:
    # Stable ascending by (score, index): ties break toward the smaller index.
    order = np.lexsort((np.arange(len(scores)), scores))
    return tuple(sorted(int(i) for i in order[:k]))


def run_selcon(ctx: SetFnContext, cfg: SelconConfig) -> SelectionResult:
    """Iterated modular-bound minimization from :func:`random_subset`."""
    s_hat = random_subset(ctx.train.n, cfg.k, cfg.seed)
    alpha = resolve_alpha(ctx, cfg)

    trace: list[tuple[int, float, str]] = []
    for it in range(cfg.L):
        f_hat, _ = ctx.f_of(s_hat)
        trace.append((it, f_hat, _digest(s_hat)))
        scores = modular_scores(ctx, s_hat, alpha, warm_loo_epochs=cfg.warm_loo_epochs)
        s_next = _k_smallest(scores, cfg.k)
        if s_next == s_hat:
            break
        s_hat = s_next

    f_final, state = ctx.f_of(s_hat)
    if not trace or trace[-1][2] != _digest(s_hat):
        trace.append((len(trace), f_final, _digest(s_hat)))
    return SelectionResult(
        selected=s_hat,
        f_value=f_final,
        trace=trace,
        state=state,
        method="selcon",
        alpha_used=alpha,
    )


def run_selcon_unconstrained(ctx: SetFnContext, cfg: SelconConfig) -> SelectionResult:
    """Same driver with the validation constraints disabled (C = 0)."""
    result = run_selcon(replace(ctx, C=0.0), cfg)
    result.method = "selcon-unconstrained"
    return result
