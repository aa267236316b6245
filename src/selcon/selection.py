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

:func:`modular_scores` is the cold reference: it solves all n singletons
and k leave-one-out sets per iteration.  The driver's step needs only the k
smallest.  Weak duality brackets every f(S) = max_mu phi_S(mu) between phi_S
at any multiplier in the box and the penalized primal at any weights.
f(empty) and the random start are solved exactly in one stack; then, on the
exact backend, every singleton gets an interval from mu(empty) and from the
corner C 1, and every leave-one-out set from mu(S_hat), each family by
Sherman-Morrison updates of one shared system
(:func:`~selcon.dual.rank_one_bounds`), widened by a margin that covers
rounding and the exact solver's stopping gap.  The sgd backend's values
break weak duality, so its families have no intervals.  An element is
certainly in when its upper end lies below the k-th smallest lower end of
the other elements, and certainly out when its lower end lies above their
k-th smallest upper end.  Undecided elements take a few projected-Newton
iterations (:func:`~selcon.dual.newton_bounds`), and those still undecided
are solved exactly, through the same solves and cache as the reference.
Every element that ends undecided is then exact, so filling the free places
from them in (score, index) order gives :func:`_k_smallest`'s answer: the k
smallest are a prefix of that order, certified elements lie on the correct
side of it, and each exact score is bit-equal to :func:`modular_scores`'.
If an exact value ever falls outside its interval, both families drop the
intervals of their rows not yet exact, and the step solves those too.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import oracle
from .bounds import alpha_hat_linear, data_constants
from .dual import TrainedState, newton_bounds, rank_one_bounds
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
      [ALPHA_FLOOR, 1] because it can be non-positive below the lam threshold,
      and ALPHA_FLOOR itself for a model the certificate does not cover;
    * ``empirical`` — the exhaustively measured ratio of the instance
      (desk-scale only, enumerates all subsets);
    * ``fixed`` — ``alpha_value`` as given.
    """

    k: int
    L: int = 10
    alpha_mode: str = "certified"
    alpha_value: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.alpha_mode not in ("certified", "empirical", "fixed"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.alpha_mode == "fixed" and not (0 < (self.alpha_value or 0) < math.inf):
            raise ValueError("fixed alpha_mode needs a positive, finite alpha_value")
        if self.alpha_mode != "fixed" and self.alpha_value is not None:
            raise ValueError("alpha_value is read only with alpha_mode 'fixed'")


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
        alpha = oracle.empirical_alpha(ctx)
        if alpha <= 0:
            raise InvalidAlpha(f"measured alpha {alpha} is not positive")
        return min(alpha, 1.0)
    if ctx.model_kind != "linear":
        return ALPHA_FLOOR  # the certificate covers the linear model only
    try:
        consts = data_constants(ctx.train, ctx.valpart.data)
        a_hat = alpha_hat_linear(ctx.lam, ctx.C, ctx.valpart.q, consts)
    except ZeroTarget:
        a_hat = -float("inf")  # certificate undefined; fall back to the floor
    return min(max(a_hat, ALPHA_FLOOR), 1.0)


def modular_scores(ctx: SetFnContext, s_hat: Sequence[int], alpha: float) -> np.ndarray:
    """Per-element scores whose k smallest minimize the modular bound, every
    one solved cold: the reference the driver's step is checked against.

    In-set:   alpha * (f(S_hat) - f(S_hat minus i))
    Out-set:  (f({i}) - f(empty)) / alpha

    The leave-one-out values come from one uncached
    :meth:`SetFnContext.leave_one_out` sweep.
    """
    if alpha <= 0:
        raise InvalidAlpha("the modular bound needs alpha > 0")
    s_hat = np.sort(np.asarray(s_hat, dtype=np.intp))
    if not len(s_hat):
        raise ValueError("the reference subset must be non-empty")
    f_hat = ctx.f_of(s_hat)[0]
    scores = (ctx.singletons() - ctx.f_empty()) / alpha
    scores[s_hat] = alpha * (f_hat - ctx.leave_one_out(s_hat))
    return scores


def _k_smallest(scores: np.ndarray, k: int) -> tuple[int, ...]:
    # Stable ascending by (score, index): ties break toward the smaller index.
    order = np.lexsort((np.arange(len(scores)), scores))
    return tuple(sorted(int(i) for i in order[:k]))


class _Family:
    """Widened intervals on f over a family of subsets one row apart from a
    common one, bracketed at each multiplier of ``points`` and tightened on
    demand: first by a few projected-Newton iterations from the row's best
    point, then by the exact solve ``solve``.  Rows with no interval go
    straight to ``solve``."""

    def __init__(self, ctx: SetFnContext, X, y, sign: float, common, points, solve):
        self.ctx, self.X, self.y, self.sign, self.common, self.solve = ctx, X, y, sign, common, solve
        self.lo, self.hi = np.full_like(y, -np.inf), np.full_like(y, np.inf)
        self.start = np.zeros((len(y), ctx.valpart.q))
        for mu in points:
            lower, upper = rank_one_bounds(X, y, sign, *common, mu, ctx.valpart, ctx.C)
            self.start[lower > self.lo] = mu
            self.lo, self.hi = np.maximum(self.lo, lower), np.minimum(self.hi, upper)
        self.exact = np.zeros(len(y), dtype=bool)
        # Ill-conditioned downdates are never bounded.
        self.refined = ~np.isfinite(self.lo)

    def tighten(self, rows: np.ndarray) -> bool:
        """Refine the rows not yet refined and solve the others exactly.
        False when an exact value falls outside its interval."""
        fresh, stale = rows[~self.refined[rows]], rows[self.refined[rows]]
        base, b, c = self.common
        for start, stop in self.ctx.stack_bounds(len(fresh), 1):  # (B, d, d) per stack
            part = fresh[start:stop]
            X, y = self.X[part], self.y[part]
            lo, hi = newton_bounds(base + self.sign * X[:, :, None] * X[:, None, :],
                                   b + self.sign * y[:, None] * X, c + self.sign * y * y,
                                   self.start[part], self.ctx.valpart, self.ctx.C)
            self.lo[part] = np.maximum(self.lo[part], lo)
            self.hi[part] = np.minimum(self.hi[part], hi)
        self.refined[fresh] = True
        if not stale.size:
            return True
        values = self.solve(stale)
        inside = bool(np.all((self.lo[stale] <= values) & (values <= self.hi[stale])))
        self.lo[stale] = self.hi[stale] = values
        self.exact[stale] = True
        return inside

    def void(self) -> None:
        """Drop the intervals of the rows not yet exact."""
        self.lo[~self.exact], self.hi[~self.exact] = -np.inf, np.inf
        self.refined[:] = True


def _singleton_family(ctx: SetFnContext) -> _Family:
    """f({i}) for every element, bracketed on the exact backend at mu(empty)
    and at the corner C 1."""
    d, q = ctx.train.d, ctx.valpart.q
    points = (np.unique([ctx.mu_many([()])[0], np.full(q, ctx.C)], axis=0)
              if ctx.backend == "exact" else ())
    common = (ctx.lam * np.eye(d), np.zeros(d), 0.0)
    return _Family(ctx, ctx.train.features, ctx.train.targets, 1.0, common, points,
                   lambda rows: ctx.f_many([(int(i),) for i in rows]))


def _leave_one_out_family(ctx: SetFnContext, s_hat: np.ndarray) -> _Family:
    """f(S_hat minus i) for every position of S_hat, bracketed on the exact
    backend at mu(S_hat) when S_hat has two elements or more."""
    k = len(s_hat)
    X, y = ctx.train.features[s_hat], ctx.train.targets[s_hat]
    common = (ctx.lam * (k - 1) * np.eye(ctx.train.d) + X.T @ X, X.T @ y, float(y @ y))
    points = ctx.mu_many([s_hat]) if ctx.backend == "exact" and k > 1 else ()
    return _Family(ctx, X, y, -1.0, common, points,
                   lambda rows: ctx.leave_one_out(s_hat, drop=rows))


def _kth_of_the_others(ends: np.ndarray, k: int) -> np.ndarray:
    """For each element, the k-th smallest of the other elements' ends (k < n)."""
    kth, next_ = np.partition(ends, (k - 1, k))[k - 1:k + 1]
    return np.where(ends <= kth, next_, kth)


def _certified_k_smallest(ctx: SetFnContext, s_hat: tuple[int, ...], f_hat: float, alpha: float,
                          singletons: _Family) -> tuple[int, ...]:
    """``_k_smallest(modular_scores(ctx, s_hat, alpha), k)``, solving exactly
    only the elements whose score intervals cannot place them."""
    n, k = ctx.train.n, len(s_hat)
    if k == n:
        return s_hat
    s_hat = np.asarray(s_hat, dtype=np.intp)
    f0 = ctx.f_empty()
    loo = _leave_one_out_family(ctx, s_hat)
    while True:
        lo, hi = (singletons.lo - f0) / alpha, (singletons.hi - f0) / alpha
        lo[s_hat], hi[s_hat] = alpha * (f_hat - loo.hi), alpha * (f_hat - loo.lo)
        inside = hi < _kth_of_the_others(lo, k)
        undecided = ~inside & ~(lo > _kth_of_the_others(hi, k))
        exact = singletons.exact.copy()
        exact[s_hat] = loo.exact
        todo = np.flatnonzero(undecided & ~exact)
        if not todo.size:
            break
        in_set = np.isin(todo, s_hat)
        if not (singletons.tighten(todo[~in_set])
                & loo.tighten(np.searchsorted(s_hat, todo[in_set]))):
            # The margin failed: solve every row still bracketed.
            singletons.void()
            loo.void()
    # Every undecided element is exact, so ranking them by score between the
    # certified elements, pinned at -inf and +inf, restricts _k_smallest's
    # (score, index) order to them.
    return _k_smallest(np.where(inside, -np.inf, np.where(undecided, lo, np.inf)), k)


def run_selcon(ctx: SetFnContext, cfg: SelconConfig) -> SelectionResult:
    """Iterated modular-bound minimization from :func:`random_subset`."""
    s_hat = random_subset(ctx.train.n, cfg.k, cfg.seed)
    alpha = resolve_alpha(ctx, cfg)
    ctx.f_many([(), s_hat])
    singletons = _singleton_family(ctx)

    trace: list[tuple[int, float, str]] = []
    for it in range(cfg.L + 1):  # L steps, each visited subset evaluated once
        f_hat, state = ctx.f_of(s_hat)
        trace.append((it, f_hat, _digest(s_hat)))
        if it == cfg.L:
            break
        s_next = _certified_k_smallest(ctx, s_hat, f_hat, alpha, singletons)
        if s_next == s_hat:
            break
        s_hat = s_next

    return SelectionResult(
        selected=s_hat,
        f_value=f_hat,
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
