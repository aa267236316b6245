"""Training objective F(w, mu, S) and the max-min trainers that evaluate f(S).

The objective couples the per-element regularized training loss over a
candidate subset S with multiplier-weighted validation-error terms:

    F(w, mu, S) = sum_{i in S} [lam * ||w||^2 + (y_i - h_w(x_i))^2]
                  + sum_q mu_q * [mean_{j in V_q} (y_j - h_w(x_j))^2 - delta]

Note the regularizer is summed once per element of S.  The set value is
f(S) = max over mu in the box [0, C]^Q of min over w of F, and two backends
realize it:

* ``exact`` (linear model only): the inner minimum has a closed form, and the
  outer maximization of the smooth concave dual runs projected Newton on the
  box (Bertsekas 1982) with the exact dual Hessian -2 V'A(mu)^-1 V.  It
  solves a stack of B subsets at once and returns arrays, not states: the
  training Gram blocks come from :func:`gram_blocks`, the systems A(mu) form
  a (B, d, d) stack inverted by one call that yields w and the curvature,
  and Newton runs in lockstep with a step length and stopping test per row.  No
  operation mixes rows, so a subset's value does not depend on the stack it
  was solved in.  This backend is the ground truth for every property check.
  An empty training sum takes the least-norm minimizer, so its origin mu = 0
  is an ordinary row with w = 0 and f = 0; unless the validation groups'
  pooled fit meets every bound (weak duality then gives f(empty) = 0), Newton
  also maximizes over the faces mu_q = C, and the first maximum wins.
* ``sgd`` (any model): alternating adaptive-moment descent on the parameters
  over mini-batches of S and projected ascent on mu, mirroring how the
  objective is trained at scale.  Its error relative to ``exact`` is the
  epsilon that ``bounds.approx_ratio`` takes for imperfect training; only
  acceptance check C10 measures it, and no command measures or reports it.

``gram_blocks`` assembles the training blocks of a stack of subsets, and
``solve_inner_blocks`` solves the inner minimum alone on such blocks, at one
row of mu each and with the same least-norm convention for an empty S: the
sandwich oracle cross-evaluates every sampled pair with two such calls.
``solve_inner_linear`` is the one-subset call.

``primal_value`` solves the equivalent penalized primal directly by a
restarted Polyak subgradient method; it is kept deliberately independent of
the dual path so the two can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, ValidationPartition
from .errors import DivergenceDetected, NotConverged
from .models import (
    LinearModel,
    Model,
    TwoLayerModel,
    model_from_params,
    mse_grad,
    params_of,
    predict_many,
    row_dots,
)

__all__ = [
    "TrainerConfig",
    "TrainedState",
    "dual_objective",
    "gram_blocks",
    "solve_inner_linear",
    "solve_inner_blocks",
    "exact_state",
    "train_dual_exact",
    "train_dual_exact_many",
    "rank_one_bounds",
    "newton_bounds",
    "train_dual_sgd",
    "primal_value",
]

# Hidden units of the two-layer model, in every trainer and bound.
DEFAULT_HIDDEN_WIDTH = 5
# Round budget of primal_value's subgradient method, and steps per round.
_PRIMAL_ROUNDS = 80
_PRIMAL_STEPS = 150


@dataclass(frozen=True)
class TrainerConfig:
    """Settings of the two trainer backends.

    ``epochs`` is the sgd backend's epoch budget and ``seed`` seeds the sgd
    backend's initialization and batch order.  The exact backend's iteration
    cap and stopping tolerance, and the sgd batch size and step sizes, are
    module constants.
    """

    epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class TrainedState:
    """Result of one max-min training run on a fixed subset."""

    model: Model
    mu: np.ndarray
    f_value: float
    iterations_used: int
    backend: str
    converged: bool = True

    def __post_init__(self):
        mu = np.ascontiguousarray(np.asarray(self.mu, dtype=float))
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def _subset_arrays(subset: Sequence[int], train: Dataset):
    idx = np.asarray(subset, dtype=np.intp)
    return train.features[idx], train.targets[idx]


def dual_objective(
    model: Model,
    mu: np.ndarray,
    subset: Sequence[int],
    train: Dataset,
    valpart: ValidationPartition,
    lam: float,
) -> float:
    """Evaluate F(w, mu, S) exactly as written above.

    ``subset`` is consumed as a sequence: repeated indices contribute one
    regularizer-plus-loss term each.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (valpart.q,):
        raise ValueError(f"mu must have length {valpart.q}")
    w_flat = params_of(model)
    total = 0.0
    subset = list(subset)
    if subset:
        Xs, ys = _subset_arrays(subset, train)
        resid = ys - predict_many(model, Xs)
        total += len(subset) * lam * float(w_flat @ w_flat) + float(resid @ resid)
    errs = valpart.errors(valpart.data.targets - predict_many(model, valpart.data.features))
    for mu_q, e_q in zip(mu.tolist(), errs.tolist()):
        total += mu_q * (e_q - valpart.delta)
    return total


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner product over the last axis."""
    return (a * b).sum(axis=-1)


def _mix(mu: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_q mu[:, q] * blocks[q] for every row of ``mu``.

    Accumulated one q at a time with elementwise operations, so a row's sum
    never depends on the other rows; a GEMM over the batch axis would block
    its work by the batch size and round differently.
    """
    expand = (slice(None),) + (None,) * (blocks.ndim - 1)
    out = mu[:, 0][expand] * blocks[0]
    for q in range(1, len(blocks)):
        out += mu[:, q][expand] * blocks[q]
    return out


def gram_blocks(subsets: Sequence[Sequence[int]], train: Dataset,
                lam: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training blocks (base, b, c) of the linear inner problem for a stack of
    subsets: row r holds lam n_S I + X_S'X_S, X_S'y_S and y_S'y_S of its
    subset, and zeros for an empty one.  ``lam`` is a float, or an array
    with one value per row, so that one stack can hold several lam.

    Rows of one size m share one (B_m, m) gather and one batched product each
    for X'X, X'y and y'y, which round as per-row products do, so a row's
    blocks are bit-identical in every stack it appears in, and lam m rounds
    once either way.  Memory grows as B (d^2 + m d); callers bound B, as
    ``SetFnContext.stack_bounds`` does."""
    B, d = len(subsets), train.d
    sizes = np.fromiter(map(len, subsets), dtype=np.intp, count=B)
    base, bs, cs = np.zeros((B, d, d)), np.zeros((B, d)), np.zeros(B)
    for m in sorted(set(sizes.tolist()) - {0}):
        rows = np.flatnonzero(sizes == m)
        idx = np.array([subsets[r] for r in rows], dtype=np.intp)
        X, y = train.features[idx], train.targets[idx]
        Xt = X.transpose(0, 2, 1)
        scale = lam * m if np.ndim(lam) == 0 else (np.asarray(lam)[rows] * m)[:, None, None]
        base[rows] = scale * np.eye(d) + Xt @ X
        bs[rows] = (Xt @ y[:, :, None])[:, :, 0]
        cs[rows] = row_dots(y, y)
    return base, bs, cs


class _Stack:
    """The linear inner problem of a stack of subsets, given as training
    blocks (base, b, c) in :func:`gram_blocks`'s form; a zero base is an
    empty S.  Every row shares the partition's cached validation blocks, and
    no operation mixes rows, so a row's numbers do not depend on its stack."""

    def __init__(self, base: np.ndarray, bs: np.ndarray, cs: np.ndarray,
                 valpart: ValidationPartition):
        self.base, self.bs, self.cs = base, bs, cs
        self.empty = ~base.any(axis=(1, 2))
        self.Gbar, self.bbar, self.cbar = valpart.gram
        self.delta = valpart.delta

    def evaluate(self, rows: np.ndarray, mu: np.ndarray):
        """Inner minimizer w, dual gradient, dual value phi and the dual's
        curvature M = 2 V A(mu)^-1 V', with V = Gbar w - bbar, at ``mu`` (one
        row per entry of ``rows``); the dual Hessian is -M.

        The gradient of the dual is the vector of validation slacks
        e(w) - delta, and phi = mu.grad + c_S - 2 w'b_S + w'(lam n_S I + G_S) w.
        One explicit inverse serves both w and M; at d of a few dozen it costs
        less than a separate factor-and-solve pair.  With an empty training
        sum A is only PSD, and its pseudo-inverse gives the least-norm
        minimizer.
        """
        base = self.base[rows]
        A = base + _mix(mu, self.Gbar)
        b = self.bs[rows] + _mix(mu, self.bbar)
        empty = self.empty[rows]
        if empty.any():
            A_inv = np.empty_like(A)
            if not empty.all():
                A_inv[~empty] = np.linalg.inv(A[~empty])
            A_inv[empty] = np.linalg.pinv(A[empty], hermitian=True)
        else:
            A_inv = np.linalg.inv(A)
        w = (A_inv @ b[:, :, None])[:, :, 0]
        Gw = (self.Gbar @ w[:, None, :, None])[..., 0]
        grad = _dot(Gw, w[:, None]) - 2.0 * _dot(self.bbar, w[:, None]) + self.cbar - self.delta
        fit = self.cs[rows] - 2.0 * _dot(w, self.bs[rows]) + _dot(w, (base @ w[:, :, None])[:, :, 0])
        V = Gw - self.bbar
        return w, grad, _dot(mu, grad) + fit, 2.0 * ((V @ A_inv) @ V.transpose(0, 2, 1))


def solve_inner_blocks(mu: np.ndarray, base: np.ndarray, bs: np.ndarray,
                       valpart: ValidationPartition) -> np.ndarray:
    """Exact minimizers of F(., mu_r, S_r) for the linear model, as a (B, d)
    array: one row per training block (base, b) of :func:`gram_blocks` and
    per row of the (B, Q) ``mu``.

    mu is mixed one q at a time as :func:`_mix` does, and one batched solve
    serves the stack, so no operation mixes rows and a row's bits do not
    depend on its stack.  A zero base is an empty S: it takes the least-norm
    minimizer through the pseudo-inverse, as the trainer does, which is w = 0
    at mu = 0.  None of the trainer's solves run here, so tests and oracles
    can check the trainer against it."""
    mu = np.asarray(mu, dtype=float).reshape(len(base), valpart.q)
    empty = ~base.any(axis=(1, 2))
    A = base + _mix(mu, valpart.gram[0])
    b = (bs + _mix(mu, valpart.gram[1]))[:, :, None]
    w = np.zeros(bs.shape)
    if not empty.all():
        w[~empty] = np.linalg.solve(A[~empty], b[~empty])[:, :, 0]
    if empty.any():
        w[empty] = (np.linalg.pinv(A[empty], hermitian=True) @ b[empty])[:, :, 0]
    return w


def solve_inner_linear(mu: np.ndarray, subset: Sequence[int], train: Dataset,
                       valpart: ValidationPartition, lam: float) -> LinearModel:
    """Exact minimizer of F(., mu, S) for the linear model: the one-subset
    call of :func:`solve_inner_blocks`, which says how an empty S is solved."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    base, bs, _ = gram_blocks([list(subset)], train, lam)
    return LinearModel(w=solve_inner_blocks(mu, base, bs, valpart)[0])


# Projected-gradient norm at which a row of the Newton loop has converged.
_MU_TOLERANCE = 1e-10
# Newton iterations a row may take before it is returned unconverged.
_MAX_NEWTON_ITERS = 100_000
# Armijo fraction of the predicted ascent an arc step must realize.
_ARMIJO = 1e-4
# Curvatures below this share of the largest one are floored to it.  The dual
# is linear along directions of zero curvature (when Q > d, say), so a long
# step there is right and the projection ends it at the box.
_CURVATURE_FLOOR = 1e-12


def _newton_direction(mu, grad, M, lo, hi, pg_norm):
    """Bertsekas's projected Newton direction on the box [lo, hi], per row.

    Coordinates within ``pg_norm`` of a bound whose gradient points out of
    the box form the bound set and take a diagonally scaled gradient step;
    the free ones take a Newton step on their block of the curvature
    M = 2 V'A^-1 V (the dual Hessian is -M).  Masking M to its free block
    plus the diagonal keeps each row's bound coordinates out of one batched
    eigendecomposition.
    """
    eps = np.minimum(pg_norm, 0.5 * np.max(hi - lo, axis=1))[:, None]
    bound = ((mu <= lo + eps) & (grad < 0.0)) | ((mu >= hi - eps) & (grad > 0.0))
    free = ~bound
    diag = np.diagonal(M, axis1=1, axis2=2)
    floor = _CURVATURE_FLOOR * np.maximum(np.max(diag, axis=1), 1e-300)[:, None]
    block = (free[:, :, None] & free[:, None, :]) | np.eye(M.shape[1], dtype=bool)
    vals, vecs = np.linalg.eigh(np.where(block, M, 0.0))
    coef = (vecs.transpose(0, 2, 1) @ np.where(free, grad, 0.0)[:, :, None])[:, :, 0]
    newton = (vecs @ (coef / np.maximum(vals, floor))[:, :, None])[:, :, 0]
    return np.where(free, newton, grad / np.maximum(diag, floor))


def _projected_newton(stack: _Stack, lo: np.ndarray, hi: np.ndarray, max_iters: int,
                      start: np.ndarray | None = None):
    """Maximize every row's dual over its box [lo, hi], in lockstep from the
    corner mu = hi, or from the rows of ``start``, for at most ``max_iters``
    Newton iterations.

    Each row keeps its own arc search and stopping test, and only the rows
    still searching are evaluated again, through :meth:`_Stack.evaluate`'s
    (w, grad, phi, M).  An arc trial is accepted on the Armijo test or when
    grad(trial).(trial - mu) >= 0: on a concave phi that is ascent, with no
    comparison of two phi values that differ by less than their rounding.
    Returns per-row arrays (w, mu, phi, iterations, converged); every
    accepted step raises phi, so each row's final iterate is its best one.
    """
    B = len(lo)
    mu = hi.copy() if start is None else start.copy()
    w, grad, phi, M = stack.evaluate(np.arange(B), mu)
    iters = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    live = np.arange(B)
    while live.size:
        pg = np.clip(mu[live] + grad[live], lo[live], hi[live]) - mu[live]
        pg_norm = np.sqrt(_dot(pg, pg))
        done = pg_norm <= _MU_TOLERANCE
        converged[live[done]] = True
        keep = ~done & (iters[live] < max_iters)
        live, pg_norm = live[keep], pg_norm[keep]
        if not live.size:
            break
        iters[live] += 1
        direction = _newton_direction(mu[live], grad[live], M[live], lo[live], hi[live], pg_norm)
        # Changes below the rounding of phi are noise, not ascent.
        noise = 1e-13 * (1.0 + np.abs(phi[live]))
        t = np.ones(live.size)
        searching = np.arange(live.size)
        stalled = np.zeros(live.size, dtype=bool)
        while searching.size:
            rows = live[searching]
            trial = np.clip(mu[rows] + t[searching, None] * direction[searching],
                            lo[rows], hi[rows])
            gain = _dot(grad[rows], trial - mu[rows])
            accepted = np.zeros(searching.size, dtype=bool)
            rising = np.flatnonzero(gain > 0.0)
            if rising.size:
                r = rows[rising]
                state = stack.evaluate(r, trial[rising])
                ok = ((state[2] >= phi[r] + _ARMIJO * gain[rising] - noise[searching[rising]])
                      | (_dot(state[1], trial[rising] - mu[r]) >= 0.0))
                r = r[ok]
                mu[r] = trial[rising[ok]]
                for field, value in zip((w, grad, phi, M), state):
                    field[r] = value[ok]
                accepted[rising[ok]] = True
            rejected = searching[~accepted]
            t[rejected] *= 0.5
            stalled[rejected[t[rejected] < 1e-12]] = True
            searching = rejected[t[rejected] >= 1e-12]
        live = live[~stalled]
    return w, mu, phi, iters, converged


def train_dual_exact_many(subsets: Sequence[Sequence[int]], train: Dataset,
                          valpart: ValidationPartition, lam: float | np.ndarray,
                          C: float) -> tuple[np.ndarray, ...]:
    """:func:`train_dual_exact` for a stack of subsets, solved in lockstep.

    Each subset is an array or sequence of training indices that must be
    sorted: its order is the order its Gram block is summed in, and only
    sorted input matches :func:`train_dual_exact` bit for bit.  The subsets'
    blocks come from :func:`gram_blocks`, and one projected Newton loop runs
    over all of them (see :func:`_projected_newton`).  Each row's arithmetic
    is independent of the other rows, so a subset's result is bit-identical
    whatever stack it is solved in.  Returns arrays (w, mu, f, iterations,
    converged, base, b) with one row per subset, the last two its training
    blocks lam n_S I + X_S'X_S and X_S'y_S.  Memory grows as
    B (d^2 + m d + Q^2); callers bound B, as ``SetFnContext`` does with
    ``setfn._CHUNK_FLOATS``.  ``lam`` is a float or an array with one value
    per subset, as :func:`gram_blocks` takes it.

    An empty subset takes the least-norm minimizer, so its own row is the
    origin, pinned at mu = 0 with w = 0 and f = 0.  Its dual is positively
    homogeneous in mu and not differentiable there, so a positive maximum
    lies on a face mu_q = C: each face is a smooth problem and gets its own
    row after the B rows, with lower bound C on its coordinate, and the
    subset's result is the first maximum over [origin, faces], with the faces'
    iterations.  No face runs when the partition's ``pooled_errors`` are all
    within delta: by weak duality every phi(mu) <= sum_q mu_q (e_q(w_pooled)
    - delta) <= 0 = phi(0).
    """
    if np.min(lam) <= 0:
        raise ValueError("lam must be positive")
    if C < 0:
        raise ValueError("C must be >= 0")
    B, Q = len(subsets), valpart.q
    empty = [i for i, subset in enumerate(subsets) if not len(subset)]
    faced = [] if np.all(valpart.pooled_errors <= valpart.delta) else empty
    rows = [*subsets, *[()] * (len(faced) * Q)]
    if np.ndim(lam):  # a face row takes its subset's lam, which an empty sum never reads
        lam = np.concatenate([lam, np.repeat(np.asarray(lam)[faced], Q)])
    lo = np.zeros((len(rows), Q))
    lo[B:] = np.tile(C * np.eye(Q), (len(faced), 1))
    hi = np.full(lo.shape, C, dtype=float)
    hi[empty] = 0.0
    base, bs, cs = gram_blocks(rows, train, lam)
    w, mu, f, iters, converged = _projected_newton(_Stack(base, bs, cs, valpart), lo, hi,
                                                   _MAX_NEWTON_ITERS)
    for j, i in enumerate(faced):
        rows_i = [i, *range(B + j * Q, B + (j + 1) * Q)]
        best = rows_i[int(np.argmax(f[rows_i]))]
        iters[i] = iters[rows_i].sum()
        converged[i] = best == i or converged[rows_i].all()
        w[i], mu[i], f[i] = w[best], mu[best], f[best]
    if not np.isfinite(w[:B]).all():
        raise ValueError("weight entries must be finite")
    return tuple(a[:B] for a in (w, mu, f, iters, converged, base, bs))


def exact_state(solved: tuple[np.ndarray, ...], r: int) -> TrainedState:
    """Row ``r`` of :func:`train_dual_exact_many`'s arrays as a :class:`TrainedState`."""
    w, mu, f, iters, converged = (a[r] for a in solved[:5])
    return TrainedState(model=LinearModel(w=w), mu=mu, f_value=float(f),
                        iterations_used=int(iters), backend="exact", converged=bool(converged))


def train_dual_exact(subset: Sequence[int], train: Dataset, valpart: ValidationPartition,
                     lam: float, C: float, cfg: TrainerConfig) -> TrainedState:
    """Solve max over mu in [0, C]^Q of min over w of F for the linear model.

    This is the one-subset call of :func:`train_dual_exact_many` on the
    sorted subset, so every order of one set gives the same bits.  The inner
    minimum is solved in closed form at every mu.  The concave dual is
    maximized by projected Newton (Bertsekas 1982): each iterate takes one
    inverse of A(mu), which gives w and the exact curvature 2 V'A^-1 V, a
    Newton step on the free multipliers, a scaled gradient step on those
    held at a bound, and a search along the projection arc that accepts a
    trial on the Armijo test or on a non-negative directional derivative
    there (see :func:`_projected_newton`).  It stops when the
    projected-gradient norm drops below ``_MU_TOLERANCE``.  After
    ``_MAX_NEWTON_ITERS`` Newton iterations, or when the arc search finds
    no ascent, the last (best) iterate is returned with ``converged=False``.
    ``f_value`` is the dual value phi the solver ends at, in the Gram form
    above; :func:`dual_objective` recomputes it from residuals.  The exact
    solver reads no setting of ``cfg``: it is kept only for the call shape of
    this function's callers, since ``SetFnContext`` calls
    :func:`train_dual_exact_many` instead.
    """
    subsets = [np.sort(np.asarray(subset, np.intp))]
    return exact_state(train_dual_exact_many(subsets, train, valpart, lam, C), 0)


# Every interval on f is widened by _BOUND_RTOL (1 + scale), for the rounding
# of both sides' Gram forms, plus _BOUND_GAP C sqrt(Q): the exact solver stops
# at a projected-gradient norm of _MU_TOLERANCE, which leaves its phi within
# about _MU_TOLERANCE C sqrt(Q) below f.
_BOUND_RTOL = 1e-9
_BOUND_GAP = 10.0 * _MU_TOLERANCE
# A downdate whose 1 - x'P^-1 x falls below this is not bounded.
_DOWNDATE_FLOOR = 1e-6
# Newton iterations that tighten a bracket the rank-one sweep left undecided.
_REFINE_ITERS = 3


def _bracket(fit, grad, mu, cs, valpart: ValidationPartition, C: float):
    """Widened weak-duality bounds on f from a minimizer w of phi(mu), given
    its training fit and slacks e(w) - delta: phi(mu) = fit + mu.grad below,
    the penalized primal fit + C sum_q max(0, grad_q) above."""
    lower = fit + _dot(mu, grad)
    upper = fit + C * np.maximum(grad, 0.0).sum(axis=-1)
    scale = (np.abs(cs) + np.abs(lower) + np.abs(upper)
             + C * (valpart.gram[2].sum() + valpart.q * valpart.delta))
    margin = _BOUND_RTOL * (1.0 + scale) + _BOUND_GAP * C * math.sqrt(valpart.q)
    return lower - margin, upper + margin


def _slacks(W: np.ndarray, valpart: ValidationPartition) -> np.ndarray:
    """e_q(w) - delta for every row w of W, as a (B, Q) array."""
    Gbar, bbar, cbar = valpart.gram
    return (_dot(W @ Gbar, W) - 2.0 * (bbar @ W.T)).T + cbar - valpart.delta


def rank_one_bounds(X: np.ndarray, y: np.ndarray, sign: float, base: np.ndarray, b: np.ndarray,
                    c: float, mu: np.ndarray, valpart: ValidationPartition,
                    C: float) -> tuple[np.ndarray, np.ndarray]:
    """Widened (lower, upper) bounds on f for a family of subsets one row apart
    from a common one, all at the shared multiplier ``mu``.

    Row r's training blocks are (base + sign x_r x_r', b + sign y_r x_r,
    c + sign y_r^2): sign +1 adds row r to the common blocks, sign -1 removes
    it.  Each row's system is then a rank-one update of the one matrix
    P = base + sum_q mu_q G_q, so one inverse of P gives every minimizer by
    Sherman-Morrison, w_r = h + sign z_r (y_r - x_r'h) / (1 + sign x_r'z_r)
    with z_r = P^-1 x_r and h = P^-1 b(mu), and from it phi_r(mu) and the
    penalized primal at w_r in O(Q d^2) per row.  A downdate whose
    1 - x_r'z_r is below ``_DOWNDATE_FLOOR`` is ill-conditioned and gets
    (-inf, inf).
    """
    Gbar, bbar, _ = valpart.gram
    P_inv = np.linalg.inv(base + np.tensordot(mu, Gbar, axes=1))
    h = P_inv @ (b + mu @ bbar)
    Z = X @ P_inv
    denom = 1.0 + sign * _dot(X, Z)
    unbounded = denom < _DOWNDATE_FLOOR
    denom[unbounded] = 1.0
    W = h + Z * (sign * (y - X @ h) / denom)[:, None]
    grad = _slacks(W, valpart)
    fit = c - 2.0 * (W @ b) + _dot(W @ base, W) + sign * (y - _dot(X, W)) ** 2
    lower, upper = _bracket(fit, grad, mu, c + sign * y * y, valpart, C)
    lower[unbounded], upper[unbounded] = -np.inf, np.inf
    return lower, upper


def newton_bounds(base: np.ndarray, bs: np.ndarray, cs: np.ndarray, mu: np.ndarray,
                  valpart: ValidationPartition, C: float) -> tuple[np.ndarray, np.ndarray]:
    """Widened (lower, upper) bounds on f for a stack of non-empty training
    blocks, at the iterate that at most ``_REFINE_ITERS`` iterations of
    :func:`_projected_newton` reach from each row's multiplier ``mu`` (B, Q)."""
    w, mu, phi, _, _ = _projected_newton(_Stack(base, bs, cs, valpart), np.zeros_like(mu),
                                         np.full_like(mu, C), _REFINE_ITERS, mu)
    grad = _slacks(w, valpart)
    return _bracket(phi - _dot(mu, grad), grad, mu, cs, valpart, C)


def _init_model(model_kind: str, d: int, rng: np.random.Generator) -> Model:
    if model_kind == "linear":
        return LinearModel(w=np.zeros(d))
    if model_kind == "two_layer":
        width = DEFAULT_HIDDEN_WIDTH
        hidden = rng.normal(0.0, 1.0 / math.sqrt(d), size=(width, d))
        output = rng.normal(0.0, 1.0 / math.sqrt(width), size=width)
        return TwoLayerModel(hidden=hidden, output=output)
    raise ValueError(f"unknown model kind {model_kind!r}")


# Mini-batch size of the sgd trainer, its Adam step size on the parameters,
# and its ascent step on the multipliers (swept so a multiplier can cross its
# box within the default epoch budget without oscillating).
_SGD_BATCH = 1000
_SGD_LR_W = 0.01
_SGD_LR_MU = 0.05


def train_dual_sgd(
    subset: Sequence[int],
    train: Dataset,
    valpart: ValidationPartition,
    lam: float,
    C: float,
    cfg: TrainerConfig,
    model_kind: str = "linear",
) -> TrainedState:
    """Stochastic saddle-point trainer: Adam on the parameters, projected
    ascent on the multipliers after every mini-batch step.

    Every run starts from the seeded initialization with zero multipliers and
    trains for ``cfg.epochs``, so it is deterministic for a fixed config seed
    and subset whatever else was trained before it.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    subset = sorted(int(i) for i in subset)
    ns = len(subset)
    rng = np.random.default_rng([cfg.seed, 1 + ns, *subset])

    model = _init_model(model_kind, train.d, rng)
    mu = np.zeros(valpart.q)
    params = params_of(model)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_t = np.zeros_like(params)
    v_t = np.zeros_like(params)

    Xs, ys = _subset_arrays(subset, train)
    Xv, yv = valpart.data.features, valpart.data.targets
    b_eff = min(ns, _SGD_BATCH) if ns else 0

    step = 0
    for _ in range(cfg.epochs):
        if ns:
            order = rng.permutation(ns) if ns > b_eff else np.arange(ns)
            batch_starts = range(0, ns, b_eff)
        else:
            batch_starts = range(1)  # constraint-only update
        for start in batch_starts:
            grad = np.zeros_like(params)
            if ns:
                batch = order[start : start + b_eff]
                grad += ns * (2.0 * lam * params + mse_grad(model, Xs[batch], ys[batch]))
            for q, rows in enumerate(valpart.subsets):
                if mu[q] != 0.0:
                    grad += mu[q] * mse_grad(model, Xv[rows], yv[rows])
            step += 1
            m_t = beta1 * m_t + (1 - beta1) * grad
            v_t = beta2 * v_t + (1 - beta2) * grad * grad
            m_hat = m_t / (1 - beta1**step)
            v_hat = v_t / (1 - beta2**step)
            params = params - _SGD_LR_W * m_hat / (np.sqrt(v_hat) + eps)
            model = model_from_params(model, params)
            if C > 0:
                errs = valpart.errors(yv - predict_many(model, Xv))
                mu = np.clip(mu + _SGD_LR_MU * (errs - valpart.delta), 0.0, C)

    f = dual_objective(model, mu, subset, train, valpart, lam)
    if not math.isfinite(f):
        raise DivergenceDetected(f"sgd trainer diverged on subset of size {ns}")
    return TrainedState(
        model=model,
        mu=mu,
        f_value=f,
        iterations_used=step,
        backend="sgd",
        converged=True,
    )


def primal_value(
    subset: Sequence[int],
    train: Dataset,
    valpart: ValidationPartition,
    lam: float,
    C: float,
    tol: float = 1e-6,
    model_kind: str = "linear",
    seed: int = 0,
) -> float:
    """Minimize the penalized primal directly:

        sum_{i in S} [lam ||w||^2 + (y_i - h(x_i))^2]
        + C * sum_q max(0, val_err_q(w) - delta)

    with the optimal slack substituted analytically.  Solved by a restarted
    Polyak subgradient method: within each round the step targets the best
    value seen minus a gap, and the gap halves whenever a round stalls.
    Raises :class:`NotConverged` (carrying the best value) if the gap cannot
    be driven below ``tol`` within the round budget.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    subset = sorted(int(i) for i in subset)
    ns = len(subset)
    Q = valpart.q
    Xs, ys = _subset_arrays(subset, train)
    Xv, yv = valpart.data.features, valpart.data.targets
    rows_per_q = valpart.subsets
    delta = valpart.delta

    rng = np.random.default_rng(seed)
    if model_kind == "linear" and ns:
        A = lam * ns * np.eye(train.d) + Xs.T @ Xs
        model = LinearModel(w=np.linalg.solve(A, Xs.T @ ys))
    else:
        model = _init_model(model_kind, train.d, rng)
    params = params_of(model)

    def value_and_subgrad(p: np.ndarray) -> tuple[float, np.ndarray]:
        mdl = model_from_params(model, p)
        total = 0.0
        g = np.zeros_like(p)
        if ns:
            r = ys - predict_many(mdl, Xs)
            total += ns * lam * float(p @ p) + float(r @ r)
            g += ns * (2.0 * lam * p + mse_grad(mdl, Xs, ys))
        val_resid = yv - predict_many(mdl, Xv)
        for q in range(Q):
            e_q = float(np.mean(val_resid[rows_per_q[q]] ** 2))
            gap = e_q - delta
            if gap > 0:
                total += C * gap
                g += C * mse_grad(mdl, Xv[rows_per_q[q]], yv[rows_per_q[q]])
        return total, g

    best_val, _ = value_and_subgrad(params)
    best_params = params.copy()
    theta = max(0.5 * abs(best_val), 1.0)
    p = params
    for _ in range(_PRIMAL_ROUNDS):
        target = max(best_val - theta, 0.0)
        round_start = best_val
        for _ in range(_PRIMAL_STEPS):
            val, g = value_and_subgrad(p)
            if val < best_val:
                best_val, best_params = val, p.copy()
            gn2 = float(g @ g)
            if gn2 < 1e-30:
                break
            gamma = (val - target) / gn2
            p = p - gamma * g
        if best_val > round_start - 0.5 * theta:
            theta *= 0.5
        p = best_params.copy()
        if theta <= tol * (1.0 + abs(best_val)):
            return best_val
    raise NotConverged(
        f"primal subgradient descent did not reach tolerance {tol}", value=best_val
    )
