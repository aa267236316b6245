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
  box (Bertsekas 1982) with the exact dual Hessian -2 V'A(mu)^-1 V.  This
  backend is the ground truth for every property check.
* ``sgd`` (any model): alternating adaptive-moment descent on the parameters
  over mini-batches of S and projected ascent on mu, mirroring how the
  objective is trained at scale.  Its error relative to ``exact`` is the
  imperfect-estimate epsilon quoted by the approximation guarantee.

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
from .errors import DivergenceDetected, NotConverged, SingularSystem
from .models import (
    LinearModel,
    Model,
    TwoLayerModel,
    model_from_params,
    params_of,
    predict_many,
)

__all__ = [
    "TrainerConfig",
    "TrainedState",
    "dual_objective",
    "solve_inner_linear",
    "train_dual_exact",
    "train_dual_sgd",
    "primal_value",
]

DEFAULT_HIDDEN_WIDTH = 5


@dataclass(frozen=True)
class TrainerConfig:
    """Settings of the two trainer backends.

    The exact backend reads only ``max_outer_iters``, which caps its Newton
    iterations, and ``mu_tolerance``, the projected-gradient norm at which it
    stops; Newton steps need no step size.  The other fields drive the sgd
    backend, where ``learning_rate_mu=None`` resolves to 0.05 (swept so the
    multiplier can cross its box within the default epoch budget without
    oscillating).
    """

    epochs: int = 2000
    batch_size: int = 1000
    learning_rate_w: float = 0.01
    learning_rate_mu: float | None = None
    mu_tolerance: float = 1e-10
    max_outer_iters: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.max_outer_iters < 1:
            raise ValueError("epochs, batch_size and max_outer_iters must be >= 1")
        if self.learning_rate_w <= 0 or self.mu_tolerance <= 0:
            raise ValueError("learning_rate_w and mu_tolerance must be positive")
        if self.learning_rate_mu is not None and self.learning_rate_mu <= 0:
            raise ValueError("learning_rate_mu must be positive when given")
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

    @property
    def params(self) -> np.ndarray:
        return params_of(self.model)


def _subset_arrays(subset: Sequence[int], train: Dataset):
    idx = np.asarray(list(subset), dtype=int)
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
    val_pred = predict_many(model, valpart.data.features)
    val_resid = valpart.data.targets - val_pred
    for q, rows in enumerate(valpart.subsets):
        e_q = float(np.mean(val_resid[rows] ** 2))
        total += float(mu[q]) * (e_q - valpart.delta)
    return total


class _LinearPieces:
    """Gram blocks of the linear inner problem for one subset.

    The validation blocks come from the partition's cache; only the training
    side is built per subset.
    """

    def __init__(self, subset: Sequence[int], train: Dataset, valpart: ValidationPartition):
        self.d = train.d
        self.ns = len(subset)
        if self.ns:
            Xs, ys = _subset_arrays(subset, train)
            self.Gs = Xs.T @ Xs
            self.bs = Xs.T @ ys
            self.Xs, self.ys = Xs, ys
        else:
            self.Gs = np.zeros((self.d, self.d))
            self.bs = np.zeros(self.d)
            self.Xs = np.zeros((0, self.d))
            self.ys = np.zeros(0)
        self.Gbar, self.bbar, self.cbar = valpart.gram
        self.delta = valpart.delta
        self._eye = np.eye(self.d)

    def system(self, mu: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
        G_mu = (mu @ self.Gbar.reshape(len(mu), -1)).reshape(self.d, self.d)
        return lam * self.ns * self._eye + self.Gs + G_mu, self.bs + mu @ self.bbar

    def solve(self, mu: np.ndarray, lam: float) -> np.ndarray:
        A, b = self.system(mu, lam)
        if self.ns:
            return np.linalg.solve(A, b)
        # Empty training sum: A is only PSD; b lies in its range, so the
        # least-squares solution is a true minimizer.
        return np.linalg.lstsq(A, b, rcond=None)[0]

    def val_errors(self, w: np.ndarray) -> np.ndarray:
        return (self.Gbar @ w) @ w - 2.0 * (self.bbar @ w) + self.cbar

    def evaluate(self, mu: np.ndarray, lam: float):
        """Inner minimizer w, dual gradient, dual value and A(mu)^-1 at mu.

        The gradient of the dual is the vector of validation slacks
        e(w) - delta.  One explicit inverse serves both w and the curvature
        solve A^-1 V; at d of a few dozen it costs less than a separate
        factor-and-solve pair.  With an empty training sum A is only PSD, and
        its pseudo-inverse gives the least-norm minimizer.
        """
        A, b = self.system(mu, lam)
        A_inv = np.linalg.inv(A) if self.ns else np.linalg.pinv(A, hermitian=True)
        w = A_inv @ b
        grad = self.val_errors(w) - self.delta
        phi = float(mu @ grad)
        if self.ns:
            r = self.ys - self.Xs @ w
            phi += self.ns * lam * float(w @ w) + float(r @ r)
        return w, grad, phi, A_inv


def solve_inner_linear(
    mu: np.ndarray,
    subset: Sequence[int],
    train: Dataset,
    valpart: ValidationPartition,
    lam: float,
    allow_degenerate: bool = False,
) -> LinearModel:
    """Exact minimizer of F(., mu, S) for the linear model.

    With S empty and mu = 0 the objective is identically zero; that case is
    only defined when ``allow_degenerate`` is set, and returns w = 0.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    mu = np.asarray(mu, dtype=float)
    subset = list(subset)
    if not subset and not np.any(mu > 0):
        if allow_degenerate:
            return LinearModel(w=np.zeros(train.d))
        raise SingularSystem("empty subset with mu = 0 leaves the inner problem degenerate")
    pieces = _LinearPieces(subset, train, valpart)
    return LinearModel(w=pieces.solve(mu, lam))


# Armijo fraction of the predicted ascent an arc step must realize.
_ARMIJO = 1e-4
# Curvatures below this share of the largest one are floored to it.  The dual
# is linear along directions of zero curvature (when Q > d, say), so a long
# step there is right and the projection ends it at the box.
_CURVATURE_FLOOR = 1e-12


def _newton_direction(mu, grad, hess, lo, hi, pg_norm):
    """Bertsekas's projected Newton direction on the box [lo, hi].

    Coordinates within ``pg_norm`` of a bound whose gradient points out of
    the box form the bound set and take a diagonally scaled gradient step;
    the free ones take a Newton step on their block of the curvature
    M = 2 V'A^-1 V (the dual Hessian is -M).
    """
    eps = min(pg_norm, 0.5 * float(np.max(hi - lo)))
    bound = ((mu <= lo + eps) & (grad < 0.0)) | ((mu >= hi - eps) & (grad > 0.0))
    free = ~bound
    diag = np.diag(hess)
    floor = _CURVATURE_FLOOR * max(float(np.max(diag)), 1e-300)
    direction = grad / np.maximum(diag, floor)
    if free.any():
        vals, vecs = np.linalg.eigh(hess[np.ix_(free, free)])
        direction[free] = vecs @ ((vecs.T @ grad[free]) / np.maximum(vals, floor))
    return direction


def _projected_newton(pieces, lam, lo, hi, mu, state, cfg):
    """Maximize the dual over the box [lo, hi] from ``mu``, whose
    ``pieces.evaluate`` result is ``state``.

    Returns the final (w, mu, phi, iterations, converged); every accepted
    step raises phi up to rounding, so the final iterate is the best one.
    """
    w, grad, phi, A_inv = state
    iters = 0
    while True:
        pg_norm = float(np.linalg.norm(np.clip(mu + grad, lo, hi) - mu))
        if pg_norm <= cfg.mu_tolerance:
            return w, mu, phi, iters, True
        if iters >= cfg.max_outer_iters:
            return w, mu, phi, iters, False
        iters += 1
        V = pieces.Gbar @ w - pieces.bbar
        direction = _newton_direction(mu, grad, 2.0 * V @ A_inv @ V.T, lo, hi, pg_norm)
        # Changes below the rounding of phi are noise, not ascent.
        noise = 1e-13 * (1.0 + abs(phi))
        t = 1.0
        while True:
            trial = np.clip(mu + t * direction, lo, hi)
            gain = float(grad @ (trial - mu))
            if gain > 0.0:
                state = pieces.evaluate(trial, lam)
                if state[2] >= phi + _ARMIJO * gain - noise:
                    break
            t *= 0.5
            if t < 1e-12:
                return w, mu, phi, iters, False
        mu = trial
        w, grad, phi, A_inv = state


def train_dual_exact(
    subset: Sequence[int],
    train: Dataset,
    valpart: ValidationPartition,
    lam: float,
    C: float,
    cfg: TrainerConfig,
) -> TrainedState:
    """Solve max over mu in [0, C]^Q of min over w of F for the linear model.

    The inner minimum is solved in closed form at every mu.  The concave
    dual is maximized by projected Newton (Bertsekas 1982): each iterate
    takes one factorization of A(mu), a Newton step on the free multipliers
    with the exact curvature 2 V'A^-1 V, a scaled gradient step on those
    held at a bound, and an Armijo search along the projection arc.  It
    stops when the projected-gradient norm drops below ``cfg.mu_tolerance``.
    After ``cfg.max_outer_iters`` Newton iterations, or when the arc search
    stalls, the last (best) iterate is returned with ``converged=False``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if C < 0:
        raise ValueError("C must be >= 0")
    subset = sorted(int(i) for i in subset)
    Q = valpart.q
    pieces = _LinearPieces(subset, train, valpart)

    def finish(w, mu, iters, converged):
        model = LinearModel(w=w)
        f = dual_objective(model, mu, subset, train, valpart, lam)
        return TrainedState(
            model=model,
            mu=mu,
            f_value=f,
            iterations_used=iters,
            backend="exact",
            converged=converged,
        )

    if C == 0.0:
        # The multiplier box collapses to a point; one inner solve suffices.
        mu = np.zeros(Q)
        w = pieces.solve(mu, lam) if subset else np.zeros(train.d)
        return finish(w, mu, 0, True)

    if not subset and Q == 1:
        # With an empty training sum and a single constraint the dual is
        # linear in mu, so the maximum sits at a box endpoint.
        w_ls = np.linalg.lstsq(pieces.Gbar[0], pieces.bbar[0], rcond=None)[0]
        slack = float(pieces.val_errors(w_ls)[0]) - valpart.delta
        if slack <= 0:
            return finish(np.zeros(train.d), np.zeros(1), 0, True)
        return finish(w_ls, np.array([C]), 0, True)

    hi = np.full(Q, C)
    if subset:
        # Start at the corner mu = C, where saturated constraints, the
        # common case, terminate immediately.
        w, mu, _, iters, converged = _projected_newton(
            pieces, lam, np.zeros(Q), hi, hi, pieces.evaluate(hi, lam), cfg
        )
        return finish(w, mu, iters, converged)

    # With an empty training sum the dual is positively homogeneous in mu
    # and not differentiable at the origin, where it is 0.  A positive
    # maximum therefore lies on a face mu_q = C; each face is a smooth
    # problem, solved from the corner they share.
    start = pieces.evaluate(hi, lam)
    best, iters, converged = None, 0, True
    for q in range(Q):
        lo = np.zeros(Q)
        lo[q] = C
        run = _projected_newton(pieces, lam, lo, hi, hi, start, cfg)
        iters += run[3]
        converged &= run[4]
        if best is None or run[2] > best[2]:
            best = run
    if best[2] <= 0.0:
        # The zero multiplier is always feasible here and yields objective 0,
        # so a non-positive best means the origin is the exact maximum.
        return finish(np.zeros(train.d), np.zeros(Q), iters, True)
    return finish(best[0], best[1], iters, converged)


def _init_model(model_kind: str, d: int, hidden_width: int, rng: np.random.Generator) -> Model:
    if model_kind == "linear":
        return LinearModel(w=np.zeros(d))
    if model_kind == "two_layer":
        hidden = rng.normal(0.0, 1.0 / math.sqrt(d), size=(hidden_width, d))
        output = rng.normal(0.0, 1.0 / math.sqrt(hidden_width), size=hidden_width)
        return TwoLayerModel(hidden=hidden, output=output)
    raise ValueError(f"unknown model kind {model_kind!r}")


def _mse_grad_flat(model: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean((y - h(x))^2) over the rows of X, flat layout."""
    if isinstance(model, LinearModel):
        r = X @ model.w - y
        return (2.0 / len(y)) * (X.T @ r)
    Z = X @ model.hidden.T
    A = np.maximum(Z, 0.0)
    r = A @ model.output - y
    g_out = (2.0 / len(y)) * (A.T @ r)
    g_hid = (2.0 / len(y)) * ((r[:, None] * (Z > 0.0) * model.output).T @ X)
    return np.concatenate([g_hid.ravel(), g_out])


def train_dual_sgd(
    subset: Sequence[int],
    train: Dataset,
    valpart: ValidationPartition,
    lam: float,
    C: float,
    cfg: TrainerConfig,
    model_kind: str = "linear",
    hidden_width: int = DEFAULT_HIDDEN_WIDTH,
    init_state: TrainedState | None = None,
    epochs: int | None = None,
) -> TrainedState:
    """Stochastic saddle-point trainer: Adam on the parameters, projected
    ascent on the multipliers after every mini-batch step.

    Deterministic for a fixed config seed and subset; passing ``init_state``
    warm-starts from a previous run (used by the opt-in fast leave-one-out
    mode of the selection driver).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    subset = sorted(int(i) for i in subset)
    ns = len(subset)
    Q = valpart.q
    rng = np.random.default_rng([cfg.seed, 1 + ns, *subset])

    if init_state is not None:
        model = init_state.model
        mu = init_state.mu.copy()
    else:
        model = _init_model(model_kind, train.d, hidden_width, rng)
        mu = np.zeros(Q)
    params = params_of(model)

    lr_w = cfg.learning_rate_w
    lr_mu = cfg.learning_rate_mu if cfg.learning_rate_mu is not None else 0.05
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_t = np.zeros_like(params)
    v_t = np.zeros_like(params)

    Xs, ys = _subset_arrays(subset, train)
    Xv, yv = valpart.data.features, valpart.data.targets
    rows_per_q = valpart.subsets
    b_eff = min(ns, cfg.batch_size) if ns else 0
    n_epochs = epochs if epochs is not None else cfg.epochs

    step = 0
    for _ in range(n_epochs):
        if ns:
            order = rng.permutation(ns) if ns > b_eff else np.arange(ns)
            batch_starts = range(0, ns, b_eff)
        else:
            batch_starts = range(1)  # constraint-only update
        for start in batch_starts:
            grad = np.zeros_like(params)
            if ns:
                batch = order[start : start + b_eff]
                grad += ns * (2.0 * lam * params + _mse_grad_flat(model, Xs[batch], ys[batch]))
            for q in range(Q):
                if mu[q] != 0.0:
                    grad += mu[q] * _mse_grad_flat(model, Xv[rows_per_q[q]], yv[rows_per_q[q]])
            step += 1
            m_t = beta1 * m_t + (1 - beta1) * grad
            v_t = beta2 * v_t + (1 - beta2) * grad * grad
            m_hat = m_t / (1 - beta1**step)
            v_hat = v_t / (1 - beta2**step)
            params = params - lr_w * m_hat / (np.sqrt(v_hat) + eps)
            model = model_from_params(model, params)
            if C > 0:
                val_resid = yv - predict_many(model, Xv)
                errs = np.array([float(np.mean(val_resid[r] ** 2)) for r in rows_per_q])
                mu = np.clip(mu + lr_mu * (errs - valpart.delta), 0.0, C)

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
    hidden_width: int = DEFAULT_HIDDEN_WIDTH,
    seed: int = 0,
    max_rounds: int = 80,
    inner_steps: int = 150,
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
        model = _init_model(model_kind, train.d, hidden_width, rng)
        if model_kind == "linear":
            model = LinearModel(w=np.zeros(train.d))
    params = params_of(model)

    def value_and_subgrad(p: np.ndarray) -> tuple[float, np.ndarray]:
        mdl = model_from_params(model, p)
        total = 0.0
        g = np.zeros_like(p)
        if ns:
            r = ys - predict_many(mdl, Xs)
            total += ns * lam * float(p @ p) + float(r @ r)
            g += ns * (2.0 * lam * p + _mse_grad_flat(mdl, Xs, ys))
        val_resid = yv - predict_many(mdl, Xv)
        for q in range(Q):
            e_q = float(np.mean(val_resid[rows_per_q[q]] ** 2))
            gap = e_q - delta
            if gap > 0:
                total += C * gap
                g += C * _mse_grad_flat(mdl, Xv[rows_per_q[q]], yv[rows_per_q[q]])
        return total, g

    best_val, _ = value_and_subgrad(params)
    best_params = params.copy()
    theta = max(0.5 * abs(best_val), 1.0)
    p = params
    for _ in range(max_rounds):
        target = max(best_val - theta, 0.0)
        round_start = best_val
        for _ in range(inner_steps):
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
