"""Closed-form constants and certificates for the selection guarantees.

Everything here is a pure function of the data extrema and the problem
scalars: the per-element regularized-loss floor of both models in closed
form, the certified submodularity-ratio lower bound ``alpha_hat``, the
certified curvature upper bound ``kappa_hat``, the regularization threshold
that makes those certificates valid, and the approximation ratio.
:func:`bound_report` assembles them for exact training: ``select`` reports
it, and ``verify`` checks its ``alpha_hat`` and ``kappa_hat``.

The two-layer floor: any parameters p = (hidden rows h_j, outputs o_j) have
|h(x)| <= sum_j |o_j| ||h_j|| ||x|| <= ||x|| ||p||^2 / 2, so with a = lam/||x||
the loss is at least min_t 2a|t| + (y - t)^2 = y^2 - max(|y| - a, 0)^2, which
one hidden unit along x attains (y^2 at x = 0; the width does not enter).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset
from .errors import InvalidAlpha, ZeroTarget
from .models import row_dots

__all__ = [
    "DataConstants",
    "BoundReport",
    "data_constants",
    "claim1_min",
    "ell_star_linear",
    "ell",
    "alpha_hat_linear",
    "kappa_hat",
    "lambda_min_linear",
    "approx_ratio",
    "bound_report",
]


@dataclass(frozen=True)
class DataConstants:
    """Extrema of the data that enter every certificate.

    ``x_max`` is the largest Euclidean feature norm over train and validation
    rows; ``y_min``/``y_max`` bound |y| over both sets, with y_min > 0.
    """

    y_max: float
    y_min: float
    x_max: float


@dataclass(frozen=True)
class BoundReport:
    alpha_hat: float
    kappa_hat: float
    ell_star: float
    ell_star_loss_floor: float
    ell: float
    lambda_min: float
    ratio_perfect: float

    def as_dict(self) -> dict:
        # Vacuous ratios are infinite; JSON has no Infinity, so emit null.
        return {
            k: (float(v) if math.isfinite(v) else None)
            for k, v in asdict(self).items()
        }


def data_constants(train: Dataset, val: Dataset) -> DataConstants:
    """Exact extrema over train and validation rows.

    Raises :class:`ZeroTarget` when any |y| is zero; the certificates need
    min|y| > 0, which an offset to the targets restores.
    """
    ys = np.abs(np.concatenate([train.targets, val.targets]))
    if np.any(ys == 0.0):
        raise ZeroTarget()
    norms = np.linalg.norm(np.vstack([train.features, val.features]), axis=1)
    return DataConstants(
        y_max=float(ys.max()),
        y_min=float(ys.min()),
        x_max=float(norms.max()),
    )


def claim1_min(lam: float, y: float, x: np.ndarray) -> float:
    """min over w of lam*||w||^2 + (y - w.x)^2 = lam*y^2 / (lam + ||x||^2)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    return lam * y * y / (lam + float(x @ x))


def ell_star_linear(train: Dataset, x_max: float) -> float:
    """:func:`ell` with lam set to x_max^2 (the linear model's Hessian scale):
    the curvature-scale per-element loss floor."""
    return ell(train, x_max * x_max)


def ell(train: Dataset, lam: float, model_kind: str = "linear") -> float:
    """min over elements of min over w of lam*||w||^2 + (y_i - h_w(x_i))^2.

    Closed form per element for both models: lam*y^2 / (lam + ||x||^2) for
    the linear model, y^2 - max(|y| - lam/||x||, 0)^2 for the two-layer relu
    model (y^2 at x = 0; see the module docstring).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    y = train.targets
    if model_kind == "linear":
        # Each row's value has the bits of claim1_min on that row.
        return float(np.min(lam * y * y / (lam + row_dots(train.features, train.features))))
    # m = min(lam/||x||, |y|): m*(2|y| - m) is that form without the cancellation.
    with np.errstate(divide="ignore"):  # x = 0 gives m = |y|, so y^2
        m = np.minimum(lam / np.linalg.norm(train.features, axis=1), np.abs(y))
    return float(np.min(m * (2.0 * np.abs(y) - m)))


def alpha_hat_linear(lam: float, C: float, q: int, consts: DataConstants) -> float:
    """Certified submodularity-ratio lower bound for the linear model.

    May be <= 0 when lam sits below :func:`lambda_min_linear`; the value is
    reported unclamped and the caller decides how to substitute.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    try:
        num = 16.0 * (1.0 + C * q) ** 2 * consts.y_max**2 * consts.x_max**2
    except OverflowError:  # C*Q above ~1.3e154: the certificate is vacuous
        return -math.inf
    return 1.0 - num / (lam * consts.y_min**2)


def kappa_hat(C: float, q: int, y_max: float, ell_star: float) -> float:
    """Certified upper bound on the generalized curvature."""
    if ell_star <= 0:
        raise ValueError("ell_star must be positive")
    return 1.0 - ell_star / ((C * q + 1.0) * y_max**2)


def lambda_min_linear(C: float, q: int, consts: DataConstants) -> float:
    """Smallest regularizer weight at which the linear certificates hold."""
    if consts.x_max == 0.0:
        return 0.0
    try:
        bound = 16.0 * (1.0 + C * q) ** 2 * consts.y_max**2 * consts.x_max**2 / consts.y_min**2
    except OverflowError:
        return math.inf
    return max(consts.x_max**2, bound)


def approx_ratio(k: int, alpha: float, kappa: float, epsilon: float, ell_value: float) -> tuple[float, float]:
    """Approximation ratios of the selection driver.

    ``perfect`` covers exact training; ``imperfect`` adds the 2*k*eps/ell
    degradation caused by trainers that only approximate f within eps.
    Raises :class:`InvalidAlpha` when alpha <= 0 (the certificate is vacuous;
    raise lam or switch to an empirical alpha).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if epsilon < 0 or ell_value <= 0:
        raise ValueError("need epsilon >= 0 and ell > 0")
    if alpha <= 0:
        raise InvalidAlpha(f"alpha = {alpha} is not positive; the ratio is vacuous")
    perfect = k / (alpha * (1.0 + (k - 1) * (1.0 - kappa) * alpha))
    return perfect, perfect + 2.0 * k * epsilon / ell_value


def bound_report(train: Dataset, consts: DataConstants, lam: float, C: float, q: int,
                 k: int) -> BoundReport:
    """Assemble every certificate for a linear problem with ``q`` groups into
    one report, from the caller's :func:`data_constants`, for exact training:
    the ratio is taken at epsilon 0, and is infinite when alpha_hat <= 0."""
    e_star = ell_star_linear(train, consts.x_max)
    e = ell(train, lam)
    a_hat = alpha_hat_linear(lam, C, q, consts)
    k_hat = kappa_hat(C, q, consts.y_max, e_star)
    return BoundReport(
        alpha_hat=a_hat,
        kappa_hat=k_hat,
        ell_star=e_star,
        # The loss-floor form of ell_star the linear certificate proof uses.
        ell_star_loss_floor=lam * consts.y_min**2 / (lam + consts.x_max**2),
        ell=e,
        lambda_min=lambda_min_linear(C, q, consts),
        ratio_perfect=approx_ratio(k, a_hat, k_hat, 0.0, e)[0] if a_hat > 0 else math.inf,
    )
