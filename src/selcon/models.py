"""Prediction functions and parameter gradients for the two model families.

Both families predict zero at zero parameters: there are no bias terms
anywhere, and intercepts are obtained by augmenting features with a constant
column instead (see ``dataset.offset_augment``).

Flat parameter layout: the linear model is just ``w``; the two-layer model is
``concat(hidden.ravel(order="C"), output)`` with ``hidden`` of shape (m, d)
and ``output`` of shape (m,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "LinearModel",
    "TwoLayerModel",
    "predict",
    "predict_many",
    "loss_grad",
    "mse_grad",
    "params_of",
    "model_from_params",
    "model_to_dict",
    "model_from_dict",
    "row_dots",
]


def _finite_frozen(a, shape_hint: str) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    if not np.isfinite(a).all():
        raise ValueError(f"{shape_hint} entries must be finite")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LinearModel:
    """h(x) = w . x"""

    w: np.ndarray

    def __post_init__(self):
        w = _finite_frozen(self.w, "weight")
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        object.__setattr__(self, "w", w)

    @property
    def d(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class TwoLayerModel:
    """h(x) = output . relu(hidden @ x)"""

    hidden: np.ndarray
    output: np.ndarray

    def __post_init__(self):
        H = _finite_frozen(self.hidden, "hidden layer")
        o = _finite_frozen(self.output, "output layer")
        if H.ndim != 2 or o.ndim != 1 or H.shape[0] != o.shape[0]:
            raise ValueError("hidden must be (m, d) with output of length m")
        object.__setattr__(self, "hidden", H)
        object.__setattr__(self, "output", o)

    @property
    def d(self) -> int:
        return self.hidden.shape[1]

    @property
    def m(self) -> int:
        return self.hidden.shape[0]


Model = LinearModel | TwoLayerModel


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_r . b_r for every row r of two (B, d) arrays.

    A stack of (1, d) @ (d, 1) products: each row has the bits of the
    one-row product ``a[r] @ b[r]``, which a row sum of ``a * b`` or an
    einsum does not reproduce.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def predict(model: Model, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise DimensionMismatch(f"expected input of length {model.d}, got shape {x.shape}")
    if isinstance(model, LinearModel):
        return float(model.w @ x)
    return float(model.output @ np.maximum(model.hidden @ x, 0.0))


def predict_many(model: Model, X: np.ndarray) -> np.ndarray:
    """Vectorized predictions for an (n, d) matrix of inputs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DimensionMismatch(f"expected (n, {model.d}) inputs, got shape {X.shape}")
    if isinstance(model, LinearModel):
        return X @ model.w
    return np.maximum(X @ model.hidden.T, 0.0) @ model.output


def mse_grad(model: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean((y - h(x))^2) over the rows of X, in the flat
    parameter layout; the relu subgradient at exactly 0 is taken as 0."""
    if isinstance(model, LinearModel):
        r = X @ model.w - y
        return (2.0 / len(y)) * (X.T @ r)
    Z = X @ model.hidden.T
    A = np.maximum(Z, 0.0)
    r = A @ model.output - y
    g_out = (2.0 / len(y)) * (A.T @ r)
    g_hid = (2.0 / len(y)) * ((r[:, None] * (Z > 0.0) * model.output).T @ X)
    return np.concatenate([g_hid.ravel(), g_out])


def loss_grad(model: Model, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the squared loss (y - h(x))^2: :func:`mse_grad` on one row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise DimensionMismatch(f"expected input of length {model.d}, got shape {x.shape}")
    return mse_grad(model, x[None, :], np.array([float(y)]))


def params_of(model: Model) -> np.ndarray:
    if isinstance(model, LinearModel):
        return model.w.copy()
    return np.concatenate([model.hidden.ravel(), model.output])


def model_from_params(template: Model, params: np.ndarray) -> Model:
    """Rebuild a model of the same shape as ``template`` from a flat vector."""
    params = np.asarray(params, dtype=float)
    if isinstance(template, LinearModel):
        if params.shape != (template.d,):
            raise DimensionMismatch("parameter count does not match the model")
        return LinearModel(w=params)
    m, d = template.m, template.d
    if params.shape != (m * d + m,):
        raise DimensionMismatch("parameter count does not match the model")
    return TwoLayerModel(hidden=params[: m * d].reshape(m, d), output=params[m * d :])


def model_to_dict(model: Model) -> dict:
    if isinstance(model, LinearModel):
        return {"kind": "linear", "dims": [model.d], "params": [float(v) for v in model.w]}
    return {
        "kind": "two_layer",
        "dims": [model.m, model.d],
        "params": [float(v) for v in params_of(model)],
    }


def model_from_dict(obj: dict) -> Model:
    params = np.asarray(obj["params"], dtype=float)
    if obj["kind"] == "linear":
        (d,) = obj["dims"]
        return model_from_params(LinearModel(w=np.zeros(d)), params)
    if obj["kind"] == "two_layer":
        m, d = obj["dims"]
        return model_from_params(TwoLayerModel(hidden=np.zeros((m, d)), output=np.zeros(m)), params)
    raise ValueError(f"unknown model kind {obj['kind']!r}")
