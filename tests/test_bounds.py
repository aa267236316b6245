import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem
from selcon.bounds import (
    alpha_hat_linear,
    approx_ratio,
    bound_report,
    claim1_min,
    data_constants,
    ell,
    ell_star_linear,
    kappa_hat,
    lambda_min_linear,
)
from selcon.dataset import Dataset
from selcon.errors import InvalidAlpha, ZeroTarget
from selcon.models import row_dots


def two_layer_search(lam, y, x, width=3, starts=4, seed=0):
    """Oracle: multi-start L-BFGS-B over the full (hidden, output) vector of
    lam*||p||^2 + (y - output . relu(hidden @ x))^2."""
    rng = np.random.default_rng(seed)
    d = len(x)

    def obj(p):
        hidden, out = p[: width * d].reshape(width, d), p[width * d :]
        z = hidden @ x
        err = out @ np.maximum(z, 0.0) - y
        g_hidden = 2 * lam * hidden + 2 * err * np.outer(out * (z > 0), x)
        g_out = 2 * lam * out + 2 * err * np.maximum(z, 0.0)
        return lam * p @ p + err * err, np.concatenate([g_hidden.ravel(), g_out])

    best = math.inf
    for _ in range(starts):
        p0 = rng.normal(0.0, 1.0, size=width * d + width)
        res = scipy.optimize.minimize(obj, p0, jac=True, method="L-BFGS-B",
                                      options={"ftol": 1e-13, "gtol": 1e-10})
        best = min(best, float(res.fun))
    return best


def ridge_scalar_minimum(lam, y, x):
    """Oracle: value of lam*||w||^2 + (y - w.x)^2 at w = y (lam I + x x')^{-1} x."""
    d = len(x)
    w = y * np.linalg.solve(lam * np.eye(d) + np.outer(x, x), x)
    return lam * w @ w + (y - w @ x) ** 2


class TestClaim1:
    def test_spot(self):
        assert claim1_min(1.0, 2.0, np.array([1.0])) == pytest.approx(2.0)

    def test_zero_target(self):
        assert claim1_min(3.0, 0.0, np.array([1.0, 2.0])) == 0.0

    @given(
        lam=st.floats(0.05, 50),
        y=st.floats(-5, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_solve(self, lam, y, seed):
        x = np.random.default_rng(seed).uniform(-2, 2, size=3)
        want = ridge_scalar_minimum(lam, y, x)
        assert claim1_min(lam, y, x) == pytest.approx(want, abs=1e-8, rel=1e-8)


class TestEllStar:
    def test_single_point(self):
        train = Dataset(features=np.array([[1.0]]), targets=np.array([1.0]))
        assert ell_star_linear(train, 1.0) == pytest.approx(0.5)

    def test_floor_half_y_min_squared(self):
        for seed in range(10):
            train, val, vp, _, _ = make_problem(seed)
            consts = data_constants(train, val)
            assert ell_star_linear(train, consts.x_max) >= consts.y_min**2 / 2 - 1e-12

    def test_matches_per_point_oracle(self):
        train, _, _, _, _ = make_problem(3, n=5)
        x_max = float(np.max(np.linalg.norm(train.features, axis=1)))
        want = min(
            ridge_scalar_minimum(x_max**2, y, x)
            for x, y in zip(train.features, train.targets)
        )
        assert ell_star_linear(train, x_max) == pytest.approx(want, rel=1e-10)


class TestEll:
    def test_single_point(self):
        train = Dataset(features=np.array([[1.0]]), targets=np.array([2.0]))
        assert ell(train, 1.0) == pytest.approx(2.0)

    def test_upper_bound_by_zero_weights(self):
        train, _, _, lam, _ = make_problem(4)
        assert ell(train, lam) <= float(np.max(train.targets**2)) + 1e-12

    def test_matches_exhaustive_oracle(self):
        train, _, _, lam, _ = make_problem(5, n=6)
        want = min(
            ridge_scalar_minimum(lam, y, x) for x, y in zip(train.features, train.targets)
        )
        assert ell(train, lam) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 9, 16, 33])
    def test_linear_rows_keep_claim1_bits(self, d):
        rng = np.random.default_rng(d)
        X, W = rng.normal(size=(40, d)), rng.normal(size=(40, d))
        y = rng.uniform(0.3, 2.0, 40)
        assert np.array_equal(row_dots(X, X), [x @ x for x in X])
        assert np.array_equal(row_dots(W, X), [w @ x for w, x in zip(W, X)])
        train = Dataset(features=X, targets=y)
        assert ell(train, 0.7) == min(claim1_min(0.7, yi, x) for x, yi in zip(X, y))

    def test_two_layer_numeric(self):
        train, _, _, _, _ = make_problem(6, n=3)
        value = ell(train, 0.5, model_kind="two_layer")
        assert 0.0 <= value <= float(np.max(train.targets**2)) + 1e-9

    def test_two_layer_closed_form(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        X[3] = 0.0
        y = rng.uniform(-3.0, 3.0, 30)
        with np.errstate(divide="ignore"):
            a = 0.8 / np.linalg.norm(X, axis=1)
        want = y**2 - np.maximum(np.abs(y) - a, 0.0) ** 2  # a = inf at x = 0 gives y^2
        for n in (1, 4, 30):
            got = ell(Dataset(features=X[:n], targets=y[:n]), 0.8, model_kind="two_layer")
            assert got == pytest.approx(float(want[:n].min()), rel=1e-12)

    def test_two_layer_matches_parameter_search(self):
        # The closed form is a lower bound the search never beats, and the
        # search reaches it: |y| above and below lam/||x||, plus x = 0.
        rng = np.random.default_rng(0)
        above = below = 0
        for i in range(41):
            d, lam = int(rng.integers(1, 6)), float(rng.uniform(0.05, 5.0))
            if i == 0:
                x, y = np.zeros(d), 1.3
            else:
                x = rng.normal(size=d)
                a = lam / float(np.linalg.norm(x))
                scale = rng.uniform(1.2, 4.0) if i % 2 else rng.uniform(0.1, 0.8)
                y = float(rng.choice([-1.0, 1.0]) * a * scale)
                above, below = above + (abs(y) > a), below + (abs(y) < a)
            value = ell(Dataset(features=x[None, :], targets=np.array([y])), lam, "two_layer")
            found = two_layer_search(lam, y, x, seed=i)
            assert found >= value - 1e-9 * (1.0 + value)
            assert found == pytest.approx(value, abs=1e-6)
        assert above >= 10 and below >= 10

    def test_two_layer_needs_positive_lam(self):
        train, _, _, _, _ = make_problem(6, n=3)
        with pytest.raises(ValueError, match="lam"):
            ell(train, 0.0, model_kind="two_layer")


def consts_for(y_max=1.0, y_min=1.0, x_max=1.0):
    return data_constants(
        Dataset(features=np.array([[x_max]]), targets=np.array([y_max])),
        Dataset(features=np.array([[0.0]]), targets=np.array([y_min])),
    )


class TestAlphaHat:
    def test_linear_spot(self):
        assert alpha_hat_linear(128.0, 1.0, 1, consts_for()) == pytest.approx(0.5)

    def test_linear_threshold_boundary(self):
        c = consts_for(y_max=2.0, y_min=0.5, x_max=1.5)
        lam = 16.0 * (1 + 1) ** 2 * c.y_max**2 * c.x_max**2 / c.y_min**2
        assert alpha_hat_linear(lam, 1.0, 1, c) == pytest.approx(0.0, abs=1e-12)

    def test_linear_limit(self):
        assert alpha_hat_linear(1e12, 1.0, 1, consts_for()) == pytest.approx(1.0, abs=1e-9)


class TestKappaHat:
    def test_spot(self):
        assert kappa_hat(1.0, 1, 1.0, 0.5) == pytest.approx(0.75)

    def test_boundary(self):
        assert kappa_hat(0.0, 1, 1.0, 1.0) == pytest.approx(0.0)

    def test_below_one(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            y_max = r.uniform(0.5, 3)
            e_star = r.uniform(1e-6, y_max**2)
            assert kappa_hat(r.uniform(0, 3), int(r.integers(1, 4)), y_max, e_star) < 1.0


class TestLambdaMin:
    def test_spot(self):
        assert lambda_min_linear(1.0, 1, consts_for()) == pytest.approx(64.0)

    def test_C_zero(self):
        c = consts_for(y_max=2.0, y_min=1.0, x_max=1.5)
        want = max(1.5**2, 16 * 4 * 1.5**2 / 1.0)
        assert lambda_min_linear(0.0, 1, c) == pytest.approx(want)

    def test_degenerate_x(self):
        c = data_constants(
            Dataset(features=np.zeros((1, 1)), targets=np.array([1.0])),
            Dataset(features=np.zeros((1, 1)), targets=np.array([1.0])),
        )
        assert lambda_min_linear(1.0, 1, c) == 0.0


class TestApproxRatio:
    def test_k_one(self):
        perfect, _ = approx_ratio(1, 0.5, 0.3, 0.0, 1.0)
        assert perfect == pytest.approx(2.0)

    def test_epsilon_zero(self):
        perfect, imperfect = approx_ratio(3, 0.7, 0.4, 0.0, 0.5)
        assert perfect == imperfect

    def test_spot(self):
        perfect, _ = approx_ratio(2, 0.5, 0.75, 0.0, 1.0)
        assert perfect == pytest.approx(2 / (0.5 * (1 + 1 * 0.25 * 0.5)))
        assert perfect == pytest.approx(3.5555555555, rel=1e-9)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            approx_ratio(2, 0.0, 0.5, 0.0, 1.0)
        with pytest.raises(InvalidAlpha):
            approx_ratio(2, -0.3, 0.5, 0.0, 1.0)

    def test_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            alpha = rng.uniform(1e-3, 1.0)
            kappa = rng.uniform(0.0, 1.0)
            perfect, _ = approx_ratio(k, alpha, kappa, 0.0, 1.0)
            assert perfect >= 1.0 - 1e-12


class TestDataConstants:
    def test_extrema(self):
        train = Dataset(features=np.array([[3.0, 4.0]]), targets=np.array([1.0]))
        val = Dataset(features=np.array([[0.0, 1.0], [0.0, 0.5]]), targets=np.array([-2.0, 3.0]))
        c = data_constants(train, val)
        assert (c.y_min, c.y_max) == (1.0, 3.0)
        assert c.x_max == pytest.approx(5.0)
        assert [f.name for f in dataclasses.fields(c)] == ["y_max", "y_min", "x_max"]

    def test_zero_target(self):
        train = Dataset(features=np.array([[1.0]]), targets=np.array([0.0]))
        val = Dataset(features=np.array([[1.0]]), targets=np.array([1.0]))
        with pytest.raises(ZeroTarget):
            data_constants(train, val)


class TestBoundReport:
    def test_assembles(self):
        train, val, vp, _, _ = make_problem(7, y_lo=0.5, y_hi=1.5)
        consts = data_constants(train, val)
        lam = 1.5 * lambda_min_linear(1.0, 1, consts)
        report = bound_report(train, consts, lam, 1.0, 1, k=2)
        assert 0.0 < report.alpha_hat <= 1.0
        assert report.kappa_hat <= 1.0
        assert report.ratio_perfect >= 1.0
        assert report.ratio_perfect == approx_ratio(2, report.alpha_hat, report.kappa_hat, 0.0,
                                                    report.ell)[0]
        d = report.as_dict()
        assert set(d) == {
            "alpha_hat", "kappa_hat", "ell_star", "ell_star_loss_floor", "ell", "lambda_min",
            "ratio_perfect",
        }

    def test_overflowing_certificate(self):
        # (1 + C*Q)**2 overflows a float above C*Q ~ 1.3e154: alpha_hat is
        # -inf, lambda_min inf, and the report writes them and the ratio as null.
        train, val, _, lam, _ = make_problem(7)
        consts = data_constants(train, val)
        assert alpha_hat_linear(lam, 1e200, 1, consts) == -math.inf
        assert lambda_min_linear(1e200, 1, consts) == math.inf
        d = bound_report(train, consts, lam, 1e200, 1, k=2).as_dict()
        assert [d[k] for k in ("alpha_hat", "lambda_min", "ratio_perfect")] == [None] * 3
        assert math.isfinite(d["kappa_hat"]) and math.isfinite(d["ell"])

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_loss_floor_formula(self, seed):
        train, val, _, lam, _ = make_problem(seed, q=2, signed=True)
        consts = data_constants(train, val)
        report = bound_report(train, consts, lam, 1.0, 2, k=3)
        assert report.ell_star_loss_floor == lam * consts.y_min**2 / (lam + consts.x_max**2)
