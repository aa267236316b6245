import numpy as np
import pytest

from conftest import make_ctx
from selcon.baselines import (
    full_selection,
    full_with_constraints,
    random_selection,
    random_with_constraints,
)
from selcon.dual import solve_inner_linear, dual_objective
from selcon.errors import InvalidK
from selcon.selection import random_subset


class TestFullSelection:
    def test_selects_everything(self):
        ctx = make_ctx(90, n=6)
        result = full_selection(ctx)
        assert result.selected == tuple(range(6))
        assert result.method == "full"

    def test_value_is_ridge_optimum(self):
        ctx = make_ctx(91, n=6)
        result = full_selection(ctx)
        ridge = solve_inner_linear(np.zeros(1), range(6), ctx.train, ctx.valpart, ctx.lam)
        want = dual_objective(ridge, np.zeros(1), range(6), ctx.train, ctx.valpart, ctx.lam)
        assert result.f_value == pytest.approx(want, rel=1e-12)


class TestFullWithConstraints:
    def test_mu_in_box(self):
        ctx = make_ctx(92, n=6, delta=0.0, C=1.5)
        result = full_with_constraints(ctx)
        assert np.all(result.state.mu >= 0) and np.all(result.state.mu <= 1.5)

    def test_at_least_unconstrained_when_binding(self):
        ctx = make_ctx(93, n=6, delta=0.0, C=2.0)
        assert full_with_constraints(ctx).f_value >= full_selection(ctx).f_value - 1e-10

    def test_equals_unconstrained_when_slack(self):
        ctx = make_ctx(94, n=6, delta=1e6)
        a = full_with_constraints(ctx)
        b = full_selection(ctx)
        assert a.f_value == pytest.approx(b.f_value, rel=1e-12)


class TestRandomSubset:
    def test_k_equals_n(self):
        assert random_subset(5, 5, seed=0) == (0, 1, 2, 3, 4)

    def test_deterministic(self):
        assert random_subset(30, 7, seed=3) == random_subset(30, 7, seed=3)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            random_subset(4, 5, seed=0)

    def test_uniform_inclusion_frequency(self):
        # Binomial check: each element appears with probability k/n.
        n, k, draws = 12, 4, 10_000
        counts = np.zeros(n)
        for s in range(draws):
            for i in random_subset(n, k, seed=s):
                counts[i] += 1
        p = k / n
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)


class TestRandomWithConstraints:
    def test_composition(self):
        ctx = make_ctx(95, n=8, delta=0.0, C=1.0)
        result = random_with_constraints(ctx, k=3, seed=4)
        assert result.selected == random_subset(8, 3, seed=4)
        assert result.f_value == pytest.approx(ctx.f_of(result.selected)[0])
        assert result.method == "random-constrained"

    def test_unconstrained_variant(self):
        ctx = make_ctx(96, n=8, C=2.0)
        result = random_selection(ctx, k=3, seed=4)
        assert np.array_equal(result.state.mu, [0.0])
        assert result.method == "random"

    def test_shared_result_schema(self):
        ctx = make_ctx(97, n=6)
        for result in (full_selection(ctx), random_with_constraints(ctx, 2, 0)):
            d = result.as_dict()
            assert {"method", "selected", "f_value", "trace"} <= set(d)
