import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, make_problem
from selcon.dataset import Dataset, partition_validation
from selcon.errors import EmptyDataset, NeedTwoGroups
from selcon.metrics import (
    default_delta,
    fairness_violation,
    group_errors,
    mse,
    sweep_rows_to_csv,
)
from selcon.models import LinearModel
from selcon.scenarios import delta_trend


def dataset_from(X, y, groups=None):
    return Dataset(features=np.asarray(X, float), targets=np.asarray(y, float), groups=groups)


class TestMse:
    def test_perfect_predictions(self):
        data = dataset_from([[1.0], [2.0]], [3.0, 6.0])
        assert mse(LinearModel(w=np.array([3.0])), data) == 0.0

    def test_zero_weights_mean_squared_targets(self):
        data = dataset_from([[1.0], [2.0]], [1.0, 3.0])
        assert mse(LinearModel(w=np.array([0.0])), data) == pytest.approx(5.0)

    def test_elementwise_recomputation(self):
        rng = np.random.default_rng(0)
        data = dataset_from(rng.normal(size=(40, 3)), rng.normal(size=40))
        model = LinearModel(w=rng.normal(size=3))
        manual = sum((y - model.w @ x) ** 2 for x, y in zip(data.features, data.targets))
        assert mse(model, data) == pytest.approx(manual / 40, rel=1e-12)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X, y = rng.normal(size=(25, 2)), rng.normal(size=25)
        model = LinearModel(w=rng.normal(size=2))
        perm = rng.permutation(25)
        a = mse(model, dataset_from(X, y))
        b = mse(model, dataset_from(X[perm], y[perm]))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            mse(LinearModel(w=np.zeros(1)), dataset_from(np.zeros((0, 1)), []))


class TestGroupErrors:
    def test_zero_residuals(self):
        val = dataset_from([[1.0], [2.0]], [2.0, 4.0])
        part = partition_validation(val, "single", delta=0.1)
        errs, ok = group_errors(LinearModel(w=np.array([2.0])), val, part)
        assert np.array_equal(errs, [0.0]) and ok.all()

    def test_single_group_equals_mse(self):
        _, val, part, _, _ = make_problem(100)
        model = LinearModel(w=np.array([0.3, -0.1]))
        errs, _ = group_errors(model, val, part)
        assert errs[0] == pytest.approx(mse(model, val))

    def test_matches_brute_recomputation(self):
        _, val, part, _, _ = make_problem(101, q=2)
        model = LinearModel(w=np.array([0.5, 0.2]))
        errs, ok = group_errors(model, val, part)
        for q, rows in enumerate(part.subsets):
            manual = np.mean(
                [(val.targets[j] - model.w @ val.features[j]) ** 2 for j in rows]
            )
            assert errs[q] == pytest.approx(manual, rel=1e-12)
            assert ok[q] == (errs[q] <= part.delta)


class TestFairness:
    def two_group_val(self, resid2):
        # Build targets so that squared residuals at w=0 are resid2.
        y = np.sqrt(np.asarray(resid2, float))
        groups = np.array([0] * (len(y) // 2) + [1] * (len(y) - len(y) // 2))
        val = dataset_from(np.zeros((len(y), 1)), y, groups=groups)
        return val, partition_validation(val, "by_group", delta=1.0)

    def test_all_equal_residuals(self):
        val, part = self.two_group_val([2.0, 2.0, 2.0, 2.0])
        assert fairness_violation(LinearModel(w=np.zeros(1)), val, part) == 0.0

    def test_single_pair(self):
        val, part = self.two_group_val([1.0, 3.0])
        assert fairness_violation(LinearModel(w=np.zeros(1)), val, part) == pytest.approx(2.0)

    def test_needs_two_groups(self):
        _, val, part, _, _ = make_problem(102)
        with pytest.raises(NeedTwoGroups):
            fairness_violation(LinearModel(w=np.zeros(2)), val, part)

    def test_matches_brute_double_sum(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0.2, 2.0, 9)
        groups = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        val = dataset_from(rng.normal(size=(9, 2)), y, groups=groups)
        part = partition_validation(val, "by_group", delta=0.5)
        model = LinearModel(w=rng.normal(size=2))
        r2 = (val.targets - val.features @ model.w) ** 2
        total, pairs = 0.0, 0
        for i in range(9):
            for j in range(9):
                if groups[i] != groups[j]:
                    total += abs(r2[i] - r2[j])
                    pairs += 1
        assert fairness_violation(model, val, part) == pytest.approx(total / pairs, rel=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_pairwise_matrix(self, seed):
        # The |V_q| x |V \ V_q| difference matrix, summed group by group.
        rng = np.random.default_rng(seed)
        n, q = int(rng.integers(4, 300)), int(rng.integers(2, 7))
        groups = np.concatenate([np.arange(q), rng.integers(0, q, n - q)])
        y = np.round(rng.uniform(0.0, 3.0, n), int(rng.integers(1, 4)))  # with ties
        val = dataset_from(rng.normal(size=(n, 2)), y, groups=groups)
        part = partition_validation(val, "by_group", delta=0.5)
        model = LinearModel(w=rng.normal(size=2) * (seed % 2))
        r2 = (val.targets - val.features @ model.w) ** 2
        total, pairs = 0.0, 0
        for rows in part.subsets:
            others = np.setdiff1d(np.arange(n), rows)
            total += float(np.sum(np.abs(r2[rows][:, None] - r2[others][None, :])))
            pairs += len(rows) * len(others)
        assert fairness_violation(model, val, part) == pytest.approx(total / pairs, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0.2, 2.0, 8)
        groups = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        X = rng.normal(size=(8, 2))
        model = LinearModel(w=rng.normal(size=2))
        val1 = dataset_from(X, y, groups=groups)
        part1 = partition_validation(val1, "by_group", 0.5)
        perm = rng.permutation(8)
        val2 = dataset_from(X[perm], y[perm], groups=groups[perm])
        part2 = partition_validation(val2, "by_group", 0.5)
        a = fairness_violation(model, val1, part1)
        b = fairness_violation(model, val2, part2)
        assert a == pytest.approx(b, abs=1e-12)


class TestDefaultDelta:
    def test_single_group(self):
        ctx = make_ctx(103)
        val, part = ctx.valpart.data, ctx.valpart
        _, state = ctx.f_of((0, 1))
        errs, _ = group_errors(state.model, val, part)
        assert default_delta(state, val, part) == pytest.approx(0.3 * errs.mean())

    def test_mean_then_scale(self):
        # Group errors (1, 3) -> 0.3 * 2 = 0.6.
        y = np.array([1.0, np.sqrt(3.0)])
        val = dataset_from([[0.0], [0.0]], y, groups=np.array([0, 1]))
        part = partition_validation(val, "by_group", delta=0.0)
        state_like = type("S", (), {"model": LinearModel(w=np.zeros(1))})
        assert default_delta(state_like, val, part) == pytest.approx(0.6)


class TestDeltaSweep:
    def test_row_count_and_csv(self):
        rows = delta_trend(1, [2.0, 1.0, 0.5], n=60, d=3, k=6, lam=0.3, C=10.0)
        assert len(rows) == 3
        assert [r["scale"] for r in rows] == [2.0, 1.0, 0.5]
        assert rows[0]["delta"] == pytest.approx(4 * rows[2]["delta"])
        csv_text = sweep_rows_to_csv(rows)
        assert csv_text.splitlines()[0] == "method,k,delta,seed,metric,value"
        assert len(csv_text.splitlines()) == 4

    def test_requires_descending(self):
        with pytest.raises(ValueError):
            delta_trend(1, [0.5, 1.0], n=60, d=3, k=6, lam=0.3, C=10.0)
