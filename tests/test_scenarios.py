"""The problem builder and the two corrupted pools."""

import numpy as np
import pytest

from selcon import baselines, dataset
from selcon.dataset import partition_validation
from selcon.dual import TrainerConfig
from selcon.metrics import default_delta
from selcon.scenarios import build_context, corrupted_pool, four_group_pool
from selcon.setfn import SetFnContext


class TestBuildContext:
    @pytest.mark.parametrize("partition", ["single", "by_group"])
    def test_auto_is_the_30_percent_rule_of_the_C0_fit(self, partition, monkeypatch):
        train, val, _ = four_group_pool(1)
        probe = partition_validation(val, partition, 0.0)
        full = baselines.full_selection(SetFnContext(train=train, valpart=probe, lam=0.3, C=0.0))
        want = default_delta(full.state, val, probe)

        calls = []
        real = dataset.partition_validation
        monkeypatch.setattr(dataset, "partition_validation",
                            lambda *a: calls.append(a) or real(*a))
        ctx = build_context(train, val, partition, lam=0.3, C=5.0, delta="auto")
        assert ctx.valpart.delta == want and want > 0
        assert len(calls) == 1
        assert ctx.valpart.q == probe.q and (ctx.lam, ctx.C) == (0.3, 5.0)

    @pytest.mark.parametrize("delta", [0.4, "0.4"])
    def test_numeric_delta_is_used_as_given(self, delta, monkeypatch):
        def no_fit(ctx):
            raise AssertionError("a numeric delta needs no fit")

        monkeypatch.setattr(baselines, "full_selection", no_fit)
        train, val, _ = corrupted_pool(0, 80)
        assert build_context(train, val, delta=delta).valpart.delta == 0.4

    def test_fields_reach_the_context(self):
        train, val, _ = four_group_pool(0)
        trainer = TrainerConfig(epochs=3, seed=7)
        ctx = build_context(train, val, "by_group", backend="sgd", trainer=trainer,
                            model_kind="two_layer")
        assert (ctx.backend, ctx.trainer, ctx.model_kind) == ("sgd", trainer, "two_layer")
        assert (ctx.lam, ctx.C, ctx.valpart.delta, ctx.valpart.q) == (1.0, 1.0, 0.5, 4)


def _clean_corrupted_pool(seed, n, d):
    r = np.random.default_rng(seed)
    X = r.uniform(-1, 1, (n, d))
    y = X @ r.uniform(-1, 1, d)
    return y - y.min() + 0.25


def _clean_four_group_pool(seed):
    r = np.random.default_rng(seed)
    Xc = r.uniform(-1, 1, (200, 3))
    y = Xc @ r.uniform(-1, 1, 3) + (1.0 + 0.05 * np.arange(4))[np.arange(200) % 4]
    y = y + r.normal(0, 0.1, 200)
    return y - y.min() + 0.25


class TestPools:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool, clean, n, bad", [
        (lambda s: corrupted_pool(s, 120, 3), lambda s: _clean_corrupted_pool(s, 120, 3),
         120, lambda m: m // 4),
        (four_group_pool, _clean_four_group_pool, 200, lambda m: int(0.35 * m)),
    ])
    def test_folds_partition_the_rows_and_only_training_targets_are_noised(
            self, seed, pool, clean, n, bad):
        folds = pool(seed)
        ids = np.concatenate([fold.ids for fold in folds])
        assert np.array_equal(np.sort(ids), np.arange(n))
        y = clean(seed)
        train, val, test = folds
        for fold in (val, test):
            assert np.array_equal(fold.targets, y[fold.ids])
        assert np.count_nonzero(train.targets != y[train.ids]) == bad(train.n)
