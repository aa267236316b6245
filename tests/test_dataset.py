import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selcon.dataset import (
    Dataset,
    SplitSpec,
    gen_synthetic,
    load_csv,
    offset_augment,
    partition_validation,
    save_csv,
    split,
)
from selcon.errors import (
    EmptyFile,
    EmptySplit,
    MissingColumn,
    MissingGroups,
    NonFiniteValue,
    ParseFailure,
)
from selcon.models import LinearModel, predict


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        p = write(tmp_path, "f0,f1,y\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv(p, target_column="y")
        assert data.n == 3 and data.d == 2
        assert np.array_equal(data.targets, [3.0, 6.0, 9.0])
        assert np.array_equal(data.ids, [0, 1, 2])

    def test_missing_target(self, tmp_path):
        p = write(tmp_path, "f0,f1\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(p, target_column="y")

    def test_nan_cell(self, tmp_path):
        p = write(tmp_path, "f0,y\nNaN,1\n")
        with pytest.raises(NonFiniteValue) as exc:
            load_csv(p, target_column="y")
        assert exc.value.row == 0 and exc.value.col == "f0"

    def test_unparsable_cell(self, tmp_path):
        p = write(tmp_path, "f0,y\n1,2\nx,3\n")
        with pytest.raises(ParseFailure) as exc:
            load_csv(p, target_column="y")
        assert exc.value.row == 1

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, ""), target_column="y")
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, "f0,y\n", name="h.csv"), target_column="y")

    def test_group_labels_dense_by_first_appearance(self, tmp_path):
        p = write(tmp_path, "f0,y,g\n1,2,b\n3,4,a\n5,6,b\n")
        data = load_csv(p, target_column="y", group_column="g")
        assert np.array_equal(data.groups, [0, 1, 0])
        assert data.group_labels == ("b", "a")

    def test_round_trip(self, tmp_path):
        data = gen_synthetic(17, 3, noise_sd=0.7, n_groups=3, seed=11)
        p = tmp_path / "rt.csv"
        save_csv(data, p)
        back = load_csv(p, target_column="y", group_column="group")
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.targets, data.targets)
        assert np.array_equal(back.groups, data.groups)


class TestSplit:
    def test_paper_fractions(self):
        data = gen_synthetic(100, 2, seed=0)
        tr, va, te = split(data, SplitSpec(0.89, 0.01, 0.10, seed=7))
        assert (tr.n, va.n, te.n) == (89, 1, 10)

    def test_empty_split(self):
        data = gen_synthetic(10, 2, seed=0)
        with pytest.raises(EmptySplit):
            split(data, SplitSpec(0.89, 0.01, 0.10, seed=7))

    def test_deterministic(self):
        data = gen_synthetic(50, 2, seed=3)
        spec = SplitSpec(0.6, 0.2, 0.2, seed=9)
        a = split(data, spec)
        b = split(data, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.ids, y.ids)

    def test_partition_of_ids(self):
        data = gen_synthetic(37, 2, seed=1)
        tr, va, te = split(data, SplitSpec(0.6, 0.2, 0.2, seed=5))
        all_ids = np.concatenate([tr.ids, va.ids, te.ids])
        assert sorted(all_ids) == list(range(37))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)


class TestPartition:
    def test_single(self):
        val = gen_synthetic(6, 2, seed=0)
        part = partition_validation(val, "single", 0.5)
        assert part.q == 1
        assert np.array_equal(part.subsets[0], np.arange(6))

    def test_by_group(self):
        val = Dataset(
            features=np.zeros((6, 1)) + 1.0,
            targets=np.ones(6),
            groups=np.array([0, 0, 1, 1, 2, 2]),
        )
        part = partition_validation(val, "by_group", 0.5)
        assert part.q == 3
        assert all(len(s) == 2 for s in part.subsets)

    def test_missing_groups(self):
        val = gen_synthetic(6, 2, seed=0)
        with pytest.raises(MissingGroups):
            partition_validation(val, "by_group", 0.5)

    def test_gram_gives_group_errors_and_is_cached(self):
        val = gen_synthetic(30, 3, noise_sd=0.2, n_groups=3, seed=4)
        part = partition_validation(val, "by_group", 0.5)
        G, b, c = part.gram
        w = np.array([0.3, -1.0, 0.5])
        resid = val.targets - val.features @ w
        for q, rows in enumerate(part.subsets):
            err = float(np.mean(resid[rows] ** 2))
            assert w @ G[q] @ w - 2.0 * b[q] @ w + c[q] == pytest.approx(err, rel=1e-12)
        assert part.gram is part.gram
        with pytest.raises(ValueError):
            G[0, 0, 0] = 1.0  # read-only

    def test_errors_are_group_mean_squares(self):
        val = gen_synthetic(30, 3, noise_sd=0.2, n_groups=3, seed=4)
        part = partition_validation(val, "by_group", 0.5)
        resid = val.targets - val.features @ np.array([0.3, -1.0, 0.5])
        want = [np.mean(resid[rows] ** 2) for rows in part.subsets]
        assert np.array_equal(part.errors(resid), want)
        assert np.array_equal(part.gram[2], part.errors(val.targets))


class TestOffsetAugment:
    def test_shifts_targets_and_appends_ones(self):
        data = Dataset(features=np.array([[3.0], [1.0]]), targets=np.array([1.0, 2.0]))
        out = offset_augment(data, 8.0)
        assert np.array_equal(out.targets, [9.0, 10.0])
        assert np.array_equal(out.features, [[3.0, 1.0], [1.0, 1.0]])
        ratio_before = 2.0 / 1.0
        ratio_after = 10.0 / 9.0
        assert ratio_after < ratio_before

    def test_zero_offset(self):
        data = gen_synthetic(5, 2, seed=0)
        out = offset_augment(data, 0.0)
        assert np.array_equal(out.targets, data.targets)
        assert out.d == data.d + 1
        assert np.all(out.features[:, -1] == 1.0)

    @given(c=st.floats(-5, 5), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_prediction_identity(self, c, seed):
        # h_{(w, c)}([x, 1]) = w.x + c for the linear model.
        data = gen_synthetic(4, 2, seed=seed)
        out = offset_augment(data, c)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=2)
        aug = LinearModel(w=np.append(w, c))
        base = LinearModel(w=w)
        for i in range(data.n):
            want = predict(base, data.features[i]) + c
            got = predict(aug, out.features[i])
            assert got == pytest.approx(want, abs=1e-12)


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(8, 2, noise_sd=0.0, seed=1)
        b = gen_synthetic(8, 2, noise_sd=0.0, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_groups_cycle(self):
        data = gen_synthetic(10, 2, n_groups=4, seed=0)
        assert np.array_equal(data.groups, np.arange(10) % 4)

    def test_targets_positive(self):
        data = gen_synthetic(30, 3, noise_sd=1.0, n_groups=2, seed=5)
        assert np.min(np.abs(data.targets)) > 0

    def test_noise_free_residual_is_group_bias_pattern(self):
        # Noise-free targets are a linear signal plus one offset per group
        # (the positivity shift folds into the offsets), so least squares on
        # the features and the group indicators leaves no residual.
        data = gen_synthetic(12, 3, noise_sd=0.0, n_groups=4, seed=9)
        design = np.hstack([data.features, np.eye(4)[data.groups]])
        coef, *_ = np.linalg.lstsq(design, data.targets, rcond=None)
        assert np.allclose(design @ coef, data.targets, atol=1e-12)

    def test_features_bounded(self):
        data = gen_synthetic(40, 3, seed=2)
        assert np.all(np.abs(data.features) <= 1.0)
