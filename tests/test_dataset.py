import csv
import inspect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selcon import cli, dataset
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


def reference_load_csv(path, target_column, group_column=None):
    """The per-cell loader that ``load_csv`` replaced, kept as the reference
    for the parity table below."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        if target_column not in header:
            raise MissingColumn(target_column)
        if group_column is not None and group_column not in header:
            raise MissingColumn(group_column)
        tgt_idx = header.index(target_column)
        grp_idx = header.index(group_column) if group_column is not None else None
        feat_cols = [(j, name) for j, name in enumerate(header) if j != tgt_idx and j != grp_idx]

        feats, targs, raw_groups = [], [], []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseFailure(r, "<row>", ",".join(row))
            vals = []
            for j, name in feat_cols + [(tgt_idx, target_column)]:
                try:
                    v = float(row[j])
                except ValueError:
                    raise ParseFailure(r, name, row[j]) from None
                if not math.isfinite(v):
                    raise NonFiniteValue(r, name)
                vals.append(v)
            feats.append(vals[:-1])
            targs.append(vals[-1])
            if grp_idx is not None:
                raw_groups.append(row[grp_idx])

    if not targs:
        raise EmptyFile(f"{path} has a header but no data rows")
    groups, labels = None, ()
    if group_column is not None:
        mapping = {}
        groups = np.empty(len(raw_groups), dtype=int)
        for i, lab in enumerate(raw_groups):
            if lab not in mapping:
                mapping[lab] = len(mapping)
            groups[i] = mapping[lab]
        labels = tuple(mapping)
    return Dataset(features=np.asarray(feats, dtype=float), targets=np.asarray(targs, dtype=float),
                   groups=groups, group_labels=labels)


def outcome(loader, path, target, group):
    """Arrays as bytes, or the error's type, row, column and message."""
    try:
        data = loader(path, target, group)
    except (EmptyFile, MissingColumn, NonFiniteValue, ParseFailure) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None), str(exc)
    groups = None if data.groups is None else data.groups.tolist()
    return (data.features.shape, data.features.tobytes(), data.targets.tobytes(), groups,
            data.group_labels)


PARITY = {
    # name: (file text, or "gen:<groups>" for a generated pool; target; group)
    "pool_with_groups": ("gen:3", "y", "group"),
    "pool_without_groups": ("gen:0", "y", None),
    "pool_group_read_as_feature": ("gen:3", "y", None),
    "target_only": ("y\n1.5\n-2\n0\n", "y", None),
    "target_only_bad": ("y\n1.5\n\"\"\n", "y", None),
    "duplicated_feature_name": ("a,a,y\n1,2,3\n4,5,6\n", "y", None),
    "duplicated_target_name": ("y,a,y\n1,2,3\n4,5,6\n", "y", None),
    "quoted_numbers": ('f0,y\n"1.5","-2"\n" 3 ",4e-1\n', "y", None),
    "crlf": ('f0,y,g\r\n1,2,a\r\n3,4,"b\r\nc"\r\n', "y", "g"),
    "labels": ('f0,y,g\n1,2,"a,b"\n3,4,#c\n5,6,"x\ny"\n7,8,"q""r"\n9,10, \xe9 \n', "y", "g"),
    "labels_in_first_column": ('g,f0,y\n"#x",1,2\n"",3,4\n#x,5,6\n', "y", "g"),
    "whitespace_around_numbers": ("f0,y\n 1 ,\t2\n\xa03\u2003,4\n", "y", None),
    "short_row": ("f0,y\n1,2\n3\n", "y", None),
    "long_row": ("f0,y\n1,2\n3,4,5\n", "y", None),
    "long_first_row": ("f0,y\n1,2,5\n3,4\n", "y", None),
    "non_numeric": ("f0,y\n1,2\nabc,4\n", "y", None),
    "empty_cell": ("f0,y\n1,2\n,4\n", "y", None),
    "bad_target": ("f0,y\n1,2\n3,x\n", "y", None),
    "nan": ("f0,y\n1,nan\n", "y", None),
    "inf": ("f0,y\n1,2\ninf,1\n", "y", None),
    "minus_inf": ("f0,y\n1,-inf\n", "y", None),
    "overflow": ("f0,y\n1e500,1\n", "y", None),
    "non_finite_before_bad_cell": ("f0,f1,y\n1,2,3\nnan,x,4\n", "y", None),
    "bad_cell_before_non_finite": ("f0,f1,y\n1,2,3\nx,nan,4\n", "y", None),
    "bad_feature_before_non_finite_target": ("f0,y\n1,2\nx,inf\n", "y", None),
    "non_finite_then_short_row": ("f0,y\ninf,2\n3\n", "y", None),
    "missing_target": ("f0,f1\n1,2\n", "y", None),
    "missing_group": ("f0,y\n1,2\n", "y", "g"),
    "empty_file": ("", "y", None),
    "header_only": ("f0,y\n", "y", None),
}


@pytest.mark.parametrize("name", sorted(PARITY))
def test_matches_reference_loader(tmp_path, name):
    text, target, group = PARITY[name]
    p = tmp_path / "data.csv"
    if text.startswith("gen:"):
        save_csv(gen_synthetic(40, 3, noise_sd=0.7, n_groups=int(text[4:]), seed=5), p)
    else:
        p.write_bytes(text.encode("utf-8"))
    assert outcome(load_csv, p, target, group) == outcome(reference_load_csv, p, target, group)


class TestIntendedChanges:
    """Where the loader departs from the reference on purpose."""

    def test_blank_lines_are_skipped(self, tmp_path):
        p = write(tmp_path, "f0,y\n1,2\n\n3,4\n\n")
        data = load_csv(p, target_column="y")
        assert np.array_equal(data.targets, [2.0, 4.0])
        with pytest.raises(ParseFailure):
            reference_load_csv(p, "y")

    def test_error_rows_do_not_count_blank_lines(self, tmp_path):
        p = write(tmp_path, "f0,y\n\n1,2\n\n\nx,4\n")
        with pytest.raises(ParseFailure) as exc:
            load_csv(p, target_column="y")
        assert (exc.value.row, exc.value.col) == (1, "f0")

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "\uff11", "2.5e1_0"])
    def test_digit_separators_and_non_ascii_digits_are_refused(self, tmp_path, cell):
        p = write(tmp_path, f"f0,y\n1,2\n3,{cell}\n")
        assert math.isfinite(float(cell))
        with pytest.raises(ParseFailure) as exc:
            load_csv(p, target_column="y")
        assert (exc.value.row, exc.value.col) == (1, "y")
        assert repr(cell) in str(exc.value)

    def test_whitespace_is_what_str_isspace_says(self, tmp_path):
        # The separator controls \x1c-\x1f are whitespace to str.strip, not to float().
        p = write(tmp_path, "f0,y\n\x1c1\x1f,2\n")
        assert np.array_equal(load_csv(p, target_column="y").features, [[1.0]])

    def test_numpy_refusal_without_a_bad_cell_names_numpy_error(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(ParseFailure) as exc:
            load_csv(write(tmp_path, "f0,y\n1,2\n"), target_column="y")
        assert "refused" in str(exc.value)
        assert isinstance(exc.value.__cause__, ValueError)


class TestLoaderInterface:
    def test_cli_calls_the_dataset_loader_by_name(self):
        # The benchmark's trace wraps both of these names.
        assert cli.load_csv is dataset.load_csv
        assert list(inspect.signature(load_csv).parameters) == ["path", "target_column", "group_column"]

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_warns_nothing(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, "f0,y,g\n"), target_column="y", group_column="g")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308]
_REALS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_LABELS = st.text(st.one_of(st.sampled_from(list(',"\n\r# \xe9')),
                            st.characters(categories=("L", "Nd", "Zs"))), max_size=6)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 3))
    X = np.array(draw(st.lists(_REALS, min_size=n * d, max_size=n * d)), dtype=float).reshape(n, d)
    y = np.array(draw(st.lists(_REALS, min_size=n, max_size=n)), dtype=float)
    labels = draw(st.lists(_LABELS, min_size=1, max_size=3, unique=True))
    groups = np.array(draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n)))
    return Dataset(features=X, targets=y, groups=groups, group_labels=tuple(labels))


@given(data=_datasets())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_then_load_round_trips(tmp_path, data):
    p = tmp_path / "rt.csv"
    save_csv(data, p)
    back = load_csv(p, target_column="y", group_column="group")
    assert back.features.shape == data.features.shape
    assert back.features.tobytes() == data.features.tobytes()
    assert back.targets.tobytes() == data.targets.tobytes()
    raw = [data.group_labels[g] for g in data.groups]
    assert [back.group_labels[g] for g in back.groups] == raw
    assert back.group_labels == tuple(dict.fromkeys(raw))


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
