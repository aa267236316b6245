"""Data model, CSV ingestion, synthetic generation, splitting and partitioning.

A :class:`Dataset` is an immutable bundle of a feature matrix, a target vector,
optional integer group labels and the original row ids.  The validation side of
a problem is carried by a :class:`ValidationPartition`, which binds a validation
dataset to a disjoint cover of its rows plus the per-group error bound ``delta``.

CSV is the only ingestion format: UTF-8, comma separated, one header row,
decimal-point reals.  Column order defines the feature index order.  Group
column values are arbitrary strings mapped to dense integer ids by first
appearance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    EmptyFile,
    EmptySplit,
    MissingColumn,
    MissingGroups,
    NonFiniteValue,
    ParseFailure,
)

__all__ = [
    "Dataset",
    "ValidationPartition",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "split",
    "partition_validation",
    "offset_augment",
    "gen_synthetic",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix / target vector pair with row identities.

    ``ids`` hold the 0-based indices of the rows in their original source, so
    a split dataset remembers where its rows came from.  ``group_labels`` maps
    each dense group id back to the raw string label it was assigned from.
    """

    features: np.ndarray
    targets: np.ndarray
    groups: np.ndarray | None = None
    ids: np.ndarray | None = None
    group_labels: tuple[str, ...] = ()

    def __post_init__(self):
        X = _frozen(np.asarray(self.features, dtype=float))
        y = _frozen(np.asarray(self.targets, dtype=float))
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("features must be (n, d) with targets of length n")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("features and targets must be finite")
        ids = self.ids if self.ids is not None else np.arange(X.shape[0])
        ids = _frozen(np.asarray(ids, dtype=int))
        if ids.shape != y.shape:
            raise ValueError("ids must have one entry per row")
        g = self.groups
        if g is not None:
            g = _frozen(np.asarray(g, dtype=int))
            if g.shape != y.shape:
                raise ValueError("groups must have one entry per row")
            if g.size and (g.min() < 0):
                raise ValueError("group ids must be non-negative")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "groups", g)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_groups(self) -> int:
        return 0 if self.groups is None else int(self.groups.max()) + 1

    def take(self, idx: np.ndarray) -> "Dataset":
        """New dataset with the given rows; original ids are carried along."""
        idx = np.asarray(idx, dtype=int)
        return Dataset(
            features=self.features[idx],
            targets=self.targets[idx],
            groups=None if self.groups is None else self.groups[idx],
            ids=self.ids[idx],
            group_labels=self.group_labels,
        )


@dataclass(frozen=True)
class ValidationPartition:
    """Disjoint cover of a validation dataset's rows plus the error bound;
    :meth:`errors` is the one definition of a group's validation error."""

    data: Dataset
    subsets: tuple[np.ndarray, ...]
    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if len(self.subsets) < 1:
            raise ValueError("need at least one validation subset")
        subs = tuple(_frozen(np.asarray(s, dtype=int)) for s in self.subsets)
        seen = np.concatenate(subs) if subs else np.empty(0, int)
        if any(s.size == 0 for s in subs):
            raise ValueError("validation subsets must be non-empty")
        if len(seen) != self.data.n or len(np.unique(seen)) != self.data.n:
            raise ValueError("subsets must cover the validation rows exactly once")
        object.__setattr__(self, "subsets", subs)

    @property
    def q(self) -> int:
        return len(self.subsets)

    def errors(self, resid: np.ndarray) -> np.ndarray:
        """Per-group mean of the squared residuals ``resid`` (one per row)."""
        return np.array([np.mean(resid[rows] ** 2) for rows in self.subsets])

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-group validation moments (G_q, b_q, c_q), built once.

        G_q = X_q'X_q / |V_q|, b_q = X_q'y_q / |V_q| and c_q = errors(y), so
        the group error of a linear model is w'G_q w - 2 b_q'w + c_q.
        """
        X, y = self.data.features, self.data.targets
        G = np.stack([X[rows].T @ X[rows] / len(rows) for rows in self.subsets])
        b = np.stack([X[rows].T @ y[rows] / len(rows) for rows in self.subsets])
        return _frozen(G), _frozen(b), _frozen(self.errors(y))

    def with_delta(self, delta: float) -> "ValidationPartition":
        return ValidationPartition(self.data, self.subsets, delta)


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffle seed."""

    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not (0.0 < f < 1.0) for f in fracs):
            raise ValueError("all fractions must lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ValueError("fractions must sum to 1")


def load_csv(path: str | Path, target_column: str, group_column: str | None = None) -> Dataset:
    """Load a dataset from a CSV file.

    All non-group cells must parse as finite reals.  Raises
    :class:`MissingColumn`, :class:`ParseFailure`, :class:`NonFiniteValue`
    or :class:`EmptyFile` on malformed input.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
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
        feat_cols = [
            (j, name)
            for j, name in enumerate(header)
            if j != tgt_idx and j != grp_idx
        ]

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

    groups = None
    labels: tuple[str, ...] = ()
    if group_column is not None:
        # Dense ids by first appearance of the raw label.
        mapping: dict[str, int] = {}
        groups = np.empty(len(raw_groups), dtype=int)
        for i, lab in enumerate(raw_groups):
            if lab not in mapping:
                mapping[lab] = len(mapping)
            groups[i] = mapping[lab]
        labels = tuple(mapping)

    return Dataset(
        features=np.asarray(feats, dtype=float),
        targets=np.asarray(targs, dtype=float),
        groups=groups,
        group_labels=labels,
    )


def save_csv(
    data: Dataset,
    path: str | Path,
    target_column: str = "y",
    group_column: str = "group",
    feature_names: list[str] | None = None,
) -> None:
    """Write a dataset in the same CSV layout :func:`load_csv` reads.

    Reals are written with ``repr``, which round-trips float64 exactly.
    """
    names = feature_names or [f"f{j}" for j in range(data.d)]
    if len(names) != data.d:
        raise ValueError("need one feature name per column")
    header = list(names) + [target_column]
    if data.groups is not None:
        header.append(group_column)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(v)) for v in data.features[i]]
            row.append(repr(float(data.targets[i])))
            if data.groups is not None:
                gid = int(data.groups[i])
                lab = data.group_labels[gid] if gid < len(data.group_labels) else str(gid)
                row.append(lab)
            writer.writerow(row)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle followed by contiguous slicing into train/val/test.

    Fractional row counts are resolved by flooring val and test, with the
    remainder going to train.  Raises :class:`EmptySplit` when any part
    rounds to zero rows.
    """
    n = data.n
    n_val = int(n * spec.val_frac)
    n_test = int(n * spec.test_frac)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise EmptySplit(
            f"split of {n} rows at ({spec.train_frac}, {spec.val_frac}, "
            f"{spec.test_frac}) leaves an empty part"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    tr = np.sort(perm[:n_train])
    va = np.sort(perm[n_train : n_train + n_val])
    te = np.sort(perm[n_train + n_val :])
    return data.take(tr), data.take(va), data.take(te)


def partition_validation(val: Dataset, mode: str, delta: float) -> ValidationPartition:
    """Build the validation partition: one subset overall, or one per group."""
    if mode == "single":
        subsets = (np.arange(val.n),)
    elif mode == "by_group":
        if val.groups is None:
            raise MissingGroups("by_group partition requested but the data has no group labels")
        gids = np.unique(val.groups)
        subsets = tuple(np.flatnonzero(val.groups == g) for g in gids)
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    return ValidationPartition(data=val, subsets=subsets, delta=float(delta))


def offset_augment(data: Dataset, c: float) -> Dataset:
    """Shift targets by ``c`` and append a constant 1 feature column.

    A linear model (w, c) on the augmented data reproduces the original
    model's predictions plus ``c``; growing ``c`` shrinks the spread
    ``max|y| / min|y|`` that drives the approximation-ratio certificates.
    """
    if not math.isfinite(c):
        raise ValueError("offset must be finite")
    ones = np.ones((data.n, 1))
    return Dataset(
        features=np.hstack([data.features, ones]),
        targets=data.targets + c,
        groups=data.groups,
        ids=data.ids,
        group_labels=data.group_labels,
    )


def gen_synthetic(n: int, d: int, noise_sd: float = 0.0, n_groups: int = 0, seed: int = 0) -> Dataset:
    """Seeded synthetic regression data with features in [-1, 1].

    Targets are a linear signal plus an optional cyclic group bias and
    Gaussian noise, then shifted so that min(y) > 0.  Groups cycle over
    0..n_groups-1 in row order.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    raw = X @ rng.uniform(-1.0, 1.0, size=d)
    groups = None
    if n_groups > 0:
        groups = np.arange(n) % n_groups
        raw = raw + rng.uniform(-0.5, 0.5, size=n_groups)[groups]
    if noise_sd > 0:
        raw = raw + rng.normal(0.0, noise_sd, size=n)
    # Keep min(y) strictly positive: the certified bounds need min|y| > 0.
    y = raw + (0.25 - float(np.min(raw)))
    labels = tuple(f"g{g}" for g in range(n_groups)) if n_groups > 0 else ()
    return Dataset(features=X, targets=y, groups=groups, group_labels=labels)
