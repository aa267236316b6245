"""Data model, CSV ingestion, synthetic generation, splitting and partitioning.

A :class:`Dataset` is an immutable bundle of a feature matrix, a target vector,
optional integer group labels and the original row ids.  The validation side of
a problem is carried by a :class:`ValidationPartition`, which binds a validation
dataset to a disjoint cover of its rows plus the per-group error bound ``delta``.
It caches what does not depend on ``delta``: the per-group Gram moments, the
extreme eigenvalues of each group's Gram block, which prove a multiplier mix
of the blocks definite, and the group errors of the pooled least-squares fit,
which certify f(empty) = 0 when no group exceeds its bound.  A copy at another
bound shares them.

CSV is the only ingestion format: UTF-8, comma separated, ``"``-quoted
fields, one header row, blank lines skipped, ASCII decimal reals (the
grammar is in :func:`load_csv`).  Column order defines the feature index
order.  Group labels map to dense integer ids by first appearance.
"""

from __future__ import annotations

import copy
import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ColumnConflict,
    EmptyFile,
    EmptySplit,
    MissingColumn,
    MissingGroups,
    NonFiniteValue,
    ParseFailure,
    UsageError,
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


# A mix sum_q mu_q G_q whose Weyl bounds sum_q mu_q lambda_min(G_q) and
# sum_q mu_q lambda_max(G_q) are within this ratio is proven definite.  Its
# condition number is then below 1e10, so the pseudo-inverse's cutoff (1e-15
# of the largest eigenvalue) keeps every eigenvalue and its least-norm
# minimizer is the unique one that inv or solve gives.
_DEFINITE_RATIO = 1e-10


def _check_delta(delta: float) -> None:
    if not (0 <= delta < math.inf):
        raise ValueError("delta must be >= 0 and finite")


@dataclass(frozen=True)
class ValidationPartition:
    """Disjoint cover of a validation dataset's rows plus the error bound;
    :meth:`errors` is the one definition of a group's validation error.
    :attr:`gram`, :attr:`spectrum` and :attr:`pooled_errors` are lazy
    caches that copies made by :meth:`with_delta` share."""

    data: Dataset
    subsets: tuple[np.ndarray, ...]
    delta: float

    def __post_init__(self):
        _check_delta(self.delta)
        if len(self.subsets) < 1:
            raise ValueError("need at least one validation subset")
        subs = tuple(_frozen(np.asarray(s, dtype=int)) for s in self.subsets)
        if any(s.size == 0 for s in subs):
            raise ValueError("validation subsets must be non-empty")
        # n rows below n, each counted at least once, are each counted once;
        # np.bincount raises its own ValueError on a negative row.
        n, seen = self.data.n, np.concatenate(subs)
        if len(seen) != n or seen.max() >= n or not np.bincount(seen, minlength=n).all():
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

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The smallest and the largest eigenvalue of each group block G_q of
        :attr:`gram`, from one batched ``eigvalsh``, built on first use."""
        vals = np.linalg.eigvalsh(self.gram[0])
        return _frozen(vals[:, 0]), _frozen(vals[:, -1])

    def definite(self, mu: np.ndarray) -> np.ndarray:
        """Per row of the (B, Q) ``mu``: whether Weyl's bounds from
        :attr:`spectrum`, sum_q mu_q lambda_min(G_q) <= lambda(A) <=
        sum_q mu_q lambda_max(G_q), prove A = sum_q mu_q G_q definite enough
        to invert directly.  Each row's test reads that row alone.  Rows
        left out include mu = 0 and rows whose positive multipliers all sit on
        singular blocks, such as groups with fewer rows than features."""
        lo, hi = self.spectrum
        return (mu * lo).sum(axis=-1) > _DEFINITE_RATIO * (mu * hi).sum(axis=-1)

    @cached_property
    def pooled_errors(self) -> np.ndarray:
        """Group errors e_q(w) at the pooled fit w = (sum_q G_q)^+ sum_q b_q,
        from :attr:`gram` alone.  If none exceeds delta, w meets every bound.
        A pooled block that :meth:`definite` proves definite is solved
        directly; only a singular one takes the pseudo-inverse."""
        G, b, c = self.gram
        A, rhs = G.sum(axis=0), b.sum(axis=0)
        if self.definite(np.ones(self.q)):
            w = np.linalg.solve(A, rhs)
        else:
            w = np.linalg.pinv(A, hermitian=True) @ rhs
        return _frozen((G @ w) @ w - 2.0 * (b @ w) + c)

    def with_delta(self, delta: float) -> "ValidationPartition":
        """This cover at another bound ``delta``.  The validated subsets,
        :attr:`gram`, :attr:`spectrum` and :attr:`pooled_errors` do not
        depend on delta: the three caches are built here first, so every copy
        shares them."""
        _check_delta(delta)
        self.pooled_errors  # builds the gram and the spectrum too
        part = copy.copy(self)  # a shallow copy shares the cached properties
        object.__setattr__(part, "delta", delta)
        return part


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
    """Load a dataset from a CSV file, its body in one ``np.loadtxt`` pass.

    A field may be quoted with ``"`` (``""`` inside is one quote) to hold
    commas, quotes or line breaks; ``#`` is ordinary.  Blank lines are
    skipped and not counted in error rows.  Cells outside the group column
    are finite ASCII decimal reals (``-2.5e-3``), maybe space-padded, without
    ``_``.  Raises :class:`MissingColumn`, :class:`ColumnConflict`,
    :class:`ParseFailure`, :class:`NonFiniteValue` or :class:`EmptyFile`.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        for column in (target_column, group_column):
            if column is not None and column not in header:
                raise MissingColumn(column)
        if group_column == target_column:
            raise ColumnConflict(f"group column {group_column!r} is the target column")
        tgt_idx = header.index(target_column)
        grp_idx = header.index(group_column) if group_column is not None else None
        # Feature columns in file order, then the target.
        numeric = [j for j in range(len(header)) if j != tgt_idx and j != grp_idx] + [tgt_idx]
        dtype = np.dtype([(f"c{j}", object if j == grp_idx else float) for j in range(len(header))])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
            values = np.array([table[f"c{j}"] for j in numeric], dtype=float)
            if not np.isfinite(values).all():
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise _first_bad_cell(path, header, numeric) or ParseFailure(-1, "<file>", str(exc)) from exc
    if table.size == 0:
        raise EmptyFile(f"{path} has a header but no data rows")

    groups, labels = None, ()
    if grp_idx is not None:
        raw = table[f"c{grp_idx}"].tolist()
        ids = {lab: g for g, lab in enumerate(dict.fromkeys(raw))}  # by first appearance
        groups, labels = np.array([ids[lab] for lab in raw], dtype=int), tuple(ids)
    return Dataset(features=values[:-1].T, targets=values[-1], groups=groups, group_labels=labels)


def _first_bad_cell(path: Path, header: list[str], numeric: list[int]) -> UsageError | None:
    """The error for the first bad cell (by row; features, then the target) of a
    body ``np.loadtxt`` refused: a real, as for numpy, is ASCII and free of ``_``
    once stripped, and ``float`` reads it.  Runs on failure only; returns no data."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for r, row in enumerate(filter(None, rows)):  # blank lines are skipped
            if len(row) != len(header):
                return ParseFailure(r, "<row>", ",".join(row))
            for j in numeric:
                cell = row[j].strip()
                try:
                    if not cell.isascii() or "_" in cell:
                        raise ValueError(cell)
                    v = float(cell)
                except ValueError:
                    return ParseFailure(r, header[j], row[j])
                if not math.isfinite(v):
                    return NonFiniteValue(r, header[j])


def save_csv(data: Dataset, path: str | Path) -> None:
    """Write a dataset in the same CSV layout :func:`load_csv` reads, with
    columns f0, f1, ..., y and, when the data has groups, group.

    Reals are written with ``repr``, which round-trips float64 exactly.
    """
    header = [f"f{j}" for j in range(data.d)] + ["y"]
    if data.groups is not None:
        header.append("group")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(v)) for v in (*data.features[i], data.targets[i])]
            if data.groups is not None:
                gid = int(data.groups[i])
                row.append(data.group_labels[gid] if gid < len(data.group_labels) else str(gid))
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
    if n < 1 or d < 1 or n_groups < 0:
        raise ValueError("need n >= 1, d >= 1 and n_groups >= 0")
    if not 0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
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
