"""Memoized evaluation of the set function f(S) and its marginal gains.

A :class:`SetFnContext` owns the problem data, the trainer configuration and
an unbounded cache keyed by the sorted index tuple.  Values are
path-independent: every f(S), a leave-one-out row too, trains from the
configured initialization, and the exact backend's stacked solver computes
each subset's row without reference to the other rows, so no value depends on
the order in which subsets were queried nor on the batch they were solved in.  Every
evaluation has one miss path on both backends, ``SetFnContext._solve``:
:meth:`SetFnContext.f_of`, :meth:`SetFnContext.f_many` and
:meth:`SetFnContext.mu_many` read the cache and send its misses there, as
:meth:`SetFnContext.solve_table` sends the exhaustive table, and the cache
keeps the solver's output only, without its training blocks, so a state is
built only when :meth:`SetFnContext.f_of` returns one.  One table solve can
serve several contexts that differ only in lam, each row at its own lam.
Each leave-one-out value is used once, so
:meth:`SetFnContext.leave_one_out` returns ``_solve``'s values and leaves
the cache alone.  The oracles' pair samples and their exhaustive
table are memoized on the context too, never beyond it; only the oracles
read that table.  Cache keys are sorted tuples and ``leave_one_out``
takes a sorted array, as ``train_dual_exact_many`` needs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dataset import Dataset, ValidationPartition
from .dual import (
    TrainedState,
    TrainerConfig,
    exact_state,
    train_dual_exact,  # unused here; bound by name so that tracers can wrap it
    train_dual_exact_many,
    train_dual_sgd,
)
from .errors import ElementAlreadyPresent

__all__ = ["SetFnContext"]

# Cap on the floats of one stacked exact solve, max(d (d + Q), m d) + 3 Q^2 per
# subset of m elements, the last term for a Newton row's curvature M, its
# masked copy and its eigenvectors: 2^21 floats are 16 MB (about 500 subsets at
# d = 64, or 100 at Q = 80).
_CHUNK_FLOATS = 1 << 21


def _canonical(subset: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(map(int, subset)))


@dataclass
class SetFnContext:
    """Everything needed to evaluate f(S), plus the value cache.

    ``backend`` selects the trainer: ``"exact"`` (linear closed-form inner
    solve, the reference implementation) or ``"sgd"`` (any model kind).
    :meth:`f_of` evaluates one subset and :meth:`f_many` many at once, through
    the same cache and the same solver calls, so their values are
    bit-identical.  :meth:`leave_one_out` solves the sets S minus i the same
    way but leaves the cache alone, since each of its values is used once.
    ``C`` is stored as a float.
    """

    train: Dataset
    valpart: ValidationPartition
    lam: float
    C: float
    backend: str = "exact"
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    model_kind: str = "linear"

    def __post_init__(self):
        if not (0 < self.lam < math.inf):
            raise ValueError("lam must be positive and finite")
        if not (0 <= self.C < math.inf):
            raise ValueError("C must be >= 0 and finite")
        self.C = float(self.C)
        if self.backend not in ("exact", "sgd"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "exact" and self.model_kind != "linear":
            raise ValueError("the exact backend supports the linear model only")
        # key -> (f, output of _solve): (arrays, row) when exact, else the state.
        self._cache: dict[tuple[int, ...], tuple[float, object]] = {}
        self._singletons: np.ndarray | None = None
        # f over every subset, indexed by bitmask, once oracle.f_table has
        # solved it; read-only.  Beside it, that solve's multipliers by bitmask
        # and its training blocks, kept only when it was one stack, else None.
        self.table: np.ndarray | None = None
        self.table_solve: tuple[np.ndarray, tuple | None] | None = None
        # The oracles' (S, a) pair draws with their gains, keyed by (trials,
        # seed), so that the checks of one run share a draw.
        self.pair_draws: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        # Rows of every exact stack that ended with converged=False.
        self.not_converged = 0
        self.negative_marginals: list[tuple[int, tuple[int, ...], float]] = []

    # -- training -----------------------------------------------------------

    def stack_bounds(self, count: int, size: int):
        """(start, stop) of each stack that keeps ``count`` subsets of at most
        ``size`` elements under ``_CHUNK_FLOATS``, for the exact trainer and
        the inner solves alike.  Every stack keeps room for the Q face rows
        that ``train_dual_exact_many`` appends for one empty subset."""
        d, q = self.train.d, self.valpart.q
        face, per = d * (d + q) + 3 * q * q, max(d * (d + q), size * d) + 3 * q * q
        step = max(1, (_CHUNK_FLOATS - q * face) // per)
        stops = [*range(step, count, step), count] if count else []
        return list(zip([0, *stops], stops))

    def _solve(self, count: int, size: int, rows, lam=None, takes=()):
        """(f, solver output) for ``count`` subsets of at most ``size``
        elements, built by ``rows(start, stop)`` and solved at ``lam``, the
        context's or an array of one per row, and for each index array of
        ``takes`` its rows' (multipliers, non-converged count, training
        blocks), the blocks None unless those rows lie in one exact stack; the
        one place a trainer is picked.  The exact backend solves the stacks of
        :meth:`stack_bounds`, building each stack's rows when it reaches them
        and warning, with a RuntimeWarning, of non-converged rows, which it
        counts on the context when no ``takes`` are given; its output is
        (``train_dual_exact_many``'s arrays but the blocks, row).  The sgd
        backend trains one subset at a time from its seeded initialization,
        counts nothing, and its output is the trained state."""
        lam = self.lam if lam is None else lam
        if self.backend == "sgd":
            lams = np.broadcast_to(lam, count).tolist()
            states = [train_dual_sgd(subset, self.train, self.valpart, lam_r, self.C,
                                     self.trainer, model_kind=self.model_kind)
                      for subset, lam_r in zip(rows(0, count), lams)]
            mu = np.array([state.mu for state in states]).reshape(count, self.valpart.q)
            entries = [(state.f_value, state) for state in states]
            return entries, [(mu[take], 0, None) for take in takes]
        entries, mus, converged, blocks = [], [], [], [None] * len(takes)
        for start, stop in self.stack_bounds(count, size):
            solved = train_dual_exact_many(rows(start, stop), self.train, self.valpart,
                                           lam if np.ndim(lam) == 0 else lam[start:stop], self.C)
            for t, take in enumerate(takes):
                if start <= take[0] and take[-1] < stop:
                    blocks[t] = tuple(b[take - start] for b in solved[5:])
            solved = solved[:5]
            mus.append(solved[1])
            converged.append(solved[4])
            if not takes:
                self.not_converged += int(np.count_nonzero(~solved[4]))
            if not solved[4].all():  # one fixed text, so the default filter shows it once
                warnings.warn("an exact dual solve stopped before convergence; "
                              "SetFnContext.not_converged counts such rows", RuntimeWarning)
            entries += ((value, (solved, r)) for r, value in enumerate(solved[2].tolist()))
        if not takes:
            return entries, []
        mu, failed = np.concatenate(mus), ~np.concatenate(converged)
        return entries, [(mu[take], int(np.count_nonzero(failed[take])), kept)
                         for take, kept in zip(takes, blocks)]

    def _entries(self, subsets: Iterable[Iterable[int]]) -> list[tuple[float, object]]:
        """Cache entries (f, solver output) for each subset, in input order;
        the distinct misses are solved by :meth:`_solve` in sorted key order."""
        keys = [_canonical(s) for s in subsets]
        missing = sorted({key for key in keys if key not in self._cache})
        self.cache_misses += len(missing)
        self.cache_hits += len(keys) - len(missing)
        if missing:
            self._cache.update(zip(missing, self._solve(len(missing), max(map(len, missing)),
                                                        lambda a, b: missing[a:b])[0]))
        return [self._cache[key] for key in keys]

    def solve_table(self, keys: list[tuple[int, ...]], *others: SetFnContext) -> None:
        """Solve the sorted ``keys``, one per bitmask in order from (), as
        :attr:`table` and :attr:`table_solve`, each cached and counted as a
        miss, on this context and on each of ``others``, exact contexts that
        differ from it in lam only, in one pass of :meth:`_solve`.

        f(empty) does not read lam: row 0 solves it once for every context,
        and each further context adds its other keys at its own lam.  Each
        context then takes its rows' entries, multipliers, non-converged count
        and, when they lie in one stack, training blocks.  No row's arithmetic
        depends on its stack, so each table equals the one its context solves
        alone."""
        for other in others:
            if not (self.backend == other.backend == "exact" and other.train is self.train
                    and other.valpart is self.valpart and other.C == self.C
                    and other.trainer == self.trainer):
                raise ValueError("tables solved together need exact contexts that differ "
                                 "in lam only")
        n, ctxs = len(keys), (self, *others)
        rows = keys + keys[1:] * len(others)
        lam = np.repeat([ctx.lam for ctx in ctxs], [n] + [n - 1] * len(others))
        takes = [np.r_[0, j * (n - 1) + 1:(j + 1) * (n - 1) + 1] for j in range(len(ctxs))]
        entries, solves = self._solve(len(rows), len(keys[-1]), lambda a, b: rows[a:b], lam, takes)
        for ctx, take, (mu, not_converged, blocks) in zip(ctxs, takes, solves):
            own = [entries[r] for r in take.tolist()]
            ctx.cache_misses += n
            ctx.not_converged += not_converged
            ctx._cache.update(zip(keys, own))
            ctx.table = np.array([value for value, _ in own])
            ctx.table.setflags(write=False)
            ctx.table_solve = mu, blocks

    def f_of(self, subset: Iterable[int]) -> tuple[float, TrainedState]:
        """Value and trained state for a subset, from cache when available; an
        exact state is built from the cached arrays on each call."""
        value, out = self._entries([subset])[0]
        return value, out if isinstance(out, TrainedState) else exact_state(*out)

    def f_many(self, subsets: Iterable[Iterable[int]]) -> np.ndarray:
        """f of each subset, in input order, from cache when available."""
        return np.array([value for value, _ in self._entries(subsets)])

    def mu_many(self, subsets: Iterable[Iterable[int]]) -> np.ndarray:
        """The optimal multipliers of each subset as rows of a (B, Q) array,
        read and counted as :meth:`f_many` reads and counts values; no state
        is built."""
        return self._mu_rows(self._entries(subsets))

    def _mu_rows(self, entries: list[tuple[float, object]]) -> np.ndarray:
        rows = [out.mu if isinstance(out, TrainedState) else out[0][1][out[1]]
                for _, out in entries]
        return np.array(rows).reshape(len(rows), self.valpart.q)

    def leave_one_out(self, s_hat: np.ndarray, drop: np.ndarray | None = None) -> np.ndarray:
        """f(S_hat minus i) for every i of the sorted, non-empty index array ``s_hat``,
        in its order, or for the positions ``drop`` of it only; uncached, and
        no state is built.

        The rows go to :meth:`_solve`, which builds them one stack at a time
        on the exact backend, each value bit-identical to :meth:`f_of`'s (and
        so to the exhaustive :attr:`table`'s entry), and a one-element S_hat
        reads f(empty) from the exact cache when it is there.  The sgd backend
        trains each row from scratch, as f_of does.
        """
        s_hat = np.asarray(s_hat, dtype=np.intp)
        k = len(s_hat)
        drop = np.arange(k) if drop is None else np.asarray(drop, dtype=np.intp)

        def rows(start, stop):
            keep = drop[start:stop, None] != np.arange(k)
            return np.broadcast_to(s_hat, keep.shape)[keep].reshape(stop - start, k - 1)

        if self.backend == "exact" and k == 1 and () in self._cache:
            return np.full(len(drop), self._cache[()][0])
        return np.array([value for value, _ in self._solve(len(drop), k - 1, rows)[0]])

    # -- derived quantities --------------------------------------------------

    def marginal(self, a: int, subset: Iterable[int]) -> float:
        """f(S + a) - f(S)."""
        key = _canonical(subset)
        if a in key:
            raise ElementAlreadyPresent(f"element {a} is already in the subset")
        gain = self.f_of(key + (a,))[0] - self.f_of(key)[0]
        if gain < 0 and self.backend == "sgd":
            self.negative_marginals.append((int(a), key, gain))
        return gain

    def singletons(self) -> np.ndarray:
        """f({i}) for every training element, read-only: one batched sweep
        per context, which solves f(empty) too.  The reference
        :func:`~selcon.selection.modular_scores` reads it; the MM driver
        does not, since its step solves only the singletons it
        cannot place from their duality intervals."""
        if self._singletons is None:
            self._singletons = self.f_many([(), *((i,) for i in range(self.train.n))])[1:]
            self._singletons.setflags(write=False)
        return self._singletons

    def f_empty(self) -> float:
        """f(empty), from the cache entry that the singleton sweep or the MM
        driver's first stack (f(empty) beside the random start) left, else
        solved here; no state is built."""
        return float(self.f_many([()])[0])
