"""Brute-force and exhaustive verifiers for the set function's properties.

These are the independent reference implementations every guarantee is
checked against at desk scale: exhaustive subset enumeration for the optimal
k-subset, the exact (measured) submodularity ratio and generalized curvature,
samplers for monotonicity and the marginal-gain sandwich bounds, and the
modular upper bound over every subset.  All checkers run on the exact backend
and return a machine-readable :class:`OracleReport`.

Every 2^n enumeration reads :func:`f_table`, which raises :class:`TooLarge`
above ``MAX_EXHAUSTIVE_N`` rows before any solve, so ``verify`` and
``--alpha-mode empirical`` share one cap.  The table is kept on its context,
and two contexts that differ only in lam solve their tables in one pass; only
this module reads a table by bitmask, and one table of its marginal gains
serves the ratio, the curvatures and the modular bound.
The sampled checks share one batched draw of (S, a) pairs per context, and
read f, mu and, when one stack held it, the training blocks by bitmask from
the table's solve when ``verify`` has solved it first; the sandwich check
then cross-evaluates all pairs as stacked inner solves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dual import gram_blocks, solve_inner_blocks
from .errors import InvalidAlpha, InvalidK, TooLarge
from .models import row_dots
from .setfn import SetFnContext

__all__ = [
    "OracleReport",
    "brute_force_optimum",
    "empirical_alpha",
    "empirical_kappa",
    "empirical_kappa_max",
    "check_monotone",
    "check_sandwich",
    "check_modular_bound",
    "check_alpha_certificate",
    "check_kappa_certificate",
]

DENOM_CUTOFF = 1e-12
# Largest ground set the exhaustive ratio, curvature and bound checks enumerate.
MAX_EXHAUSTIVE_N = 12
# Slack each check tolerates; TIGHT_TOL is the modular bound's gap at S_hat.
MONOTONE_TOL = 1e-8
SANDWICH_TOL = 1e-7
MODULAR_TOL = 1e-8
TIGHT_TOL = 1e-9


@dataclass
class OracleReport:
    property_name: str
    instances_checked: int
    worst_slack: float
    tolerance: float
    passed: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "property": self.property_name,
            "instances_checked": self.instances_checked,
            "worst_slack": float(self.worst_slack),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "witness": self.witness,
            "details": self.details,
        }


def _report(name: str, checked: int, worst: float, tol: float,
            witness: dict | None = None, **details) -> OracleReport:
    return OracleReport(
        property_name=name,
        instances_checked=checked,
        worst_slack=worst,
        tolerance=tol,
        passed=worst >= -tol,
        witness=witness if worst < -tol else None,
        details=details,
    )


def _members(n: int) -> np.ndarray:
    """(2^n, n) membership table: row ``mask`` has column i set when bit i is."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


def f_table(ctx: SetFnContext, other: SetFnContext | None = None) -> np.ndarray:
    """f over all subsets, indexed by bitmask (bit i = training element i):
    kept read-only as ``ctx.table``, beside ``ctx.table_solve``.  The table
    of ``other``, an exact context on ``ctx``'s data, partition and C, is
    solved in the same pass, so f(empty) is solved once for both; a context
    that holds its table already is left as it is."""
    n = ctx.train.n
    if n > MAX_EXHAUSTIVE_N:
        raise TooLarge(f"full enumeration of 2^{n} subsets exceeds the cap 2^{MAX_EXHAUSTIVE_N}")
    pending = [c for c in (ctx, other) if c is not None and c.table is None]
    if pending:
        keys = [()]
        for i in range(n):  # the masks with bit i set follow those without it
            keys += [key + (i,) for key in keys]
        pending[0].solve_table(keys, *pending[1:])
    return ctx.table


def brute_force_optimum(ctx: SetFnContext, k: int, cap: int = 20_000) -> tuple[tuple[int, ...], float]:
    """Exhaustive minimum of f over all k-subsets; ties keep the
    lexicographically first subset."""
    n = ctx.train.n
    if not (1 <= k <= n):
        raise InvalidK(f"k = {k} is outside [1, {n}]")
    count = math.comb(n, k)
    if count > cap:
        raise TooLarge(f"{count} candidate subsets exceed the cap {cap}")
    combs = list(itertools.combinations(range(n), k))
    values = ctx.f_many(combs)
    best = int(np.argmin(values))  # the first minimum, so ties keep the first subset
    return combs[best], float(values[best])


def _gains(f: np.ndarray, n: int) -> np.ndarray:
    """(n, 2^n) marginal gains from the subset table ``f``: row a, column T
    holds f(T + a) - f(T minus a), the gain of a at T without it."""
    masks, bits = np.arange(1 << n), (1 << np.arange(n))[:, None]
    return f[masks | bits] - f[masks & ~bits]


def empirical_alpha(ctx: SetFnContext) -> float:
    """Exact submodularity ratio: min over nested pairs S within T and
    elements a outside T of gain(a, S) / gain(a, T), skipping the triples
    whose denominator is at most ``DENOM_CUTOFF``."""
    n = ctx.train.n
    f = f_table(ctx)
    members = _members(n)
    # Row a, column T: the gain of a at T, for every a outside T at once.
    no_a = ~members.T
    gains = np.where(no_a, _gains(f, n), np.inf)
    # Subset-minimum over the lattice: after the sweep, m[a, T] is the
    # smallest gain of a over every S contained in T (sets holding a stay
    # apart from those without it, so sweeping bit a too is harmless).
    m = gains.copy()
    for j in range(n):
        has = members[:, j]
        m[:, has] = np.minimum(m[:, has], m[:, np.flatnonzero(has) ^ (1 << j)])
    ok = no_a & (gains > DENOM_CUTOFF)
    return np.min(m[ok] / gains[ok], initial=math.inf)


def _curvatures(ctx: SetFnContext) -> np.ndarray:
    """Measured generalized curvature of every subset, by bitmask:
    1 - min over active elements a of gain(a, S minus a) / gain(a, empty),
    where a is active when gain(a, empty) > ``DENOM_CUTOFF``; 0 without one."""
    f = f_table(ctx)
    gains = _gains(f, ctx.train.n)
    active = gains[:, 0] > DENOM_CUTOFF
    if not active.any():
        return np.zeros(len(f))
    return 1.0 - np.min(gains[active] / gains[active, :1], axis=0)


def empirical_kappa(ctx: SetFnContext, subset) -> float:
    """Measured generalized curvature of a single subset, read from
    :func:`_curvatures`, so it enumerates the table."""
    return float(_curvatures(ctx)[sum(1 << int(i) for i in set(subset))])


def empirical_kappa_max(ctx: SetFnContext) -> float:
    """Largest measured curvature over every subset of the ground set."""
    return float(np.max(_curvatures(ctx)))


def check_alpha_certificate(ctx: SetFnContext, alpha_hat: float) -> OracleReport:
    """The measured submodularity ratio must be at least the certified one."""
    measured = empirical_alpha(ctx)
    return _report("alpha_certificate", 1, measured - alpha_hat, 1e-9,
                   alpha_hat=alpha_hat, empirical_alpha=measured)


def check_kappa_certificate(ctx: SetFnContext, kappa_hat: float) -> OracleReport:
    """The largest measured curvature must be at most the certified one."""
    measured = empirical_kappa_max(ctx)
    return _report("kappa_certificate", 1, kappa_hat - measured, 1e-9,
                   kappa_hat=kappa_hat, empirical_kappa=measured)


def _draw_pairs(n: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``trials`` seeded (S, a) pairs as (sizes, orders): S holds the first
    sizes[t] entries of row t of the (trials, n) orders, and a is the next."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, n, trials)  # empty subsets included
    return sizes, np.argsort(rng.random((trials, n)), axis=1)


def _masks(sizes: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S and S + a of every pair as bitmasks."""
    rows = np.arange(len(sizes))
    with_a = np.cumsum(1 << orders, axis=1)[rows, sizes]
    return with_a ^ (1 << orders[rows, sizes]), with_a


def _keys(sizes: np.ndarray, orders: np.ndarray) -> tuple[list, list]:
    """S and S + a of every pair as sorted tuples."""
    pairs = list(zip(sizes.tolist(), orders.tolist()))
    return ([tuple(sorted(o[:s])) for s, o in pairs],
            [tuple(sorted(o[:s + 1])) for s, o in pairs])


def _sample_pairs(ctx: SetFnContext, trials: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_draw_pairs`'s pairs and f(S + a) - f(S) for each, from the
    table or one batch of f; drawn once per context, trials and seed, so the
    monotone and sandwich checks of one run share the draw."""
    key = (trials, seed)
    if key not in ctx.pair_draws:
        sizes, orders = _draw_pairs(ctx.train.n, trials, seed)
        if ctx.table is None:
            f = ctx.f_many(sum(_keys(sizes, orders), []))
        else:
            f = ctx.table[np.concatenate(_masks(sizes, orders))]
        gains = f[trials:] - f[:trials]
        gains.setflags(write=False)
        ctx.pair_draws[key] = sizes, orders, gains
    return ctx.pair_draws[key]


def check_monotone(ctx: SetFnContext, trials: int = 200, seed: int = 0) -> OracleReport:
    """Sampled marginal gains must all be non-negative (up to MONOTONE_TOL)."""
    sizes, orders, gains = _sample_pairs(ctx, trials, seed)
    worst = int(np.argmin(gains))  # the first minimum, as a strict < scan keeps
    witness = {"subset": sorted(orders[worst, :sizes[worst]].tolist()),
               "element": int(orders[worst, sizes[worst]]), "gain": float(gains[worst])}
    return _report("monotone", trials, float(gains[worst]), MONOTONE_TOL, witness)


def check_sandwich(ctx: SetFnContext, trials: int = 200, seed: int = 0) -> OracleReport:
    """Marginal gains must sit between the two cross-evaluated closed forms.

    Lower: the loss of element a at the parameters trained on S + a with the
    multipliers frozen at S's optimum.  Upper: the same expression with the
    roles of the two subsets swapped.  The pairs and gains are
    :func:`check_monotone`'s draw.  For each stack of pairs that
    ``SetFnContext.stack_bounds`` allows (one stack at desk scale), the
    multipliers of both sides are read in one batch, or from the table by
    bitmask, and each side is one call of :func:`solve_inner_blocks` on
    training blocks read from the table by bitmask or assembled by
    :func:`~selcon.dual.gram_blocks`, with equal bits; no state is built.  The witness is the first minimum over the pairs'
    (lower, upper) slacks in turn, as a strict ``<`` scan keeps.
    """
    if ctx.backend != "exact" or ctx.model_kind != "linear":
        raise ValueError("the sandwich check needs the exact linear backend")
    sizes, orders, gains = _sample_pairs(ctx, trials, seed)
    elements = orders[np.arange(trials), sizes]
    x_a, y_a = ctx.train.features[elements], ctx.train.targets[elements]
    mu_table, blocks = ctx.table_solve or (None, None)
    masks = None if mu_table is None else _masks(sizes, orders)
    keys = None if blocks is not None else _keys(sizes, orders)
    lower, upper = np.empty(trials), np.empty(trials)
    for lo, hi in ctx.stack_bounds(trials, int(sizes.max()) + 1):
        mu = (np.split(ctx.mu_many(keys[0][lo:hi] + keys[1][lo:hi]), 2) if masks is None
              else [mu_table[m[lo:hi]] for m in masks])
        for out, mu_rows, side in ((lower, mu[0], 1), (upper, mu[1], 0)):
            base_b = (gram_blocks(keys[side][lo:hi], ctx.train, ctx.lam)[:2] if blocks is None
                      else [b[masks[side][lo:hi]] for b in blocks])
            w = solve_inner_blocks(mu_rows, *base_b, ctx.valpart)
            out[lo:hi] = ctx.lam * row_dots(w, w) + (y_a[lo:hi] - row_dots(w, x_a[lo:hi])) ** 2
    slacks = np.column_stack([gains - lower, upper - gains]).ravel()
    worst = int(np.argmin(slacks))
    r, side = divmod(worst, 2)
    witness = {
        "subset": sorted(orders[r, :sizes[r]].tolist()),
        "element": int(orders[r, sizes[r]]),
        "side": ("lower", "upper")[side],
        "gain": float(gains[r]),
        "lower": float(lower[r]),
        "upper": float(upper[r]),
    }
    return _report("sandwich", trials, float(slacks[worst]), SANDWICH_TOL, witness)


def check_modular_bound(ctx: SetFnContext, s_hat, alpha: float) -> OracleReport:
    """The modular bound built at s_hat must dominate f everywhere and be
    tight at s_hat; verified over every subset of the ground set, with the
    driver's scores read from the gains: alpha gain(i, s_hat minus i) for i
    in s_hat, gain(i, empty) / alpha for the others."""
    if alpha <= 0:
        raise InvalidAlpha("the modular bound needs alpha > 0")
    f = f_table(ctx)
    members = _members(ctx.train.n)
    hat = sum(1 << int(i) for i in set(s_hat))
    gains = _gains(f, ctx.train.n)
    scores = np.where(members[hat], alpha * gains[:, hat], gains[:, 0] / alpha)
    # Column by column in index order: the bits of a per-subset sum.
    total = np.zeros(len(f))
    for i, column in enumerate(members.T):
        total[column] += scores[i]
    bound = f[hat] - total[hat] + total
    slack = bound - f
    worst = int(np.argmin(slack))  # the first minimum, as a strict < scan keeps
    witness = {"subset": np.flatnonzero(members[worst]).tolist(),
               "bound": float(bound[worst]), "f": float(f[worst])}
    tight_gap = abs(slack[hat])

    report = _report(
        "modular_bound",
        len(f),
        slack[worst],
        MODULAR_TOL,
        witness,
        tight_gap=float(tight_gap),
        alpha=float(alpha),
    )
    report.passed = report.passed and tight_gap <= TIGHT_TOL
    return report
