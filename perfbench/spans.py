"""Span tracing from outside the program, and the per-layer metrics built on it.

:func:`installed` replaces public functions with timing wrappers where the
calling module binds them (``selcon.setfn.train_dual_exact``,
``selcon.cli.run_selcon``, ``SetFnContext.f_of``, ...) and restores the
originals on exit.  No private function is wrapped and no source is edited;
the untraced measurement installs nothing.  Each span records its name,
start, end, parent and a few facts read from public state (sizes, counters,
``TrainedState`` fields).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; the workloads run with ``threads=1``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.contexts: dict[int, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        """Wrapper recording one span per call; ``info(args, result)`` adds facts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(self, args, result)
            return result

        return traced


# -- facts read from public state ---------------------------------------------


def _exact_info(tracer, args, state):
    return {"size": len(args[0]), "C": float(args[4]), "mu": np.array(state.mu),
            "iterations": state.iterations_used, "converged": state.converged}


def _sgd_info(tracer, args, state):
    return {"steps": state.iterations_used}


def _ctx_info(tracer, args, result):
    ctx = args[0]
    tracer.contexts[id(ctx)] = ctx
    return {"ctx": id(ctx), "size": len(tuple(args[1])) if len(args) > 1 else None}


def _scores_info(tracer, args, result):
    return {"s_hat": tuple(sorted(args[1]))}


def _selection_info(tracer, args, result):
    return {"f_trace": [f for _, f, _ in result.trace], "selected": tuple(result.selected)}


def _table_info(tracer, args, result):
    return {"subsets": len(result)}


# (module, attribute, span name, info).  A name bound in several modules is
# wrapped in each, because callers look it up in their own namespace.
TARGETS = [
    ("selcon.setfn", "train_dual_exact", "dual.train_dual_exact", _exact_info),
    ("selcon.setfn", "train_dual_sgd", "dual.train_dual_sgd", _sgd_info),
    ("selcon.setfn:SetFnContext", "f_of", "setfn.f_of", _ctx_info),
    ("selcon.setfn:SetFnContext", "singletons", "setfn.singletons", _ctx_info),
    ("selcon.cli", "run_selcon", "selection.run_selcon", _selection_info),
    ("selcon.selection", "run_selcon", "selection.run_selcon", _selection_info),
    ("selcon.selection", "resolve_alpha", "selection.resolve_alpha", None),
    ("selcon.selection", "modular_scores", "selection.modular_scores", _scores_info),
    ("selcon.cli", "load_csv", "dataset.load_csv", None),
    ("selcon.dataset", "load_csv", "dataset.load_csv", None),
    ("selcon.cli", "split", "dataset.split", None),
    ("selcon.dataset", "split", "dataset.split", None),
    ("selcon.cli", "partition_validation", "dataset.partition_validation", None),
    ("selcon.dataset", "partition_validation", "dataset.partition_validation", None),
    ("selcon.baselines", "full_selection", "baselines.full_selection", None),
    ("selcon.baselines", "random_with_constraints", "baselines.random_with_constraints", None),
    ("selcon.metrics", "default_delta", "metrics.default_delta", None),
    ("selcon.metrics", "fairness_violation", "metrics.fairness_violation", None),
    ("selcon.metrics", "mse", "metrics.mse", None),
    ("selcon.cli", "bound_report", "bounds.bound_report", None),
    ("selcon.cli", "data_constants", "bounds.data_constants", None),
    ("selcon.bounds", "data_constants", "bounds.data_constants", None),
    ("selcon.oracle", "f_table", "oracle.f_table", _table_info),
    ("selcon.oracle", "empirical_alpha", "oracle.empirical_alpha", None),
    ("selcon.oracle", "empirical_kappa_max", "oracle.empirical_kappa_max", None),
    ("selcon.oracle", "check_monotone", "oracle.check_monotone", None),
    ("selcon.oracle", "check_sandwich", "oracle.check_sandwich", None),
    ("selcon.oracle", "check_modular_bound", "oracle.check_modular_bound", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for path, attr, name, info in TARGETS:
            owner = _owner(path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

# Per-layer metric names and units, in report order.
PER_LAYER = [
    ("dual.train_dual_exact_calls", "count"),
    ("dual.train_dual_exact_s", "s"),
    ("dual.exact_ms.p50", "ms"),
    ("dual.exact_ms.p99", "ms"),
    ("dual.exact_ms.size1.p50", "ms"),
    ("dual.exact_ms.sizek.p50", "ms"),
    ("dual.iterations_mean", "count"),
    ("dual.iterations_p90", "count"),
    ("dual.not_converged", "count"),
    ("dual.mu_interior_frac", "ratio"),
    ("dual.mu_at_C_frac", "ratio"),
    ("dual.train_dual_sgd_calls", "count"),
    ("dual.train_dual_sgd_s", "s"),
    ("dual.sgd_steps", "count"),
    ("setfn.f_of_calls", "count"),
    ("setfn.cache_hits", "count"),
    ("setfn.cache_misses", "count"),
    ("setfn.hit_ratio", "ratio"),
    ("setfn.singletons_cold_s", "s"),
    ("setfn.singletons_warm_s", "s"),
    ("setfn.loo_s", "s"),
    ("setfn.f_of_self_s", "s"),
    ("setfn.evals_per_s", "1/s"),
    ("setfn.negative_marginals", "count"),
    ("selection.run_selcon_s", "s"),
    ("selection.resolve_alpha_s", "s"),
    ("selection.modular_scores_s", "s"),
    ("selection.iterations", "count"),
    ("selection.f_increases", "count"),
    ("selection.moved_total", "count"),
    ("dataset.load_csv_s", "s"),
    ("dataset.split_s", "s"),
    ("dataset.partition_validation_s", "s"),
    ("baselines.full_selection_s", "s"),
    ("baselines.random_with_constraints_s", "s"),
    ("metrics.default_delta_s", "s"),
    ("metrics.fairness_violation_s", "s"),
    ("metrics.fairness_violation_calls", "count"),
    ("metrics.mse_s", "s"),
    ("bounds.bound_report_s", "s"),
    ("bounds.data_constants_s", "s"),
    ("oracle.f_table_s", "s"),
    ("oracle.empirical_alpha_s", "s"),
    ("oracle.empirical_kappa_max_s", "s"),
    ("oracle.check_monotone_s", "s"),
    ("oracle.check_sandwich_s", "s"),
    ("oracle.check_modular_bound_s", "s"),
    ("oracle.subsets_enumerated", "count"),
    ("cli.report_s", "s"),
    ("trace.total_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, ops: int, traced_totals, untraced_totals) -> dict[str, float]:
    """Per-operation sums and counts, and percentiles pooled over all ops."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_op_seconds(name):
        return sum(s.seconds for s in named(name)) / ops

    exact = named("dual.train_dual_exact")
    exact_ms = [1e3 * s.seconds for s in exact]
    mu_coords = [
        (s.info["mu"], s.info["C"]) for s in exact if s.info["C"] > 0 and len(s.info["mu"])
    ]
    n_coords = sum(len(mu) for mu, _ in mu_coords)
    interior = sum(int(np.sum((mu > 1e-9 * C) & (mu < (1 - 1e-9) * C))) for mu, C in mu_coords)
    at_c = sum(int(np.sum(mu >= (1 - 1e-9) * C)) for mu, C in mu_coords)
    iterations = [s.info["iterations"] for s in exact]

    f_of = named("setfn.f_of")
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds
    f_of_index = [i for i, s in enumerate(spans) if s.name == "setfn.f_of"]
    f_of_self = sum(spans[i].seconds - child_seconds.get(i, 0.0) for i in f_of_index)

    # The first singleton sweep on a context trains; later ones read the cache.
    seen_ctx: set[int] = set()
    cold = warm = 0.0
    for s in named("setfn.singletons"):
        if s.info["ctx"] in seen_ctx:
            warm += s.seconds
        else:
            seen_ctx.add(s.info["ctx"])
            cold += s.seconds

    # Leave-one-out values: f_of calls made by modular_scores on |S_hat| - 1 elements.
    loo = 0.0
    for s in f_of:
        parent = spans[s.parent] if s.parent is not None else None
        if parent is not None and parent.name == "selection.modular_scores" \
                and s.info["size"] == len(parent.info["s_hat"]) - 1:
            loo += s.seconds

    hits = sum(ctx.cache_hits for ctx in tracer.contexts.values())
    misses = sum(ctx.cache_misses for ctx in tracer.contexts.values())
    negative = sum(len(ctx.negative_marginals) for ctx in tracer.contexts.values())
    f_of_total = sum(s.seconds for s in f_of)

    # MM iterations: modular_scores calls made by run_selcon (not by oracle checks).
    iterations_mm = 0
    moved = 0
    increases = 0
    for i, s in enumerate(spans):
        if s.name != "selection.run_selcon":
            continue
        path = [spans[j].info["s_hat"] for j in range(i + 1, len(spans))
                if spans[j].name == "selection.modular_scores" and spans[j].parent == i]
        iterations_mm += len(path)
        path.append(s.info["selected"])
        moved += sum(len(set(b) - set(a)) for a, b in zip(path, path[1:]))
        f = s.info["f_trace"]
        increases += sum(1 for a, b in zip(f, f[1:]) if b > a)

    # Time in cli.main after the selection returned: metrics, bounds, report.
    report = 0.0
    for i, s in enumerate(spans):
        if s.name == "cli.main":
            ends = [c.end for c in spans[i + 1:] if c.parent == i and c.name == "selection.run_selcon"]
            if ends:
                report += s.end - max(ends)

    sgd = named("dual.train_dual_sgd")
    metrics = {
        "dual.train_dual_exact_calls": len(exact) / ops,
        "dual.train_dual_exact_s": per_op_seconds("dual.train_dual_exact"),
        "dual.exact_ms.p50": _pct(exact_ms, 50),
        "dual.exact_ms.p99": _pct(exact_ms, 99),
        "dual.exact_ms.size1.p50": _pct([m for m, s in zip(exact_ms, exact) if s.info["size"] == 1], 50),
        "dual.exact_ms.sizek.p50": _pct([m for m, s in zip(exact_ms, exact) if s.info["size"] >= 2], 50),
        "dual.iterations_mean": float(np.mean(iterations)) if iterations else 0.0,
        "dual.iterations_p90": _pct(iterations, 90),
        "dual.not_converged": sum(not s.info["converged"] for s in exact) / ops,
        "dual.mu_interior_frac": interior / n_coords if n_coords else 0.0,
        "dual.mu_at_C_frac": at_c / n_coords if n_coords else 0.0,
        "dual.train_dual_sgd_calls": len(sgd) / ops,
        "dual.train_dual_sgd_s": per_op_seconds("dual.train_dual_sgd"),
        "dual.sgd_steps": sum(s.info["steps"] for s in sgd) / ops,
        "setfn.f_of_calls": len(f_of) / ops,
        "setfn.cache_hits": hits / ops,
        "setfn.cache_misses": misses / ops,
        "setfn.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "setfn.singletons_cold_s": cold / ops,
        "setfn.singletons_warm_s": warm / ops,
        "setfn.loo_s": loo / ops,
        "setfn.f_of_self_s": f_of_self / ops,
        "setfn.evals_per_s": misses / f_of_total if f_of_total > 0 else 0.0,
        "setfn.negative_marginals": negative / ops,
        "selection.run_selcon_s": per_op_seconds("selection.run_selcon"),
        "selection.resolve_alpha_s": per_op_seconds("selection.resolve_alpha"),
        "selection.modular_scores_s": per_op_seconds("selection.modular_scores"),
        "selection.iterations": iterations_mm / ops,
        "selection.f_increases": increases / ops,
        "selection.moved_total": moved / ops,
        "dataset.load_csv_s": per_op_seconds("dataset.load_csv"),
        "dataset.split_s": per_op_seconds("dataset.split"),
        "dataset.partition_validation_s": per_op_seconds("dataset.partition_validation"),
        "baselines.full_selection_s": per_op_seconds("baselines.full_selection"),
        "baselines.random_with_constraints_s": per_op_seconds("baselines.random_with_constraints"),
        "metrics.default_delta_s": per_op_seconds("metrics.default_delta"),
        "metrics.fairness_violation_s": per_op_seconds("metrics.fairness_violation"),
        "metrics.fairness_violation_calls": len(named("metrics.fairness_violation")) / ops,
        "metrics.mse_s": per_op_seconds("metrics.mse"),
        "bounds.bound_report_s": per_op_seconds("bounds.bound_report"),
        "bounds.data_constants_s": per_op_seconds("bounds.data_constants"),
        "oracle.f_table_s": per_op_seconds("oracle.f_table"),
        "oracle.empirical_alpha_s": per_op_seconds("oracle.empirical_alpha"),
        "oracle.empirical_kappa_max_s": per_op_seconds("oracle.empirical_kappa_max"),
        "oracle.check_monotone_s": per_op_seconds("oracle.check_monotone"),
        "oracle.check_sandwich_s": per_op_seconds("oracle.check_sandwich"),
        "oracle.check_modular_bound_s": per_op_seconds("oracle.check_modular_bound"),
        "oracle.subsets_enumerated": sum(s.info["subsets"] for s in named("oracle.f_table")) / ops,
        "cli.report_s": report / ops,
        "trace.total_s": statistics.median(traced_totals),
        "trace.overhead_s": statistics.median(traced_totals) - statistics.median(untraced_totals),
        "trace.spans": len(spans) / ops,
    }
    assert [name for name, _ in PER_LAYER] == list(metrics)
    return metrics
