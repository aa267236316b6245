"""The benchmark workloads: their inputs, one operation each, and its checks.

A workload draws ``instances`` independent inputs from the workload seed and
its operations cycle over them.  The selection pools are drawn alike, so one
input each is enough; ``verify`` instances differ more from seed to seed, so
that workload draws many and the run reports their median.  ``setup(inst)`` is
the set-up the program does before its first ``run_selcon`` (timed on its
own), ``run(inst, main)`` is one whole operation, ``check()`` verifies that
operation's outputs outside the timed region, and ``quality(inst)`` reads
the subset-quality metrics off the instance's last operation.

Every selection pins ``alpha = 1`` (fixed): with the default certified alpha
the selection never leaves its random start, and pinning keeps the work the
same if that default changes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import optimize

from selcon import baselines, dataset, dual, metrics, models, selection
from selcon.errors import NotConverged
from selcon.setfn import SetFnContext

import gen

ALPHA_ARGS = ["--alpha-mode", "fixed", "--alpha-value", "1"]
PROGRAM_SEED = 0  # the program's own seed; the workload seed only shapes the inputs


class Checks:
    """Correctness checks counted against the number attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}" if detail else name)
        return ok


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class Problem:
    """A loaded, split and partitioned problem, built the way ``selcon`` builds it."""

    train: dataset.Dataset
    val: dataset.Dataset
    test: dataset.Dataset
    valpart: dataset.ValidationPartition
    lam: float
    C: float
    trainer: dual.TrainerConfig

    def context(self, valpart=None) -> SetFnContext:
        return SetFnContext(train=self.train, valpart=valpart or self.valpart, lam=self.lam,
                            C=self.C, trainer=self.trainer)


def load_problem(csv_path, fracs, lam, C, mode, trainer) -> Problem:
    """CSV load, split, ``--delta auto`` (a full unconstrained fit) and partition,
    through the same public calls as the ``select`` and ``fairness`` commands."""
    data = dataset.load_csv(csv_path, target_column="y", group_column="group")
    train, val, test = dataset.split(data, dataset.SplitSpec(*fracs, seed=trainer.seed))
    probe = dataset.partition_validation(val, mode, delta=0.0)
    full = baselines.full_selection(
        SetFnContext(train=train, valpart=probe, lam=lam, C=0.0, trainer=trainer))
    delta = metrics.default_delta(full.state, val, probe)
    valpart = dataset.partition_validation(val, mode, delta)
    return Problem(train, val, test, valpart, lam, C, trainer)


def dual_maximum(subset, prob: Problem, valpart, starts) -> float:
    """max over mu in [0, C]^Q of min_w F(w, mu, S), found by derivative-free
    Nelder-Mead from each start: independent of the exact trainer's ascent,
    L-BFGS-B and Newton stages."""

    def neg_dual(mu):
        mu = np.clip(mu, 0.0, prob.C)
        model = dual.solve_inner_linear(mu, subset, prob.train, valpart, prob.lam)
        return -dual.dual_objective(model, mu, subset, prob.train, valpart, prob.lam)

    best = -math.inf
    for x0 in starts:
        res = optimize.minimize(neg_dual, x0, method="Nelder-Mead",
                                bounds=[(0.0, prob.C)] * valpart.q,
                                options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 20000})
        best = max(best, -float(res.fun))
    return best


def strong_duality(subset, prob: Problem, sel: Selected) -> str | None:
    """Check the dual value ``f`` against the primal oracle; None when it holds.

    ``primal_value`` is a subgradient method whose stopping rule does not
    bound its error: where the optimal multipliers are interior it stops up
    to a few 1e-6 above the optimum (NOTES.md).  So a gap beyond 1e-6 counts
    as a failure only if an independent maximisation of the dual disagrees
    with ``f`` at 1e-6 too, or the oracle lies below ``f`` (weak duality) or
    more than 1e-4 above it (the tolerance of acceptance check C5)."""
    f = sel.f_value
    try:
        primal = dual.primal_value(subset, prob.train, sel.valpart, prob.lam, prob.C)
    except NotConverged as exc:
        return f"primal oracle: {exc}"
    if _close(primal, f, 1e-6):
        return None
    starts = [np.asarray(sel.mu, dtype=float), np.full(sel.valpart.q, prob.C / 2)]
    best = dual_maximum(subset, prob, sel.valpart, starts)
    scale = max(1.0, abs(f))
    if _close(best, f, 1e-6) and -1e-6 * scale <= primal - f <= 1e-4 * scale:
        return None
    return f"primal {primal!r}, independent dual maximum {best!r}, dual {f!r}"


@dataclass
class Selected:
    """What a selection returned, however the workload obtained it."""

    selected: tuple[int, ...]
    mu: np.ndarray
    model: object
    f_value: float
    valpart: dataset.ValidationPartition

    def key(self):
        return (self.selected, self.f_value, tuple(self.mu))


@dataclass
class OpResult:
    total_s: float = 0.0
    select_s: list[float] = field(default_factory=list)
    outputs: list[Selected] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Instance:
    """One input of a workload and what its operations produced."""

    seed: int
    csv: Path
    report: Path
    prob: Problem | None = None
    first: list | None = None
    last: OpResult | None = None
    duality: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    instances = 1
    setup_batch = 1

    def __init__(self, seed: int, workdir: Path):
        self.items = [
            Instance(seed * self.instances + j, workdir / f"{self.name}-{j}.csv",
                     workdir / f"{self.name}-{j}.json")
            for j in range(self.instances)]
        for inst in self.items:
            self.prepare(inst)
            inst.prob = self.setup(inst)
        self.sizes = {"instances": self.instances,
                      "instance_seeds": [inst.seed for inst in self.items], **self.describe()}

    def prepare(self, inst: Instance) -> None:
        """Write the instance's input files."""

    # -- shared checks ---------------------------------------------------

    def check_selection(self, checks: Checks, inst: Instance, sel: Selected, k: int) -> None:
        prob = inst.prob
        n, q, C = prob.train.n, sel.valpart.q, prob.C
        subset = list(sel.selected)
        checks.check("subset_size_distinct_in_range",
                     len(subset) == k and len(set(subset)) == k and all(0 <= i < n for i in subset),
                     f"{subset}")
        mu = np.asarray(sel.mu, dtype=float)
        checks.check("mu_in_box", mu.shape == (q,) and bool(np.all((mu >= 0) & (mu <= C))), f"{mu}")
        f_obj = dual.dual_objective(sel.model, mu, subset, prob.train, sel.valpart, prob.lam)
        checks.check("f_equals_dual_objective", _close(f_obj, sel.f_value, 1e-9),
                     f"{f_obj!r} vs {sel.f_value!r}")
        refit = dual.train_dual_exact(subset, prob.train, sel.valpart, prob.lam, C, prob.trainer)
        checks.check("exact_refit_same_f", _close(refit.f_value, sel.f_value, 1e-9),
                     f"{refit.f_value!r} vs {sel.f_value!r}")
        key = (tuple(sorted(subset)), sel.valpart.delta, sel.f_value)
        if key not in inst.duality:
            inst.duality[key] = strong_duality(subset, prob, sel)
        checks.check("strong_duality_primal", inst.duality[key] is None,
                     f"instance seed {inst.seed}: {inst.duality[key]}")

    def check_repeatable(self, checks: Checks, inst: Instance, keys: list) -> None:
        """Fixed inputs and seeds must give the same outputs on every operation."""
        if inst.first is None:
            inst.first = keys
        checks.check("same_output_as_first_op", keys == inst.first, f"instance seed {inst.seed}")


class _SelectCommand(Workload):
    """``selcon select`` run in-process through ``selcon.cli.main``."""

    k = 0
    rows = 0
    fracs = (0.8, 0.1, 0.1)
    lam = 1.0
    C = 1.0
    partition = "single"

    def prepare(self, inst: Instance) -> None:
        gen.write_csv(inst.csv, *self.pool(self.rows, inst.seed))

    def setup(self, inst: Instance) -> Problem:
        return load_problem(inst.csv, self.fracs, self.lam, self.C, self.partition,
                            dual.TrainerConfig(seed=PROGRAM_SEED))

    def describe(self) -> dict:
        p = self.items[0].prob
        return {"rows": self.rows, "d": p.train.d, "groups": p.val.n_groups, "n_train": p.train.n,
                "n_val": p.val.n, "n_test": p.test.n, "k": self.k, "split": list(self.fracs)}

    def argv(self, inst: Instance) -> list[str]:
        return ["select", "--data", str(inst.csv), "--target", "y", "--group", "group",
                "--split", ",".join(map(str, self.fracs)), "--lambda", str(self.lam),
                "--C", str(self.C), "--delta", "auto", "--k", str(self.k),
                "--partition", self.partition, "--backend", "exact", "--model", "linear",
                "--threads", "1", "--seed", str(PROGRAM_SEED), "--timing",
                "--out", str(inst.report), *ALPHA_ARGS]

    def run(self, inst: Instance, main) -> OpResult:
        inst.report.unlink(missing_ok=True)
        return OpResult(extra={"rc": main(self.argv(inst))})

    def check(self, inst: Instance, res: OpResult, checks: Checks) -> None:
        ok = checks.check("exit_code_0", res.extra["rc"] == 0, f"rc={res.extra['rc']}")
        try:
            report = json.loads(inst.report.read_text(encoding="utf-8")) if ok else None
        except (OSError, ValueError) as exc:
            report = None
            checks.messages.append(f"report: {exc}")
        if not checks.check("report_parses", report is not None):
            return
        res.select_s.append(report.pop("timing")["wall_time_seconds"])
        sel = Selected(tuple(report["selected"]), np.asarray(report["mu"], dtype=float),
                       models.model_from_dict(report["model"]), report["f_value"],
                       inst.prob.valpart)
        res.outputs.append(sel)
        res.extra["test_mse"] = report["test_mse"]
        checks.check("delta_matches_auto_rule",
                     _close(report["delta"], inst.prob.valpart.delta, 1e-12))
        self.check_selection(checks, inst, sel, self.k)
        self.check_repeatable(checks, inst, [json.dumps(report, sort_keys=True)])

    def quality(self, inst: Instance) -> dict:
        sel, prob = inst.last.outputs[0], inst.prob
        rnd = baselines.random_with_constraints(prob.context(), self.k, PROGRAM_SEED)
        grouped = dataset.partition_validation(prob.val, "by_group", prob.valpart.delta)
        return {
            "f_final": sel.f_value,
            "f_vs_random": sel.f_value / rnd.f_value,
            "test_mse": inst.last.extra["test_mse"],
            "fairness_violation": metrics.fairness_violation(sel.model, prob.val, grouped),
        }


class BindingQ4(_SelectCommand):
    name = "binding-q4"
    why = ("Multiplier solver and singleton sweep: an intercept, C=10 and four unequal groups "
           "leave singleton duals with interior multipliers, so exact solves run their fallbacks.")
    fracs = (0.06, 0.5, 0.44)
    lam = 0.3
    C = 10.0
    partition = "by_group"
    pool = staticmethod(gen.binding_pool)

    def __init__(self, seed, workdir, tiny):
        self.rows, self.k = (600, 8) if tiny else (5000, 60)
        super().__init__(seed, workdir)
        self.interior_frac = [self.singleton_interior_frac(inst) for inst in self.items]
        self.sizes["singleton_mu_interior_frac"] = self.interior_frac

    def check(self, inst: Instance, res: OpResult, checks: Checks) -> None:
        super().check(inst, res, checks)
        frac = self.interior_frac[self.items.index(inst)]
        checks.check("binding_mu_interior", frac >= 0.05,
                     f"instance seed {inst.seed}: interior multiplier share {frac:.3f} < 0.05")

    @staticmethod
    def singleton_interior_frac(inst: Instance) -> float:
        """Share of singleton multipliers strictly inside (0, C), over the
        first 24 training rows: the property this workload exists for."""
        p = inst.prob
        mu = np.concatenate([
            dual.train_dual_exact((i,), p.train, p.valpart, p.lam, p.C, p.trainer).mu
            for i in range(min(24, p.train.n))])
        return float(np.mean((mu > 1e-9 * p.C) & (mu < (1 - 1e-9) * p.C)))


class FairnessSweep(Workload):
    """The ``selcon fairness`` pipeline through library calls, so that alpha
    can be pinned: set-up, then per delta a fresh context, ``run_selcon``,
    ``random_with_constraints`` and two ``fairness_violation`` calls."""

    name = "fairness-sweep"
    why = ("Validation side, metrics, dataset and cold caches: 4,500 validation rows, saturated "
           "multipliers, a fresh context per delta and the largest CSV.")
    fracs = (0.05, 0.75, 0.2)
    lam = 0.5
    C = 2.0
    factors = (2.0, 1.0, 0.5, 0.25)
    # Three MM iterations: with the default ten the
    # number of leave-one-out sweeps swings with the oscillating trace, and
    # the run time with it.
    iters = 3

    def __init__(self, seed, workdir, tiny):
        self.rows, self.k = (400, 6) if tiny else (6000, 40)
        super().__init__(seed, workdir)

    def prepare(self, inst: Instance) -> None:
        gen.write_csv(inst.csv, *gen.gen_pool(self.rows, inst.seed))

    def setup(self, inst: Instance) -> Problem:
        return load_problem(inst.csv, self.fracs, self.lam, self.C, "by_group",
                            dual.TrainerConfig(seed=PROGRAM_SEED))

    def describe(self) -> dict:
        p = self.items[0].prob
        return {"rows": self.rows, "d": p.train.d, "groups": p.val.n_groups, "n_train": p.train.n,
                "n_val": p.val.n, "n_test": p.test.n, "k": self.k, "split": list(self.fracs),
                "delta_factors": list(self.factors), "iters": self.iters}

    def run(self, inst: Instance, main) -> OpResult:
        res = OpResult()
        prob = self.setup(inst)
        cfg = selection.SelconConfig(k=self.k, L=self.iters, seed=PROGRAM_SEED,
                                     alpha_mode="fixed", alpha_value=1.0)
        rows = []
        for factor in self.factors:
            part = prob.valpart.with_delta(factor * prob.valpart.delta)
            ctx = prob.context(part)
            t0 = time.perf_counter()
            sel = selection.run_selcon(ctx, cfg)
            res.select_s.append(time.perf_counter() - t0)
            rnd = baselines.random_with_constraints(ctx, self.k, PROGRAM_SEED)
            rows.append({
                "selcon": metrics.fairness_violation(sel.state.model, prob.val, part),
                "random_constrained": metrics.fairness_violation(rnd.state.model, prob.val, part),
                "f_random": rnd.f_value,
            })
            res.outputs.append(Selected(sel.selected, sel.state.mu, sel.state.model,
                                        sel.f_value, part))
        res.extra["rows"] = rows
        return res

    def check(self, inst: Instance, res: OpResult, checks: Checks) -> None:
        for sel, row in zip(res.outputs, res.extra["rows"]):
            self.check_selection(checks, inst, sel, self.k)
            checks.check("fairness_values_finite",
                         all(math.isfinite(row[m]) and row[m] >= 0
                             for m in ("selcon", "random_constrained")), f"{row}")
        self.check_repeatable(checks, inst, [(s.key(), r["selcon"], r["random_constrained"])
                                             for s, r in zip(res.outputs, res.extra["rows"])])

    def quality(self, inst: Instance) -> dict:
        outputs, rows = inst.last.outputs, inst.last.extra["rows"]
        return {
            "f_final": np.mean([s.f_value for s in outputs]),
            "f_vs_random": np.mean([s.f_value / r["f_random"] for s, r in zip(outputs, rows)]),
            "test_mse": np.mean([metrics.mse(s.model, inst.prob.test) for s in outputs]),
            "fairness_violation": np.mean([r["selcon"] for r in rows]),
        }


class VerifyExhaustive(Workload):
    """``selcon verify --d 2 --Q 2`` in-process.  It selects nothing, so it
    has no selection time and no subset-quality metrics."""

    name = "verify-exhaustive"
    why = ("The dual and setfn layers on hundreds of tiny d=2 exact solves per operation in two "
           "exhaustive subset tables: per-call overhead, not linear algebra, sets the time.")
    instances = 16
    setup_batch = 25
    lam = 1.0
    C = 1.0
    delta = 0.5

    def __init__(self, seed, workdir, tiny):
        self.n = 6 if tiny else 7
        super().__init__(seed, workdir)

    def setup(self, inst: Instance) -> Problem:
        """The instance ``selcon verify --Q 2`` builds from its seed."""
        train = dataset.gen_synthetic(self.n, 2, noise_sd=0.3, seed=inst.seed)
        val = dataset.gen_synthetic(max(4, self.n // 2), 2, noise_sd=0.3, seed=inst.seed + 1000)
        half = val.n // 2
        valpart = dataset.ValidationPartition(
            data=val, subsets=(np.arange(half), np.arange(half, val.n)), delta=self.delta)
        return Problem(train, val, val, valpart, self.lam, self.C,
                       dual.TrainerConfig(seed=inst.seed))

    def describe(self) -> dict:
        return {"n": self.n, "d": 2, "Q": 2, "n_val": self.items[0].prob.val.n,
                "subsets_per_table": 2 ** self.n}

    def run(self, inst: Instance, main) -> OpResult:
        inst.report.unlink(missing_ok=True)
        rc = main(["verify", "--n", str(self.n), "--d", "2", "--Q", "2", "--seed", str(inst.seed),
                   "--lambda", str(self.lam), "--C", str(self.C), "--delta", str(self.delta),
                   "--out", str(inst.report)])
        return OpResult(extra={"rc": rc})

    def check(self, inst: Instance, res: OpResult, checks: Checks) -> None:
        checks.check("verify_exit_code_0", res.extra["rc"] == 0, f"rc={res.extra['rc']}")
        try:
            reports = json.loads(inst.report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            reports = None
            checks.messages.append(f"verify report: {exc}")
        if checks.check("verify_report_parses", isinstance(reports, list) and len(reports) == 5):
            for r in reports:
                checks.check(f"verify_{r['property']}_passed", r["passed"] is True, f"{r}")
        self.check_repeatable(checks, inst, [json.dumps(reports, sort_keys=True)])

    def quality(self, inst: Instance) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (BindingQ4, FairnessSweep, VerifyExhaustive)}
