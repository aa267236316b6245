"""Command-line entry point.

Subcommands: ``gen`` (synthetic CSV), ``select`` (run the selection driver),
``verify`` (run the property checkers), ``bench`` (baseline grid), and
``fairness`` (per-group error-bound sweep).  Settings come from an INI config
file with sections [problem], [trainer] and [selcon]; command-line flags
override the file, and the SELCON_SEED environment variable overrides the
configured seed.  Exit codes: 0 ok, 1 runtime error, 2 usage or precondition
error, 3 verification failure.

Reports are deterministic for fixed flags, files and seeds; measured wall
times are excluded from ``select`` output unless ``--timing`` is passed,
since clock readings cannot be reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, metrics, oracle
from .bounds import (
    alpha_hat_linear,
    bound_report,
    data_constants,
    kappa_hat,
    lambda_min_linear,
    ell_star_linear,
)
from .dataset import (
    SplitSpec,
    gen_synthetic,
    load_csv,
    partition_validation,
    save_csv,
    split,
)
from .dual import TrainerConfig, train_dual_exact
from .models import model_to_dict
from .errors import (
    EmptyFile,
    EmptySplit,
    InvalidK,
    MissingColumn,
    MissingGroups,
    NeedTwoGroups,
    NonFiniteValue,
    ParseFailure,
    SelconError,
    TooLarge,
    ZeroTarget,
)
from .selection import SelconConfig, run_selcon, run_selcon_unconstrained
from .setfn import SetFnContext

USAGE_ERRORS = (
    InvalidK,
    MissingColumn,
    MissingGroups,
    NeedTwoGroups,
    EmptySplit,
    EmptyFile,
    ParseFailure,
    NonFiniteValue,
    TooLarge,
    ZeroTarget,
    ValueError,
    FileNotFoundError,
    IsADirectoryError,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- configuration ------------------------------------------------------------


def _read_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise ValueError(f"config file {path} does not exist")
        cp.read(path)
    return cp


def _cfg_get(cp, section, key, flag_value, default, cast=float):
    if flag_value is not None:
        return flag_value
    if cp.has_option(section, key):
        return cast(cp.get(section, key))
    return default


def _trainer_from(cp, args) -> TrainerConfig:
    lr_mu_raw = getattr(args, "lr_mu", None)
    if lr_mu_raw is None and cp.has_option("trainer", "lr_mu"):
        lr_mu_raw = cp.get("trainer", "lr_mu")
    lr_mu = None
    if lr_mu_raw is not None and str(lr_mu_raw).strip().lower() != "auto":
        lr_mu = float(lr_mu_raw)
    seed = int(_cfg_get(cp, "trainer", "seed", getattr(args, "seed", None), 0, int))
    env_seed = os.environ.get("SELCON_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    return TrainerConfig(
        epochs=int(_cfg_get(cp, "trainer", "epochs", getattr(args, "epochs", None), 2000, int)),
        batch_size=int(_cfg_get(cp, "trainer", "batch_size", None, 1000, int)),
        learning_rate_w=float(_cfg_get(cp, "trainer", "lr_w", None, 0.01)),
        learning_rate_mu=lr_mu,
        mu_tolerance=float(_cfg_get(cp, "trainer", "mu_tol", None, 1e-10)),
        max_outer_iters=int(_cfg_get(cp, "trainer", "max_outer", None, 100_000, int)),
        seed=seed,
    )


def _load_problem(args, cp):
    group = getattr(args, "group", None)
    data = load_csv(args.data, target_column=args.target, group_column=group)
    fracs = [float(v) for v in args.split.split(",")]
    if len(fracs) != 3:
        raise ValueError("--split needs three comma-separated fractions")
    trainer = _trainer_from(cp, args)
    spec = SplitSpec(*fracs, seed=trainer.seed)
    return data, split(data, spec), trainer


def _resolve_delta(raw, train, val, valpart_mode, lam, trainer) -> float:
    """The 'auto' rule: 30% of the full-data model's mean validation error."""
    if raw != "auto":
        return float(raw)
    probe_part = partition_validation(val, valpart_mode, delta=0.0)
    ctx = SetFnContext(train=train, valpart=probe_part, lam=lam, C=0.0, trainer=trainer)
    full = baselines.full_selection(ctx)
    return metrics.default_delta(full.state, val, probe_part)


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.n < 1 or args.d < 1:
        raise ValueError("need --n >= 1 and --d >= 1")
    data = gen_synthetic(args.n, args.d, noise_sd=args.noise, n_groups=args.groups, seed=args.seed)
    save_csv(data, args.out, target_column="y", group_column="group")
    return 0


def _build_context(args, cp):
    data, (train, val, test), trainer = _load_problem(args, cp)
    lam = float(_cfg_get(cp, "problem", "lambda", args.lam, 1.0))
    C = float(_cfg_get(cp, "problem", "C", args.C, 1.0))
    mode = args.partition
    delta_raw = _cfg_get(cp, "problem", "delta", args.delta, "0.5", str)
    delta = _resolve_delta(delta_raw, train, val, mode, lam, trainer)
    valpart = partition_validation(val, mode, delta)
    ctx = SetFnContext(
        train=train,
        valpart=valpart,
        lam=lam,
        C=C,
        backend=args.backend,
        trainer=trainer,
        model_kind=args.model,
    )
    return ctx, train, val, test, trainer


def cmd_select(args) -> int:
    cp = _read_config(args.config)
    ctx, train, val, test, trainer = _build_context(args, cp)
    k = int(_cfg_get(cp, "problem", "k", args.k, max(1, train.n // 10), int))
    alpha_value = _cfg_get(cp, "selcon", "alpha_value", args.alpha_value, None)
    sel_cfg = SelconConfig(
        k=k,
        L=int(_cfg_get(cp, "selcon", "L", args.iters, 10, int)),
        alpha_mode=str(_cfg_get(cp, "selcon", "alpha_mode", args.alpha_mode, "certified", str)),
        alpha_value=None if alpha_value is None else float(alpha_value),
        alpha_floor=float(_cfg_get(cp, "selcon", "alpha_floor", None, 0.05)),
        seed=trainer.seed,
    )
    result = run_selcon(ctx, sel_cfg)

    report = result.as_dict()
    report["selected_ids"] = [int(train.ids[i]) for i in result.selected]
    report["model"] = model_to_dict(result.state.model)
    report["mu"] = [float(v) for v in result.state.mu]
    report["test_mse"] = metrics.mse(result.state.model, test)
    errs, ok = metrics.group_errors(result.state.model, val, ctx.valpart)
    report["group_errors"] = [float(e) for e in errs]
    report["groups_satisfied"] = [bool(b) for b in ok]
    report["delta"] = float(ctx.valpart.delta)
    try:
        br = bound_report(train, val, ctx.lam, ctx.C, ctx.valpart.q, k)
        bounds = br.as_dict()
        consts = data_constants(train, val, q=ctx.valpart.q)
        # Loss-floor variant of ell_star used by the linear certificate proof.
        bounds["ell_star_loss_floor"] = ctx.lam * consts.y_min**2 / (ctx.lam + consts.x_max**2)
        report["bounds"] = bounds
    except ZeroTarget:
        report["bounds"] = None
    if args.timing:
        report["timing"] = {"wall_time_seconds": result.wall_time}
    _emit(_json(report), args.out)
    return 0


def _verify_instance(args, trainer):
    train = gen_synthetic(args.n, args.d, noise_sd=0.3, seed=args.seed)
    val = gen_synthetic(max(4, args.n // 2), args.d, noise_sd=0.3, seed=args.seed + 1000)
    valpart = partition_validation(val, "single", delta=args.delta)
    if args.Q == 2:
        half = val.n // 2
        subsets = (np.arange(half), np.arange(half, val.n))
        from .dataset import ValidationPartition

        valpart = ValidationPartition(data=val, subsets=subsets, delta=args.delta)
    return train, val, valpart


def cmd_verify(args) -> int:
    cp = _read_config(args.config)
    trainer = _trainer_from(cp, args)
    train, val, valpart = _verify_instance(args, trainer)
    ctx = SetFnContext(
        train=train, valpart=valpart, lam=args.lam, C=args.C, trainer=trainer
    )
    reports = []
    wanted = args.property

    if wanted in ("all", "monotone"):
        reports.append(oracle.check_monotone(ctx, trials=args.trials, seed=trainer.seed))
    if wanted in ("all", "sandwich"):
        reports.append(oracle.check_sandwich(ctx, trials=args.trials, seed=trainer.seed))
    if wanted in ("all", "modular"):
        s_hat = baselines.random_subset(train.n, max(2, train.n // 3), trainer.seed)
        alpha = oracle.empirical_alpha(ctx, max_n=12)
        reports.append(oracle.check_modular_bound(ctx, s_hat, alpha))
    if wanted in ("all", "alpha", "kappa"):
        # Certificates only hold above the lam threshold; build that instance.
        consts = data_constants(train, val, q=valpart.q)
        lam_cert = 1.5 * lambda_min_linear(args.C, valpart.q, consts)
        cert_ctx = SetFnContext(
            train=train, valpart=valpart, lam=lam_cert, C=args.C, trainer=trainer
        )
        measured_alpha = oracle.empirical_alpha(cert_ctx, max_n=12)
        if wanted in ("all", "alpha"):
            a_hat = alpha_hat_linear(lam_cert, args.C, valpart.q, consts)
            reports.append(
                oracle.OracleReport(
                    property_name="alpha_certificate",
                    instances_checked=1,
                    worst_slack=measured_alpha - a_hat,
                    tolerance=1e-9,
                    passed=measured_alpha >= a_hat - 1e-9,
                    details={"alpha_hat": a_hat, "empirical_alpha": measured_alpha},
                )
            )
        if wanted in ("all", "kappa"):
            k_hat = kappa_hat(args.C, valpart.q, consts.y_max, ell_star_linear(train, consts.x_max))
            measured_kappa = oracle.empirical_kappa_max(cert_ctx, max_n=12)
            reports.append(
                oracle.OracleReport(
                    property_name="kappa_certificate",
                    instances_checked=1,
                    worst_slack=k_hat - measured_kappa,
                    tolerance=1e-9,
                    passed=measured_kappa <= k_hat + 1e-9,
                    details={"kappa_hat": k_hat, "empirical_kappa": measured_kappa},
                )
            )

    _emit(_json([r.as_dict() for r in reports]), args.out)
    return 0 if all(r.passed for r in reports) else 3


def cmd_bench(args) -> int:
    cp = _read_config(args.config)
    ctx, train, val, test, trainer = _build_context(args, cp)
    ks = [int(v) for v in args.ks.split(",")]

    # select_seconds times the method; fit_seconds one exact fit on the
    # subset it returns, the training a selection exists to make cheap.
    lines = ["method,k,mse,f,select_seconds,fit_seconds"]

    def add(k, runner):
        t0 = time.perf_counter()
        result = runner()
        t1 = time.perf_counter()
        train_dual_exact(result.selected, train, ctx.valpart, ctx.lam, ctx.C, trainer)
        t2 = time.perf_counter()
        test_err = metrics.mse(result.state.model, test)
        lines.append(f"{result.method},{k},{test_err!r},{result.f_value!r},{t1 - t0!r},{t2 - t1!r}")

    add(train.n, lambda: baselines.full_selection(ctx))
    add(train.n, lambda: baselines.full_with_constraints(ctx))
    for k in ks:
        sel_cfg = SelconConfig(
            k=k,
            seed=trainer.seed,
            alpha_mode=args.alpha_mode or "certified",
            alpha_value=args.alpha_value,
        )
        add(k, lambda: run_selcon(replace(ctx), sel_cfg))  # cold cache per k
        add(k, lambda: run_selcon_unconstrained(ctx, sel_cfg))
        add(k, lambda: baselines.random_selection(ctx, k, trainer.seed))
        add(k, lambda: baselines.random_with_constraints(ctx, k, trainer.seed))

    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_fairness(args) -> int:
    cp = _read_config(args.config)
    if args.group is None:
        raise NeedTwoGroups("fairness runs need --group naming the group column")
    ctx, train, val, test, trainer = _build_context(args, cp)
    if ctx.valpart.q < 2:
        raise NeedTwoGroups("the validation split contains fewer than two groups")
    base = ctx.valpart.delta
    deltas = (
        [float(v) for v in args.deltas.split(",")]
        if args.deltas
        else [2.0 * base, base, 0.5 * base, 0.25 * base]
    )
    k = int(_cfg_get(cp, "problem", "k", args.k, max(1, train.n // 10), int))

    out = {"q": ctx.valpart.q, "k": k, "rows": []}
    for delta in deltas:
        part = ctx.valpart.with_delta(delta)
        d_ctx = replace(ctx, valpart=part)
        sel = run_selcon(d_ctx, SelconConfig(k=k, seed=trainer.seed))
        rnd = baselines.random_with_constraints(d_ctx, k, trainer.seed)
        out["rows"].append(
            {
                "delta": float(delta),
                "selcon": metrics.fairness_violation(sel.state.model, val, part),
                "random_constrained": metrics.fairness_violation(rnd.state.model, val, part),
            }
        )
    _emit(_json(out), args.out)
    return 0


# -- argument wiring -----------------------------------------------------------------


def _add_common_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--group", default=None, help="group column name")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--split", default="0.8,0.1,0.1", help="train,val,test fractions")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--delta", default=None, help="error bound, or 'auto' for the 30%% rule")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--backend", choices=("exact", "sgd"), default="exact")
    p.add_argument("--model", choices=("linear", "two_layer"), default="linear")
    p.add_argument("--partition", choices=("single", "by_group"), default="single")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored: set-function evaluation is batched, not threaded")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="selcon")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--groups", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("select", help="run the subset-selection driver")
    _add_common_problem_flags(p)
    p.add_argument("--iters", type=int, default=None, help="outer iterations L")
    p.add_argument("--alpha-mode", dest="alpha_mode", default=None,
                   choices=("certified", "empirical", "fixed"))
    p.add_argument("--alpha-value", dest="alpha_value", type=float, default=None,
                   help="ratio for --alpha-mode fixed")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("verify", help="run the property checkers on a seeded instance")
    p.add_argument("--property", default="all",
                   choices=("all", "monotone", "sandwich", "modular", "alpha", "kappa"))
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--Q", type=int, default=1, choices=(1, 2))
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="baseline grid over subset sizes")
    _add_common_problem_flags(p)
    p.add_argument("--ks", default="5,10", help="comma-separated subset sizes")
    p.add_argument("--alpha-mode", dest="alpha_mode", default=None,
                   choices=("certified", "empirical", "fixed"))
    p.add_argument("--alpha-value", dest="alpha_value", type=float, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fairness", help="per-group bound sweep: driver vs random")
    _add_common_problem_flags(p)
    p.add_argument("--deltas", default=None, help="comma-separated bounds (default: grid around the 30%% rule)")
    p.set_defaults(func=cmd_fairness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SelconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
