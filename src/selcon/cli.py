"""Command-line entry point.

Subcommands: ``gen`` (synthetic CSV), ``select`` (run the selection driver),
``verify`` (run the property checkers), ``bench`` (baseline grid), and
``fairness`` (per-group error-bound sweep).  Settings come from an INI config
file: ``select``, ``bench`` and ``fairness`` read its [problem], [trainer]
and [selcon] sections, ``verify`` only [trainer]; a section or key that
:data:`SETTINGS` does not list, or any [DEFAULT] key, is a usage error.
Command-line flags override the file.  Exit codes: 0 ok, 1 runtime error,
2 usage or precondition error (a :class:`~selcon.errors.UsageError`, a
``ValueError``, a missing file or a directory given as a file), 3
verification failure.

Reports are deterministic for fixed flags, files and seeds; measured wall
times are excluded from ``select`` output unless ``--timing`` is passed,
since clock readings cannot be reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, metrics, oracle, scenarios
from .bounds import bound_report, data_constants, lambda_min_linear
from .dataset import (
    Dataset,
    SplitSpec,
    ValidationPartition,
    _check_delta,
    gen_synthetic,
    load_csv,
    partition_validation,  # unused here; bound by name so that tracers can wrap it
    save_csv,
    split,
)
from .dual import TrainerConfig, train_dual_exact
from .models import model_to_dict
from .errors import InvalidK, NeedTwoGroups, SelconError, TooLarge, UsageError, ZeroTarget
from .selection import SelconConfig, random_subset, run_selcon, run_selcon_unconstrained
from .setfn import SetFnContext


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# -- configuration ------------------------------------------------------------


# INI section -> key -> (argparse dest, field, parser of the INI text).
# A field takes its flag's value, else the file's; fields set by neither keep
# the default of TrainerConfig, SelconConfig or scenarios.build_context, and k
# defaults to a tenth of the training rows.
SETTINGS = {
    "problem": {
        "lambda": ("lam", "lam", float),
        "C": ("C", "C", float),
        "delta": ("delta", "delta", str),
        "k": ("k", "k", int),
    },
    "trainer": {
        "epochs": ("epochs", "epochs", int),
        "seed": ("seed", "seed", int),
    },
    "selcon": {
        "L": ("iters", "L", int),
        "alpha_mode": ("alpha_mode", "alpha_mode", str),
        "alpha_value": ("alpha_value", "alpha_value", float),
    },
}


def _read_config(path: str | None) -> configparser.ConfigParser:
    """The parsed INI file; a section, key or [DEFAULT] entry that SETTINGS
    does not list raises :class:`UsageError`.  configparser lowercases keys."""
    cp = configparser.ConfigParser()
    if not path:
        return cp
    if not Path(path).exists():
        raise ValueError(f"config file {path} does not exist")
    with open(path, encoding="utf-8") as fh:  # a directory raises here
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"config file {path} is not a valid INI file: {exc}") from None
    if cp.defaults():
        key = next(iter(cp.defaults()))
        raise UsageError(f"config file {path}: key {key!r} in section [DEFAULT] is not read")
    for section in cp.sections():
        if section not in SETTINGS:
            raise UsageError(f"config file {path}: unknown section [{section}]")
        known = {key.lower() for key in SETTINGS[section]}
        for key in cp.options(section):
            if key not in known:
                raise UsageError(f"config file {path}: unknown key {key!r} in section [{section}]")
    return cp


def _settings(cp, args, section: str) -> dict:
    """The fields of one INI section that a flag or the file sets."""
    out = {}
    for key, (flag, field, parse) in SETTINGS[section].items():
        value = getattr(args, flag, None)
        if value is None and cp.has_option(section, key):
            value = parse(cp.get(section, key))
        if value is not None:
            out[field] = value
    return out


def _selcon_config(cp, args, k: int, seed: int) -> SelconConfig:
    return SelconConfig(k=k, seed=seed, **_settings(cp, args, "selcon"))


def _build_context(args, cp, ks: list[int] | None = None) -> tuple[SetFnContext, Dataset, int, float]:
    """Load, split and partition the data; returns the set-function context,
    the test fold, k and the seconds spent loading the CSV.  Every subset
    size the command will use, ``ks`` or else k, is checked against
    [1, n_train] right after the split, before ``--delta auto``'s fit."""
    t0 = time.perf_counter()
    data = load_csv(args.data, target_column=args.target, group_column=args.group)
    load_seconds = time.perf_counter() - t0
    fracs = [float(v) for v in args.split.split(",")]
    if len(fracs) != 3:
        raise ValueError("--split needs three comma-separated fractions")
    trainer = TrainerConfig(**_settings(cp, args, "trainer"))
    train, val, test = split(data, SplitSpec(*fracs, seed=trainer.seed))
    problem = _settings(cp, args, "problem")
    k = problem.pop("k", max(1, train.n // 10))
    for size in ks or [k]:
        if not 1 <= size <= train.n:
            raise InvalidK(f"k = {size} is outside [1, {train.n}]")
    ctx = scenarios.build_context(train, val, args.partition, backend=args.backend,
                                  trainer=trainer, model_kind=args.model, **problem)
    return ctx, test, k, load_seconds


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    data = gen_synthetic(args.n, args.d, noise_sd=args.noise, n_groups=args.groups, seed=args.seed)
    save_csv(data, args.out)
    return 0


def cmd_select(args) -> int:
    cp = _read_config(args.config)
    ctx, test, k, load_seconds = _build_context(args, cp)
    train, val = ctx.train, ctx.valpart.data
    t0 = time.perf_counter()
    result = run_selcon(ctx, _selcon_config(cp, args, k, ctx.trainer.seed))
    wall_time = time.perf_counter() - t0

    report = result.as_dict()
    report["selected_ids"] = [int(train.ids[i]) for i in result.selected]
    report["model"] = model_to_dict(result.state.model)
    report["mu"] = [float(v) for v in result.state.mu]
    report["test_mse"] = metrics.mse(result.state.model, test)
    errs, ok = metrics.group_errors(result.state.model, val, ctx.valpart)
    report["group_errors"] = [float(e) for e in errs]
    report["groups_satisfied"] = [bool(b) for b in ok]
    report["delta"] = float(ctx.valpart.delta)
    report["bounds"] = None  # the certificates cover the linear model only
    if ctx.model_kind == "linear":
        try:
            consts = data_constants(train, val)
            report["bounds"] = bound_report(train, consts, ctx.lam, ctx.C, ctx.valpart.q, k).as_dict()
        except ZeroTarget:  # the certificates need every |y| > 0
            pass
    if args.timing:
        report["timing"] = {"wall_time_seconds": wall_time, "load_seconds": load_seconds}
    _emit(_json(report), args.out)
    return 0


def _verify_instance(args, seed: int) -> tuple[Dataset, ValidationPartition]:
    """Training and validation sets drawn from the trainer ``seed``; with
    --Q 2 the validation rows split into halves."""
    train = gen_synthetic(args.n, args.d, noise_sd=0.3, seed=seed)
    val = gen_synthetic(max(4, args.n // 2), args.d, noise_sd=0.3, seed=seed + 1000)
    cuts = [val.n // 2] if args.Q == 2 else []
    subsets = tuple(np.split(np.arange(val.n), cuts))
    return train, ValidationPartition(data=val, subsets=subsets, delta=args.delta)


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    cp = _read_config(args.config)
    trainer = TrainerConfig(**_settings(cp, args, "trainer"))
    wanted = args.property
    if wanted in ("all", "modular", "alpha", "kappa") and args.n > oracle.MAX_EXHAUSTIVE_N:
        raise TooLarge(f"--property {wanted} enumerates all subsets of n = {args.n} > {oracle.MAX_EXHAUSTIVE_N}")
    train, valpart = _verify_instance(args, trainer.seed)
    ctx = SetFnContext(train=train, valpart=valpart, lam=args.lam, C=args.C, trainer=trainer)
    if wanted in ("all", "alpha", "kappa"):
        # Certificates only hold above the lam threshold; build that instance.
        consts = data_constants(train, valpart.data)
        lam_cert = 1.5 * lambda_min_linear(args.C, valpart.q, consts)
        if not math.isfinite(lam_cert):
            raise UsageError(f"--C {args.C:g} is too large to certify: the certificates' "
                             "lambda threshold is not finite")
        cert_ctx = replace(ctx, lam=lam_cert)
    reports = []
    if wanted in ("all", "modular"):
        # Every check below reads its values from the tables; all solves the
        # instance's and the certificate instance's in one pass.
        oracle.f_table(ctx, cert_ctx if wanted == "all" else None)

    if wanted in ("all", "monotone"):
        reports.append(oracle.check_monotone(ctx, trials=args.trials, seed=trainer.seed))
    if wanted in ("all", "sandwich"):
        reports.append(oracle.check_sandwich(ctx, trials=args.trials, seed=trainer.seed))
    if wanted in ("all", "modular"):
        s_hat = random_subset(train.n, min(train.n, max(2, train.n // 3)), trainer.seed)
        alpha = oracle.empirical_alpha(ctx)
        if not 0 < alpha < math.inf:
            raise UsageError(f"the measured alpha {alpha} is not a positive finite number, so "
                             f"the modular bound cannot be checked at --C {args.C:g}; f grows "
                             "like C, and a smaller C keeps its gains above rounding")
        reports.append(oracle.check_modular_bound(ctx, s_hat, alpha))
    if wanted in ("all", "alpha", "kappa"):
        cert = bound_report(train, consts, lam_cert, args.C, valpart.q, train.n)
        if wanted in ("all", "alpha"):
            reports.append(oracle.check_alpha_certificate(cert_ctx, cert.alpha_hat))
        if wanted in ("all", "kappa"):
            reports.append(oracle.check_kappa_certificate(cert_ctx, cert.kappa_hat))

    _emit(_json([r.as_dict() for r in reports]), args.out)
    return 0 if all(r.passed for r in reports) else 3


def cmd_bench(args) -> int:
    cp = _read_config(args.config)
    ks = [int(v) for v in args.ks.split(",")]
    ctx, test, _, _ = _build_context(args, cp, ks)
    train, trainer = ctx.train, ctx.trainer

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
        sel_cfg = _selcon_config(cp, args, k, trainer.seed)
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
    if args.partition == "single":
        raise NeedTwoGroups("fairness compares validation groups: use --partition by_group")
    deltas = [float(v) for v in args.deltas.split(",")] if args.deltas else []
    for delta in deltas:  # refused before any fit, --delta auto's too
        _check_delta(delta)
    ctx, _, k, _ = _build_context(args, cp)
    if ctx.valpart.q < 2:
        raise NeedTwoGroups("the validation split contains fewer than two groups")
    val, seed = ctx.valpart.data, ctx.trainer.seed
    base = ctx.valpart.delta
    deltas = deltas or [2.0 * base, base, 0.5 * base, 0.25 * base]
    sel_cfg = _selcon_config(cp, args, k, seed)

    out = {"q": ctx.valpart.q, "k": k, "rows": []}
    for delta in deltas:
        part = ctx.valpart.with_delta(delta)
        d_ctx = replace(ctx, valpart=part)
        sel = run_selcon(d_ctx, sel_cfg)
        rnd = baselines.random_with_constraints(d_ctx, k, seed)
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
    p.add_argument("--timing", action="store_true", help="include wall and CSV load times in the report")
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
    p.add_argument("--seed", type=int, default=None)
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
    p.set_defaults(partition="by_group")
    p.add_argument("--deltas", default=None, help="comma-separated bounds (default: grid around the 30%% rule)")
    p.set_defaults(func=cmd_fairness)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SelconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
