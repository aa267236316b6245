"""Acceptance gate: one test per criterion, at the stated tolerance.

The suite prints one PASS/FAIL line per criterion (hook in conftest).  Heavy
shared fixtures (the exhaustive instance suites) are built once per session
and reused across criteria.
"""

import functools
import json

import numpy as np
import pytest

from conftest import make_ctx, make_problem, register_acceptance
from selcon import cli, setfn
from selcon.bounds import (
    alpha_hat_linear,
    approx_ratio,
    claim1_min,
    data_constants,
    ell,
    ell_star_linear,
    kappa_hat,
    lambda_min_linear,
)
from selcon.dataset import Dataset, offset_augment, partition_validation
from selcon.dual import (
    TrainerConfig,
    primal_value,
    solve_inner_linear,
    train_dual_exact,
    train_dual_sgd,
)
from selcon.models import (
    LinearModel,
    TwoLayerModel,
    loss_grad,
    model_from_params,
    params_of,
    predict,
)
from selcon.oracle import (
    brute_force_optimum,
    check_modular_bound,
    empirical_alpha,
    empirical_kappa_max,
)
from selcon.scenarios import delta_trend, fairness_study
from selcon.selection import SelconConfig, run_selcon
from selcon.setfn import SetFnContext

CFG = TrainerConfig()


# --- shared instance suites ---------------------------------------------------


@functools.lru_cache(maxsize=1)
def small_suite():
    """200 seeded instances (n <= 10, d <= 3, Q in {1,2}), exact backend,
    each with two sampled (subset, element) pairs."""
    suite = []
    for seed in range(200):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 11))
        d = int(r.integers(1, 4))
        q = 1 + seed % 2
        ctx = make_ctx(
            1000 + seed, n=n, d=d, q=q, nval=int(r.integers(max(2, q), 9)),
            signed=bool(seed % 3 == 0),
        )
        pairs = []
        for _ in range(2):
            size = int(r.integers(0, n))
            perm = r.permutation(n)
            pairs.append((tuple(sorted(int(v) for v in perm[:size])), int(perm[size])))
        suite.append((ctx, pairs))
    return suite


def certified_instance(seed, n, k):
    """Exhaustively enumerable instance in the certificate-valid regime."""
    r = np.random.default_rng(seed)
    d = int(r.integers(1, 3))
    X = r.uniform(-1, 1, (n, d))
    y = r.uniform(0.5, 1.5, n)
    nval = int(r.integers(3, 7))
    Xv = r.uniform(-1, 1, (nval, d))
    yv = r.uniform(0.5, 1.5, nval)
    train = Dataset(features=X, targets=y)
    val = Dataset(features=Xv, targets=yv)
    C = 1.0
    consts = data_constants(train, val)
    lam = float(lambda_min_linear(C, 1, consts) * r.uniform(1.0, 2.0))
    # delta feasible at the pooled validation fit, with a margin, so the
    # empty-set value is 0 while subset constraints can still bind.
    w_ls = np.linalg.lstsq(Xv.T @ Xv, Xv.T @ yv, rcond=None)[0]
    base = float(np.mean((yv - Xv @ w_ls) ** 2))
    vp = partition_validation(val, "single", base * 1.3 + 0.01)
    ctx = SetFnContext(train=train, valpart=vp, lam=lam, C=C, trainer=CFG)
    return {"ctx": ctx, "consts": consts, "lam": lam, "C": C, "k": k, "n": n}


@functools.lru_cache(maxsize=1)
def cert_suite():
    """20 exhaustive certified instances with measured ratio/curvature and
    the brute-force optimum."""
    suite = []
    for i in range(20):
        inst = certified_instance(2000 + i, n=6 + i % 2, k=2 + i % 2)
        ctx = inst["ctx"]
        inst["alpha_emp"] = empirical_alpha(ctx)
        inst["kappa_emp"] = empirical_kappa_max(ctx)
        inst["brute"] = brute_force_optimum(ctx, inst["k"])
        suite.append(inst)
    return suite


def moderate_instance(seed, n=6):
    """Exhaustively enumerable instance at practical regularization, where
    the stochastic trainer is a close approximation."""
    train, val, vp, lam, C = make_problem(
        seed, n=n, d=2, q=1, nval=5, lam=None, C=None, y_lo=0.5, y_hi=1.5
    )
    ctx = SetFnContext(train=train, valpart=vp, lam=lam, C=C, trainer=CFG)
    return ctx


@functools.lru_cache(maxsize=1)
def moderate_suite():
    return [moderate_instance(3000 + i) for i in range(20)]


# --- criteria -------------------------------------------------------------------


def test_c01_claim1_closed_form():
    """Per-element minimum matches the direct linear-solve oracle."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam = float(rng.uniform(0.05, 50))
        y = float(rng.uniform(-5, 5))
        d = int(rng.integers(1, 5))
        x = rng.uniform(-2, 2, d)
        w = y * np.linalg.solve(lam * np.eye(d) + np.outer(x, x), x)
        oracle = lam * w @ w + (y - w @ x) ** 2
        got = claim1_min(lam, y, x)
        assert abs(got - oracle) <= 1e-8 * max(1.0, abs(oracle))


register_acceptance("test_c01_claim1_closed_form", "C1  closed-form per-element minimum vs direct solve (1e-8 rel)")


def test_c02_monotonicity():
    """Every sampled marginal gain is non-negative within 1e-8."""
    worst = np.inf
    for ctx, pairs in small_suite():
        for subset, a in pairs:
            worst = min(worst, ctx.marginal(a, subset))
    assert worst >= -1e-8


register_acceptance("test_c02_monotonicity", "C2  monotonicity of sampled marginals (200 instances, -1e-8)")


def test_c03_sandwich():
    """Marginal gains respect both cross-evaluated bounds within 1e-7."""
    worst = np.inf
    for ctx, pairs in small_suite():
        for subset, a in pairs:
            with_a = tuple(sorted(subset + (a,)))
            f_s, st_s = ctx.f_of(subset)
            f_sa, st_sa = ctx.f_of(with_a)
            gain = f_sa - f_s
            x_a, y_a = ctx.train.features[a], ctx.train.targets[a]
            w_lo = solve_inner_linear(st_s.mu, with_a, ctx.train, ctx.valpart, ctx.lam).w
            lower = ctx.lam * w_lo @ w_lo + (y_a - w_lo @ x_a) ** 2
            w_up = solve_inner_linear(st_sa.mu, subset, ctx.train, ctx.valpart, ctx.lam).w
            upper = ctx.lam * w_up @ w_up + (y_a - w_up @ x_a) ** 2
            worst = min(worst, gain - lower, upper - gain)
    assert worst >= -1e-7


register_acceptance("test_c03_sandwich", "C3  marginal-gain sandwich bounds (same suite, 1e-7)")


def test_c04_norm_bound():
    """Trained parameters satisfy the closed-form norm bound."""
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        seed = int(rng.integers(0, 10_000))
        q = 1 + checked % 2
        train, val, vp, lam, C = make_problem(seed, n=7, q=q)
        y_all = np.concatenate([train.targets, val.targets])
        x_all = np.vstack([train.features, val.features])
        bound = (
            (1 + C * q) * np.max(np.abs(y_all)) * np.max(np.linalg.norm(x_all, axis=1)) / lam
        )
        mu = rng.uniform(0, C, q)
        size = int(rng.integers(1, 6))
        subset = sorted(int(v) for v in rng.choice(7, size=size, replace=False))
        w = solve_inner_linear(mu, subset, train, vp, lam)
        assert np.linalg.norm(w.w) <= bound + 1e-9
        checked += 1


register_acceptance("test_c04_norm_bound", "C4  trained-parameter norm bound (200 samples, 1e-9)")


def test_c05_duality():
    """Strong duality for the linear model; weak duality for two-layer."""
    for seed in range(50):
        train, _, vp, lam, C = make_problem(4000 + seed, n=6, q=1 + seed % 2)
        subset = sorted(
            int(v) for v in np.random.default_rng(seed).choice(6, size=3, replace=False)
        )
        f = train_dual_exact(subset, train, vp, lam, C, CFG).f_value
        g = primal_value(subset, train, vp, lam, C, tol=1e-7)
        assert abs(f - g) <= 1e-4 * max(abs(f), 1e-12)
    for seed in range(6):
        train, _, vp, lam, C = make_problem(4600 + seed, n=5)
        subset = [0, 2, 4]
        f = train_dual_sgd(subset, train, vp, lam, C, CFG, model_kind="two_layer").f_value
        g = primal_value(subset, train, vp, lam, C, tol=1e-6, model_kind="two_layer", seed=1)
        assert f <= g + 1e-2 * (1.0 + abs(g))


register_acceptance("test_c05_duality", "C5  strong duality (linear, 1e-4 rel) and weak duality (two-layer)")


def test_c06_bound_dominance():
    """The modular bound with the measured ratio dominates f everywhere and
    is tight at the reference set."""
    instances = [(inst["ctx"], inst["alpha_emp"]) for inst in cert_suite()[:10]]
    for i in range(10):
        ctx = make_ctx(5000 + i, n=6, q=1 + i % 2)
        instances.append((ctx, empirical_alpha(ctx)))
    for i, (ctx, alpha) in enumerate(instances):
        n = ctx.train.n
        rng = np.random.default_rng(i)
        s_hat = tuple(sorted(int(v) for v in rng.choice(n, size=2, replace=False)))
        report = check_modular_bound(ctx, s_hat, alpha)
        assert report.worst_slack >= -1e-8
        assert report.details["tight_gap"] <= 1e-9


register_acceptance("test_c06_bound_dominance", "C6  modular bound dominance on 20 exhaustive instances")


def test_c07_descent():
    """Objective trace is non-increasing under exact training, 50 runs."""
    runs = 0
    for i in range(35):
        inst = certified_instance(6000 + i, n=6 + i % 3, k=2 + i % 2)
        result = run_selcon(
            inst["ctx"], SelconConfig(k=inst["k"], seed=i, alpha_mode="certified")
        )
        values = [v for _, v, _ in result.trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        runs += 1
    for i in range(15):
        ctx = make_ctx(6500 + i, n=6, q=1 + i % 2)
        result = run_selcon(ctx, SelconConfig(k=2, seed=i, alpha_mode="empirical"))
        values = [v for _, v, _ in result.trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        runs += 1
    assert runs == 50


register_acceptance("test_c07_descent", "C7  per-iteration descent over 50 exact-backend runs (1e-9)")


def test_c08_ratio_perfect():
    """The selected set is within the guarantee ratio of the brute optimum."""
    for inst in cert_suite():
        ctx, k = inst["ctx"], inst["k"]
        result = run_selcon(ctx, SelconConfig(k=k, seed=7, alpha_mode="empirical"))
        s_star, f_star = inst["brute"]
        ratio, _ = approx_ratio(k, inst["alpha_emp"], inst["kappa_emp"], 0.0, 1.0)
        assert result.f_value <= ratio * f_star + 1e-12


register_acceptance("test_c08_ratio_perfect", "C8  exact-training guarantee vs brute force (20 instances)")


def test_c09_certificates():
    """Closed-form ratio and curvature certificates bound the measured
    values; spot values match."""
    for inst in cert_suite():
        consts = inst["consts"]
        a_hat = alpha_hat_linear(inst["lam"], inst["C"], 1, consts)
        k_hat = kappa_hat(inst["C"], 1, consts.y_max, ell_star_linear(inst["ctx"].train, consts.x_max))
        assert inst["alpha_emp"] >= a_hat - 1e-9
        assert inst["kappa_emp"] <= k_hat + 1e-9
    spot = data_constants(
        Dataset(features=np.array([[1.0]]), targets=np.array([1.0])),
        Dataset(features=np.array([[0.0]]), targets=np.array([1.0])),
    )
    assert alpha_hat_linear(128.0, 1.0, 1, spot) == pytest.approx(0.5)
    assert kappa_hat(1.0, 1, 1.0, 0.5) == pytest.approx(0.75)


register_acceptance("test_c09_certificates", "C9  certified ratio/curvature bounds + spot values")


def test_c10_imperfect_training():
    """The stochastic trainer's error is small relative to the per-element
    floor, and its selections satisfy the degraded guarantee."""
    for ctx in moderate_suite():
        n = ctx.train.n
        eps = 0.0
        for i in range(n):
            exact = ctx.f_of((i,))[0]
            approx = train_dual_sgd((i,), ctx.train, ctx.valpart, ctx.lam, ctx.C, CFG)
            eps = max(eps, abs(approx.f_value - exact))
        ell_value = ell(ctx.train, ctx.lam)
        assert eps <= 0.02 * ell_value

        sgd_ctx = SetFnContext(
            train=ctx.train, valpart=ctx.valpart, lam=ctx.lam, C=ctx.C,
            backend="sgd", trainer=CFG,
        )
        result = run_selcon(
            sgd_ctx, SelconConfig(k=2, L=3, seed=1, alpha_mode="fixed", alpha_value=1.0)
        )
        s_star, f_star = brute_force_optimum(ctx, 2)
        alpha_emp = empirical_alpha(ctx)
        kappa_emp = empirical_kappa_max(ctx)
        _, ratio_imp = approx_ratio(2, alpha_emp, kappa_emp, eps, ell_value)
        f_true_of_selected = ctx.f_of(result.selected)[0]
        assert f_true_of_selected <= ratio_imp * f_star + 1e-12


register_acceptance("test_c10_imperfect_training", "C10 imperfect-training regime: eps <= 0.02*ell and degraded ratio")


def test_c11_gradient_correctness():
    """Analytic gradients match central finite differences to 1e-5 relative."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        if seed % 2 == 0:
            model = LinearModel(w=rng.normal(size=d))
        else:
            m = int(rng.integers(2, 5))
            model = TwoLayerModel(hidden=rng.normal(size=(m, d)), output=rng.normal(size=m))
        x = rng.normal(size=d)
        y = float(rng.normal())
        g = loss_grad(model, x, y)
        p0 = params_of(model)
        fd = np.zeros_like(p0)
        for j in range(len(p0)):
            plus, minus = p0.copy(), p0.copy()
            plus[j] += 1e-6
            minus[j] -= 1e-6
            fd[j] = (
                (y - predict(model_from_params(model, plus), x)) ** 2
                - (y - predict(model_from_params(model, minus), x)) ** 2
            ) / 2e-6
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


register_acceptance("test_c11_gradient_correctness", "C11 analytic vs finite-difference gradients (100 seeds, 1e-5)")


def test_c12_delta_trend():
    """Median test error at the tightest bound is at most the loosest's."""
    rows = delta_trend(10, [8.0, 4.0, 1.0, 0.25], n=400, d=4, k=40, lam=0.3, C=10.0)
    tightest = [r["value"] for r in rows if r["scale"] == 0.25]
    loosest = [r["value"] for r in rows if r["scale"] == 8.0]
    assert np.median(tightest) <= np.median(loosest)


register_acceptance("test_c12_delta_trend", "C12 test error improves as the bound tightens (n=400, 10 seeds)")


def test_c13_fairness():
    """At the tightest bound the driver's selection yields at most the
    random baseline's fairness violation in at least 7 of 10 seeds."""
    [row] = fairness_study(10, [0.25], k=12, lam=0.1, C=20.0)
    assert row["wins"] >= 7


register_acceptance("test_c13_fairness", "C13 fairness violation vs constrained random (>= 7/10 seeds)")


def test_c14_offset_effect():
    """Growing target offsets strictly shrink the target spread and the
    guarantee ratio built from the closed-form constants."""
    base_train = Dataset(
        features=np.array([[0.9], [0.8], [1.0]]), targets=np.array([1.0, 2.0, 3.0])
    )
    base_val = Dataset(features=np.array([[0.7]]), targets=np.array([2.0]))
    spreads, ratios = [], []
    for c in [0.0, 2.0, 4.0, 8.0, 16.0]:
        train = offset_augment(base_train, c)
        val = offset_augment(base_val, c)
        consts = data_constants(train, val)
        spreads.append(consts.y_max / consts.y_min)
        lam = 2.0 * lambda_min_linear(1.0, 1, consts)
        a_hat = alpha_hat_linear(lam, 1.0, 1, consts)
        k_hat = kappa_hat(1.0, 1, consts.y_max, ell_star_linear(train, consts.x_max))
        ratio, _ = approx_ratio(2, a_hat, k_hat, 0.0, ell(train, lam))
        ratios.append(ratio)
    assert all(b < a for a, b in zip(spreads, spreads[1:]))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


register_acceptance("test_c14_offset_effect", "C14 offsets strictly improve spread and guarantee ratio")


def test_c15_determinism(tmp_path, monkeypatch):
    """Identical reports from the CLI regardless of the thread cap (the flag
    is ignored) and of how many subsets one exact solve stacks; with alpha
    fixed at 1 the MM step moves, so the stacks are real."""
    data = tmp_path / "data.csv"
    assert cli.main(["gen", "--n", "120", "--d", "3", "--noise", "0.3",
                     "--seed", "1", "--out", str(data)]) == 0
    outputs = []
    for chunk_floats in (1, 60, setfn._CHUNK_FLOATS):
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", chunk_floats)
        for threads in ("1", "8"):
            out = tmp_path / f"report{chunk_floats}_{threads}.json"
            code = cli.main([
                "select", "--data", str(data), "--target", "y",
                "--lambda", "0.5", "--C", "1.0", "--delta", "0.4", "--k", "8",
                "--alpha-mode", "fixed", "--alpha-value", "1",
                "--threads", threads, "--seed", "3", "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
    assert len(json.loads(outputs[0])["trace"]) > 1
    assert all(o == outputs[0] for o in outputs[1:])


register_acceptance("test_c15_determinism", "C15 byte-identical CLI reports across thread counts and stack sizes")
