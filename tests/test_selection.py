import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_ctx, make_problem
from selcon import cli, dual, selection, setfn
from selcon.bounds import claim1_min
from selcon.dataset import Dataset, offset_augment
from selcon.errors import InvalidAlpha, InvalidK
from selcon.metrics import mse
from selcon.oracle import empirical_alpha
from selcon.scenarios import build_context, corrupted_pool
from selcon.selection import (
    SelconConfig,
    _certified_k_smallest,
    _digest,
    _k_smallest,
    _leave_one_out_family,
    _singleton_family,
    modular_scores,
    random_subset,
    resolve_alpha,
    run_selcon,
    run_selcon_unconstrained,
)
from selcon.setfn import SetFnContext


class TestModularScores:
    def test_tight_at_reference(self):
        ctx = make_ctx(40, n=6)
        s_hat = (0, 2, 4)
        scores = modular_scores(ctx, s_hat, alpha=0.8)
        f_hat = ctx.f_of(s_hat)[0]
        const = f_hat - sum(scores[i] for i in s_hat)
        assert const + sum(scores[i] for i in s_hat) == pytest.approx(f_hat, abs=1e-9)

    def test_in_set_scores_nonnegative(self):
        ctx = make_ctx(41, n=6, q=2)
        scores = modular_scores(ctx, (1, 3), alpha=0.9)
        for i in (1, 3):
            assert scores[i] >= -1e-8

    def test_alpha_one_matches_classic_scores(self):
        ctx = make_ctx(42, n=6)
        s_hat = (0, 1)
        scores = modular_scores(ctx, s_hat, alpha=1.0)
        f_hat = ctx.f_of(s_hat)[0]
        f0 = ctx.f_empty()
        for i in range(6):
            if i in s_hat:
                want = f_hat - ctx.f_of(tuple(j for j in s_hat if j != i))[0]
            else:
                want = ctx.f_of((i,))[0] - f0
            assert scores[i] == pytest.approx(want, abs=1e-12)

    def test_leave_one_out_sets_not_cached(self):
        ctx = make_ctx(44, n=7)
        s_hat = (1, 2, 4, 6)
        modular_scores(ctx, s_hat, alpha=1.0)
        sizes = {len(key) for key in ctx._cache}
        assert len(s_hat) in sizes and len(s_hat) - 1 not in sizes

    def test_requires_positive_alpha(self):
        ctx = make_ctx(43, n=5)
        with pytest.raises(InvalidAlpha):
            modular_scores(ctx, (0,), alpha=0.0)


class TestRunSelcon:
    def test_k_equals_n(self):
        ctx = make_ctx(44, n=5)
        result = run_selcon(ctx, SelconConfig(k=5, seed=0, alpha_mode="fixed", alpha_value=1.0))
        assert result.selected == (0, 1, 2, 3, 4)

    def test_invalid_k(self):
        ctx = make_ctx(45, n=4)
        with pytest.raises(InvalidK):
            run_selcon(ctx, SelconConfig(k=5, seed=0))

    def test_starts_from_random_subset(self):
        ctx = make_ctx(46, n=9)
        result = run_selcon(ctx, SelconConfig(k=4, seed=5, alpha_mode="fixed", alpha_value=1.0))
        assert result.trace[0][2] == _digest(random_subset(9, 4, 5))

    def test_trace_non_increasing_exact(self):
        for seed in range(8):
            ctx = make_ctx(seed + 46, n=7, q=1 + seed % 2)
            result = run_selcon(
                ctx, SelconConfig(k=2 + seed % 2, seed=seed, alpha_mode="empirical")
            )
            values = [v for _, v, _ in result.trace]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-9

    def test_report_identical_across_chunk_sizes(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        assert cli.main(["gen", "--n", "120", "--d", "3", "--groups", "3", "--noise", "0.3",
                         "--seed", "4", "--out", str(data)]) == 0
        outputs = []
        for chunk_floats in (1, 7, 7 * (3 * (3 + 3) + 3 * 3 * 3), setfn._CHUNK_FLOATS):
            monkeypatch.setattr(setfn, "_CHUNK_FLOATS", chunk_floats)
            out = tmp_path / f"report{chunk_floats}.json"
            assert cli.main([
                "select", "--data", str(data), "--target", "y", "--group", "group",
                "--partition", "by_group", "--lambda", "0.5", "--C", "2.0",
                "--delta", "auto", "--k", "8", "--alpha-mode", "fixed",
                "--alpha-value", "1.0", "--seed", "2", "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs[1:])

    # f(empty) is not certified here, its faces run Newton, the trace moves
    # three times and the final multipliers are (C, interior).
    INTERIOR = dict(n=16, d=3, q=2, C=5.0, delta=0.4, lam=0.2)
    INTERIOR_CFG = SelconConfig(k=5, seed=1, L=6, alpha_mode="fixed", alpha_value=1.0)

    @pytest.mark.parametrize("chunk_floats", [1, 7], ids=["1", "7"])
    def test_driver_independent_of_chunk_size(self, monkeypatch, chunk_floats):
        def run():
            result = run_selcon(make_ctx(61, **self.INTERIOR), self.INTERIOR_CFG)
            return result.selected, result.f_value, result.trace, result.state.mu.tolist()

        want = run()
        assert len(want[2]) == 4 and 0.0 < want[3][1] < self.INTERIOR["C"]
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", chunk_floats)
        assert run() == want

    def test_empty_set_solved_once_in_the_first_stack(self, monkeypatch):
        # f(empty) is solved exactly once per context, in the first stack, next
        # to the random start; no MM iteration solves it again.
        ctx = make_ctx(61, **self.INTERIOR)
        assert not np.all(ctx.valpart.pooled_errors <= ctx.valpart.delta)
        stacks = []
        many = dual.train_dual_exact_many
        record = lambda subsets, *a: stacks.append([tuple(s) for s in subsets]) or many(subsets, *a)
        monkeypatch.setattr(setfn, "train_dual_exact_many", record)
        monkeypatch.setattr(dual, "train_dual_exact_many", record)
        result = run_selcon(ctx, self.INTERIOR_CFG)
        start = random_subset(ctx.train.n, self.INTERIOR_CFG.k, self.INTERIOR_CFG.seed)
        assert stacks[0] == [(), start]
        assert [stack for stack in stacks if () in stack] == [stacks[0]]
        assert len(result.trace) > 1

    def test_k_one_solves_the_empty_set_once(self, monkeypatch):
        # At k = 1 every leave-one-out set is empty: the step reads f(empty)
        # from the first stack instead of solving it again.
        ctx = make_ctx(61, **self.INTERIOR)
        rows = []
        many = dual.train_dual_exact_many
        record = lambda subsets, *a: rows.extend(tuple(s) for s in subsets) or many(subsets, *a)
        monkeypatch.setattr(setfn, "train_dual_exact_many", record)
        monkeypatch.setattr(dual, "train_dual_exact_many", record)
        result = run_selcon(ctx, replace(self.INTERIOR_CFG, k=1))
        assert rows.count(()) == 1 and len(result.trace) > 1

    def test_early_stop_at_fixed_point(self):
        ctx = make_ctx(55, n=6)
        cfg = SelconConfig(k=2, seed=0, L=50, alpha_mode="fixed", alpha_value=1.0)
        result = run_selcon(ctx, cfg)
        assert len(result.trace) < 50

    def test_alpha_floor_when_certificate_vacuous(self):
        # Small lam: the certified ratio is negative, so the floor applies.
        ctx = make_ctx(56, n=6, lam=0.5, C=1.0)
        cfg = SelconConfig(k=2, seed=0, alpha_mode="certified")
        result = run_selcon(ctx, cfg)
        assert result.alpha_used == pytest.approx(0.05)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, None])
    def test_fixed_alpha_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="positive, finite alpha_value"):
            SelconConfig(k=2, alpha_mode="fixed", alpha_value=value)

    @pytest.mark.parametrize("mode", ["certified", "empirical"])
    def test_alpha_value_needs_fixed_mode(self, mode):
        with pytest.raises(ValueError, match="alpha_value is read only with alpha_mode 'fixed'"):
            SelconConfig(k=2, alpha_mode=mode, alpha_value=3.0)

    def test_alpha_floor_is_a_constant(self):
        assert selection.ALPHA_FLOOR == 0.05
        with pytest.raises(TypeError):
            SelconConfig(k=2, alpha_floor=0.5)

    def test_certified_alpha_used_when_valid(self):
        from selcon.bounds import alpha_hat_linear, data_constants, lambda_min_linear

        base = make_ctx(57, n=6, y_lo=0.5, y_hi=1.5)
        consts = data_constants(base.train, base.valpart.data)
        lam = 2.0 * lambda_min_linear(base.C, 1, consts)
        ctx = base.__class__(
            train=base.train, valpart=base.valpart, lam=lam, C=base.C, trainer=base.trainer
        )
        result = run_selcon(ctx, SelconConfig(k=2, seed=0, alpha_mode="certified"))
        assert result.alpha_used == pytest.approx(
            alpha_hat_linear(lam, ctx.C, 1, consts)
        )


    def test_certified_alpha_is_the_floor_for_two_layer(self):
        from selcon.bounds import alpha_hat_linear, data_constants, lambda_min_linear

        base = make_ctx(57, n=6, y_lo=0.5, y_hi=1.5)
        consts = data_constants(base.train, base.valpart.data)
        linear = replace(base, lam=2.0 * lambda_min_linear(base.C, 1, consts))
        cfg = SelconConfig(k=2, seed=0, alpha_mode="certified")
        assert resolve_alpha(linear, cfg) == alpha_hat_linear(linear.lam, linear.C, 1, consts)
        assert resolve_alpha(linear, cfg) > selection.ALPHA_FLOOR
        two_layer = replace(linear, backend="sgd", model_kind="two_layer")
        assert resolve_alpha(two_layer, cfg) == selection.ALPHA_FLOOR

    def test_integer_C_gives_the_float_C_run(self):
        # The claim regime: a constant column on every fold, lam 0.005 and
        # the 30% rule.  An int C once truncated every multiplier step.
        train, val, _ = (offset_augment(fold, 0) for fold in corrupted_pool(0, 400, 8))
        cfg = SelconConfig(k=32, L=10, alpha_mode="fixed", alpha_value=1.0)
        runs = [run_selcon(build_context(train, val, lam=0.005, C=C, delta="auto"), cfg)
                for C in (96, 96.0)]
        got, want = [(r.selected, r.f_value, r.state.mu.tolist(), r.state.converged)
                     for r in runs]
        assert got == want and want[3]

    def test_refinement_keeps_to_the_stack_budget(self, monkeypatch):
        # The claim regime at 320 training rows: the first refinement has
        # hundreds of undecided singletons, and each (B, d, d) stack of
        # newton_bounds must stay under _CHUNK_FLOATS like every other solve.
        train, val, _ = (offset_augment(fold, 0) for fold in corrupted_pool(0, 400, 8))
        cfg = SelconConfig(k=32, L=10, alpha_mode="fixed", alpha_value=1.0)

        def run():
            result = run_selcon(build_context(train, val, lam=0.005, C=96.0, delta="auto"), cfg)
            return result.selected, result.f_value, result.trace, result.state.mu.tolist()

        want = run()
        rows = []
        bounds = selection.newton_bounds
        monkeypatch.setattr(selection, "newton_bounds",
                            lambda base, *a: rows.append(len(base)) or bounds(base, *a))
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", 465)  # 5 rows of d (d + Q) + 3 Q^2 = 93
        assert run() == want
        assert rows and max(rows) <= 5


class TestUnconstrained:
    def test_identical_when_C_already_zero(self):
        a = make_ctx(58, n=6, C=0.0)
        b = make_ctx(58, n=6, C=0.0)
        cfg = SelconConfig(k=2, seed=1, alpha_mode="fixed", alpha_value=1.0)
        ra = run_selcon(a, cfg)
        rb = run_selcon_unconstrained(b, cfg)
        assert ra.selected == rb.selected
        assert ra.f_value == pytest.approx(rb.f_value)

    def test_first_iteration_scores_are_scaled_claim_forms(self):
        ctx = make_ctx(59, n=6, C=0.0)
        alpha = 0.5
        scores = modular_scores(ctx, (0, 1), alpha=alpha)
        for i in range(2, 6):
            want = claim1_min(ctx.lam, ctx.train.targets[i], ctx.train.features[i]) / alpha
            assert scores[i] == pytest.approx(want, abs=1e-10)

    def test_huge_delta_matches_unconstrained(self):
        # With the bound effectively infinite the multipliers stay at zero,
        # so the constrained run equals the unconstrained one.
        ctx = make_ctx(120, n=8, C=1.5, delta=1e9)
        cfg = SelconConfig(k=3, seed=4)
        res = run_selcon(ctx, cfg)
        ref = run_selcon_unconstrained(ctx, cfg)
        val = ctx.valpart.data
        assert res.selected == ref.selected
        assert mse(res.state.model, val) == pytest.approx(mse(ref.state.model, val), rel=1e-9)

    def test_seeded_determinism(self):
        cfg = SelconConfig(k=3, seed=7, alpha_mode="fixed", alpha_value=1.0)
        r1 = run_selcon_unconstrained(make_ctx(60, n=7), cfg)
        r2 = run_selcon_unconstrained(make_ctx(60, n=7), cfg)
        assert r1.selected == r2.selected
        assert r1.method == "selcon-unconstrained"


def _reference_run(ctx, cfg):
    """The MM loop with every score solved cold."""
    s_hat = random_subset(ctx.train.n, cfg.k, cfg.seed)
    alpha = selection.resolve_alpha(ctx, cfg)
    trace = []
    for it in range(cfg.L):
        f_hat = ctx.f_of(s_hat)[0]
        trace.append((it, f_hat, _digest(s_hat)))
        scores = (ctx.singletons() - ctx.f_empty()) / alpha
        loo = ctx.leave_one_out(np.array(s_hat))
        scores[list(s_hat)] = alpha * (f_hat - loo)
        s_next = _k_smallest(scores, cfg.k)
        if s_next == s_hat:
            break
        s_hat = s_next
    f_final = ctx.f_of(s_hat)[0]
    if trace[-1][2] != _digest(s_hat):
        trace.append((len(trace), f_final, _digest(s_hat)))
    return s_hat, f_final, trace


class TestWarmLeaveOneOut:
    """The sgd backend's leave-one-out rows train from scratch, as f_of's do."""

    @pytest.mark.parametrize("k", [1, 5], ids=["cold-1", "cold-5"])
    def test_sgd_driver_equals_the_reference_loop(self, k):
        from selcon.dual import TrainerConfig

        make = lambda: make_ctx(63, n=10, q=2, backend="sgd",
                                trainer=TrainerConfig(epochs=20, seed=1))
        moved = 0
        for seed in range(3):
            cfg = SelconConfig(k=k, L=3, seed=seed, alpha_mode="fixed", alpha_value=0.8)
            result = run_selcon(make(), cfg)
            assert (result.selected, result.f_value, result.trace) == _reference_run(make(), cfg)
            moved += len(result.trace) > 1
        assert moved >= 2


class TestBoundDominance:
    def test_assembled_bound_dominates_f(self):
        # With the instance's exhaustively measured ratio, the modular bound
        # built at the driver's final set dominates f everywhere.
        ctx = make_ctx(61, n=6, q=2)
        result = run_selcon(ctx, SelconConfig(k=2, seed=3, alpha_mode="empirical"))
        alpha = empirical_alpha(ctx)
        scores = modular_scores(ctx, result.selected, alpha)
        f_hat = ctx.f_of(result.selected)[0]
        const = f_hat - sum(scores[i] for i in result.selected)
        for mask in range(64):
            members = [i for i in range(6) if mask >> i & 1]
            bound = const + sum(scores[i] for i in members)
            assert bound >= ctx.f_of(tuple(members))[0] - 1e-8


def _certified_instance(q, C, small_groups, delta, scaled=False):
    """A 16-row pool whose rows 12..15 repeat rows 0, 3, 3 and 7, so that
    scores tie exactly; with ``small_groups`` each validation group has two
    rows, fewer than d = 3.  ``scaled`` stretches the data to stress rounding."""
    train, _, vp, _, _ = make_problem(10 * q + small_groups, n=12, d=3, q=q,
                                      nval=2 * q if small_groups else 12, delta=delta, lam=0.5)
    rows = np.r_[np.arange(12), [0, 3, 3, 7]]
    X, y = train.features[rows], train.targets[rows]
    if scaled:
        X, y = 30.0 * X, 10.0 * y + 100.0
    train = Dataset(features=X, targets=y)
    return lambda: SetFnContext(train=train, valpart=vp, lam=0.5, C=C)


CERTIFIED_GRID = list(itertools.product((1, 2, 3, 5), (0.0, 2.0, 1e3), (False, True), (0.2, 0.6)))


class TestCertifiedStep:
    """The driver's step equals ``_k_smallest(modular_scores(...))`` while it
    solves exactly only the elements its duality intervals cannot place."""

    @staticmethod
    def certified(make, s_hat, alpha):
        ctx = make()
        ctx.f_many([(), s_hat])
        return _certified_k_smallest(ctx, s_hat, ctx.f_of(s_hat)[0], alpha, _singleton_family(ctx))

    def test_equals_the_reference_step(self):
        ties = interior = saturated = 0
        for q, C, small_groups, delta in CERTIFIED_GRID:
            make = _certified_instance(q, C, small_groups, delta)
            ref = make()
            mu = ref.mu_many([(i,) for i in range(16)])
            interior += bool(((mu > 1e-9) & (mu < (1 - 1e-9) * C)).any())
            saturated += bool(C > 0 and (mu == C).any())
            rng = np.random.default_rng(q)
            for alpha, k in itertools.product((0.5, 1.0), (1, 3, 8, 15)):
                s_hat = tuple(sorted(rng.choice(16, k, replace=False).tolist()))
                scores = modular_scores(ref, s_hat, alpha)
                order = np.lexsort((np.arange(16), scores))
                ties += scores[order[k - 1]] == scores[order[k]]
                assert self.certified(make, s_hat, alpha) == _k_smallest(scores, k), \
                    (q, C, small_groups, delta, alpha, s_hat)
        # The grid reaches interior and saturated multipliers, and exact score
        # ties at the k-th place, which only the index tie-break resolves.
        assert interior >= 5 and saturated >= 5 and ties >= 20

    def test_ill_conditioned_downdates_are_solved_exactly(self, monkeypatch):
        monkeypatch.setattr(dual, "_DOWNDATE_FLOOR", 2.0)  # every downdate counts as one
        make = _certified_instance(2, 2.0, True, 0.6)
        s_hat = (1, 4, 9, 13)
        loo = _leave_one_out_family(make(), np.array(s_hat))
        assert np.isneginf(loo.lo).all() and np.isposinf(loo.hi).all() and loo.refined.all()
        want = _k_smallest(modular_scores(make(), s_hat, 1.0), 4)
        assert self.certified(make, s_hat, 1.0) == want

    def test_escape_voids_the_unsolved_intervals(self):
        make = _certified_instance(1, 2.0, True, 0.6)
        family = _singleton_family(make())
        family.refined[:] = True
        family.hi[:] = -1.0  # below every f({i}) >= 0
        assert family.tighten(np.array([0, 5])) is False
        assert family.exact[[0, 5]].all() and family.lo[0] == family.hi[0] >= 0.0
        solved = family.lo[[0, 5]].copy()
        family.void()
        assert np.array_equal(family.lo[[0, 5]], solved) and family.refined.all()
        rest = ~family.exact
        assert np.isneginf(family.lo[rest]).all() and np.isposinf(family.hi[rest]).all()

    @pytest.mark.parametrize("q,C", [(1, 2.0), (2, 1e3), (3, 0.0)])
    def test_escaped_value_keeps_the_step(self, monkeypatch, q, C):
        # Every tighten reports an escape, so the families drop their
        # intervals each time, and the step still returns the same subsets.
        make = _certified_instance(q, C, True, 0.6)
        runs = [SelconConfig(k=k, seed=2, L=4, alpha_mode="fixed", alpha_value=1.0)
                for k in (1, 3, 8)]
        want = [run_selcon(make(), cfg) for cfg in runs]
        escapes = []
        tighten = selection._Family.tighten
        def escape(family, rows):
            tighten(family, rows)
            escapes.append(len(rows))
            return False
        monkeypatch.setattr(selection._Family, "tighten", escape)
        for cfg, ref in zip(runs, want):
            got = run_selcon(make(), cfg)
            assert (got.selected, got.f_value, got.trace) == (ref.selected, ref.f_value, ref.trace)
        assert sum(escapes) > 0

    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    def test_intervals_contain_the_exact_values(self, scaled):
        for q, C, small_groups, delta in CERTIFIED_GRID:
            ctx = _certified_instance(q, C, small_groups, delta, scaled)()
            ctx.f_many([()])
            s_hat = np.array([0, 2, 3, 7, 12, 15])
            families = [(_singleton_family(ctx), ctx.f_many([(i,) for i in range(16)])),
                        (_leave_one_out_family(ctx, s_hat), ctx.leave_one_out(s_hat))]
            for family, exact in families:
                assert np.all((family.lo <= exact) & (exact <= family.hi)), (q, C, small_groups)
                family.tighten(np.flatnonzero(~family.refined))
                assert np.all((family.lo <= exact) & (exact <= family.hi)), (q, C, small_groups)

    def test_few_singletons_solved_exactly(self, monkeypatch):
        kw = dict(n=200, d=3, q=1, nval=4, C=2.0, delta=0.6, lam=0.5)
        solved = set()
        many = dual.train_dual_exact_many
        def record(subsets, *a):
            solved.update(tuple(s) for s in subsets if len(s) == 1)
            return many(subsets, *a)
        monkeypatch.setattr(setfn, "train_dual_exact_many", record)
        result = run_selcon(make_ctx(61, **kw),
                            SelconConfig(k=20, seed=1, L=6, alpha_mode="fixed", alpha_value=1.0))
        assert len(result.trace) > 2 and len(solved) <= 20
        monkeypatch.undo()
        # Most singleton multipliers are interior: no corner bound is tight.
        mu = make_ctx(61, **kw).mu_many([(i,) for i in range(200)])[:, 0]
        assert np.mean((mu > 1e-9) & (mu < (1 - 1e-9) * kw["C"])) > 0.5
