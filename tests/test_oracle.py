import argparse
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_ctx
from selcon import cli, dual, oracle, setfn
from selcon.dual import TrainerConfig, solve_inner_linear
from selcon.bounds import (
    alpha_hat_linear,
    data_constants,
    ell_star_linear,
    kappa_hat,
    lambda_min_linear,
)
from selcon.errors import InvalidK, TooLarge
from selcon.oracle import (
    DENOM_CUTOFF,
    MAX_EXHAUSTIVE_N,
    MODULAR_TOL,
    TIGHT_TOL,
    brute_force_optimum,
    check_modular_bound,
    check_monotone,
    check_sandwich,
    empirical_alpha,
    empirical_kappa,
    empirical_kappa_max,
    f_table,
)
from selcon.selection import SelconConfig, modular_scores, run_selcon
from selcon.setfn import SetFnContext


def drawn_pairs(n, trials, seed):
    """The oracles' batched (S, a) draw, one sorted pair at a time."""
    sizes, orders = oracle._draw_pairs(n, trials, seed)
    return [(tuple(sorted(orders[t, :sizes[t]].tolist())), int(orders[t, sizes[t]]))
            for t in range(trials)]


def certified_ctx(seed, n=6, C=1.0):
    base = make_ctx(seed, n=n, y_lo=0.5, y_hi=1.5, C=C)
    consts = data_constants(base.train, base.valpart.data)
    lam = float(lambda_min_linear(C, 1, consts) * (1.0 + 0.3 * (seed % 3)))
    return (
        SetFnContext(
            train=base.train, valpart=base.valpart, lam=lam, C=C, trainer=base.trainer
        ),
        consts,
        lam,
    )


class TestBruteForce:
    def test_claim_form_minimum(self, tiny_ctx):
        s_star, f_star = brute_force_optimum(tiny_ctx, 1)
        assert s_star == (2,)
        assert f_star == pytest.approx(0.2, abs=1e-12)

    def test_k_equals_n(self, tiny_ctx):
        s_star, _ = brute_force_optimum(tiny_ctx, 3)
        assert s_star == (0, 1, 2)

    def test_cap(self, tiny_ctx):
        with pytest.raises(TooLarge):
            brute_force_optimum(tiny_ctx, 1, cap=2)

    def test_invalid_k(self, tiny_ctx):
        with pytest.raises(InvalidK):
            brute_force_optimum(tiny_ctx, 9)

    def test_optimum_below_sampled_subsets(self):
        ctx = make_ctx(70, n=7)
        _, f_star = brute_force_optimum(ctx, 3)
        rng = np.random.default_rng(0)
        for _ in range(15):
            subset = tuple(sorted(rng.choice(7, size=3, replace=False)))
            assert f_star <= ctx.f_of(subset)[0] + 1e-12


class TestEmpiricalAlpha:
    def test_single_element_is_one(self):
        ctx = make_ctx(71, n=1)
        assert empirical_alpha(ctx) == pytest.approx(1.0, abs=1e-12)

    def test_at_most_one_for_monotone(self):
        ctx = make_ctx(72, n=5, q=2)
        assert empirical_alpha(ctx) <= 1.0 + 1e-12

    def test_certified_lower_bound(self):
        for seed in range(4):
            ctx, consts, lam = certified_ctx(seed)
            a_emp = empirical_alpha(ctx)
            a_hat = alpha_hat_linear(lam, ctx.C, 1, consts)
            assert a_emp >= a_hat - 1e-9

    def test_too_large(self):
        ctx = make_ctx(74, n=MAX_EXHAUSTIVE_N + 1)
        with pytest.raises(TooLarge):
            empirical_alpha(ctx)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("q", [1, 2])
    def test_detail_matches_brute_force(self, n, q):
        ctx = make_ctx(90 + n, n=n, q=q)
        best = math.inf
        for t in range(1 << n):
            t_set = [i for i in range(n) if t >> i & 1]
            for a in set(range(n)) - set(t_set):
                g_t = ctx.marginal(a, t_set)
                for s in range(1 << n):
                    if s & ~t or g_t <= DENOM_CUTOFF:
                        continue
                    g_s = ctx.marginal(a, [i for i in t_set if s >> i & 1])
                    best = min(best, g_s / g_t)
        value = empirical_alpha(make_ctx(90 + n, n=n, q=q))
        assert np.float64(value).tobytes() == np.float64(best).tobytes()


class TestEnumerationCap:
    """One cap, MAX_EXHAUSTIVE_N, stops every 2^n enumeration before any solve."""

    def test_f_table(self):
        ctx = make_ctx(75, n=MAX_EXHAUSTIVE_N + 1)
        with pytest.raises(TooLarge):
            f_table(ctx)
        assert ctx.cache_misses == 0

    def test_empirical_alpha_mode(self):
        ctx = make_ctx(75, n=MAX_EXHAUSTIVE_N + 1)
        with pytest.raises(TooLarge):
            run_selcon(ctx, SelconConfig(k=3, alpha_mode="empirical"))
        assert ctx.cache_misses == 0

    def test_modular_bound(self):
        ctx = make_ctx(75, n=MAX_EXHAUSTIVE_N + 1)
        with pytest.raises(TooLarge):
            check_modular_bound(ctx, (0, 1), 1.0)
        assert ctx.cache_misses == 0


class TestTable:
    """One exhaustive table per context, read-only, keyed by bit pattern."""

    def test_solved_once_per_context(self, monkeypatch):
        ctx = make_ctx(76, n=6, q=2)
        table = f_table(ctx)
        assert not table.flags.writeable
        keys = [tuple(np.flatnonzero(mask >> np.arange(6) & 1).tolist()) for mask in range(64)]
        assert np.array_equal(table, make_ctx(76, n=6, q=2).f_many(keys))
        calls = []
        monkeypatch.setattr(ctx, "f_many", lambda subsets: calls.append(subsets))
        assert f_table(ctx) is table and ctx.table is table
        assert calls == []

    def test_sgd_table_equals_the_cache_path(self):
        ctx = make_ctx(78, n=3, q=2, backend="sgd", trainer=TrainerConfig(epochs=5))
        f_table(ctx)
        ref = make_ctx(78, n=3, q=2, backend="sgd", trainer=TrainerConfig(epochs=5))
        keys = [tuple(np.flatnonzero(mask >> np.arange(3) & 1).tolist()) for mask in range(8)]
        assert np.array_equal(ctx.table, ref.f_many(keys)) and ctx.table_solve is None
        assert np.array_equal(ctx.mu_many(keys), ref.mu_many(keys)) and ctx.not_converged == 0

    def test_leave_one_out_equals_the_table(self):
        ctx = make_ctx(77, n=7, d=3, q=2)
        table = f_table(ctx)
        for s_hat in (np.array([3]), np.array([0, 2, 3, 6]), np.arange(7)):
            hat = int((1 << s_hat).sum())
            assert np.array_equal(ctx.leave_one_out(s_hat), table[hat ^ (1 << s_hat)])


def verify_contexts(seed):
    """The contexts of ``verify --n 7 --Q 2 --seed <seed>``: the instance at
    lam 1 and C 1, and the certificate instance at its lam."""
    train, valpart = cli._verify_instance(argparse.Namespace(n=7, d=2, Q=2, delta=0.5), seed)
    ctx = SetFnContext(train=train, valpart=valpart, lam=1.0, C=1.0)
    consts = data_constants(train, valpart.data)
    return ctx, replace(ctx, lam=1.5 * lambda_min_linear(1.0, 2, consts))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestJointTables:
    """Tables that differ only in lam, solved in one pass, equal the tables
    each context solves alone bit for bit."""

    @staticmethod
    def assert_equal_to_alone(ctx):
        alone = replace(ctx)
        f_table(alone)
        assert same_bits(ctx.table, alone.table)
        blocks, ref = (None if one.table_solve is None else one.table_solve[1] for one in (ctx, alone))
        if blocks is not None:
            assert ref is not None and all(map(same_bits, blocks, ref))
            assert same_bits(ctx.table_solve[0], alone.table_solve[0])
        keys = [tuple(np.flatnonzero(mask >> np.arange(7) & 1).tolist()) for mask in range(128)]
        for key in keys:  # the cached rows build the same states
            state, want = ctx.f_of(key)[1], alone.f_of(key)[1]
            assert same_bits(state.model.w, want.model.w) and same_bits(state.mu, want.mu)
            assert (state.iterations_used, state.converged) == (want.iterations_used, want.converged)
        assert (ctx.cache_misses, ctx.not_converged) == (alone.cache_misses, alone.not_converged)
        return blocks, ref

    @staticmethod
    def count_rows(monkeypatch):
        """Subsets of each stacked exact solve, and rows of each of its Gram
        assemblies (the face rows included), as lists that fill as they run."""
        stacks, rows = [], []
        solve, blocks = setfn.train_dual_exact_many, dual.gram_blocks
        monkeypatch.setattr(setfn, "train_dual_exact_many",
                            lambda subsets, *a: stacks.append(len(subsets)) or solve(subsets, *a))
        monkeypatch.setattr(dual, "gram_blocks",
                            lambda subsets, *a: rows.append(len(subsets)) or blocks(subsets, *a))
        return stacks, rows

    @pytest.mark.parametrize("seed,kind", [(18, "certified"), (20, "faced"), (31, "origin")])
    def test_equals_each_table_alone(self, monkeypatch, seed, kind):
        ctx, cert = verify_contexts(seed)
        empty = replace(ctx).f_of(())[1]
        certified = bool(np.all(ctx.valpart.pooled_errors <= ctx.valpart.delta))
        assert (certified, empty.f_value > 0) == {"certified": (True, False), "faced": (False, True),
                                                  "origin": (False, False)}[kind]
        with monkeypatch.context() as mp:
            stacks, rows = self.count_rows(mp)
            assert f_table(ctx, cert) is ctx.table
        # Each table keeps its own 128 rows, () included, and the stack runs
        # one set of Q = 2 face rows when f(empty) is not certified.
        assert (stacks, rows) == ([256], [256 + 2 * (not certified)])
        for one in (ctx, cert):
            blocks, ref = self.assert_equal_to_alone(one)
            assert blocks is not None
        assert ctx.table[0] == cert.table[0] == empty.f_value

    @pytest.mark.parametrize("chunk_floats,kept", [(1, [False, False]), (3368, [False, False])])
    def test_split_across_stacks(self, monkeypatch, chunk_floats, kept):
        # At 3368 floats the pass runs as two stacks of 128 rows, one per
        # table, each with its own () and faces.  A table keeps its solve only
        # when one stack holds the whole pass, so neither table keeps one,
        # though the instance's table alone is one stack.
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", chunk_floats)
        for seed in (20, 31):
            ctx, cert = verify_contexts(seed)
            assert len(ctx.stack_bounds(256, 7)) > 1
            with monkeypatch.context() as mp:
                stacks, rows = self.count_rows(mp)
                f_table(ctx, cert)
            if chunk_floats == 3368:
                assert (stacks, rows) == ([128, 128], [130, 130])
            assert [one.table_solve is not None for one in (ctx, cert)] == kept
            for one in (ctx, cert):
                blocks, ref = self.assert_equal_to_alone(one)
                assert (ref is None) == (chunk_floats == 1)

    def test_other_trainer_joins_the_pass(self, monkeypatch):
        # No exact solve reads TrainerConfig, so it does not keep a context
        # out of the joint pass.
        ctx, cert = verify_contexts(20)
        cert = replace(cert, trainer=TrainerConfig(seed=1, epochs=3))
        with monkeypatch.context() as mp:
            stacks, rows = self.count_rows(mp)
            f_table(ctx, cert)
        assert (stacks, rows) == ([256], [258])
        for one in (ctx, cert):
            blocks, ref = self.assert_equal_to_alone(one)
            assert blocks is not None

    def test_counts_non_converged_rows_per_table(self, monkeypatch):
        monkeypatch.setattr(dual, "_MAX_NEWTON_ITERS", 1)
        ctx, cert = verify_contexts(20)
        with pytest.warns(RuntimeWarning, match="not_converged"):
            f_table(ctx, cert)
        assert ctx.not_converged > 0 and cert.not_converged > 0
        with pytest.warns(RuntimeWarning, match="not_converged"):
            for one in (ctx, cert):
                self.assert_equal_to_alone(one)

    @pytest.mark.parametrize("change", ["C", "train", "valpart", "backend"])
    def test_contexts_must_differ_in_lam_only(self, change):
        ctx, _ = verify_contexts(18)
        other = replace(ctx, lam=2.0, **{
            "C": {"C": 2.0},
            "train": {"train": replace(ctx.train)},
            "valpart": {"valpart": replace(ctx.valpart)},
            "backend": {"backend": "sgd"},
        }[change])
        for first, second in ((ctx, other), (other, ctx)):
            with pytest.raises(ValueError, match="lam only"):
                f_table(first, second)
        assert all(one.table is None and not one._cache for one in (ctx, other))


class TestEmpiricalKappa:
    def test_singleton_contributes_zero(self):
        ctx = make_ctx(75, n=4)
        # For S = {a}, the candidate a gives ratio 1, so kappa(S) >= 0.
        assert empirical_kappa(ctx, (2,)) >= -1e-12

    def test_upper_bound_certificate(self):
        for seed in range(3):
            ctx, consts, _ = certified_ctx(seed)
            k_hat = kappa_hat(ctx.C, 1, consts.y_max, ell_star_linear(ctx.train, consts.x_max))
            assert empirical_kappa_max(ctx) <= k_hat + 1e-9

    def test_relation_to_alpha(self):
        ctx = make_ctx(76, n=5, q=2)
        alpha = empirical_alpha(ctx)
        rng = np.random.default_rng(2)
        for _ in range(6):
            subset = tuple(sorted(rng.choice(5, size=2, replace=False)))
            assert empirical_kappa(ctx, subset) >= 1.0 - 1.0 / alpha - 1e-9

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("q", [1, 2])
    def test_equals_the_per_subset_formula(self, n, q):
        # The per-subset formula written out with f_many, on a context that
        # never solves the table.
        ctx, ref = make_ctx(93 + n, n=n, q=q), make_ctx(93 + n, n=n, q=q)
        denoms = ref.singletons() - ref.f_empty()
        active = np.flatnonzero(denoms > DENOM_CUTOFF).tolist()
        kappas = []
        for mask in range(1 << n):
            key = tuple(i for i in range(n) if mask >> i & 1)
            rests = [tuple(i for i in key if i != a) for a in active]
            with_a = ref.f_many(rest + (a,) for rest, a in zip(rests, active))
            ratios = (with_a - ref.f_many(rests)) / denoms[active]
            kappas.append(1.0 - min(ratios.tolist(), default=1.0))
            assert empirical_kappa(ctx, key) == kappas[-1]
        assert ref.table is None
        assert empirical_kappa_max(ctx) == max(kappas)


class TestCheckers:
    def test_monotone_passes(self):
        report = check_monotone(make_ctx(77, n=6, q=2), trials=60, seed=0)
        assert report.passed
        assert report.worst_slack >= -1e-8
        assert report.instances_checked == 60
        assert report.witness is None

    def test_monotone_report_is_machine_readable(self):
        report = check_monotone(make_ctx(78, n=5), trials=10, seed=1)
        d = report.as_dict()
        assert d["property"] == "monotone"
        assert isinstance(d["passed"], bool)

    def test_sandwich_passes(self):
        report = check_sandwich(make_ctx(79, n=6, q=2), trials=60, seed=0)
        assert report.passed
        assert report.worst_slack >= -1e-7

    def test_sandwich_needs_exact_linear(self):
        ctx = make_ctx(80, n=4, backend="sgd")
        with pytest.raises(ValueError):
            check_sandwich(ctx, trials=2, seed=0)

    def test_modular_bound_passes_with_true_alpha(self):
        ctx = make_ctx(81, n=5)
        alpha = empirical_alpha(ctx)
        report = check_modular_bound(ctx, (0, 2), alpha)
        assert report.passed
        assert report.details["tight_gap"] <= 1e-9

    def test_modular_bound_fails_with_inflated_alpha(self):
        # An alpha above the true ratio invalidates the out-of-set bound.
        ctx = make_ctx(82, n=5, lam=0.4, C=1.5, delta=0.0)
        alpha = empirical_alpha(ctx)
        if alpha > 0.95:  # needs genuine curvature to demonstrate
            pytest.skip("instance is too close to modular")
        report = check_modular_bound(ctx, (0, 2), min(1.0, alpha * 3.0))
        assert not report.passed

    @pytest.mark.parametrize("seed", [84, 85, 86])
    def test_monotone_reads_the_batch(self, monkeypatch, seed):
        # Gains come from the batched values, not one marginal per pair, and
        # the witness is the first minimum, as a strict < scan picks it.
        built = []
        post_init = dual.TrainedState.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(dual.TrainedState, "__post_init__", counting)
        monkeypatch.setattr(oracle, "MONOTONE_TOL", -math.inf)  # always report the witness
        report = check_monotone(make_ctx(seed, n=7, q=2), trials=60, seed=seed)
        assert built == []
        ctx = make_ctx(seed, n=7, q=2)
        worst, witness = math.inf, None
        for subset, a in drawn_pairs(7, 60, seed):
            gain = ctx.marginal(a, subset)
            if gain < worst:
                worst, witness = gain, {"subset": list(subset), "element": a, "gain": gain}
        assert (report.worst_slack, report.witness) == (worst, witness)

    @staticmethod
    def _sandwich_reference(ctx, trials, seed):
        """C3's formula, one pair and one inner solve at a time."""
        worst, witness, gain_at = math.inf, None, None
        for subset, a in drawn_pairs(ctx.train.n, trials, seed):
            with_a = tuple(sorted(subset + (a,)))
            f_s, st_s = ctx.f_of(subset)
            f_sa, st_sa = ctx.f_of(with_a)
            gain = f_sa - f_s
            x_a, y_a = ctx.train.features[a], ctx.train.targets[a]
            w_lo = solve_inner_linear(st_s.mu, with_a, ctx.train, ctx.valpart, ctx.lam).w
            lower = ctx.lam * w_lo @ w_lo + (y_a - w_lo @ x_a) ** 2
            w_up = solve_inner_linear(st_sa.mu, subset, ctx.train, ctx.valpart, ctx.lam).w
            upper = ctx.lam * w_up @ w_up + (y_a - w_up @ x_a) ** 2
            for side, slack in (("lower", gain - lower), ("upper", upper - gain)):
                if slack < worst:
                    worst, gain_at = slack, gain
                    witness = {"subset": list(subset), "element": a, "side": side}
        return worst, witness, gain_at

    @pytest.mark.parametrize("seed", range(54))
    def test_sandwich_matches_per_pair_reference(self, monkeypatch, seed):
        # n runs over 1..9 and Q over {1, 2} in every combination; n = 1
        # draws only the empty S.
        n, q = 1 + seed % 9, 1 + seed % 2
        report = check_sandwich(make_ctx(seed, n=n, q=q), trials=30, seed=seed)
        worst, witness, gain = self._sandwich_reference(make_ctx(seed, n=n, q=q), 30, seed)
        assert report.passed == (worst >= -oracle.SANDWICH_TOL)
        assert abs(report.worst_slack - worst) <= 1e-12 * max(1.0, abs(gain))
        monkeypatch.setattr(oracle, "SANDWICH_TOL", -math.inf)  # always report the witness
        report = check_sandwich(make_ctx(seed, n=n, q=q), trials=30, seed=seed)
        assert {k: report.witness[k] for k in ("subset", "element", "side")} == witness
        assert report.witness["gain"] == gain

    def test_sandwich_builds_no_state(self, monkeypatch):
        built = []
        post_init = dual.TrainedState.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(dual.TrainedState, "__post_init__", counting)
        report = check_sandwich(make_ctx(87, n=7, q=2), trials=60, seed=3)
        assert report.passed and built == []

    def test_checks_share_one_draw_per_context(self, monkeypatch):
        drawn = []
        draw_pairs = oracle._draw_pairs
        monkeypatch.setattr(oracle, "_draw_pairs",
                            lambda *a: drawn.append(a) or draw_pairs(*a))
        ctx = make_ctx(88, n=6, q=2)
        check_monotone(ctx, trials=25, seed=1)
        check_sandwich(ctx, trials=25, seed=1)
        assert len(drawn) == 1
        check_sandwich(ctx, trials=25, seed=2)  # another seed is another draw
        check_sandwich(make_ctx(88, n=6, q=2), trials=25, seed=1)  # so is a new context
        assert len(drawn) == 3
        check_monotone(ctx, trials=24, seed=1)  # and so are other trials
        assert len(drawn) == 4

    def test_deterministic_reports(self):
        a = check_monotone(make_ctx(83, n=5), trials=20, seed=5)
        b = check_monotone(make_ctx(83, n=5), trials=20, seed=5)
        assert a.as_dict() == b.as_dict()


class TestPairDraw:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_pairs_are_valid(self, n):
        sizes, orders = oracle._draw_pairs(n, 300, n)
        assert sizes.min() >= 0 and sizes.max() < n
        assert np.array_equal(np.sort(orders, axis=1), np.broadcast_to(np.arange(n), orders.shape))
        subsets, with_a = oracle._keys(sizes, orders)
        masks = oracle._masks(sizes, orders)
        for t, (subset, a) in enumerate(drawn_pairs(n, 300, n)):
            assert list(subset) == sorted(subset) and a not in subset and len(subset) == sizes[t]
            assert (subsets[t], with_a[t]) == (subset, tuple(sorted(subset + (a,))))
            assert masks[0][t] == sum(1 << i for i in subset) and masks[1][t] == masks[0][t] | 1 << a

    def test_same_seed_same_draw(self):
        first, again, other = (oracle._draw_pairs(7, 50, seed) for seed in (3, 3, 4))
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        assert not all(np.array_equal(x, y) for x, y in zip(first, other))


class TestTablePath:
    """With the table held, the sampled checks read f, mu and the training
    blocks from its solve by bitmask; their reports equal the cache path's
    bit for bit."""

    @staticmethod
    def reports(ctx, trials, seed):
        return [check(ctx, trials=trials, seed=seed).as_dict()
                for check in (check_monotone, check_sandwich)]

    @pytest.mark.parametrize("seed", range(36))
    def test_equals_cache_path(self, monkeypatch, seed):
        # n runs over 1..9 and Q over {1, 2}; n = 1 draws only the empty S.
        monkeypatch.setattr(oracle, "MONOTONE_TOL", -math.inf)  # always report the witness
        monkeypatch.setattr(oracle, "SANDWICH_TOL", -math.inf)
        n, q = 1 + seed % 9, 1 + seed % 2
        ctx = make_ctx(seed, n=n, q=q)
        f_table(ctx)
        assert ctx.table_solve[1] is not None  # one stack: its blocks are kept
        want = self.reports(make_ctx(seed, n=n, q=q), 40, seed)
        for name in ("f_many", "mu_many"):
            monkeypatch.setattr(ctx, name, None)  # a cache read would raise
        monkeypatch.setattr(setfn, "_canonical", None)
        monkeypatch.setattr(dual, "gram_blocks", None)  # and so would a gather for the pairs
        monkeypatch.setattr(oracle, "gram_blocks", None)
        assert self.reports(ctx, 40, seed) == want

    def test_cases_cover_the_least_norm_solve(self):
        # Every case above draws an empty S, and some of those meet a
        # positive mu(S + a), so the upper side takes the least-norm solve.
        least_norm = 0
        for seed in range(36):
            n, q = 1 + seed % 9, 1 + seed % 2
            ctx = make_ctx(seed, n=n, q=q)
            f_table(ctx)
            sizes, orders = oracle._draw_pairs(n, 40, seed)
            assert (sizes == 0).any()
            with_a = oracle._masks(sizes, orders)[1][sizes == 0]
            least_norm += int((ctx.table_solve[0][with_a] > 0).any(axis=1).sum())
        assert least_norm > 0

    def test_split_table_keeps_no_blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "MONOTONE_TOL", -math.inf)
        monkeypatch.setattr(oracle, "SANDWICH_TOL", -math.inf)
        ctx = make_ctx(91, n=9, d=64, q=1)
        assert len(ctx.stack_bounds(2 ** 9, 9)) > 1
        f_table(ctx)
        assert ctx.table_solve is None
        monkeypatch.setattr(ctx, "f_many", None)  # the pairs' f still come from the table
        got = self.reports(ctx, 30, 91)
        assert got == self.reports(make_ctx(91, n=9, d=64, q=1), 30, 91)

    def test_table_multipliers_are_the_cache_rows(self):
        ctx = make_ctx(92, n=6, d=3, q=2)
        f_table(ctx)
        mu, (base, bs) = ctx.table_solve
        keys = [tuple(np.flatnonzero(mask >> np.arange(6) & 1).tolist()) for mask in range(64)]
        assert np.array_equal(mu, make_ctx(92, n=6, d=3, q=2).mu_many(keys))
        assert base.shape == (64, 3, 3) and bs.shape == (64, 3) and not base[0].any()


def modular_bound_reference(ctx, s_hat, alpha):
    """check_modular_bound's report, one subset at a time."""
    n = ctx.train.n
    scores = modular_scores(ctx, s_hat, alpha)
    const = ctx.f_of(s_hat)[0] - float(sum(scores[i] for i in s_hat))
    worst, witness = math.inf, None
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        f = ctx.f_of(members)[0]
        bound = const + float(sum(scores[i] for i in members))
        if bound - f < worst:
            worst = bound - f
            witness = {"subset": members, "bound": float(bound), "f": float(f)}
    tight_gap = abs(const + float(sum(scores[i] for i in s_hat)) - ctx.f_of(s_hat)[0])
    return {
        "property": "modular_bound",
        "instances_checked": 1 << n,
        "worst_slack": float(worst),
        "tolerance": MODULAR_TOL,
        "passed": bool(worst >= -MODULAR_TOL and tight_gap <= TIGHT_TOL),
        "witness": witness if worst < -MODULAR_TOL else None,
        "details": {"tight_gap": float(tight_gap), "alpha": float(alpha)},
    }


# (seed, n, Q, alpha): every n from 1 to 12, both Q and three alphas.
MODULAR_CASES = [
    (100 + i, 1 + i % 12, 1 + (i // 12) % 2, (0.2, 1.0, 5.0)[i % 3]) for i in range(24)
]


def modular_case(seed, n, q, alpha):
    ctx = make_ctx(seed, n=n, q=q)
    s_hat = tuple(sorted(np.random.default_rng(seed).choice(n, (n + 1) // 2, replace=False)))
    return ctx, s_hat


class TestModularBoundReference:
    @pytest.mark.parametrize("case", MODULAR_CASES)
    def test_matches_per_subset_loop(self, case):
        ctx, s_hat = modular_case(*case)
        got = check_modular_bound(ctx, s_hat, case[3]).as_dict()
        assert got == modular_bound_reference(ctx, s_hat, case[3])

    def test_cases_include_failures_with_witnesses(self):
        witnesses = [check_modular_bound(*modular_case(*case), case[3]).witness
                     for case in MODULAR_CASES]
        assert sum(w is not None for w in witnesses) >= 3
