import dataclasses

import numpy as np
import pytest
import scipy.optimize

from conftest import make_problem
from selcon import dual
from selcon.dataset import (
    Dataset,
    SplitSpec,
    ValidationPartition,
    gen_synthetic,
    offset_augment,
    partition_validation,
    split,
)
from selcon.dual import (
    TrainerConfig,
    _Stack,
    dual_objective,
    gram_blocks,
    primal_value,
    solve_inner_blocks,
    solve_inner_linear,
    train_dual_exact,
    train_dual_exact_many,
    train_dual_sgd,
)
from selcon.models import LinearModel, loss_grad, params_of
from selcon.scenarios import build_context, corrupted_pool, four_group_pool
from selcon.selection import SelconConfig, run_selcon

CFG = TrainerConfig()


def scalar_oracle(subset, train, vp, lam, C):
    """Independent maximization of the single-multiplier dual."""

    def phi(m):
        w = solve_inner_linear(np.array([m]), subset, train, vp, lam)
        return dual_objective(w, np.array([m]), subset, train, vp, lam)

    res = scipy.optimize.minimize_scalar(
        lambda m: -phi(m), bounds=(0.0, C), method="bounded", options={"xatol": 1e-13}
    )
    return max(-res.fun, phi(0.0), phi(C))


class TestDualObjective:
    def test_direct_substitution(self):
        train = Dataset(features=np.array([[1.0]]), targets=np.array([1.0]))
        val = Dataset(features=np.array([[1.0]]), targets=np.array([3.0]))
        vp = partition_validation(val, "single", delta=1.0)
        value = dual_objective(LinearModel(w=np.zeros(1)), np.array([2.0]), [0], train, vp, 1.0)
        assert value == pytest.approx(17.0)

    def test_zero_mu_is_ridge_sum(self):
        train, _, vp, lam, _ = make_problem(0, n=5)
        w = LinearModel(w=np.array([0.3, -0.2]))
        subset = [0, 2, 3]
        got = dual_objective(w, np.zeros(1), subset, train, vp, lam)
        resid = train.targets[subset] - train.features[subset] @ w.w
        want = len(subset) * lam * float(w.w @ w.w) + float(resid @ resid)
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_subset(self):
        train, _, vp, lam, C = make_problem(1, delta=0.25)
        val_y = vp.data.targets
        got = dual_objective(LinearModel(w=np.zeros(2)), np.array([C]), [], train, vp, lam)
        assert got == pytest.approx(C * (np.mean(val_y**2) - 0.25), rel=1e-12)

    def test_regularizer_counts_per_element(self):
        # Duplicating an index doubles the lam*||w||^2 contribution.
        train, _, vp, lam, _ = make_problem(2)
        w = LinearModel(w=np.array([0.5, 0.1]))
        mu = np.zeros(1)
        single = dual_objective(w, mu, [1], train, vp, lam)
        doubled = dual_objective(w, mu, [1, 1], train, vp, lam)
        assert doubled - single == pytest.approx(single, rel=1e-12)


class TestSolveInner:
    def test_claim_closed_form(self):
        # lam=1, x=[1], y=2: w = [1] and the optimal value is 2.
        train = Dataset(features=np.array([[1.0]]), targets=np.array([2.0]))
        val = Dataset(features=np.array([[1.0]]), targets=np.array([1.0]))
        vp = partition_validation(val, "single", delta=0.5)
        w = solve_inner_linear(np.zeros(1), [0], train, vp, 1.0)
        assert w.w == pytest.approx([1.0])
        value = dual_objective(w, np.zeros(1), [0], train, vp, 1.0)
        assert value == pytest.approx(2.0)

    def test_stationarity(self):
        for seed in range(10):
            train, _, vp, lam, C = make_problem(seed, n=7, q=1 + seed % 2)
            rng = np.random.default_rng(seed)
            mu = rng.uniform(0, C, vp.q)
            subset = sorted(rng.choice(7, size=3, replace=False))
            model = solve_inner_linear(mu, subset, train, vp, lam)
            # Assemble the objective gradient from per-point loss gradients.
            grad = 2.0 * lam * len(subset) * model.w
            for i in subset:
                grad += loss_grad(model, train.features[i], train.targets[i])
            for q, rows in enumerate(vp.subsets):
                for j in rows:
                    grad += (
                        mu[q]
                        / len(rows)
                        * loss_grad(model, vp.data.features[j], vp.data.targets[j])
                    )
            assert np.linalg.norm(grad) <= 1e-8

    def test_degenerate_case(self):
        # An empty S at mu = 0 leaves F identically zero: the least-norm w is 0.
        train, _, vp, lam, _ = make_problem(3)
        w = solve_inner_linear(np.zeros(1), [], train, vp, lam)
        assert np.array_equal(w.w, np.zeros(2))


class TestSolveInnerMany:
    """The stacked inner solve: rows independent of their stack, and each row
    the closed-form minimizer."""

    @staticmethod
    def _stack(seed, n=9, d=3, q=2):
        train, _, vp, lam, C = make_problem(seed, n=n, d=d, q=q)
        rng = np.random.default_rng(seed)
        # Every size from empty to the full set, twice, in no order.
        subsets = [tuple(sorted(int(i) for i in rng.choice(n, size=m, replace=False)))
                   for m in [*range(n + 1), *range(n + 1)]]
        rng.shuffle(subsets)
        mu = rng.uniform(0.0, C, (len(subsets), q))
        mu[::5] = 0.0
        mu[np.array([not s for s in subsets]), 0] += 0.1  # empty rows take mu > 0
        return train, vp, lam, subsets, mu

    @staticmethod
    def _solve(mu, subsets, train, vp, lam):
        return solve_inner_blocks(mu, *gram_blocks(subsets, train, lam)[:2], vp)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_do_not_depend_on_the_stack(self, seed):
        train, vp, lam, subsets, mu = self._stack(seed)
        w = self._solve(mu, subsets, train, vp, lam)
        perm = np.random.default_rng(seed).permutation(len(subsets))
        shuffled = self._solve(mu[perm], [subsets[p] for p in perm], train, vp, lam)
        assert np.array_equal(shuffled, w[perm])
        split = np.concatenate([self._solve(mu[a:b], subsets[a:b], train, vp, lam)
                                for a, b in [(0, 1), (1, 4), (4, 11), (11, len(subsets))]])
        assert np.array_equal(split, w)
        for r, subset in enumerate(subsets):
            assert np.array_equal(solve_inner_linear(mu[r], subset, train, vp, lam).w, w[r])

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_rows_solve_their_systems(self, seed):
        train, vp, lam, subsets, mu = self._stack(seed)
        w = self._solve(mu, subsets, train, vp, lam)
        G, b, _ = vp.gram
        for r, subset in enumerate(subsets):
            Xs, ys = train.features[list(subset)], train.targets[list(subset)]
            A = lam * len(subset) * np.eye(train.d) + Xs.T @ Xs + np.tensordot(mu[r], G, axes=1)
            rhs = Xs.T @ ys + mu[r] @ b
            if subset:
                want = np.linalg.solve(A, rhs)
            else:  # the least-norm minimizer
                want = np.linalg.lstsq(A, rhs, rcond=None)[0]
            np.testing.assert_allclose(w[r], want, rtol=0, atol=1e-10)

    def test_empty_rows(self):
        # Two validation rows per group and d = 3: the empty row's A is singular.
        train, _, vp, lam, _ = make_problem(6, n=5, d=3, q=2, nval=4)
        mu = np.array([[0.0, 0.0], [0.7, 0.0], [0.0, 0.0]])
        subsets = [(), (), (0, 3)]
        w = self._solve(mu, subsets, train, vp, lam)
        assert np.array_equal(w[0], np.zeros(3))
        G, b, _ = vp.gram
        assert np.linalg.matrix_rank(0.7 * G[0]) == 2
        want = np.linalg.lstsq(0.7 * G[0], 0.7 * b[0], rcond=None)[0]
        np.testing.assert_allclose(w[1], want, rtol=0, atol=1e-10)
        assert np.array_equal(w[2], solve_inner_linear(mu[2], (0, 3), train, vp, lam).w)


class TestExactTrainer:
    def test_C_zero_gives_ridge(self):
        train, _, vp, lam, _ = make_problem(4, n=6)
        subset = [0, 2, 5]
        st = train_dual_exact(subset, train, vp, lam, 0.0, CFG)
        assert np.array_equal(st.mu, [0.0])
        ridge = solve_inner_linear(np.zeros(1), subset, train, vp, lam)
        assert st.f_value == pytest.approx(
            dual_objective(ridge, np.zeros(1), subset, train, vp, lam), rel=1e-12
        )

    def test_slack_constraint_keeps_mu_zero(self):
        # Huge delta: the unconstrained ridge fit already satisfies it.
        train, _, vp, lam, C = make_problem(5, delta=50.0)
        st = train_dual_exact([0, 1, 2], train, vp, lam, C, CFG)
        assert np.array_equal(st.mu, [0.0])
        assert st.converged

    def test_tight_constraint_activates_mu(self):
        train, _, vp, lam, _ = make_problem(6, delta=0.0)
        st = train_dual_exact([0, 1], train, vp, lam, 100.0, CFG)
        assert st.mu[0] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_oracle(self, seed):
        train, _, vp, lam, C = make_problem(seed, n=7, signed=True)
        subset = sorted(np.random.default_rng(seed).choice(7, size=2 + seed % 3, replace=False))
        st = train_dual_exact(subset, train, vp, lam, C, CFG)
        assert st.f_value == pytest.approx(scalar_oracle(subset, train, vp, lam, C), abs=1e-9)

    def test_mu_inside_box(self):
        for seed in range(12):
            train, _, vp, lam, C = make_problem(seed, q=1 + seed % 2, delta=0.0)
            st = train_dual_exact([0, 1], train, vp, lam, C, CFG)
            assert np.all(st.mu >= 0.0) and np.all(st.mu <= C)

    def test_saddle_inequalities(self):
        for seed in range(6):
            train, _, vp, lam, C = make_problem(seed, q=2, delta=0.1)
            subset = [0, 2, 4]
            st = train_dual_exact(subset, train, vp, lam, C, CFG)
            rng = np.random.default_rng(seed)
            f_star = st.f_value
            for _ in range(20):
                mu = rng.uniform(0, C, vp.q)
                # F(w*, mu) <= F(w*, mu*) for any box mu
                assert dual_objective(st.model, mu, subset, train, vp, lam) <= f_star + 1e-7
                w = LinearModel(w=st.model.w + rng.normal(0, 0.3, train.d))
                # F(w, mu*) >= F(w*, mu*) for any w
                assert dual_objective(w, st.mu, subset, train, vp, lam) >= f_star - 1e-7

    def test_norm_bound_over_box(self):
        # Trained parameters stay inside the closed-form norm bound.
        for seed in range(10):
            train, _, vp, lam, C = make_problem(seed, q=1 + seed % 2)
            rng = np.random.default_rng(100 + seed)
            y_all = np.concatenate([train.targets, vp.data.targets])
            x_all = np.vstack([train.features, vp.data.features])
            bound = (
                (1 + C * vp.q)
                * np.max(np.abs(y_all))
                * np.max(np.linalg.norm(x_all, axis=1))
                / lam
            )
            for _ in range(10):
                mu = rng.uniform(0, C, vp.q)
                subset = sorted(rng.choice(train.n, size=1 + int(rng.integers(3)), replace=False))
                w = solve_inner_linear(mu, subset, train, vp, lam)
                assert np.linalg.norm(w.w) <= bound + 1e-9

    def test_empty_subset_q2_matches_grid(self):
        train, _, vp, lam, C = make_problem(8, q=2, delta=0.02)
        st = train_dual_exact([], train, vp, lam, C, CFG)
        best = 0.0
        for m1 in np.linspace(0, C, 61):
            for m2 in np.linspace(0, C, 61):
                if m1 == 0 and m2 == 0:
                    continue
                mu = np.array([m1, m2])
                w = solve_inner_linear(mu, [], train, vp, lam)
                best = max(best, dual_objective(w, mu, [], train, vp, lam))
        assert st.f_value >= best - 1e-9
        assert st.f_value == pytest.approx(best, abs=1e-4)

    def test_sixteen_groups_with_interior_multipliers(self):
        # Enumerating the 3^Q bound patterns would not finish at Q = 16.
        data = gen_synthetic(n=480, d=4, noise_sd=0.3, n_groups=16, seed=2)
        train, val, _ = split(data, SplitSpec(0.5, 0.4, 0.1, seed=0))
        subset = [0, 60, 120, 180]
        lam, C = 0.5, 50.0
        probe = partition_validation(val, "by_group", 0.0)
        ridge = solve_inner_linear(np.zeros(16), subset, train, probe, lam)
        resid = val.targets - val.features @ ridge.w
        delta = float(np.median([np.mean(resid[rows] ** 2) for rows in probe.subsets]))
        vp = partition_validation(val, "by_group", delta)
        assert vp.q == 16

        st = train_dual_exact(subset, train, vp, lam, C, CFG)
        assert st.converged and st.iterations_used <= 50
        assert np.any((st.mu > 1e-6 * C) & (st.mu < (1 - 1e-6) * C))

        def neg_dual(mu):
            model = solve_inner_linear(mu, subset, train, vp, lam)
            r = val.targets - val.features @ model.w
            slack = np.array([np.mean(r[rows] ** 2) for rows in vp.subsets]) - delta
            return -dual_objective(model, mu, subset, train, vp, lam), -slack

        res = scipy.optimize.minimize(
            neg_dual, np.full(16, C / 2), jac=True, method="L-BFGS-B",
            bounds=[(0.0, C)] * 16,
            options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-12},
        )
        assert st.f_value == pytest.approx(-res.fun, rel=1e-9)

    def test_f_value_is_dual_objective(self):
        # The solver returns its own phi; dual_objective recomputes F from
        # residuals at the returned (w, mu).
        for seed in range(48):
            q = (1, 2, 4, 16)[seed % 4]
            C = 0.0 if seed % 5 == 0 else None
            train, _, vp, lam, C = make_problem(seed, n=8, d=3, q=q, nval=32, C=C,
                                                signed=seed % 3 == 0)
            rng = np.random.default_rng(seed)
            subset = sorted(int(i) for i in rng.choice(8, size=seed % 7, replace=False))
            st = train_dual_exact(subset, train, vp, lam, C, CFG)
            ref = dual_objective(st.model, st.mu, subset, train, vp, lam)
            assert abs(st.f_value - ref) <= 1e-12 * abs(ref), (seed, st.f_value, ref)


class TestSolverSettings:
    def test_integer_C_is_bit_equal_to_float(self):
        # An int C once gave an int64 box, which truncated every Newton step.
        train, _, vp, lam, _ = make_problem(41, n=9, d=3, q=2)
        subsets = [(0, 1, 2), (3, 5, 7, 8)]
        got = train_dual_exact_many(subsets, train, vp, lam, 2)
        want = train_dual_exact_many(subsets, train, vp, lam, 2.0)
        assert got[1].dtype == np.float64 and 0.0 < got[1][0, 1] < 1.0
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_newton_cap_read_at_call_time(self, monkeypatch):
        train, _, vp, lam, C = make_problem(41, n=9, d=3, q=2, C=1.5)
        assert train_dual_exact((0, 1, 2), train, vp, lam, C, CFG).iterations_used == 4
        monkeypatch.setattr(dual, "_MAX_NEWTON_ITERS", 1)
        st = train_dual_exact((0, 1, 2), train, vp, lam, C, CFG)
        assert (st.iterations_used, st.converged) == (1, False)


class TestArcSearch:
    def test_claim_regime_run_converges(self):
        # One singleton here ends at a projected gradient of 1.001e-10, where
        # phi's rounding (about 1e-12) exceeds a Newton step's gain (about
        # 1e-20): the Armijo test alone rejects every step down to t = 1e-12.
        # The same run, selection and f, with no stalled row.
        train, val, _ = (offset_augment(fold, 0.0) for fold in corrupted_pool(0, 2500, 15))
        ctx = build_context(train, val, "single", 0.005, 600.0, "auto")
        result = run_selcon(ctx, SelconConfig(k=200, L=2, alpha_mode="fixed", alpha_value=1.0))
        assert ctx.not_converged == 0
        assert [digest for _, _, digest in result.trace] == [
            "f39a7e1ae916", "0a3c597e2d5a", "10a2e5697791"]
        assert result.f_value == pytest.approx(25.46471400955402, rel=1e-9)


def empty_set_problem(rng, seed):
    """A random problem for f(empty): Q in {1, 2, 4}, d from 2 to 5, some
    validation groups smaller than d, delta from half to twice the largest
    pooled group error, and C in {0, 0.7, 3}."""
    q, d = (1, 2, 4)[seed % 3], int(rng.integers(2, 6))
    sizes = rng.integers(1, 2 * d + 1, size=q)
    val = Dataset(features=rng.uniform(-1, 1, (sizes.sum(), d)),
                  targets=rng.uniform(0.3, 2.0, sizes.sum()))
    train = Dataset(features=rng.uniform(-1, 1, (4, d)), targets=rng.uniform(0.3, 2.0, 4))
    cover = tuple(np.split(np.arange(sizes.sum()), np.cumsum(sizes)[:-1]))
    probe = ValidationPartition(data=val, subsets=cover, delta=0.0)
    vp = probe.with_delta(max(0.0, probe.pooled_errors.max() * rng.uniform(0.5, 2.0)))
    return train, val, vp, 0.5, (0.0, 0.7, 3.0)[seed % 3]


class TestEmptySetCertificate:
    """f(empty) = 0 without Newton when the pooled validation fit meets every bound."""

    def test_centred_four_group_pool(self, monkeypatch):
        # Validation groups of 4-10 rows at d = 7 leave the face problems
        # singular; Newton over the faces crawls to the answer 0.  A low
        # cap keeps a regression fast to fail.
        monkeypatch.setattr(dual, "_MAX_NEWTON_ITERS", 50)
        train, val, _ = four_group_pool(3)
        mx, my = train.features.mean(axis=0), train.targets.mean()
        train, val = (Dataset(features=data.features - mx, targets=data.targets - my,
                              groups=data.groups) for data in (train, val))
        ctx = build_context(train, val, "by_group", 0.05, 10.0, "auto")
        st = train_dual_exact([], train, ctx.valpart, ctx.lam, ctx.C, ctx.trainer)
        assert (st.f_value, st.iterations_used, st.converged) == (0.0, 0, True)
        assert not st.mu.any() and not st.model.w.any()

    def test_certified_value_is_the_primal_optimum(self):
        rng = np.random.default_rng(0)
        fired = 0
        for seed in range(240):
            train, _, vp, lam, C = empty_set_problem(rng, seed)
            if not np.all(vp.pooled_errors <= vp.delta):
                continue
            fired += 1
            st = train_dual_exact([], train, vp, lam, C, CFG)
            assert (st.f_value, st.iterations_used) == (0.0, 0)
            assert dual_objective(st.model, st.mu, [], train, vp, lam) == 0.0
            assert primal_value([], train, vp, lam, C) <= 1e-6, seed
        assert fired >= 100


class TestEmptySet:
    """f(empty) from the origin row and its faces, against the primal oracle
    and against its own one-subset solve."""

    def test_value_is_the_primal_optimum(self):
        # Three kinds: certified, uncertified with f(empty) = 0 (the origin
        # wins over every face) and f(empty) > 0 (a face wins).  The primal
        # oracle can stall above the optimum on these all-hinge problems, so
        # strong duality is checked against the better of its value and the
        # penalized primal at the returned w, each an upper bound on f.
        rng = np.random.default_rng(0)
        kinds = {"certified": 0, "zero": 0, "positive": 0}
        for seed in range(400):
            train, val, vp, lam, C = empty_set_problem(rng, seed)
            st = train_dual_exact([], train, vp, lam, C, CFG)
            if np.all(vp.pooled_errors <= vp.delta):
                kind = "certified"
            else:
                kind = "zero" if st.f_value == 0.0 else "positive"
            if kinds[kind] == 10:
                continue
            kinds[kind] += 1
            f = st.f_value
            g = primal_value([], train, vp, lam, C, tol=1e-7)
            slack = vp.errors(val.targets - val.features @ st.model.w) - vp.delta
            at_w = C * np.maximum(slack, 0.0).sum()
            # C5's relative tolerance, floored at the oracle's own tol near f = 0.
            tol = 1e-4 * max(abs(f), 1e-7)
            assert g >= f - tol and at_w >= f - tol, (seed, f, g, at_w)
            assert min(g, at_w) - f <= tol, (seed, f, g, at_w)
            if min(kinds.values()) == 10:
                break
        assert min(kinds.values()) == 10, kinds

    @pytest.mark.parametrize("seed,certified,positive", [(1, False, True), (17, False, False),
                                                         (2, True, False)],
                             ids=["face", "origin", "certified"])
    def test_rows_equal_their_own_solves(self, seed, certified, positive):
        # Two empty rows, each with its own faces after the stack's rows.
        train, _, vp, lam, C = make_problem(seed, n=5, d=3, q=2, nval=8)
        subsets = [(), (0,), (), (1, 2)]
        stacked = train_dual_exact_many(subsets, train, vp, lam, C)
        for r, subset in enumerate(subsets):
            alone = train_dual_exact_many([subset], train, vp, lam, C)
            for a, b in zip(stacked, alone):
                assert np.array_equal(a[r], b[0])
        w, mu, f, iters = (a[0] for a in stacked[:4])
        assert bool(np.all(vp.pooled_errors <= vp.delta)) == certified
        assert (f > 0.0, iters > 0) == (positive, not certified)
        if not positive:
            assert f == 0.0 and not w.any() and not mu.any()


class TestStackAssembly:
    """The per-size batched Gram products equal the per-row ones bit for bit,
    and a stack of them reads a zero base as an empty subset."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_bitwise_equal_to_per_row_products(self, d):
        train, _, vp, lam, _ = make_problem(d, n=30, d=d, q=2)
        rng = np.random.default_rng(d)
        # Empty rows, size-1 rows and several sizes, the sizes in no order.
        sizes = [5, 0, 1, 12, 1, 30, 5, 0, 2, 12, 1, 7, 5]
        subsets = [np.sort(rng.choice(30, size=m, replace=False)) for m in sizes]
        blocks = gram_blocks(subsets, train, lam)
        empty = _Stack(*blocks, vp).empty
        for r, subset in enumerate(subsets):
            Xs, ys = train.features[subset], train.targets[subset]
            base = lam * len(subset) * np.eye(d) + Xs.T @ Xs if len(subset) else np.zeros((d, d))
            assert np.array_equal(blocks[0][r], base)
            assert np.array_equal(blocks[1][r], Xs.T @ ys if len(subset) else np.zeros(d))
            assert np.array_equal(blocks[2][r], ys @ ys if len(subset) else 0.0)
            assert empty[r] == (not len(subset))


class TestSgdTrainer:
    def test_deterministic(self):
        train, _, vp, lam, C = make_problem(9)
        a = train_dual_sgd([0, 2, 4], train, vp, lam, C, CFG)
        b = train_dual_sgd([0, 2, 4], train, vp, lam, C, CFG)
        assert a.f_value == b.f_value
        assert np.array_equal(params_of(a.model), params_of(b.model))
        assert np.array_equal(a.mu, b.mu)

    @pytest.mark.parametrize("seed", range(4))
    def test_close_to_exact(self, seed):
        train, _, vp, lam, C = make_problem(seed, n=6)
        for subset in ([1], [0, 3, 5]):
            exact = train_dual_exact(subset, train, vp, lam, C, CFG)
            approx = train_dual_sgd(subset, train, vp, lam, C, CFG)
            assert abs(approx.f_value - exact.f_value) <= 0.01 * abs(exact.f_value)

    def test_default_learning_rates(self):
        assert (dual._SGD_LR_W, dual._SGD_LR_MU) == (0.01, 0.05)

    def test_two_layer_runs_and_is_finite(self):
        train, _, vp, lam, C = make_problem(10)
        st = train_dual_sgd([0, 1, 2], train, vp, lam, C, CFG, model_kind="two_layer")
        assert np.isfinite(st.f_value)
        assert st.backend == "sgd"

    def test_mu_in_box(self):
        train, _, vp, lam, C = make_problem(11, delta=0.0)
        st = train_dual_sgd([0, 1], train, vp, lam, C, CFG)
        assert np.all(st.mu >= 0.0) and np.all(st.mu <= C)


class TestPrimal:
    def test_C_zero_equals_ridge_value(self):
        train, _, vp, lam, _ = make_problem(12)
        subset = [0, 1, 3]
        g = primal_value(subset, train, vp, lam, 0.0, tol=1e-9)
        f = train_dual_exact(subset, train, vp, lam, 0.0, CFG).f_value
        assert g == pytest.approx(f, rel=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_strong_duality_linear(self, seed):
        train, _, vp, lam, C = make_problem(seed, q=1 + seed % 2)
        subset = sorted(np.random.default_rng(seed).choice(6, size=3, replace=False))
        f = train_dual_exact(subset, train, vp, lam, C, CFG).f_value
        g = primal_value(subset, train, vp, lam, C, tol=1e-7)
        assert abs(f - g) <= 1e-4 * max(abs(f), 1e-12)

    def test_weak_duality_two_layer(self):
        train, _, vp, lam, C = make_problem(13)
        subset = [0, 2, 4]
        f = train_dual_sgd(subset, train, vp, lam, C, CFG, model_kind="two_layer").f_value
        g = primal_value(subset, train, vp, lam, C, tol=1e-6, model_kind="two_layer", seed=1)
        assert f <= g + 1e-2 * (1.0 + abs(g))


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)

    def test_only_the_settable_fields(self):
        assert [f.name for f in dataclasses.fields(TrainerConfig)] == [
            "epochs", "seed"]
        assert (dual._SGD_BATCH, dual._MU_TOLERANCE) == (1000, 1e-10)
        assert (dual._MAX_NEWTON_ITERS, dual.DEFAULT_HIDDEN_WIDTH) == (100_000, 5)
        for removed in ("batch_size", "learning_rate_w", "learning_rate_mu", "mu_tolerance",
                        "max_outer_iters"):
            with pytest.raises(TypeError):
                TrainerConfig(**{removed: 1.0})
