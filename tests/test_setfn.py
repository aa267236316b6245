import dataclasses
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_ctx
from selcon.bounds import claim1_min
from selcon import dual
from selcon.dual import TrainerConfig, solve_inner_linear, train_dual_exact
from selcon.selection import SelconConfig, run_selcon
from selcon.errors import ElementAlreadyPresent
from selcon import setfn
from selcon.setfn import SetFnContext


class TestFOf:
    def test_singleton_closed_form(self, tiny_ctx):
        value, state = tiny_ctx.f_of((0,))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert state.backend == "exact"

    def test_cache_hit_counter(self, tiny_ctx):
        tiny_ctx.f_of((0, 1))
        misses = tiny_ctx.cache_misses
        v1, _ = tiny_ctx.f_of((1, 0))  # same canonical key
        assert tiny_ctx.cache_hits == 1
        assert tiny_ctx.cache_misses == misses
        v2, _ = tiny_ctx.f_of((0, 1))
        assert tiny_ctx.cache_hits == 2
        assert v1 == v2

    def test_exhaustive_monotone_under_inclusion(self):
        ctx = make_ctx(21, n=6, C=1.0, delta=0.2)
        values = {}
        for mask in range(64):
            subset = tuple(i for i in range(6) if mask >> i & 1)
            values[mask] = ctx.f_of(subset)[0]
        for mask in range(64):
            for i in range(6):
                if not mask >> i & 1:
                    assert values[mask | 1 << i] >= values[mask] - 1e-8


class TestMarginal:
    def test_already_present(self, tiny_ctx):
        with pytest.raises(ElementAlreadyPresent):
            tiny_ctx.marginal(0, (0, 1))

    def test_nonnegative_exact(self):
        ctx = make_ctx(22, n=7, q=2)
        rng = np.random.default_rng(0)
        for _ in range(30):
            size = int(rng.integers(0, 6))
            perm = rng.permutation(7)
            subset = tuple(sorted(perm[:size]))
            assert ctx.marginal(int(perm[size]), subset) >= -1e-8

    def test_lower_bound_claim_form_when_C_zero(self):
        ctx = make_ctx(23, n=6, C=0.0)
        for a in range(6):
            lo = claim1_min(ctx.lam, ctx.train.targets[a], ctx.train.features[a])
            assert ctx.marginal(a, (1,) if a != 1 else (2,)) >= lo - 1e-7

    def test_zero_target_zero_marginal(self):
        # With C = 0 an element with y = 0 contributes exactly nothing.
        from selcon.dataset import Dataset, partition_validation

        train = Dataset(features=np.array([[1.0], [2.0]]), targets=np.array([1.0, 0.0]))
        val = Dataset(features=np.array([[1.0]]), targets=np.array([1.0]))
        ctx = SetFnContext(
            train=train,
            valpart=partition_validation(val, "single", 0.5),
            lam=1.0,
            C=0.0,
        )
        assert ctx.marginal(1, ()) == pytest.approx(0.0, abs=1e-12)


class TestSingletons:
    def test_closed_forms(self, tiny_ctx):
        assert np.allclose(tiny_ctx.singletons(), [0.5, 2.0, 0.2], atol=1e-12)



class TestTrainDualExact:
    @pytest.mark.parametrize("C", [0.0, 1.5])
    def test_order_of_subset_does_not_matter(self, C):
        ctx = make_ctx(35, n=9, d=3, q=2, C=C)
        f, state = ctx.f_of((1, 3, 4, 6, 8))
        got = train_dual_exact([6, 1, 8, 4, 3], ctx.train, ctx.valpart, ctx.lam, ctx.C, ctx.trainer)
        assert got.f_value == f
        assert np.array_equal(got.mu, state.mu)
        assert np.array_equal(got.model.w, state.model.w)


class TestFMany:
    """Batched values must equal one-at-a-time values bit for bit, whatever
    stack a subset is solved in."""

    @staticmethod
    def _mixed_subsets(n, seed):
        rng = np.random.default_rng(seed)
        subsets = [(), *((i,) for i in range(n))]
        for _ in range(40):
            size = int(rng.integers(2, n + 1))
            subsets.append(tuple(int(i) for i in rng.choice(n, size=size, replace=False)))
        subsets += subsets[::7]  # repeats, also in permuted order
        rng.shuffle(subsets)
        return subsets

    @pytest.mark.parametrize("chunk_floats", [1, 7, 7 * (3 * (3 + 2) + 3 * 2 * 2),
                                              setfn._CHUNK_FLOATS],
                             ids=["1", "7", "7-rows", "default"])
    @pytest.mark.parametrize("C", [0.0, 1.5])
    def test_bitwise_equal_to_f_of(self, monkeypatch, chunk_floats, C):
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", chunk_floats)
        subsets = self._mixed_subsets(9, 24)
        ref = make_ctx(24, n=9, d=3, q=2, C=C)
        want = [ref.f_of(s) for s in subsets]
        ctx = make_ctx(24, n=9, d=3, q=2, C=C)
        got = ctx.f_many(subsets)
        assert isinstance(got, np.ndarray)
        assert (ctx.cache_hits, ctx.cache_misses) == (ref.cache_hits, ref.cache_misses)
        for s, (fa, sa), fb in zip(subsets, want, got):
            assert fa == fb
            sb = ctx.f_of(s)[1]  # built from the stacked arrays f_many cached
            assert sb.f_value == fa
            assert np.array_equal(sa.mu, sb.mu)
            assert np.array_equal(sa.model.w, sb.model.w)

        fresh = make_ctx(24, n=9, d=3, q=2, C=C)
        singles = fresh.singletons()
        assert np.array_equal(singles, [ref.f_of((i,))[0] for i in range(9)])
        for i in range(9):
            assert np.array_equal(fresh.f_of((i,))[1].mu, ref.f_of((i,))[1].mu)

    @pytest.mark.parametrize("C", [0.0, 1.5])
    def test_mu_many_reads_the_cached_rows(self, monkeypatch, C):
        built = []
        post_init = dual.TrainedState.__post_init__
        monkeypatch.setattr(dual.TrainedState, "__post_init__",
                            lambda state: built.append(state) or post_init(state))
        subsets = self._mixed_subsets(9, 25)
        ctx = make_ctx(25, n=9, d=3, q=2, C=C)
        counted = make_ctx(25, n=9, d=3, q=2, C=C)
        ctx.f_of(subsets[0])  # one entry solved through f_of, the rest by mu_many
        counted.f_of(subsets[0])
        built.clear()
        mu = ctx.mu_many(subsets)
        counted.f_many(subsets)
        assert built == [] and mu.shape == (len(subsets), 2)
        assert (ctx.cache_hits, ctx.cache_misses) == (counted.cache_hits, counted.cache_misses)
        ref = make_ctx(25, n=9, d=3, q=2, C=C)
        for s, row in zip(subsets, mu):
            assert np.array_equal(row, ref.f_of(s)[1].mu)

    def test_sgd_backend_loops_f_of(self):
        trainer = TrainerConfig(epochs=3, seed=0)
        a = make_ctx(32, n=5, backend="sgd", trainer=trainer)
        b = make_ctx(32, n=5, backend="sgd", trainer=trainer)
        subsets = [(0, 1), (2,), (1, 0), ()]
        assert a.f_many(subsets).tolist() == [b.f_of(s)[0] for s in subsets]
        assert (a.cache_hits, a.cache_misses) == (1, 3)
        assert np.array_equal(a.mu_many(subsets), [b.f_of(s)[1].mu for s in subsets])


class TestLeaveOneOut:
    """A leave-one-out sweep equals one-at-a-time f_of values bit for bit and
    leaves the cache alone."""

    @pytest.mark.parametrize("chunk_floats", [1, 7, setfn._CHUNK_FLOATS],
                             ids=["1", "7", "default"])
    @pytest.mark.parametrize("C", [0.0, 1.5])
    def test_bitwise_equal_to_f_of(self, monkeypatch, chunk_floats, C):
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", chunk_floats)
        ref = make_ctx(34, n=9, d=3, q=2, C=C)
        for s_hat in (np.array([4]), np.array([0, 2, 3, 5, 8])):
            ctx = make_ctx(34, n=9, d=3, q=2, C=C)
            got = ctx.leave_one_out(s_hat)
            want = [ref.f_of(np.delete(s_hat, j))[0] for j in range(len(s_hat))]
            assert np.array_equal(got, want)
            assert not ctx._cache

    def test_sgd_equal_to_f_of(self):
        trainer = TrainerConfig(epochs=3, seed=0)
        ctx = make_ctx(32, n=5, backend="sgd", trainer=trainer)
        ref = make_ctx(32, n=5, backend="sgd", trainer=trainer)
        s_hat = np.array([0, 2, 4])
        got = ctx.leave_one_out(s_hat)
        assert np.array_equal(got, [ref.f_of(np.delete(s_hat, j))[0] for j in range(3)])
        assert not ctx._cache


class TestStacks:
    """How the exact sweeps cut their stacks and what they build."""

    @pytest.mark.parametrize("chunk_floats", [1, 40, 100, 300])
    def test_stacks_stay_under_the_cap(self, monkeypatch, chunk_floats):
        d, q = 3, 2
        stacks = []

        def record(subsets, *args):
            stacks.append([len(s) for s in subsets])
            return many(subsets, *args)

        many = setfn.train_dual_exact_many
        monkeypatch.setattr(setfn, "train_dual_exact_many", record)
        ref = make_ctx(34, n=40, d=d, q=q, C=1.5)
        s_hat = np.arange(0, 40, 2)
        want = ref.leave_one_out(s_hat)
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", chunk_floats)
        stacks.clear()
        ctx = make_ctx(34, n=40, d=d, q=q, C=1.5)
        assert np.array_equal(ctx.leave_one_out(s_hat), want)
        ctx.f_many([tuple(range(m)) for m in range(12)])
        assert sum(map(len, stacks)) == len(s_hat) + 12
        for sizes in stacks:
            if len(sizes) > 1:
                assert len(sizes) * (max(d * (d + q), max(sizes) * d) + 3 * q * q) <= chunk_floats

    def test_curvature_counts_toward_the_cap(self, monkeypatch):
        # At Q = 40 a Newton row's Q x Q curvature arrays outweigh its d x d
        # blocks fifty times over; the cap must count them.
        d, q, cap = 3, 40, 20_000
        stacks = []

        def record(subsets, *args):
            stacks.append(len(subsets))
            return many(subsets, *args)

        many = setfn.train_dual_exact_many
        want = make_ctx(35, n=60, d=d, q=q, nval=2 * q, C=2.0).singletons()
        monkeypatch.setattr(setfn, "train_dual_exact_many", record)
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", cap)
        assert np.array_equal(make_ctx(35, n=60, d=d, q=q, nval=2 * q, C=2.0).singletons(), want)
        assert sum(stacks) == 61
        for rows in stacks:
            assert rows == 1 or rows * (d * (d + q) + 3 * q * q) <= cap

    @pytest.mark.parametrize("q", [40, 80])
    def test_face_rows_count_toward_the_cap(self, monkeypatch, q):
        # f(empty) is not certified here, so the stack that holds () also
        # runs its Q face rows; the first stack must leave room for them.
        d, rows = 3, []
        blocks = dual.gram_blocks

        def record(subsets, *args):
            rows.append(len(subsets))
            return blocks(subsets, *args)

        monkeypatch.setattr(dual, "gram_blocks", record)
        make_ctx(0, n=6000, d=d, q=q, nval=20 * q, C=2.0).singletons()
        assert sum(rows) == 6001 + q
        assert max(rows) * (d * (d + q) + 3 * q * q) <= setfn._CHUNK_FLOATS

    def test_every_stack_keeps_room_for_face_rows(self, monkeypatch):
        # An empty subset outside the first stack still runs its Q face rows
        # under the cap: every stack, not only the first, keeps room for them.
        d, q, rows = 3, 4, []
        per = d * (d + q) + 3 * q * q
        blocks = dual.gram_blocks

        def record(subsets, *args):
            rows.append(len(subsets))
            return blocks(subsets, *args)

        ctx = make_ctx(0, n=60, d=d, q=q, nval=20 * q, C=2.0)
        keys = [(i,) for i in range(40)]
        keys.insert(17, ())
        monkeypatch.setattr(dual, "gram_blocks", record)
        monkeypatch.setattr(setfn, "_CHUNK_FLOATS", 20 * per)
        entries, _ = ctx._solve(len(keys), 1, lambda a, b: keys[a:b])
        assert len(entries) == len(keys) and sum(rows) == len(keys) + q  # () runs its faces
        assert rows[0] == 16 and max(rows) * per <= setfn._CHUNK_FLOATS

    def test_sweeps_build_no_state(self, monkeypatch):
        built = []
        post_init = dual.TrainedState.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(dual.TrainedState, "__post_init__", counting)
        ctx = make_ctx(35, n=30, d=3, q=2, C=1.5)
        f_of = SetFnContext.f_of
        calls = []

        def recording(self, subset):
            # The cache keeps solver arrays, so each f_of call builds one state.
            calls.append(subset)
            return f_of(self, subset)

        monkeypatch.setattr(SetFnContext, "f_of", recording)
        result = run_selcon(ctx, SelconConfig(k=6, L=4, alpha_mode="fixed", alpha_value=1.0))
        assert len(result.trace) > 1
        assert len(built) == len(calls) < ctx.train.n
        assert isinstance(ctx.f_many([(0,), (1, 2)]), np.ndarray)
        assert ctx.mu_many([(0,), (3, 4)]).shape == (2, 2)
        assert len(built) == len(calls)

    def test_singletons_computed_once(self):
        ctx = make_ctx(36, n=9, d=3, q=2, C=1.5)
        first = ctx.singletons()
        misses, hits = ctx.cache_misses, ctx.cache_hits
        assert ctx.singletons() is first
        assert (ctx.cache_misses, ctx.cache_hits) == (misses, hits)
        assert not first.flags.writeable


class TestOneSolvePath:
    def test_exact_context_never_calls_the_one_subset_trainer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_dual_exact called")

        monkeypatch.setattr(setfn, "train_dual_exact", refuse)
        ctx = make_ctx(37, n=9, d=3, q=2, C=1.5)
        value, state = ctx.f_of((0, 3, 5))
        assert state.f_value == value and state.backend == "exact"
        assert ctx.f_many([(1,), (0, 3, 5)])[1] == value
        assert np.array_equal(ctx.mu_many([(5, 3, 0)])[0], state.mu)
        assert len(ctx.leave_one_out(np.array([0, 3, 5]))) == 3
        assert len(ctx.singletons()) == 9
        result = run_selcon(ctx, SelconConfig(k=3, L=2, alpha_mode="fixed", alpha_value=1.0))
        assert len(result.selected) == 3


class TestNotConverged:
    """Every exact stack's non-converged rows are counted on the context."""

    def test_counts_rows_the_newton_cap_cuts(self, monkeypatch):
        # Subset (0, 1, 2) takes 4 Newton iterations on this instance.
        ctx = make_ctx(41, n=9, d=3, q=2, C=1.5)
        assert ctx.f_of((0, 1, 2))[1].iterations_used == 4 and ctx.not_converged == 0
        monkeypatch.setattr(dual, "_MAX_NEWTON_ITERS", 1)
        ctx = make_ctx(41, n=9, d=3, q=2, C=1.5)
        assert not ctx.f_of((0, 1, 2))[1].converged and ctx.not_converged == 1
        ctx.f_many([(0, 1, 2)])  # a cache hit solves nothing
        assert ctx.not_converged == 1

    def test_capped_solve_warns(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_ctx(41, n=9, d=3, q=2, C=1.5).f_of((0, 1, 2))
        monkeypatch.setattr(dual, "_MAX_NEWTON_ITERS", 1)
        ctx = make_ctx(41, n=9, d=3, q=2, C=1.5)
        with pytest.warns(RuntimeWarning, match="not_converged"):
            ctx.f_of((0, 1, 2))
        assert ctx.not_converged == 1

    def test_table_and_leave_one_out_count(self, monkeypatch):
        from selcon.oracle import f_table

        monkeypatch.setattr(dual, "_MAX_NEWTON_ITERS", 1)
        ctx = make_ctx(41, n=9, d=3, q=2, C=1.5)
        f_table(ctx)
        keys = [tuple(np.flatnonzero(mask >> np.arange(9) & 1).tolist()) for mask in range(512)]
        cut = {key for key in keys if not ctx.f_of(key)[1].converged}
        assert (0, 1, 2) in cut and ctx.not_converged == len(cut)
        ref = make_ctx(41, n=9, d=3, q=2, C=1.5)
        ref.leave_one_out(np.arange(4))
        assert ref.not_converged == sum(tuple(j for j in range(4) if j != i) in cut
                                        for i in range(4)) > 0


class TestFEmpty:
    def test_zero_when_slack(self):
        ctx = make_ctx(25, delta=100.0, C=2.0)
        assert ctx.f_empty() == 0.0

    def test_zero_when_C_zero(self):
        ctx = make_ctx(26, C=0.0)
        assert ctx.f_empty() == 0.0

    def test_bounded_when_delta_zero(self):
        ctx = make_ctx(27, delta=0.0, C=1.5, q=2)
        y_max = np.max(np.abs(ctx.valpart.data.targets))
        value = ctx.f_empty()
        assert 0.0 <= value <= ctx.C * ctx.valpart.q * y_max**2


class TestSandwich:
    def test_cross_evaluated_bounds(self):
        # Marginal gains sit between the two cross-evaluated loss values.
        ctx = make_ctx(28, n=7, q=2, delta=0.1)
        rng = np.random.default_rng(5)
        for _ in range(25):
            size = int(rng.integers(0, 6))
            perm = rng.permutation(7)
            subset = tuple(sorted(int(v) for v in perm[:size]))
            a = int(perm[size])
            with_a = tuple(sorted(subset + (a,)))
            f_s, st_s = ctx.f_of(subset)
            f_sa, st_sa = ctx.f_of(with_a)
            gain = f_sa - f_s
            x_a, y_a = ctx.train.features[a], ctx.train.targets[a]
            w_lo = solve_inner_linear(st_s.mu, with_a, ctx.train, ctx.valpart, ctx.lam).w
            lower = ctx.lam * w_lo @ w_lo + (y_a - w_lo @ x_a) ** 2
            w_up = solve_inner_linear(st_sa.mu, subset, ctx.train, ctx.valpart, ctx.lam).w
            upper = ctx.lam * w_up @ w_up + (y_a - w_up @ x_a) ** 2
            assert lower - 1e-7 <= gain <= upper + 1e-7


class TestSettings:
    @pytest.mark.parametrize("field,value", [
        ("lam", np.nan), ("lam", np.inf), ("lam", 0.0), ("C", np.nan), ("C", np.inf), ("C", -1.0),
    ])
    def test_refused_before_any_solve(self, field, value):
        ctx = make_ctx(36, n=5)
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            replace(ctx, **{field: value})


class TestCacheSemantics:
    def test_contexts_agree(self):
        a = make_ctx(29, n=6)
        b = make_ctx(29, n=6)
        rng = np.random.default_rng(1)
        for _ in range(10):
            subset = tuple(sorted(rng.choice(6, size=int(rng.integers(0, 5)), replace=False)))
            assert a.f_of(subset)[0] == b.f_of(subset)[0]
        values = lambda ctx: {key: value for key, (value, _) in ctx._cache.items()}
        assert values(a) == values(b)

    def test_sgd_negative_marginals_recorded(self):
        # Force a tiny-epoch sgd backend; noisy values may yield negative
        # marginals, which must be surfaced rather than clamped.
        trainer = TrainerConfig(epochs=3, seed=0)
        ctx = make_ctx(30, n=5, backend="sgd", trainer=trainer)
        for a in range(4):
            ctx.marginal(a, (4,))
        for a, subset, gain in ctx.negative_marginals:
            assert gain < 0

    def test_replaced_context_starts_empty(self):
        ctx = make_ctx(33, n=6, q=2)
        subsets = [(), (0,), (1, 3), (0, 2, 5)]
        want = [ctx.f_of(s)[0] for s in subsets]
        ctx.f_of((0,))
        fresh = replace(ctx)
        assert (fresh.cache_hits, fresh.cache_misses, fresh._cache) == (0, 0, {})
        assert [fresh.f_of(s)[0] for s in subsets] == want
        # A replaced field gives the values of a context built with it.
        part = ctx.valpart.with_delta(0.05)
        built = SetFnContext(train=ctx.train, valpart=part, lam=ctx.lam, C=0.0)
        assert [replace(ctx, C=0.0, valpart=part).f_of(s)[0] for s in subsets] == [
            built.f_of(s)[0] for s in subsets
        ]
        two_layer = SetFnContext(train=ctx.train, valpart=part, lam=ctx.lam, C=ctx.C,
                                 backend="sgd", model_kind="two_layer")
        assert replace(two_layer, C=0.0).model_kind == "two_layer"

    def test_only_the_settable_fields(self):
        assert [f.name for f in dataclasses.fields(SetFnContext)] == [
            "train", "valpart", "lam", "C", "backend", "trainer", "model_kind"]

    def test_exact_backend_requires_linear(self):
        with pytest.raises(ValueError):
            make_ctx(31, backend="exact").__class__(
                train=make_ctx(31).train,
                valpart=make_ctx(31).valpart,
                lam=1.0,
                C=0.0,
                backend="exact",
                model_kind="two_layer",
            )
