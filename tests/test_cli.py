import functools
import gc
import json
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from selcon import bounds, cli, dataset, dual, errors, oracle, selection, setfn
from selcon.dual import TrainerConfig


def run(argv):
    return cli.main(argv)


@pytest.fixture
def data_csv(tmp_path):
    p = tmp_path / "data.csv"
    assert run(["gen", "--n", "120", "--d", "3", "--noise", "0.3", "--seed", "1",
                "--out", str(p)]) == 0
    return p


@pytest.fixture
def grouped_csv(tmp_path):
    p = tmp_path / "grouped.csv"
    assert run(["gen", "--n", "160", "--d", "3", "--groups", "4", "--noise", "0.3",
                "--seed", "2", "--out", str(p)]) == 0
    return p


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["gen", "--n", "30", "--d", "2", "--groups", "3", "--seed", "9",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_n(self, tmp_path):
        assert run(["gen", "--n", "0", "--d", "2", "--out", str(tmp_path / "x.csv")]) == 2

    def test_negative_groups_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["gen", "--n", "5", "--d", "2", "--groups", "-3", "--out", str(out)]) == 2
        assert "n_groups" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exit_2(self, tmp_path, capsys, noise):
        out = tmp_path / "x.csv"
        assert run(["gen", "--n", "5", "--d", "2", "--noise", noise, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "noise_sd" in err and "Warning" not in err
        assert not out.exists()


class TestSelect:
    def test_report_fields(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "select", "--data", str(data_csv), "--target", "y",
            "--lambda", "0.5", "--C", "2.0", "--delta", "auto", "--k", "8",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["selected"]) == 8
        assert {"f_value", "trace", "bounds", "test_mse", "selected_ids", "delta"} <= set(report)
        assert "timing" not in report

    def test_bounds_hold_what_exact_training_certifies(self, grouped_csv, tmp_path):
        # One ratio, at exact training, and every certificate at the run's Q.
        out = tmp_path / "report.json"
        assert run(["select", "--data", str(grouped_csv), "--target", "y", "--group", "group",
                    "--partition", "by_group", "--lambda", "0.5", "--C", "2.0", "--delta", "auto",
                    "--k", "8", "--out", str(out)]) == 0
        block = json.loads(out.read_text())["bounds"]
        assert set(block) == {"alpha_hat", "kappa_hat", "ell_star", "ell_star_loss_floor", "ell",
                              "lambda_min", "ratio_perfect"}
        train, val, _ = dataset.split(dataset.load_csv(grouped_csv, "y", "group"),
                                      dataset.SplitSpec(0.8, 0.1, 0.1))
        consts = bounds.data_constants(train, val)
        assert block["lambda_min"] == bounds.lambda_min_linear(2.0, 4, consts)

    def test_trace_non_increasing(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        run([
            "select", "--data", str(data_csv), "--target", "y",
            "--lambda", "0.5", "--C", "2.0", "--delta", "0.5", "--k", "6",
            "--backend", "exact", "--alpha-mode", "fixed", "--alpha-value", "1.0",
            "--seed", "0", "--out", str(out),
        ])
        trace = json.loads(out.read_text())["trace"]
        values = [t["f_value"] for t in trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_invalid_k_exit_code(self, data_csv, tmp_path):
        code = run([
            "select", "--data", str(data_csv), "--target", "y", "--k", "5000",
            "--delta", "0.5", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_missing_column_exit_code(self, data_csv, tmp_path):
        assert run(["select", "--data", str(data_csv), "--target", "nope",
                    "--delta", "0.5"]) == 2

    def test_group_naming_the_target_exit_code(self, data_csv):
        assert run(["select", "--data", str(data_csv), "--target", "y", "--group", "y",
                    "--delta", "0.5"]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert run(["select", "--data", str(tmp_path / "nope.csv"), "--target", "y",
                    "--delta", "0.5"]) == 2

    def test_empirical_alpha_shares_the_enumeration_cap(self, tmp_path):
        # 15 rows split 0.8/0.1/0.1 leave 13 training rows, one over the cap.
        data = tmp_path / "d.csv"
        assert run(["gen", "--n", "15", "--d", "2", "--seed", "1", "--out", str(data)]) == 0
        out = tmp_path / "report.json"
        assert run(["select", "--data", str(data), "--target", "y", "--k", "2",
                    "--alpha-mode", "empirical", "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_target_leaves_bounds_null(self, tmp_path):
        data = tmp_path / "zero.csv"
        data.write_text("f0,y\n" + "".join(f"{i / 40},{(i % 3) * 0.5}\n" for i in range(40)))
        out = tmp_path / "report.json"
        assert run(["select", "--data", str(data), "--target", "y", "--k", "4", "--delta", "0.5",
                    "--alpha-mode", "fixed", "--alpha-value", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["bounds"] is None

    def test_delta_auto_builds_one_gram(self, data_csv, tmp_path, monkeypatch):
        # The 30% rule's probe partition goes on at the chosen bound.
        built = []
        gram = dataset.ValidationPartition.gram
        counted = functools.cached_property(lambda part: built.append(part.q) or gram.func(part))
        counted.__set_name__(dataset.ValidationPartition, "gram")
        monkeypatch.setattr(dataset.ValidationPartition, "gram", counted)
        assert run(["select", "--data", str(data_csv), "--target", "y", "--delta", "auto",
                    "--alpha-mode", "fixed", "--alpha-value", "1", "--k", "6",
                    "--out", str(tmp_path / "r.json")]) == 0
        assert built == [1]

    @pytest.mark.parametrize("mode", [["--alpha-mode", "fixed", "--alpha-value", "1"], []])
    def test_overflowing_certificate_is_null(self, data_csv, tmp_path, mode):
        # (1 + C*Q)**2 overflows a float above C*Q ~ 1.3e154.
        out = tmp_path / "report.json"
        assert run(["select", "--data", str(data_csv), "--target", "y", "--C", "1e200",
                    "--k", "4", "--iters", "1", *mode, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for key in ("alpha_hat", "lambda_min", "ratio_perfect"):
            assert report["bounds"][key] is None
        assert report["alpha_used"] == (1.0 if mode else selection.ALPHA_FLOOR)

    def test_timing_flag_adds_field(self, data_csv, tmp_path):
        out = tmp_path / "t.json"
        run([
            "select", "--data", str(data_csv), "--target", "y", "--delta", "0.5",
            "--k", "4", "--timing", "--out", str(out),
        ])
        assert "timing" in json.loads(out.read_text())

    def test_timing_block_is_the_only_difference(self, data_csv, tmp_path):
        argv = ["select", "--data", str(data_csv), "--target", "y", "--delta", "0.5", "--k", "4"]
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        assert run([*argv, "--out", str(plain)]) == 0
        assert run([*argv, "--timing", "--out", str(timed)]) == 0
        report = json.loads(timed.read_text())
        timing = report.pop("timing")
        assert report == json.loads(plain.read_text())
        assert set(timing) == {"wall_time_seconds", "load_seconds"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timing.values())

    def test_thread_invariance(self, data_csv, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"r{threads}.json"
            run([
                "select", "--data", str(data_csv), "--target", "y",
                "--lambda", "0.5", "--C", "1.0", "--delta", "0.4", "--k", "6",
                "--threads", threads, "--seed", "5", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_env_does_not_set_the_seed(self, data_csv, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        argv = ["select", "--data", str(data_csv), "--target", "y", "--delta", "0.5",
                "--k", "4", "--seed", "3", "--out"]
        monkeypatch.setenv("SELCON_SEED", "11")
        run(argv + [str(out1)])
        monkeypatch.delenv("SELCON_SEED")
        run(argv + [str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_sgd_two_layer_backend(self, tmp_path):
        data = tmp_path / "tiny.csv"
        run(["gen", "--n", "40", "--d", "2", "--noise", "0.2", "--seed", "4",
             "--out", str(data)])
        out = tmp_path / "sgd.json"
        code = run([
            "select", "--data", str(data), "--target", "y", "--backend", "sgd",
            "--model", "two_layer", "--epochs", "30", "--delta", "0.5", "--k", "4",
            "--iters", "2", "--alpha-mode", "fixed", "--alpha-value", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["model"]["kind"] == "two_layer"
        assert len(report["selected"]) == 4

    def test_two_layer_reports_no_linear_bounds(self, data_csv, tmp_path):
        # The bounds block certifies the linear model; a two-layer run has none.
        argv = ["select", "--data", str(data_csv), "--target", "y", "--backend", "sgd",
                "--epochs", "5", "--k", "4", "--iters", "1"]
        reports = {}
        for model in ("linear", "two_layer"):
            out = tmp_path / f"{model}.json"
            assert run([*argv, "--model", model, "--out", str(out)]) == 0
            reports[model] = json.loads(out.read_text())
        assert reports["linear"]["bounds"] is not None
        assert reports["two_layer"]["bounds"] is None
        assert reports["two_layer"]["alpha_used"] == selection.ALPHA_FLOOR

    def test_config_file_and_flag_override(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[problem]\nlambda = 0.5\nC = 1.0\ndelta = 0.4\nk = 4\n"
            "[trainer]\nseed = 7\n[selcon]\nL = 3\n"
        )
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(["select", "--data", str(data_csv), "--target", "y",
             "--config", str(cfg), "--out", str(out1)])
        report = json.loads(out1.read_text())
        assert len(report["selected"]) == 4
        # Flag overrides the file.
        run(["select", "--data", str(data_csv), "--target", "y",
             "--config", str(cfg), "--k", "6", "--out", str(out2)])
        assert len(json.loads(out2.read_text())["selected"]) == 6

    def test_selcon_section_reaches_every_command(self, grouped_csv, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[problem]\nlambda = 0.5\nC = 1.0\ndelta = 0.4\nk = 4\n"
            "[selcon]\nL = 3\nalpha_mode = fixed\nalpha_value = 1\n"
        )
        seen = {}
        real = cli.run_selcon

        def recording(ctx, sel_cfg):
            seen.setdefault(command, []).append(sel_cfg)
            return real(ctx, sel_cfg)

        monkeypatch.setattr(cli, "run_selcon", recording)
        common = ["--data", str(grouped_csv), "--target", "y", "--group", "group",
                  "--partition", "by_group", "--config", str(cfg)]
        for command, extra in (("select", []), ("bench", ["--ks", "4"]),
                               ("fairness", ["--deltas", "0.4"])):
            assert run([command, *common, *extra, "--out", str(tmp_path / command)]) == 0
        assert set(seen) == {"select", "bench", "fairness"}
        for configs in seen.values():
            for c in configs:
                assert (c.k, c.L, c.alpha_mode, c.alpha_value) == (4, 3, "fixed", 1.0)


class TestBrokenConfig:
    """A config that cannot be read as an INI file is a usage error: exit 2,
    one ``error:`` line and no traceback."""

    BROKEN = {
        "directory": None,
        "no_section_header": "k = 4\n",
        "repeated_key": "[problem]\nk = 4\nk = 5\n",
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    @pytest.mark.parametrize("command", ["select", "verify"])
    def test_exits_2(self, data_csv, tmp_path, capsys, command, case):
        cfg = tmp_path / "cfg.ini"
        if self.BROKEN[case] is None:
            cfg.mkdir()
        else:
            cfg.write_text(self.BROKEN[case])
        if command == "select":
            argv = ["select", "--data", str(data_csv), "--target", "y"]
        else:
            argv = ["verify", "--property", "monotone", "--n", "4", "--trials", "5"]
        out = tmp_path / "out.json"
        assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err
        assert "Traceback" not in err
        assert not out.exists()


class TestNonFiniteSettings:
    """NaN and infinite settings exit 2 before any exact solve, naming the setting."""

    CASES = {
        "delta-nan": (["--delta", "nan"], "delta"),
        "delta-inf": (["--delta", "inf"], "delta"),
        "alpha-nan": (["--alpha-mode", "fixed", "--alpha-value", "nan"], "alpha_value"),
        "alpha-inf": (["--alpha-mode", "fixed", "--alpha-value", "inf"], "alpha_value"),
        "C-inf": (["--C", "inf"], "C must"),
        "C-nan": (["--C", "nan"], "C must"),
        "lambda-inf": (["--lambda", "inf"], "lam must"),
        "lambda-nan": (["--lambda", "nan"], "lam must"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_select_exits_2(self, data_csv, tmp_path, capsys, monkeypatch, case):
        flags, name = self.CASES[case]
        solved = []
        many = dual.train_dual_exact_many
        monkeypatch.setattr(setfn, "train_dual_exact_many",
                            lambda *a: solved.append(a) or many(*a))
        out = tmp_path / "out.json"
        assert run(["select", "--data", str(data_csv), "--target", "y", *flags,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "finite" in err
        assert not solved and not out.exists()


class TestUnreadAlphaValue:
    """``alpha_value`` is read only with ``alpha_mode = fixed``: given with
    another mode, by flag or INI key, it exits 2 and names the key."""

    @pytest.mark.parametrize("case", ["flag", "ini"])
    def test_exits_2(self, data_csv, tmp_path, capsys, case):
        out = tmp_path / "out.json"
        argv = ["select", "--data", str(data_csv), "--target", "y", "--out", str(out)]
        if case == "flag":
            argv += ["--alpha-mode", "certified", "--alpha-value", "3"]
        else:
            cfg = tmp_path / "cfg.ini"
            cfg.write_text("[selcon]\nalpha_value = 3\n")
            argv += ["--config", str(cfg)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha_value" in err
        assert not out.exists()


def test_import_loads_no_scipy():
    # The package never imports scipy; only the tests and perfbench use it.
    code = "import sys, selcon.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


MODULES = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # A fresh interpreter per module, so that no earlier import hides a cycle.
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", f"import selcon.{module}"], cwd=src,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_package_import_loads_no_module():
    # The package re-exports nothing, so importing it loads none of its modules.
    code = "import sys, selcon; print(sorted(m for m in sys.modules if m.startswith('selcon.')))"
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_modular_bound_loads_no_driver():
    # The oracle checks the bound from its own table, not through the driver.
    code = (
        "import sys\n"
        "from selcon.dataset import gen_synthetic, partition_validation\n"
        "from selcon.oracle import check_modular_bound, empirical_alpha\n"
        "from selcon.setfn import SetFnContext\n"
        "train = gen_synthetic(5, 2, noise_sd=0.3, seed=0)\n"
        "valpart = partition_validation(gen_synthetic(4, 2, seed=1), 'single', 0.5)\n"
        "ctx = SetFnContext(train=train, valpart=valpart, lam=1.0, C=1.0)\n"
        "assert check_modular_bound(ctx, (0, 2), empirical_alpha(ctx)).passed\n"
        "print('selcon.selection' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_runs_with_scipy_blocked():
    # A None entry in sys.modules makes every scipy import raise ImportError.
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from selcon import cli\n"
        "from selcon.bounds import ell\n"
        "from selcon.dataset import Dataset\n"
        "train = Dataset(features=np.array([[1.0, 2.0], [0.0, 0.0]]), targets=np.array([3.0, 0.5]))\n"
        "print(ell(train, 0.5, model_kind='two_layer'))\n"
        "sys.exit(cli.main(['verify', '--n', '6']))\n"
    )
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.splitlines()[0]) == 0.25
    assert all(r["passed"] for r in json.loads(out.stdout.split("\n", 1)[1]))


class TestUnreadConfig:
    """A section or key that no command reads is a usage error: exit 2 and
    one ``error:`` line naming the file, the section and the key."""

    UNREAD = {
        "batch_size": "[trainer]\nbatch_size = 100\n",
        "lr_w": "[trainer]\nlr_w = 0.1\n",
        "max_outer": "[trainer]\nmax_outer = 1000\n",
        "lr_mu": "[trainer]\nlr_mu = auto\n",
        "mu_tol": "[trainer]\nmu_tol = 1e-8\n",
        "alpha_floor": "[selcon]\nalpha_floor = 0.5\n",
        "alpha_mod": "[selcon]\nalpha_mod = fixed\n",
        "solver": "[solver]\nepochs = 5\n",
        "default": "[DEFAULT]\nseed = 3\n[trainer]\nepochs = 5\n",
    }
    NAMED = {"solver": ("[solver]",), "default": ("[DEFAULT]", "'seed'")}

    @pytest.mark.parametrize("case", sorted(UNREAD))
    @pytest.mark.parametrize("command", ["select", "verify"])
    def test_exits_2(self, data_csv, tmp_path, capsys, command, case):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.UNREAD[case])
        if command == "select":
            argv = ["select", "--data", str(data_csv), "--target", "y"]
        else:
            argv = ["verify", "--property", "monotone", "--n", "4", "--trials", "5"]
        out = tmp_path / "out.json"
        assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        section = self.UNREAD[case].split("]")[0] + "]"
        for name in (str(cfg), *self.NAMED.get(case, (section, repr(case)))):
            assert name in err
        assert not out.exists()

    def test_trainer_section_reaches_trainer_config(self, data_csv, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[trainer]\nepochs = 7\nseed = 5\n")
        seen = []
        real_select, real_monotone = cli.run_selcon, cli.oracle.check_monotone
        monkeypatch.setattr(cli, "run_selcon",
                            lambda ctx, c: seen.append(ctx.trainer) or real_select(ctx, c))
        monkeypatch.setattr(cli.oracle, "check_monotone",
                            lambda ctx, **kw: seen.append(ctx.trainer) or real_monotone(ctx, **kw))
        assert run(["select", "--data", str(data_csv), "--target", "y", "--config", str(cfg),
                    "--out", str(tmp_path / "s.json")]) == 0
        assert run(["verify", "--property", "monotone", "--n", "4", "--trials", "5",
                    "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 0
        assert seen == [TrainerConfig(epochs=7, seed=5), TrainerConfig(epochs=7, seed=5)]


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--n", "5", "--d", "2", "--trials", "40",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        names = {r["property"] for r in reports}
        assert {"monotone", "sandwich", "modular_bound",
                "alpha_certificate", "kappa_certificate"} == names
        assert all(r["passed"] for r in reports)

    def test_config_seed_builds_the_instance(self, tmp_path):
        # A [trainer] seed draws the instance and the samples, as --seed does.
        cfg = tmp_path / "seed.ini"
        cfg.write_text("[trainer]\nseed = 5\n")
        argv = ["verify", "--n", "5", "--trials", "20"]
        paths = [tmp_path / f"{name}.json" for name in ("file", "flag", "default")]
        assert run([*argv, "--config", str(cfg), "--out", str(paths[0])]) == 0
        assert run([*argv, "--seed", "5", "--out", str(paths[1])]) == 0
        assert run([*argv, "--out", str(paths[2])]) == 0
        file, flag, default = (p.read_bytes() for p in paths)
        assert file == flag != default

    def test_all_properties_draw_the_pairs_once(self, tmp_path, monkeypatch):
        drawn = []
        draw_pairs = oracle._draw_pairs
        monkeypatch.setattr(oracle, "_draw_pairs",
                            lambda *a: drawn.append(a) or draw_pairs(*a))
        for _ in range(2):  # a second run draws again, from a cold context
            assert run(["verify", "--n", "5", "--trials", "40",
                        "--out", str(tmp_path / "v.json")]) == 0
        assert len(drawn) == 2

    def test_default_contexts_converge(self, tmp_path, monkeypatch):
        # The instance's and the certificate instance's solves all converge.
        contexts = []
        for name in ("check_sandwich", "check_alpha_certificate"):
            check = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, functools.partial(
                lambda check, ctx, *a, **kw: contexts.append(ctx) or check(ctx, *a, **kw), check))
        assert run(["verify", "--n", "7", "--Q", "2", "--seed", "16",
                    "--out", str(tmp_path / "v.json")]) == 0
        assert len(contexts) == 2 and all(ctx.table is not None for ctx in contexts)
        assert [ctx.not_converged for ctx in contexts] == [0, 0]

    def test_sampled_checks_read_the_table_as_the_cache(self, tmp_path):
        # With --property all the monotone and sandwich checks read the table;
        # alone, they read the cache.  Their entries are the same.
        argv = ["verify", "--n", "7", "--Q", "2", "--seed", "16"]
        assert run([*argv, "--out", str(tmp_path / "all.json")]) == 0
        entries = {r["property"]: r for r in json.loads((tmp_path / "all.json").read_text())}
        for prop in ("monotone", "sandwich"):
            assert run([*argv, "--property", prop, "--out", str(tmp_path / "one.json")]) == 0
            assert json.loads((tmp_path / "one.json").read_text()) == [entries[prop]]

    def test_one_table_solve_per_context(self, tmp_path, monkeypatch):
        # The pair draw, the multipliers, alpha, kappa, the modular bound and
        # its leave-one-out rows all read the instance's and the certificate
        # instance's tables, solved in one stack that solves f(empty) once:
        # 128 + 127 rows.
        assert self.stacks(tmp_path, monkeypatch, "all") == [255]

    @pytest.mark.parametrize("prop", ["modular", "alpha", "kappa"])
    def test_single_table_property_solves_one_table(self, tmp_path, monkeypatch, prop):
        assert self.stacks(tmp_path, monkeypatch, prop) == [128]

    @staticmethod
    def stacks(tmp_path, monkeypatch, prop):
        """Rows of each stacked exact solve of a verify --n 7 --Q 2 run."""
        stacks = []
        solve = dual.train_dual_exact_many
        counted = lambda subsets, *a: stacks.append(len(subsets)) or solve(subsets, *a)
        monkeypatch.setattr(setfn, "train_dual_exact_many", counted)
        monkeypatch.setattr(dual, "train_dual_exact_many", counted)
        assert run(["verify", "--n", "7", "--Q", "2", "--seed", "16", "--property", prop,
                    "--out", str(tmp_path / "v.json")]) == 0
        return stacks

    def test_one_run_leaves_few_cycles(self, tmp_path):
        argv = ["verify", "--n", "7", "--Q", "2", "--out", str(tmp_path / "v.json")]
        assert run(argv) == 0  # builds the parser
        gc.collect()
        gc.disable()
        try:
            assert run(argv) == 0
            left = gc.collect()
        finally:
            gc.enable()
        assert left <= 60  # a parser per run left 565

    def test_single_property(self, tmp_path):
        out = tmp_path / "one.json"
        code = run(["verify", "--property", "monotone", "--n", "5", "--trials", "20",
                    "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 1 and reports[0]["property"] == "monotone"

    @pytest.mark.parametrize("Q", ["1", "2"])
    def test_single_training_row(self, tmp_path, Q):
        # The modular-bound reference subset is capped at the n rows there are.
        out = tmp_path / "v.json"
        assert run(["verify", "--n", "1", "--Q", Q, "--out", str(out)]) == 0
        assert all(r["passed"] for r in json.loads(out.read_text()))

    def test_enumeration_cap_checked_before_any_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "check_monotone", lambda *a, **kw: calls.append(a))
        assert run(["verify", "--n", "13"]) == 2
        assert calls == []

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_a_usage_error(self, tmp_path, trials):
        out = tmp_path / "v.json"
        assert run(["verify", "--property", "monotone", "--n", "4", "--trials", trials,
                    "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("C,prop", [("1e18", "all"), ("1e20", "modular"),
                                        ("1e200", "all")])
    def test_uncheckable_C_exits_2(self, tmp_path, capsys, recwarn, monkeypatch, C, prop):
        # f grows like C: at 1e18 alpha measures 0, at 1e20 inf, and at 1e200
        # the certificates' lambda threshold overflows before any solve.
        stacks = []
        solve = dual.train_dual_exact_many
        monkeypatch.setattr(setfn, "train_dual_exact_many",
                            lambda subsets, *a: stacks.append(len(subsets)) or solve(subsets, *a))
        out = tmp_path / "v.json"
        assert run(["verify", "--n", "6", "--C", C, "--property", prop, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--C" in err and err.count("\n") == 1 and not out.exists()
        assert not recwarn.list
        assert (stacks == []) == (C == "1e200")

    def test_reports_refuse_non_finite_numbers(self):
        with pytest.raises(ValueError):
            cli._json({"worst_slack": float("inf")})

    def test_nonzero_exit_on_failure(self, tmp_path, monkeypatch):
        failed = oracle.OracleReport(
            property_name="monotone", instances_checked=1, worst_slack=-1.0,
            tolerance=1e-8, passed=False,
        )
        monkeypatch.setattr(cli.oracle, "check_monotone", lambda *a, **k: failed)
        code = run(["verify", "--property", "monotone", "--n", "4",
                    "--out", str(tmp_path / "f.json")])
        assert code == 3


class TestOneParser:
    def test_commands_back_to_back_match_separate_runs(self, grouped_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)  # bench's timing columns
        data = ["--data", str(grouped_csv), "--target", "y", "--group", "group", "--k", "8",
                "--alpha-mode", "fixed", "--alpha-value", "1"]
        commands = [["select", *data, "--delta", "auto"], ["verify", "--n", "5", "--Q", "2"],
                    ["bench", *data, "--ks", "6", "--delta", "0.5"], ["select", *data]]

        def outputs(name, fresh_parser):
            paths = []
            for i, argv in enumerate(commands):
                if fresh_parser:
                    cli._parser.cache_clear()
                paths.append(tmp_path / f"{name}{i}.out")
                assert run([*argv, "--out", str(paths[-1])]) == 0
            return [p.read_bytes() for p in paths]

        assert outputs("shared", False) == outputs("separate", True)


class TestBench:
    def test_csv_shape(self, data_csv, tmp_path):
        out = tmp_path / "bench.csv"
        code = run([
            "bench", "--data", str(data_csv), "--target", "y", "--ks", "4,8",
            "--lambda", "0.5", "--C", "1.0", "--delta", "0.4", "--seed", "1",
            "--alpha-mode", "fixed", "--alpha-value", "1.0", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,k,mse,f,select_seconds,fit_seconds"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"full", "full-constrained", "selcon",
                           "selcon-unconstrained", "random", "random-constrained"}
        # 2 full rows + 4 methods x 2 ks
        assert len(lines) == 1 + 2 + 8
        assert all(float(line.split(",")[5]) > 0.0 for line in lines[1:])

    def test_numeric_fields_parse(self, data_csv, tmp_path):
        out = tmp_path / "bench.csv"
        assert run([
            "bench", "--data", str(data_csv), "--target", "y", "--ks", "4",
            "--lambda", "0.5", "--C", "1.0", "--delta", "0.4", "--seed", "1",
            "--alpha-mode", "fixed", "--alpha-value", "1.0", "--out", str(out),
        ]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            method, *numbers = line.split(",")
            assert len(numbers) == 5, line
            for field in numbers:
                float(field)  # raises on reprs such as np.float64(...)

    @pytest.mark.parametrize("ks", ["0", "500", "4,500"])
    def test_bad_k_exits_before_any_fit(self, data_csv, monkeypatch, capsys, ks):
        def refuse(*args, **kwargs):
            raise AssertionError("full_selection called")

        # A numeric --delta, so that the 30% rule fits nothing either.
        monkeypatch.setattr(cli.baselines, "full_selection", refuse)
        assert run(["bench", "--data", str(data_csv), "--target", "y", "--ks", ks,
                    "--delta", "0.4", "--alpha-mode", "fixed", "--alpha-value", "1"]) == 2
        k = ks.split(",")[-1]
        assert f"k = {k} is outside [1, " in capsys.readouterr().err


class TestFairnessCmd:
    def test_requires_group(self, data_csv):
        assert run(["fairness", "--data", str(data_csv), "--target", "y",
                    "--delta", "0.5"]) == 2

    def test_emits_rows(self, grouped_csv, tmp_path):
        out = tmp_path / "fair.json"
        code = run([
            "fairness", "--data", str(grouped_csv), "--target", "y", "--group", "group",
            "--partition", "by_group", "--lambda", "0.3", "--C", "5.0",
            "--delta", "auto", "--k", "8", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["q"] == 4
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            assert {"delta", "selcon", "random_constrained"} <= set(row)

    def test_partition_defaults_to_by_group(self, grouped_csv, tmp_path):
        common = ["fairness", "--data", str(grouped_csv), "--target", "y", "--group", "group",
                  "--k", "8", "--deltas", "0.4,0.2"]
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert run([*common, "--out", str(default)]) == 0
        assert run([*common, "--partition", "by_group", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    def test_single_partition_names_the_flag(self, tmp_path, capsys):
        missing = tmp_path / "never_read.csv"  # refused before the CSV is read
        assert run(["fairness", "--data", str(missing), "--target", "y", "--group", "group",
                    "--partition", "single"]) == 2
        assert "--partition by_group" in capsys.readouterr().err


class TestNonConvergedWarning:
    @staticmethod
    def stall_argv(tmp_path):
        # Features scaled by 120 at lambda 3 and C 3000: once the arc search
        # accepted on Armijo alone, a row of this run stalled in it, its phi
        # changes lost in rounding.
        r = np.random.default_rng(0)
        X = r.normal(size=(60, 8)) * 120
        y = X @ r.normal(size=8) + r.normal(size=60)
        data = tmp_path / "stall.csv"
        dataset.save_csv(dataset.Dataset(X, y), data)
        return ["select", "--data", str(data), "--target", "y", "--lambda", "3", "--C", "3000",
                "--k", "5", "--alpha-mode", "fixed", "--alpha-value", "1"]

    def test_stall_repro_converges(self, tmp_path):
        out = tmp_path / "stall.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*self.stall_argv(tmp_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["selected"] == [0, 8, 23, 31, 40]
        assert report["f_value"] == pytest.approx(93.18178306380585, rel=1e-9)

    def test_stalled_select_warns_and_keeps_its_report(self, tmp_path, monkeypatch):
        # One Newton iteration per solve leaves rows short of convergence.
        monkeypatch.setattr(dual, "_MAX_NEWTON_ITERS", 1)
        argv = self.stall_argv(tmp_path)
        warned, quiet = tmp_path / "warned.json", tmp_path / "quiet.json"
        with pytest.warns(RuntimeWarning, match="not_converged"):
            assert run([*argv, "--out", str(warned)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run([*argv, "--out", str(quiet)]) == 0
        assert warned.read_bytes() == quiet.read_bytes()
        assert json.loads(warned.read_text())["selected"]


USAGE_ERRORS = (
    errors.ColumnConflict,
    errors.InvalidK,
    errors.MissingColumn,
    errors.MissingGroups,
    errors.NeedTwoGroups,
    errors.EmptySplit,
    errors.EmptyFile,
    errors.ParseFailure,
    errors.NonFiniteValue,
    errors.TooLarge,
    errors.ZeroTarget,
)
_ERROR_ARGS = {
    errors.MissingColumn: ("y",),
    errors.ParseFailure: (0, "y", "x"),
    errors.NonFiniteValue: (0, "y"),
    errors.ZeroTarget: (),
}


class TestExitCodes:
    @staticmethod
    def _exit_code(monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.oracle, "check_monotone", fail)
        return run(["verify", "--property", "monotone", "--n", "4"])

    @pytest.mark.parametrize("cls", USAGE_ERRORS, ids=lambda cls: cls.__name__)
    def test_usage_errors_exit_2(self, monkeypatch, cls):
        assert self._exit_code(monkeypatch, cls(*_ERROR_ARGS.get(cls, ("bad input",)))) == 2

    def test_other_library_errors_exit_1(self, monkeypatch):
        assert self._exit_code(monkeypatch, errors.NotConverged("no", value=1.0)) == 1

    def test_usage_errors_are_exactly_these(self):
        def subclasses(cls):
            return {sub for direct in cls.__subclasses__() for sub in (direct, *subclasses(direct))}

        assert subclasses(errors.UsageError) == set(USAGE_ERRORS)


def readme_cli_commands() -> list[list[str]]:
    """The argv of every ``selcon ...`` line in the README's CLI block, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("selcon ")]


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == ["gen", "select", "verify", "bench", "fairness"]
    for argv in commands:
        assert run(argv) == 0, argv
