import json
import shlex
from pathlib import Path

import pytest

from selcon import cli, errors, oracle


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

    def test_env_seed_override(self, data_csv, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        monkeypatch.setenv("SELCON_SEED", "11")
        run(["select", "--data", str(data_csv), "--target", "y", "--delta", "0.5",
             "--k", "4", "--seed", "3", "--out", str(out1)])
        monkeypatch.delenv("SELCON_SEED")
        run(["select", "--data", str(data_csv), "--target", "y", "--delta", "0.5",
             "--k", "4", "--seed", "11", "--out", str(out2)])
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
            "[selcon]\nL = 3\nalpha_mode = fixed\nalpha_value = 1\nalpha_floor = 0.5\n"
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
                assert (c.k, c.L, c.alpha_mode, c.alpha_value, c.alpha_floor) == (4, 3, "fixed", 1.0, 0.5)


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


USAGE_ERRORS = (
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
