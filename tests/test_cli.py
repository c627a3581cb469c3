import csv
import json
import logging
import math
import re
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cocogen import cli, economics, solver
from cocogen.errors import ZeroTotalData
from cocogen.model import (
    PayoffMode,
    ScalingLaw,
    save_scenario,
    scenario_to_dict,
    with_payoff_mode,
)
from cocogen.scaling import heterogeneity_presets
from cocogen.scenario import (
    GammaLevel,
    SweepCell,
    default_sweep_grid,
    expand_sweep,
    sample_scenario,
)

from helpers import reference_scheme_rows, table1_scenario


def write_scenario(tmp_path, s, name="scenario.json"):
    path = tmp_path / name
    save_scenario(s, path)
    return str(path)


def write_small_sweep(tmp_path, reps=2, radg=5, seed=11):
    payload = {
        "gamma_levels": [{"lo": 0.0, "hi": 0.5}, {"lo": 0.5, "hi": 1.0}],
        "alpha_d_levels": [0.1, 0.9],
        "repetitions": reps,
        "base_seed": seed,
        "n_orgs": 4,
        "xi": 20.0,
        "org_defaults": {"eta": 1.79e20, "mu": 1.79e20},
        "economy": {"eps0_mode": "fixed", "eps0_value": 1.0},
        "bounds": {"d_min": 0, "d_max": 3000},
        "radg_repetitions": radg,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def shipped_example_with(tmp_path, path, value, name="scenario_example.json"):
    """A shipped data file (the example scenario by default) with one field
    replaced."""
    from importlib import resources

    src = resources.files("cocogen").joinpath(f"data/{name}")
    payload = json.loads(src.read_text(encoding="utf-8"))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload), encoding="utf-8")
    return str(edited)


def example_scenario(seed=7):
    grid = default_sweep_grid()
    cell = SweepCell(
        gamma=GammaLevel(0.0, 1.0), alpha_d=0.5, law=heterogeneity_presets()[0.5]
    )
    return sample_scenario(grid, cell, seed)


class TestFitCommand:
    def test_fit_round_trip(self, tmp_path):
        law = ScalingLaw(5.0, 0.4, 0.08)
        curve = tmp_path / "curve.csv"
        rows = ["d,eps"] + [f"{d},{law.error_at(d)!r}" for d in (500, 1000, 2000, 4000, 8000)]
        curve.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(curve), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["law"]["alpha"] == pytest.approx(5.0, rel=1e-6)
        assert payload["law"]["beta"] == pytest.approx(0.4, rel=1e-6)
        assert payload["manifest"]["command"] == "fit"
        assert payload["manifest"]["prng_id"]

    def test_empty_file_is_input_error(self, tmp_path):
        curve = tmp_path / "empty.csv"
        curve.write_text("", encoding="utf-8")
        assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 2

    def test_two_points_is_fit_error(self, tmp_path):
        curve = tmp_path / "two.csv"
        curve.write_text("d,eps\n500,0.3\n1000,0.2\n", encoding="utf-8")
        assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 3

    def test_missing_file_is_input_error(self, tmp_path):
        assert cli.main(["fit", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps_is_input_error(self, tmp_path, capsys, eps):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"d,eps\n500,0.3\n1000,{eps}\n2000,0.1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 2
        assert "curve csv row 2: curve point eps: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("row, count", [("1000,0.2,7", 3), ("1000", 1)])
    def test_wrong_field_count_is_input_error(self, tmp_path, capsys, row, count):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"d,eps\n500,0.3\n\n{row}\n2000,0.1\n", encoding="utf-8")
        assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 2
        assert f"curve csv row 2: has {count} fields" in capsys.readouterr().err


class TestSolveCommand:
    def test_shipped_example_solves_and_certifies(self, tmp_path):
        from importlib import resources

        src = resources.files("cocogen").joinpath("data/scenario_example.json")
        scenario_path = tmp_path / "example.json"
        scenario_path.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        code = cli.main(
            ["solve", str(scenario_path), "-o", str(out), "--trace", str(trace), "--verify-ne"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["ne_certificate"]["is_ne"] is True
        assert len(payload["profile"]) == 10
        assert payload["manifest"]["command"] == "solve"
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "F"]
        assert len(rows) == len(payload["potential_trace"]) + 1

    def test_golden_profile_for_shipped_example(self, tmp_path):
        from importlib import resources

        src = resources.files("cocogen").joinpath("data/scenario_example.json")
        p = tmp_path / "example.json"
        p.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(p), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        golden = [3000.0, 1278.0, 3000.0, 3000.0, 1343.0, 1139.0, 90.0, 1198.0, 305.0, 1874.0]
        assert payload["profile"] == golden
        assert payload["welfare"] == pytest.approx(302.2988, rel=1e-4)

    def test_malformed_scenario_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["solve", str(bad)]) == 2

    def test_invalid_scenario_is_input_error(self, tmp_path):
        payload = scenario_to_dict(example_scenario())
        payload["market"]["xi"] = 1e9
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("market", "gamma", 0, 1), math.nan, "market.gamma"),
            (("organizations", 0, "psi"), math.inf, "organizations[0].psi"),
        ],
    )
    def test_non_finite_input_is_input_error(self, tmp_path, capsys, command, path, value, field):
        bad = shipped_example_with(tmp_path, path, value)
        assert cli.main([command, bad]) == 2
        assert f"{field}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("seed",), True, "seed"),
            (("organizations", 0, "d_loc"), 1500.7, "organizations[0].d_loc"),
            (("organizations", 0, "d_loc"), 0, "organizations[0].d_loc"),
        ],
    )
    def test_unusable_integer_input_is_input_error(
        self, tmp_path, capsys, command, path, value, field
    ):
        # d_loc = 0 with the shipped d_min = 0 leaves no training data.
        bad = shipped_example_with(tmp_path, path, value)
        assert cli.main([command, bad]) == 2
        assert f"{field}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_bad_error_law_is_reported_with_every_other_violation(
        self, tmp_path, capsys, command
    ):
        from importlib import resources

        from cocogen.errors import ScenarioValidationError
        from cocogen.model import scenario_from_dict

        src = resources.files("cocogen").joinpath("data/scenario_example.json")
        payload = json.loads(src.read_text(encoding="utf-8"))
        payload["organizations"][0]["law"]["alpha"] = -1
        payload["organizations"][3]["psi"] = -5
        want = ["organizations[0].law.alpha: must be > 0", "organizations[3].psi: must be >= 0"]
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(payload)
        assert [str(v) for v in exc.value.violations] == want
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert all(w in err for w in want)

    @pytest.mark.parametrize(
        "command, name, path, value, field",
        [
            ("solve", "scenario_example.json", ("economy",), 5, "economy"),
            ("compare", "scenario_example.json", ("economy",), 5, "economy"),
            ("sweep", "sweep_default.json", ("gamma_levels",), [1], "gamma_levels[0]"),
            ("sweep", "sweep_default.json", ("gamma_levels",), 1, "gamma_levels"),
        ],
    )
    def test_non_object_block_is_input_error(
        self, tmp_path, capsys, command, name, path, value, field
    ):
        bad = shipped_example_with(tmp_path, path, value, name)
        assert cli.main([command, bad, "-o", str(tmp_path / "out")]) == 2
        assert f"{field}: must be an" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name, path, value, message",
        [
            ("solve", "scenario_example.json", ("market", "xi"), None,
             "market.xi: must be a number"),
            ("solve", "scenario_example.json", ("organizations", 0, "f"), [1],
             "organizations[0].f: must be a number"),
            ("solve", "scenario_example.json", ("organizations", 0, "law", "alpha"), {},
             "organizations[0].law.alpha: must be a number"),
            ("solve", "scenario_example.json", ("market", "gamma"), {},
             "market.gamma: must be an array of numbers"),
            ("compare", "scenario_example.json", ("economy", "varrho"), None,
             "economy.varrho: must be a number"),
            ("sweep", "sweep_default.json", ("xi",), None, "xi: must be a number"),
            ("sweep", "sweep_default.json", ("gamma_levels", 0, "lo"), [0.0],
             "gamma_levels[0].lo: must be a number"),
            ("sweep", "sweep_default.json", ("alpha_d_levels", 1), {},
             "alpha_d_levels[1]: must be a number"),
            ("sweep", "sweep_default.json", ("org_defaults", "eta"), None,
             "org_defaults.eta: must be a number"),
            ("sweep", "sweep_default.json", ("economy", "eps0_value"), [1.0],
             "economy.eps0_value: must be a number"),
        ],
    )
    def test_non_numeric_field_is_input_error(
        self, tmp_path, capsys, command, name, path, value, message
    ):
        bad = shipped_example_with(tmp_path, path, value, name)
        assert cli.main([command, bad, "-o", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name, path, field",
        [
            ("solve", "scenario_example.json", ("organizations", 0, "d_loc"),
             "organizations[0].d_loc"),
            ("solve", "scenario_example.json", ("organizations", 0, "f"), "organizations[0].f"),
            ("solve", "scenario_example.json", ("bounds", "d_max"), "bounds.d_max"),
            ("solve", "scenario_example.json", ("market", "gamma", 0, 1), "market.gamma"),
            ("solve", "scenario_example.json", ("market", "phi", 1), "market.phi"),
            ("sweep", "sweep_default.json", ("xi",), "xi"),
        ],
    )
    def test_number_beyond_float64_is_input_error(
        self, tmp_path, capsys, command, name, path, field
    ):
        bad = shipped_example_with(tmp_path, path, 10**400, name)
        assert cli.main([command, bad, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{field}: must be within the float64 range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_flag_is_input_error(self, tmp_path, capsys, command, seed):
        path = shipped_example_with(tmp_path, ("seed",), 0)
        assert cli.main([command, path, "--seed", seed, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "seed: must fit in 64 unsigned bits" in err
        assert "Traceback" not in err

    def test_verify_ne_on_a_huge_box_is_input_error(self, tmp_path, capsys):
        path = shipped_example_with(tmp_path, ("bounds", "d_max"), 2**40)
        assert cli.main(["solve", path, "-o", str(tmp_path / "r.json"), "--verify-ne"]) == 2
        err = capsys.readouterr().err
        assert "bounds.d_max" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_stationary_point_clips_to_the_floor(self, tmp_path, capsys):
        path = shipped_example_with(tmp_path, ("economy", "varrho"), 1e-3)
        out = tmp_path / "r.json"
        assert cli.main(["solve", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        # Every stationary point clips to the floor, so the all-d_min mean
        # error is the root and the bracket is closed before any step.
        assert payload["converged"] is True and payload["iterations"] == 0
        assert payload["profile"] == [0.0] * 10
        assert set(payload["cases"]) == {"lower_bound"}
        assert math.isfinite(payload["welfare"])
        capsys.readouterr()
        assert cli.main(["compare", path]) == 0
        assert "CoCoGen" in capsys.readouterr().out

    def test_overflowing_global_error_is_input_error(self, tmp_path, capsys):
        # exp((mean error - 1) / varrho) overflows at the all-d_min profile.
        path = shipped_example_with(tmp_path, ("economy", "varrho"), 0.01)
        payload = json.loads(open(path, encoding="utf-8").read())
        for org in payload["organizations"]:
            org["law"]["alpha"], org["d_loc"] = 200.0, 1
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["solve", str(bad), "--allow-nonconverged"]) == 2
        assert "economy.varrho: too small" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep", "compare"])
    @pytest.mark.parametrize(
        "flag, value", [("--tol", "0"), ("--max-iters", "0")]
    )
    def test_invalid_solver_flag_is_usage_error(self, tmp_path, capsys, command, flag, value):
        path = shipped_example_with(tmp_path, ("seed",), 0)
        if command == "sweep":
            path = write_small_sweep(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, path, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_loose_tolerance_uses_fewer_iterations(self, tmp_path, capsys):
        path = write_scenario(tmp_path, example_scenario())
        iters = {}
        for tol in ("1e-1", "1e-14"):
            out = tmp_path / f"r{tol}.json"
            assert cli.main(["solve", path, "-o", str(out), "--tol", tol]) == 0
            iters[tol] = json.loads(out.read_text())["iterations"]
        assert iters["1e-1"] < iters["1e-14"]

    def test_nonconvergence_exit_code_and_override(self, tmp_path):
        path = write_scenario(tmp_path, example_scenario())
        args = ["solve", path, "-o", str(tmp_path / "r.json"), "--max-iters", "1",
                "--tol", "1e-16"]
        assert cli.main(args) == 4
        assert cli.main(args + ["--allow-nonconverged"]) == 0

    def test_stdout_report_is_the_file_report(self, tmp_path, capsys):
        path = shipped_example_with(tmp_path, ("seed",), 0)
        out = tmp_path / "r.json"
        assert cli.main(["solve", path, "-o", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["solve", path]) == 0
        printed, written = capsys.readouterr().out, out.read_text(encoding="utf-8")
        payloads = []
        for text in (printed, written):
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            payload = json.loads(text)
            del payload["manifest"]["started"], payload["manifest"]["finished"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_payoff_mode_flag_changes_bb(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=np.array([1, 1], dtype=np.uint64)))
        g = rng.uniform(0, 1, size=(10, 10))
        g = (g + g.T) / 2
        np.fill_diagonal(g, 0.0)
        s = example_scenario()
        from dataclasses import replace
        from cocogen.model import Market

        s = replace(s, market=Market(gamma=g, xi=s.market.xi, phi=s.market.phi))
        path = write_scenario(tmp_path, s)
        out_l = tmp_path / "lit.json"
        out_a = tmp_path / "anti.json"
        assert cli.main(["solve", path, "-o", str(out_l), "--payoff-mode", "literal"]) == 0
        assert cli.main(["solve", path, "-o", str(out_a), "--payoff-mode", "antisymmetric"]) == 0
        lit = json.loads(out_l.read_text())
        anti = json.loads(out_a.read_text())
        assert not lit["bb"]["balanced"]
        assert anti["bb"]["balanced"]


class TestSweepCommand:
    def test_row_counts_and_schema(self, tmp_path):
        sweep = write_small_sweep(tmp_path)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", sweep, "-o", str(out_dir), "--jobs", "1"]) == 0
        with open(out_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2 * 4
        assert set(rows[0]) == set(cli.SWEEP_COLUMNS)
        assert {r["scheme"] for r in rows} == {"CoCoGen", "VCFL", "WCO", "RaDG"}
        assert all(r["status"] == "ok" for r in rows)
        # per-figure aggregates exist and carry the manifest sidecars
        for name in ("aggregate.csv", "fig3_cocogen.csv", "fig4_schemes.csv"):
            assert (out_dir / name).exists()
            manifest = json.loads((out_dir / (name + ".manifest.json")).read_text())
            assert manifest["manifest"]["command"] == "sweep"
            assert manifest["manifest"]["prng_id"]

    def test_csv_is_rfc4180_parseable_with_17_digit_floats(self, tmp_path):
        sweep = write_small_sweep(tmp_path, reps=1, radg=3)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", sweep, "-o", str(out_dir), "--jobs", "1"]) == 0
        with open(out_dir / "results.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            widths = {len(row) for row in reader}
        assert widths == {len(header)}
        with open(out_dir / "results.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["welfare"]) == float(repr(float(row["welfare"])))

    def test_byte_identical_reruns(self, tmp_path):
        sweep = write_small_sweep(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["sweep", sweep, "-o", str(out1), "--jobs", "2"]) == 0
        assert cli.main(["sweep", sweep, "-o", str(out2), "--jobs", "1"]) == 0
        b1 = (out1 / "results.csv").read_bytes()
        b2 = (out2 / "results.csv").read_bytes()
        assert b1 == b2

    def test_zero_radg_repetitions_is_input_error(self, tmp_path, capsys):
        sweep = write_small_sweep(tmp_path, radg=0)
        assert cli.main(["sweep", sweep, "-o", str(tmp_path / "out")]) == 2
        assert "radg_repetitions: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_orgs", -3, "n_orgs: must be >= 1"),
            ("n_orgs", 0, "n_orgs: must be >= 1"),
            ("alpha_d_levels", [0.3], "alpha_d_levels: no heterogeneity preset for 0.3"),
        ],
    )
    def test_unusable_grid_is_input_error(self, tmp_path, capsys, jobs, key, value, message):
        sweep = shipped_example_with(tmp_path, (key,), value, name="sweep_default.json")
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", sweep, "-o", str(out_dir), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_progress_log_is_short(self, tmp_path, caplog):
        sweep = write_small_sweep(tmp_path, reps=9, radg=2)  # 36 jobs
        with caplog.at_level(logging.INFO, logger="cocogen"):
            assert cli.main(["sweep", sweep, "-o", str(tmp_path / "out"), "--jobs", "1"]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "cocogen"]
        pattern = r"sweep: \d+/36 jobs done, \d+ jobs/s"
        progress = [line for line in lines if re.fullmatch(pattern, line)]
        assert 1 <= len(progress) <= 10
        assert progress[-1].startswith("sweep: 36/36 jobs done")
        assert lines[-1] == "sweep: 144 rows: 144 ok"
        assert len(lines) == len(progress) + 1

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        sweep = write_small_sweep(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["sweep", sweep, "-o", str(out1), "--jobs", "1", "--seed", "123"]) == 0
        assert cli.main(["sweep", sweep, "-o", str(out2), "--jobs", "1", "--seed", "124"]) == 0
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


class TestDispatch:
    """``main`` reuses one parser per process; nothing else carries over."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_command_rebound_after_a_call_is_the_one_that_runs(
        self, tmp_path, monkeypatch, command
    ):
        path = shipped_example_with(tmp_path, ("seed",), 0)
        if command == "sweep":
            path = write_small_sweep(tmp_path, reps=1, radg=2)
        assert cli.main([command, path, "-o", str(tmp_path / "first")]) == 0
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args) or 7)
        assert cli.main([command, path, "-o", str(tmp_path / "second")]) == 7
        assert [a.command for a in seen] == [command]
        assert not (tmp_path / "second").exists()

    def test_verify_ne_does_not_carry_over(self, tmp_path):
        path = shipped_example_with(tmp_path, ("seed",), 0)
        first, second = tmp_path / "ne.json", tmp_path / "plain.json"
        assert cli.main(["solve", path, "-o", str(first), "--verify-ne"]) == 0
        assert cli.main(["solve", path, "-o", str(second)]) == 0
        assert "ne_certificate" in json.loads(first.read_text())
        assert "ne_certificate" not in json.loads(second.read_text())

    def test_seed_flag_does_not_carry_over(self, tmp_path):
        sweep = write_small_sweep(tmp_path, reps=1, radg=2, seed=11)
        out = {k: tmp_path / k for k in ("seed5", "plain", "seed11")}
        assert cli.main(["sweep", sweep, "-o", str(out["seed5"]), "--jobs", "1", "--seed", "5"]) == 0
        assert cli.main(["sweep", sweep, "-o", str(out["plain"]), "--jobs", "1"]) == 0
        assert cli.main(["sweep", sweep, "-o", str(out["seed11"]), "--jobs", "1", "--seed", "11"]) == 0
        results = {k: (v / "results.csv").read_bytes() for k, v in out.items()}
        assert results["plain"] == results["seed11"] != results["seed5"]
        manifest = json.loads((out["plain"] / "results.csv.manifest.json").read_text())
        assert manifest["manifest"]["seed"] is None


def _preset_job(k=0):
    grid = default_sweep_grid()
    job = expand_sweep(grid)[k]
    return grid, job, sample_scenario(grid, job.cell, job.seed)


def _row_types(rows):
    return [{key: type(v) for key, v in r.items()} for r in rows]


class TestSchemeRows:
    @pytest.mark.parametrize("mode", [PayoffMode.LITERAL, PayoffMode.ANTISYMMETRIC])
    def test_equal_to_pricing_each_scheme_alone(self, mode):
        grid = default_sweep_grid()
        cfg = solver.SolverConfig()
        for job in expand_sweep(grid)[:90]:
            s = with_payoff_mode(sample_scenario(grid, job.cell, job.seed), mode)
            rows, wco = cli.scheme_rows(s, cfg, job.seed, grid.radg_repetitions)
            expected, clone_welfare = reference_scheme_rows(
                s, cfg, job.seed, grid.radg_repetitions
            )
            assert rows == expected
            assert _row_types(rows) == _row_types(expected)
            assert wco.welfare == clone_welfare

    @pytest.mark.parametrize("failing", ["CoCoGen", "WCO"])
    def test_failed_solve_leaves_the_other_rows(self, monkeypatch, failing):
        grid, job, s = _preset_job()
        cfg = solver.SolverConfig()
        expected, _ = cli.scheme_rows(s, cfg, job.seed, grid.radg_repetitions)
        real = solver.fpi_solve

        def fpi_solve(scenario, cfg=None):
            # The real scenario is CoCoGen's; WCO solves a clone of it.
            if (scenario is s) == (failing == "CoCoGen"):
                raise ZeroTotalData("injected")
            return real(scenario, cfg)

        monkeypatch.setattr(solver, "fpi_solve", fpi_solve)
        rows, wco = cli.scheme_rows(s, cfg, job.seed, grid.radg_repetitions)
        k = cli.SCHEMES.index(failing)
        assert [r["scheme"] for r in rows] == list(cli.SCHEMES)
        assert rows[k]["status"] == "error:ZeroTotalData"
        assert math.isnan(rows[k]["welfare"]) and rows[k]["converged"] is False
        assert rows[:k] + rows[k + 1:] == expected[:k] + expected[k + 1:]
        assert (wco is None) == (failing == "WCO")

    def test_sweep_job_prices_its_scenario_in_one_call(self, monkeypatch):
        grid, job, _ = _preset_job()
        calls = []
        for name in ("evaluate_profile", "evaluate_profiles"):
            real = getattr(economics, name)
            monkeypatch.setattr(
                economics, name,
                lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a),
            )
        rows = cli.run_sweep_job(grid, job, solver.SolverConfig())
        assert [r["status"] for r in rows] == ["ok"] * 4
        assert calls == ["evaluate_profiles"]


class TestNonFiniteWelfare:
    @pytest.fixture
    def nan_pricing(self, monkeypatch):
        real = economics.evaluate_profiles

        def evaluate_profiles(s, profiles):
            ev = real(s, profiles)
            return replace(ev, welfare=np.full_like(ev.welfare, np.nan))

        monkeypatch.setattr(economics, "evaluate_profiles", evaluate_profiles)

    def test_sweep_rows_carry_the_status(self, nan_pricing):
        grid, job, _ = _preset_job()
        rows = cli.run_sweep_job(grid, job, solver.SolverConfig())
        assert [r["status"] for r in rows] == ["error:NonFiniteWelfare"] * 4
        assert all(math.isnan(r["welfare"]) for r in rows)

    def test_compare_exits_one(self, tmp_path, capsys, nan_pricing):
        path = write_scenario(tmp_path, example_scenario())
        assert cli.main(["compare", path, "--radg-reps", "3"]) == 1
        assert "error: CoCoGen: error:NonFiniteWelfare" in capsys.readouterr().err

    def test_aggregate_leaves_the_rows_out(self):
        ok = cli._ok_row("VCFL", 1.0, 0.0, True, 0.0, True)
        bad = cli._ok_row("VCFL", 2.0, 0.0, True, math.inf, True)
        assert (ok["status"], bad["status"]) == ("ok", "error:NonFiniteWelfare")
        base = {"gamma_level": 0, "alpha_d": 0.5}
        agg = cli._aggregate([{**base, **ok}, {**base, **bad}])
        assert [a["n"] for a in agg] == [1]


class TestStdev:
    def test_bitwise_equal_to_statistics_stdev(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            n = int(rng.choice([2, 3, 5, 100]))
            scale = 10.0 ** rng.uniform(-9, 9)
            values = (rng.normal(size=n) * scale + rng.normal() * scale).tolist()
            assert cli._stdev(values) == statistics.stdev(values), values
        for values in ([1.5, 1.5], [0.1] * 7, [-3.25, 7.0], [1e-9, 1e9], [5e-324, 0.0]):
            got = cli._stdev(values)
            assert got == statistics.stdev(values) and type(got) is float, values
        assert cli._stdev([2.0, 2.0]) == 0.0


class TestCompareCommand:
    def test_zero_gamma_makes_cocogen_equal_wco(self, tmp_path, capsys):
        s = table1_scenario(seed=81, gamma_range=(0.0, 0.0))
        path = write_scenario(tmp_path, s)
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", path, "-o", str(out), "--radg-reps", "5"]) == 0
        with open(out, newline="") as fh:
            rows = {r["scheme"]: r for r in csv.DictReader(fh)}
        assert rows["CoCoGen"]["welfare"] == rows["WCO"]["welfare"]
        assert rows["CoCoGen"]["mean_d_gen"] == rows["WCO"]["mean_d_gen"]

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_radg_reps_below_one_is_input_error(self, tmp_path, capsys, reps):
        path = write_scenario(tmp_path, example_scenario())
        assert cli.main(["compare", path, "--radg-reps", reps]) == 2
        assert "--radg-reps must be >= 1" in capsys.readouterr().err

    def test_free_generation_beats_vcfl(self, tmp_path):
        s = table1_scenario(seed=82, cost_scale=1e-6)
        path = write_scenario(tmp_path, s)
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", path, "-o", str(out), "--radg-reps", "5"]) == 0
        with open(out, newline="") as fh:
            rows = {r["scheme"]: r for r in csv.DictReader(fh)}
        assert float(rows["CoCoGen"]["welfare"]) > float(rows["VCFL"]["welfare"])

    def test_default_scenario_ranking_matches_sweep_ordering(self, tmp_path, capsys):
        path = write_scenario(tmp_path, example_scenario(seed=83))
        assert cli.main(["compare", path, "--radg-reps", "40"]) == 0
        table = capsys.readouterr().out
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", path, "-o", str(out), "--radg-reps", "40"]) == 0
        with open(out, newline="") as fh:
            rows = {r["scheme"]: float(r["welfare"]) for r in csv.DictReader(fh)}
        assert rows["CoCoGen"] >= rows["RaDG"] >= rows["WCO"] >= rows["VCFL"]
        assert "CoCoGen" in table
