import contextlib
import csv
import fractions
import hashlib
import io
import json
import logging
import math
import multiprocessing
import os
import pathlib
import platform
import re
import statistics
import tempfile
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocogen import baselines, cli, economics, game, model, solver
from cocogen.errors import InvalidScenario, UnwritableOutput, ZeroTotalData
from cocogen.model import (
    PayoffMode,
    ScalingLaw,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from cocogen.scaling import heterogeneity_presets
from cocogen.scenario import (
    GammaLevel,
    SweepCell,
    default_sweep_grid,
    expand_sweep,
    load_sweep,
    sample_scenario,
)

from helpers import (
    FLOAT_RESOLUTION_PROFILE, float_resolution_scenario, law_error, reference_scheme_rows,
    reference_wco_scenario, table1_scenario, with_payoff_mode,
)


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


def _must_not_run(*args, **kwargs):
    raise AssertionError("refused input reached the solve or the pricing")


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


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


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
        rows = ["d,eps"] + [f"{d},{law_error(law, d)!r}" for d in (500, 1000, 2000, 4000, 8000)]
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

    def test_output_in_a_missing_directory_is_input_error(self, tmp_path, capsys):
        law = ScalingLaw(5.0, 0.4, 0.08)
        curve = tmp_path / "curve.csv"
        rows = ["d,eps"] + [f"{d},{law_error(law, d)!r}" for d in (500, 1000, 2000, 4000)]
        curve.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "missing" / "fit.json"
        assert cli.main(["fit", str(curve), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: UnwritableOutput: -o/--out: cannot write" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps_is_input_error(self, tmp_path, capsys, eps):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"d,eps\n500,0.3\n1000,{eps}\n2000,0.1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 2
        assert "curve csv row 2: curve point eps: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_d_beyond_the_float_range_is_input_error(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"d,eps\n100,0.5\n200,0.4\n{10**400},0.1\n", encoding="utf-8")
        assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "curve csv row 3: curve point d: must be within the float64 range" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("100,0.1\n200,0.2\n400,0.3", "no offset candidate gives a positive alpha and beta"),
            ("100,-5\n200,-5\n400,-5", "eps + delta <= 0 for every offset candidate"),
            ("1,1e308\n2,1e307\n3,1e306", "no offset candidate gives a finite alpha and RMSE "
                                         "with a positive alpha and beta"),
        ],
    )
    def test_infeasible_curve_is_fit_error_with_its_cause(self, tmp_path, capsys, rows, message):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"d,eps\n{rows}\n", encoding="utf-8")
        assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err
        assert f"error: NonPositiveShifted: {message}" in err
        assert "Traceback" not in err and not (tmp_path / "o.json").exists()

    def test_curve_whose_zero_offset_overflows_fits_the_others(self, tmp_path, capsys):
        # Only delta = 0 puts log alpha past exp's range (it ended the command
        # in an OverflowError before); the other offsets fit finitely.
        curve = tmp_path / "curve.csv"
        curve.write_text("d,eps\n1000000,1\n2000000,1e-100\n4000000,1e-200\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 0
        law = strict_json((tmp_path / "o.json").read_text(encoding="utf-8"))["law"]
        assert law["delta"] > 0 and math.isfinite(law["alpha"])
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("row, count", [("1000,0.2,7", 3), ("1000", 1)])
    def test_wrong_field_count_is_input_error(self, tmp_path, capsys, row, count):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"d,eps\n500,0.3\n\n{row}\n2000,0.1\n", encoding="utf-8")
        assert cli.main(["fit", str(curve), "-o", str(tmp_path / "o.json")]) == 2
        assert f"curve csv row 2: has {count} fields" in capsys.readouterr().err


class TestSolveCommand:
    def test_bracket_at_float_resolution_exits_zero(self, tmp_path):
        # The default tol is finer than the float spacing at this root.
        out = tmp_path / "r.json"
        assert cli.main(["solve", write_scenario(tmp_path, float_resolution_scenario()),
                         "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["profile"] == FLOAT_RESOLUTION_PROFILE

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_overflowing_welfare_sum_is_named_before_any_file(self, tmp_path, capsys, command):
        # Revenue weights of 1.7e308 under varrho 1 keep every revenue
        # finite, but their sum, and so the welfare, passes the float64 range.
        path = tmp_path / "scenario.json"
        payload = scenario_to_dict(example_scenario())
        for org in payload["organizations"]:
            org["psi"] = 1.7e308
        payload["economy"]["varrho"] = 1.0
        path.write_text(json.dumps(payload), encoding="utf-8")
        files = ["-o", str(tmp_path / "out")]
        if command == "solve":
            files += ["--trace", str(tmp_path / "trace.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, str(path), *files])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invalid scenario: 1 violation(s): organizations[*].psi: too large for "
            "these error laws: the sum of the revenues can overflow\n"
        )
        assert captured.out == "" and os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_overflowing_loss_rates_are_named_before_any_file(self, tmp_path, capsys, command):
        # Every phi at 1.5e308 passes each entry's checks, but the loss
        # rates sum_m phi_m gamma_nm, and so the game weights, overflow.
        path = tmp_path / "scenario.json"
        payload = scenario_to_dict(example_scenario())
        payload["market"]["phi"] = [1.5e308] * len(payload["organizations"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        files = ["-o", str(tmp_path / "out")]
        if command == "solve":
            files += ["--trace", str(tmp_path / "trace.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, str(path), *files])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invalid scenario: 1 violation(s): market.phi: too large for these error "
            "laws: the game weights or the sum of the coopetition losses can overflow\n"
        )
        assert captured.out == "" and os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_overflowing_generation_cost_is_named_before_any_file(self, tmp_path, capsys, command):
        path = tmp_path / "scenario.json"
        payload = scenario_to_dict(example_scenario())
        payload["organizations"][3]["eta"] = 1e306
        path.write_text(json.dumps(payload), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invalid scenario: 1 violation(s): "
            "organizations[3]: generation cost at bounds.d_max overflows\n"
        )
        assert captured.out == "" and os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("summed, message", [
        ("costs", "organizations[*]: the sum of the generation costs at bounds.d_max overflows"),
        ("fees", "economy.c0: too large for these costs: the sum of the generation costs and "
                 "server fees can overflow"),
    ])
    def test_overflowing_cost_or_fee_sum_is_named_before_any_file(
        self, tmp_path, capsys, command, summed, message
    ):
        # Each organization's cost at d_max (5e307), or the server fee
        # (2e307), is finite, but summed over the ten organizations of the
        # shipped example it passes the float64 range, and so does welfare.
        path = shipped_example_with(tmp_path, ("economy", "c0"), 2e307 if summed == "fees" else 0.0)
        if summed == "costs":
            s = load_scenario(path)
            costs = economics._costs(s, float(s.bounds.d_max))
            payload = scenario_to_dict(s)
            for org, cost in zip(payload["organizations"], costs):
                org["c_cmp"] *= 5e307 / cost
            pathlib.Path(path).write_text(json.dumps(payload), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, path, "-o", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid scenario: 1 violation(s): {message}\n"
        assert captured.out == "" and os.listdir(tmp_path) == ["edited.json"]

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
        "command, name, path, value, message",
        [
            ("solve", "scenario_example.json", ("economy", "eps0_mode"), "bogus",
             "economy.eps0_mode: must be one of 'at_zero_generation', 'fixed', got 'bogus'"),
            ("sweep", "sweep_default.json", ("economy", "bb_mode"), None,
             "economy.bb_mode: must be one of 'literal', 'antisymmetric', got None"),
        ],
    )
    def test_unknown_enum_value_is_named_with_its_field(
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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_flag_is_input_error(self, tmp_path, capsys, seed):
        path = shipped_example_with(tmp_path, ("seed",), 0)
        assert cli.main(["compare", path, "--seed", seed, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: --seed: must fit in 64 unsigned bits" in err
        assert "invalid scenario" not in err
        assert "Traceback" not in err

    def test_verify_ne_certifies_a_huge_box(self, tmp_path, capsys, monkeypatch):
        # 2**40 + 1 volumes per organization: the certificate prices each
        # organization's lattice ends, neighbours and volume, plus a probe
        # search where a gain rises.
        priced = []
        local_errors = economics._local_errors

        def counted(s, d, in_box=False, *orgs):
            if orgs:  # a move's errors, priced for some organizations
                priced.append(np.size(d))
            return local_errors(s, d, in_box, *orgs)

        monkeypatch.setattr(economics, "_local_errors", counted)
        path = shipped_example_with(tmp_path, ("bounds", "d_max"), 2**40)
        out = tmp_path / "r.json"
        assert cli.main(["solve", path, "-o", str(out), "--verify-ne"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        cert = json.loads(out.read_text())["ne_certificate"]
        worst = cert["worst_deviation"]
        assert cert["is_ne"] is True
        assert all(math.isfinite(worst[key]) for key in ("d_alt", "gain"))
        assert 0.0 <= worst["d_alt"] <= 2**40
        assert 0 < sum(priced) <= 5 * 10

    @pytest.mark.parametrize("flag", ["-o", "--trace"])
    def test_output_in_a_missing_directory_is_input_error(self, tmp_path, capsys, flag):
        path = shipped_example_with(tmp_path, ("seed",), 0)
        assert cli.main(["solve", path, flag, str(tmp_path / "missing" / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: UnwritableOutput: {'-o/--out' if flag == '-o' else flag}: cannot write" in err
        assert "Traceback" not in err

    def test_package_error_escaping_a_command_is_input_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise InvalidScenario("no equilibrium for this one")

        monkeypatch.setattr(solver, "fpi_solve", fail)
        path = shipped_example_with(tmp_path, ("seed",), 0)
        assert cli.main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert "error: InvalidScenario: no equilibrium for this one" in err
        assert "Traceback" not in err

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
        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        for org in payload["organizations"]:
            org["law"]["alpha"], org["d_loc"] = 200.0, 1
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["solve", str(bad)]) == 2
        assert "economy.varrho: too small" in capsys.readouterr().err

    def test_overflowing_contribution_factor_is_named_before_any_pricing(self, tmp_path, capsys):
        # expm1((eps_n(d_min) - eps_n(d_max)) / (N varrho)) overflows, so
        # pricing a profile near d_max would give NaN transfers.
        path = shipped_example_with(tmp_path, ("economy", "varrho"), 1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["compare", path, "-o", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invalid scenario: 1 violation(s): economy.varrho: too small for these "
            "error laws: the global error at the all-d_min profile, or its product with a "
            "contribution factor at bounds.d_max, overflows\n"
        )
        assert captured.out == "" and os.listdir(tmp_path) == ["edited.json"]

    @pytest.mark.parametrize(
        "command, flag",
        [("solve", ["--seed", "5"]), ("sweep", ["--payoff-mode", "antisymmetric"])]
        # Every command solves with the default SolverConfig: no solver flags.
        + [(command, flag) for command in ("solve", "sweep", "compare")
           for flag in (["--tol", "1e-9"], ["--max-iters", "500"], ["--allow-nonconverged"])],
    )
    def test_flag_the_command_does_not_read_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        monkeypatch.setattr(cli, f"cmd_{command}", _must_not_run)
        path = shipped_example_with(tmp_path, ("seed",), 0)
        if command == "sweep":
            path = write_small_sweep(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, path, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

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
            for key in ("started", "finished", "argv"):  # argv differs by the -o flag
                del payload["manifest"][key]
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


class TestManifest:
    """Every manifest of a command that solves records the payoff mode the
    scenarios were solved under; no manifest records a solver configuration,
    since every command solves with the default one."""

    def test_solve_and_compare_record_the_payoff_mode_they_solved_with(self, tmp_path):
        path = write_scenario(tmp_path, example_scenario())  # literal payoffs in the file
        solved = tmp_path / "solve.json"
        flags = ["--payoff-mode", "antisymmetric"]
        assert cli.main(["solve", path, "-o", str(solved), *flags]) == 0
        compared = tmp_path / "cmp.csv"
        assert cli.main(["compare", path, "-o", str(compared), "--radg-reps", "3", *flags]) == 0
        for manifest in (json.loads(solved.read_text())["manifest"],
                         json.loads((tmp_path / "cmp.csv.manifest.json").read_text())["manifest"]):
            assert "solver_config" not in manifest
            assert manifest["payoff_mode"] == "antisymmetric"
        assert cli.main(["solve", path, "-o", str(solved)]) == 0
        manifest = json.loads(solved.read_text())["manifest"]
        assert "solver_config" not in manifest
        assert manifest["payoff_mode"] == "literal"

    def test_sweep_sidecars_record_the_grid_payoff_mode(self, tmp_path):
        out_dir = tmp_path / "out"
        argv = ["sweep", write_small_sweep(tmp_path, reps=1), "-o", str(out_dir), "--jobs", "1"]
        assert cli.main(argv) == 0
        for name in ("results.csv", "aggregate.csv", "fig3_cocogen.csv", "fig4_schemes.csv"):
            manifest = json.loads((out_dir / (name + ".manifest.json")).read_text())["manifest"]
            assert "solver_config" not in manifest
            assert manifest["payoff_mode"] == "literal"

    def test_every_manifest_records_its_command_line_and_platform(self, tmp_path):
        law = ScalingLaw(21.2, 0.52, 0.12)
        curve = tmp_path / "curve.csv"
        curve.write_text("d,eps\n" + "".join(
            f"{d},{law_error(law, float(d))!r}\n" for d in (200, 500, 1000, 2000, 5000, 9000)))
        scenario = write_scenario(tmp_path, example_scenario())
        runs = {
            "fit.json": ["fit", str(curve), "-o", str(tmp_path / "fit.json")],
            "solve.json": ["solve", scenario, "-o", str(tmp_path / "solve.json")],
            "cmp.csv.manifest.json": ["compare", scenario, "-o", str(tmp_path / "cmp.csv"),
                                      "--radg-reps", "3"],
            "out/results.csv.manifest.json": ["sweep", write_small_sweep(tmp_path, reps=1),
                                              "-o", str(tmp_path / "out"), "--jobs", "1"],
        }
        for sidecar, argv in runs.items():
            assert cli.main(argv) == 0
            manifest = json.loads((tmp_path / sidecar).read_text())["manifest"]
            assert manifest["argv"] == argv
            assert manifest["python"] == platform.python_version()
            assert manifest["numpy"] == np.__version__
            assert manifest["nproc"] == os.cpu_count()
            assert "solver_config" not in manifest

    def test_fit_records_no_solver(self, tmp_path):
        law = ScalingLaw(21.2, 0.52, 0.12)
        curve = tmp_path / "curve.csv"
        curve.write_text("d,eps\n" + "".join(
            f"{d},{law_error(law, float(d))!r}\n" for d in (200, 500, 1000, 2000, 5000, 9000)))
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(curve), "-o", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert "solver_config" not in manifest and "payoff_mode" not in manifest


class TestSweepCommand:
    # sha256 of results.csv of the shipped preset with one repetition (nine
    # jobs) under each payoff mode. A change to any byte of any row fails
    # here; a deliberate change updates the pin and says why in CHANGES.md.
    PRESET_RESULTS_SHA256 = {
        "literal": "e5e1b97d175acad82d08c9780950c0e000eae871c20f2f66e965a7a34c8f6e90",
        "antisymmetric": "c791ffca1b43cec543106b408b1876ae584f65b60d3212c3b9943ffc3d1b73e8",
    }

    @pytest.mark.parametrize("mode", ["literal", "antisymmetric"])
    def test_one_repetition_preset_results_are_pinned(self, tmp_path, capsys, mode):
        from importlib import resources

        shipped = resources.files("cocogen").joinpath("data/sweep_default.json")
        payload = json.loads(shipped.read_text(encoding="utf-8"))
        payload["repetitions"] = 1
        payload["economy"]["bb_mode"] = mode
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "-o", str(out), "--jobs", "1"]) == 0
        data = (out / "results.csv").read_bytes()
        assert data.count(b"\r\n") == 1 + 9 * len(cli.SCHEMES)
        assert hashlib.sha256(data).hexdigest() == self.PRESET_RESULTS_SHA256[mode]

    def test_cell_means_of_finite_welfares_are_finite(self, tmp_path, capsys):
        # The shipped preset with a server fee of 1e307: each welfare is
        # finite, near -1e308, but a cell's three sum past the float64 range.
        path = shipped_example_with(tmp_path, ("economy", "c0"), 1e307, name="sweep_default.json")
        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        payload["repetitions"] = 3
        pathlib.Path(path).write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sweep", path, "-o", str(out), "--jobs", "1"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        results = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
        assert {r["status"] for r in results} == {"ok"}
        for cell in csv.DictReader((out / "aggregate.csv").read_text().splitlines()):
            welfares = [float(r["welfare"]) for r in results
                        if (r["gamma_level"], r["alpha_d"], r["scheme"])
                        == (cell["gamma_level"], cell["alpha_d"], cell["scheme"])]
            with pytest.raises(OverflowError):
                math.fsum(welfares)
            exact = sum(map(fractions.Fraction, welfares)) / len(welfares)
            assert float(cell["welfare_mean"]) == pytest.approx(float(exact), rel=1e-15)
            assert math.isfinite(float(cell["welfare_std"]))

    def test_fixed_block_violations_fail_at_load(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", _must_not_run)
        path = write_small_sweep(tmp_path)
        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        payload["xi"] = -1
        payload["org_defaults"].update(eta=-1, c_cmp=0)
        payload["economy"]["varrho"] = 0
        payload["bounds"]["d_max"] = -1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", path, "-o", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "error: invalid sweep file: 5 violation(s): economy.varrho: must be > 0; " \
            "bounds.d_max: must be >= d_min; xi: must be >= 0; " \
            "org_defaults.eta: must be > 0; org_defaults.c_cmp: must be > 0" in err
        assert not out_dir.exists()

    def test_reversed_gamma_level_names_its_index(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", _must_not_run)
        path = write_small_sweep(tmp_path)
        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        payload["gamma_levels"][1] = {"lo": 0.9, "hi": 0.2}
        pathlib.Path(path).write_text(json.dumps(payload), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", path, "-o", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: invalid sweep file: gamma_levels[1]: need 0 <= lo <= hi <= 1, got lo=0.9, hi=0.2"
        ]
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("given_by", ["flag", "file"])
    def test_out_of_range_sweep_seed_is_input_error(
        self, tmp_path, capsys, monkeypatch, seed, given_by
    ):
        monkeypatch.setattr(cli, "run_sweep", _must_not_run)
        if given_by == "flag":
            path, flags = write_small_sweep(tmp_path), ["--seed", str(seed)]
        else:
            path, flags = write_small_sweep(tmp_path, seed=seed), []
        assert cli.main(["sweep", path, "-o", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        if given_by == "flag":
            assert "error: --seed: must fit in 64 unsigned bits" in err
        else:
            assert "error: invalid sweep file: base_seed: must fit in 64 unsigned bits" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_byte_identical_reruns(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        sweep = write_small_sweep(tmp_path)  # 8 jobs: shares of 3, 3 and 2 at --jobs 3
        grid = load_sweep(sweep)
        assert cli.run_sweep(grid, jobs=jobs) == cli.run_sweep(grid, jobs=1)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["sweep", sweep, "-o", str(out1), "--jobs", str(jobs)]) == 0
        assert cli.main(["sweep", sweep, "-o", str(out2), "--jobs", "1"]) == 0
        b1 = (out1 / "results.csv").read_bytes()
        b2 = (out2 / "results.csv").read_bytes()
        assert b1 == b2
        assert multiprocessing.active_children() == []

    def test_output_onto_an_existing_file_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", _must_not_run)
        sweep = write_small_sweep(tmp_path)
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")
        assert cli.main(["sweep", sweep, "-o", str(out), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: UnwritableOutput: -o/--out-dir: cannot make directory" in err
        assert "Traceback" not in err
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_zero_radg_repetitions_is_input_error(self, tmp_path, capsys):
        sweep = write_small_sweep(tmp_path, radg=0)
        assert cli.main(["sweep", sweep, "-o", str(tmp_path / "out")]) == 2
        assert "radg_repetitions: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_radg_count_past_the_pricing_bound_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", _must_not_run)
        sweep = write_small_sweep(tmp_path, radg=10**13)
        assert cli.main(["sweep", sweep, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "radg_repetitions: 10000000000000 draws of 4 organizations price" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, cpus, reps, workers",
        [(10**6, 3, 2, 3), (10**6, 64, 2, 8), (5, 64, 2, 5), (2, 1, 2, None), (10**6, 8, 1, 4)],
    )
    def test_jobs_are_capped_before_any_worker_starts(
        self, tmp_path, monkeypatch, caplog, flag, cpus, reps, workers
    ):
        started = []

        class FakeConnection:  # one end of a pipe that holds its messages in this process
            def __init__(self):
                self.messages = []

            def send(self, message):
                self.messages.append(message)

            def recv(self):
                return self.messages.pop(0)

            def close(self):
                pass

        class FakeProcess:  # runs its share in this process when started
            exitcode = 0

            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                started.append(self)
                self.target(*self.args)

            def join(self):
                pass

            def terminate(self):
                pass

        def fake_pipe(duplex=True):
            conn = FakeConnection()
            return conn, conn

        methods = []

        def get_context(method):
            methods.append(method)
            return types.SimpleNamespace(Process=FakeProcess, Pipe=fake_pipe)

        monkeypatch.setattr(cli, "multiprocessing", types.SimpleNamespace(get_context=get_context))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        sweep = write_small_sweep(tmp_path, reps=reps, radg=2)  # 4 * reps jobs
        with caplog.at_level(logging.INFO, logger="cocogen"):
            assert cli.main(["sweep", sweep, "-o", str(tmp_path / "out"), "--jobs", str(flag)]) == 0
        assert len(started) == (workers or 1) - 1
        # Workers are forked, whatever the platform's default start method.
        assert methods == (["fork"] if started else [])
        capped = [r.getMessage() for r in caplog.records if "capped" in r.getMessage()]
        expected = f"sweep: --jobs {flag} capped at {workers or 1} workers ({4 * reps} jobs, {cpus} CPUs)"
        assert capped == ([] if workers == flag else [expected])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(cli, "run_sweep", _must_not_run)
        sweep = write_small_sweep(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", sweep, "-o", str(tmp_path / "out"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs: jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _failing(monkeypatch, fail, in_parent=False):
        """``cli.run_sweep_job`` that calls ``fail`` in this process if
        ``in_parent``, else in every other process."""
        parent, real = os.getpid(), cli.run_sweep_job

        def job(grid, sweep_job):
            if (os.getpid() == parent) == in_parent:
                fail()
            return real(grid, sweep_job)

        monkeypatch.setattr(cli, "run_sweep_job", job)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)

    @pytest.mark.parametrize("in_parent", [False, True])
    def test_exception_in_any_share_is_raised_here(self, tmp_path, monkeypatch, in_parent):
        def fail():
            raise ZeroTotalData("raised in a share")

        self._failing(monkeypatch, fail, in_parent)
        grid = load_sweep(write_small_sweep(tmp_path))
        with pytest.raises(ZeroTotalData, match="raised in a share") as raised:
            cli.run_sweep(grid, jobs=3)
        if not in_parent:  # the worker's traceback comes with its exception
            cause = str(raised.value.__cause__)
            assert cause.startswith("in sweep worker 1:\nTraceback") and "in fail" in cause
        assert multiprocessing.active_children() == []

    def test_worker_that_exits_without_sending_is_named_with_its_exit_code(
        self, tmp_path, monkeypatch
    ):
        self._failing(monkeypatch, lambda: os._exit(7))
        grid = load_sweep(write_small_sweep(tmp_path))
        with pytest.raises(RuntimeError, match="sweep worker 1 exited with code 7"):
            cli.run_sweep(grid, jobs=3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_orgs", -3, "n_orgs: must be >= 1"),
            ("n_orgs", 0, "n_orgs: must be >= 1"),
            ("alpha_d_levels", [0.3], "alpha_d_levels: no heterogeneity preset for 0.3"),
            ("gamma_levels", [], "gamma_levels: must not be empty"),
            ("alpha_d_levels", [], "alpha_d_levels: must not be empty"),
            ("repetitions", 1e12, "repetitions: the grid has 9000000000000 jobs, more than 100000"),
        ],
    )
    def test_unusable_grid_is_input_error(self, tmp_path, capsys, jobs, key, value, message):
        sweep = shipped_example_with(tmp_path, (key,), value, name="sweep_default.json")
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", sweep, "-o", str(out_dir), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_log_is_short(self, tmp_path, caplog, monkeypatch, jobs):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        sweep = write_small_sweep(tmp_path, reps=9, radg=2)  # 36 jobs
        with caplog.at_level(logging.INFO, logger="cocogen"):
            assert cli.main(["sweep", sweep, "-o", str(tmp_path / "out"), "--jobs", jobs]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "cocogen"]
        pattern = r"sweep: \d+/36 jobs done, \d+ jobs/s"
        progress = [line for line in lines if re.fullmatch(pattern, line)]
        assert 1 <= len(progress) <= 10
        assert progress[-1].startswith("sweep: 36/36 jobs done")
        assert lines[-1] == "sweep: 144 rows: 144 ok"
        assert len(lines) == len(progress) + 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_with_no_valid_scenario_is_input_error(self, tmp_path, capsys, jobs):
        # Every sampled scenario's contribution factor overflows.
        sweep = shipped_example_with(tmp_path, ("repetitions",), 1, name="sweep_default.json")
        payload = json.loads(pathlib.Path(sweep).read_text(encoding="utf-8"))
        payload["economy"]["varrho"] = 1e-300
        pathlib.Path(sweep).write_text(json.dumps(payload), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", sweep, "-o", str(out_dir), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "error: every sweep job's scenario is invalid, the first with " \
            "1 violation(s): economy.varrho: too small for these error laws" in err
        assert "Traceback" not in err and "every sweep job failed" not in err
        assert list(out_dir.iterdir()) == []

    def test_sweep_whose_jobs_all_fail_otherwise_exits_one(self, tmp_path, capsys, monkeypatch):
        real = cli.run_sweep_job

        def job(grid, sweep_job):
            return [{**r, "status": "error:NonFiniteWelfare"} for r in real(grid, sweep_job)]

        monkeypatch.setattr(cli, "run_sweep_job", job)
        sweep = write_small_sweep(tmp_path, reps=1, radg=2)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", sweep, "-o", str(out_dir), "--jobs", "1"]) == 1
        assert "error: every sweep job failed" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        sweep = write_small_sweep(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["sweep", sweep, "-o", str(out1), "--jobs", "1", "--seed", "123"]) == 0
        assert cli.main(["sweep", sweep, "-o", str(out2), "--jobs", "1", "--seed", "124"]) == 0
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


class TestInputErrorMessages:
    """The whole stderr of an unreadable input and of a refused ``--seed``,
    command by command."""

    @pytest.mark.parametrize(
        "command, what",
        [("fit", "cannot read curve file"), ("solve", "invalid scenario"),
         ("sweep", "invalid sweep file"), ("compare", "invalid scenario")],
    )
    def test_missing_input_file(self, tmp_path, capsys, command, what):
        path = str(tmp_path / "missing")
        assert cli.main([command, path, "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {what}: [Errno 2] No such file or directory: {path!r}\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command, message",
        [("fit", "cannot read curve file: curve csv: expected header 'd,eps'"),
         ("solve", "invalid scenario: Expecting value: line 1 column 1 (char 0)"),
         ("sweep", "invalid sweep file: Expecting value: line 1 column 1 (char 0)"),
         ("compare", "invalid scenario: Expecting value: line 1 column 1 (char 0)")],
    )
    def test_malformed_input_file(self, tmp_path, capsys, command, message):
        path = tmp_path / "input"
        path.write_text("x,y\n", encoding="utf-8")
        assert cli.main([command, str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["input"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_out_of_range_seed_is_reported_before_the_file_is_read(
        self, tmp_path, capsys, command, seed
    ):
        # The input file is missing as well: the seed is checked first.
        argv = [command, str(tmp_path / "missing"), "--seed", seed, "-o", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: --seed: must fit in 64 unsigned bits\n"
        assert os.listdir(tmp_path) == []


class TestWriteText:
    """Outputs are written in place: an existing file is written over and
    then cut to the new text's length, which must leave what a fresh write
    leaves."""

    def test_shorter_text_over_a_longer_file_leaves_only_the_new_text(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("x" * 7000, encoding="utf-8")
        cli._write_text(str(path), "a,b\r\n1,é\r\n", "-o/--out")
        assert path.read_bytes() == "a,b\r\n1,é\r\n".encode("utf-8")
        cli._write_text(str(path), "y" * 9000, "-o/--out")
        assert path.read_text(encoding="utf-8") == "y" * 9000

    def test_new_file_gets_the_mode_a_plain_open_gives(self, tmp_path):
        with open(tmp_path / "plain", "w", encoding="utf-8"):
            pass
        cli._write_text(str(tmp_path / "new"), "text", "-o/--out")
        assert (tmp_path / "new").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_symlink_is_written_through_and_modes_are_kept(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("z" * 5000, encoding="utf-8")
        target.chmod(0o640)
        link.symlink_to(target)
        cli._write_text(str(link), "{}\n", "-o/--out")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == "{}\n"
        assert target.stat().st_mode & 0o777 == 0o640

    def test_non_regular_targets_are_written_without_a_cut(self):
        cli._write_text(os.devnull, "text\n", "-o/--out")
        read, write = os.pipe()
        try:
            cli._write_text(f"/dev/fd/{write}", "through a pipe\n", "--trace")
            assert os.read(read, 100) == b"through a pipe\n"
        finally:
            os.close(read)
            os.close(write)

    def test_directory_is_reported_against_its_flag(self, tmp_path):
        with pytest.raises(UnwritableOutput, match=r"^--trace: cannot write .*: Is a directory$"):
            cli._write_text(str(tmp_path), "text", "--trace")


class TestJsonGuard:
    """No command writes NaN or Infinity: a non-finite number in any JSON
    output refuses the run's outputs before the first one is written."""

    @staticmethod
    def _non_finite_manifest(monkeypatch):
        manifest = cli._manifest
        monkeypatch.setattr(cli, "_manifest", lambda *a: {**manifest(*a), "x": math.nan})

    def test_sweep_writes_no_file(self, tmp_path, capsys, monkeypatch):
        self._non_finite_manifest(monkeypatch)
        out_dir = tmp_path / "out"
        argv = ["sweep", write_small_sweep(tmp_path), "-o", str(out_dir), "--jobs", "1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error: UnwritableOutput: -o/--out-dir: cannot write a non-finite number" in err
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("out", ["file", "stdout"])
    def test_solve_writes_no_file(self, tmp_path, capsys, monkeypatch, out):
        # Neither the report nor the trace is written, and nothing reaches
        # stdout.
        self._non_finite_manifest(monkeypatch)
        path = write_scenario(tmp_path, example_scenario())
        files = ["-o", str(tmp_path / "report.json"), "--trace", str(tmp_path / "trace.csv")]
        assert cli.main(["solve", path, *(files if out == "file" else [])]) == 2
        captured = capsys.readouterr()
        flag = "-o/--out" if out == "file" else "stdout"
        assert captured.err == (
            f"error: UnwritableOutput: {flag}: cannot write a non-finite number as JSON\n"
        )
        assert captured.out == "" and os.listdir(tmp_path) == ["scenario.json"]

    def test_compare_writes_no_file(self, tmp_path, capsys, monkeypatch):
        self._non_finite_manifest(monkeypatch)
        path = write_scenario(tmp_path, example_scenario())
        argv = ["compare", path, "-o", str(tmp_path / "cmp.csv"), "--radg-reps", "5"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error: UnwritableOutput: -o/--out: cannot write a non-finite number" in err
        assert os.listdir(tmp_path) == ["scenario.json"]


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
        for job in expand_sweep(grid)[:90]:
            s = with_payoff_mode(sample_scenario(grid, job.cell, job.seed), mode)
            rows, ev = cli.scheme_rows(s, job.seed, grid.radg_repetitions)
            expected = reference_scheme_rows(s, job.seed, grid.radg_repetitions)
            assert rows == expected
            assert _row_types(rows) == _row_types(expected)
            # The pricing is returned in row order, then the RaDG draws.
            assert ev.welfare[:3].tolist() == [r["welfare"] for r in rows[:3]]
            assert ev.welfare.shape == (3 + grid.radg_repetitions,)

    def test_failed_wco_coefficient_leaves_the_other_rows(self, monkeypatch):
        # WCO's game drops out of the two-game solve when its linear
        # coefficient cannot be built; CoCoGen's game is solved alone.
        grid, job, s = _preset_job()
        expected, _ = cli.scheme_rows(s, job.seed, grid.radg_repetitions)
        solved = []
        real = solver.solve_games

        def solve_games(scenario, lin):
            solved.append(len(lin))
            return real(scenario, lin)

        def fail(s, z=None, _real=game._linear_coeffs):
            # WCO's coefficient is built from the zero-competition weights ``z``.
            if z is not None:
                raise ZeroTotalData("injected")
            return _real(s, z)

        monkeypatch.setattr(game, "_linear_coeffs", fail)
        monkeypatch.setattr(solver, "solve_games", solve_games)
        rows, ev = cli.scheme_rows(s, job.seed, grid.radg_repetitions)
        assert solved == [1]
        assert [r["scheme"] for r in rows] == list(cli.SCHEMES)
        assert rows[2]["status"] == "error:ZeroTotalData"
        assert math.isnan(rows[2]["welfare"]) and rows[2]["converged"] is False
        assert rows[:2] + rows[3:] == expected[:2] + expected[3:]
        assert ev.welfare.shape == (2 + grid.radg_repetitions,)  # no WCO row priced

    def test_both_games_share_one_solve_and_build_no_clone(self, monkeypatch):
        grid, job, s = _preset_job()
        alone = baselines.wco_solve(s)
        calls = []
        real = solver.solve_games
        monkeypatch.setattr(
            solver, "solve_games", lambda s, lin: calls.append(len(lin)) or real(s, lin)
        )
        # No scenario is built: the zero-competition game is solved on s.
        monkeypatch.setattr(model, "_violations", _must_not_run)
        rows, _ = cli.scheme_rows(s, job.seed, grid.radg_repetitions)
        assert calls == [2]
        assert rows[2]["welfare"] == alone.welfare
        assert rows[2]["mean_d_gen"] == alone.profile.d_gen.sum() / s.n
        assert rows[2]["converged"] is alone.converged

    def test_sweep_job_prices_its_scenario_in_one_call(self, monkeypatch):
        grid, job, _ = _preset_job()
        calls = []
        for name in ("evaluate_profile", "evaluate_profiles"):
            real = getattr(economics, name)
            monkeypatch.setattr(
                economics, name,
                lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a),
            )
        rows = cli.run_sweep_job(grid, job)
        assert [r["status"] for r in rows] == ["ok"] * 4
        assert calls == ["evaluate_profiles"]

    def test_sweep_job_builds_the_all_d_max_errors_once(self, monkeypatch):
        # Validation's contribution-factor bound and the solver's root
        # bracket read one cached build of these errors.
        grid, job, _ = _preset_job()
        top = float(grid.bounds.d_max)
        built = []
        real = economics._local_errors

        def local_errors(s, d, in_box=False, *orgs):
            # Every priced row of all organizations that is the all-d_max profile.
            if not orgs:
                rows = np.broadcast_to(d, np.shape(d)[:-1] + (s.n,))
                built.append(int((rows == top).all(axis=-1).sum()))
            return real(s, d, in_box, *orgs)

        monkeypatch.setattr(economics, "_local_errors", local_errors)
        rows = cli.run_sweep_job(grid, job)
        assert [r["status"] for r in rows] == ["ok"] * 4
        assert sum(built) == 1


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
        rows = cli.run_sweep_job(grid, job)
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


class TestAggregate:
    @pytest.mark.parametrize("mode", ["literal", "antisymmetric"])
    def test_means_bitwise_equal_to_statistics_fmean(self, tmp_path, mode):
        sweep = shipped_example_with(tmp_path, ("repetitions",), 1, name="sweep_default.json")
        payload = json.loads(pathlib.Path(sweep).read_text(encoding="utf-8"))
        payload["economy"]["bb_mode"] = mode
        pathlib.Path(sweep).write_text(json.dumps(payload), encoding="utf-8")
        rows = cli.run_sweep(load_sweep(sweep), jobs=1)
        cells = cli._aggregate(rows)
        assert len(cells) == 9 * len(cli.SCHEMES)
        for cell in cells:
            members = [r for r in rows if r["status"] == "ok" and all(
                r[k] == cell[k] for k in ("gamma_level", "alpha_d", "scheme"))]
            for name in ("welfare", "mean_d_gen"):
                expected = statistics.fmean(r[name] for r in members)
                assert cell[f"{name}_mean"] == expected and type(expected) is float, cell
        rng = np.random.default_rng(2025)
        for _ in range(1000):
            n = int(rng.choice([1, 2, 3, 100]))
            values = (rng.normal(size=n) * 10.0 ** rng.uniform(-9, 9)).tolist()
            row = {"gamma_level": 0, "alpha_d": 0.5, "scheme": "VCFL", "status": "ok",
                   "mean_d_gen": 0.0}
            (cell,) = cli._aggregate([{**row, "welfare": v} for v in values])
            assert cell["welfare_mean"] == statistics.fmean(values), values


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

    def test_spread_beyond_the_float_range_is_infinite(self):
        assert cli._stdev([1.7e308, -1.7e308]) == math.inf
        assert cli._stdev([1.7e308, 1.7e308, -1.7e308]) == math.inf


class TestCompareCommand:
    def test_payoff_mode_and_seed_enter_the_one_validated_scenario(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, example_scenario())  # literal payoffs, seed 7
        checked = []
        real = model._violations
        monkeypatch.setattr(model, "_violations", lambda s: checked.append(s) or real(s))
        args = cli.build_parser().parse_args(
            ["compare", path, "--payoff-mode", "antisymmetric", "--seed", "5"]
        )
        s = cli._load_scenario_for_args(args, args.seed)
        assert len(checked) == 1  # the one scenario, flags applied
        assert s.seed == 5 and s.economy.bb_mode is PayoffMode.ANTISYMMETRIC

    def test_radg_mean_of_finite_welfares_is_finite(self, tmp_path, capsys):
        # A server fee of 1e307 puts each welfare near -1e308: finite, but
        # the sum of the 100 RaDG draws' welfares passes the float64 range.
        path = shipped_example_with(tmp_path, ("economy", "c0"), 1e307)
        out = tmp_path / "rows.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["compare", path, "-o", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        printed = {r["scheme"]: r for r in csv.DictReader(out.read_text().splitlines())}
        s = load_scenario(path)
        rows, ev = cli.scheme_rows(s, s.seed, 100)
        draws = ev.welfare[3:]
        with np.errstate(over="ignore"):
            assert math.isinf(draws.sum()) and np.isfinite(draws).all()
        welfare = rows[3]["welfare"]
        assert rows[3]["status"] == "ok" and welfare == float(printed["RaDG"]["welfare"])
        exact = sum(map(fractions.Fraction, draws.tolist())) / draws.size
        assert welfare == pytest.approx(float(exact), rel=1e-15)

    def test_seed_flag_replaces_an_out_of_range_file_seed(self, tmp_path, capsys):
        # The flag sets the seed before the one validation; without it the
        # file's seed is refused.
        path = shipped_example_with(tmp_path, ("seed",), 2**64)
        assert cli.main(["compare", path, "--seed", "5", "--radg-reps", "3"]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(["compare", path, "--radg-reps", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid scenario: 1 violation(s): seed: must fit in 64 unsigned bits\n"
        )

    def test_without_flags_validates_once(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, example_scenario())
        checked = []
        real = model._violations
        monkeypatch.setattr(model, "_violations", lambda s: checked.append(s) or real(s))
        assert cli.main(["compare", path, "--radg-reps", "5"]) == 0
        assert len(checked) == 1  # the load

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_clone_line_is_the_clone_welfare(self, tmp_path, capsys, mode):
        # The printed WCO welfare under its zero-competition clone equals,
        # bit for bit, the clone scenario's own pricing of WCO's profile;
        # half the drawn scenarios charge a server fee.
        grid = default_sweep_grid()
        scenarios = [sample_scenario(grid, job.cell, job.seed) for job in expand_sweep(grid)[::3]]
        scenarios += [table1_scenario(seed=seed, cost_scale=scale, c0=2.5 * (seed % 2))
                      for seed in range(8000, 8020) for scale in (0.1, 1.0, 10.0)]
        for k, s in enumerate(scenarios):
            s = with_payoff_mode(s, mode)
            path = write_scenario(tmp_path, s)
            assert cli.main(["compare", path, "--radg-reps", "1"]) == 0, k
            line = capsys.readouterr().out.splitlines()[-1]
            clone = reference_wco_scenario(load_scenario(path))
            welfare = solver.fpi_solve(clone).welfare
            assert line == f"(WCO welfare under its zero-competition clone: {welfare:.17g})", k

    def test_zero_gamma_makes_cocogen_equal_wco(self, tmp_path, capsys):
        s = table1_scenario(seed=81, gamma_range=(0.0, 0.0))
        path = write_scenario(tmp_path, s)
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", path, "-o", str(out), "--radg-reps", "5"]) == 0
        with open(out, newline="") as fh:
            rows = {r["scheme"]: r for r in csv.DictReader(fh)}
        assert rows["CoCoGen"]["welfare"] == rows["WCO"]["welfare"]
        assert rows["CoCoGen"]["mean_d_gen"] == rows["WCO"]["mean_d_gen"]

    def test_zero_psi_fails_only_the_wco_row(self, tmp_path, capsys, monkeypatch):
        # psi_1 = 0 leaves CoCoGen's weight negative, but WCO's z_1 = -psi_1
        # is 0, so only WCO's game cannot be solved.
        base = table1_scenario(seed=84)
        s = scenario_from_dict({**scenario_to_dict(base), "organizations": [
            {**org, "psi": 0.0} if n == 1 else org
            for n, org in enumerate(scenario_to_dict(base)["organizations"])
        ]})
        rows, ev = cli.scheme_rows(s, s.seed, 5)
        expected = reference_scheme_rows(s, s.seed, 5)
        statuses = ["ok", "ok", "error:ScenarioValidationError", "ok"]
        assert [r["status"] for r in rows] == statuses
        assert rows == expected and ev.welfare.shape == (2 + 5,)
        # A sweep job on it: the same rows, each with the realized gamma bar.
        grid, job, _ = _preset_job()
        monkeypatch.setattr(cli, "sample_scenario", lambda grid, cell, seed: s)
        job_rows = cli.run_sweep_job(replace(grid, radg_repetitions=5), replace(job, seed=s.seed))
        assert [r["status"] for r in job_rows] == statuses
        gbar = cli._realized_gamma_bar(s.market.gamma)
        assert math.isfinite(gbar) and all(r["realized_gamma_bar"] == gbar for r in job_rows)
        assert [{k: r[k] for k in rows[0]} for r in job_rows] == rows
        path = write_scenario(tmp_path, s)
        assert cli.main(["compare", path, "--radg-reps", "5"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: WCO: error:ScenarioValidationError"]

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_radg_reps_below_one_is_input_error(self, tmp_path, capsys, reps):
        path = write_scenario(tmp_path, example_scenario())
        assert cli.main(["compare", path, "--radg-reps", reps]) == 2
        assert "error: --radg-reps: must be >= 1" in capsys.readouterr().err

    def test_radg_reps_past_the_pricing_bound_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "scheme_rows", _must_not_run)
        path = write_scenario(tmp_path, example_scenario())
        assert cli.main(["compare", path, "--radg-reps", str(10**13)]) == 2
        err = capsys.readouterr().err
        assert "error: --radg-reps: 10000000000000 draws of 10 organizations price" in err
        assert "Traceback" not in err

    def test_output_in_a_missing_directory_is_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, example_scenario())
        out = tmp_path / "missing" / "cmp.csv"
        assert cli.main(["compare", path, "-o", str(out), "--radg-reps", "5"]) == 2
        err = capsys.readouterr().err
        assert "error: UnwritableOutput: -o/--out: cannot write" in err
        assert "Traceback" not in err

    def test_welfare_near_the_float_range_keeps_the_table_columns(self, tmp_path, capsys):
        # Every phi at 4.07e306 validates, and CoCoGen, WCO and RaDG welfare
        # come out near 1e305: printed as .17g, as the CSV writes them.
        from importlib import resources

        src = resources.files("cocogen").joinpath("data/scenario_example.json")
        payload = json.loads(src.read_text(encoding="utf-8"))
        payload["market"]["phi"] = [4.07e306] * len(payload["organizations"])
        payload["economy"]["eps0_mode"] = "at_zero_generation"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", str(path), "-o", str(out)]) == 0
        header, rule, *lines, clone = capsys.readouterr().out.splitlines()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(lines) == len(rows) == 4
        assert len(rule) == len(header) and all(len(line) == len(header) for line in lines)
        assert max(float(r["welfare"]) for r in rows) > 1e304
        for line, row in zip(lines, rows):
            assert line.split()[:2] == [row["scheme"], row["welfare"]]
        assert clone.startswith("(WCO welfare under its zero-competition clone: ")

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


# ---------------------------------------------------------------------------
# Every drawn input file and flag set exits with a documented code and no
# traceback. The draws keep every size small: the sweep's organization,
# repetition and RaDG counts and compare's --radg-reps are drawn from small
# ranges, and --jobs is 1 or a count below 1 (a usage error), so that no
# draw starts a process or allocates a large array; those guards are tested
# by their messages above.
# ---------------------------------------------------------------------------

_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.floats(-10.0, 10.0), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
# Values of the sweep keys that size its work.
_SMALL_COUNT = st.one_of(
    st.integers(-2, 3), st.none(), st.text(max_size=3), st.floats(-3.0, 3.0),
    st.just(math.nan),
)
_SIZING_KEYS = ("n_orgs", "repetitions", "radg_repetitions")
_EXIT_CODES = {0, 1, 2, 3}


def _mutated(data, doc):
    """``doc`` (a JSON value) with up to three entries replaced, deleted or
    added at drawn places."""
    for _ in range(data.draw(st.integers(0, 3))):
        parent = doc
        while isinstance(parent, (dict, list)) and parent:
            keys = sorted(parent) if isinstance(parent, dict) else list(range(len(parent)))
            key = data.draw(st.sampled_from(keys))
            child = parent[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
                parent = child
                continue
            action = data.draw(st.sampled_from(["replace", "delete", "add"]))
            if action == "add" and isinstance(parent, dict):
                parent[data.draw(st.text(max_size=4))] = data.draw(_ANY_VALUE)
            elif action == "delete":
                del parent[key]
            else:
                sizing = parent is doc and key in _SIZING_KEYS
                parent[key] = data.draw(_SMALL_COUNT if sizing else _ANY_VALUE)
            break
    return doc


def _drawn_flags(data, command, tmp):
    flags = []
    if command in ("solve", "compare") and data.draw(st.booleans()):
        mode = data.draw(st.sampled_from(["literal", "antisymmetric", "antisymmetric", "odd"]))
        flags += ["--payoff-mode", mode]
    if command == "solve":
        flags += data.draw(st.sampled_from([[], ["--verify-ne"]]))
        flags += data.draw(st.sampled_from([[], ["--trace", str(tmp / "trace.csv")]]))
    if command in ("compare", "sweep") and data.draw(st.booleans()):
        flags += ["--seed", str(data.draw(st.integers(-(2**70), 2**70)))]
    if command == "compare":
        flags += ["--radg-reps", str(data.draw(st.integers(-1, 30)))]
    if command == "sweep":
        jobs = data.draw(st.sampled_from(["1", "1", "0", "-3"]))
        flags += ["--jobs", jobs, "-o", str(tmp / "sweep-out")]
    out = data.draw(st.sampled_from(["file", "missing-directory", "none"]))
    if command in ("fit", "solve", "compare") and out != "none":
        flags += ["-o", str(tmp / ("missing/out" if out == "missing-directory" else "out"))]
    return flags


def _drawn_input(data, command, tmp):
    from importlib import resources

    if command == "fit":
        law = ScalingLaw(21.2, 0.52, 0.12)
        rows = [[d, repr(law_error(law, float(d)))] for d in (200, 500, 1000, 2000, 5000, 9000)]
        rows = _mutated(data, rows)
        header = data.draw(st.sampled_from(["d,eps", "d,eps", "eps,d", "d", ""]))
        text = header + "\n" + "".join(
            ",".join(map(str, r)) + "\n" if isinstance(r, list) else f"{r}\n" for r in rows
        )
    elif command == "sweep":
        with open(write_small_sweep(tmp, reps=1, radg=3), encoding="utf-8") as fh:
            text = json.dumps(_mutated(data, json.load(fh)))
    else:
        example = resources.files("cocogen").joinpath("data/scenario_example.json")
        text = json.dumps(_mutated(data, json.loads(example.read_text(encoding="utf-8"))))
    path = tmp / "input"
    path.write_text(text, encoding="utf-8")
    return str(path)


# Positive values from 1e-320 (subnormal) to 1e308 on a log scale.
_LOG_SCALE = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)


class TestFitAcrossTheFloatRange:
    @settings(max_examples=150, deadline=None)
    @given(
        ds=st.lists(st.floats(0.0, 308.0).map(lambda e: max(1, int(10.0**e))), min_size=3,
                    max_size=6),
        eps=st.lists(st.one_of(_LOG_SCALE, _LOG_SCALE.map(lambda x: -x), st.just(0.0)),
                     min_size=6, max_size=6),
    )
    def test_drawn_curves_exit_with_a_code_and_finite_json(self, ds, eps):
        with tempfile.TemporaryDirectory() as tmp:
            curve, out = pathlib.Path(tmp) / "curve.csv", pathlib.Path(tmp) / "fit.json"
            curve.write_text(
                "d,eps\n" + "".join(f"{d},{e!r}\n" for d, e in zip(ds, eps)), encoding="utf-8"
            )
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["fit", str(curve), "-o", str(out)])
            assert code in {0, 2, 3}, err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert out.exists() is (code == 0)
            if code == 0:
                fit = strict_json(out.read_text(encoding="utf-8"))
                assert fit["law"]["alpha"] > 0 and fit["law"]["beta"] > 0


class TestEveryInputExitsWithACode:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_drawn_files_and_flags(self, data):
        command = data.draw(st.sampled_from(["fit", "solve", "compare", "sweep"]))
        cwd = sorted(os.listdir())
        # Each command runs in its temporary directory, where a default
        # output (fit's fit.json) lands and is removed with it.
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            tmp = pathlib.Path(tmp)
            argv = [command, _drawn_input(data, command, tmp), *_drawn_flags(data, command, tmp)]
            err, out = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        assert code in _EXIT_CODES, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        assert sorted(os.listdir()) == cwd, argv
