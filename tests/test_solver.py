import hashlib
import itertools
import json
import math
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocogen import economics as eco
from cocogen import cli, game, solver
from cocogen.errors import InstanceTooLarge, InvariantViolation, ScenarioValidationError
from cocogen.model import (
    Market,
    PayoffMode,
    StrategyProfile,
    save_scenario,
    scenario_from_dict,
)
from cocogen.scenario import default_sweep_grid, expand_sweep, sample_scenario
from cocogen.solver import CaseLabel, SolverConfig

from helpers import (
    FLOAT_RESOLUTION_PROFILE,
    _ref_case_label,
    _ref_stationary_point,
    assert_lattice_equilibrium,
    build_scenario,
    float_resolution_scenario,
    org_row,
    random_profile,
    reference_fpi_solve,
    reference_grid_oracle,
    reference_grid_scan,
    reference_deviation_gains,
    reference_root_solve,
    reference_ne_gains,
    reference_potential_gradient,
    reference_probe_deviations,
    reference_unilateral_utilities,
    reference_verify_ne,
    reference_wco_scenario,
    table1_scenario,
    with_payoff_mode,
)


def _factor(s):
    """The stationary factor ``fpi_solve`` passes to the closed forms."""
    return game._linear_coeffs(s) * s.n * s.economy.varrho / (s.alpha * s.beta)


def _points(s, a1, factor=None):
    """The stationary points of one game (the scenario's own by default) at
    mean local error a1."""
    return solver._stationary_points(s, (_factor(s) if factor is None else factor)[None], [a1])[0]


def _case_labels(s, a1, factor=None):
    return solver._labels(s, _factor(s) if factor is None else factor, a1)


class TestStationarityConstants:
    def test_single_org_plug_in(self):
        s = build_scenario(n=1, alpha=1.0, beta=1.0, delta=0.0, d_loc=100, gamma=[[0.0]])
        assert float(eco.local_errors(s, [0.0]).mean()) == pytest.approx(0.01, rel=1e-15)
        # beta = 1: the stationary point is (factor / growth) ** -1/2 - d_loc
        a1 = 0.01
        growth = math.exp((a1 - 1.0) / s.economy.varrho)
        want = math.sqrt(growth / (game._linear_coeffs(s)[0] * s.economy.varrho)) - 100.0
        got = _points(s, a1)[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_linear_coeffs_are_always_positive(self):
        s = table1_scenario(seed=31)
        assert all(lin > 0 for lin in game._linear_coeffs(s))

    def test_matches_independent_recomputation(self):
        s = table1_scenario(seed=32)
        lin = game._linear_coeffs(s)
        for n in range(s.n):
            org = org_row(s, n)
            a2 = (
                org.kappa * org.c_cmp * (org.eta + org.mu) * org.f**2
                / game.z_weights(s)[n]
            )
            assert -lin[n] == pytest.approx(a2, rel=1e-14)


def _mean_local_error(s, d):
    return float(eco.local_errors(s, d).mean())


class TestStationaryPoints:
    def test_matches_independent_formula(self):
        s = table1_scenario(seed=37)
        lin = game._linear_coeffs(s)
        for seed in range(3):
            a1 = _mean_local_error(s, random_profile(s, seed))
            got = _points(s, a1)
            for n in range(s.n):
                want = _ref_stationary_point(s, n, a1, -lin[n])
                assert got[n] == pytest.approx(want, rel=1e-12)

    def test_interior_equilibrium_is_its_own_stationary_point(self):
        s = table1_scenario(seed=36, n=3, cost_scale=4.0)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-14, max_iters=5000))
        d = rep.profile.d_gen
        d_star = _points(s, _mean_local_error(s, d))
        assert CaseLabel.INTERIOR in rep.cases
        for n in range(s.n):
            if rep.cases[n] == CaseLabel.INTERIOR:
                # restoration rounds to integers, so allow the half-sample gap
                assert d_star[n] == pytest.approx(d[n], abs=0.51)

    def test_symmetric_orgs_share_one_stationary_point(self):
        s = build_scenario(n=3)
        d_star = _points(s, _mean_local_error(s, np.full(3, 900.0)))
        assert len(set(d_star)) == 1

    @pytest.mark.filterwarnings("error")
    def test_saturates_without_warnings(self):
        s = table1_scenario(seed=37)
        factor = _factor(s)
        # growth underflows to 0: the point tends to -d_loc, below the box
        assert np.array_equal(_points(s, -1e6, factor), -s.d_loc)
        # growth overflows to inf: the point lies above every volume
        assert np.all(_points(s, 1e6, factor) == np.inf)
        # a subnormal bracket whose power overflows (beta near 0)
        flat = build_scenario(n=2, beta=0.001)
        a1 = 1.0 + flat.economy.varrho * math.log(1e308)
        assert 0 < _factor(flat)[0] / solver._growth(flat, a1) < 1e-300
        assert np.all(_points(flat, a1) == np.inf)
        assert _case_labels(s, -1e6, factor) == (CaseLabel.LOWER_BOUND,) * s.n
        assert _case_labels(s, 1e6, factor) == (CaseLabel.UPPER_BOUND,) * s.n


class TestScalarStationarityGate:
    """Every preset sweep job and its zero-competition clone, solved at the
    default config, lands on exactly the integer profile and case labels of
    the root solve and descent on the scalar stationarity path as first
    written (``tests/helpers.reference_root_solve``)."""

    def test_sweep_preset_and_wco_clones(self):
        grid = default_sweep_grid()
        solved = 0
        for job in expand_sweep(grid):
            s = sample_scenario(grid, job.cell, job.seed)
            for x in (s, reference_wco_scenario(s)):
                rep = solver.fpi_solve(x)
                want_d, want_cases = reference_root_solve(x)
                assert np.array_equal(rep.profile.d_gen, want_d), job
                assert rep.cases == want_cases, job
                solved += 1
        assert solved == 1800

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_two_game_solve_equals_each_game_alone(self, mode):
        # Each job's CoCoGen game and its zero-competition game, solved as
        # the two rows of one solve on the job's columns (and CoCoGen's
        # game again at each outer pass), report what each game solved
        # alone reports, field for field.
        from cocogen import baselines

        grid = default_sweep_grid()
        for job in expand_sweep(grid):
            s = with_payoff_mode(sample_scenario(grid, job.cell, job.seed), mode)
            clone = reference_wco_scenario(s)
            lin = np.vstack([game._linear_coeffs(s), baselines.wco_linear_coeffs(s)])
            assert lin[1].tolist() == game._linear_coeffs(clone).tolist()
            two = solver._equilibria(s, lin)
            for got, alone in zip(two, (solver.fpi_solve(s), solver.fpi_solve(clone))):
                assert _report_fields(got) == _report_fields(alone), job
                assert got.scenario is s


def _report_fields(rep):
    return (rep.profile.d_gen.tolist(), rep.cases, rep.iterations, rep.potential_trace,
            rep.converged, rep.ne_certificate)


class TestSolveGames:
    """Games solved together finish, descend and are labelled on their own."""

    @pytest.mark.parametrize(
        "cfg", [SolverConfig(), SolverConfig(tol=1e-14, max_iters=5000),
                SolverConfig(tol=1e-16, max_iters=2)],
    )
    def test_every_row_equals_its_one_row_call(self, cfg):
        for seed, n in ((70, 10), (71, 3), (72, 1)):
            s = table1_scenario(seed=seed, n=n)
            lin = game._linear_coeffs(s)
            # Cost-dominated (pinned at the floor), free (at the ceiling)
            # and interior games take different numbers of steps.
            rows = np.vstack([lin, lin * 1e6, lin, lin * 1e-6, lin * 3.0])
            together = solver.solve_games(s, rows, cfg)
            assert len(together) == len(rows)
            for got, row in zip(together, rows):
                assert _report_fields(got) == _report_fields(solver.solve_games(s, row[None], cfg)[0])
            assert _report_fields(together[0]) == _report_fields(solver.fpi_solve(s, cfg))
            assert set(together[1].cases) == {CaseLabel.LOWER_BOUND}
            assert set(together[3].cases) == {CaseLabel.UPPER_BOUND}

    def test_invalid_scenario_raises(self):
        # Refused at construction, so no solve can be reached with it.
        s = table1_scenario(seed=73)
        with pytest.raises(ScenarioValidationError) as exc:
            replace(s, market=Market(gamma=s.market.gamma, xi=1e9, phi=s.market.phi))
        assert [v.field for v in exc.value.violations] == ["market.xi"]


class TestGradientLabels:
    """``solver._labels`` at the mean local error of arbitrary profiles, not
    only at the solver's root."""

    def test_dominating_cost_pins_to_lower_bound(self):
        s = table1_scenario(seed=33, cost_scale=1e6)
        a1 = _mean_local_error(s, np.full(s.n, 500.0))
        assert _case_labels(s, a1) == (CaseLabel.LOWER_BOUND,) * s.n

    def test_vanishing_cost_pins_to_upper_bound(self):
        s = table1_scenario(seed=34, cost_scale=1e-6)
        a1 = _mean_local_error(s, np.full(s.n, 500.0))
        assert _case_labels(s, a1) == (CaseLabel.UPPER_BOUND,) * s.n

    def test_matches_reference_rule_off_equilibrium(self):
        seen = set()
        scales = ((38, 1.0), (39, 4.0), (40, 0.05), (41, 1e-3), (42, 1e3))
        for (seed, cost_scale), mode in itertools.product(scales, PayoffMode):
            s = with_payoff_mode(table1_scenario(seed=seed, cost_scale=cost_scale), mode)
            for k in range(3):
                p = random_profile(s, k)
                got = _case_labels(s, _mean_local_error(s, p))
                assert got == tuple(_ref_case_label(s, p, n) for n in range(s.n))
                seen.update(got)
        assert len(seen) >= 2  # the draws exercise more than one label
        assert seen == {CaseLabel.LOWER_BOUND, CaseLabel.UPPER_BOUND, CaseLabel.INTERIOR}


class TestSolverConfig:
    def test_fields_are_tol_and_max_iters(self):
        assert [f.name for f in fields(SolverConfig)] == ["tol", "max_iters"]

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan}, {"tol": math.inf}, {"max_iters": 0}],
    )
    def test_rejects_unusable_settings(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)


class TestFpiSolve:
    def test_descent_steps_are_built_once_per_n_and_read_only(self):
        steps = solver._steps(3)
        assert solver._steps(3) is steps and not steps.flags.writeable
        assert np.array_equal(steps, np.vstack([np.zeros(3), np.eye(3), -np.eye(3)]))

    def test_huge_cost_converges_immediately_to_floor(self):
        s = table1_scenario(seed=37, cost_scale=1e6)
        rep = solver.fpi_solve(s)
        assert rep.converged
        assert rep.iterations <= 2
        assert np.all(rep.profile.d_gen == s.bounds.d_min)
        assert all(c == CaseLabel.LOWER_BOUND for c in rep.cases)

    def test_tiny_cost_saturates_at_ceiling(self):
        s = table1_scenario(seed=38, cost_scale=1e-6)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-12, max_iters=2000))
        assert rep.converged
        assert np.all(rep.profile.d_gen == s.bounds.d_max)
        assert all(c == CaseLabel.UPPER_BOUND for c in rep.cases)

    def test_default_scenario_converges_with_monotone_trace(self):
        # A property of the damped Jacobi loop; the bracket's trace need not
        # be monotone.
        s = table1_scenario(seed=39)
        rep = reference_fpi_solve(s, SolverConfig(tol=1e-9, max_iters=500))
        assert rep.converged
        trace = np.asarray(rep.potential_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_deterministic_reports(self):
        s = table1_scenario(seed=40)
        cfg = SolverConfig(tol=1e-10, max_iters=800)
        r1 = solver.fpi_solve(s, cfg)
        r2 = solver.fpi_solve(s, cfg)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
        )

    def test_nonconvergence_is_reported_not_raised(self):
        s = table1_scenario(seed=41)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-16, max_iters=2))
        assert not rep.converged
        assert rep.iterations == 2
        assert len(rep.potential_trace) == 2

    def test_bracket_closes_at_float_resolution(self):
        # The bracket cannot get 1e-9 wide around a root near 3e8; it closes
        # once it is two adjacent floats, a few steps in, with the profile
        # the unclosed bracket also gave.
        s = float_resolution_scenario()
        rep = solver.fpi_solve(s)
        assert rep.converged and rep.iterations <= 20
        assert rep.profile.d_gen.tolist() == FLOAT_RESOLUTION_PROFILE

    def test_invalid_scenario_raises(self):
        # Refused at construction, so no solve can be reached with it.
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=2, xi=1e9)
        assert [v.field for v in exc.value.violations] == ["market.xi"]

    def test_report_carries_constraint_verdicts(self):
        s = table1_scenario(seed=42)
        rep = solver.fpi_solve(s)
        out = rep.to_dict()
        assert len(out["ir"]) == s.n
        assert set(out["bb"]) == {"sum", "balanced"}
        assert rep.welfare == pytest.approx(
            sum(u["utility"] for u in out["utilities"]), rel=1e-12
        )

    def test_looser_tolerance_stops_earlier(self):
        s = table1_scenario(seed=43)
        loose = solver.fpi_solve(s, SolverConfig(tol=1e-1, max_iters=500))
        tight = solver.fpi_solve(s, SolverConfig(tol=1e-14, max_iters=500))
        assert loose.iterations < tight.iterations
        assert np.array_equal(loose.profile.d_gen, tight.profile.d_gen)

    def test_gauss_like_interior_gradient_vanishes(self):
        s = table1_scenario(seed=44, cost_scale=3.0)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-14, max_iters=5000))
        grad = reference_potential_gradient(s, rep.profile.d_gen)
        scale = float(np.max(np.abs(grad)))
        for n in range(s.n):
            if rep.cases[n] == CaseLabel.INTERIOR:
                # integer restoration leaves at most a half-sample offset
                up = rep.profile.d_gen.copy()
                up[n] += 1.0
                curv = abs(reference_potential_gradient(s, up)[n] - grad[n])
                assert abs(grad[n]) <= max(1e-6 * scale, 0.75 * curv)
            elif rep.cases[n] == CaseLabel.LOWER_BOUND:
                assert grad[n] >= -1e-12
            else:
                assert grad[n] <= 1e-12

    def test_moderate_cost_interior_confirmed_by_oracle(self):
        s = table1_scenario(seed=35, n=2, cost_scale=4.0, d_max=2000)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-13, max_iters=2000))
        assert all(c == CaseLabel.INTERIOR for c in rep.cases)
        res = solver.grid_oracle(s)
        assert s.bounds.d_min < res.profile.d_gen[0] < s.bounds.d_max
        assert s.bounds.d_min < res.profile.d_gen[1] < s.bounds.d_max

    def test_more_competition_shifts_equilibrium_up(self):
        # Paired draws: only gamma is scaled, so the psi/phi/kappa/d_loc
        # draws that differ between the sweep's competition levels cannot
        # mask the equilibrium shift that a larger |z_n| causes.
        grid = default_sweep_grid()
        # First repetition of every other sweep cell.
        for job in expand_sweep(grid)[:: 2 * grid.repetitions]:
            s = sample_scenario(grid, job.cell, job.seed)
            welfare, mean_d_gen = [], []
            for t in (0.0, 0.5, 1.0):
                market = Market(gamma=t * s.market.gamma, xi=s.market.xi, phi=s.market.phi)
                rep = solver.fpi_solve(replace(s, market=market))
                assert rep.converged
                welfare.append(rep.welfare)
                mean_d_gen.append(float(np.mean(rep.profile.d_gen)))
            assert welfare[0] <= welfare[1] <= welfare[2]
            assert mean_d_gen[0] <= mean_d_gen[1] <= mean_d_gen[2]


def _shipped_example() -> dict:
    from importlib import resources

    src = resources.files("cocogen").joinpath("data/scenario_example.json")
    return json.loads(src.read_text(encoding="utf-8"))


class TestEveryInputSolvesOrFailsValidation:
    @settings(max_examples=100, deadline=None)
    @given(
        varrho=st.floats(1e-3, 1e3),
        alpha=st.floats(0.1, 300.0),
        beta=st.floats(0.05, 2.0),
        delta=st.floats(0.0, 0.5),
        d_loc=st.lists(st.integers(0, 5000), min_size=10, max_size=10),
        d_min=st.integers(0, 1000),
        d_max=st.integers(0, 5000),
        gamma_scale=st.floats(0.0, 3.0),
        log_cost=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
    )
    def test_shipped_example_perturbed(
        self, varrho, alpha, beta, delta, d_loc, d_min, d_max, gamma_scale, log_cost
    ):
        payload = _shipped_example()
        payload["economy"]["varrho"] = varrho
        payload["bounds"] = {"d_min": d_min, "d_max": d_max}
        payload["market"]["gamma"] = [
            [gamma_scale * g for g in row] for row in payload["market"]["gamma"]
        ]
        for org, dl in zip(payload["organizations"], d_loc):
            org["law"] = {"alpha": alpha, "beta": beta, "delta": delta}
            org["d_loc"] = dl
            for name, x in zip(("kappa", "eta", "c_cmp"), log_cost):
                org[name] *= 10.0**x
        try:
            s = scenario_from_dict(payload)
        except ScenarioValidationError:
            return
        rep = solver.fpi_solve(s)
        assert rep.converged
        assert math.isfinite(rep.welfare)
        assert all(math.isfinite(u) for u in rep.evaluation.utility[0].tolist())
        assert_lattice_equilibrium(s, rep.profile.d_gen)


class TestLazyPricing:
    def test_priced_fields_equal_a_direct_evaluation(self):
        s = table1_scenario(seed=41)
        rep = solver.fpi_solve(s)
        ev = eco.evaluate_profile(s, rep.profile)
        assert rep.welfare == ev.welfare[0]
        for name in ("revenue", "payoff_in", "cost", "coopetition_loss", "utility", "ir",
                     "bb_sum", "bb_balanced"):
            assert np.array_equal(getattr(rep.evaluation, name), getattr(ev, name)), name
        assert rep.evaluation.server_fee == ev.server_fee
        assert rep.evaluation is rep.evaluation

    def test_to_dict_on_the_shipped_example(self):
        s = scenario_from_dict(_shipped_example())
        rep = solver.fpi_solve(s)
        out = rep.to_dict()
        assert list(out) == [
            "profile", "cases", "iterations", "potential_trace", "converged",
            "utilities", "welfare", "ir", "bb",
        ]
        ev = eco.evaluate_profile(s, rep.profile)
        assert out["profile"] == [
            3000.0, 1278.0, 3000.0, 3000.0, 1343.0, 1139.0, 90.0, 1198.0, 305.0, 1874.0
        ]
        assert out["utilities"] == [
            {"revenue": ev.revenue[0, n], "payoff_in": ev.payoff_in[0, n],
             "cost": ev.cost[0, n], "server_fee": ev.server_fee,
             "coopetition_loss": ev.coopetition_loss[0, n], "utility": ev.utility[0, n]}
            for n in range(s.n)
        ]
        assert out["welfare"] == ev.welfare[0]
        assert out["ir"] == ev.ir[0].tolist()
        assert out["bb"] == {"sum": ev.bb_sum[0], "balanced": ev.bb_balanced[0]}
        assert (out["iterations"], out["converged"]) == (rep.iterations, True)
        cert = solver.verify_ne(s, rep.profile)
        certified = replace(rep, ne_certificate=cert).to_dict()
        assert certified == {**out, "ne_certificate": cert.to_dict()}

    # sha256 of the potential traces, as float.hex lines, of both games of
    # the first 90 preset jobs and of the shipped example, as priced at every
    # bracket step before the trace was computed on first read.
    TRACES_SHA256 = "c8db95b55e06e74982be10884562c775f67fb1a06decbc14f159a512872d0052"

    def test_trace_equals_the_values_priced_at_each_step(self):
        from importlib import resources

        from cocogen import baselines
        from cocogen.model import load_scenario

        grid = default_sweep_grid()
        reports = []
        for job in expand_sweep(grid)[:90]:
            s = sample_scenario(grid, job.cell, job.seed)
            lin = np.vstack([game._linear_coeffs(s), baselines.wco_linear_coeffs(s)])
            reports += solver.solve_games(s, lin)
        shipped = resources.files("cocogen").joinpath("data/scenario_example.json")
        reports.append(solver.fpi_solve(load_scenario(shipped)))
        lines = [" ".join(float(x).hex() for x in rep.potential_trace) for rep in reports]
        assert all(len(rep.potential_trace) == rep.iterations for rep in reports)
        text = "\n".join(lines) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.TRACES_SHA256

    def test_trace_is_priced_once_on_first_read(self, monkeypatch):
        calls = []
        real = game.potential_from_errors
        monkeypatch.setattr(game, "potential_from_errors", lambda *a: calls.append(1) or real(*a))
        s = table1_scenario(seed=44)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-14))
        solved = len(calls)  # the descent's pricing alone
        copy = replace(rep, ne_certificate=None)
        trace = rep.potential_trace
        assert len(calls) - solved == rep.iterations == len(trace) > 3
        assert rep.potential_trace is trace and len(calls) - solved == rep.iterations
        assert copy.potential_trace == trace  # a copy computes the same values

    # sha256 of the case labels and of the budget-balance verdicts of both
    # games of the first 90 preset jobs (with each job's priced matrix:
    # CoCoGen, VCFL, WCO and the RaDG draws) and of the shipped example and
    # its symmetric-gamma copy (with 100 RaDG draws), under both payoff
    # modes, as computed before either was deferred to its first read.
    LAZY_SHA256 = ("534591d0f9fa2da7efff44faccb3c76a7652917c50e2bb9331b8b1d416dad1d9",
                   "5cfdfebabefd3fc4b90fd4c6e8a59f68b87e0941d8dab926a792a205912342ce")

    def test_labels_and_verdicts_equal_the_eager_ones(self):
        from cocogen import baselines

        grid = default_sweep_grid()
        cases, balanced = hashlib.sha256(), hashlib.sha256()

        def add(reports, evaluations):
            for rep in reports:
                cases.update(" ".join(rep.cases).encode() + b"\n")
            for ev in [rep.evaluation for rep in reports] + evaluations:
                balanced.update(ev.bb_balanced.tobytes())

        example = scenario_from_dict(_shipped_example())
        gamma = example.market.gamma
        symmetric = replace(example, market=Market(
            gamma=(gamma + gamma.T) / 2, xi=example.market.xi, phi=example.market.phi))
        for mode in PayoffMode:
            for job in expand_sweep(grid)[:90]:
                s = with_payoff_mode(sample_scenario(grid, job.cell, job.seed), mode)
                lin = np.vstack([game._linear_coeffs(s), baselines.wco_linear_coeffs(s)])
                reports = solver.solve_games(s, lin)
                profiles = np.vstack([reports[0].profile.d_gen, baselines.vcfl_profile(s).d_gen,
                                      reports[1].profile.d_gen,
                                      baselines.radg_profiles(s, job.seed, grid.radg_repetitions)])
                add(reports, [eco.evaluate_profiles(s, profiles)])
            for base in (example, symmetric):
                s = with_payoff_mode(base, mode)
                add([solver.fpi_solve(s)], [eco.evaluate_profiles(s, baselines.radg_profiles(s, s.seed, 100))])
        assert (cases.hexdigest(), balanced.hexdigest()) == self.LAZY_SHA256

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
        return calls

    def test_labels_are_computed_once_on_first_read(self, monkeypatch):
        calls = self._count_calls(monkeypatch, solver, "_labels")
        s = table1_scenario(seed=45)
        reports = solver.solve_games(s, np.vstack([game._linear_coeffs(s)] * 2))
        assert calls == [] and all("cases" not in rep.__dict__ for rep in reports)
        cases = reports[1].cases
        assert len(calls) == 1 and "cases" not in reports[0].__dict__
        assert reports[1].cases is cases and len(calls) == 1
        assert reports[0].cases == cases and len(calls) == 2

    def test_verdict_is_computed_once_on_first_read(self, monkeypatch):
        calls = self._count_calls(monkeypatch, eco, "_column_sums")
        s = table1_scenario(seed=46)
        ev = eco.evaluate_profiles(s, np.vstack([random_profile(s, k) for k in range(4)]))
        priced = len(calls)  # welfare and bb_sum
        assert "bb_balanced" not in ev.__dict__
        verdict = ev.bb_balanced
        assert len(calls) == priced + 1 and verdict.shape == (4,)
        assert ev.bb_balanced is verdict and len(calls) == priced + 1

    def test_a_sweep_job_computes_neither(self, monkeypatch):
        from cocogen import cli

        labels = self._count_calls(monkeypatch, solver, "_labels")
        evaluations = []
        real = eco.evaluate_profiles
        monkeypatch.setattr(eco, "evaluate_profiles",
                            lambda *a: evaluations.append(real(*a)) or evaluations[-1])
        grid = default_sweep_grid()
        for job in expand_sweep(grid)[:3]:
            rows = cli.run_sweep_job(grid, job)
            assert [r["status"] for r in rows] == ["ok"] * 4
        assert labels == [] and len(evaluations) == 3
        assert all("bb_balanced" not in ev.__dict__ for ev in evaluations)

    def test_reports_differing_only_in_scenario_compare_equal(self):
        s = table1_scenario(seed=42)
        rep = solver.fpi_solve(s)
        other = replace(rep, scenario=table1_scenario(seed=43))
        assert other == rep
        assert other.welfare != rep.welfare
        assert "scenario" not in repr(rep)


def assert_same_equilibrium(s, cfg, init="all_min"):
    """The solver's first pass (``solve_games`` at F's own coefficient, the
    ``z`` weights', which under literal payoffs is the whole solve) and the
    Jacobi reference started from ``init`` agree on the integer profile and
    the case labels at ``cfg``, and the profile passes the ±1 lattice
    check."""
    got = solver.solve_games(s, game._linear_coeffs(s)[None], cfg)[0]
    want = reference_fpi_solve(s, replace(cfg, max_iters=5000), init=init)
    assert got.converged and want.converged
    assert np.array_equal(got.profile.d_gen, want.profile.d_gen)
    assert got.cases == want.cases
    assert_lattice_equilibrium(s, got.profile.d_gen)


class TestReferenceEquivalence:
    """The root-and-descent solve lands on the integer profile of the damped
    Jacobi loop as first written, run to ``tol=1e-14``."""

    @pytest.mark.parametrize("init", ["all_min", "all_max", "midpoint"])
    @pytest.mark.parametrize("bb_mode", [PayoffMode.LITERAL, PayoffMode.ANTISYMMETRIC])
    def test_table1_scenarios(self, init, bb_mode):
        cfg = SolverConfig(tol=1e-14)
        for seed, n in ((60, 10), (61, 10), (62, 3)):
            s = table1_scenario(seed=seed, n=n, bb_mode=bb_mode)
            assert_same_equilibrium(s, cfg, init)

    @pytest.mark.parametrize("cost_scale", [1e6, 1e-6])
    def test_edge_cost_scenarios(self, cost_scale):
        s = table1_scenario(seed=63, cost_scale=cost_scale)
        assert_same_equilibrium(s, SolverConfig(tol=1e-14))

    def test_nonconverged_run(self):
        s = table1_scenario(seed=64)
        cfg = SolverConfig(tol=1e-16, max_iters=2)
        for rep in (solver.fpi_solve(s, cfg), reference_fpi_solve(s, cfg, init="midpoint")):
            assert not rep.converged and rep.iterations == 2

    def test_sweep_preset_scenarios_and_wco_clones(self):
        grid = default_sweep_grid()
        cfg = SolverConfig(tol=1e-14)
        for job in expand_sweep(grid)[:: grid.repetitions // 4]:
            s = sample_scenario(grid, job.cell, job.seed)
            assert_same_equilibrium(s, cfg)
            assert_same_equilibrium(reference_wco_scenario(s), cfg)


class TestGridOracle:
    def test_single_org_matches_closed_form(self):
        s = table1_scenario(seed=46, n=1, cost_scale=10.0, gamma_range=(0.0, 0.0), d_max=3000)
        res = solver.grid_oracle(s)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-14, max_iters=4000))
        assert abs(res.profile.d_gen[0] - rep.profile.d_gen[0]) <= 1.0

    def test_cost_dominated_instance_sits_at_floor(self):
        s = table1_scenario(seed=47, n=2, cost_scale=1e6)
        res = solver.grid_oracle(s)
        assert np.all(res.profile.d_gen == s.bounds.d_min)

    def test_two_org_symmetric_matches_grid_argmin(self):
        s = build_scenario(n=2, alpha=21.2, beta=0.52, delta=0.12, d_loc=1500, d_max=3000)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-13, max_iters=3000))
        res = solver.grid_oracle(s)
        assert np.all(np.abs(rep.profile.d_gen - res.profile.d_gen) <= 1.0)

    def test_symmetric_two_org_argmin_is_symmetric(self):
        s = build_scenario(n=2, alpha=21.2, beta=0.52, delta=0.12, d_loc=1500)
        res = solver.grid_oracle(s)
        assert res.profile.d_gen[0] == res.profile.d_gen[1]

    def test_box_over_the_point_cap_is_refused(self):
        # Near-free generation on a long axis leaves the potential almost
        # flat, so the proof's box holds about 1e10 points: it is refused
        # before any of them is priced.
        s = table1_scenario(seed=0, n=10, cost_scale=0.01, d_max=300_000)
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match="lattice points"):
            solver.grid_oracle(s)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_ten_organizations_match_the_solver(self, mode):
        # Criterion 5's 21 instances and every 10th preset job.
        scenarios = [table1_scenario(seed=0)] + [table1_scenario(seed=8000 + k) for k in range(20)]
        grid = default_sweep_grid()
        scenarios += [sample_scenario(grid, job.cell, job.seed) for job in expand_sweep(grid)[::10]]
        for s in scenarios:
            s = with_payoff_mode(s, mode)
            res = solver.grid_oracle(s)
            # The oracle proves the z-weighted F, the solve's first pass.
            first = solver.solve_games(s, game._linear_coeffs(s)[None])[0]
            assert np.array_equal(res.profile.d_gen, first.profile.d_gen)
            assert res.f_min == game.potential(s, res.profile)

    @pytest.mark.parametrize("step", [1, 1.0, 0.5, 2.0, 0.0, math.nan, math.inf])
    def test_only_the_integer_lattice_is_accepted(self, step):
        s = table1_scenario(seed=49, n=2)
        if step == 1:
            res, want = solver.grid_oracle(s, step=step), solver.grid_oracle(s)
            assert np.array_equal(res.profile.d_gen, want.profile.d_gen) and res.f_min == want.f_min
        else:
            with pytest.raises(InvariantViolation) as err:
                solver.grid_oracle(s, step=step)
            assert err.value.field == "step"

    @pytest.mark.parametrize("n_orgs", [1, 2, 3])
    def test_oracle_agreement_random_instances(self, n_orgs):
        for seed in range(6):
            scale = [0.6, 2.0, 6.0][seed % 3]
            s = table1_scenario(seed=500 + 10 * n_orgs + seed, n=n_orgs, cost_scale=scale)
            rep = solver.fpi_solve(s, SolverConfig(tol=1e-13, max_iters=4000))
            res = solver.grid_oracle(s)
            assert rep.converged
            f_fpi = game.potential(s, rep.profile)
            assert abs(f_fpi - res.f_min) <= 1e-6 * (1 + abs(res.f_min))
            assert np.all(np.abs(rep.profile.d_gen - res.profile.d_gen) <= 1.0)


def _assert_matches_full_scan(s):
    res = solver.grid_oracle(s)
    profile, f_min = reference_grid_oracle(s)
    assert np.array_equal(res.profile.d_gen, profile), (res.profile.d_gen, profile)
    assert res.f_min == f_min  # bitwise: the same profile through game.potential


def _criterion_4_instance(n_orgs, seed):
    scale = (0.5, 1.0, 2.0, 5.0, 20.0)[seed % 5]
    return table1_scenario(seed=7000 + 100 * n_orgs + seed, n=n_orgs, cost_scale=scale)


class TestProofBoxAgainstFullScan:
    """The grid oracle against the full scan of every lattice point
    (``helpers.reference_grid_scan``)."""

    @pytest.mark.parametrize("n_orgs", [1, 2, 3])
    def test_criterion_4_instances_match_the_full_scan(self, n_orgs):
        for seed in range(50):
            s = _criterion_4_instance(n_orgs, seed)
            res = solver.grid_oracle(s)
            values, row_min, idx = reference_grid_scan(s)
            assert np.array_equal(res.profile.d_gen, values[list(idx)]), (seed, idx)
            assert res.f_min == game.potential(s, values[list(idx)])  # bitwise

    @settings(max_examples=40, deadline=None)
    @given(
        n_orgs=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 10**6),
        log_cost=st.floats(-3.0, 3.0),
        varrho=st.sampled_from([0.5, 5.0, 20.0, 200.0]),
        d_max=st.integers(0, 40),
    )
    def test_proof_bound_and_box_hold_the_full_scan_minimum(
        self, n_orgs, seed, log_cost, varrho, d_max
    ):
        # The proof itself: the oracle prices lattices this small whole.
        s = table1_scenario(seed=seed, n=n_orgs, cost_scale=10.0**log_cost, varrho=varrho,
                            d_max=d_max)
        (bracket,), _ = solver._brackets(s, game._linear_coeffs(s)[None], SolverConfig())
        first, final, lower_bound = solver._proof_box(s, bracket.point[0])
        _, row_min, idx = reference_grid_scan(s)
        assert lower_bound <= row_min.min()
        assert np.all((first <= idx) & (np.array(idx) <= final)), (first, idx, final)

    @pytest.mark.parametrize("n_orgs", [2, 3])
    @pytest.mark.parametrize("d_max", [0, 5, 40])
    def test_small_boxes_match_the_full_scan(self, n_orgs, d_max):
        for seed in range(8):
            scale = (0.1, 1.0, 10.0, 1e3)[seed % 4]
            _assert_matches_full_scan(
                table1_scenario(seed=900 + seed, n=n_orgs, cost_scale=scale, d_max=d_max)
            )

    @pytest.mark.parametrize("n_orgs", [2, 3])
    @pytest.mark.parametrize("alpha", [5.0, 21.2])
    def test_symmetric_ties_break_to_the_first_profile(self, n_orgs, alpha):
        s = build_scenario(n=n_orgs, alpha=alpha, beta=0.52, delta=0.12, d_loc=1500)
        _assert_matches_full_scan(s)

    @pytest.mark.parametrize("n_orgs", [2, 3])
    def test_cost_dominated_optimum_is_the_floor(self, n_orgs):
        s = table1_scenario(seed=47, n=n_orgs, cost_scale=1e6)
        assert np.all(solver.grid_oracle(s).profile.d_gen == s.bounds.d_min)
        _assert_matches_full_scan(s)

    @pytest.mark.parametrize("n_orgs", [2, 3])
    def test_optimum_in_the_last_row(self, n_orgs):
        s = table1_scenario(seed=48, n=n_orgs, cost_scale=1e-3)
        _, _, idx = reference_grid_scan(s)
        assert idx[0] == s.bounds.d_max
        _assert_matches_full_scan(s)


def _assert_certified_like_the_scan(s, p):
    """``verify_ne`` gives the full scan's verdict, and every organization's
    best move gains what the scan's best gains, within 1e-12 * (1 + |u_n|),
    at a volume where the scan prices that gain. Returns the scan's
    certificate."""
    cert, xs, scan_gains = reference_verify_ne(s, p)
    assert solver.verify_ne(s, p).is_ne == cert.is_ne
    alts, gains = solver._best_deviations(s, p)
    bounds = 1e-12 * (1.0 + np.abs(eco.evaluate_profiles(s, p[None, :]).utility[0]))
    for n, g in enumerate(scan_gains):
        at = np.flatnonzero(xs == alts[n])
        assert abs(gains[n] - g.max()) <= bounds[n], n
        assert at.size == 1 and abs(g[at[0]] - gains[n]) <= bounds[n], n
    return cert


def _count_calls(monkeypatch, name):
    """Record each call of ``solver.<name>`` (``_brackets`` or
    ``_descend``) by its number of games."""
    calls, real = [], getattr(solver, name)
    monkeypatch.setattr(solver, name, lambda s, rows, *rest: calls.append(len(rows))
                        or real(s, rows, *rest))
    return calls


class TestEquilibriumPasses:
    """``fpi_solve`` descends its profile on F's coefficient ``-c / A(d)``
    until a descent leaves it where it is (``solver._equilibria``), so no
    move gains anything under either payoff mode."""

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_no_move_gains_anything(self, mode):
        # Every 10th preset job, and criterion 5's 21 instances with costs
        # x0.1, x1 and x10: 153 instances per mode.
        grid = default_sweep_grid()
        scenarios = [sample_scenario(grid, job.cell, job.seed) for job in expand_sweep(grid)[::10]]
        scenarios += [table1_scenario(seed=seed, cost_scale=scale)
                      for seed in (0, *range(8000, 8020)) for scale in (0.1, 1.0, 10.0)]
        for s in scenarios:
            s = with_payoff_mode(s, mode)
            rep = solver.fpi_solve(s)
            cert = solver.verify_ne(s, rep.profile)
            assert rep.converged and cert.is_ne and cert.worst_gain == 0.0, s.seed

    def test_literal_payoffs_take_one_root_solve(self, monkeypatch):
        grid = default_sweep_grid()
        job = expand_sweep(grid)[0]
        s = sample_scenario(grid, job.cell, job.seed)
        solves = _count_calls(monkeypatch, "_brackets")
        descents = _count_calls(monkeypatch, "_descend")
        solver.fpi_solve(s)
        assert solves == [1] and descents == [1]  # the root solve's own descent
        solves.clear()
        descents.clear()
        cli.scheme_rows(s, job.seed, grid.radg_repetitions)
        assert solves == [2] and descents == [2]

    def test_antisymmetric_passes_descend_only_the_scenarios_game(self, monkeypatch):
        grid = default_sweep_grid()
        job = expand_sweep(grid)[0]
        s = with_payoff_mode(sample_scenario(grid, job.cell, job.seed), PayoffMode.ANTISYMMETRIC)
        solves = _count_calls(monkeypatch, "_brackets")
        descents = _count_calls(monkeypatch, "_descend")
        rows, _ = cli.scheme_rows(s, job.seed, grid.radg_repetitions)
        assert solves == [2]  # both games' roots, and no second root solve
        assert descents[0] == 2 and len(descents) > 1 and set(descents[1:]) == {1}
        assert rows[0]["welfare"] == solver.fpi_solve(s).welfare

    def test_pass_cap_reads_as_not_converged(self, monkeypatch):
        s = table1_scenario(seed=8002, bb_mode=PayoffMode.ANTISYMMETRIC)
        first = solver.solve_games(s, game._linear_coeffs(s)[None])[0]
        descents = _count_calls(monkeypatch, "_descend")
        rep = solver.fpi_solve(s)
        # The root solve's descent, the pass that moves and the one that does not.
        assert rep.converged and descents == [1, 1, 1]
        assert rep.profile.d_gen.tolist() != first.profile.d_gen.tolist()
        # One descent moves the profile, and none is left to confirm it.
        monkeypatch.setattr(solver, "_MAX_PASSES", 1)
        descents.clear()
        capped = solver.fpi_solve(s)
        assert not capped.converged and descents == [1, 1]
        assert capped.profile.d_gen.tolist() == rep.profile.d_gen.tolist()

    def test_report_keeps_the_root_solve(self):
        s = table1_scenario(seed=8002, bb_mode=PayoffMode.ANTISYMMETRIC)
        rep = solver.fpi_solve(s)
        first = solver.solve_games(s, game._linear_coeffs(s)[None])[0]
        assert _report_fields(rep)[1:] == _report_fields(first)[1:]
        assert rep.profile.d_gen.tolist() != first.profile.d_gen.tolist()
        # The profile is a lattice minimum of the F of its own weights.
        weights = game._deviation_weights(s, eco._local_errors(s, rep.profile.d_gen))
        d = rep.profile.d_gen[None].copy()
        assert solver._descend(s, d, game._linear_coeffs(s, weights)[None]).tolist() == [
            rep.profile.d_gen.tolist()]

    @pytest.mark.parametrize("seed", [900, 902, 908])
    def test_nonnegative_deviation_weights_move_to_an_equilibrium(self, seed, tmp_path, capsys):
        # At tiny costs and a small varrho the root solve's profile leaves
        # some A_n >= 0, where F at -c / A is no potential of n's moves, so
        # the passes move the organization that gains most to its best move.
        s = table1_scenario(seed=seed, n=4, varrho=0.01, cost_scale=1e-30,
                            bb_mode=PayoffMode.ANTISYMMETRIC)
        first = solver.solve_games(s, game._linear_coeffs(s)[None])[0]
        weights = game._deviation_weights(s, eco._local_errors(s, first.profile.d_gen))
        assert (weights >= 0).any()
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        out = tmp_path / "solve.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.fpi_solve(s)
            cert = solver.verify_ne(s, rep.profile)
            rows, _ = cli.scheme_rows(s, seed, 5)
            assert cli.main(["solve", str(path), "--verify-ne", "-o", str(out)]) == 0
            assert cli.main(["compare", str(path)]) == 0
        assert rep.converged and rows[0]["converged"]
        assert cert.is_ne and cert.worst_gain == 0.0
        assert rep.profile.d_gen.tolist() != first.profile.d_gen.tolist()
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["ne_certificate"]["is_ne"] is True
        cocogen = [line for line in capsys.readouterr().out.splitlines() if "CoCoGen" in line]
        assert len(cocogen) == 1 and cocogen[0].split()[-1] == "true"


class TestVerifyNe:
    def test_verdict_is_the_sign_of_the_worst_gain(self, monkeypatch):
        # No utility is priced: the verdict reads the gains alone.
        def priced(*args):
            raise AssertionError("verify_ne priced utilities")

        monkeypatch.setattr(eco, "evaluate_profiles", priced)
        verdicts = set()
        for seed, scale in ((51, 1e-6), (50, 1.0), (52, 5.0)):
            s = table1_scenario(seed=seed, cost_scale=scale)
            for p in (solver.fpi_solve(s).profile.d_gen, np.zeros(s.n), random_profile(s, seed)):
                cert = solver.verify_ne(s, p)
                assert cert.is_ne == (cert.worst_gain <= 0)
                verdicts.add(cert.is_ne)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("grid_step", [1, 1.0, 0.5, 2.0, 0.0, math.nan, math.inf])
    def test_only_the_integer_lattice_is_accepted(self, grid_step):
        s = table1_scenario(seed=51, n=2)
        p = np.zeros(s.n)
        if grid_step == 1:
            assert solver.verify_ne(s, p, grid_step=grid_step) == solver.verify_ne(s, p)
        else:
            with pytest.raises(InvariantViolation) as err:
                solver.verify_ne(s, p, grid_step=grid_step)
            assert err.value.field == "grid_step"

    def test_solver_output_is_certified(self):
        s = table1_scenario(seed=50)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-11, max_iters=1000))
        cert = solver.verify_ne(s, rep.profile)
        assert cert.is_ne

    def test_floor_profile_fails_when_cost_is_free(self):
        s = table1_scenario(seed=51, cost_scale=1e-6)
        cert = solver.verify_ne(s, np.zeros(s.n))
        assert not cert.is_ne
        assert cert.worst_gain > 0
        assert cert.worst_d_alt > 0  # upper-direction witness

    def test_single_org_ne_iff_potential_coordinate_minimal(self):
        s = table1_scenario(seed=52, n=1, cost_scale=5.0, gamma_range=(0.0, 0.0))
        res = solver.grid_oracle(s)
        assert solver.verify_ne(s, res.profile).is_ne
        off = StrategyProfile(res.profile.d_gen + 200.0)
        assert not solver.verify_ne(s, off).is_ne

    def test_reference_scan_prices_deviations_like_the_batched_core(self):
        for mode in (PayoffMode.LITERAL, PayoffMode.ANTISYMMETRIC):
            s = table1_scenario(seed=53, n=4, bb_mode=mode)
            p = random_profile(s, 54)
            xs = np.array([0.0, 123.0, 1777.0, 3000.0])
            for n in range(s.n):
                trials = np.tile(p, (len(xs), 1))
                trials[:, n] = xs
                np.testing.assert_allclose(
                    reference_unilateral_utilities(s, p, n, xs),
                    eco.evaluate_profiles(s, trials).utility[:, n],
                    rtol=1e-12,
                )

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_gains_match_the_reference_scan(self, mode):
        # 72 instances per mode: N in {2, 4, 10} and cost scales 1e-6, 1 and
        # 5, each at the solver's profile, a random lattice profile and a
        # random real profile.
        verdicts = set()
        for seed in range(24):
            s = table1_scenario(
                seed=5600 + seed, n=(2, 4, 10)[seed % 3], cost_scale=(1e-6, 1.0, 5.0)[seed // 8],
                bb_mode=mode,
            )
            rough = random_profile(s, 5700 + seed)
            for p in (solver.fpi_solve(s).profile.d_gen, np.floor(rough), rough):
                xs, expected, is_ne = reference_ne_gains(s, p)
                utilities = eco.evaluate_profiles(s, p[None, :]).utility[0]
                for n, gains in enumerate(reference_deviation_gains(s, p, xs)):
                    bound = 1e-12 * (1.0 + abs(utilities[n]))
                    assert np.max(np.abs(gains - expected[n])) <= bound, (seed, n)
                assert _assert_certified_like_the_scan(s, p).is_ne == is_ne, seed
                verdicts.add(is_ne)
        assert verdicts == {True, False}

    def test_criterion_5_instances_match_the_full_scan(self):
        cfg = SolverConfig(tol=1e-11, max_iters=2000)
        for s in [table1_scenario(seed=0)] + [table1_scenario(seed=8000 + k) for k in range(20)]:
            assert _assert_certified_like_the_scan(s, solver.fpi_solve(s, cfg).profile.d_gen).is_ne

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_rising_gains_are_searched_to_the_scan_maximum(self, mode):
        # Near-free generation from the floor rises towards the top of the
        # box; dear generation from the ceiling falls towards the bottom.
        for seed, n, cost_scale, start in [
            (51, 10, 1e-6, 0.0), (59, 4, 1e-6, 0.0), (60, 2, 1e-6, 1.0),
            (61, 10, 20.0, 3000.0), (62, 4, 5.0, 2999.0),
        ]:
            s = table1_scenario(seed=seed, n=n, cost_scale=cost_scale, bb_mode=mode)
            p = np.full(s.n, start)
            assert not _assert_certified_like_the_scan(s, p).is_ne
            alts, gains = solver._best_deviations(s, p)
            assert np.all(gains > 0) and np.all(np.abs(alts - start) > 1.0)

    def test_convex_gains_are_priced_at_the_lattice_ends(self, monkeypatch):
        # At a small varrho the others' counterfactual ratios r_m grow large,
        # so under antisymmetric payoffs some weights A_n are not negative.
        priced = []
        local_errors = eco._local_errors

        def counted(s, d, in_box=False, *orgs):
            if orgs:  # a move's errors, priced for some organizations
                priced.append(np.size(d))
            return local_errors(s, d, in_box, *orgs)

        convex = all_convex = 0
        for seed in range(900, 905):
            s = table1_scenario(seed=seed, n=4, bb_mode=PayoffMode.ANTISYMMETRIC, varrho=0.01)
            for p in (np.full(s.n, 3000.0), random_profile(s, seed)):
                weights = game._deviation_weights(s, eco._local_errors(s, p))
                convex += int(np.sum(weights >= 0))
                _assert_certified_like_the_scan(s, p)
                with monkeypatch.context() as m:
                    m.setattr(eco, "_local_errors", counted)
                    priced.clear()
                    alts, _ = solver._best_deviations(s, p)
                assert np.all(np.isin(alts[weights >= 0], [0.0, 3000.0]))
                if np.all(weights >= 0):  # the ends, neighbours and d_n; no search
                    all_convex += 1
                    assert sum(priced) == 5 * s.n
        assert convex > 0 and all_convex > 0

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_equilibria_moved_off_the_lattice(self, mode):
        for seed in range(4):
            s = table1_scenario(seed=6500 + seed, n=(4, 10)[seed % 2], bb_mode=mode)
            d = solver.fpi_solve(s).profile.d_gen
            for offset in (-0.3, 0.3):
                _assert_certified_like_the_scan(s, d + offset)

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_profiles_off_the_lattice(self, mode):
        for seed in range(6):
            s = table1_scenario(seed=6300 + seed, n=(2, 4, 10)[seed % 3],
                                cost_scale=(1e-6, 1.0, 5.0)[seed // 2], bb_mode=mode)
            lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
            for p in (random_profile(s, 6400 + seed), np.full(s.n, lo - 0.5),
                      np.full(s.n, hi + 0.5)):
                _assert_certified_like_the_scan(s, p)

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_null_deviation_gains_exactly_zero(self, mode):
        s = table1_scenario(seed=56, bb_mode=mode)
        d = np.floor(random_profile(s, 57))
        xs = np.arange(s.bounds.d_min, s.bounds.d_max + 1, dtype=np.float64)
        for n, gains in enumerate(reference_deviation_gains(s, d, xs)):
            null = gains[xs == d[n]]
            assert null.tolist() == [0.0]
            assert math.copysign(1.0, null[0]) == 1.0

    def test_gains_below_rounding_at_the_neighbours_are_searched(self):
        # Where a neighbour's global-error change rounds to 0, its gain is
        # exactly -c_n, so the neighbours alone show no rising side: a 2^40
        # box with generation 1e12 times cheaper, at the all-2^38 profile,
        # where organization 1's best move, about 1.3e11 samples up, gains
        # more than 0, although the upper end gains less than 0.
        s = table1_scenario(seed=1, n=3, d_max=2**40)
        s = replace(s, eta=s.eta * 1e-12, mu=s.mu * 1e-12)
        p = np.full(s.n, 2.0**38)
        want_x, want_g, want_ne = reference_probe_deviations(s, p)
        alts, gains = solver._best_deviations(s, p)
        bounds = 1e-12 * (1.0 + np.abs(eco.evaluate_profiles(s, p[None, :]).utility[0]))
        assert not want_ne and not solver.verify_ne(s, p).is_ne
        assert np.all(gains >= want_g - bounds)
        for n, x in enumerate(alts):
            priced = list(reference_deviation_gains(s, p, np.array([x])))[n][0]
            assert abs(priced - gains[n]) <= bounds[n], n
        top = list(reference_deviation_gains(s, p, np.array([s.bounds.d_max])))
        assert all(g[0] < 0 for g in top)
        assert solver.verify_ne(s, p).worst_org == int(np.argmax(want_g)) == 1

    def test_exact_equilibrium_reports_the_null_deviation(self):
        s = table1_scenario(seed=58)
        d = solver.fpi_solve(s).profile.d_gen
        cert = solver.verify_ne(s, d)
        assert (cert.is_ne, cert.worst_org, cert.worst_d_alt) == (True, 0, d[0])
        assert cert.worst_gain == 0.0 and math.copysign(1.0, cert.worst_gain) == 1.0
