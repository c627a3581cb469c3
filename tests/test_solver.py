import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocogen import economics as eco
from cocogen import game, solver
from cocogen.errors import InstanceTooLarge, ScenarioValidationError
from cocogen.model import Market, PayoffMode, StrategyProfile, scenario_from_dict
from cocogen.scenario import default_sweep_grid, expand_sweep, sample_scenario
from cocogen.solver import CaseLabel, SolverConfig

from helpers import (
    _ref_case_label,
    _ref_stationary_point,
    assert_lattice_equilibrium,
    build_scenario,
    org_row,
    random_profile,
    reference_fpi_solve,
    reference_root_solve,
    reference_ne_gains,
    reference_unilateral_utilities,
    table1_scenario,
)


class TestStationarityConstants:
    def test_single_org_plug_in(self):
        s = build_scenario(n=1, alpha=1.0, beta=1.0, delta=0.0, d_loc=100, gamma=[[0.0]])
        c = game._stationarity(s)
        assert float(eco.local_errors(s, [0.0]).mean()) == pytest.approx(0.01, rel=1e-15)
        assert (c.d_loc[0] + 0.0) ** c.benefit_exponent[0] == pytest.approx(1e-4, rel=1e-12)

    def test_a2_is_always_negative(self):
        s = table1_scenario(seed=31)
        assert all(a2 < 0 for a2 in game._stationarity(s).a2)

    def test_matches_independent_recomputation(self):
        s = table1_scenario(seed=32)
        c = game._stationarity(s)
        for n in range(s.n):
            org = org_row(s, n)
            a2 = (
                org.kappa * org.c_cmp * (org.eta + org.mu) * org.f**2
                / game.z_weight(s, n)
            )
            benefit = org.alpha * org.beta / (s.n * s.economy.varrho)
            assert c.a2[n] == pytest.approx(a2, rel=1e-14)
            assert c.benefit[n] == pytest.approx(benefit, rel=1e-14)
            assert c.benefit_exponent[n] == pytest.approx(-org.beta - 1.0, rel=1e-14)


def _mean_local_error(s, d):
    return float(eco.local_errors(s, d).mean())


class TestStationaryPoints:
    def test_matches_independent_formula(self):
        s = table1_scenario(seed=37)
        c = game._stationarity(s)
        for seed in range(3):
            a1 = _mean_local_error(s, random_profile(s, seed))
            got = solver._stationary_points(c, a1)
            for n in range(s.n):
                want = _ref_stationary_point(s, n, a1, c.a2[n])
                assert got[n] == pytest.approx(want, rel=1e-12)

    def test_interior_equilibrium_is_its_own_stationary_point(self):
        s = table1_scenario(seed=36, n=3, cost_scale=4.0)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-14, max_iters=5000))
        d = rep.profile.d_gen
        d_star = solver._stationary_points(game._stationarity(s), _mean_local_error(s, d))
        assert CaseLabel.INTERIOR in rep.cases
        for n in range(s.n):
            if rep.cases[n] == CaseLabel.INTERIOR:
                # restoration rounds to integers, so allow the half-sample gap
                assert d_star[n] == pytest.approx(d[n], abs=0.51)

    def test_symmetric_orgs_share_one_stationary_point(self):
        s = build_scenario(n=3)
        d_star = solver._stationary_points(
            game._stationarity(s), _mean_local_error(s, np.full(3, 900.0))
        )
        assert len(set(d_star)) == 1

    @pytest.mark.filterwarnings("error")
    def test_saturates_without_warnings(self):
        s = table1_scenario(seed=37)
        c = game._stationarity(s)
        # growth underflows to 0: the point tends to -d_loc, below the box
        assert np.array_equal(solver._stationary_points(c, -1e6), -s.d_loc)
        # growth overflows to inf: the point lies above every volume
        assert np.all(solver._stationary_points(c, 1e6) == np.inf)
        # a subnormal bracket whose power overflows (beta near 0)
        flat = game._stationarity(build_scenario(n=2, beta=0.001))
        a1 = 1.0 + flat.varrho * math.log(1e308)
        assert 0 < flat.factor[0] / game._growth(flat, a1) < 1e-300
        assert np.all(solver._stationary_points(flat, a1) == np.inf)
        assert solver._labels(c, -1e6) == (CaseLabel.LOWER_BOUND,) * s.n
        assert solver._labels(c, 1e6) == (CaseLabel.UPPER_BOUND,) * s.n


class TestScalarStationarityGate:
    """Every preset sweep job and its zero-competition clone, solved at the
    default config, lands on exactly the integer profile and case labels of
    the root solve and descent on the scalar stationarity path as first
    written (``tests/helpers.reference_root_solve``)."""

    def test_sweep_preset_and_wco_clones(self):
        from cocogen import baselines

        grid = default_sweep_grid()
        solved = 0
        for job in expand_sweep(grid):
            s = sample_scenario(grid, job.cell, job.seed)
            for x in (s, baselines.wco_scenario(s)):
                rep = solver.fpi_solve(x)
                want_d, want_cases = reference_root_solve(x)
                assert np.array_equal(rep.profile.d_gen, want_d), job
                assert rep.cases == want_cases, job
                solved += 1
        assert solved == 1800


class TestGradientLabels:
    """``solver._labels`` at the mean local error of arbitrary profiles, not
    only at the solver's root."""

    def test_dominating_cost_pins_to_lower_bound(self):
        s = table1_scenario(seed=33, cost_scale=1e6)
        a1 = _mean_local_error(s, np.full(s.n, 500.0))
        assert solver._labels(game._stationarity(s), a1) == (CaseLabel.LOWER_BOUND,) * s.n

    def test_vanishing_cost_pins_to_upper_bound(self):
        s = table1_scenario(seed=34, cost_scale=1e-6)
        a1 = _mean_local_error(s, np.full(s.n, 500.0))
        assert solver._labels(game._stationarity(s), a1) == (CaseLabel.UPPER_BOUND,) * s.n

    def test_matches_reference_rule_off_equilibrium(self):
        seen = set()
        for seed, cost_scale in ((38, 1.0), (39, 4.0), (40, 0.05)):
            s = table1_scenario(seed=seed, cost_scale=cost_scale)
            c = game._stationarity(s)
            for k in range(3):
                p = random_profile(s, k)
                got = solver._labels(c, _mean_local_error(s, p))
                assert got == tuple(_ref_case_label(s, p, n) for n in range(s.n))
                seen.update(got)
        assert len(seen) >= 2  # the draws exercise more than one label


class TestSolverConfig:
    def test_fields_are_tol_and_max_iters(self):
        assert [f.name for f in fields(SolverConfig)] == ["tol", "max_iters"]

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan}, {"max_iters": 0}],
    )
    def test_rejects_unusable_settings(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)


class TestFpiSolve:
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

    def test_invalid_scenario_raises(self):
        s = build_scenario(n=2, validate=False, xi=1e9)
        with pytest.raises(ScenarioValidationError):
            solver.fpi_solve(s)

    def test_report_carries_constraint_verdicts(self):
        s = table1_scenario(seed=42)
        rep = solver.fpi_solve(s)
        assert len(rep.ir) == s.n
        assert set(rep.bb) == {"sum", "balanced"}
        assert rep.welfare == pytest.approx(
            sum(u.utility for u in rep.utilities), rel=1e-12
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
        grad = game.potential_gradient(s, rep.profile.d_gen)
        scale = float(np.max(np.abs(grad)))
        for n in range(s.n):
            if rep.cases[n] == CaseLabel.INTERIOR:
                # integer restoration leaves at most a half-sample offset
                curv = abs(
                    game.potential_gradient(s, rep.profile.replaced(n, rep.profile.d_gen[n] + 1.0).d_gen)[n]
                    - grad[n]
                )
                assert abs(grad[n]) <= max(1e-6 * scale, 0.75 * curv)
            elif rep.cases[n] == CaseLabel.LOWER_BOUND:
                assert grad[n] >= -1e-12
            else:
                assert grad[n] <= 1e-12

    def test_moderate_cost_interior_confirmed_by_oracle(self):
        s = table1_scenario(seed=35, n=2, cost_scale=4.0, d_max=2000)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-13, max_iters=2000))
        assert all(c == CaseLabel.INTERIOR for c in rep.cases)
        res = solver.grid_oracle(s, step=1.0)
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
        assert all(math.isfinite(u.utility) for u in rep.utilities)
        assert_lattice_equilibrium(s, rep.profile.d_gen)


class TestLazyPricing:
    def test_priced_fields_equal_a_direct_evaluation(self):
        s = table1_scenario(seed=41)
        rep = solver.fpi_solve(s)
        ev = eco.evaluate_profile(s, rep.profile)
        assert rep.welfare == ev.welfare
        assert rep.utilities == ev.utilities
        assert rep.ir == ev.ir
        assert rep.bb == {"sum": ev.bb_sum, "balanced": ev.bb_balanced}
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
        assert out["utilities"] == [u.to_dict() for u in ev.utilities]
        assert out["welfare"] == ev.welfare
        assert out["ir"] == list(ev.ir)
        assert out["bb"] == {"sum": ev.bb_sum, "balanced": ev.bb_balanced}
        assert (out["iterations"], out["converged"]) == (rep.iterations, True)
        cert = solver.verify_ne(s, rep.profile)
        certified = replace(rep, ne_certificate=cert).to_dict()
        assert certified == {**out, "ne_certificate": cert.to_dict()}

    def test_reports_differing_only_in_scenario_compare_equal(self):
        s = table1_scenario(seed=42)
        rep = solver.fpi_solve(s)
        other = replace(rep, scenario=table1_scenario(seed=43))
        assert other == rep
        assert other.welfare != rep.welfare
        assert "scenario" not in repr(rep)


def assert_same_equilibrium(s, cfg, init="all_min"):
    """The solver and the Jacobi reference started from ``init`` agree on
    the integer profile and the case labels at ``cfg``, and the profile
    passes the ±1 lattice check."""
    got = solver.fpi_solve(s, cfg)
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
        from cocogen import baselines

        grid = default_sweep_grid()
        cfg = SolverConfig(tol=1e-14)
        for job in expand_sweep(grid)[:: grid.repetitions // 4]:
            s = sample_scenario(grid, job.cell, job.seed)
            assert_same_equilibrium(s, cfg)
            assert_same_equilibrium(baselines.wco_scenario(s), cfg)


class TestGridOracle:
    def test_single_org_matches_closed_form(self):
        s = table1_scenario(seed=46, n=1, cost_scale=10.0, gamma_range=(0.0, 0.0), d_max=3000)
        res = solver.grid_oracle(s, step=1.0)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-14, max_iters=4000))
        assert abs(res.profile.d_gen[0] - rep.profile.d_gen[0]) <= 1.0

    def test_cost_dominated_instance_sits_at_floor(self):
        s = table1_scenario(seed=47, n=2, cost_scale=1e6)
        res = solver.grid_oracle(s, step=1.0)
        assert np.all(res.profile.d_gen == s.bounds.d_min)

    def test_two_org_symmetric_matches_grid_argmin(self):
        s = build_scenario(n=2, alpha=21.2, beta=0.52, delta=0.12, d_loc=1500, d_max=3000)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-13, max_iters=3000))
        res = solver.grid_oracle(s, step=1.0)
        assert np.all(np.abs(rep.profile.d_gen - res.profile.d_gen) <= 1.0)

    def test_symmetric_two_org_argmin_is_symmetric(self):
        s = build_scenario(n=2, alpha=21.2, beta=0.52, delta=0.12, d_loc=1500)
        res = solver.grid_oracle(s, step=1.0)
        assert res.profile.d_gen[0] == res.profile.d_gen[1]

    def test_guards(self):
        with pytest.raises(InstanceTooLarge):
            solver.grid_oracle(table1_scenario(seed=48, n=4), step=1.0)
        with pytest.raises(InstanceTooLarge):
            solver.grid_oracle(table1_scenario(seed=49, n=2), step=0.5)

    @pytest.mark.parametrize("n_orgs", [1, 2, 3])
    def test_oracle_agreement_random_instances(self, n_orgs):
        for seed in range(6):
            scale = [0.6, 2.0, 6.0][seed % 3]
            s = table1_scenario(seed=500 + 10 * n_orgs + seed, n=n_orgs, cost_scale=scale)
            rep = solver.fpi_solve(s, SolverConfig(tol=1e-13, max_iters=4000))
            res = solver.grid_oracle(s, step=1.0)
            assert rep.converged
            f_fpi = game.potential(s, rep.profile)
            assert abs(f_fpi - res.f_min) <= 1e-6 * (1 + abs(res.f_min))
            assert np.all(np.abs(rep.profile.d_gen - res.profile.d_gen) <= 1.0)


class TestVerifyNe:
    def test_solver_output_is_certified(self):
        s = table1_scenario(seed=50)
        rep = solver.fpi_solve(s, SolverConfig(tol=1e-11, max_iters=1000))
        cert = solver.verify_ne(s, rep.profile, grid_step=1.0)
        assert cert.is_ne

    def test_floor_profile_fails_when_cost_is_free(self):
        s = table1_scenario(seed=51, cost_scale=1e-6)
        cert = solver.verify_ne(s, np.zeros(s.n), grid_step=1.0)
        assert not cert.is_ne
        assert cert.worst_gain > 0
        assert cert.worst_d_alt > 0  # upper-direction witness

    def test_huge_box_is_refused_before_any_allocation(self):
        s = table1_scenario(seed=55, d_max=2**40)
        with pytest.raises(InstanceTooLarge, match="bounds.d_max"):
            solver.verify_ne(s, np.zeros(s.n), grid_step=1.0)

    def test_single_org_ne_iff_potential_coordinate_minimal(self):
        s = table1_scenario(seed=52, n=1, cost_scale=5.0, gamma_range=(0.0, 0.0))
        res = solver.grid_oracle(s, step=1.0)
        assert solver.verify_ne(s, res.profile, grid_step=1.0).is_ne
        off = StrategyProfile(res.profile.d_gen + 200.0)
        assert not solver.verify_ne(s, off, grid_step=1.0).is_ne

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
                for n, gains in enumerate(solver._deviation_gains(s, p, xs)):
                    bound = 1e-12 * (1.0 + abs(utilities[n]))
                    assert np.max(np.abs(gains - expected[n])) <= bound, (seed, n)
                assert solver.verify_ne(s, p).is_ne == is_ne, seed
                verdicts.add(is_ne)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_null_deviation_gains_exactly_zero(self, mode):
        s = table1_scenario(seed=56, bb_mode=mode)
        d = np.floor(random_profile(s, 57))
        xs = np.arange(s.bounds.d_min, s.bounds.d_max + 1, dtype=np.float64)
        for n, gains in enumerate(solver._deviation_gains(s, d, xs)):
            null = gains[xs == d[n]]
            assert null.tolist() == [0.0]
            assert math.copysign(1.0, null[0]) == 1.0

    def test_exact_equilibrium_reports_the_null_deviation(self):
        s = table1_scenario(seed=58)
        d = solver.fpi_solve(s).profile.d_gen
        cert = solver.verify_ne(s, d)
        assert (cert.is_ne, cert.worst_org, cert.worst_d_alt) == (True, 0, d[0])
        assert cert.worst_gain == 0.0 and math.copysign(1.0, cert.worst_gain) == 1.0
