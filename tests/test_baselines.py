import numpy as np
import pytest

from cocogen import baselines, economics as eco, game, solver
from cocogen.errors import NonNegativeZWeight, ScenarioValidationError
from cocogen.model import ORG_COLUMNS, ScalingLaw, StrategyProfile, validate_scenario
from cocogen.scenario import FAMILY, family_stream

from helpers import build_scenario, table1_scenario


class TestVcfl:
    def test_profile_sits_at_lower_bound(self):
        s = table1_scenario(seed=61)
        p = baselines.vcfl_profile(s)
        assert np.all(p.d_gen == s.bounds.d_min)
        assert p.within(s.bounds)

    def test_welfare_uses_full_economics(self):
        s = table1_scenario(seed=62)
        p = baselines.vcfl_profile(s)
        ev = eco.evaluate_profile(s, p)
        batch = eco.evaluate_profiles(s, p.d_gen[None])
        assert ev.welfare == pytest.approx(batch.welfare[0], rel=1e-12)

    def test_zero_floor_leaves_local_data_only(self):
        s = table1_scenario(seed=63, d_min=0)
        p = baselines.vcfl_profile(s)
        errs = eco.local_errors(s, p)
        for n in range(s.n):
            law = ScalingLaw(s.alpha[n], s.beta[n], s.delta[n])
            assert errs[n] == law.error_at(s.d_loc[n])


class TestWco:
    def test_zero_competition_scenario_is_idempotent(self):
        s = table1_scenario(seed=64, gamma_range=(0.0, 0.0))
        out = baselines.wco_solve(s)
        direct = solver.fpi_solve(s)
        assert np.array_equal(out.profile.d_gen, direct.profile.d_gen)
        welfare = eco.evaluate_profile(s, out.profile).welfare
        assert welfare == pytest.approx(direct.welfare, rel=1e-12)

    def test_clone_weights_reduce_to_valuation(self):
        s = table1_scenario(seed=65)
        clone = baselines.wco_scenario(s)
        for n in range(s.n):
            assert game.z_weight(clone, n) == -s.psi[n]

    def test_clone_rejects_an_organization_without_a_stake(self):
        # Competition alone makes organization 0's weight negative; its clone
        # has z_0 = -psi_0 = 0.
        s = build_scenario(n=2, psi=[0.0, 700.0])
        assert game.z_weight(s, 0) < 0
        with pytest.raises(ScenarioValidationError) as exc:
            baselines.wco_scenario(s)
        assert [(type(v), v.org, v.value) for v in exc.value.violations] == [
            (NonNegativeZWeight, 0, 0.0)
        ]
        with pytest.raises(ScenarioValidationError):
            baselines.wco_solve(s)

    def test_clone_is_validated_and_shares_the_columns(self):
        s = table1_scenario(seed=69)
        clone = baselines.wco_scenario(s)
        assert validate_scenario(clone) is clone
        assert all(getattr(clone, name) is getattr(s, name) for name in ORG_COLUMNS)
        assert not clone.market.gamma.any()

    def test_clone_passes_validation_and_generates_less(self):
        s = table1_scenario(seed=66)
        out = baselines.wco_solve(s)
        rep = solver.fpi_solve(s)
        assert out.converged
        assert float(np.mean(out.profile.d_gen)) < float(np.mean(rep.profile.d_gen))

    def test_report_is_the_clone_solve_priced_on_the_clone(self):
        s = table1_scenario(seed=73)
        out = baselines.wco_solve(s)
        clone = baselines.wco_scenario(s)
        direct = solver.fpi_solve(clone)
        assert np.array_equal(out.profile.d_gen, direct.profile.d_gen)
        assert (out.cases, out.potential_trace) == (direct.cases, direct.potential_trace)
        assert out.welfare == eco.evaluate_profile(clone, out.profile).welfare

    def test_original_market_welfare_is_the_comparison_number(self):
        s = table1_scenario(seed=67)
        out = baselines.wco_solve(s)
        rep = solver.fpi_solve(s)
        assert eco.evaluate_profile(s, out.profile).welfare <= rep.welfare


class TestRadg:
    def test_degenerate_bounds_give_constant_profile(self):
        s = build_scenario(n=3, d_min=1200, d_max=1200)
        assert np.all(baselines.radg_profiles(s, seed=5, count=1) == 1200.0)

    def test_same_seed_reproduces(self):
        s = table1_scenario(seed=68)
        a = baselines.radg_profiles(s, seed=99, count=1)
        b = baselines.radg_profiles(s, seed=99, count=1)
        assert np.array_equal(a, b)
        c = baselines.radg_profiles(s, seed=100, count=1)
        assert not np.array_equal(a, c)

    def test_profiles_are_integers_within_bounds(self):
        s = table1_scenario(seed=69)
        draws = baselines.radg_profiles(s, seed=7, count=20)
        assert draws.shape == (20, s.n) and draws.dtype == np.float64
        for row in draws:
            assert StrategyProfile(row).within(s.bounds)
            assert np.all(row == np.round(row))

    def test_first_draw_matches_single_profile(self):
        s = table1_scenario(seed=70)
        assert np.array_equal(
            baselines.radg_profiles(s, seed=8, count=5)[0],
            baselines.radg_profiles(s, seed=8, count=1)[0],
        )

    def test_draws_follow_the_radg_family_stream(self):
        s = table1_scenario(seed=72)
        stream = family_stream(9, FAMILY.RADG)
        expected = stream.integers(s.bounds.d_min, s.bounds.d_max, size=(50, s.n), endpoint=True)
        assert np.array_equal(baselines.radg_profiles(s, seed=9, count=50), expected)

    def test_mean_welfare_below_equilibrium(self):
        s = table1_scenario(seed=71)
        rep = solver.fpi_solve(s)
        ws = [
            eco.evaluate_profile(s, p).welfare
            for p in baselines.radg_profiles(s, s.seed, 100)
        ]
        assert float(np.mean(ws)) < rep.welfare
