import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cocogen.errors import InvariantViolation, ScenarioValidationError
from cocogen.model import (
    ORG_COLUMNS,
    EconomyParams,
    StrategyBounds,
    scenario_from_dict,
    scenario_to_dict,
)
from cocogen.scaling import heterogeneity_presets
from cocogen.scenario import (
    MAX_SWEEP_JOBS,
    FAMILY,
    GammaLevel,
    OrgDefaults,
    SweepCell,
    SweepGrid,
    default_sweep_grid,
    expand_sweep,
    family_stream,
    sample_scenario,
    stable_job_hash,
    sweep_from_dict,
)

from helpers import reference_sample_scenario


def mid_cell():
    return SweepCell(
        gamma=GammaLevel(0.0, 1.0), alpha_d=0.5, law=heterogeneity_presets()[0.5]
    )


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        grid = default_sweep_grid()
        a = sample_scenario(grid, mid_cell(), seed=4242)
        b = sample_scenario(grid, mid_cell(), seed=4242)
        assert json.dumps(scenario_to_dict(a), sort_keys=True) == json.dumps(
            scenario_to_dict(b), sort_keys=True
        )
        c = sample_scenario(grid, mid_cell(), seed=4243)
        assert not np.array_equal(c.market.gamma, a.market.gamma)

    def test_all_draws_within_declared_ranges(self):
        grid = default_sweep_grid()
        for seed in range(8):
            s = sample_scenario(grid, mid_cell(), seed=seed)
            assert s.n == 10
            assert np.all((2e-18 <= s.kappa) & (s.kappa <= 5e-18))
            assert np.all((1000 <= s.d_loc) & (s.d_loc <= 3000))
            assert np.array_equal(s.d_loc, np.round(s.d_loc))
            assert np.all((1.0 <= s.f) & (s.f <= 2.0))
            assert np.all((600.0 <= s.psi) & (s.psi <= 900.0))
            assert np.all((s.market.phi >= 200.0) & (s.market.phi <= 300.0))
            off = ~np.eye(10, dtype=bool)
            assert np.all((s.market.gamma[off] >= 0.0) & (s.market.gamma[off] <= 1.0))
            assert np.all(np.diagonal(s.market.gamma) == 0.0)
            assert s.market.xi == 20.0

    def test_realized_gamma_mean_tracks_the_range(self):
        grid = default_sweep_grid()
        cell = SweepCell(
            gamma=GammaLevel(0.0, 0.5), alpha_d=0.5, law=heterogeneity_presets()[0.5]
        )
        means = []
        for seed in range(40):
            s = sample_scenario(grid, cell, seed=seed)
            off = ~np.eye(10, dtype=bool)
            means.append(float(np.mean(s.market.gamma[off])))
        assert np.mean(means) == pytest.approx(0.25, abs=0.01)

    def test_every_preset_scenario_equals_the_reference_sampler(self):
        grid = default_sweep_grid()
        jobs = expand_sweep(grid)
        assert len(jobs) == 900
        for job in jobs:
            s = sample_scenario(grid, job.cell, job.seed)
            ref = reference_sample_scenario(grid, job.cell, job.seed)
            for name in ORG_COLUMNS:
                assert getattr(s, name).tobytes() == getattr(ref, name).tobytes(), name
            assert s.market.gamma.tobytes() == ref.market.gamma.tobytes()
            assert s.market.phi.tobytes() == ref.market.phi.tobytes()
            assert s.market.xi == ref.market.xi
            assert (s.economy, s.bounds, s.seed) == (ref.economy, ref.bounds, ref.seed)

    @pytest.mark.parametrize("seed", [0, 4242, 2**64 - 1])
    def test_each_column_is_its_own_family_stream(self, seed):
        # One generator is re-keyed per family; each column must still be
        # the first draws of a fresh stream for (seed, family).
        grid, cell = default_sweep_grid(), mid_cell()
        s = sample_scenario(grid, cell, seed)
        n = grid.n_orgs
        gamma = family_stream(seed, FAMILY.GAMMA).uniform(cell.gamma.lo, cell.gamma.hi, (n, n))
        np.fill_diagonal(gamma, 0.0)
        expected = {
            "kappa": family_stream(seed, FAMILY.KAPPA).uniform(2e-18, 5e-18, size=n),
            "d_loc": family_stream(seed, FAMILY.D_LOC).integers(1000, 3000, n, endpoint=True),
            "phi": family_stream(seed, FAMILY.PHI).uniform(2e2, 3e2, size=n),
            "psi": family_stream(seed, FAMILY.PSI).uniform(6e2, 9e2, size=n),
            "f": family_stream(seed, FAMILY.FREQ).uniform(1.0, 2.0, size=n),
            "gamma": gamma,
        }
        got = {"kappa": s.kappa, "d_loc": s.d_loc, "phi": s.market.phi, "psi": s.psi,
               "f": s.f, "gamma": s.market.gamma}
        for name, want in expected.items():
            assert np.array_equal(got[name], want), name

    def test_every_sample_validates(self):
        grid = default_sweep_grid()
        for job in expand_sweep(grid)[:6]:
            sample_scenario(grid, job.cell, job.seed)  # raises on violation


class TestExpandSweep:
    def test_job_count_is_cartesian_product(self):
        grid = default_sweep_grid()
        jobs = expand_sweep(grid)
        assert len(jobs) == 3 * 3 * grid.repetitions

    def test_seeds_have_no_collisions(self):
        jobs = expand_sweep(default_sweep_grid())
        seeds = [j.seed for j in jobs]
        assert len(set(seeds)) == len(seeds)

    def test_single_cell_grid_shares_the_cell(self):
        grid = SweepGrid(
            gamma_levels=(GammaLevel(0.0, 0.5),),
            alpha_d_levels=(0.9,),
            repetitions=5,
            base_seed=1,
        )
        jobs = expand_sweep(grid)
        assert len(jobs) == 5
        assert all(j.cell == jobs[0].cell for j in jobs)
        assert [j.repetition for j in jobs] == list(range(5))

    def test_job_seeds_do_not_depend_on_grid_order(self):
        lo_hi = GammaLevel(0.0, 0.5)
        hi_lo = GammaLevel(0.5, 1.0)
        g1 = SweepGrid(
            gamma_levels=(lo_hi, hi_lo), alpha_d_levels=(0.1, 0.9), repetitions=2, base_seed=9
        )
        g2 = SweepGrid(
            gamma_levels=(hi_lo, lo_hi), alpha_d_levels=(0.9, 0.1), repetitions=2, base_seed=9
        )
        seeds1 = {(j.cell.gamma, j.cell.alpha_d, j.repetition): j.seed for j in expand_sweep(g1)}
        seeds2 = {(j.cell.gamma, j.cell.alpha_d, j.repetition): j.seed for j in expand_sweep(g2)}
        assert seeds1 == seeds2

    def test_unknown_alpha_level_is_rejected(self):
        grid = SweepGrid(
            gamma_levels=(GammaLevel(0.0, 0.5),),
            alpha_d_levels=(0.42,),
            repetitions=1,
            base_seed=1,
        )
        with pytest.raises(InvariantViolation):
            expand_sweep(grid)


class TestStableHash:
    def test_frozen_reference_values(self):
        # Pinned outputs of the splitmix64-based cell hash; a change here
        # breaks reproducibility of every published sweep.
        assert stable_job_hash(0.0, 0.5, 0.1, 0) == 14823537875962057062
        assert stable_job_hash(0.0, 0.5, 0.1, 1) == 778376236869374299
        assert stable_job_hash(0.5, 1.0, 0.9, 99) == 18231289912366460962

    def test_distinct_cells_hash_apart(self):
        seen = {
            stable_job_hash(lo, hi, ad, rep)
            for (lo, hi) in ((0.0, 0.5), (0.0, 1.0), (0.5, 1.0))
            for ad in (0.1, 0.5, 0.9)
            for rep in range(50)
        }
        assert len(seen) == 3 * 3 * 50


class TestSweepConfig:
    _MINIMAL = {
        "gamma_levels": [{"lo": 0, "hi": 1}],
        "alpha_d_levels": [0.5],
        "repetitions": 1,
        "base_seed": 0,
    }

    def test_empty_blocks_parse_to_the_dataclass_defaults(self):
        grid = sweep_from_dict({**self._MINIMAL, "org_defaults": {}, "economy": {}, "bounds": {}})
        assert grid.org_defaults == OrgDefaults()
        assert grid.economy == EconomyParams()
        assert grid.bounds == StrategyBounds()
        s = scenario_to_dict(sample_scenario(grid, expand_sweep(grid)[0].cell, 1))
        s["economy"], s["bounds"] = {}, {}
        parsed = scenario_from_dict(s)
        assert parsed.economy == EconomyParams() and parsed.bounds == StrategyBounds()

    def test_minimal_file_parses_to_the_grid_defaults(self):
        assert sweep_from_dict(self._MINIMAL) == SweepGrid(
            gamma_levels=(GammaLevel(0.0, 1.0),), alpha_d_levels=(0.5,), repetitions=1, base_seed=0
        )

    def test_fixed_blocks_are_checked_at_construction(self):
        with pytest.raises(ScenarioValidationError) as exc:
            sweep_from_dict({**self._MINIMAL, "xi": -1.0, "org_defaults": {"mu": math.nan}})
        assert [str(v) for v in exc.value.violations] == [
            "xi: must be >= 0", "org_defaults.mu: must be finite"
        ]

    def test_draw_dependent_checks_stay_with_each_job(self):
        # xi above every phi draw passes at load and fails the job's scenario.
        grid = sweep_from_dict({**self._MINIMAL, "xi": 1e3})
        with pytest.raises(ScenarioValidationError) as exc:
            sample_scenario(grid, expand_sweep(grid)[0].cell, 1)
        assert [v.field for v in exc.value.violations] == ["market.xi"]

    def test_default_grid_matches_shipped_file(self):
        grid = default_sweep_grid()
        assert grid.repetitions == 100
        assert grid.n_orgs == 10
        assert grid.economy.eps0_value == 1.0
        assert grid.bounds.d_max == 3000

    def test_strict_keys(self):
        with pytest.raises(InvariantViolation):
            sweep_from_dict(
                {
                    "gamma_levels": [{"lo": 0, "hi": 1}],
                    "alpha_d_levels": [0.5],
                    "repetitions": 1,
                    "base_seed": 0,
                    "bogus": True,
                }
            )

    @pytest.mark.parametrize(
        "key, value",
        [("repetitions", 2.5), ("base_seed", True), ("n_orgs", "10"), ("radg_repetitions", 1e2 + 0.5)],
    )
    def test_integer_fields_reject_non_integers(self, key, value):
        payload = {
            "gamma_levels": [{"lo": 0, "hi": 1}],
            "alpha_d_levels": [0.5],
            "repetitions": 1,
            "base_seed": 0,
        }
        assert sweep_from_dict(payload).repetitions == 1
        payload[key] = value
        with pytest.raises(InvariantViolation) as exc:
            sweep_from_dict(payload)
        assert exc.value.field == key

    @pytest.mark.parametrize(
        "key, field",
        [
            ("gamma_levels", "sweep"),
            ("alpha_d_levels", "sweep"),
            ("repetitions", "sweep"),
            ("base_seed", "sweep"),
            ("hi", "gamma_levels[0]"),
        ],
    )
    def test_missing_keys_are_named_with_their_block(self, key, field):
        payload = {
            "gamma_levels": [{"lo": 0, "hi": 1}],
            "alpha_d_levels": [0.5],
            "repetitions": 1,
            "base_seed": 0,
        }
        (payload["gamma_levels"][0] if field != "sweep" else payload).pop(key)
        with pytest.raises(InvariantViolation) as exc:
            sweep_from_dict(payload)
        assert str(exc.value) == f"{field}: missing required key {key!r}"

    def test_base_seed_must_fit_in_64_unsigned_bits(self):
        grid = default_sweep_grid()
        assert replace(grid, base_seed=2**64 - 1).base_seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(InvariantViolation) as exc:
                replace(grid, base_seed=seed)
            assert str(exc.value) == "base_seed: must fit in 64 unsigned bits"

    @pytest.mark.parametrize("count", [0, -1])
    def test_radg_repetitions_below_one_are_rejected(self, count):
        with pytest.raises(InvariantViolation) as exc:
            replace(default_sweep_grid(), radg_repetitions=count)
        assert str(exc.value) == "radg_repetitions: must be >= 1"

    def test_job_count_is_capped(self):
        grid = default_sweep_grid()
        # One level on each axis, so the job count is the repetition count.
        at_cap = replace(grid, gamma_levels=grid.gamma_levels[:1], alpha_d_levels=(0.5,),
                         repetitions=MAX_SWEEP_JOBS)
        with pytest.raises(InvariantViolation) as exc:
            replace(at_cap, repetitions=MAX_SWEEP_JOBS + 1)
        assert exc.value.field == "repetitions"
