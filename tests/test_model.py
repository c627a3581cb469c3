import argparse
import json
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cocogen import cli, game, solver
from cocogen import economics as eco
from cocogen.errors import (
    CocogenError,
    DimensionMismatch,
    InvariantViolation,
    NonNegativeZWeight,
    ScenarioValidationError,
    UnwritableOutput,
    ZeroTotalData,
)
from cocogen.model import (
    ORG_COLUMNS,
    Eps0Mode,
    Market,
    PayoffMode,
    ScalingLaw,
    Scenario,
    json_text,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from cocogen.scenario import (
    GammaLevel, SweepCell, default_sweep_grid, expand_sweep, sample_scenario,
)
from cocogen.scaling import heterogeneity_presets

from helpers import (
    build_scenario, random_profile, reference_wco_scenario, table1_scenario, with_payoff_mode,
)


class TestScalingLaw:
    def test_constructor_enforces_invariants(self):
        with pytest.raises(InvariantViolation):
            ScalingLaw(alpha=0.0, beta=1.0)
        with pytest.raises(InvariantViolation):
            ScalingLaw(alpha=1.0, beta=0.0)
        with pytest.raises(InvariantViolation):
            ScalingLaw(alpha=1.0, beta=1.0, delta=-0.1)


class TestErrorLaw:
    """The one error law, ``economics.local_errors``, of one organization
    holding ``d`` local samples, at generated volumes 0 and ``step``."""

    def test_zero_total_data_raises(self):
        s = build_scenario(n=1, d_loc=1500)
        with pytest.raises(ZeroTotalData):
            eco.local_errors(s, [-1500.0])

    # Without an offset one more sample lowers the error by a relative
    # beta / d >= 5e-8, far above one ulp; with one, the drop can be below
    # one ulp of delta, so the float64 error is only non-increasing.
    @given(
        alpha=st.floats(0.1, 50),
        beta=st.floats(0.05, 2.0),
        d=st.integers(1, 10**6),
        step=st.integers(1, 10**4),
    )
    @example(alpha=0.5, beta=1.90625, d=399948, step=1)
    def test_error_strictly_decreasing(self, alpha, beta, d, step):
        s = build_scenario(n=1, alpha=alpha, beta=beta, d_loc=d)
        assert eco.local_errors(s, [0.0])[0] > eco.local_errors(s, [float(step)])[0]

    @given(
        alpha=st.floats(0.1, 50),
        beta=st.floats(0.05, 2.0),
        delta=st.floats(0, 0.5),
        d=st.integers(1, 10**6),
        step=st.integers(1, 10**4),
    )
    @example(alpha=0.5, beta=1.90625, delta=0.5, d=399948, step=1)
    def test_error_non_increasing_with_offset(self, alpha, beta, delta, d, step):
        s = build_scenario(n=1, alpha=alpha, beta=beta, delta=delta, d_loc=d)
        assert eco.local_errors(s, [0.0])[0] >= eco.local_errors(s, [float(step)])[0]


class TestValidation:
    def test_single_org_no_competition_is_valid(self):
        s = build_scenario(n=1, gamma=[[0.0]], xi=0.0, phi=250.0, psi=700.0)
        assert game.z_weights(s)[0] == -700.0

    def test_gamma_above_one_rejected(self):
        g = [[0.0, 1.2], [0.3, 0.0]]
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=2, gamma=g)
        assert any("gamma" in str(v) for v in exc.value.violations)

    def test_table1_sample_is_valid(self):
        grid = default_sweep_grid()
        cell = SweepCell(
            gamma=GammaLevel(0.0, 1.0), alpha_d=0.5, law=heterogeneity_presets()[0.5]
        )
        s = sample_scenario(grid, cell, seed=123)
        assert s.n == 10
        assert np.all(game.z_weights(s) < 0)

    def test_overflowing_generation_cost_names_each_organization(self):
        # eta * (d_loc + d_max) passes the float64 range, so pricing a
        # profile at d_max would give a cost of inf; at 5e304 the cost at
        # d_min (eta * d_loc) is still finite for every organization.
        from importlib import resources

        shipped = resources.files("cocogen").joinpath("data/scenario_example.json")
        payload = json.loads(shipped.read_text(encoding="utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in (1e306, 5e304):
                for org in payload["organizations"]:
                    org["eta"] = eta
                with pytest.raises(ScenarioValidationError) as exc:
                    scenario_from_dict(payload)
                assert [(v.field, v.detail) for v in exc.value.violations] == [
                    (f"organizations[{n}]", "generation cost at bounds.d_max overflows")
                    for n in range(len(payload["organizations"]))
                ]
            for org in payload["organizations"]:
                org["eta"] = 1e300  # a large cost that stays finite
            s = scenario_from_dict(payload)
        assert np.isfinite(eco.evaluate_profile(s, np.full(s.n, float(s.bounds.d_max))).cost).all()

    def test_revenue_weights_whose_sum_can_overflow_are_named(self):
        # Each revenue psi_n (eps0 - err) is at most psi_n max(eps0, err at
        # all-d_min) in size. The shipped example fixes eps0 at 1, above its
        # all-d_min global error of about 0.963: ten weights of 1.8e307 can
        # sum past the float64 range there, but not with eps0 at that error.
        from importlib import resources

        shipped = resources.files("cocogen").joinpath("data/scenario_example.json")
        payload = json.loads(shipped.read_text(encoding="utf-8"))
        for org in payload["organizations"]:
            org["psi"] = 1.8e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioValidationError) as exc:
                scenario_from_dict(payload)
            assert [(v.field, v.detail) for v in exc.value.violations] == [(
                "organizations[*].psi",
                "too large for these error laws: the sum of the revenues can overflow",
            )]
            payload["economy"]["eps0_mode"] = "at_zero_generation"
            s = scenario_from_dict(payload)
            lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
            ev = eco.evaluate_profiles(s, np.array([np.full(s.n, lo), np.full(s.n, hi)]))
        assert np.isfinite(ev.welfare).all()

    def test_loss_rates_whose_sum_can_overflow_are_named(self):
        # Each loss Phi_n (err - counterfactual) is at most Phi_n max(eps0,
        # err at all-d_min) in size, with Phi_n = sum_m phi_m gamma_nm. The
        # shipped example's gamma sums to about 45.0: every phi at 4.07e306
        # gives losses that can sum past the float64 range with eps0 fixed
        # at 1, but not with eps0 at the all-d_min error of about 0.963.
        from importlib import resources

        shipped = resources.files("cocogen").joinpath("data/scenario_example.json")
        payload = json.loads(shipped.read_text(encoding="utf-8"))
        payload["market"]["phi"] = [4.07e306] * len(payload["organizations"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioValidationError) as exc:
                scenario_from_dict(payload)
            assert [(v.field, v.detail) for v in exc.value.violations] == [(
                "market.phi",
                "too large for these error laws: the game weights or the sum of the "
                "coopetition losses can overflow",
            )]
            payload["economy"]["eps0_mode"] = "at_zero_generation"
            s = scenario_from_dict(payload)
            lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
            ev = eco.evaluate_profiles(s, np.array([np.full(s.n, lo), np.full(s.n, hi)]))
        assert np.isfinite(ev.welfare).all() and np.isfinite(ev.coopetition_loss).all()
        assert np.isfinite(game.z_weights(s)).all()

    @pytest.mark.parametrize("change, field", [("diagonal", "market.gamma"), ("xi", "market.xi")])
    def test_invalid_copy_is_refused_before_any_pricing(self, change, field):
        # A copy that breaks one market invariant is refused when built, by
        # replace and by the constructor alike, so no pricing function
        # (evaluate_profile, local_errors, potential, verify_ne) can reach it.
        s = table1_scenario(seed=1)
        gamma, xi = s.market.gamma.copy(), s.market.xi
        if change == "diagonal":
            np.fill_diagonal(gamma, 0.5)
        else:
            xi = float(np.nextafter(s.market.phi.min(), math.inf))
        market = Market(gamma=gamma, xi=xi, phi=s.market.phi)
        builds = (
            lambda: replace(s, market=market),
            lambda: Scenario(
                **{name: getattr(s, name) for name in ORG_COLUMNS},
                market=market, economy=s.economy, bounds=s.bounds, seed=s.seed,
            ),
        )
        for build in builds:
            with pytest.raises(ScenarioValidationError) as exc:
                build()
            assert [v.field for v in exc.value.violations] == [field]

    def test_collects_multiple_violations(self):
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=2, xi=500.0, c0=-1.0, d_min=5, d_max=2)
        text = str(exc.value)
        assert "xi" in text and "c0" in text and "d_max" in text
        assert len(exc.value.violations) >= 3

    def test_violations_keep_their_order_across_organizations(self):
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(
                n=3,
                d_loc=[1500, 0, -3], f=[math.nan, 1.5, 0.0], kappa=[-1.0, 3.5e-18, math.inf],
                psi=[-5.0, 700.0, math.nan], mu=[1.79e20, 0.0, 1.79e20],
                eta=[1.79e20, -math.inf, 1.79e20], c_cmp=[0.0, 1e-7, 1e-7],
                alpha=[math.inf, 5.0, 5.0], beta=[0.5, math.inf, 0.5],
                delta=[0.0, 0.0, math.inf],
                xi=500.0, c0=-1.0, d_min=0, d_max=-1, seed=-2,
            )
        assert [str(v) for v in exc.value.violations] == [
            "organizations[0].f: must be finite",
            "organizations[0].kappa: must be > 0",
            "organizations[0].c_cmp: must be > 0",
            "organizations[0].psi: must be >= 0",
            "organizations[0].law.alpha: must be finite",
            "organizations[1].eta: must be finite",
            "organizations[1].mu: must be > 0",
            "organizations[1].law.beta: must be finite",
            "organizations[1].d_loc: must be > 0 when bounds.d_min is 0 (zero total training data)",
            "organizations[2].d_loc: must be >= 0",
            "organizations[2].f: must be > 0",
            "organizations[2].kappa: must be finite",
            "organizations[2].psi: must be finite",
            "organizations[2].law.delta: must be finite",
            "market.xi: must not exceed min(phi) (cooperation stability)",
            "economy.c0: must be >= 0",
            "bounds.d_max: must be >= d_min",
            "seed: must fit in 64 unsigned bits",
        ]

    def test_columns_of_different_lengths_are_rejected(self):
        s = build_scenario(n=3)
        with pytest.raises(DimensionMismatch):
            replace(s, psi=s.psi[:2])
        with pytest.raises(DimensionMismatch):
            replace(s, alpha=np.ones((3, 1)))

    def test_gamma_dimension_mismatch(self):
        g = [[0.0, 0.1], [0.1, 0.0]]
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=3, gamma=g)
        assert any("gamma" in str(v) for v in exc.value.violations)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ScenarioValidationError):
            build_scenario(n=2, gamma=[[0.1, 0.2], [0.2, 0.0]])

    def test_fixed_eps0_outside_unit_interval_rejected(self):
        with pytest.raises(ScenarioValidationError):
            build_scenario(n=1, gamma=[[0.0]], eps0_mode=Eps0Mode.FIXED, eps0_value=1.5)

    def test_degenerate_org_with_no_stake_rejected(self):
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=1, gamma=[[0.0]], psi=0.0, xi=0.0)
        assert any(isinstance(v, NonNegativeZWeight) for v in exc.value.violations)

    def test_zero_total_data_rejected_with_the_field_named(self):
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=3, d_loc=[1500, 0, 800], d_min=0)
        assert [v.field for v in exc.value.violations] == ["organizations[1].d_loc"]
        # A positive floor keeps every total positive.
        build_scenario(n=3, d_loc=[1500, 0, 800], d_min=1)

    def test_every_copy_is_checked_when_built(self, monkeypatch):
        s = build_scenario(n=3)
        calls = []
        real = game.z_weights
        monkeypatch.setattr(game, "z_weights", lambda s: calls.append(s) or real(s))
        copies = (
            replace(s),
            type(s)(
                **{name: getattr(s, name) for name in ORG_COLUMNS},
                market=s.market, economy=s.economy, bounds=s.bounds,
            ),
            pickle.loads(pickle.dumps(s)),
            with_payoff_mode(s, PayoffMode.ANTISYMMETRIC),
        )
        assert len(calls) == len(copies)
        assert all(c is copy for c, copy in zip(calls, copies))
        for _ in range(2):
            with pytest.raises(ScenarioValidationError):
                replace(s, economy=replace(s.economy, c0=-1.0))

    def test_every_non_negative_weight_is_reported_in_order(self):
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=3, gamma=np.zeros((3, 3)), psi=[0.0, 700.0, 0.0], xi=0.0)
        found = [(v.org, v.value) for v in exc.value.violations]
        assert found == [(0, 0.0), (2, 0.0)]
        assert all(isinstance(v, NonNegativeZWeight) for v in exc.value.violations)

    def test_z_weights_are_the_transfer_rates_less_psi(self):
        # z_n = G_n - Phi_n - psi_n, from the rates that price the transfers,
        # on every preset scenario; the per-row sum
        # sum_m gamma_nm (xi - phi_m) - psi_n agrees up to float rounding.
        grid = default_sweep_grid()
        scenarios = [sample_scenario(grid, job.cell, job.seed) for job in expand_sweep(grid)]
        assert len(scenarios) == 900
        for s in scenarios + [table1_scenario(seed=74)]:
            gains, losses = eco._transfer_rates(s)
            z = game.z_weights(s)
            assert z.tolist() == (gains - losses - s.psi).tolist()
            by_row = np.array([
                np.dot(s.market.gamma[n], s.market.xi - s.market.phi) - s.psi[n]
                for n in range(s.n)
            ])
            assert (np.abs(z - by_row) <= 1e-15 * np.abs(by_row)).all()
            assert game._linear_coeffs(s).tolist() == (-eco._marginal_costs(s) / z).tolist()

    def test_z_weight_of_degenerate_org_is_refused_at_construction(self):
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=1, gamma=[[0.0]], psi=0.0, xi=0.0)
        assert [(type(v), v.org, str(v)) for v in exc.value.violations] == [
            (NonNegativeZWeight, 0, "z weight of organization 0 is 0.0, expected < 0")
        ]


NON_FINITE_FIELDS = [
    (("organizations", 1, "f"), math.nan, "organizations[1].f"),
    (("organizations", 0, "kappa"), math.inf, "organizations[0].kappa"),
    (("organizations", 0, "eta"), math.inf, "organizations[0].eta"),
    (("organizations", 1, "mu"), -math.inf, "organizations[1].mu"),
    (("organizations", 0, "c_cmp"), math.inf, "organizations[0].c_cmp"),
    (("organizations", 1, "psi"), math.inf, "organizations[1].psi"),
    (("organizations", 0, "d_loc"), math.inf, "organizations[0].d_loc"),
    (("organizations", 0, "law", "alpha"), math.inf, "organizations[0].law.alpha"),
    (("organizations", 1, "law", "beta"), math.nan, "organizations[1].law.beta"),
    (("organizations", 1, "law", "delta"), math.inf, "organizations[1].law.delta"),
    (("market", "gamma", 0, 1), math.nan, "market.gamma"),
    (("market", "gamma", 1, 0), math.inf, "market.gamma"),
    (("market", "xi"), math.inf, "market.xi"),
    (("market", "phi", 1), math.nan, "market.phi"),
    (("economy", "varrho"), math.inf, "economy.varrho"),
    (("economy", "c0"), math.nan, "economy.c0"),
    (("economy", "eps0_value"), math.inf, "economy.eps0_value"),
    (("bounds", "d_max"), math.inf, "bounds.d_max"),
    # Integer fields: booleans and fractional numbers are not integers.
    (("seed",), True, "seed"),
    (("organizations", 0, "d_loc"), 1500.7, "organizations[0].d_loc"),
    (("organizations", 1, "d_loc"), False, "organizations[1].d_loc"),
    (("bounds", "d_min"), 0.5, "bounds.d_min"),
    (("bounds", "d_max"), "3000", "bounds.d_max"),
    # Beyond the int64 range of the RaDG draws.
    (("bounds", "d_max"), 2**63, "bounds.d_max"),
]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("path, value, field", NON_FINITE_FIELDS)
    def test_rejected_with_the_field_named(self, path, value, field):
        payload = scenario_to_dict(build_scenario(n=2))
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(CocogenError) as exc:
            scenario_from_dict(payload)
        assert field in str(exc.value)

    def test_validation_reports_every_non_finite_field(self):
        g = np.array([[0.0, math.nan], [0.5, 0.0]])
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(n=2, gamma=g, psi=[700.0, math.inf])
        named = {(v.field, v.detail) for v in exc.value.violations}
        assert ("market.gamma", "must be finite") in named
        assert ("organizations[1].psi", "must be finite") in named


COLUMNS = ("d_loc", "f", "kappa", "eta", "mu", "c_cmp", "psi", "alpha", "beta", "delta")


def _cached_arrays(s):
    return [
        game.z_weights(s), game._linear_coeffs(s), eco._floor_errors(s), eco._ceiling_errors(s),
        eco._f_squared(s), eco._marginal_costs(s),
    ]


class TestScenarioCache:
    def test_cached_arrays_are_built_once_and_read_only(self):
        s = table1_scenario(seed=21)
        first = _cached_arrays(s) + [getattr(s, name) for name in COLUMNS]
        second = _cached_arrays(s) + [getattr(s, name) for name in COLUMNS]
        for a, b in zip(first, second, strict=True):
            assert a is b
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_pricing_reads_the_transfer_rates_validation_built(self, monkeypatch):
        grid = default_sweep_grid()
        job = expand_sweep(grid)[0]
        s = sample_scenario(grid, job.cell, job.seed)
        cache = s.__dict__["_cache"]
        rates = (cache["payoff_rates"], cache["loss_rates"])
        read = []
        real = eco._transfer_rates
        monkeypatch.setattr(eco, "_transfer_rates", lambda s: read.append(real(s)) or read[-1])
        eco.evaluate_profiles(s, np.full((2, s.n), float(s.bounds.d_min)))
        assert len(read) == 1
        assert all(a is b for a, b in zip(read[0], rates, strict=True))
        assert cache["payoff_rates"] is rates[0] and cache["loss_rates"] is rates[1]

    def test_copies_rebuild_their_own_caches(self, tmp_path):
        s = table1_scenario(seed=22)
        warm = _cached_arrays(s)
        clone = reference_wco_scenario(s)
        assert not np.array_equal(game.z_weights(clone), game.z_weights(s))
        assert np.array_equal(game.z_weights(clone), -s.psi)

        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        args = argparse.Namespace(scenario=str(path), payoff_mode="antisymmetric")
        reloaded = cli._load_scenario_for_args(args, seed=5)
        assert reloaded.seed == 5 and reloaded.economy.bb_mode is PayoffMode.ANTISYMMETRIC

        for copy in (clone, with_payoff_mode(s, PayoffMode.ANTISYMMETRIC), reloaded):
            for old, new in zip(warm, _cached_arrays(copy), strict=True):
                assert new is not old
                assert not new.flags.writeable
            # The read-only columns are shared by copies, not copied.
            for name in COLUMNS:
                assert np.array_equal(getattr(copy, name), getattr(s, name))
                assert (getattr(copy, name) is getattr(s, name)) is (copy is not reloaded)
        # Only the WCO clone changes a weight; the others keep every value.
        for copy in (with_payoff_mode(s, PayoffMode.ANTISYMMETRIC), reloaded):
            for old, new in zip(warm, _cached_arrays(copy), strict=True):
                assert np.array_equal(old, new)

    def test_pickle_round_trip_gives_identical_results(self):
        s = table1_scenario(seed=23, bb_mode=PayoffMode.ANTISYMMETRIC)
        warm = _cached_arrays(s)
        copy = pickle.loads(pickle.dumps(s))
        for old, new in zip(warm, _cached_arrays(copy), strict=True):
            assert np.array_equal(old, new)
            assert not new.flags.writeable
        for name in COLUMNS:
            assert np.array_equal(getattr(copy, name), getattr(s, name))
            assert not getattr(copy, name).flags.writeable
        profiles = np.vstack([random_profile(s, 30 + k) for k in range(5)])
        a, b = eco.evaluate_profiles(s, profiles), eco.evaluate_profiles(copy, profiles)
        for k in range(len(profiles)):
            for name in ("revenue", "payoff_in", "cost", "coopetition_loss", "utility",
                         "welfare", "ir", "bb_sum", "bb_balanced"):
                assert np.array_equal(getattr(a, name)[k], getattr(b, name)[k]), name
            assert a.server_fee == b.server_fee
        assert solver.fpi_solve(copy).to_dict() == solver.fpi_solve(s).to_dict()

    def test_pickle_drops_the_cache_and_revalidates(self, monkeypatch):
        s = table1_scenario(seed=24)
        _cached_arrays(s)
        copy = pickle.loads(pickle.dumps(s))
        assert "_cache" not in s.__getstate__()
        # The copy's cache holds only what its own validation built.
        assert "linear_coeffs" in s.__dict__["_cache"]
        assert "linear_coeffs" not in copy.__dict__["_cache"]
        for name in COLUMNS:
            assert np.array_equal(getattr(copy, name), getattr(s, name))
        assert np.array_equal(copy.market.gamma, s.market.gamma)
        assert np.array_equal(copy.market.phi, s.market.phi)

        gamma = s.market.gamma.copy()
        np.fill_diagonal(gamma, 0.5)
        edited = Market(gamma=gamma, xi=s.market.xi, phi=s.market.phi)
        state = Scenario.__getstate__
        monkeypatch.setattr(Scenario, "__getstate__", lambda x: {**state(x), "market": edited})
        data = pickle.dumps(s)
        with pytest.raises(ScenarioValidationError) as exc:
            pickle.loads(data)
        assert [str(v) for v in exc.value.violations] == ["market.gamma: diagonal must be zero"]


class TestSerialization:
    def test_round_trip_is_bit_identical(self):
        grid = default_sweep_grid()
        cell = SweepCell(
            gamma=GammaLevel(0.0, 0.5), alpha_d=0.1, law=heterogeneity_presets()[0.1]
        )
        s = sample_scenario(grid, cell, seed=77)
        first = json.dumps(scenario_to_dict(s), sort_keys=True)
        reread = scenario_from_dict(json.loads(first))
        second = json.dumps(scenario_to_dict(reread), sort_keys=True)
        assert first == second
        assert np.array_equal(reread.market.gamma, s.market.gamma)
        for name in COLUMNS:
            assert getattr(reread, name).tobytes() == getattr(s, name).tobytes()

    def test_unknown_keys_are_rejected(self):
        payload = scenario_to_dict(build_scenario(n=1, gamma=[[0.0]]))
        payload["extra"] = 1
        with pytest.raises(InvariantViolation):
            scenario_from_dict(payload)
        payload.pop("extra")
        payload["market"]["surprise"] = 2
        with pytest.raises(InvariantViolation):
            scenario_from_dict(payload)

    @staticmethod
    def _example() -> dict:
        from importlib import resources

        src = resources.files("cocogen").joinpath("data/scenario_example.json")
        return json.loads(src.read_text(encoding="utf-8"))

    @staticmethod
    def _object_at(payload: dict, path: tuple) -> dict:
        for key in path:
            payload = payload[key]
        return payload

    @pytest.mark.parametrize(
        "path, key, where",
        [
            ((), "organizations", "scenario"),
            ((), "market", "scenario"),
            *((("organizations", 1), k, "organizations[1]")
              for k in ("d_loc", "f", "kappa", "psi", "law")),
            (("organizations", 1, "law"), "alpha", "organizations[1].law"),
            (("organizations", 1, "law"), "beta", "organizations[1].law"),
            *((("market",), k, "market") for k in ("gamma", "xi", "phi")),
        ],
    )
    def test_missing_keys_are_named_with_their_block(self, path, key, where):
        payload = self._example()
        del self._object_at(payload, path)[key]
        with pytest.raises(InvariantViolation) as exc:
            scenario_from_dict(payload)
        assert str(exc.value) == f"{where}: missing required key {key!r}"

    @pytest.mark.parametrize(
        "path, where",
        [
            ((), "scenario"),
            (("organizations", 1), "organizations[1]"),
            (("organizations", 1, "law"), "organizations[1].law"),
            (("market",), "market"),
            (("economy",), "economy"),
            (("bounds",), "bounds"),
        ],
    )
    def test_unknown_keys_are_named_with_their_block(self, path, where):
        payload = self._example()
        self._object_at(payload, path).update(zz=1, extra=2)
        with pytest.raises(InvariantViolation) as exc:
            scenario_from_dict(payload)
        assert str(exc.value) == f"{where}: unknown key(s): ['extra', 'zz']"

    def test_non_finite_scenario_is_not_saved(self, tmp_path):
        # No scenario holds a non-finite value, so none reaches save_scenario.
        # JSON has no infinity; the one JSON writer refuses it, naming the path.
        path = tmp_path / "scenario.json"
        with pytest.raises(ScenarioValidationError):
            build_scenario(n=2, psi=[700.0, math.inf])
        payload = scenario_to_dict(build_scenario(n=2))
        payload["organizations"][1]["psi"] = math.inf
        with pytest.raises(UnwritableOutput, match="cannot write a non-finite number as JSON"):
            json_text(payload, str(path))
        assert not path.exists()

    def test_market_arrays_are_read_only(self):
        m = Market(gamma=np.zeros((2, 2)), xi=0.0, phi=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            m.gamma[0, 1] = 0.5
