import math

import numpy as np
import pytest

from cocogen import economics as eco
from cocogen import game
from cocogen.model import PayoffMode

from helpers import (
    build_scenario,
    convexity_margins,
    potential_rows,
    random_profile,
    reference_potential_gradient,
    table1_scenario,
)


def _utility_change(s, p, n, alt):
    """Organization ``n``'s utility change when it alone moves to ``alt``."""
    trial = p.copy()
    trial[n] = alt
    u = eco.evaluate_profiles(s, np.vstack([p, trial])).utility[:, n]
    return u[1] - u[0]


def _equivalence_scenarios():
    """Ten homogeneous Table-1 draws and two with one error law per organization."""
    out = [table1_scenario(seed=700 + k) for k in range(10)]
    for k, n in enumerate((3, 7)):
        rng = np.random.Generator(np.random.Philox(key=np.array([k, 71], dtype=np.uint64)))
        out.append(
            build_scenario(
                n=n,
                alpha=rng.uniform(5.0, 30.0, size=n),
                beta=rng.uniform(0.2, 0.9, size=n),
                delta=rng.uniform(0.0, 0.2, size=n),
                d_loc=rng.integers(1000, 3001, size=n),
                seed=720 + k,
            )
        )
    return out


def _first_potential_batch(s, profiles):
    """F over a batch of profiles as first written, with its own closed form."""
    p = np.asarray(profiles, dtype=np.float64)
    totals = s.d_loc[None, :] + p
    eps = s.alpha[None, :] * np.power(totals, -s.beta[None, :]) - s.delta[None, :]
    err = np.exp((eps.mean(axis=1) - 1.0) / s.economy.varrho)
    return err + p @ (-eco._marginal_costs(s) / game.z_weights(s))


class TestZWeight:
    def test_isolated_org(self):
        s = build_scenario(n=1, gamma=[[0.0]], psi=700.0, xi=0.0)
        assert game.z_weights(s)[0] == -700.0

    def test_xi_equal_phi_cancels_competition(self):
        s = build_scenario(n=3, xi=250.0, phi=250.0, psi=800.0)
        for n in range(3):
            assert game.z_weights(s)[n] == -800.0

    def test_matches_hand_sum(self):
        s = table1_scenario(seed=21)
        for n in range(s.n):
            hand = math.fsum(
                s.market.gamma[n, m] * (s.market.xi - s.market.phi[m]) for m in range(s.n)
            ) - s.psi[n]
            assert game.z_weights(s)[n] == pytest.approx(hand, rel=1e-14)
            assert game.z_weights(s)[n] < 0


class TestPotential:
    def test_zero_profile_reduces_to_global_error(self):
        s = table1_scenario(seed=22)
        p = np.zeros(s.n)
        assert game.potential(s, p) == eco.global_error(s, p)

    def test_linear_term_coefficient(self):
        s = table1_scenario(seed=23)
        p = random_profile(s, 1)
        delta = 37.0
        for n in range(0, s.n, 4):
            bumped = p.copy()
            bumped[n] += delta
            a2 = eco._marginal_costs(s)[n] / game.z_weights(s)[n]
            linear_change = (game.potential(s, bumped) - game.potential(s, p)) - (
                eco.global_error(s, bumped) - eco.global_error(s, p)
            )
            assert linear_change == pytest.approx(-a2 * delta, rel=1e-9)

    def test_matches_termwise_recomputation(self):
        s = table1_scenario(seed=24)
        p = random_profile(s, 2)
        expected = eco.global_error(s, p) - math.fsum(
            eco._marginal_costs(s)[n] * p[n] / game.z_weights(s)[n] for n in range(s.n)
        )
        assert game.potential(s, p) == pytest.approx(expected, rel=1e-12)

    def test_batch_agrees_with_scalar(self):
        s = table1_scenario(seed=25)
        profiles = np.stack([random_profile(s, 3 + k) for k in range(8)])
        batch = potential_rows(s, profiles)
        for row, expected in zip(profiles, batch):
            assert game.potential(s, row) == pytest.approx(expected, rel=1e-12)

    def test_batch_equals_its_first_closed_form_bitwise(self):
        for s in _equivalence_scenarios():
            rng = np.random.Generator(np.random.Philox(key=np.array([s.seed, 3], dtype=np.uint64)))
            profiles = rng.uniform(s.bounds.d_min, s.bounds.d_max, size=(150, s.n))
            profiles[:50] = np.round(profiles[:50])
            assert np.array_equal(
                potential_rows(s, profiles), _first_potential_batch(s, profiles)
            )


class TestGradient:
    def test_matches_central_finite_differences(self):
        h = 1e-3
        for seed in range(5):
            s = table1_scenario(seed=30 + seed)
            p = random_profile(s, 40 + seed, lo=50.0, hi=2900.0)
            grad = reference_potential_gradient(s, p)
            for n in range(s.n):
                up, dn = p.copy(), p.copy()
                up[n] += h
                dn[n] -= h
                fd = (game.potential(s, up) - game.potential(s, dn)) / (2 * h)
                assert grad[n] == pytest.approx(fd, rel=1e-6)

    def test_symmetric_scenario_gives_equal_entries(self):
        s = build_scenario(n=4)
        grad = reference_potential_gradient(s, np.full(4, 700.0))
        assert np.all(grad == grad[0])

    def test_gradient_tends_to_minus_a2(self):
        s = build_scenario(n=2)
        huge = np.full(2, 1e12)
        grad = reference_potential_gradient(s, huge)
        a2 = eco._marginal_costs(s) / game.z_weights(s)
        assert np.allclose(grad, -a2, rtol=1e-9)
        assert np.all(-a2 > 0)


class TestWeightedPotentialIdentity:
    @staticmethod
    def _residual(s, p, n, alt):
        """``dU_n - z_n dF`` for organization ``n`` alone moving to ``alt``."""
        trial = p.copy()
        trial[n] = alt
        df = game.potential(s, trial) - game.potential(s, p)
        return _utility_change(s, p, n, alt) - game.z_weights(s)[n] * df

    def test_null_deviation_is_exact_zero(self):
        s = table1_scenario(seed=41)
        p = random_profile(s, 50)
        assert self._residual(s, p, 0, p[0]) == 0.0

    def test_random_unilateral_deviations(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([5, 5], dtype=np.uint64)))
        for seed in range(20):
            s = table1_scenario(seed=60 + seed)
            p = random_profile(s, 70 + seed)
            for _ in range(5):
                n = int(rng.integers(0, s.n))
                alt = float(rng.uniform(s.bounds.d_min, s.bounds.d_max))
                du = _utility_change(s, p, n, alt)
                res = self._residual(s, p, n, alt)
                assert abs(res) <= 1e-9 * (1 + abs(du))

    def test_no_competition_reduces_to_valuation_weight(self):
        s = build_scenario(n=3, gamma=np.zeros((3, 3)), xi=0.0, psi=650.0)
        p = random_profile(s, 80)
        n, alt = 1, 1730.0
        du = _utility_change(s, p, n, alt)
        df = game.potential(s, np.concatenate([p[:1], [alt], p[2:]])) - game.potential(s, p)
        assert game.z_weights(s)[n] == -650.0
        assert du == pytest.approx(-650.0 * df, rel=1e-9)


class TestDeviationIdentity:
    """``dU_n = A_n * dErr - c_n * dd_n`` with ``A_n`` from
    ``game._deviation_weights``, in both payoff modes."""

    @staticmethod
    def _residuals(mode, weights_of):
        rng = np.random.Generator(np.random.Philox(key=np.array([6, 6], dtype=np.uint64)))
        out = []
        for seed in range(20):
            s = table1_scenario(seed=1500 + seed, bb_mode=mode)
            p = random_profile(s, 1600 + seed)
            eps = eco.local_errors(s, p)
            weights = weights_of(s, eps)
            costs = eco._marginal_costs(s)
            for _ in range(5):
                n = int(rng.integers(0, s.n))
                alt = float(rng.uniform(s.bounds.d_min, s.bounds.d_max))
                trial = p.copy()
                trial[n] = alt
                d_err = eco.global_error(s, trial) - eco.global_error(s, p)
                du = _utility_change(s, p, n, alt)
                predicted = weights[n] * d_err - costs[n] * (alt - p[n])
                out.append(abs(du - predicted) / (1.0 + abs(du)))
        return np.array(out)

    @pytest.mark.parametrize("mode", list(PayoffMode))
    def test_identity_holds(self, mode):
        assert self._residuals(mode, game._deviation_weights).max() <= 1e-9

    def test_literal_weights_are_the_potential_weights(self):
        s = table1_scenario(seed=1520)
        eps = eco.local_errors(s, random_profile(s, 1521))
        assert np.array_equal(game._deviation_weights(s, eps), game.z_weights(s))

    def test_potential_weights_miss_under_antisymmetric_payoffs(self):
        residuals = self._residuals(
            PayoffMode.ANTISYMMETRIC, lambda s, eps: game.z_weights(s)
        )
        # Every deviation misses the identity's bound, the worst by 1e4 times.
        assert residuals.min() > 1e-9
        assert residuals.max() > 1e4 * 1e-9


class TestConvexityProbe:
    def test_equal_profiles_give_equality(self):
        s = table1_scenario(seed=90)
        p = random_profile(s, 91)
        lam = 0.37
        mid = lam * p + (1 - lam) * p
        assert game.potential(s, mid) == pytest.approx(game.potential(s, p), rel=1e-15)

    def test_probe_reports_no_violations(self):
        for seed in (1, 2):
            s = table1_scenario(seed=100 + seed)
            gap, second = convexity_margins(s, trials=500, seed=seed)
            assert gap <= 1e-12
            assert second >= -1e-9


class TestArgminRepresentationInvariance:
    def test_grid_argmin_is_utility_best_response_point(self):
        # The potential's minimizer must be coordinate-wise utility-optimal,
        # whatever positive rescaling of the weights one applies.
        from cocogen import solver

        s = table1_scenario(seed=110, n=2, cost_scale=3.0, d_max=300)
        res = solver.grid_oracle(s)
        d = res.profile.d_gen
        xs = np.arange(s.bounds.d_min, s.bounds.d_max + 1, dtype=float)
        for n in range(2):
            trials = np.tile(d, (len(xs), 1))
            trials[:, n] = xs
            best = float(np.max(eco.evaluate_profiles(s, trials).utility[:, n]))
            u = float(eco.evaluate_profile(s, d).utility[0, n])
            assert u >= best - 1e-9 * (1 + abs(best))
