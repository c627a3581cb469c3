import decimal
import math
from dataclasses import replace

import numpy as np
import pytest

from cocogen import baselines, game, solver
from cocogen import economics as eco
from cocogen import scaling
from cocogen.errors import ZeroTotalData
from cocogen.model import Eps0Mode, Market, PayoffMode, ScalingLaw
from cocogen.scenario import default_sweep_grid, expand_sweep, sample_scenario

from helpers import (
    build_scenario,
    law_error,
    org_row,
    random_profile,
    reference_evaluation,
    reference_held_out_evaluation,
    table1_scenario,
    with_payoff_mode,
)


class TestLocalError:
    def test_direct_power_law(self):
        s = build_scenario(n=1, gamma=[[0.0]], alpha=1.0, beta=1.0, delta=0.0, d_loc=100)
        assert eco.local_errors(s, [0.0])[0] == pytest.approx(0.01, rel=1e-15)

    def test_offset_cancellation(self):
        s = build_scenario(n=1, gamma=[[0.0]], alpha=1.0, beta=1.0, delta=0.01, d_loc=100)
        assert eco.local_errors(s, [0.0])[0] == 0.0

    def test_zero_total_data(self):
        # A scenario with d_loc 0 at d_min 0 is refused at construction; a
        # profile that takes the local data away reaches the same check.
        s = build_scenario(n=1, gamma=[[0.0]], d_loc=1500)
        with pytest.raises(ZeroTotalData):
            eco.local_errors(s, [-1500.0])

    def test_matches_fit_prediction(self):
        truth = ScalingLaw(5.0, 0.4, 0.08)
        points = [scaling.CurvePoint(d, law_error(truth, d)) for d in (500, 1000, 2000, 4000, 8000)]
        fit = scaling.fit_scaling_law(points)
        law = fit.law
        s = build_scenario(
            n=1, gamma=[[0.0]], alpha=law.alpha, beta=law.beta, delta=law.delta, d_loc=1000
        )
        assert eco.local_errors(s, [2000.0])[0] == law_error(law, 3000)
        assert eco.local_errors(s, [2000.0])[0] == pytest.approx(law_error(truth, 3000), rel=1e-6)


class TestGlobalError:
    def test_unit_local_error_gives_one(self):
        # alpha = 1, beta arbitrary, d_loc + d_gen = 1 => local error 1.
        s = build_scenario(n=1, alpha=1.0, beta=1.0, delta=0.0, d_loc=1, gamma=[[0.0]])
        assert eco.global_error(s, [0.0]) == 1.0

    def test_symmetric_is_org_count_invariant(self):
        vals = []
        for n in (1, 3, 7):
            s = build_scenario(n=n, gamma=np.zeros((n, n)))
            vals.append(eco.global_error(s, np.zeros(n)))
        assert vals[0] == vals[1] == vals[2]

    def test_matches_independent_summation_order(self):
        s = table1_scenario(seed=5)
        p = random_profile(s, 11)
        expected = math.exp(
            (math.fsum(s.alpha * (s.d_loc + p) ** -s.beta - s.delta) / s.n - 1.0)
            / s.economy.varrho
        )
        assert eco.global_error(s, p) == pytest.approx(expected, rel=1e-12)
        assert 0 < eco.global_error(s, np.zeros(s.n)) < 1

    def test_strictly_decreasing_in_each_coordinate(self):
        s = table1_scenario(seed=6)
        p = random_profile(s, 12, hi=2000.0)
        base = eco.global_error(s, p)
        for n in range(s.n):
            bumped = p.copy()
            bumped[n] += 10.0
            assert eco.global_error(s, bumped) < base - 1e-15 * base


class TestEpsilonZero:
    def test_fixed_passthrough(self):
        s = build_scenario(n=1, gamma=[[0.0]], eps0_mode=Eps0Mode.FIXED, eps0_value=0.9)
        assert eco.epsilon_zero(s) == 0.9

    def test_at_zero_generation_is_definitional(self):
        s = build_scenario(n=2, d_min=0)
        assert eco.epsilon_zero(s) == eco.global_error(s, np.zeros(2))

    def test_modes_agree_when_fixed_to_same_value(self):
        s = build_scenario(n=2)
        v = eco.epsilon_zero(s)
        s_fixed = build_scenario(n=2, eps0_mode=Eps0Mode.FIXED, eps0_value=v)
        assert eco.epsilon_zero(s_fixed) == v


def _one(s, profile):
    """``evaluate_profiles`` of one profile: per-organization fields are (1, N)."""
    return eco.evaluate_profiles(s, np.atleast_2d(np.asarray(profile, dtype=float)))


def _decimal_marginals(s, p):
    """Each organization's contribution gap at profile ``p``: the global
    error minus the global error with that organization at ``d_min``,
    computed in 60-digit decimal arithmetic from the scenario's floats."""
    with decimal.localcontext(decimal.Context(prec=60)):
        dec = decimal.Decimal

        def local(n, x):
            o = org_row(s, n)
            return dec(o.alpha) * (dec(o.d_loc) + dec(float(x))) ** -dec(o.beta) - dec(o.delta)

        def global_error(eps):
            return ((sum(eps) / s.n - 1) / dec(s.economy.varrho)).exp()

        eps = [local(n, p[n]) for n in range(s.n)]
        err = global_error(eps)
        return [
            float(err - global_error(eps[:n] + [local(n, s.bounds.d_min)] + eps[n + 1:]))
            for n in range(s.n)
        ]


class TestContribution:
    def test_counterfactual_noop_at_lower_bound(self):
        s = build_scenario(n=2)
        p = np.array([0.0, 1200.0])
        assert _one(s, p).counterfactual[0, 0] == eco.global_error(s, p)

    def test_counterfactual_symmetric(self):
        s = build_scenario(n=2)
        cf = _one(s, [800.0, 800.0]).counterfactual[0]
        assert cf[0] == cf[1]

    def test_counterfactual_never_below_global(self):
        s = table1_scenario(seed=8)
        for k in range(20):
            p = random_profile(s, 100 + k)
            assert np.all(_one(s, p).counterfactual[0] >= eco.global_error(s, p))

    def test_marginal_contribution_against_re_evaluation(self):
        # On these draws the difference of two global errors is off by up
        # to 1.5e-11 relative, from cancellation; the expm1 factor stays
        # within 4.2e-14 of a 60-digit evaluation.
        s = table1_scenario(seed=9)
        for k in range(10):
            p = random_profile(s, 200 + k)
            marginal = _one(s, p).marginal[0]
            expected = _decimal_marginals(s, p)
            for n in range(s.n):
                assert marginal[n] == pytest.approx(expected[n], rel=1e-13, abs=1e-300)
                assert marginal[n] <= 0

    def test_marginal_zero_at_lower_bound_and_symmetry(self):
        s = build_scenario(n=2)
        zero = _one(s, [0.0, 500.0]).marginal[0, 0]
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0  # +0.0, as err - err is
        marginal = _one(s, [650.0, 650.0]).marginal[0]
        assert marginal[0] == marginal[1]


def _costs(s, profiles):
    return eco.evaluate_profiles(s, np.atleast_2d(np.asarray(profiles, dtype=float))).cost


class TestEnergyAndCost:
    def test_unit_plug_in(self):
        s = build_scenario(
            n=1, gamma=[[0.0]], kappa=2e-18, eta=1.0, mu=1.0, d_loc=1, f=1.0, c_cmp=1.0
        )
        assert _costs(s, [0.0])[0, 0] == 2e-18

    def test_zero_generation_has_no_generation_term(self):
        s = table1_scenario(seed=10)
        cost = _costs(s, np.zeros(s.n))[0]
        for n in range(s.n):
            org = org_row(s, n)
            assert cost[n] == pytest.approx(
                org.c_cmp * org.kappa * org.eta * org.d_loc * org.f**2, rel=1e-15
            )

    def test_energy_slope_is_constant(self):
        s = table1_scenario(seed=11)
        for n in range(s.n):
            org = org_row(s, n)
            slope = org.c_cmp * org.kappa * (org.eta + org.mu) * org.f**2
            for d in (0.0, 17.0, 512.0, 2999.0):
                cost = _costs(s, np.full((2, s.n), [[d], [d + 1.0]]))[:, n]
                assert cost[1] - cost[0] == pytest.approx(slope, rel=1e-9)

    def test_cost_zero_price_and_linearity(self):
        s1 = build_scenario(n=1, gamma=[[0.0]], c_cmp=1e-9)
        s2 = build_scenario(n=1, gamma=[[0.0]], c_cmp=2e-9)
        assert _costs(s1, [100.0])[0, 0] * 2 == pytest.approx(
            _costs(s2, [100.0])[0, 0], rel=1e-15
        )

    def test_cost_matches_hand_product(self):
        s = table1_scenario(seed=12)
        org = org_row(s, 3)
        d = 1234.0
        hand = org.c_cmp * (org.kappa * (org.eta * (org.d_loc + d) + org.mu * d) * org.f**2)
        p = np.zeros(s.n)
        p[3] = d
        assert _costs(s, p)[0, 3] == pytest.approx(hand, rel=1e-15)


class TestRevenue:
    def test_zero_valuation(self):
        # Competition alone keeps organization 0's weight negative, so a
        # zero valuation is valid there; its revenue is zero.
        s = build_scenario(n=2, psi=[0.0, 700.0])
        assert _one(s, [1000.0, 1000.0]).revenue[0, 0] == 0.0

    def test_cancels_at_baseline_profile(self):
        s = build_scenario(n=3, d_min=0)
        assert _one(s, np.zeros(3)).revenue[0, 0] == 0.0

    def test_monotone_in_profiles(self):
        s = table1_scenario(seed=13)
        for k in range(10):
            p1 = random_profile(s, 300 + k, hi=1500.0)
            p2 = p1 + random_profile(s, 400 + k, hi=1400.0)
            assert np.all(_one(s, p1).revenue[0] <= _one(s, p2).revenue[0])


class TestTransfers:
    # With two organizations, payoff_in[0] is the one transfer from 1 to 0.
    def test_zero_gamma_gives_zero_in_both_modes(self):
        for mode in (PayoffMode.LITERAL, PayoffMode.ANTISYMMETRIC):
            s = build_scenario(n=2, gamma=np.zeros((2, 2)), bb_mode=mode)
            assert _one(s, [100.0, 900.0]).payoff_in[0, 0] == 0.0

    def test_antisymmetric_identical_orgs_cancel(self):
        s = build_scenario(n=2, bb_mode=PayoffMode.ANTISYMMETRIC)
        assert _one(s, [700.0, 700.0]).payoff_in[0, 0] == 0.0

    def test_literal_zero_at_lower_bound(self):
        s = build_scenario(n=2)
        assert _one(s, [0.0, 1500.0]).payoff_in[0, 0] == 0.0

    def test_total_payoff_sums_pairwise_terms(self):
        for mode in (PayoffMode.LITERAL, PayoffMode.ANTISYMMETRIC):
            s = table1_scenario(seed=14, bb_mode=mode)
            out = _one(s, random_profile(s, 500))
            mc = out.marginal[0]
            for n in range(0, s.n, 3):
                gaps = mc[n] - mc if mode is PayoffMode.ANTISYMMETRIC else np.full(s.n, mc[n])
                expected = sum(
                    s.market.xi * s.market.gamma[n, m] * gaps[m] for m in range(s.n) if m != n
                )
                assert out.payoff_in[0, n] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_coopetition_loss_zero_cases_and_sign(self):
        s0 = build_scenario(n=2, gamma=np.zeros((2, 2)))
        assert _one(s0, [500.0, 500.0]).coopetition_loss[0, 0] == 0.0
        s = table1_scenario(seed=15)
        assert _one(s, np.full(s.n, float(s.bounds.d_min))).coopetition_loss[0, 0] == 0.0
        for k in range(10):
            p = random_profile(s, 600 + k)
            assert np.all(_one(s, p).coopetition_loss[0] <= 0.0)

    def test_literal_competitive_term_is_non_negative_and_linear_in_gamma(self):
        # In literal mode payoff_in - coopetition_loss collapses to
        # sum_n' gamma[n,n'] (xi - phi[n']) * gap_n; with gap_n <= 0 and
        # xi <= min(phi) it adds a non-negative amount that scales with gamma.
        def term(s, p, n):
            out = _one(s, p)
            return out.payoff_in[0, n] - out.coopetition_loss[0, n]

        for seed in range(5):
            s = table1_scenario(seed=1200 + seed)
            half = replace(
                s, market=Market(gamma=0.5 * s.market.gamma, xi=s.market.xi, phi=s.market.phi)
            )
            phi = np.asarray(s.market.phi)
            for k in range(4):
                p = random_profile(s, 1300 + 10 * seed + k)
                for n in range(s.n):
                    others = np.arange(s.n) != n
                    rate = float(np.dot(s.market.gamma[n][others], s.market.xi - phi[others]))
                    expected = rate * _one(s, p).marginal[0, n]
                    got = term(s, p, n)
                    assert got == pytest.approx(expected, rel=1e-12)
                    assert got >= 0.0
                    assert term(half, p, n) == pytest.approx(0.5 * got, rel=1e-12)


class TestUtility:
    def test_all_terms_vanish(self):
        # No valuation, near-free generation, and at the all-d_min profile no
        # contribution gap, so no transfer either.
        s = build_scenario(n=2, psi=0.0, c_cmp=1e-300, c0=0.0)
        out = _one(s, [0.0, 0.0])
        for term in (out.revenue, out.payoff_in, out.coopetition_loss):
            assert term[0, 0] == 0.0
        assert out.utility[0, 0] == pytest.approx(0.0, abs=1e-250)

    def test_server_fee_shifts_utility_by_delta(self):
        s0 = build_scenario(n=2, c0=0.0)
        s1 = build_scenario(n=2, c0=2.5)
        p = [400.0, 900.0]
        assert _one(s0, p).utility[0, 0] - _one(s1, p).utility[0, 0] == (
            pytest.approx(2.5, rel=1e-12)
        )

    def test_matches_single_expression_oracle(self):
        s = table1_scenario(seed=16)
        p = random_profile(s, 700)
        out = _one(s, p)
        for n in range(s.n):
            org = org_row(s, n)
            err = eco.global_error(s, p)
            mc = err - out.counterfactual[0, n]
            gamma_row = np.asarray(s.market.gamma[n])
            expected = (
                org.psi * (eco.epsilon_zero(s) - err)
                + s.market.xi * gamma_row.sum() * mc
                - org.c_cmp * org.kappa * (org.eta * (org.d_loc + p[n]) + org.mu * p[n]) * org.f**2
                - s.economy.c0
                - float(np.dot(np.asarray(s.market.phi), gamma_row)) * mc
            )
            assert out.utility[0, n] == pytest.approx(expected, rel=1e-12)

    def test_breakdown_identity_is_bitwise(self):
        s = table1_scenario(seed=17)
        u = eco.evaluate_profile(s, random_profile(s, 800))
        for n in range(s.n):
            assert u.utility[0, n] == (
                u.revenue[0, n] + u.payoff_in[0, n] - u.cost[0, n] - u.server_fee
                - u.coopetition_loss[0, n]
            )


class TestWelfareAndConstraints:
    def test_single_org_zero_economics(self):
        # A lone organization at d_min earns no revenue over eps0 (the
        # all-d_min error) and pays no transfer.
        s = build_scenario(n=1, gamma=[[0.0]], xi=0.0, c_cmp=1e-300)
        assert eco.evaluate_profile(s, [0.0]).welfare == pytest.approx(0.0, abs=1e-250)

    def test_duplicating_noncompeting_org_doubles_welfare(self):
        s1 = build_scenario(n=1, gamma=[[0.0]], xi=0.0)
        s2 = build_scenario(n=2, gamma=np.zeros((2, 2)), xi=0.0)
        p1, p2 = [640.0], [640.0, 640.0]
        assert eco.evaluate_profile(s2, p2).welfare == pytest.approx(
            2 * eco.evaluate_profile(s1, p1).welfare, rel=1e-12
        )

    def test_welfare_identity_against_termwise_accumulation(self):
        s = table1_scenario(seed=18)
        p = random_profile(s, 900)
        parts = eco.evaluate_profile(s, p)
        expected = (
            sum(parts.revenue[0].tolist())
            - sum(parts.cost[0].tolist())
            - s.n * s.economy.c0
            + sum(parts.payoff_in[0].tolist())
            - sum(parts.coopetition_loss[0].tolist())
        )
        assert eco.evaluate_profile(s, p).welfare == pytest.approx(expected, rel=1e-9)

    def test_ir_trivial_cases(self):
        # No valuation and near-free generation: the net transfer
        # marginal * (G_n - Phi_n) is >= 0, since z_n = G_n - Phi_n < 0.
        s_zero = build_scenario(n=2, psi=0.0, c_cmp=1e-300)
        assert eco.evaluate_profile(s_zero, [10.0, 10.0]).ir[0].tolist() == [True, True]
        s_fee = build_scenario(n=2, c0=1e9)
        assert eco.evaluate_profile(s_fee, [10.0, 10.0]).ir[0].tolist() == [False, False]

    def test_bb_zero_gamma_balanced(self):
        s = build_scenario(n=3, gamma=np.zeros((3, 3)))
        out = eco.evaluate_profile(s, [100.0, 200.0, 300.0])
        assert (out.bb_sum, out.bb_balanced) == (0.0, True)

    def test_bb_antisymmetric_mode_with_symmetric_gamma(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 3], dtype=np.uint64)))
        g = rng.uniform(0, 1, size=(4, 4))
        g = (g + g.T) / 2
        np.fill_diagonal(g, 0.0)
        s = build_scenario(n=4, gamma=g, bb_mode=PayoffMode.ANTISYMMETRIC)
        for k in range(5):
            p = random_profile(s, 1000 + k)
            out = eco.evaluate_profile(s, p)
            scale = sum(abs(x) for x in out.payoff_in[0].tolist())
            assert out.bb_balanced
            assert abs(out.bb_sum) <= 1e-9 * (scale + 1)

    def test_column_sums_add_as_the_per_organization_loop(self):
        def loop(a):
            total = np.zeros(a.shape[0])
            for n in range(a.shape[1]):
                total = total + a[:, n]
            return total

        rng = np.random.Generator(np.random.Philox(key=np.array([5, 17], dtype=np.uint64)))
        a = rng.standard_normal((103, 10)) * 10.0 ** rng.integers(-8, 9, size=(103, 10))
        a[0] = -0.0  # a row of negative zeros sums to +0.0, as from a start of 0.0
        got, want = eco._column_sums(a), loop(a)
        assert got.tobytes() == want.tobytes()
        assert math.copysign(1.0, got[0]) == 1.0

    def test_bb_literal_mode_generally_unbalanced(self):
        s = table1_scenario(seed=19)
        p = random_profile(s, 1100, lo=500.0)
        out = eco.evaluate_profile(s, p)
        assert out.bb_sum < 0  # printed transfers are one-sided outflows
        assert not out.bb_balanced


def _profile_matrix(s, seed):
    """All-d_min and all-d_max rows, integer RaDG-style rows and real rows."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 13], dtype=np.uint64)))
    lo, hi = s.bounds.d_min, s.bounds.d_max
    return np.vstack(
        [
            np.full(s.n, float(lo)),
            np.full(s.n, float(hi)),
            rng.integers(lo, hi, size=(6, s.n), endpoint=True).astype(np.float64),
            rng.uniform(lo, hi, size=(4, s.n)),
        ]
    )


def _assert_matches_reference(got, k, ref):
    """Row ``k`` of the evaluation ``got``: every field must equal the oracle."""
    for n, r in enumerate(ref["utilities"]):
        u = {"revenue": got.revenue[k, n], "payoff_in": got.payoff_in[k, n],
             "cost": got.cost[k, n], "server_fee": got.server_fee,
             "coopetition_loss": got.coopetition_loss[k, n], "utility": got.utility[k, n]}
        assert u == r
    assert got.utility.shape[1] == len(ref["utilities"])
    assert got.welfare[k] == ref["welfare"]
    assert got.ir[k].tolist() == ref["ir"]
    assert got.bb_sum[k] == ref["bb_sum"]
    assert got.bb_balanced[k] == ref["bb_balanced"]


def _assert_near_held_out(s, profiles):
    """``evaluate_profiles`` against the held-out tensor form. That form's
    gaps are differences of two global errors, so they carry an error of a
    few units in the last place of the global error ``err``: gaps and
    counterfactuals must agree within ``1e-15 * err``, and each transfer
    within that times its rate. Utilities, welfare and transfer sums must
    agree within 1e-12 of their size (for a transfer sum, the sum of its
    terms' sizes)."""
    old = reference_held_out_evaluation(s, profiles)
    new = eco.evaluate_profiles(s, profiles)
    gamma = np.array(s.market.gamma)
    np.fill_diagonal(gamma, 0.0)
    unit = 1e-15 * old.global_error[:, None]
    assert np.all(np.abs(new.marginal - old.marginal) <= unit)
    assert np.all(np.abs(new.counterfactual - old.counterfactual) <= unit)
    assert np.all(np.abs(new.payoff_in - old.payoff_in) <= unit * s.market.xi * gamma.sum(axis=1))
    assert np.all(np.abs(new.coopetition_loss - old.coopetition_loss)
                  <= unit * (s.market.phi * gamma).sum(axis=1))
    assert np.all(np.abs(new.utility - old.utility) <= 1e-12 * np.abs(old.utility))
    assert np.all(np.abs(new.welfare - old.welfare) <= 1e-12 * np.abs(old.welfare))
    assert np.all(np.abs(new.bb_sum - old.bb_sum) <= 1e-12 * np.abs(old.payoff_in).sum(axis=1))


def _preset_job_profiles(grid, job):
    """A preset sweep job's scenario and the matrix its job prices: the
    CoCoGen, VCFL and WCO profiles, then its RaDG draws."""
    s = sample_scenario(grid, job.cell, job.seed)
    lin = np.vstack([game._linear_coeffs(s), baselines.wco_linear_coeffs(s)])
    cocogen, wco = solver.solve_games(s, lin)
    solved = [cocogen.profile.d_gen, baselines.vcfl_profile(s).d_gen, wco.profile.d_gen]
    return s, np.vstack(solved + [baselines.radg_profiles(s, job.seed, grid.radg_repetitions)])


class TestBatchedCore:
    """``evaluate_profiles`` against the per-organization reference oracle
    and against the held-out tensor form it replaced."""

    @pytest.mark.parametrize("bb_mode", list(PayoffMode))
    @pytest.mark.parametrize("eps0_mode", list(Eps0Mode))
    def test_matrix_equals_reference_exactly(self, bb_mode, eps0_mode):
        eps0_value = 1.0 if eps0_mode is Eps0Mode.FIXED else None
        for seed in range(3):
            s = table1_scenario(
                seed=1400 + seed, bb_mode=bb_mode, eps0_mode=eps0_mode, eps0_value=eps0_value
            )
            profiles = _profile_matrix(s, seed)
            batch = eco.evaluate_profiles(s, profiles)
            for k, row in enumerate(profiles):
                ref = reference_evaluation(s, row)
                _assert_matches_reference(batch, k, ref)
                _assert_matches_reference(eco.evaluate_profile(s, row), 0, ref)

    @pytest.mark.parametrize("bb_mode", list(PayoffMode))
    def test_matrix_near_held_out_form(self, bb_mode):
        for seed in range(3):
            s = table1_scenario(seed=1400 + seed, bb_mode=bb_mode)
            _assert_near_held_out(s, _profile_matrix(s, seed))

    def test_preset_jobs_near_held_out_form_and_rows_alone(self):
        # Every preset job's priced matrix in both payoff modes; every 10th
        # job's rows are also priced alone and must match bit for bit.
        grid = default_sweep_grid()
        for k, job in enumerate(expand_sweep(grid)):
            s, profiles = _preset_job_profiles(grid, job)
            for mode in PayoffMode:
                priced = with_payoff_mode(s, mode)
                _assert_near_held_out(priced, profiles)
                if k % 10:
                    continue
                batch = eco.evaluate_profiles(priced, profiles)
                for i, row in enumerate(profiles):
                    alone = eco.evaluate_profile(priced, row)
                    assert alone.utility[0].tolist() == batch.utility[i].tolist(), job
                    assert (alone.welfare[0], alone.bb_sum[0]) == (
                        batch.welfare[i], batch.bb_sum[i]), job

    def test_zero_total_data_still_raises(self):
        s = build_scenario(n=2, d_loc=[1000, 1500], d_min=0)
        for profile in ([-1000.0, 500.0], [500.0, -2000.0]):
            with pytest.raises(ZeroTotalData):
                eco.evaluate_profiles(s, np.array([[700.0, 700.0], profile]))
            with pytest.raises(ZeroTotalData):
                eco.evaluate_profile(s, profile)
