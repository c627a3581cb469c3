import numpy as np
import pytest

from cocogen import kernels
from cocogen.kernels import build_lower_envelope

from helpers import (
    ReferenceEnvelope,
    build_scenario,
    reference_axis_arrays,
    reference_grid_axes,
    reference_lower_envelope,
    table1_scenario,
)


def _random_axes(seed, m, n_axes):
    """Decreasing positive g arrays and increasing linear terms, scenario-like."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    axes = []
    values = np.arange(m, dtype=np.float64)
    for _ in range(n_axes):
        alpha = rng.uniform(1.0, 30.0)
        beta = rng.uniform(0.1, 0.9)
        d_loc = rng.uniform(10.0, 300.0)
        eps = alpha * np.power(d_loc + values, -beta)
        g = np.exp(eps / rng.uniform(10.0, 60.0))
        w = rng.uniform(1e-6, 1e-2)
        axes.append((g, w * values))
    return axes


def _brute_3d(bg1, lin1, g2, lin2, g3, lin3):
    f = (
        bg1[:, None, None] * g2[None, :, None] * g3[None, None, :]
        + lin1[:, None, None]
        + lin2[None, :, None]
        + lin3[None, None, :]
    )
    flat = int(np.argmin(f))
    i, j, k = np.unravel_index(flat, f.shape)
    return float(f[i, j, k]), int(i), int(j), int(k)


def _brute_2d(bg1, lin1, g2, lin2):
    f = bg1[:, None] * g2[None, :] + lin1[:, None] + lin2[None, :]
    flat = int(np.argmin(f))
    i, j = np.unravel_index(flat, f.shape)
    return float(f[i, j]), int(i), int(j)


class TestEnvelope:
    @pytest.mark.parametrize("seed", range(10))
    def test_envelope_matches_min_over_all_lines(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
        m = int(rng.integers(1, 80))
        slopes = np.sort(rng.uniform(0.5, 2.0, size=m))[::-1].copy()
        inters = np.cumsum(rng.uniform(0.0, 1.0, size=m))
        env = build_lower_envelope(slopes, inters)
        for q in rng.uniform(1e-6, 10.0, size=200):
            values = q * slopes + inters
            h = int(np.searchsorted(env.thresh, q, side="left"))
            got = q * env.slope[h] + env.inter[h]
            k = int(env.k[h])
            assert got == values.min()
            # smallest index among exact ties
            assert k == int(np.flatnonzero(values == values.min())[0])

    def test_rejects_increasing_slopes(self):
        with pytest.raises(ValueError):
            build_lower_envelope([1.0, 2.0], [0.0, 1.0])

    def test_parallel_lines_prefer_lower_then_earlier(self):
        env = build_lower_envelope([2.0, 2.0, 1.0], [5.0, 3.0, 4.0])
        assert list(env.k) == [1, 2]


def _assert_same_envelope(slopes, inters):
    got = build_lower_envelope(slopes, inters)
    want = reference_lower_envelope(slopes, inters)
    for name in ReferenceEnvelope._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    return got


class TestEnvelopeEqualsReference:
    """The vectorised hull against the stack loop it replaced
    (``helpers.reference_lower_envelope``), array for array and bit for bit;
    on lines that meet only to within rounding, against the lowest line."""

    @pytest.mark.parametrize("first", range(0, 50, 5))
    def test_criterion_4_third_axes(self, first):
        # Every axis of criterion 4's N = 3 instances, the third included.
        for seed in range(first, first + 5):
            scale = (0.5, 1.0, 2.0, 5.0, 20.0)[seed % 5]
            s = table1_scenario(seed=7300 + seed, n=3, cost_scale=scale)
            values, _, _ = reference_grid_axes(s)
            for axis in range(3):
                env = _assert_same_envelope(*reference_axis_arrays(s, values, axis))
                assert env.k.size == values.size  # every line is on the hull

    @pytest.mark.parametrize("d_loc", [1e6, 1e8, 1e10])
    def test_axes_whose_steps_are_rounding_noise(self, d_loc):
        # Far above the data floor an axis's g falls by a few ulps per
        # sample, so its rounded steps are not convex, lines drop out (2992,
        # 47 and 10 are kept) and equal slopes appear.
        s = build_scenario(n=3, alpha=21.2, beta=0.52, delta=0.12, d_loc=d_loc)
        values, _, _ = reference_grid_axes(s)
        env = _assert_same_envelope(*reference_axis_arrays(s, values, 2))
        assert env.k.size < values.size

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sets_with_dominated_lines_and_parallel_runs(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
        for _ in range(25):
            m = int(rng.integers(1, 60))
            # Few distinct slopes make parallel runs; free intercepts make
            # dominated lines and some that only win at q <= 0.
            slopes = np.sort(rng.integers(-3, 4, size=m).astype(np.float64))[::-1].copy()
            _assert_same_envelope(slopes, rng.integers(-5, 6, size=m).astype(np.float64))
            slopes = np.sort(rng.uniform(-1.0, 1.0, size=m))[::-1].copy()
            _assert_same_envelope(slopes, rng.uniform(-1.0, 1.0, size=m))

    def test_first_line_overtaken_at_or_before_zero(self):
        assert list(_assert_same_envelope([2.0, 1.0], [0.0, -1.0]).k) == [1]
        assert list(_assert_same_envelope([2.0, 1.0], [1.0, 1.0]).k) == [1]
        # Overtaken at q = -0.5 only once the middle line is dropped.
        assert list(_assert_same_envelope([3.0, 2.0, 1.0], [0.0, 5.0, -1.0]).k) == [2]

    def test_three_lines_through_one_point(self):
        # All meet at q = 1; the first of the tied lines wins there.
        env = _assert_same_envelope([2.0, 1.0, 0.0], [0.0, 1.0, 2.0])
        assert list(env.k) == [0, 2] and list(env.thresh) == [1.0]
        env = _assert_same_envelope([2.0, 1.0, 0.0, -1.0], [0.0, 1.0, 2.0, 4.0])
        assert list(env.k) == [0, 2, 3] and list(env.thresh) == [1.0, 2.0]

    def test_single_line(self):
        env = _assert_same_envelope([0.5], [2.0])
        assert list(env.k) == [0] and env.thresh.size == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_near_concurrent_lines_give_a_valid_envelope(self, seed):
        # Lines through one point up to an ulp or two. Their pairwise
        # takeover points disagree in the last bits, so which near-tied
        # line is kept may depend on the order of the tests, and a left-to-
        # right stack can keep a different one than the whole-array passes;
        # either way every query is priced at the smallest line's value
        # within rounding.
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 4], dtype=np.uint64)))
        for _ in range(20):
            m = int(rng.integers(2, 60))
            slopes = np.sort(rng.choice(np.linspace(-1.0, 1.0, 7), size=m))[::-1].copy()
            inters = 1.0 - slopes * rng.uniform(0.0, 2.0) + rng.choice([0.0, 1e-16, -2e-16], m)
            env = build_lower_envelope(slopes, inters)
            assert np.all(np.diff(env.thresh) > 0) and np.all(env.thresh > 0)
            qs = np.concatenate([rng.uniform(1e-6, 4.0, 50), env.thresh,
                                 np.nextafter(env.thresh, np.inf)])
            for q in qs:
                h = int(np.searchsorted(env.thresh, q, side="left"))
                values = q * slopes + inters
                tol = 8 * np.finfo(np.float64).eps * np.abs(values).max()
                assert abs(q * env.slope[h] + env.inter[h] - values.min()) <= tol


class TestBackendParity:
    """The numpy scans against a brute-force scan of the full grid."""

    @pytest.mark.parametrize("seed", range(8))
    def test_2d_matches_brute_force(self, seed):
        (g1, l1), (g2, l2) = _random_axes(seed, 73, 2)
        bg1 = 0.95 * g1
        expected = _brute_2d(bg1, l1, g2, l2)
        got = kernels.argmin_2d(bg1, l1, g2, l2)
        assert (got[1], got[2]) == (expected[1], expected[2])
        assert got[0] == pytest.approx(expected[0], rel=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_3d_matches_brute_force(self, seed):
        (g1, l1), (g2, l2), (g3, l3) = _random_axes(seed + 100, 41, 3)
        bg1 = 0.95 * g1
        env = build_lower_envelope(g3, l3)
        expected = _brute_3d(bg1, l1, g2, l2, g3, l3)
        got = kernels.argmin_3d(bg1, l1, g2, l2, env)
        assert (got[1], got[2], got[3]) == expected[1:]
        assert got[0] == pytest.approx(expected[0], rel=1e-13)

    def test_argmin_in_a_later_row_chunk(self):
        # Reversed first axes put the minimum past the first 128-row chunk.
        (g1, l1), (g2, l2) = _random_axes(300, 300, 2)
        bg1, l1 = 0.95 * g1[::-1].copy(), l1[::-1].copy()
        expected = _brute_2d(bg1, l1, g2, l2)
        assert expected[1] >= 128
        assert kernels.argmin_2d(bg1, l1, g2, l2)[1:] == expected[1:]
        (g1, l1), (g2, l2), (g3, l3) = _random_axes(301, 130, 3)
        bg1, l1 = 0.95 * g1[::-1].copy(), l1[::-1].copy()
        env = build_lower_envelope(g3, l3)
        expected = _brute_3d(bg1, l1, g2, l2, g3, l3)
        assert expected[1] >= 128
        assert kernels.argmin_3d(bg1, l1, g2, l2, env)[1:] == expected[1:]
