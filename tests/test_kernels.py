import numpy as np
import pytest

from cocogen import kernels
from cocogen.kernels import build_lower_envelope


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
