import warnings

import numpy as np
import pytest

from cocogen import economics, scaling
from cocogen.errors import InsufficientPoints, InvariantViolation, NonPositiveShifted
from cocogen.model import ScalingLaw
from cocogen.scaling import CurvePoint, fit_scaling_law, heterogeneity_presets

from helpers import build_scenario, law_error, reference_log_linear_fit


def synth_points(law, ds, sigma=0.0, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 8], dtype=np.uint64)))
    pts = []
    for d in ds:
        eps = law_error(law, d) + (rng.normal(0.0, sigma) if sigma else 0.0)
        pts.append(CurvePoint(d=int(d), eps=float(eps)))
    return pts


DS = (500, 1000, 2000, 4000, 8000)
D12 = (200, 303, 462, 702, 1067, 1622, 2465, 3747, 5696, 8657, 13158, 20000)


class TestFit:
    def test_noiseless_recovery(self):
        truth = ScalingLaw(5.0, 0.4, 0.08)
        fit = fit_scaling_law(synth_points(truth, DS))
        assert fit.law.alpha == pytest.approx(truth.alpha, rel=1e-6)
        assert fit.law.beta == pytest.approx(truth.beta, rel=1e-6)
        assert fit.law.delta == pytest.approx(truth.delta, rel=1e-6)
        assert fit.rmse < 1e-9
        assert fit.n_points == len(DS)

    def test_zero_offset_recovery(self):
        truth = ScalingLaw(12.0, 0.55, 0.0)
        fit = fit_scaling_law(synth_points(truth, DS))
        assert fit.law.beta == pytest.approx(truth.beta, rel=1e-6)
        assert fit.law.delta == pytest.approx(0.0, abs=1e-7)

    def test_too_few_distinct_points(self):
        truth = ScalingLaw(5.0, 0.4, 0.08)
        with pytest.raises(InsufficientPoints):
            fit_scaling_law(synth_points(truth, (500, 1000)))
        dup = synth_points(truth, (500, 500, 500, 1000))
        with pytest.raises(InsufficientPoints):
            fit_scaling_law(dup)

    def test_all_candidates_nonpositive(self):
        pts = [CurvePoint(d, -5.0) for d in (10, 20, 40)]
        with pytest.raises(NonPositiveShifted):
            fit_scaling_law(pts)

    def test_rising_curve_names_the_slope(self):
        pts = [CurvePoint(100, 0.1), CurvePoint(200, 0.2), CurvePoint(400, 0.3)]
        with pytest.raises(NonPositiveShifted, match="no offset candidate gives a positive alpha"):
            fit_scaling_law(pts)

    def test_curve_with_no_finite_fit_names_the_overflow(self):
        # Every offset's prediction at d = 1 is about 1e308, so its squared
        # residual, and with it the RMSE, overflows.
        pts = [CurvePoint(1, 1e308), CurvePoint(2, 1e307), CurvePoint(3, 1e306)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveShifted) as exc:
                fit_scaling_law(pts)
        assert str(exc.value) == (
            "no offset candidate gives a finite alpha and RMSE with a positive alpha and beta"
        )

    def test_d_values_that_share_a_float_are_too_few(self):
        # 10**300 + k for k < 3 are one float64, so the line has no slope.
        pts = [CurvePoint(10**300 + k, 0.5 - 0.1 * k) for k in range(3)]
        with pytest.raises(InsufficientPoints):
            fit_scaling_law(pts)

    def test_noisy_beta_recovery_95th_percentile(self):
        # Geometric design: offset and exponent are only jointly identifiable
        # with wide coverage in log d.
        truth = ScalingLaw(5.0, 0.4, 0.08)
        ds = np.unique(np.geomspace(200, 20000, 40).astype(int))
        errs = []
        for seed in range(100):
            fit = fit_scaling_law(synth_points(truth, ds, sigma=0.005, seed=seed))
            errs.append(abs(fit.law.beta - truth.beta) / truth.beta)
        assert float(np.quantile(errs, 0.95)) <= 0.10

    def test_fit_idempotence(self):
        first = fit_scaling_law(synth_points(ScalingLaw(7.5, 0.33, 0.12), DS))
        second = fit_scaling_law(synth_points(first.law, DS))
        assert second.law.alpha == pytest.approx(first.law.alpha, rel=1e-9)
        assert second.law.beta == pytest.approx(first.law.beta, rel=1e-9)
        assert second.law.delta == pytest.approx(first.law.delta, abs=1e-9)

    def test_returned_rmse_beats_every_grid_candidate(self):
        truth = ScalingLaw(5.0, 0.4, 0.283)  # off-grid offset
        pts = synth_points(truth, DS, sigma=0.002, seed=3)
        fit = fit_scaling_law(pts)
        curve = scaling._LogLinear(pts)
        for cand in curve.fit(scaling.DELTA_GRID):
            if cand is not None:
                assert fit.rmse <= cand[2] + 1e-15

    # repr of (alpha, beta, delta, rmse) from the fit that recomputed every
    # term of the normal equations per offset; hoisting the offset-free
    # terms must reproduce them bit for bit.
    @pytest.mark.parametrize(
        "truth, ds, sigma, seed, expected",
        [
            (ScalingLaw(5.0, 0.4, 0.08), DS, 0.0, 0,
             ("4.999999999999995", "0.3999999999999999", "0.08", "5.822058658345462e-17")),
            (ScalingLaw(5.0, 0.4, 0.283), DS, 0.002, 3,
             ("4.749420163461221", "0.38805973354623075", "0.29222638010631385",
              "0.000635010802030905")),
            (ScalingLaw(21.2, 0.52, 0.12), D12, 0.005, 11,
             ("21.60554996620844", "0.5228350161796718", "0.11989905094656442",
              "0.004981200884629676")),
        ],
    )
    def test_exact_fit_is_pinned(self, truth, ds, sigma, seed, expected):
        fit = fit_scaling_law(synth_points(truth, ds, sigma=sigma, seed=seed))
        got = (fit.law.alpha, fit.law.beta, fit.law.delta, fit.rmse)
        assert tuple(repr(x) for x in got) == expected
        assert all(type(x) is float for x in got)


def _hex(fit):
    if fit is None:
        return None
    assert all(type(x) is float for x in fit)
    return tuple(x.hex() for x in fit)


def seeded_curves(count=10):
    """(kind, points) of 3-40 distinct d: noiseless, noisy, partly
    infeasible (eps shifted below zero at the large d) and rising."""
    rng = np.random.Generator(np.random.Philox(key=np.array([25, 8], dtype=np.uint64)))
    for kind in ("noiseless", "noisy", "negative", "rising"):
        for _ in range(count):
            n = int(rng.integers(3, 41))
            ds = np.sort(rng.choice(np.arange(1, 30001), size=n, replace=False))
            eps = rng.uniform(1.0, 25.0) * ds.astype(float) ** -rng.uniform(0.1, 0.9)
            eps = eps - rng.uniform(0.0, 0.3)
            if kind == "noisy":
                eps = eps + rng.normal(0.0, 0.01, size=n)
            elif kind == "negative":
                eps = eps - rng.uniform(0.05, 0.4)
            elif kind == "rising":
                eps = eps[::-1]
            yield kind, [CurvePoint(int(d), float(e)) for d, e in zip(ds, eps)]


def long_curve(n):
    ds = np.arange(1, n + 1)
    eps = 5.0 * ds.astype(float) ** -0.4 - 0.25 + 0.001 * np.sin(ds)
    return [CurvePoint(int(d), float(e)) for d, e in zip(ds, eps)]


class TestBatchedOffsets:
    """``_LogLinear.fit`` prices a sequence of offsets, each with the bits
    of the per-offset reference (``tests/helpers.py``)."""

    def test_grid_equals_reference_bit_for_bit(self):
        verdicts = {}
        for kind, points in seeded_curves():
            curve = scaling._LogLinear(points)
            got = curve.fit(scaling.DELTA_GRID)
            want = [reference_log_linear_fit(curve, g) for g in scaling.DELTA_GRID]
            assert [_hex(f) for f in got] == [_hex(f) for f in want], kind
            for fit in got:
                verdicts.setdefault(kind, set()).add(fit is None)
        # Every kind is covered, and infeasible offsets occur beside feasible ones.
        assert verdicts["negative"] == {True, False}
        assert True in verdicts["rising"] and False in verdicts["noisy"]

    def test_single_offsets_equal_reference_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([25, 9], dtype=np.uint64)))
        for kind, points in seeded_curves(count=5):
            curve = scaling._LogLinear(points)
            for delta in [0.0, *rng.uniform(0.0, 0.6, size=6).tolist()]:
                got = curve.fit([delta])
                assert [_hex(f) for f in got] == [_hex(reference_log_linear_fit(curve, delta))], kind

    @pytest.mark.parametrize("n", [3000, 2**16 + 5])
    def test_long_curves_are_priced_in_bounded_blocks(self, n):
        curve = scaling._LogLinear(long_curve(n))
        assert curve.block == max(1, 2**16 // n) < len(scaling.DELTA_GRID)
        got = curve.fit(scaling.DELTA_GRID)
        want = [reference_log_linear_fit(curve, g) for g in scaling.DELTA_GRID]
        assert [_hex(f) for f in got] == [_hex(f) for f in want]
        assert any(f is None for f in got) and any(f is not None for f in got)

    def test_empty_and_mixed_sequences(self):
        curve = scaling._LogLinear(synth_points(ScalingLaw(5.0, 0.4, 0.08), DS))
        assert curve.fit([]) == []
        offsets = [0.3, -10.0, 0.0, -10.0]
        assert curve.fit(offsets) == [reference_log_linear_fit(curve, dl) for dl in offsets]
        assert curve.fit(offsets)[1::2] == [None, None]

    @pytest.mark.parametrize(
        "rows",
        [((10**6, 1.0), (2 * 10**6, 1e-100), (4 * 10**6, 1e-200)),
         ((1, 1e308), (2, 1e307), (3, 1e306))],
        ids=["alpha_overflows", "rmse_overflows"],
    )
    def test_non_finite_offsets_are_infeasible_in_both_shapes(self, rows):
        curve = scaling._LogLinear([CurvePoint(d, e) for d, e in rows])
        with np.errstate(over="ignore", invalid="ignore"):
            block = curve.fit(scaling.DELTA_GRID)
            lone = [curve.fit([g])[0] for g in scaling.DELTA_GRID]
        want = [reference_log_linear_fit(curve, g) for g in scaling.DELTA_GRID]
        assert [_hex(f) for f in block] == [_hex(f) for f in lone] == [_hex(f) for f in want]
        assert block[0] is None and curve.overflowed

    def test_offset_that_zeroes_an_eps_is_infeasible_without_a_warning(self):
        curve = scaling._LogLinear([CurvePoint(10, 0.3), CurvePoint(20, 0.1), CurvePoint(40, -0.05)])
        assert -0.05 + 0.05 == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert curve.fit([0.05, 0.0, 0.06])[:2] == [None, None]
            assert curve.fit([0.05]) == [None] == [reference_log_linear_fit(curve, 0.05)]


class TestPredict:
    def test_direct_value(self):
        s = build_scenario(n=1, alpha=1.0, beta=1.0, delta=0.0, d_loc=100)
        assert economics.local_errors(s, [0.0])[0] == pytest.approx(0.01, rel=1e-15)

    def test_rmse_is_residual_rmse_at_input_points(self):
        truth = ScalingLaw(5.0, 0.4, 0.08)
        pts = synth_points(truth, DS, sigma=0.004, seed=5)
        fit = fit_scaling_law(pts)
        resid = [law_error(fit.law, p.d) - p.eps for p in pts]
        assert fit.rmse == pytest.approx(float(np.sqrt(np.mean(np.square(resid)))), rel=1e-12)

    def test_monotone_decreasing(self):
        # Totals 1, 14, ..., 4992: one local sample plus the generated ones.
        s = build_scenario(n=1, alpha=3.0, beta=0.3, delta=0.05, d_loc=1)
        vals = economics._local_errors(s, np.arange(0.0, 4999.0, 13.0), orgs=0)
        assert np.all(np.diff(vals) < 0)


class TestCurveCsv:
    def test_reads_header_and_rows(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("d,eps\n500,0.31\n1000,0.22\n", encoding="utf-8")
        pts = scaling.read_curve_csv(path)
        assert pts == [CurvePoint(500, 0.31), CurvePoint(1000, 0.22)]

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(InvariantViolation):
            scaling.read_curve_csv(path)

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_eps(self, tmp_path, eps):
        path = tmp_path / "curve.csv"
        path.write_text(f"d,eps\n500,0.31\n1000,{eps}\n", encoding="utf-8")
        with pytest.raises(InvariantViolation, match="curve csv row 2: curve point eps"):
            scaling.read_curve_csv(path)

    @pytest.mark.parametrize("row, count", [("1000,0.22,7", 3), ("1000", 1), ("1000,0.22,", 3)])
    def test_rejects_wrong_field_count(self, tmp_path, row, count):
        path = tmp_path / "curve.csv"
        path.write_text(f"d,eps\n500,0.31\n{row}\n", encoding="utf-8")
        with pytest.raises(InvariantViolation, match=f"curve csv row 2: has {count} fields"):
            scaling.read_curve_csv(path)

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("d,eps\n\n500,0.31\n\n1000,x\n", encoding="utf-8")
        with pytest.raises(InvariantViolation, match="curve csv row 2: "):
            scaling.read_curve_csv(path)

    def test_rejects_d_beyond_the_float_range(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(f"d,eps\n100,0.5\n200,0.4\n{10**400},0.1\n", encoding="utf-8")
        with pytest.raises(
            InvariantViolation, match="curve csv row 3: curve point d: must be within the float64 range"
        ):
            scaling.read_curve_csv(path)

    def test_curve_point_rejects_non_finite_eps(self):
        with pytest.raises(InvariantViolation, match="curve point eps: must be finite"):
            CurvePoint(500, float("nan"))


class TestPresets:
    def test_ordered_by_heterogeneity_everywhere(self):
        presets = heterogeneity_presets()
        assert set(presets) == {0.1, 0.5, 0.9}
        for d in (500, 3000, 6000):
            assert (
                law_error(presets[0.1], d)
                > law_error(presets[0.5], d)
                > law_error(presets[0.9], d)
            )

    def test_curves_do_not_cross_on_range(self):
        presets = heterogeneity_presets()
        d = np.arange(1, 6001, dtype=float)
        assert np.all(law_error(presets[0.1], d) > law_error(presets[0.5], d))
        assert np.all(law_error(presets[0.5], d) > law_error(presets[0.9], d))

    def test_presets_satisfy_law_invariants(self):
        for law in heterogeneity_presets().values():
            assert law.alpha > 0 and law.beta > 0 and law.delta >= 0

    def test_each_call_returns_its_own_copy(self):
        heterogeneity_presets().clear()
        assert set(heterogeneity_presets()) == {0.1, 0.5, 0.9}
