import numpy as np
import pytest

from cocogen import scaling
from cocogen.errors import InsufficientPoints, InvariantViolation, NonPositiveShifted
from cocogen.model import ScalingLaw
from cocogen.scaling import CurvePoint, fit_scaling_law, heterogeneity_presets


def synth_points(law, ds, sigma=0.0, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 8], dtype=np.uint64)))
    pts = []
    for d in ds:
        eps = law.error_at(d) + (rng.normal(0.0, sigma) if sigma else 0.0)
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
        for delta in scaling.DELTA_GRID:
            cand = curve.fit(delta)
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


class TestPredict:
    def test_direct_value(self):
        assert ScalingLaw(1.0, 1.0, 0.0).error_at(100) == pytest.approx(
            0.01, rel=1e-15
        )

    def test_rmse_is_residual_rmse_at_input_points(self):
        truth = ScalingLaw(5.0, 0.4, 0.08)
        pts = synth_points(truth, DS, sigma=0.004, seed=5)
        fit = fit_scaling_law(pts)
        resid = [fit.law.error_at(p.d) - p.eps for p in pts]
        assert fit.rmse == pytest.approx(float(np.sqrt(np.mean(np.square(resid)))), rel=1e-12)

    def test_monotone_decreasing(self):
        law = ScalingLaw(3.0, 0.3, 0.05)
        ds = np.arange(1, 5000, 13)
        vals = law.error_at(ds.astype(float))
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

    def test_curve_point_rejects_non_finite_eps(self):
        with pytest.raises(InvariantViolation, match="curve point eps: must be finite"):
            CurvePoint(500, float("nan"))


class TestPresets:
    def test_ordered_by_heterogeneity_everywhere(self):
        presets = heterogeneity_presets()
        assert set(presets) == {0.1, 0.5, 0.9}
        for d in (500, 3000, 6000):
            assert (
                presets[0.1].error_at(d)
                > presets[0.5].error_at(d)
                > presets[0.9].error_at(d)
            )

    def test_curves_do_not_cross_on_range(self):
        presets = heterogeneity_presets()
        d = np.arange(1, 6001, dtype=float)
        assert np.all(presets[0.1].error_at(d) > presets[0.5].error_at(d))
        assert np.all(presets[0.5].error_at(d) > presets[0.9].error_at(d))

    def test_presets_satisfy_law_invariants(self):
        for law in heterogeneity_presets().values():
            assert law.alpha > 0 and law.beta > 0 and law.delta >= 0

    def test_each_call_returns_its_own_copy(self):
        heterogeneity_presets().clear()
        assert set(heterogeneity_presets()) == {0.1, 0.5, 0.9}
