import math

import numpy as np
import pytest

from mhrnet.analysis import (
    FitWindowError,
    check_absorbing_envelope,
    compute_constants,
    estimate_async_degree,
    estimate_gn_constant,
    fit_decay_rate,
    pairwise_gap,
)
from mhrnet.grid import Grid, InvalidFieldError
from mhrnet.harness import MAX_PAIR_COLUMNS_M, _header, _pairs
from mhrnet.model import Parameters


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestConstants:
    # frozen hand-computed values for the all-ones parameter set with
    # m = 2, |Omega| = 1, C* = 1
    FROZEN = {
        "C1": 5.0,
        "C2": 26.265625,
        "lam": 0.5,
        "M": 14120.53125,
        "K": 28410.11327357751,
        "Cmult": 8.0,
        "Pmin": 10.6875,
        "Qmin": 423170951724411.5,
    }

    def test_all_ones_oracles(self):
        dc = compute_constants(Parameters(), 1.0, 1.0)
        for name, want in self.FROZEN.items():
            assert rel_err(getattr(dc, name), want) <= 1e-12, name
        assert rel_err(dc.envelope_asymptote, 28241.0625) <= 1e-12
        assert dc.envelope_prefactor == pytest.approx(5.0)

    def test_lambda_tracks_smallest_rate(self):
        dc = compute_constants(Parameters(r=0.5, k2=2.0), 1.0)
        assert dc.lam == pytest.approx(0.25)
        dc = compute_constants(Parameters(r=3.0, k2=3.0), 1.0)
        assert dc.lam == pytest.approx(0.5)

    def test_xi_kappa_above_threshold(self):
        pmin = compute_constants(Parameters(), 1.0).Pmin
        dc = compute_constants(Parameters(P=2.0 * pmin), 1.0)
        assert dc.xi == pytest.approx(42.75)
        assert dc.kappa == pytest.approx(0.5)

    def test_kappa_none_at_or_below_threshold(self):
        # the rate bound needs xi > 0; xi itself stays as computed
        pmin = compute_constants(Parameters(), 1.0).Pmin
        for P in (1.0, pmin):
            dc = compute_constants(Parameters(P=P), 1.0)
            assert dc.kappa is None and dc.xi <= 0.0
            assert dc.as_dict()["kappa"] is None
        assert compute_constants(Parameters(), 1.0).xi == pytest.approx(-38.75)
        assert compute_constants(Parameters(P=2.0 * pmin), 1.0).kappa == pytest.approx(0.5)

    def test_xi_sign_flips_at_pmin(self):
        pmin = compute_constants(Parameters(), 1.0).Pmin
        assert compute_constants(Parameters(P=pmin + 1e-9), 1.0).xi > 0
        assert compute_constants(Parameters(P=pmin - 1e-9), 1.0).xi < 0

    def test_asymptote_scales_with_measure(self):
        a1 = compute_constants(Parameters(), 1.0).envelope_asymptote
        a3 = compute_constants(Parameters(), 3.0).envelope_asymptote
        assert a3 == pytest.approx(3.0 * a1)

    def test_qmin_decreases_with_eta2(self):
        q_small = compute_constants(Parameters(eta2=0.5), 1.0).Qmin
        q_large = compute_constants(Parameters(eta2=2.0), 1.0).Qmin
        assert q_small > q_large

    def test_qmin_grows_with_cstar(self):
        q1 = compute_constants(Parameters(), 1.0, cstar=1.0).Qmin
        q2 = compute_constants(Parameters(), 1.0, cstar=2.0).Qmin
        assert q2 > q1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            compute_constants(Parameters(), 0.0)
        with pytest.raises(ValueError):
            compute_constants(Parameters(), 1.0, cstar=0.0)
        with pytest.raises(ValueError):
            compute_constants(Parameters(), 1.0, cstar=float("inf"))

    def test_as_dict_roundtrip(self):
        dc = compute_constants(Parameters(), 2.0, 1.5)
        d = dc.as_dict()
        assert d["Pmin"] == dc.Pmin
        assert d["envelope_asymptote"] == dc.envelope_asymptote
        assert d["cstar"] == 1.5


def make_state(g, values):
    """values: list of per-neuron (u, v, w, rho) constants."""
    values = np.asarray(values, dtype=float)
    return np.broadcast_to(values.reshape(values.shape + (1,) * g.dim),
                           values.shape + g.shape).copy()


def gap_of(gaps, m, i, j):
    """The gap of neurons i < j in the list pairwise_gap returns for m neurons."""
    return gaps[_pairs(m).index((i, j))]


class TestPairwiseGap:
    def test_constant_offset_oracle(self):
        # u differs by 2, rho by 1 on a unit domain: gap = 4 + 1 = 5
        g = Grid((32,), (1.0,))
        x = make_state(g, [(0, 0, 0, 0), (2, 0, 0, 1)])
        assert pairwise_gap(x[None], g) == [[pytest.approx(5.0)]]

    def test_symmetry_and_zero(self):
        g = Grid((32,), (1.0,))
        x = make_state(g, [(0.3, 1, -1, 0.5), (0.1, 0, 2, 0.5), (0.3, 1, -1, 0.5)])
        (gaps,) = pairwise_gap(x[None], g)
        assert len(gaps) == 3 and gaps[0] > 0.0
        # swapping neurons 0 and 1 keeps their gap
        assert pairwise_gap(x[None, [1, 0, 2]], g)[0][0] == gaps[0]
        assert gap_of(gaps, 3, 0, 2) == 0.0

    def test_fewer_than_two_neurons_rejected(self):
        g = Grid((32,), (1.0,))
        for values in ([(0, 0, 0, 0)], np.zeros((0, 4))):
            with pytest.raises(ValueError, match="two neurons"):
                pairwise_gap(make_state(g, values)[None], g)

    def test_per_pair_formula(self):
        g = Grid((8, 6), (1.0, 2.0))
        x = np.random.default_rng(3).normal(size=(5, 4) + g.shape)
        (gaps,) = pairwise_gap(x[None], g)
        for i in range(5):
            for j in range(i + 1, 5):
                want = math.fsum(np.sum(d * d) * g.cell_volume for d in x[i] - x[j])
                assert gap_of(gaps, 5, i, j) == want

    @pytest.mark.parametrize("cells", [(2,), (9,), (129,), (8, 6), (2, 5)])
    @pytest.mark.parametrize("m", [2, 5, 17])
    def test_batch_equals_per_state(self, cells, m):
        # a (B, m, 4, *cells) batch gives one list per replicate, bitwise
        # the list of that replicate's batch of one
        g = Grid(cells, (1.5,) * len(cells))
        rng = np.random.default_rng(5)
        x = rng.uniform(-2.0, 2.0, size=(3, m, 4) + cells) * rng.uniform(0.01, 100.0, (3,) + (1,) * (2 + len(cells)))
        gaps = pairwise_gap(x, g)
        assert len(gaps) == 3
        for b in range(3):
            assert [gaps[b]] == pairwise_gap(x[b:b + 1], g)
        assert pairwise_gap(x[1:2], g) == [gaps[1]]

    def test_wrong_rank_rejected(self):
        g = Grid((8,), (1.0,))
        for shape in ((4, 8), (2, 4, 8), (1, 2, 2, 4, 8)):
            with pytest.raises(ValueError, match="expected a batch"):
                pairwise_gap(np.zeros(shape), g)

    def test_grid_mismatch_rejected(self):
        g = Grid((32,), (1.0,))
        x = make_state(Grid((16,), (1.0,)), [(0, 0, 0, 0), (1, 0, 0, 0)])
        with pytest.raises(InvalidFieldError):
            pairwise_gap(x[None], g)
        with pytest.raises(InvalidFieldError):
            pairwise_gap(np.zeros((1, 2, 4, 8, 4)), Grid((8, 6), (1.0, 1.0)))

    @pytest.mark.parametrize("cells", [(64,), (8, 6), (2,), (2, 2), (2, 5)])
    def test_bitwise_equals_sum_formula(self, cells):
        # every pair is reduced as it would be alone, and listed in the
        # order of the gap columns of a sample row
        g = Grid(cells, (1.5,) * len(cells))
        for m in (2, 3, 17):
            x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(m, 4) + cells)
            (gaps,) = pairwise_gap(x[None], g)
            assert len(gaps) == m * (m - 1) // 2
            if m <= MAX_PAIR_COLUMNS_M:
                columns = [c for c in _header(m) if c.startswith("gap_")]
                assert columns == ["gap_%d_%d" % (i + 1, j + 1) for i, j in _pairs(m)]
            for (i, j), gap in zip(_pairs(m), gaps):
                d = x[i] - x[j]
                assert gap == math.fsum(np.sum((d * d).reshape(4, -1), axis=-1) * g.cell_volume)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 20.0, 200)
        (fit,) = fit_decay_rate(t, np.exp(-0.5 * t)[:, None])
        assert fit.decayed
        assert abs(fit.rate - 0.5) <= 1e-6
        assert fit.residual <= 1e-8

    def test_prefactor_invariance(self):
        t = np.linspace(0.0, 20.0, 200)
        (a,) = fit_decay_rate(t, np.exp(-0.5 * t)[:, None])
        (b,) = fit_decay_rate(t, 137.0 * np.exp(-0.5 * t)[:, None])
        assert a.rate == pytest.approx(b.rate)

    def test_transient_is_discarded(self):
        # flat for the first third, then clean decay
        t = np.linspace(0.0, 30.0, 300)
        gaps = np.where(t < 10.0, 1.0, np.exp(-0.8 * (t - 10.0)))
        (fit,) = fit_decay_rate(t, gaps[:, None])
        assert abs(fit.rate - 0.8) / 0.8 <= 0.05

    def test_floor_truncates_window(self):
        t = np.linspace(0.0, 40.0, 400)
        gaps = np.maximum(np.exp(-3.0 * t), 1e-30)
        (fit,) = fit_decay_rate(t, gaps[:, None], floor=1e-20)
        assert fit.window[1] < 40.0
        assert abs(fit.rate - 3.0) / 3.0 <= 0.05

    def test_growth_reports_rate_zero(self):
        t = np.linspace(0.0, 10.0, 100)
        (fit,) = fit_decay_rate(t, np.exp(0.2 * t)[:, None])
        assert fit.rate == 0.0 and not fit.decayed

    def test_window_errors(self):
        t = np.linspace(0.0, 1.0, 30)
        (err,) = fit_decay_rate(t, np.exp(-t)[:, None])
        assert isinstance(err, FitWindowError)
        t = np.linspace(0.0, 40.0, 100)
        # nearly everything is below floor after the transient
        (err,) = fit_decay_rate(t, np.maximum(np.exp(-10.0 * t), 1e-40)[:, None], floor=1e-3)
        assert isinstance(err, FitWindowError)

    def test_columns_match_one_column_fits(self):
        # every column of a (samples, k) fit gives the FitResult, bit for
        # bit, or the failure note of its own one-column fit
        # noisy series, so that each residual is far above round-off
        t = np.linspace(0.0, 20.0, 101)
        noise = np.random.default_rng(6).normal(scale=0.05, size=(5, 101))
        cols = [
            np.exp(-0.5 * t + noise[0]),
            3.0 * np.exp(-1.3 * t + noise[1]),
            np.exp(0.1 * t + noise[2]),                    # grows: rate 0
            np.maximum(np.exp(-4.0 * t + noise[3]), 1e-300),   # below the floor early
            1e-5 * np.exp(-0.5 * t + noise[4]),
            np.zeros_like(t),                              # identically zero
            np.maximum(np.exp(-6.0 * t), 1e-300),          # too few samples before the floor
            np.where(t < 3.0, np.exp(-t), 0.0),            # zero before the window starts
            np.where(t < 12.0, np.exp(-t + noise[0]), 0.0),    # a zero ends the window
        ]
        for n in (101, 30):
            alone = [fit_decay_rate(t[:n], col[:n, None])[0] for col in cols]
            together = fit_decay_rate(t[:n], np.column_stack(cols)[:n])
            assert len(together) == len(cols)
            for a, b in zip(alone, together):
                assert type(a) is type(b)
                if isinstance(a, FitWindowError):
                    assert str(a) == str(b)
                else:
                    assert a == b
            notes = [str(r) for r in together if isinstance(r, FitWindowError)]
            if n == 101:
                assert notes == ["gap identically zero",
                                 "only 9 usable samples between transient and floor",
                                 "only 0 usable samples between transient and floor"]
                assert together[3].window[1] < 20.0 and together[2].rate == 0.0
                assert together[8].window == (t[30], t[59])
            else:
                assert notes == ["need at least 40 samples, got 30"] * 5 + [
                    "gap identically zero"] + ["need at least 40 samples, got 30"] * 3

    def test_identically_zero_series(self):
        t = np.linspace(0.0, 10.0, 100)
        (err,) = fit_decay_rate(t, np.zeros((t.size, 1)))
        assert isinstance(err, FitWindowError) and str(err) == "gap identically zero"

    def test_negative_gap_rejected_and_zero_ends_window(self):
        t = np.linspace(0.0, 10.0, 101)
        gaps = np.exp(-t)
        gaps[80] = -1e-30
        with pytest.raises(ValueError, match="nonnegative"):
            fit_decay_rate(t, gaps[:, None])
        # a zero is below any floor: the window ends at the sample before it
        gaps[80] = 0.0
        for floor in (1e-20, 0.0):
            (fit,) = fit_decay_rate(t, gaps[:, None], floor=floor)
            assert fit.window == (t[30], t[79]) and fit.n_samples == 50
            assert abs(fit.rate - 1.0) <= 1e-12

    def test_rejects_one_series_without_column_axis(self):
        t = np.linspace(0.0, 10.0, 100)
        with pytest.raises(ValueError, match="gaps \\(samples, k\\)"):
            fit_decay_rate(t, np.exp(-t))


class TestAsyncDegree:
    def test_constant_trajectories(self):
        out = estimate_async_degree(np.column_stack([[2.0] * 50, [3.0] * 50]))
        assert out == 5.0

    def test_tail_only(self):
        gaps = np.array([100.0] * 90 + [1.0] * 10)[:, None]
        assert estimate_async_degree(gaps, tail_window=0.1) == 1.0

    def test_adds_column_maxima_in_order(self):
        # plain float addition from the first column on, not a compensated sum
        gaps = np.array([[1.0, 1e-16, 1e-16]])
        assert estimate_async_degree(gaps) == (1.0 + 1e-16) + 1e-16 == 1.0

    def test_empty_rejected(self):
        for empty in (np.zeros((50, 0)), np.zeros((0, 2)), np.zeros(50)):
            with pytest.raises(ValueError):
                estimate_async_degree(empty)


class TestEnvelope:
    def test_zero_energy_passes(self):
        dc = compute_constants(Parameters(), 1.0)
        chk = check_absorbing_envelope(np.linspace(0, 10, 50), np.zeros(50), dc)
        assert chk.passed and chk.max_margin == 0.0

    def test_bounded_series_passes(self):
        dc = compute_constants(Parameters(), 1.0)
        t = np.linspace(0, 10, 50)
        y = np.full(50, 0.5 * dc.envelope_asymptote)
        chk = check_absorbing_envelope(t, y, dc)
        assert chk.passed and chk.max_margin < 1.0

    def test_violation_detected(self):
        dc = compute_constants(Parameters(), 1.0)
        t = np.linspace(0, 10, 50)
        y = np.full(50, 0.5 * dc.envelope_asymptote)
        y[30] = 2.0 * dc.envelope_asymptote
        chk = check_absorbing_envelope(t, y, dc)
        assert not chk.passed and chk.max_margin > 1.0

    def test_shape_validation(self):
        dc = compute_constants(Parameters(), 1.0)
        with pytest.raises(ValueError):
            check_absorbing_envelope([0.0, 1.0], [1.0], dc)


class TestGnEstimate:
    def test_deterministic(self):
        g = Grid((64,), (1.0,))
        a = estimate_gn_constant(g, n_samples=16, seed=7)
        b = estimate_gn_constant(g, n_samples=16, seed=7)
        assert a == b
        assert a > 0

    def test_stable_under_refinement(self):
        a = estimate_gn_constant(Grid((128,), (1.0,)), n_samples=32, seed=7)
        b = estimate_gn_constant(Grid((256,), (1.0,)), n_samples=32, seed=7)
        assert abs(a - b) / a < 0.1

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            estimate_gn_constant(Grid((64,), (1.0,)), n_samples=0)
