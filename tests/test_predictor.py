import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bugsize import predictor
from bugsize.predictor import (
    GRID_FACTORS,
    KdeConfig,
    PhaseEvent,
    cv_score,
    decide_stop,
    events_from_totals,
    kde_density,
    predict_next_total,
    select_bandwidth,
    temporal_weights,
)

TABLE_TOTALS = [34007.0, 36157.0, 57738.0, 11409.0]


class TestTemporalWeights:
    def test_single_event(self):
        events = events_from_totals([12.0])
        assert np.asarray(temporal_weights(5.0, events, 1.0)).tolist() == [1.0]

    def test_identical_windows_symmetric(self):
        events = [
            PhaseEvent(1, 4.0, 0.0, 1.0),
            PhaseEvent(2, 9.0, 0.0, 1.0),
        ]
        assert np.allclose(temporal_weights(3.0, events, 0.7), [0.5, 0.5])

    def test_closed_form_two_windows(self):
        events = events_from_totals([1.0, 1.0], windows=[(0, 1), (1, 2)])
        w = temporal_weights(3.0, events, 1.0)
        u1 = math.exp(-2) - math.exp(-3)
        u2 = math.exp(-1) - math.exp(-2)
        assert np.allclose(w, [u1 / (u1 + u2), u2 / (u1 + u2)])
        assert w[0] == pytest.approx(0.2689, abs=1e-4)

    def test_prediction_before_window_rejected(self):
        events = events_from_totals([1.0, 1.0])
        with pytest.raises(ValueError, match="precedes"):
            temporal_weights(1.5, events, 1.0)

    def test_distant_history_does_not_underflow(self):
        events = events_from_totals([3.0, 4.0])
        w = np.asarray(temporal_weights(2000.0, events, 1.0))
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200)
    @given(
        starts=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
        widths=st.lists(st.floats(0.05, 5.0), min_size=8, max_size=8),
        rate=st.floats(0.05, 4.0),
        slack=st.floats(0.0, 10.0),
    )
    def test_weights_normalized_and_nonnegative(self, starts, widths, rate, slack):
        events = [
            PhaseEvent(i + 1, 1.0, v, v + w) for i, (v, w) in enumerate(zip(starts, widths))
        ]
        t = max(e.window_end for e in events) + slack
        weights = np.asarray(temporal_weights(t, events, rate))
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) <= 1e-12


class TestKdeDensity:
    def test_peak_height(self):
        events = events_from_totals([5.0])
        h = 2.0
        assert kde_density(5.0, events, [1.0], h) == pytest.approx(1 / (h * math.sqrt(2 * math.pi)))

    def test_far_tail_vanishes(self):
        events = events_from_totals([0.0, 3.0])
        value = kde_density(3.0 + 11 * 0.25, events, [0.5, 0.5], 0.25)
        assert value < 1e-20

    def test_symmetric_midpoint(self):
        h = 1.3
        events = events_from_totals([0.0, 2 * h])
        assert kde_density(h, events, [0.5, 0.5], h) == pytest.approx(
            2 * 0.5 * math.exp(-0.5) / (h * math.sqrt(2 * math.pi))
        )

    def test_integrates_to_one(self):
        events = events_from_totals([3.0, 8.0, 5.0])
        weights = temporal_weights(4.0, events, 1.0)
        h = 1.7
        total, _ = quad(
            lambda x: kde_density(x, events, weights, h), 3 - 10 * h, 8 + 10 * h, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_bad_bandwidth(self):
        events = events_from_totals([3.0])
        with pytest.raises(ValueError, match="bandwidth"):
            kde_density(1.0, events, [1.0], 0.0)


class TestBandwidthSelection:
    def test_cv_matches_quadrature(self):
        samples = [0.0, 1.0]
        h = 1.0

        def fhat(x):
            return sum(
                math.exp(-0.5 * ((x - s) / h) ** 2) / (h * math.sqrt(2 * math.pi))
                for s in samples
            ) / len(samples)

        quad_term, _ = quad(lambda x: fhat(x) ** 2, -15, 16, limit=300)
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        oracle = quad_term - (2 / 2) * (phi1 + phi1)
        assert cv_score(samples, h) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 127, 401])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_blocked_cv_matches_dense(self, n, ties):
        # the reference holds the whole n x n difference matrix at once
        def dense(x, h):
            diff = x[:, None] - x[None, :]
            norm = h * math.sqrt(2.0 * math.pi)
            quad_term = np.exp(-0.25 * (diff / h) ** 2).sum() / (norm * math.sqrt(2.0)) / n**2
            kernel = np.exp(-0.5 * (diff / h) ** 2) / norm
            return quad_term - 2.0 / n * (kernel.sum() - np.trace(kernel)) / (n - 1)

        x = np.random.default_rng(n).gamma(4.0, 50.0, size=n)
        if ties:
            # integer totals, as posterior draws of F are: the 401 draws take
            # 156 distinct values
            x = np.floor(x / 2.0)
        grid = (0.5, 1.0, 5.0, 40.0, 80.0, 320.0)
        scores = [dense(x, h) for h in grid]
        for h, score in zip(grid, scores):
            assert cv_score(x, h) == pytest.approx(score, rel=1e-12, abs=0.0)
        assert select_bandwidth(x, grid) == grid[int(np.argmin(scores))]

    def test_singleton_grid(self):
        assert select_bandwidth([0.0, 1.0, 2.0], [0.8]) == 0.8

    def test_gaussian_benchmark(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, 200)
        reference = 1.06 * x.std(ddof=1) * 200 ** (-0.2)
        grid = reference * np.geomspace(0.25, 4.0, 17)
        selected = select_bandwidth(x, grid)
        assert reference / 2 <= selected <= reference * 2

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            select_bandwidth([1.0], [0.5, 1.0])

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_gap_table_matches_pairwise(self, ties):
        # the reference visits every ordered pair of samples, one by one
        def pairwise(x, h):
            n = len(x)
            norm = h * math.sqrt(2.0 * math.pi)
            quad = loo = 0.0
            for i, x_i in enumerate(x):
                for j, x_j in enumerate(x):
                    u = (x_i - x_j) / h
                    quad += math.exp(-0.25 * u * u)
                    if i != j:
                        loo += math.exp(-0.5 * u * u)
            return quad / (norm * math.sqrt(2.0)) / n**2 - 2.0 / n * loo / norm / (n - 1)

        x = np.random.default_rng(3).gamma(4.0, 5.0, size=300)
        # integer totals repeat; floats spread over the same range do not
        x = np.floor(x).tolist() if ties else x.tolist()
        assert (len(set(x)) < 100) == ties
        grid = (0.5, 2.0, 10.0, 80.0)
        scores = [pairwise(x, h) for h in grid]
        for h, score in zip(grid, scores):
            assert cv_score(x, h) == pytest.approx(score, rel=1e-12, abs=0.0)
        assert select_bandwidth(x, grid) == grid[int(np.argmin(scores))]

    def test_default_grid_factors(self):
        assert GRID_FACTORS == tuple(np.geomspace(0.25, 4.0, 13).tolist())

    def test_tie_breaks_to_smaller(self):
        # a constant score function cannot arise, but equal scores on a
        # duplicated candidate must return that candidate once
        assert select_bandwidth([0.0, 1.0], [0.7, 0.7]) == 0.7


class TestPredictNextTotal:
    def test_table_fixture_prediction_respects_decrease(self):
        events = events_from_totals(TABLE_TOTALS)
        prediction = predict_next_total(events, KdeConfig())
        assert prediction.mean < TABLE_TOTALS[-1]

    def test_degenerate_zero_events(self):
        events = events_from_totals([0.0, 0.0])
        prediction = predict_next_total(events, KdeConfig())
        assert prediction.mean == 0.0
        assert prediction.truncated_mass == 0.0

    def test_small_bandwidth_matches_quadrature(self):
        events = events_from_totals([10.0, 4.0])
        config = KdeConfig(bandwidth=0.1, temporal_rate=1.0)
        prediction = predict_next_total(events, config)
        weights = temporal_weights(3.0, events, 1.0)
        numerator, _ = quad(lambda x: x * kde_density(x, events, weights, 0.1), 0, 4, limit=400)
        denominator, _ = quad(lambda x: kde_density(x, events, weights, 0.1), 0, 4, limit=400)
        assert prediction.mean == pytest.approx(numerator / denominator, rel=1e-9)
        assert prediction.mean < 4.0

    def test_needs_two_events(self):
        with pytest.raises(ValueError, match="2 past events"):
            predict_next_total(events_from_totals([4.0]), KdeConfig())

    def test_median_and_mode_inside_window(self):
        events = events_from_totals([30.0, 12.0])
        prediction = predict_next_total(events, KdeConfig(bandwidth=2.0))
        assert 0.0 <= prediction.median < 12.0
        assert 0.0 <= prediction.mode < 12.0

    @settings(max_examples=40, deadline=None)
    @given(
        totals=st.lists(st.floats(1.0, 500.0), min_size=2, max_size=6),
        h=st.floats(0.1, 30.0),
    )
    def test_prediction_strictly_below_last_total(self, totals, h):
        events = events_from_totals(totals)
        prediction = predict_next_total(events, KdeConfig(bandwidth=h))
        if prediction.truncated_mass > 0:
            assert prediction.mean < totals[-1]

    def test_median_bisection_stops_when_its_bracket_cannot_shrink(self, monkeypatch):
        calls = []
        norm_cdf = predictor._norm_cdf

        def counted(z):
            calls.append(z)
            return norm_cdf(z)

        monkeypatch.setattr(predictor, "_norm_cdf", counted)
        events = events_from_totals(TABLE_TOTALS)
        predict_next_total(events, KdeConfig(bandwidth=5000.0))
        # 2 calls per event for the moments, then one per event for each
        # bisection step: a double's bracket stops shrinking within ~60 halvings
        # of [0, last total], far short of the 200-step cap
        steps = (len(calls) - 2 * len(events)) / len(events)
        assert steps <= 60


def test_kde_config_rejects_non_integer_cv_samples():
    # the bandwidth search tabulates gaps between distinct samples; integer
    # totals keep that table within their value range, so floats are refused
    assert KdeConfig(cv_samples=(3, 4.0, 12)).cv_samples == (3, 4.0, 12)
    with pytest.raises(ValueError, match="cv_samples must hold integers"):
        KdeConfig(cv_samples=(3.0, 4.5, 12.0))


class TestExactSums:
    """Every sum of floats is exactly rounded (math.fsum), so a result does
    not depend on the order of its terms or on the interpreter."""

    def test_truncated_moments(self):
        # with a narrow kernel well inside [0, upper) each component's mass
        # is its weight exactly; added left to right they make 0.6000000000000001
        weights = [0.1, 0.2, 0.3]
        assert 0.1 + 0.2 + 0.3 != 0.6
        mass, _, pos_mass, _ = predictor._truncated_moments([1.0, 2.0, 3.0], weights, 0.01, 10.0)
        assert mass == pos_mass == math.fsum(weights) == 0.6

    def test_temporal_weights(self):
        events = events_from_totals([1.0] * 7)
        t, rate = 8.0, 0.5
        # the documented raw weights, relative to the youngest event's
        raw = [
            math.exp(-rate * (t - e.window_end - 1.0)) * -math.expm1(-rate) for e in events
        ]
        left_to_right = 0.0
        for w in raw:
            left_to_right += w
        assert left_to_right != math.fsum(raw)
        assert temporal_weights(t, events, rate) == [w / math.fsum(raw) for w in raw]

    def test_kde_density(self):
        events = events_from_totals([3.0, 5.0, 9.0])
        weights, h, x = [0.1, 0.2, 0.3], 1.5, 1.0
        terms = []
        for e, w in zip(events, weights):
            z = (x - e.total_size) / h
            terms.append(math.exp(-0.5 * (z * z)) / (h * math.sqrt(2.0 * math.pi)) * w)
        assert terms[0] + terms[1] + terms[2] != math.fsum(terms)
        assert kde_density(x, events, weights, h) == math.fsum(terms)


class TestNonFinite:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"bandwidth": math.inf}, "bandwidth must be finite"),
            ({"temporal_rate": math.nan}, "temporal_rate must be finite"),
            ({"cv_grid": (1.0, math.nan)}, "cv_grid must hold finite numbers"),
            ({"cv_samples": (1.0, math.inf)}, "cv_samples must hold finite numbers"),
        ],
    )
    def test_kde_config(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            KdeConfig(**kwargs)

    def test_phase_event(self):
        with pytest.raises(ValueError, match="total size must be finite"):
            PhaseEvent(1, math.nan, 0.0, 1.0)
        with pytest.raises(ValueError, match="finite bounds"):
            PhaseEvent(1, 3.0, -math.inf, 1.0)

    def test_decide_stop(self):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            decide_stop([1.0], math.nan)
        with pytest.raises(ValueError, match="totals must be finite"):
            decide_stop([math.inf, 1.0], 1.0)


class TestDecideStop:
    def test_table_fixture(self):
        totals = TABLE_TOTALS + [6.9e-10]
        assert decide_stop(totals, 1.0).stop_after_phase == 4

    def test_no_crossing_continues(self):
        decision = decide_stop([5.0, 5.0, 5.0], 1.0)
        assert decision.stop_after_phase is None
        assert not decision.should_stop

    def test_first_crossing(self):
        assert decide_stop([5.0, 0.5, 0.2], 1.0).stop_after_phase == 1

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="positive"):
            decide_stop([1.0], 0.0)

    @settings(max_examples=120)
    @given(
        totals=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
        eps_small=st.floats(0.01, 25.0),
        bump=st.floats(0.0, 25.0),
    )
    def test_monotone_in_epsilon(self, totals, eps_small, bump):
        small = decide_stop(totals, eps_small).stop_after_phase
        large = decide_stop(totals, eps_small + bump).stop_after_phase
        small = math.inf if small is None else small
        large = math.inf if large is None else large
        assert large <= small
