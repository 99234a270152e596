import numpy as np
import pytest
from scipy.stats import chi2

from twinloss import (
    Histogram,
    ParamSet,
    TrialSet,
    bootstrap,
    group_trials,
    model_pnd,
    relative_error_map,
    rms_error,
    rng_stream,
    sample_shots,
    simulate_trials,
)


def marginal_mean(hist):
    m = np.arange(hist.counts.shape[0])
    return float(hist.counts.sum(axis=1) @ m) / hist.total


def test_rng_stream_reproducible_and_independent():
    a = rng_stream(3, 1).random(5)
    b = rng_stream(3, 1).random(5)
    c = rng_stream(3, 2).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        rng_stream(-1)


def test_sample_shots_deterministic(theta_a):
    a = sample_shots(theta_a, 5000, cutoff=12, seed=8, stream=2)
    b = sample_shots(theta_a, 5000, cutoff=12, seed=8, stream=2)
    c = sample_shots(theta_a, 5000, cutoff=12, seed=8, stream=3)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.shots == 5000


def test_sample_shots_lossless_stays_diagonal():
    hist = sample_shots(ParamSet(eta1=1.0, eta2=1.0, r=1.0), 20_000, cutoff=30, seed=1)
    off = hist.counts - np.diag(np.diag(hist.counts))
    assert off.sum() == 0


def test_sample_shots_mean_within_clt_band(theta_a):
    pnd = model_pnd(theta_a, 20)
    m = np.arange(21)
    weights = pnd.probs.sum(axis=1)
    mean_model = float(m @ weights)
    var_model = float(m**2 @ weights) - mean_model**2
    hist = sample_shots(theta_a, 10**6, cutoff=20, seed=2)
    band = 4.0 * np.sqrt(var_model / 10**6)
    assert abs(marginal_mean(hist) - mean_model) < band
    assert mean_model == pytest.approx(
        theta_a.eta1**2 * np.sinh(theta_a.r) ** 2 + theta_a.nu1, abs=1e-6
    )


def test_sample_shots_overflow_matches_tail_mass(theta_a):
    n_shots = 10**5
    tail = model_pnd(theta_a, 4).tail_mass
    with pytest.warns(UserWarning, match="overflow"):
        hist = sample_shots(theta_a, n_shots, cutoff=4, seed=0)
    assert hist.shots == n_shots
    band = 4.0 * np.sqrt(tail * (1.0 - tail) / n_shots)
    assert abs(hist.overflow / n_shots - tail) < band


def test_sample_shots_warns_on_large_tail(theta_a):
    with pytest.warns(UserWarning, match="overflow"):
        sample_shots(theta_a, 100, cutoff=4, seed=0)


def test_simulate_trials_streams_are_trial_indices(theta_a):
    trials = simulate_trials(theta_a, 3, 2000, cutoff=12, seed=5)
    assert trials.n_trials == 3
    assert trials.theta_true == theta_a
    direct = sample_shots(theta_a, 2000, cutoff=12, seed=5, stream=2)
    assert np.array_equal(trials.histograms[2].counts, direct.counts)


def test_trial_set_validation(theta_a):
    h = sample_shots(theta_a, 1000, cutoff=12, seed=0)
    with pytest.raises(ValueError):
        TrialSet(histograms=(), shots_per_trial=1000, seed=0)
    with pytest.raises(ValueError):
        TrialSet(histograms=(h,), shots_per_trial=999, seed=0)


def test_group_trials_conserves_counts(theta_a):
    trials = simulate_trials(theta_a, 6, 1500, cutoff=12, seed=3)
    grouped = group_trials(trials, 3)
    assert grouped.n_trials == 2
    assert grouped.shots_per_trial == 4500
    total_before = sum(h.counts.sum() for h in trials.histograms)
    total_after = sum(h.counts.sum() for h in grouped.histograms)
    assert total_before == total_after
    assert np.array_equal(
        grouped.histograms[0].counts,
        trials.histograms[0].counts
        + trials.histograms[1].counts
        + trials.histograms[2].counts,
    )


def test_group_trials_drops_remainder_with_warning(theta_a):
    trials = simulate_trials(theta_a, 5, 1000, cutoff=12, seed=3)
    with pytest.warns(UserWarning, match="dropping"):
        grouped = group_trials(trials, 2)
    assert grouped.n_trials == 2
    with pytest.raises(ValueError):
        group_trials(trials, 6)


def test_group_trials_shrinks_estimator_variance(theta_a):
    trials = simulate_trials(theta_a, 40, 20_000, cutoff=16, seed=7)
    grouped = group_trials(trials, 8)
    var_single = np.var([marginal_mean(h) for h in trials.histograms], ddof=1)
    var_grouped = np.var([marginal_mean(h) for h in grouped.histograms], ddof=1)
    assert var_grouped < var_single / 2.0


def test_bootstrap_with_replacement_matches_binomial_scatter(theta_a):
    hist = sample_shots(theta_a, 50_000, cutoff=14, seed=4)
    replicas = bootstrap(hist, "nonparam-with-replacement", n_resamples=200, seed=13)
    assert all(r.total == hist.total for r in replicas)
    values = np.array([r.counts[1, 1] for r in replicas])
    q = hist.counts[1, 1] / hist.total
    expected = hist.total * q * (1.0 - q)
    assert 0.5 < values.var(ddof=1) / expected < 2.0


def test_bootstrap_without_replacement_full_draw_is_copy(theta_a):
    hist = sample_shots(theta_a, 10_000, cutoff=12, seed=9)
    replicas = bootstrap(hist, "nonparam-without-replacement", n_resamples=2, seed=1)
    for replica in replicas:
        assert np.array_equal(replica.counts, hist.counts)
    sub = bootstrap(
        hist, "nonparam-without-replacement", n_resamples=2, resample_size=4000, seed=1
    )
    assert all(r.total == 4000 for r in sub)
    assert (sub[0].counts <= hist.counts).all()
    with pytest.raises(ValueError):
        bootstrap(hist, "nonparam-without-replacement", resample_size=10_001)


def test_bootstrap_parametric_replays_model_streams(theta_a):
    hist = sample_shots(theta_a, 50_000, cutoff=14, seed=4)
    replicas = bootstrap(hist, "parametric", n_resamples=3, seed=6, theta=theta_a)
    direct = sample_shots(theta_a, hist.total, cutoff=14, seed=6, stream=1)
    assert np.array_equal(replicas[1].counts, direct.counts)
    assert replicas[1].overflow == direct.overflow
    with pytest.raises(ValueError):
        bootstrap(hist, "parametric", n_resamples=2)


def test_bootstrap_pools_trial_sets(theta_a):
    trials = simulate_trials(theta_a, 4, 1000, cutoff=12, seed=2)
    replicas = bootstrap(trials, "nonparam-without-replacement", n_resamples=1)
    assert replicas[0].total == 4000


def test_bootstrap_mode_validation(theta_a):
    hist = sample_shots(theta_a, 1000, cutoff=12, seed=0)
    with pytest.raises(ValueError):
        bootstrap(hist, "jackknife")
    with pytest.raises(ValueError):
        bootstrap(hist, "parametric", n_resamples=0, theta=theta_a)
    with pytest.raises(ValueError):
        bootstrap(np.zeros((3, 3)), "parametric", theta=theta_a)


def test_relative_error_map_zero_on_exactly_matched_model():
    hist = Histogram(counts=np.array([[42]]))
    theta = ParamSet(eta1=0.5, eta2=0.5, r=0.0)
    grid = relative_error_map(hist, theta)
    assert np.array_equal(grid, np.zeros((1, 1)))
    assert rms_error(hist, theta) == 0.0


def test_relative_error_rms_tiny_on_rounded_model(theta_a):
    probs = model_pnd(theta_a).probs
    hist = Histogram(counts=np.round(1e15 * probs))
    assert rms_error(hist, theta_a) < 1e-12


def test_relative_error_grows_toward_grid_edge(theta_a):
    hist = sample_shots(theta_a, 10**6, cutoff=20, seed=17)
    grid = relative_error_map(hist, theta_a)
    low = np.abs(grid[:4, :4]).mean()
    edge_mask = np.zeros_like(grid, dtype=bool)
    edge_mask[10:, :] = True
    edge_mask[:, 10:] = True
    edge = np.abs(grid[edge_mask & np.isfinite(grid)]).mean()
    assert edge > 10.0 * low


def test_sampler_passes_goodness_of_fit(theta_a):
    hist = sample_shots(theta_a, 10**6, cutoff=20, seed=17)
    pnd = model_pnd(theta_a, 20)
    expected = 10**6 * pnd.probs
    keep = expected >= 5.0
    statistic = float(((hist.counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    pooled_expected = expected[~keep].sum() + 10**6 * pnd.tail_mass
    pooled_observed = hist.counts[~keep].sum() + hist.overflow
    statistic += (pooled_observed - pooled_expected) ** 2 / pooled_expected
    dof = int(keep.sum())  # kept cells plus the pooled cell, minus one
    assert chi2.sf(statistic, dof) >= 1e-3
