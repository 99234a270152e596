"""End-to-end acceptance checks of the package's headline guarantees.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import time

import numpy as np
import pytest
from conftest import mixture_pnd

from twinloss import (
    ParamSet,
    classical_fim,
    crossover_curve,
    default_cutoff,
    fit,
    lossy_tmsv_pnd,
    model_pnd,
    observed_fim,
    qfim_coherent,
    qfim_inverse_analytic,
    qfim_lowloss_tmsv,
    qfim_tmsv,
    sample_shots,
    total_variance,
)


def test_01_variance_bounds_match_device_reference_points():
    t0 = time.perf_counter()
    reference = {
        (0.39202, 0.38206, 1.3000): (1.7e-9, 1.7e-9, 8.3e-9),
        (0.28730, 0.28621, 1.3425): (3.5e-9, 3.4e-9, 3.1e-8),
    }
    for point, expected in reference.items():
        per_shot = np.diag(qfim_inverse_analytic(*point))
        assert np.all(np.abs(per_shot / 1e9 / np.array(expected) - 1.0) < 0.03)
    first = np.diag(qfim_inverse_analytic(0.39202, 0.38206, 1.3000))
    assert np.allclose(first, (1.740, 1.657, 8.305), rtol=5e-4)
    assert time.perf_counter() - t0 < 1.0


def test_02_equal_energy_coherent_benchmark_total_variance():
    t0 = time.perf_counter()
    energy = 2.0 * np.sinh(1.30) ** 2
    tv = total_variance(qfim_coherent(energy / 2.0, energy / 2.0))
    assert abs(tv - 1.0 / energy) < 1e-15
    assert abs(tv - 0.1733) < 5e-5
    assert 0.145 <= tv <= 0.175
    assert time.perf_counter() - t0 < 1.0


def test_03_lossless_counts_are_geometric_and_diagonal():
    t0 = time.perf_counter()
    for r in (0.5, 1.0, 1.3):
        pnd = lossy_tmsv_pnd(1.0, 1.0, r, 10)
        n = np.arange(11)
        expected = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
        assert np.abs(np.diag(pnd.probs) - expected).max() < 1e-10
        off = pnd.probs - np.diag(np.diag(pnd.probs))
        assert np.abs(off).max() < 1e-14
    assert time.perf_counter() - t0 < 1.0


def test_04_series_matches_direct_mixture_on_random_parameters():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(50):
        eta1, eta2 = rng.uniform(0.35, 0.95, size=2)
        r = float(rng.uniform(0.1, 1.3))
        nu1, nu2 = rng.uniform(0.0, 0.15, size=2)
        cutoff = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        theta = ParamSet(eta1=eta1, eta2=eta2, r=r, nu1=nu1, nu2=nu2)
        got = model_pnd(theta, cutoff).probs
        want = mixture_pnd(eta1, eta2, r, cutoff, nu1, nu2)
        assert np.abs(got - want).max() < 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_05_counting_information_is_bounded_by_qfim_and_tight_at_high_transmission():
    t0 = time.perf_counter()
    etas = (0.3, 0.5, 0.7, 0.9, 0.95)
    min_eig = np.inf
    max_dev = 0.0
    for e1 in etas:
        for e2 in etas:
            for r in (1 / 16, 1 / 4, 1 / 2):
                fim = classical_fim(
                    ParamSet(eta1=e1, eta2=e2, r=r), params=("eta1", "eta2", "r")
                )
                qfim = qfim_tmsv(e1, e2, r)
                gap = qfim.entries - fim.entries
                min_eig = min(min_eig, float(np.linalg.eigvalsh(gap).min()))
                if min(e1, e2) >= 0.9:
                    dev = np.abs(np.diag(fim.entries) / np.diag(qfim.entries) - 1.0)
                    max_dev = max(max_dev, float(dev.max()))
    assert min_eig >= -1e-8
    assert max_dev < 0.05
    assert time.perf_counter() - t0 < 300.0


def test_06_simulated_trials_recover_truth_within_quantum_limit_factor(theta_a):
    t0 = time.perf_counter()
    shots = 10**5
    free = ("eta1", "eta2", "r")
    estimates = np.empty((100, 3))
    for trial in range(100):
        hist = sample_shots(theta_a, shots, 16, seed=0, stream=trial)
        result = fit(hist, theta_a, free=free, n_starts=1, seed=0)
        assert result.converged
        estimates[trial] = [getattr(result.theta_hat, name) for name in free]
    truth = np.array([theta_a.eta1, theta_a.eta2, theta_a.r])
    mean_err = np.abs(estimates.mean(axis=0) - truth)
    sem = estimates.std(axis=0, ddof=1) / np.sqrt(100.0)
    assert np.all(mean_err <= 5.0 * sem)
    var_eta1 = estimates[:, 0].var(ddof=1)
    bound = 1.7404032483 / shots
    assert 1.0 <= var_eta1 / bound <= 3.0
    assert time.perf_counter() - t0 < 900.0


def test_07_observed_information_equals_scaled_expected_information(theta_a):
    t0 = time.perf_counter()
    cutoff = default_cutoff(theta_a)
    mu = 1e9
    counts = model_pnd(theta_a, cutoff).probs * mu
    fim = classical_fim(theta_a, cutoff=cutoff)
    obs = observed_fim(counts, theta_a)
    scale = np.abs(mu * fim.entries).max()
    assert np.abs(obs.entries - mu * fim.entries).max() <= 1e-6 * scale
    assert time.perf_counter() - t0 < 60.0


def test_08_fits_agree_across_amplitude_and_intensity_parametrizations(theta_a):
    t0 = time.perf_counter()
    hist = sample_shots(theta_a, 10**5, 16, seed=42)
    free = ("eta1", "eta2", "r")
    by_eta = fit(hist, theta_a, free=free, n_starts=1, seed=0, parametrization="eta")
    by_q = fit(hist, theta_a, free=free, n_starts=1, seed=0, parametrization="q")
    assert by_eta.converged and by_q.converged
    assert abs(by_eta.theta_hat.eta1 - by_q.theta_hat.eta1) < 1e-4
    assert abs(by_eta.theta_hat.eta2 - by_q.theta_hat.eta2) < 1e-4
    assert time.perf_counter() - t0 < 300.0


def test_09_crossover_transmission_rises_with_squeezing():
    t0 = time.perf_counter()
    diagonals = []
    for r in (1 / 16, 1 / 4, 1 / 2, 1.0):
        curve = crossover_curve(r, n_rays=9)
        diagonals.append(curve.diagonal_point())
    assert diagonals[0] < 0.45
    assert np.all(np.diff(diagonals) > 0.0)
    assert time.perf_counter() - t0 < 600.0


def test_10_lowloss_bound_matches_transmission_asymptote():
    t0 = time.perf_counter()
    energy = 2.0 * np.sinh(0.5) ** 2
    fim = qfim_lowloss_tmsv(0.999, 0.999, 0.5)
    ratios = np.diag(fim) / (energy / (1.0 - 0.999))
    assert np.abs(ratios - 1.0).max() < 0.02
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.skip(reason="needs recorded detector shot data from the physical device")
def test_11_device_data_estimates_via_ingest_path():
    """Replays recorded shot lists through the ingest path; data not shipped."""
