import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import scoring_to_xatol

from twinloss import (
    BOOTSTRAP_MODES,
    Histogram,
    NumericError,
    ParamSet,
    bootstrap,
    classical_fim,
    covariance_estimate,
    fit,
    kl_objective,
    model_pnd,
    moment_init,
    relative_error_map,
    rms_error,
    sample_shots,
)
from twinloss import mle
from twinloss.io import result_to_dict, write_result_json
from twinloss.mle import DECREASE_TOL, _conditioned_kl, _kl_divergence, minimize


def exact_model_histogram(theta, scale, cutoff=None):
    probs = model_pnd(theta, cutoff).probs
    return Histogram(counts=np.round(scale * probs))


def test_two_outcome_divergence_value():
    value = _kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    assert value == pytest.approx(0.1438410362, abs=1e-9)


def test_objective_vanishes_on_exact_model(theta_a):
    hist = exact_model_histogram(theta_a, 1e15)
    objective = kl_objective(hist, theta_a)
    assert 0.0 <= objective < 1e-12


def test_objective_invariant_under_count_scaling(theta_a):
    hist = exact_model_histogram(theta_a, 1e6, cutoff=10)
    tripled = Histogram(counts=3 * hist.counts)
    assert kl_objective(hist, theta_a) == kl_objective(tripled, theta_a)


def test_objective_infinite_when_model_excludes_data():
    counts = np.zeros((4, 4))
    counts[1, 1] = 90
    counts[1, 0] = 10
    lossless = ParamSet(eta1=1.0, eta2=1.0, r=0.7)
    assert kl_objective(Histogram(counts=counts), lossless) == np.inf


def test_objective_differences_track_log_likelihood(theta_a):
    hist = sample_shots(theta_a, 10_000, cutoff=12, seed=21)
    theta_1 = theta_a.replace(eta1=0.41, r=1.25)
    theta_2 = theta_a.replace(eta2=0.36, nu1=0.05)

    def conditional_log_likelihood(theta):
        probs = model_pnd(theta, hist.cutoff).probs
        occupied = hist.counts > 0
        p_hat = probs[occupied] / probs[occupied].sum()
        return float(np.sum(hist.counts[occupied] * np.log(p_hat)))

    lhs = kl_objective(hist, theta_1) - kl_objective(hist, theta_2)
    rhs = -(
        conditional_log_likelihood(theta_1) - conditional_log_likelihood(theta_2)
    ) / hist.total
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_moment_init_lands_in_plausible_region(theta_a):
    hist = sample_shots(theta_a, 50_000, cutoff=14, seed=3)
    init = moment_init(hist)
    assert 0.2 < init.eta1 < 0.8
    assert 0.2 < init.eta2 < 0.8
    assert 0.5 < init.r < 2.0
    assert init.nu1 == init.nu2 == 0.02


def test_fit_recovers_exact_model_parameters(theta_a):
    hist = exact_model_histogram(theta_a, 1e6, cutoff=12)
    result = fit(hist)
    assert result.converged
    recovered = result.theta_hat.values()
    assert np.abs(recovered - theta_a.values()).max() < 1e-4
    assert result.objective < 2e-6
    assert result.rms_error < 1e-6
    assert result.covariance is not None and result.covariance.shape == (5, 5)
    assert result.condition_number is not None


def test_fit_synthetic_million_shots_within_five_sigma(theta_a):
    hist = sample_shots(theta_a, 10**6, cutoff=16, seed=11)
    sigma = np.sqrt(
        np.diag(np.linalg.inv(classical_fim(theta_a, cutoff=16).entries)) / 10**6
    )
    result = fit(hist)
    assert result.converged
    deviation = np.abs(result.theta_hat.values() - theta_a.values())
    assert (deviation < 5.0 * sigma).all()


def test_fit_is_deterministic(theta_a):
    hist = sample_shots(theta_a, 10_000, cutoff=12, seed=5)
    kwargs = dict(free=("eta1", "eta2", "r"), n_starts=2, seed=9)
    a = fit(hist, theta_a, **kwargs)
    b = fit(hist, theta_a, **kwargs)
    assert a.theta_hat == b.theta_hat
    assert a.objective == b.objective


def test_fit_respects_fixed_parameters(theta_a):
    hist = sample_shots(theta_a, 10_000, cutoff=12, seed=5)
    result = fit(hist, theta_a, free=("r", "eta1"), n_starts=1)
    assert result.free == ("eta1", "r")
    assert result.theta_hat.eta2 == theta_a.eta2
    assert result.theta_hat.nu1 == theta_a.nu1
    assert result.theta_hat.nu2 == theta_a.nu2
    assert result.covariance is None or result.covariance.shape == (2, 2)


def test_fit_flags_singular_covariance():
    counts = np.zeros((3, 3))
    counts[0, 0] = 100
    init = ParamSet(eta1=0.3, eta2=0.3, r=0.4)
    with pytest.warns(UserWarning, match="covariance"):
        result = fit(Histogram(counts=counts), init, free=("eta1", "eta2"), n_starts=1)
    assert result.covariance is None
    assert result.condition_number is None
    assert not result.converged


def test_fit_validation(theta_a):
    hist = exact_model_histogram(theta_a, 1e4, cutoff=6)
    with pytest.raises(ValueError):
        fit(hist, theta_a, free=("phi",))
    with pytest.raises(ValueError):
        fit(hist, theta_a, free=())
    with pytest.raises(ValueError):
        fit(hist, theta_a, n_starts=0)


def test_fit_raises_numeric_error_when_every_start_fails():
    # the fixed transmissions and the start's squeezing leave D = 0, where the
    # count model cannot be represented, so no start gets a model
    hist = Histogram(counts=np.ones((5, 5)))
    with pytest.raises(NumericError, match="every start"):
        fit(hist, ParamSet(eta1=1e-200, eta2=1e-200, r=400.0), free=("r",), n_starts=1)


def test_fit_rejects_negative_seed(theta_a):
    hist = exact_model_histogram(theta_a, 1e4, cutoff=6)
    with pytest.raises(ValueError, match="seed"):
        fit(hist, theta_a, seed=-1)


def test_covariance_matches_information_inverse(theta_a):
    mu = 1e6
    counts = mu * model_pnd(theta_a).probs
    cov, cond = covariance_estimate(counts, theta_a)
    expected = np.linalg.inv(mu * classical_fim(theta_a).entries)
    assert np.abs(cov - expected).max() < 1e-6 * np.abs(expected).max()
    assert np.abs(cov - cov.T).max() < 1e-20
    assert np.linalg.eigvalsh(cov).min() > 0.0
    assert cond > 1.0


def test_histogram_from_shots_bins_and_overflows():
    shots = np.array([[0, 0], [1, 2], [1, 2], [4, 0], [9, 9]])
    unbounded = Histogram.from_shots(shots)
    assert unbounded.counts.shape == (10, 10)
    assert unbounded.overflow == 0


def test_histogram_from_shots_rejects_grid_too_large_to_allocate():
    with pytest.raises(ValueError, match="too large to allocate"):
        Histogram.from_shots(np.array([[2**63 - 1, 0]]))
    resource = pytest.importorskip("resource")
    # this pair asks for a 68.6 GiB grid: cap the child's address space at
    # 3 GiB so the allocation fails there, never in this process
    cap = 3 << 30
    script = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "import numpy as np\n"
        "from twinloss.mle import Histogram\n"
        "try:\n"
        "    Histogram.from_shots(np.array([[0, 9206208256]]))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "largest counts 0,9206208256 need a 1x9206208257 grid" in proc.stdout
    assert "too large to allocate" in proc.stdout


@pytest.mark.parametrize(
    "call",
    [
        lambda hist, theta: kl_objective(hist, theta),
        lambda hist, theta: moment_init(hist),
        lambda hist, theta: fit(hist),
        lambda hist, theta: fit(hist, theta),
        *(
            lambda hist, theta, mode=mode: bootstrap(hist, mode, theta=theta)
            for mode in BOOTSTRAP_MODES
        ),
        lambda hist, theta: relative_error_map(hist, theta),
        lambda hist, theta: rms_error(hist, theta),
    ],
    ids=[
        "kl_objective", "moment_init", "fit", "fit-init", *BOOTSTRAP_MODES,
        "relative_error_map", "rms_error",
    ],
)
def test_empty_histogram_is_rejected(call, theta_a):
    with pytest.raises(ValueError, match="holds no grid counts"):
        call(Histogram(counts=np.zeros((4, 4), dtype=int)), theta_a)


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(counts=np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        Histogram(counts=np.array([[0.5, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Histogram(counts=np.array([[-1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        Histogram(counts=np.zeros((2, 2), dtype=int), overflow=-1)
    with pytest.raises(ValueError):
        Histogram.from_shots(np.zeros((0, 2), dtype=int))


def test_objective_gradient_matches_central_differences(theta_a):
    hist = sample_shots(theta_a, 10_000, cutoff=12, seed=21)
    theta = theta_a.replace(eta1=0.41, r=1.25, nu2=0.05)
    free = ("eta1", "eta2", "r", "nu1", "nu2")
    _, grad, info = _conditioned_kl(hist, model_pnd(theta, hist.cutoff, wrt=free))
    for i, name in enumerate(free):
        h = 1e-6 * getattr(theta, name)
        hi = kl_objective(hist, theta.replace(**{name: getattr(theta, name) + h}))
        lo = kl_objective(hist, theta.replace(**{name: getattr(theta, name) - h}))
        assert grad[i] == pytest.approx((hi - lo) / (2.0 * h), rel=1e-5, abs=1e-9)
    assert np.array_equal(info, info.T)
    assert np.linalg.eigvalsh(info).min() > 0.0


def test_minimize_stops_in_place_without_information():
    def flat(x):
        return 0.0, np.zeros(2), np.zeros((2, 2)), None

    result = minimize(flat, np.array([0.3, -0.2]))
    assert result.success and result.nit == 0 and result.nfev == 1
    assert np.array_equal(result.x, [0.3, -0.2])


def test_minimize_scores_a_quadratic_in_one_step():
    center = np.array([1.0, -2.0])
    hessian = np.array([[2.0, 0.5], [0.5, 1.0]])

    def quadratic(x):
        d = x - center
        return 0.5 * d @ hessian @ d, hessian @ d, hessian, None

    result = minimize(quadratic, np.zeros(2))
    assert result.success and result.message == "predicted decrease below tolerance"
    assert np.abs(result.x - center).max() < 1e-12
    assert result.nit == 1 and result.nfev == 2


def test_minimize_stops_before_a_step_that_predicts_no_decrease():
    # the step of 1e-7 is above the old step bound of 1e-9, but the decrease
    # it predicts, 1e-14, is below the tolerance
    center = np.array([1e-7, 0.0])

    def quadratic(x):
        d = x - center
        return 0.5 * d @ d, d, np.eye(2), None

    assert DECREASE_TOL > 1e-14
    result = minimize(quadratic, np.zeros(2))
    assert result.success and result.message == "predicted decrease below tolerance"
    assert result.nfev == 1 and result.nit == 0
    assert np.array_equal(result.x, [0.0, 0.0])


def test_minimize_halves_a_step_that_crosses_a_wall():
    # the information is half the curvature, so the full step overshoots the
    # minimum at 1 by as much again; beyond 1.5 the objective is +inf
    evaluated = []

    def walled(x):
        evaluated.append(float(x[0]))
        if x[0] > 1.5:
            return np.inf, None, None, None
        d = x - 1.0
        return 0.5 * d @ d, d, np.array([[0.5]]), None

    result = minimize(walled, np.zeros(1))
    assert evaluated == [0.0, 2.0, 1.0]
    assert result.success and result.message == "predicted decrease below tolerance"
    assert result.nit == 1 and result.nfev == 3 and result.x[0] == 1.0


def test_minimize_halves_the_predicted_decrease_with_the_step():
    # the full step predicts 4.5e-14, just above the tolerance, and crosses
    # the wall; its half predicts 2.25e-14 and is never evaluated
    start = 1.0 - 1.5e-7

    def walled(x):
        if x[0] > 1.0 + 1e-7:
            return np.inf, None, None, None
        d = x - 1.0
        return 0.5 * d @ d, d, np.array([[0.5]]), None

    assert 2.25e-14 < DECREASE_TOL < 4.5e-14
    result = minimize(walled, np.array([start]))
    assert result.success and result.message == "predicted decrease below tolerance"
    assert result.nit == 0 and result.nfev == 2 and result.x[0] == start


def _test_06_fits(theta, trials=20):
    """Fits of test_06's protocol: point A, 1e5 shots, cutoff 16, eta1, eta2
    and r free and started at the truth, one fixed stream per trial."""
    for trial in range(trials):
        hist = sample_shots(theta, 10**5, 16, seed=0, stream=trial)
        yield hist, fit(hist, theta, free=("eta1", "eta2", "r"), n_starts=1, seed=0)


def test_fit_stops_without_evaluating_past_convergence(theta_a):
    for _, result in _test_06_fits(theta_a):
        assert result.converged
        assert result.evaluations <= 5


def test_fit_agrees_with_scoring_to_the_step_bound(theta_a, monkeypatch):
    for hist, result in _test_06_fits(theta_a):
        with monkeypatch.context() as patch:
            patch.setattr(mle, "minimize", scoring_to_xatol)
            oracle = fit(hist, theta_a, free=result.free, n_starts=1, seed=0)
        assert oracle.converged
        shift = result.theta_hat.values(result.free) - oracle.theta_hat.values(result.free)
        assert np.all(np.abs(shift) <= 1e-3 * np.sqrt(np.diag(result.covariance)))


def test_fit_records_how_it_was_obtained(theta_a, tmp_path):
    hist = sample_shots(theta_a, 10**5, 16, seed=0, stream=3)
    result = fit(hist, theta_a, free=("eta1", "eta2", "r"), n_starts=2, seed=0)
    assert result.converged
    assert 0 < result.evaluations < 100
    assert result.message == "predicted decrease below tolerance"
    assert len(result.start_objectives) == 2
    assert result.objective == min(result.start_objectives)

    path = tmp_path / "result.json"
    write_result_json(path, result)
    doc = json.loads(path.read_text())
    assert doc == json.loads(json.dumps(result_to_dict(result)))
    assert doc["evaluations"] == result.evaluations
    assert doc["message"] == result.message
    assert doc["start_objectives"] == list(result.start_objectives)
